"""NoC soak tests: randomised traffic, conservation, and fairness,
plus seeded fault soaks of three designs, ``fast`` against
``reference``.  Every flat-mesh case cross-checks
``FlatMeshCore.check_invariants()`` (and, where tiles run on it,
``FlatTileCore.check_invariants()``) after every cycle and ends with
the object mesh's high-water marks on every router input."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.designs import (
    FrameSink,
    ScaledEchoDesign,
    TcpServerDesign,
    UdpEchoDesign,
)
from repro.faults import FaultPlan
from repro.noc import FlatMesh, Mesh, NocMessage
from repro.noc.message import reset_id_counters
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.sim.kernel import CycleSimulator, no_commit
from repro.tcp.peer import SoftTcpPeer
from repro.telemetry import design_counters

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def run_checked(sim, mesh, cycles, done=None, tile_core=None):
    """Run ``cycles`` cycles (or until ``done()``), one at a time; a
    flat mesh and a flat tile core have their state machines checked
    at every cycle boundary."""
    core = getattr(mesh, "core", None)
    for _ in range(cycles):
        if done is not None and done():
            return
        sim.run(1)
        if core is not None:
            assert core.check_invariants(sim.cycle) == []
        if tile_core is not None:
            assert tile_core.check_invariants() == []


def input_high_water(mesh):
    """``high_water`` of every router input: rings and LOCAL FIFOs."""
    return {(coord, port.value): fifo.high_water
            for coord, router in mesh.routers.items()
            for port, fifo in router.inputs.items()}


class Drain:
    def __init__(self, port):
        self.port = port
        self.messages = []

    def step(self, cycle):
        message = self.port.receive(cycle)
        if message is not None:
            self.messages.append(message)

    commit = no_commit


class TestNocSoak:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_traffic_is_conserved(self, data):
        """Whatever random (src, dst, size) workload is injected, every
        message arrives exactly once, intact, at its destination, in
        per-pair order — nothing lost, duplicated, or misrouted."""
        self.check_random_traffic("object", *self.draw_workload(data))

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_traffic_is_conserved_flat(self, data):
        workload = self.draw_workload(data)
        assert self.check_random_traffic("flat", *workload) == \
            self.check_random_traffic("object", *workload)

    @staticmethod
    def draw_workload(data):
        width = data.draw(st.integers(2, 4))
        height = data.draw(st.integers(1, 4))
        coords = [(x, y) for x in range(width) for y in range(height)]
        sends = []
        for _ in range(data.draw(st.integers(1, 40))):
            src = data.draw(st.sampled_from(coords))
            dst = data.draw(st.sampled_from(
                [c for c in coords if c != src]))
            sends.append((src, dst, data.draw(st.integers(0, 700))))
        return width, height, sends

    def check_random_traffic(self, backend, width, height, sends):
        """Run one drawn workload (the object mesh on the naive kernel,
        the flat one on the scheduled); returns the input high-water
        marks."""
        coords = [(x, y) for x in range(width) for y in range(height)]
        flat = backend == "flat"
        sim = CycleSimulator(kernel="scheduled" if flat else "naive")
        mesh = (FlatMesh if flat else Mesh)(width, height)
        ports = {coord: mesh.attach(coord) for coord in coords}
        mesh.register(sim)
        drains = {coord: Drain(port) for coord, port in ports.items()}
        sim.add_all(drains.values())

        n_messages = len(sends)
        sent = []
        for index, (src, dst, size) in enumerate(sends):
            payload = bytes([index % 251]) * size
            ports[src].send(NocMessage(dst=dst, src=src,
                                       metadata=(src, index),
                                       data=payload))
            sent.append((src, dst, index, payload))

        run_checked(
            sim, mesh, 60_000,
            lambda: sum(len(d.messages) for d in drains.values())
            == n_messages)
        assert sum(len(d.messages) for d in drains.values()) \
            == n_messages
        # Exactly-once, intact, correctly routed.
        received = {}
        for dst, drain in drains.items():
            for message in drain.messages:
                src, index = message.metadata
                assert (src, index) not in received
                received[(src, index)] = (dst, message.data)
        for src, dst, index, payload in sent:
            got_dst, got_payload = received[(src, index)]
            assert got_dst == dst
            assert got_payload == payload
        # Per (src, dst) pair, arrival order == send order.
        for dst, drain in drains.items():
            per_src = {}
            for message in drain.messages:
                src, index = message.metadata
                per_src.setdefault(src, []).append(index)
            sent_order = {}
            for src, sdst, index, _ in sent:
                if sdst == dst:
                    sent_order.setdefault(src, []).append(index)
            assert per_src == sent_order
        return input_high_water(mesh)

    def test_round_robin_arbitration_is_fair(self):
        """Two senders contending for one path share it ~evenly."""
        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(3, 2)
        a = mesh.attach((0, 0))
        b = mesh.attach((0, 1))
        sink_port = mesh.attach((2, 0), eject_depth=8)
        mesh.register(sim)
        drain = Drain(sink_port)
        sim.add(drain)
        for i in range(40):
            a.send(NocMessage(dst=(2, 0), src=(0, 0),
                              metadata=("a", i), data=bytes(256)))
            b.send(NocMessage(dst=(2, 0), src=(0, 1),
                              metadata=("b", i), data=bytes(256)))
        sim.run_until(lambda: len(drain.messages) == 80,
                      max_cycles=30_000)
        # Interleaving: in any window of 16 arrivals, both senders
        # appear (no starvation).
        tags = [m.metadata[0] for m in drain.messages]
        for start in range(0, 80 - 16, 8):
            window = set(tags[start:start + 16])
            assert window == {"a", "b"}


class TestFaultSoak:
    """Seeded chaos soaks, ``fast`` against ``reference``.

    The fault hooks live at shared boundaries — the inject wire and
    the tile-side LocalPort — so an identical FaultPlan must produce
    a bit-identical run (egress frames, tile counters, fault log,
    high-water marks) whether the mesh is the object graph or the flat
    array core, the tiles sit in a ``FlatTileCore`` or each in a slot
    of their own, and the kernel sweeps every component or idle-skips.
    The ``fast`` run has both cores' invariants checked every cycle.
    """

    @staticmethod
    def wire_faults(seed):
        return FaultPlan(seed=seed).wire(drop=0.15, corrupt=0.1,
                                         duplicate=0.1, reorder=0.15,
                                         delay=0.25)

    @staticmethod
    def echo_traffic(design, seed, frames):
        # Seeded, bursty, variable-size traffic over many flows — same
        # for both profiles because the rng is rebuilt from the seed.
        rng = random.Random(seed)
        cycle = 1
        for i in range(frames):
            payload = bytes(rng.randrange(256)
                            for _ in range(rng.randrange(8, 600)))
            frame = build_ipv4_udp_frame(
                CLIENT_MAC, design.server_mac, CLIENT_IP,
                design.server_ip, 5555 + i % 32, 7, payload)
            design.inject(frame, cycle)
            cycle += rng.choice((1, 3, 40, 200))

    @staticmethod
    def soak(design, cycles, sink=None):
        """Run ``cycles`` cycles under the checkers; returns what the
        two profiles must agree on."""
        run_checked(design.sim, design.mesh, cycles,
                    tile_core=design.tile_core)
        counters = design_counters(design)
        assert sink is None or sink.malformed == 0
        return {
            "frames": None if sink is None else list(sink.frames),
            "tiles": counters["tiles"],
            "total_flits": counters["total_flits"],
            "faults": counters["faults"],
            "fault_log": list(design.fault_engine.log),
            "input_high_water": input_high_water(design.mesh),
        }

    @staticmethod
    def assert_identical(run):
        reset_id_counters()
        reference = run("reference")
        reset_id_counters()
        fast = run("fast")
        assert set(reference) == set(fast)
        for key in reference:
            assert reference[key] == fast[key], (
                f"fault-soak divergence in {key!r}: fast != reference")
        return fast

    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_identical_faulty_runs_across_combos(self, seed):
        def run(profile):
            plan = (self.wire_faults(seed)
                    .freeze_tile("app", at=400, duration=600)
                    .stall_link((3, 0), at=2000, duration=300)
                    .corrupt_flits(0.1, coords=[(2, 0)]))
            design = UdpEchoDesign(udp_port=7, profile=profile,
                                   fault_plan=plan)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            self.echo_traffic(design, seed, 40)
            return self.soak(design, 15_000, sink)

        assert self.assert_identical(run)["frames"]

    @pytest.mark.parametrize("seed", [13, 31])
    def test_scaled_echo_7x4_fault_soak(self, seed):
        """22 replicas behind one flow-hash table: a frozen replica and
        a stalled one back wormholes up across the 7x4 mesh while the
        other twenty keep answering."""
        def run(profile):
            plan = (self.wire_faults(seed)
                    .freeze_tile("app3", at=400, duration=900)
                    .stall_link((6, 3), at=1500, duration=500)
                    .corrupt_flits(0.1, coords=[(2, 0)]))
            design = ScaledEchoDesign(profile=profile, fault_plan=plan)
            assert (design.width, design.height) == (7, 4)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            self.echo_traffic(design, seed, 80)
            out = self.soak(design, 12_000, sink)
            out["per_app"] = [app.requests for app in design.apps]
            return out

        fast = self.assert_identical(run)
        assert len(fast["frames"]) > 40
        assert sum(1 for served in fast["per_app"] if served) > 10

    @pytest.mark.parametrize("seed", [17, 37])
    def test_tcp_server_fault_soak(self, seed):
        """Object-mode TCP engine tiles inside the tile core, a soft
        peer with a short RTO outside it, and a wire that drops,
        duplicates, reorders and delays what the peer sends: the
        stream only advances through retransmission timers."""
        def run(profile):
            plan = (FaultPlan(seed=seed)
                    .wire(drop=0.08, duplicate=0.05, reorder=0.08,
                          delay=0.2)
                    .freeze_tile("app", at=3_000, duration=700)
                    .stall_link((3, 0), at=6_000, duration=400))
            design = TcpServerDesign(tcp_port=5000, request_size=256,
                                     mss=512, profile=profile,
                                     fault_plan=plan)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                               design.server_ip, 5000, mss=512,
                               wire_cycles=50, rto_cycles=1_500)
            design.sim.add(peer)
            peer.connect()
            rng = random.Random(seed)
            peer.send(bytes(rng.randrange(256) for _ in range(16_384)))
            out = self.soak(design, 20_000)
            out["received"] = bytes(peer.received)
            out["peer"] = (peer.established, peer.segments_sent,
                           peer.retransmits, peer.bytes_acked)
            return out

        fast = self.assert_identical(run)
        established, _sent, retransmits, acked = fast["peer"]
        assert established and retransmits > 5
        assert acked == len(fast["received"]) > 4_096
