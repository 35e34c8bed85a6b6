"""Differential tests: ``fast`` must be cycle-exact.

Every shipped design is driven with identical traffic under the two
profiles — ``reference`` (the naive kernel stepping every component
every cycle, one object per router, every tile a component of its own)
and ``fast`` (activity scheduling with idle-skip over the
array-of-struct mesh and tile cores) — and the complete observable
state is compared:

- per-tile counters (messages/bytes in and out, drops with reasons)
  and per-router flit counts;
- every egress frame with its emit cycle;
- the full trace event streams (tile spans, injection spans, drops,
  per-link flit and stall events, buffer levels, trace horizon).

Any scheduling or batching bug — a missed wake, a late timer, a
reordered step, a flit moved through the wrong arbitration order —
shows up as a diff here, which is the correctness bar the fast path
is held to (an optimisation that changes results is a different
simulator, not a faster one).  A diff here says *that* the profiles
disagree; the hand-built pairings in ``test_sim_kernel``, ``test_noc``
and ``test_flatmesh`` (scheduled kernel over an object mesh, flat mesh
under the naive kernel) say in which layer.
"""

import pytest

import repro.designs
from repro.config import design_from_xml
from repro.config.examples import UDP_ECHO_XML
from repro.config.generate import GeneratedDesign
from repro.control import encode_control_rpc
from repro.designs import (
    SHIPPED,
    FrameSink,
    FrameSource,
    LoggedUdpEchoDesign,
    ManagedNatEchoDesign,
    MultiStackDesign,
    ScaledEchoDesign,
    UdpEchoDesign,
    VxlanEchoDesign,
    load_design,
)
from repro.designs.base import Design
from repro.designs.rs_design import RsDesign
from repro.designs.tcp_stack import TcpServerDesign
from repro.designs.virt_stack import NatEchoDesign
from repro.designs.vr_design import VrWitnessDesign
from repro.noc.message import reset_id_counters
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
)
from repro.packet.vxlan import build_vxlan_frame
from repro.sim.kernel import NEVER
from repro.sim.profiles import PROFILES, lookup
from repro.analysis.sanitize import default_traffic
from repro.apps.vr.tile import MSG_PREPARE, PrepareWire
from repro.loadgen.flows import build_competing_flows
from repro.tcp.app import TcpSourceAppTile
from repro.tcp.peer import PeerNetwork, SoftTcpPeer
from repro.telemetry import design_counters
from repro.telemetry.trace import Tracer, attach_tracer
from tests.test_tcp import play, scripted_session

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def fingerprint(design, sink, tracer):
    """Everything observable about a finished run, comparable across
    profiles."""
    counters = design_counters(design)
    return {
        "cycle": design.sim.cycle,
        "tiles": counters["tiles"],
        "router_flits": counters["router_flits"],
        "total_flits": counters["total_flits"],
        "frames": None if sink is None else list(sink.frames),
        "egress_count": None if sink is None else sink.count,
        "first_cycle": None if sink is None else sink.first_cycle,
        "last_cycle": None if sink is None else sink.last_cycle,
        "spans": tracer.spans,
        "inject_spans": tracer.inject_spans,
        "trace_drops": tracer.drops,
        "link_flits": tracer.link_flits,
        "link_stalls": tracer.link_stalls,
        "buffer_levels": tracer.buffer_levels,
        "trace_horizon": tracer.last_cycle,
    }


def run_both(scenario):
    """Run ``scenario(profile)`` under both profiles, resetting the
    global id counters so packet/message ids (and the spans keyed by
    them) compare equal."""
    results = {}
    for profile in PROFILES:
        reset_id_counters()
        results[profile] = scenario(profile)
    return results


def assert_equivalent(scenario):
    results = run_both(scenario)
    reference, fast = results["reference"], results["fast"]
    assert set(reference) == set(fast)
    for key in reference:
        assert reference[key] == fast[key], (
            f"fast diverges from reference in {key!r}")


#: Every shipped design class, and the one the XML tooling builds.
DESIGNS = {
    name: cls
    for name in repro.designs.__all__
    for cls in [getattr(repro.designs, name)]
    if isinstance(cls, type) and issubclass(cls, Design)
}
DESIGNS["GeneratedDesign"] = lambda **kwargs: GeneratedDesign(
    design_from_xml(UDP_ECHO_XML), **kwargs)


class TestDesignContract:
    """What perflab, the probe, the linter and the fault engine read
    off a design is there under both profiles, for every design."""

    SURFACE = ("profile", "sim", "mesh", "tiles", "tile_core", "chains",
               "tile_coords", "fault_engine")

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_both_profiles_construct_with_the_same_surface(self, name):
        assert len(DESIGNS) == 12
        for profile in PROFILES:
            design = DESIGNS[name](profile=profile)
            assert isinstance(design, Design)
            missing = [attr for attr in self.SURFACE
                       if not hasattr(design, attr)]
            assert missing == []
            kernel, flat = lookup(profile)
            assert (design.profile, design.sim.kernel) == (profile, kernel)
            assert hasattr(design.mesh, "core") == flat
            assert (design.tile_core is not None) == flat
            assert design.fault_engine is None
            tiles = design.tiles
            tiles = list(tiles.values() if isinstance(tiles, dict)
                         else tiles)
            assert design.tile_coords == {t.name: t.coord for t in tiles}
            stepped = (design.tile_core.tiles if flat
                       else design.sim.components)
            assert set(tiles) <= set(stepped)
        with pytest.raises(TypeError, match="kernel"):
            DESIGNS[name](kernel="naive")


def echo_frame(design, payload, sport=5555, port=7):
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                CLIENT_IP, design.server_ip, sport,
                                port, payload)


class TestUdpEchoEquivalence:
    def test_idle_heavy_paced_traffic(self):
        """10% line rate: mostly idle cycles — the idle-skip sweet
        spot, and exactly where a wrong wake would surface."""

        def scenario(profile):
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            frame = echo_frame(design, b"x" * 64)
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=5.0, count=20)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run(6000)
            assert sink.count == 20
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)

    def test_saturating_traffic(self):
        """Saturation: no idle cycles, contention and backpressure
        everywhere — checks the active-set path under load."""

        def scenario(profile):
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=None,
                                   profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            frame = echo_frame(design, b"y" * 256)
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=None, count=64)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run(4000)
            assert sink.count == 64
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)

    def test_bursts_with_long_gaps(self):
        """Bursts separated by thousand-cycle gaps: each gap is an
        idle-skip; each burst must land on the exact cycle."""

        def scenario(profile):
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            for burst in range(4):
                base = burst * 2500
                for i in range(3):
                    design.inject(
                        echo_frame(design, bytes([burst]) * 100),
                        base + i,
                    )
                design.sim.run(base + 2500 - design.sim.cycle)
            assert sink.count == 12
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)

    def test_mixed_drops_and_misses(self):
        """Frames for the wrong port/MAC exercise the drop paths."""

        def scenario(profile):
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            design.inject(echo_frame(design, b"ok"), 0)
            design.inject(echo_frame(design, b"wrong", port=9), 40)
            design.inject(b"\x00" * 10, 80)  # malformed
            design.inject(echo_frame(design, b"ok2"), 1500)
            design.sim.run(3000)
            assert sink.count == 2
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)


class TestLoggedEchoEquivalence:
    def test_logged_echo(self):
        def scenario(profile):
            design = LoggedUdpEchoDesign(udp_port=7,
                                         line_rate_bytes_per_cycle=50.0,
                                         profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            for i in range(6):
                design.inject(echo_frame(design, b"log" * 10),
                              i * 700)
            design.sim.run(6000)
            assert sink.count == 6
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)


class TestTcpEquivalence:
    def test_handshake_and_transfer(self):
        """A full TCP session: handshake, request/response transfer,
        retransmission timers — the richest timer workload we have."""

        def scenario(profile):
            design = TcpServerDesign(tcp_port=5000, request_size=16,
                                     profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                               design.server_ip, 5000, wire_cycles=50)
            design.sim.add(peer)
            peer.connect()
            design.sim.run(5000)
            assert peer.established
            for _ in range(8):
                peer.send(b"0123456789abcdef")
            design.sim.run(20000)
            assert len(peer.received) >= 16
            fp = fingerprint(design, None, tracer)
            fp["peer_received"] = bytes(peer.received)
            return fp

        assert_equivalent(scenario)

    # The three below put the TX engine to sleep (its quiescence
    # contract, DESIGN.md 5c) and need every one of its wakes and
    # timers to land on the always-stepped engine's cycle.  A tile
    # inside an awake tile core that lies about when it is next due is
    # invisible to the sanitizer's BHV401, so these are its gate.

    @staticmethod
    def run_checked(design, done, max_cycles):
        """``run_until(done)`` a cycle at a time, with both flat
        cores' ``check_invariants()`` after each (``fast`` only; a
        skipped cycle changed nothing and is not checked again)."""
        sim, core = design.sim, design.tile_core
        for _ in range(max_cycles):
            if done():
                return
            stepped = sim.component_steps
            sim.run(1)
            if core is not None and sim.component_steps != stepped:
                assert design.mesh.core.check_invariants(sim.cycle) == []
                assert core.check_invariants() == []
        raise TimeoutError(f"not done within {max_cycles} cycles")

    @staticmethod
    def tcp_fingerprint(design, tracer, peers, sent_at):
        fp = fingerprint(design, None, tracer)
        fp["tx_sends"] = sent_at
        fp["flows"] = [vars(flow) for table in (design.flows.rx,
                                                design.flows.tx)
                       for flow in table.values()]
        fp["engines"] = [
            (design.tcp_tx.segments_out, design.tcp_tx.pure_acks_out,
             design.tcp_tx.payload_bytes_out, design.tcp_rx.segments_in,
             design.tcp_rx.out_of_order_drops)]
        fp["peers"] = [(peer.segments_sent, peer.retransmits,
                        peer.fast_retransmits, peer.bytes_acked,
                        bytes(peer.received)) for peer in peers]
        return fp

    @staticmethod
    def tap(design):
        """Every egress frame with its emit cycle, and the cycle of
        every ``send`` of the TX engine."""
        egress, sent_at = [], []
        frames_out = design.eth_tx.frames_out
        design.eth_tx.frame_listeners.append(
            lambda: egress.append(frames_out[-1]))
        send = design.tcp_tx.send
        design.tcp_tx.send = lambda message: (
            sent_at.append(design.sim.cycle), send(message))
        return egress, sent_at

    def test_competing_flows_through_loss(self):
        """perflab's ``tcp_loss_reno`` in small: four Reno clients
        through 1% loss, every ACK and duplicate ACK requested over the
        wires by an RX engine that steps before the TX engine."""
        size = 24 * 1024

        def scenario(profile):
            design, peers = build_competing_flows(
                cc="reno", n_flows=4, loss=0.01, stream_bytes=size,
                rto_cycles=4_000, profile=profile)
            tracer = attach_tracer(design, Tracer())
            egress, sent_at = self.tap(design)
            self.run_checked(
                design, lambda: all(p.bytes_acked >= size for p in peers),
                50_000)
            assert design.fault_engine.counters["wire.drop"] == 4
            assert [p.fast_retransmits for p in peers] == [1, 1, 1, 1]
            fp = self.tcp_fingerprint(design, tracer, peers, sent_at)
            fp["egress"] = egress
            fp["fault_log"] = list(design.fault_engine.log)
            return fp

        assert_equivalent(scenario)

    def test_server_as_sender_through_loss(self):
        """The engine's own loss recovery after it has slept: the
        sixth data segment never reaches the client, whose duplicate
        ACKs bring one fast retransmit; the discarded segments behind
        it then go back one per retransmission timeout (go-back-N, one
        segment a timer), CUBIC collapsing the window each time."""
        total = 16 * 1024

        def scenario(profile):
            design = TcpServerDesign(
                tcp_port=5000, app_tile_cls=TcpSourceAppTile,
                request_size=64, mss=1000, chunk_size=8192,
                total_bytes=total, line_rate_bytes_per_cycle=None,
                congestion_control="cubic", profile=profile)
            design.tcp_tx.rto_cycles = 2_000
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            network = PeerNetwork(design)
            peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                               design.server_ip, 5000, service_cycles=2,
                               window=60_000, wire_cycles=400)
            network.register(peer)
            design.sim.add_all([network, peer])
            handle = peer._handle_frame
            data_segments = []

            def lose_the_sixth(frame, cycle):
                if len(frame) > 100:
                    data_segments.append(cycle)
                    if len(data_segments) == 6:
                        return
                handle(frame, cycle)

            peer._handle_frame = lose_the_sixth
            egress, sent_at = self.tap(design)
            peer.connect()
            self.run_checked(design,
                             lambda: len(peer.received) >= total, 60_000)
            tx = design.flows.tx[0]
            assert (tx.fast_retransmits, tx.retransmits) == (1, 11)
            # It slept through every one of those timers.
            gaps = [b - a for a, b in zip(sent_at, sent_at[1:])]
            assert sum(gap > 1_000 for gap in gaps) >= 11
            if profile == "fast":
                assert design.sim.idle_cycles_skipped > 20_000
            fp = self.tcp_fingerprint(design, tracer, [peer], sent_at)
            fp["egress"] = egress
            return fp

        assert_equivalent(scenario)

    def test_synack_retransmissions_fire_on_their_cycle(self):
        """Nothing from the server reaches the client before cycle
        12 000 (and the client's own RTO is far longer): only the
        engine's timer brings the SYN-ACK back, every ``rto_cycles +
        1`` cycles after the last one left."""
        def scenario(profile):
            design = TcpServerDesign(tcp_port=5000, request_size=16,
                                     profile=profile)
            design.tcp_tx.rto_cycles = 3_000
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            network = PeerNetwork(design)
            peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                               design.server_ip, 5000, wire_cycles=500)
            network.register(peer)
            design.sim.add_all([network, peer])
            handle = peer._handle_frame
            peer._handle_frame = lambda frame, cycle: (
                handle(frame, cycle) if cycle >= 12_000 else None)
            egress, sent_at = self.tap(design)
            peer.connect()
            peer.send(b"0123456789abcdef")
            self.run_checked(design,
                             lambda: len(peer.received) >= 16, 30_000)
            first = sent_at[0]
            assert sent_at[:5] == [first + 3_001 * k for k in range(5)]
            assert design.flows.tx[0].retransmits == 4
            assert peer.retransmits == 0 and peer.established
            fp = self.tcp_fingerprint(design, tracer, [peer], sent_at)
            fp["egress"] = egress
            return fp

        assert_equivalent(scenario)


class TestVxlanEquivalence:
    REMOTE_VTEP_IP = IPv4Address("10.0.0.20")
    REMOTE_VTEP_MAC = MacAddress("02:be:e0:00:00:02")
    INNER_IP = IPv4Address("192.168.0.1")
    INNER_MAC = MacAddress("02:aa:00:00:00:01")

    def test_overlay_echo(self):
        def scenario(profile):
            design = VxlanEchoDesign(vni=7700, udp_port=7,
                                     line_rate_bytes_per_cycle=50.0,
                                     profile=profile)
            design.add_overlay_peer(self.INNER_IP, self.INNER_MAC,
                                    self.REMOTE_VTEP_IP,
                                    self.REMOTE_VTEP_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            inner = build_ipv4_udp_frame(
                self.INNER_MAC, design.server_inner_mac,
                self.INNER_IP, design.server_inner_ip, 5555, 7,
                b"overlay payload",
            )
            for i in range(5):
                frame = build_vxlan_frame(
                    self.REMOTE_VTEP_MAC, design.server_vtep_mac,
                    self.REMOTE_VTEP_IP, design.server_vtep_ip,
                    7700, inner,
                )
                design.inject(frame, i * 900)
            design.sim.run(8000)
            assert sink.count == 5
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)


class TestMultiStackEquivalence:
    def test_two_stacks_flow_spread(self):
        def scenario(profile):
            design = MultiStackDesign(stacks=2, udp_port=7,
                                      profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sinks = [FrameSink(stack.eth_tx)
                     for stack in design.stacks]
            for sink in sinks:
                design.sim.add(sink)
            for i in range(12):
                frame = echo_frame(design, b"ms" * 20,
                                   sport=6000 + i)
                design.inject(frame, i * 400)
            design.sim.run(8000)
            assert sum(s.count for s in sinks) == 12
            fp = fingerprint(design, None, tracer)
            for index, sink in enumerate(sinks):
                fp[f"frames_{index}"] = list(sink.frames)
            fp["echoed"] = design.total_echoed()
            return fp

        assert_equivalent(scenario)


class TestRsEquivalence:
    def test_round_robin_encode(self):
        def scenario(profile):
            design = RsDesign(instances=4,
                              line_rate_bytes_per_cycle=50.0,
                              profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            payload = bytes(range(256)) * 16  # 4096 B
            for i in range(8):
                design.inject(
                    echo_frame(design, payload, port=7000),
                    i * 800,
                )
            design.sim.run(20000)
            assert sink.count == 8
            fp = fingerprint(design, sink, tracer)
            fp["per_instance"] = [t.requests for t in design.rs_tiles]
            return fp

        assert_equivalent(scenario)


class TestVrEquivalence:
    LEADER_IP = IPv4Address("10.0.0.2")
    LEADER_MAC = MacAddress("02:00:00:00:00:02")

    def _prepare(self, design, shard, view, opnum):
        wire = PrepareWire(msg_type=MSG_PREPARE, view=view,
                           opnum=opnum, shard=shard,
                           digest=b"deadbeef")
        return build_ipv4_udp_frame(
            self.LEADER_MAC, design.server_mac, self.LEADER_IP,
            design.server_ip, 7777, design.shard_port(shard),
            wire.pack(),
        )

    def test_witness_shards(self):
        def scenario(profile):
            design = VrWitnessDesign(shards=2,
                                     line_rate_bytes_per_cycle=50.0,
                                     profile=profile)
            design.add_client(self.LEADER_IP, self.LEADER_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            for opnum in range(1, 6):
                for shard in range(2):
                    design.inject(
                        self._prepare(design, shard, 0, opnum),
                        design.sim.cycle,
                    )
                design.sim.run(1200)
            assert sink.count == 10
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)


class TestScaledEchoEquivalence:
    def test_many_apps(self):
        def scenario(profile):
            design = ScaledEchoDesign(n_apps=8, udp_port=7,
                                      profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            for i in range(16):
                design.inject(
                    echo_frame(design, b"sc" * 8, sport=7000 + i),
                    i * 300,
                )
            design.sim.run(8000)
            assert sink.count == 16
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)


class TestNatEquivalence:
    CLIENT_VIRT_IP = IPv4Address("172.16.0.1")
    CLIENT_PHYS_IP = IPv4Address("10.0.0.1")

    def test_nat_echo(self):
        def scenario(profile):
            design = NatEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   profile=profile)
            design.map_client(self.CLIENT_VIRT_IP,
                              self.CLIENT_PHYS_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            for i in range(5):
                frame = build_ipv4_udp_frame(
                    CLIENT_MAC, design.server_mac,
                    self.CLIENT_PHYS_IP, design.server_ip, 5555, 7,
                    b"nat" * 12,
                )
                design.inject(frame, i * 600)
            design.sim.run(5000)
            assert sink.count == 5
            return fingerprint(design, sink, tracer)

        assert_equivalent(scenario)


class TestManagedNatEquivalence:
    """The controller tile is one of the stack's tiles: inside the
    tile core under ``fast`` (object mode, it overrides ``on_cycle``),
    next to an object control NoC under both profiles."""

    ADMIN_IP = IPv4Address("10.0.0.200")
    ADMIN_MAC = MacAddress("02:00:00:00:00:aa")

    def test_control_rpcs_between_echoes(self):
        from repro.faults import FaultPlan

        def scenario(profile):
            plan = FaultPlan(seed=5).freeze_tile("controller", at=300,
                                                 duration=400)
            design = ManagedNatEchoDesign(udp_port=7, profile=profile,
                                          fault_plan=plan)
            design.map_client(IPv4Address("172.16.0.1"), CLIENT_IP,
                              CLIENT_MAC)
            design.add_client(self.ADMIN_IP, self.ADMIN_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)

            def rpc(target, table, key, value, tag, op="update"):
                return build_ipv4_udp_frame(
                    self.ADMIN_MAC, design.server_mac, self.ADMIN_IP,
                    design.server_ip, 6000, design.CONTROL_PORT,
                    encode_control_rpc(target, table, key, value,
                                       tag=tag, op=op))

            for i in range(6):
                at = 1 + i * 260
                design.inject(rpc(design.nat_rx.coord, "nat",
                                  f"172.16.0.{i + 2}", f"10.0.0.{i + 2}",
                                  tag=i), at)
                design.inject(echo_frame(design, b"echo%02d" % i * 9),
                              at + 7)
                design.inject(rpc(design.nat_rx.coord, "",
                                  "translations", "", tag=100 + i,
                                  op="read_counter"), at + 90)
            design.sim.run(3000)
            assert design.controller.rpcs_served == 12
            assert sink.count == 18
            fp = fingerprint(design, sink, tracer)
            fp["control_flits"] = design.control.mesh.total_flits_forwarded
            fp["fault_log"] = list(design.fault_engine.log)
            return fp

        assert_equivalent(scenario)


class TestFaultEquivalence:
    """Active fault plans must not break cycle-exactness: the wire
    impairments draw from seeded streams at the inject boundary and
    the NoC faults act on the shared LocalPort staging, so both
    profiles observe the bit-identical fault stream."""

    def _fault_fingerprint(self, design, sink, tracer):
        fp = fingerprint(design, sink, tracer)
        engine = design.fault_engine
        fp["fault_counters"] = dict(engine.counters)
        fp["fault_log"] = list(engine.log)
        fp["fault_events"] = list(tracer.faults)
        return fp

    def test_wire_impairments(self):
        from repro.faults import FaultPlan

        def scenario(profile):
            plan = FaultPlan(seed=0xD1CE).wire(
                drop=0.2, corrupt=0.1, duplicate=0.15, reorder=0.2,
                delay=0.3)
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   profile=profile, fault_plan=plan)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            for i in range(30):
                design.inject(echo_frame(design, b"f%02d" % i * 10),
                              1 + i * 150)
            design.sim.run(10_000)
            assert sink.malformed == 0
            return self._fault_fingerprint(design, sink, tracer)

        assert_equivalent(scenario)

    def test_tile_and_noc_faults(self):
        from repro.faults import FaultPlan

        def scenario(profile):
            plan = (FaultPlan(seed=0xD1CE)
                    .freeze_tile("app", at=300, duration=800)
                    .crash_tile("eth_rx", at=20, duration=100)
                    .stall_link((3, 0), at=1500, duration=400)
                    .corrupt_flits(0.3, coords=[(2, 0)]))
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   profile=profile, fault_plan=plan)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            for i in range(25):
                design.inject(echo_frame(design, b"g%02d" % i * 8),
                              1 + i * 120)
            design.sim.run(10_000)
            return self._fault_fingerprint(design, sink, tracer)

        assert_equivalent(scenario)


class TestIdleSkipActuallyHappens:
    """Equivalence is vacuous if ``fast`` never sleeps — pin that the
    idle-heavy scenarios really do skip cycles."""

    def test_paced_udp_run_skips_most_cycles(self):
        design = UdpEchoDesign(udp_port=7,
                               line_rate_bytes_per_cycle=50.0)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        frame = echo_frame(design, b"x" * 64)
        source = FrameSource(design.inject, lambda i: frame,
                             rate=5.0, count=20)
        sink = FrameSink(design.eth_tx)
        design.sim.add(source)
        design.sim.add(sink)
        design.sim.run(6000)
        assert sink.count == 20
        assert design.sim.idle_cycles_skipped > 3000

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_every_shipped_design_sleeps_once_drained(self, name):
        """No shipped design holds a component, or a tile inside its
        core, whose step asks for every cycle (an ``on_cycle`` override
        without a contract of its own did, until the TCP TX engine and
        the controller tile got theirs): traffic in, traffic drained,
        and nothing is due again — no bit busy, no timer armed."""
        design = load_design(name)[1]()
        if hasattr(design, "tcp_port"):
            design.add_client(CLIENT_IP, CLIENT_MAC)
            actions = scripted_session(design, gap=250)
        else:
            actions = default_traffic(design, 2_000)
        play(design, actions)
        design.sim.run(4_000)
        assert sum(tile.messages_in for tile in design.tile_core.tiles)
        for component in design.sim.components:
            assert design.sim.wake_cycle(component) is None, component
        for view in design.tile_core.views():
            assert view.tile._due() == NEVER, view
            assert not view.busy and view.armed_deadline is None, view
        skipped = design.sim.idle_cycles_skipped
        design.sim.run(1_000)
        assert design.sim.idle_cycles_skipped == skipped + 1_000

    def test_naive_kernel_never_skips(self):
        design = UdpEchoDesign(udp_port=7, profile="reference")
        design.add_client(CLIENT_IP, CLIENT_MAC)
        design.sim.run(500)
        assert design.sim.idle_cycles_skipped == 0


class TestProbedEquivalence:
    """An attached telemetry probe is read-only and timer-driven, so it
    must neither break profile equivalence nor change any
    observable of the run it samples (its wakes do bound the scheduled
    kernel's idle skips — more wakeups, same cycles)."""

    def _scenario(self, probed):
        from repro.telemetry import attach_probe

        def scenario(profile):
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=50.0,
                                   profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            tracer = attach_tracer(design, Tracer())
            probe = attach_probe(design,
                                 interval=250 if probed else None)
            frame = echo_frame(design, b"x" * 64)
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=5.0, count=20)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run(6000)
            assert sink.count == 20
            if probed:
                assert probe.samples_taken == 5999 // 250
            return fingerprint(design, sink, tracer)

        return scenario

    def test_probed_runs_stay_equivalent(self):
        assert_equivalent(self._scenario(probed=True))

    def test_probe_changes_nothing_observable(self):
        results_probed = run_both(self._scenario(probed=True))
        results_plain = run_both(self._scenario(probed=False))
        for profile in PROFILES:
            for key in results_plain[profile]:
                assert results_plain[profile][key] == \
                    results_probed[profile][key], (
                        f"probe perturbed {key!r} under {profile!r}")
