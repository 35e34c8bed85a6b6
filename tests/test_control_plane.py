"""Tests for the control plane: control NoC, endpoints, internal
controller, and the end-to-end client-migration reconfiguration."""

import json

from repro.control import (
    ControlAck,
    ControlPlane,
    CounterRead,
    CounterValue,
    TableUpdate,
    encode_control_rpc,
)
from repro.designs import FrameSink
from repro.designs.managed_stack import ManagedNatEchoDesign
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro.noc import FlatMesh, Mesh
from repro.sim.kernel import CycleSimulator

CLIENT_MAC = MacAddress("02:00:00:00:00:01")
CLIENT_PHYS_IP = IPv4Address("10.0.0.1")
CLIENT_VIRT_IP = IPv4Address("172.16.0.1")
ADMIN_IP = IPv4Address("10.0.0.200")
ADMIN_MAC = MacAddress("02:00:00:00:00:aa")


class TestControlPlaneBasics:
    """Every scenario runs twice — the control NoC as a flat mesh under
    the scheduled kernel (``fast``) and as object routers under the
    naive one (``reference``) — and must come out the same, to the
    cycle its reply lands."""

    PAIRINGS = [(FlatMesh, "scheduled"), (Mesh, "naive")]

    def on_both(self, scenario):
        outcomes = []
        for mesh_cls, kernel in self.PAIRINGS:
            sim = CycleSimulator(kernel=kernel)
            plane = ControlPlane(mesh_cls(3, 1))
            assert type(plane.mesh) is mesh_cls
            a = plane.attach((0, 0), "a")
            b = plane.attach((2, 0), "b")
            plane.register(sim)
            outcomes.append(scenario(sim, plane, a, b))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @staticmethod
    def first_replies(sim, a):
        """Tick until ``a`` files replies: (that cycle, the replies)."""
        replies = []
        for _ in range(200):
            sim.tick()
            replies.extend(a.pop_replies())
            if replies:
                break
        return sim.cycle, replies

    def test_table_update_applied_and_acked(self):
        def scenario(sim, plane, a, b):
            table = {}
            b.on_table("routes",
                       lambda key, value: table.update({key: value}))
            a.send(b.coord, TableUpdate(table="routes", key="k",
                                        value="v", reply_to=a.coord,
                                        tag=7))
            sim.run_until(lambda: a.has_replies, max_cycles=200)
            acked = sim.cycle
            sim.run(50)
            return table, b.updates_applied, acked, a.pop_replies()

        table, applied, _acked, replies = self.on_both(scenario)
        assert table == {"k": "v"}
        assert applied == 1
        assert replies == [ControlAck(ok=True, tag=7)]

    def test_unknown_table_nacked(self):
        def scenario(sim, plane, a, b):
            a.send(b.coord, TableUpdate(table="nope", key="k", value="v",
                                        reply_to=a.coord, tag=1))
            return self.first_replies(sim, a)

        _cycle, replies = self.on_both(scenario)
        assert isinstance(replies[0], ControlAck)
        assert not replies[0].ok

    def test_counter_read(self):
        def scenario(sim, plane, a, b):
            b.on_counter("hits", lambda: 42)
            a.send(b.coord, CounterRead(name="hits", reply_to=a.coord,
                                        tag=3))
            return self.first_replies(sim, a)

        _cycle, replies = self.on_both(scenario)
        assert replies[0] == CounterValue(name="hits", value=42, tag=3)

    def test_control_mesh_is_separate(self):
        """Control traffic rides its own routers (section IV-F)."""
        def scenario(sim, plane, a, b):
            a.send(b.coord, TableUpdate(table="x", key=1, value=2,
                                        reply_to=a.coord))
            sim.run(100)
            return plane.mesh.total_flits_forwarded

        assert self.on_both(scenario) > 0


def control_rpc_frame(design, target, table, key, value, tag=1,
                      op="update"):
    payload = encode_control_rpc(target, table, key, value, tag=tag,
                                 op=op)
    return build_ipv4_udp_frame(
        ADMIN_MAC, design.server_mac, ADMIN_IP, design.server_ip,
        6000, ManagedNatEchoDesign.CONTROL_PORT, payload,
    )


class TestManagedDesign:
    def build(self):
        design = ManagedNatEchoDesign(udp_port=7)
        design.map_client(CLIENT_VIRT_IP, CLIENT_PHYS_IP, CLIENT_MAC)
        design.eth_tx.add_neighbor(ADMIN_IP, ADMIN_MAC)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        return design, sink

    def rpc(self, design, sink, frame, min_frames=1, max_cycles=5000):
        before = sink.count
        design.inject(frame, design.sim.cycle)
        design.sim.run_until(lambda: sink.count >= before + min_frames,
                             max_cycles=max_cycles)
        reply = parse_frame(sink.frames[-1][0])
        return json.loads(reply.payload.decode())

    def test_idle_controller_sleeps_and_answers_on_the_same_cycle(self):
        """The controller's quiescence contract: asleep until an RPC
        arrives or its endpoint files a reply (which wakes it), so an
        idle managed design skips cycles, and a table update issued
        after a long sleep is confirmed on the cycle ``reference`` —
        where the tile is stepped every cycle — confirms it."""
        answered = {}
        for profile in ("fast", "reference"):
            design = ManagedNatEchoDesign(udp_port=7, profile=profile)
            design.eth_tx.add_neighbor(ADMIN_IP, ADMIN_MAC)
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            design.sim.run(20_000)
            if profile == "fast":
                assert design.sim.idle_cycles_skipped > 19_000
                view = design.tile_core.view("controller")
                assert view.mode == "object" and not view.busy
                assert design.sim.wake_cycle(design.tile_core) is None
            response = self.rpc(design, sink, control_rpc_frame(
                design, design.nat_rx.coord, "nat", CLIENT_VIRT_IP,
                IPv4Address("10.0.0.99"), tag=4))
            assert response == {"ok": True, "detail": "", "tag": 4}
            answered[profile] = sink.frames[-1]
        assert answered["fast"] == answered["reference"]
        assert answered["fast"][1] > 20_000

    def test_nat_update_rpc_roundtrip(self):
        """The paper's migration flow: RPC -> control NoC -> NAT table
        -> confirmation."""
        design, sink = self.build()
        new_phys = IPv4Address("10.0.0.99")
        response = self.rpc(design, sink, control_rpc_frame(
            design, design.nat_rx.coord, "nat",
            CLIENT_VIRT_IP, new_phys, tag=11,
        ))
        assert response["ok"] is True
        assert response["tag"] == 11
        assert design.nat_table.to_physical(CLIENT_VIRT_IP) == new_phys
        assert design.endpoints["nat"].updates_applied == 1

    def test_migration_redirects_data_plane(self):
        design, sink = self.build()
        new_phys = IPv4Address("10.0.0.99")
        # Move the client, then teach eth_tx its (unchanged) MAC.
        self.rpc(design, sink, control_rpc_frame(
            design, design.nat_rx.coord, "nat",
            CLIENT_VIRT_IP, new_phys, tag=1,
        ))
        self.rpc(design, sink, control_rpc_frame(
            design, design.eth_tx.coord, "neighbor",
            new_phys, CLIENT_MAC, tag=2,
        ))
        # Data from the new physical address now translates and echoes.
        data = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, new_phys, design.server_ip,
            5555, 7, b"post-migration",
        )
        before = sink.count
        design.inject(data, design.sim.cycle)
        design.sim.run_until(lambda: sink.count > before,
                             max_cycles=5000)
        reply = parse_frame(sink.frames[-1][0])
        assert reply.payload == b"post-migration"
        assert reply.ip.dst == new_phys

    def test_unknown_table_reports_failure(self):
        design, sink = self.build()
        response = self.rpc(design, sink, control_rpc_frame(
            design, design.nat_rx.coord, "bogus", "k", "v", tag=5,
        ))
        assert response["ok"] is False
        assert "bogus" in response["detail"]

    def test_counter_telemetry_rpc(self):
        design, sink = self.build()
        # Generate one translation first.
        data = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_PHYS_IP,
            design.server_ip, 5555, 7, b"x",
        )
        before = sink.count
        design.inject(data, 0)
        design.sim.run_until(lambda: sink.count > before,
                             max_cycles=5000)
        response = self.rpc(design, sink, control_rpc_frame(
            design, design.nat_rx.coord, "", "translations", "",
            tag=9, op="read_counter",
        ))
        assert response["ok"] is True
        assert response["value"] == 2  # rx + tx translation of the echo

    def test_udp_nexthop_rewrite_via_control_plane(self):
        """Runtime rewrite of the UDP port hash table (section V-B)."""
        design, sink = self.build()
        response = self.rpc(design, sink, control_rpc_frame(
            design, design.udp_rx.coord, "udp_nexthop",
            "8080", "4,0", tag=3,
        ))
        assert response["ok"] is True
        # Port 8080 now routes to the echo app tile at (4, 0).
        data = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_PHYS_IP,
            design.server_ip, 5555, 8080, b"new-port",
        )
        before = sink.count
        design.inject(data, design.sim.cycle)
        design.sim.run_until(lambda: sink.count > before,
                             max_cycles=5000)
        reply = parse_frame(sink.frames[-1][0])
        assert reply.payload == b"new-port"
