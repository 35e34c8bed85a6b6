"""Tests for the YX routing option wired through a full design.

The paper's framework requires only that the NoC be reliable,
point-to-point ordered, and deterministic/deadlock-free-routed
(section IV-A); the 2D mesh with XY routing is just the prototype's
choice.  These tests run a real protocol stack over a YX-routed mesh
to check the framework-level claim.
"""

from repro.apps.echo import UdpEchoAppTile
from repro.analysis.deadlock import analyze_chains, assert_deadlock_free
from repro.designs import FrameSink
from repro.noc.mesh import Mesh
from repro.noc.routing import yx_route
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro.packet.ethernet import ETHERTYPE_IPV4
from repro.packet.ipv4 import IPPROTO_UDP
from repro.sim.kernel import CycleSimulator
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.udp import UdpRxTile, UdpTxTile

SERVER_MAC = MacAddress("02:be:e0:00:00:01")
SERVER_IP = IPv4Address("10.0.0.10")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")
CLIENT_IP = IPv4Address("10.0.0.1")


class YxUdpEchoDesign:
    """The Fig 8a stack rotated 90 degrees onto a YX-routed 2x4 mesh:
    the receive chain runs down one column, the transmit chain down
    the other — the column-major dual of the row-major XY layout."""

    def __init__(self):
        self.sim = CycleSimulator(kernel="naive")
        self.mesh = Mesh(2, 4, routing="yx")
        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (0, 1),
                              my_ip=SERVER_IP)
        self.udp_rx = UdpRxTile("udp_rx", self.mesh, (0, 2))
        self.app = UdpEchoAppTile("app", self.mesh, (0, 3))
        self.udp_tx = UdpTxTile("udp_tx", self.mesh, (1, 2))
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (1, 0), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=None,
        )
        self.tiles = [self.eth_rx, self.ip_rx, self.udp_rx, self.app,
                      self.udp_tx, self.ip_tx, self.eth_tx]
        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        self.ip_rx.next_hop.set_entry(IPPROTO_UDP, self.udp_rx.coord)
        self.udp_rx.next_hop.set_entry(7, self.app.coord)
        self.app.next_hop.set_entry(self.app.DEFAULT, self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)
        self.mesh.register(self.sim)
        self.sim.add_all(self.tiles)
        self.chains = [["eth_rx", "ip_rx", "udp_rx", "app",
                        "udp_tx", "ip_tx", "eth_tx"]]
        self.tile_coords = {t.name: t.coord for t in self.tiles}
        assert_deadlock_free(self.chains, self.tile_coords,
                             route_fn=yx_route)


class TestYxDesign:
    def make(self):
        design = YxUdpEchoDesign()
        design.eth_tx.add_neighbor(CLIENT_IP, CLIENT_MAC)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        return design, sink

    def test_chain_safe_under_yx(self):
        design, _ = self.make()
        assert analyze_chains(design.chains, design.tile_coords,
                              route_fn=yx_route) is None

    def test_safety_depends_on_routing_function(self):
        """The same tile placement can be safe under one dimension
        order and deadlocky under the other — the generalisation of
        the paper's Fig 5 lesson, which is why the analyzer takes the
        route function as an input."""
        coords = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (2, 0)}
        chain = [["a", "b", "c", "d"]]
        assert analyze_chains(chain, coords) is None  # XY: safe
        assert analyze_chains(chain, coords,
                              route_fn=yx_route) is not None

    def test_echo_end_to_end_over_yx_mesh(self):
        design, sink = self.make()
        frame = build_ipv4_udp_frame(CLIENT_MAC, SERVER_MAC,
                                     CLIENT_IP, SERVER_IP, 5555, 7,
                                     b"column major")
        design.eth_rx.push_frame(frame, 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)
        reply = parse_frame(sink.frames[0][0])
        assert reply.payload == b"column major"
        assert reply.udp.dst_port == 5555

    def test_latency_comparable_to_xy_layout(self):
        """The rotated YX design matches the paper's 92-cycle transit:
        routing orientation is free."""
        design, sink = self.make()
        frame = build_ipv4_udp_frame(CLIENT_MAC, SERVER_MAC,
                                     CLIENT_IP, SERVER_IP, 5555, 7,
                                     b"x")
        design.eth_rx.push_frame(frame, 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)
        assert abs(design.eth_tx.last_transit_cycles - 92) <= 5
