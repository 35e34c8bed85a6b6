"""The UDP echo design (paper Fig 8a).

Seven tiles on a 4x2 mesh — Ethernet/IP/UDP with separate receive and
transmit tiles plus one application tile — laid out so the echo chain
acquires NoC links in order (the Fig 5b discipline):

    (0,0) eth_rx   (1,0) ip_rx   (2,0) udp_rx   (3,0) app
    (0,1) eth_tx   (1,1) ip_tx   (2,1) udp_tx   (3,1) empty

The design declares its message chains for the static deadlock analyzer
and is the configuration Fig 7, Table I, and the latency microbenchmark
run on.
"""

from __future__ import annotations

from repro.apps.echo import UdpEchoAppTile
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import ETHERTYPE_IPV4
from repro.packet.ipv4 import IPPROTO_UDP
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.udp import UdpRxTile, UdpTxTile


class UdpEchoDesign(Design):
    """Build and run the 7-tile UDP echo stack."""

    def __init__(self, udp_port: int = 7,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 app_tile_cls=UdpEchoAppTile,
                 profile: str = "fast",
                 fault_plan=None):
        super().__init__(4, 2, profile)
        self.udp_port = udp_port

        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (1, 0), my_ip=SERVER_IP)
        self.udp_rx = UdpRxTile("udp_rx", self.mesh, (2, 0))
        self.app = app_tile_cls("app", self.mesh, (3, 0))
        self.udp_tx = UdpTxTile("udp_tx", self.mesh, (2, 1))
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )

        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        self.ip_rx.next_hop.set_entry(IPPROTO_UDP, self.udp_rx.coord)
        self.udp_rx.next_hop.set_entry(udp_port, self.app.coord)
        self.app.next_hop.set_entry(self.app.DEFAULT, self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        self.register(
            [self.eth_rx, self.ip_rx, self.udp_rx, self.app,
             self.udp_tx, self.ip_tx, self.eth_tx],
            [["eth_rx", "ip_rx", "udp_rx", "app",
              "udp_tx", "ip_tx", "eth_tx"]],
            fault_plan)


class LoggedUdpEchoDesign(Design):
    """UDP echo with a logging tile and network log readback (V-F).

    Layout (5x2 mesh):

        eth_rx  ip_rx  log    udp_rx  app
        eth_tx  ip_tx  empty  empty   udp_tx

    The log tile taps the receive path between IP and UDP.  Reading the
    log back is itself UDP traffic: the UDP RX tile routes the log port
    to the log tile, which answers one entry per request through the
    transmit path.  The readback path revisits the log tile, which
    would break chain resource ordering — the log tile's *bounded,
    dropping* request buffer is what decouples it (the paper's stated
    design for the log read interface), so the chains are declared
    segmented at that boundary.
    """

    LOG_PORT = 5100

    def __init__(self, udp_port: int = 7,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 profile: str = "fast",
                 fault_plan=None):
        from repro.tiles.logger import PacketLogTile

        super().__init__(5, 2, profile)
        self.udp_port = udp_port

        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (1, 0),
                              my_ip=SERVER_IP)
        self.log = PacketLogTile("log", self.mesh, (2, 0),
                                 direction="rx",
                                 readback_port=self.LOG_PORT)
        self.udp_rx = UdpRxTile("udp_rx", self.mesh, (3, 0))
        self.app = UdpEchoAppTile("app", self.mesh, (4, 0))
        self.udp_tx = UdpTxTile("udp_tx", self.mesh, (4, 1))
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )

        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        self.ip_rx.next_hop.set_entry(IPPROTO_UDP, self.log.coord)
        self.log.next_hop.set_entry(PacketLogTile.FORWARD,
                                    self.udp_rx.coord)
        self.log.next_hop.set_entry(PacketLogTile.READBACK,
                                    self.udp_tx.coord)
        self.udp_rx.next_hop.set_entry(udp_port, self.app.coord)
        self.udp_rx.next_hop.set_entry(self.LOG_PORT, self.log.coord)
        self.app.next_hop.set_entry(self.app.DEFAULT, self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        self.register(
            [self.eth_rx, self.ip_rx, self.log, self.udp_rx,
             self.app, self.udp_tx, self.ip_tx, self.eth_tx],
            # Chains segmented at the log tile's dropping request buffer.
            [["eth_rx", "ip_rx", "log", "udp_rx", "app",
              "udp_tx", "ip_tx", "eth_tx"],
             ["udp_rx", "log"],
             ["log", "udp_tx", "ip_tx", "eth_tx"]],
            fault_plan)
