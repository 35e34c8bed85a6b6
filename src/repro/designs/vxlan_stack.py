"""The VXLAN overlay design: two full protocol chains on one mesh.

The paper's Fig 2 stack carries VXLAN alongside IP-in-IP; because
VXLAN tunnels ride UDP, the overlay needs a complete *second*
Ethernet/IP/UDP pipeline after decapsulation — fifteen tiles on an
8x2 mesh, composed entirely from unmodified protocol tiles plus the
two small VXLAN tiles:

  eth_rx ip_rx udp_rx decap  in_eth_rx in_ip_rx in_udp_rx app
  eth_tx ip_tx udp_tx encap  in_eth_tx in_ip_tx in_udp_tx (empty)

Receive: the outer stack terminates the tunnel (UDP port 4789 routes
to the decap tile); the inner stack parses the tenant's frame.
Transmit: the inner stack builds the tenant frame, the inner Ethernet
TX tile hands it to the encap tile over the NoC, and the outer stack
wraps and emits it.
"""

from __future__ import annotations

from repro.apps.echo import UdpEchoAppTile
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import ETHERTYPE_IPV4, MacAddress
from repro.packet.ipv4 import IPPROTO_UDP, IPv4Address
from repro.packet.vxlan import VXLAN_UDP_PORT
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.udp import UdpRxTile, UdpTxTile
from repro.tiles.vxlan import VxlanDecapTile, VxlanEncapTile

VTEP_MAC = SERVER_MAC
VTEP_IP = SERVER_IP
INNER_MAC = MacAddress("02:aa:00:00:00:10")
INNER_IP = IPv4Address("192.168.0.10")


class VxlanEchoDesign(Design):
    """A UDP echo server living inside a VXLAN overlay."""

    def __init__(self, vni: int = 7700, udp_port: int = 7,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 profile: str = "fast",
                 fault_plan=None):
        super().__init__(8, 2, profile)
        self.vni = vni
        self.udp_port = udp_port

        # Outer (underlay) stack.
        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=VTEP_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (1, 0),
                              my_ip=VTEP_IP)
        self.udp_rx = UdpRxTile("udp_rx", self.mesh, (2, 0))
        self.decap = VxlanDecapTile("decap", self.mesh, (3, 0))
        # Inner (overlay/tenant) stack.
        self.in_eth_rx = EthernetRxTile("in_eth_rx", self.mesh,
                                        (4, 0), my_mac=INNER_MAC)
        self.in_ip_rx = IpRxTile("in_ip_rx", self.mesh, (5, 0),
                                 my_ip=INNER_IP)
        self.in_udp_rx = UdpRxTile("in_udp_rx", self.mesh, (6, 0))
        self.app = UdpEchoAppTile("app", self.mesh, (7, 0))
        self.in_udp_tx = UdpTxTile("in_udp_tx", self.mesh, (6, 1))
        self.in_ip_tx = IpTxTile("in_ip_tx", self.mesh, (5, 1))
        self.encap = VxlanEncapTile("encap", self.mesh, (3, 1),
                                    vtep_ip=VTEP_IP, vni=vni)
        self.in_eth_tx = EthernetTxTile(
            "in_eth_tx", self.mesh, (4, 1), my_mac=INNER_MAC,
            line_rate_bytes_per_cycle=None,
            emit_to_noc=self.encap.coord,
        )
        self.udp_tx = UdpTxTile("udp_tx", self.mesh, (2, 1))
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=VTEP_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )

        self.decap.allow_vni(vni)

        # Receive wiring: outer stack -> decap -> inner stack -> app.
        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        self.ip_rx.next_hop.set_entry(IPPROTO_UDP, self.udp_rx.coord)
        self.udp_rx.next_hop.set_entry(VXLAN_UDP_PORT, self.decap.coord)
        self.decap.next_hop.set_entry(self.decap.DEFAULT,
                                      self.in_eth_rx.coord)
        self.in_eth_rx.next_hop.set_entry(ETHERTYPE_IPV4,
                                          self.in_ip_rx.coord)
        self.in_ip_rx.next_hop.set_entry(IPPROTO_UDP,
                                         self.in_udp_rx.coord)
        self.in_udp_rx.next_hop.set_entry(udp_port, self.app.coord)
        # Transmit wiring: app -> inner stack -> encap -> outer stack.
        self.app.next_hop.set_entry(self.app.DEFAULT,
                                    self.in_udp_tx.coord)
        self.in_udp_tx.next_hop.set_entry(self.in_udp_tx.DEFAULT,
                                          self.in_ip_tx.coord)
        self.in_ip_tx.next_hop.set_entry(self.in_ip_tx.DEFAULT,
                                         self.in_eth_tx.coord)
        self.encap.next_hop.set_entry(self.encap.DEFAULT,
                                      self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        self.register(
            [self.eth_rx, self.ip_rx, self.udp_rx,
             self.decap, self.in_eth_rx, self.in_ip_rx,
             self.in_udp_rx, self.app, self.in_udp_tx,
             self.in_ip_tx, self.in_eth_tx, self.encap,
             self.udp_tx, self.ip_tx, self.eth_tx],
            [["eth_rx", "ip_rx", "udp_rx", "decap", "in_eth_rx",
              "in_ip_rx", "in_udp_rx", "app", "in_udp_tx", "in_ip_tx",
              "in_eth_tx", "encap", "udp_tx", "ip_tx", "eth_tx"]],
            fault_plan)

    def add_overlay_peer(self, inner_ip: IPv4Address,
                         inner_mac: MacAddress,
                         vtep_ip: IPv4Address,
                         vtep_mac: MacAddress) -> None:
        """Register a remote tenant endpoint and its VTEP."""
        self.in_eth_tx.add_neighbor(inner_ip, inner_mac)
        self.encap.set_vtep(inner_mac, vtep_ip)
        self.eth_tx.add_neighbor(vtep_ip, vtep_mac)

    server_vtep_ip = VTEP_IP
    server_vtep_mac = VTEP_MAC
    server_inner_ip = INNER_IP
    server_inner_mac = INNER_MAC
