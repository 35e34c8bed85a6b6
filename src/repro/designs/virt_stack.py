"""Network-virtualization designs: UDP echo behind NAT or IP-in-IP.

These are the section V-E configurations.  Both network functions keep a
virtual-to-physical mapping that the control plane rewrites when a
client migrates (exercised by :mod:`repro.control` and the
``network_virtualization`` example).

NAT layout (5x2 mesh):

    eth_rx  ip_rx  nat_rx  udp_rx  app
    eth_tx  ip_tx  nat_tx  udp_tx  empty

IP-in-IP layout (6x2 mesh) — note the *duplicated* IP tiles, the
paper's fix for repeated headers breaking resource ordering:

    eth_rx  ip_rx(outer)  decap  ip_rx(inner)  udp_rx  app
    eth_tx  ip_tx(outer)  encap  ip_tx(inner)  udp_tx  empty
"""

from __future__ import annotations

from repro.apps.echo import UdpEchoAppTile
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import ETHERTYPE_IPV4, MacAddress
from repro.packet.ipv4 import IPPROTO_IPIP, IPPROTO_UDP, IPv4Address
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.ipinip import IpInIpDecapTile, IpInIpEncapTile
from repro.tiles.nat import NatRxTile, NatTxTile, NatTable
from repro.tiles.udp import UdpRxTile, UdpTxTile

SERVER_PHYS_IP = SERVER_IP
SERVER_VIRT_IP = IPv4Address("172.16.0.10")


class NatEchoDesign(Design):
    """UDP echo with an IP NAT translating client addresses."""

    def __init__(self, udp_port: int = 7,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 profile: str = "fast",
                 fault_plan=None):
        super().__init__(5, 2, profile)
        self.register(*self._nat_stack(udp_port,
                                       line_rate_bytes_per_cycle),
                      fault_plan)

    def _nat_stack(self, udp_port: int,
                   line_rate_bytes_per_cycle: float | None):
        """Build and wire the nine stack tiles; returns ``(tiles,
        chains)``, still unregistered, so the managed variant can add
        its controller tile first."""
        self.udp_port = udp_port
        self.nat_table = NatTable()

        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (1, 0),
                              my_ip=SERVER_PHYS_IP)
        self.nat_rx = NatRxTile("nat_rx", self.mesh, (2, 0),
                                table=self.nat_table)
        self.udp_rx = UdpRxTile("udp_rx", self.mesh, (3, 0))
        self.app = UdpEchoAppTile("app", self.mesh, (4, 0))
        self.udp_tx = UdpTxTile("udp_tx", self.mesh, (3, 1))
        self.nat_tx = NatTxTile("nat_tx", self.mesh, (2, 1),
                                table=self.nat_table)
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )

        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        self.ip_rx.next_hop.set_entry(IPPROTO_UDP, self.nat_rx.coord)
        self.nat_rx.next_hop.set_entry(self.nat_rx.DEFAULT,
                                       self.udp_rx.coord)
        self.udp_rx.next_hop.set_entry(udp_port, self.app.coord)
        self.app.next_hop.set_entry(self.app.DEFAULT, self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.nat_tx.coord)
        self.nat_tx.next_hop.set_entry(self.nat_tx.DEFAULT,
                                       self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        return (
            [self.eth_rx, self.ip_rx, self.nat_rx, self.udp_rx,
             self.app, self.udp_tx, self.nat_tx, self.ip_tx,
             self.eth_tx],
            [["eth_rx", "ip_rx", "nat_rx", "udp_rx", "app",
              "udp_tx", "nat_tx", "ip_tx", "eth_tx"]],
        )

    def map_client(self, virtual_ip: IPv4Address,
                   physical_ip: IPv4Address, mac: MacAddress) -> None:
        self.nat_table.set_mapping(virtual_ip, physical_ip)
        self.eth_tx.add_neighbor(physical_ip, mac)


class IpInIpEchoDesign(Design):
    """UDP echo behind an IP-in-IP tunnel, with duplicated IP tiles."""

    def __init__(self, udp_port: int = 7,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 profile: str = "fast",
                 fault_plan=None):
        super().__init__(6, 2, profile)
        self.udp_port = udp_port

        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx_outer = IpRxTile("ip_rx_outer", self.mesh, (1, 0),
                                    my_ip=SERVER_PHYS_IP)
        self.decap = IpInIpDecapTile("decap", self.mesh, (2, 0))
        self.ip_rx_inner = IpRxTile("ip_rx_inner", self.mesh, (3, 0),
                                    my_ip=SERVER_VIRT_IP)
        self.udp_rx = UdpRxTile("udp_rx", self.mesh, (4, 0))
        self.app = UdpEchoAppTile("app", self.mesh, (5, 0))
        self.udp_tx = UdpTxTile("udp_tx", self.mesh, (4, 1))
        self.ip_tx_inner = IpTxTile("ip_tx_inner", self.mesh, (3, 1))
        self.encap = IpInIpEncapTile("encap", self.mesh, (2, 1),
                                     tunnel_src=SERVER_PHYS_IP)
        self.ip_tx_outer = IpTxTile("ip_tx_outer", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )

        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4,
                                       self.ip_rx_outer.coord)
        self.ip_rx_outer.next_hop.set_entry(IPPROTO_IPIP, self.decap.coord)
        self.decap.next_hop.set_entry(self.decap.DEFAULT,
                                      self.ip_rx_inner.coord)
        self.ip_rx_inner.next_hop.set_entry(IPPROTO_UDP, self.udp_rx.coord)
        self.udp_rx.next_hop.set_entry(udp_port, self.app.coord)
        self.app.next_hop.set_entry(self.app.DEFAULT, self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.ip_tx_inner.coord)
        self.ip_tx_inner.next_hop.set_entry(self.ip_tx_inner.DEFAULT,
                                            self.encap.coord)
        self.encap.next_hop.set_entry(self.encap.DEFAULT,
                                      self.ip_tx_outer.coord)
        self.ip_tx_outer.next_hop.set_entry(self.ip_tx_outer.DEFAULT,
                                            self.eth_tx.coord)

        self.register(
            [self.eth_rx, self.ip_rx_outer, self.decap,
             self.ip_rx_inner, self.udp_rx, self.app,
             self.udp_tx, self.ip_tx_inner, self.encap,
             self.ip_tx_outer, self.eth_tx],
            [["eth_rx", "ip_rx_outer", "decap", "ip_rx_inner", "udp_rx",
              "app", "udp_tx", "ip_tx_inner", "encap", "ip_tx_outer",
              "eth_tx"]],
            fault_plan)

    def add_tunnel_peer(self, virtual_ip: IPv4Address,
                        physical_ip: IPv4Address, mac: MacAddress) -> None:
        """Register a remote tunnel endpoint hosting ``virtual_ip``."""
        self.decap.allow_endpoint(physical_ip)
        self.encap.set_endpoint(virtual_ip, physical_ip)
        self.eth_tx.add_neighbor(physical_ip, mac)

    server_phys_ip = SERVER_PHYS_IP
    server_virt_ip = SERVER_VIRT_IP
