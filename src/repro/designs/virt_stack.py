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

from repro.config.schema import DesignSpec
from repro.designs.base import SERVER_IP
from repro.designs.stack import (
    ShippedDesign,
    design_spec,
    path,
    stack_tiles,
    tile,
)
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address

SERVER_PHYS_IP = SERVER_IP
SERVER_VIRT_IP = IPv4Address("172.16.0.10")


class NatEchoDesign(ShippedDesign):
    """UDP echo with an IP NAT translating client addresses."""

    @staticmethod
    def spec(udp_port: int = 7,
             line_rate_bytes_per_cycle: float | None = 50.0) -> DesignSpec:
        (eth_rx, ip_rx, udp_rx), (udp_tx, ip_tx, eth_tx) = stack_tiles(
            {f"port:{udp_port}": ["app"]}, line_rate_bytes_per_cycle,
            rx=((0, 0), (1, 0), (3, 0)), tx=((3, 1), (1, 1), (0, 1)))
        tiles = path(eth_rx, ip_rx, tile("nat_rx", "nat_rx", (2, 0)),
                     udp_rx) \
            + path(tile("app", "echo_app", (4, 0)), udp_tx,
                   tile("nat_tx", "nat_tx", (2, 1)), ip_tx, eth_tx)
        return design_spec("nat_echo", 5, 2, tiles, [tiles])

    @property
    def nat_table(self):
        return self.nat_rx.table

    def map_client(self, virtual_ip: IPv4Address,
                   physical_ip: IPv4Address, mac: MacAddress) -> None:
        self.nat_table.set_mapping(virtual_ip, physical_ip)
        self.eth_tx.add_neighbor(physical_ip, mac)


class IpInIpEchoDesign(ShippedDesign):
    """UDP echo behind an IP-in-IP tunnel, with duplicated IP tiles."""

    @staticmethod
    def spec(udp_port: int = 7,
             line_rate_bytes_per_cycle: float | None = 50.0) -> DesignSpec:
        (eth_rx, ip_rx, udp_rx), (udp_tx, ip_tx, eth_tx) = stack_tiles(
            {f"port:{udp_port}": ["app"]}, line_rate_bytes_per_cycle,
            rx=((0, 0), (1, 0), (4, 0)), tx=((4, 1), (1, 1), (0, 1)),
            name=lambda kind: kind + "_outer" * kind.startswith("ip_"))
        tiles = path(
            eth_rx, (ip_rx, "proto:4"),
            tile("decap", "ipinip_decap", (2, 0)),
            tile("ip_rx_inner", "ip_rx", (3, 0), my_ip=SERVER_VIRT_IP),
            udp_rx) + path(
            tile("app", "echo_app", (5, 0)), udp_tx,
            tile("ip_tx_inner", "ip_tx", (3, 1)),
            tile("encap", "ipinip_encap", (2, 1),
                 tunnel_src=SERVER_PHYS_IP),
            ip_tx, eth_tx)
        return design_spec("ipinip_echo", 6, 2, tiles, [tiles])

    def add_tunnel_peer(self, virtual_ip: IPv4Address,
                        physical_ip: IPv4Address, mac: MacAddress) -> None:
        """Register a remote tunnel endpoint hosting ``virtual_ip``."""
        self.decap.allow_endpoint(physical_ip)
        self.encap.set_endpoint(virtual_ip, physical_ip)
        self.eth_tx.add_neighbor(physical_ip, mac)

    server_phys_ip = SERVER_PHYS_IP
    server_virt_ip = SERVER_VIRT_IP
