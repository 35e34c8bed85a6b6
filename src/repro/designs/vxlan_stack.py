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

from repro.config.schema import DesignSpec
from repro.designs.base import SERVER_IP, SERVER_MAC
from repro.designs.stack import (
    ShippedDesign,
    design_spec,
    path,
    stack_tiles,
    tile,
)
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address
from repro.packet.vxlan import VXLAN_UDP_PORT

VTEP_MAC = SERVER_MAC
VTEP_IP = SERVER_IP
INNER_MAC = MacAddress("02:aa:00:00:00:10")
INNER_IP = IPv4Address("192.168.0.10")


class VxlanEchoDesign(ShippedDesign):
    """A UDP echo server living inside a VXLAN overlay."""

    @staticmethod
    def spec(vni: int = 7700, udp_port: int = 7,
             line_rate_bytes_per_cycle: float | None = 50.0) -> DesignSpec:
        # Outer (underlay) stack, then the inner (overlay/tenant) one,
        # whose Ethernet TX tile hands its frames to the encap tile.
        outer_rx, outer_tx = stack_tiles(
            {f"port:{VXLAN_UDP_PORT}": ["decap"]},
            line_rate_bytes_per_cycle, mac=VTEP_MAC, ip=VTEP_IP)
        inner_rx, inner_tx = stack_tiles(
            {f"port:{udp_port}": ["app"]}, None,
            rx=((4, 0), (5, 0), (6, 0)), tx=((6, 1), (5, 1), (4, 1)),
            name="in_{}".format, mac=INNER_MAC, ip=INNER_IP)
        tiles = path(*outer_rx) \
            + path(tile("decap", "vxlan_decap", (3, 0), vni=vni),
                   *inner_rx) \
            + path(tile("app", "echo_app", (7, 0)), *inner_tx,
                   tile("encap", "vxlan_encap", (3, 1), vtep_ip=VTEP_IP,
                        vni=vni), *outer_tx)
        return design_spec("vxlan_echo", 8, 2, tiles, [tiles])

    @property
    def vni(self) -> int:
        return self.encap.vni

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
