"""VXLAN tiles — the second network-virtualization flavour of the
paper's target stack (Fig 2).

VXLAN rides the *transport* layer, so the overlay gets a complete
duplicated protocol chain: outer UDP RX routes port 4789 to the decap
tile, which validates the VNI and hands the inner Ethernet frame to a
second (inner) Ethernet RX tile; on transmit the inner Ethernet TX
tile hands its frame to the encap tile, which wraps it in VXLAN + the
outer UDP/IP metadata for the outer transmit chain.  This is the
paper's composability thesis at full stretch: a 15-tile stack built by
chaining two whole protocol pipelines through two small tiles, with no
change to any protocol tile.

Each tile keeps a VNI-keyed forwarding table (inner MAC -> remote VTEP
IP) that the control plane can rewrite, like the NAT and IP-in-IP
tables.
"""

from __future__ import annotations

from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.packet.ethernet import EthernetHeader, MacAddress
from repro.packet.ipv4 import IPPROTO_UDP, IPv4Address, IPv4Header
from repro.packet.udp import UdpHeader
from repro.packet.vxlan import VXLAN_UDP_PORT, VxlanHeader
from repro.tiles.base import NextHopTable, PacketMeta, Tile, flow_hash


class VxlanDecapTile(Tile):
    """Strips the VXLAN header and forwards the inner frame."""

    KIND = "ipinip"  # same resource class as the other encap tiles

    DEFAULT = "default"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 vni: int | None = None, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.known_vnis: set[int] = set() if vni is None else {vni}
        self.next_hop = NextHopTable(name=f"{name}.nexthop")
        self.decapsulated = 0
        self.unknown_vni_drops = 0

    def handle_message(self, message: NocMessage, cycle: int):
        meta: PacketMeta = message.metadata
        if meta is None or meta.udp is None:
            return self.drop(message, "not UDP-delivered VXLAN")
        try:
            header, inner_frame = VxlanHeader.unpack(message.data)
        except ValueError:
            return self.drop(message, "malformed VXLAN")
        if header.vni not in self.known_vnis:
            self.unknown_vni_drops += 1
            return self.drop(message, f"unknown VNI {header.vni}")
        dest = self.next_hop.lookup(self.DEFAULT)
        if dest is None:
            return self.drop(message, "no inner stack")
        self.decapsulated += 1
        inner_meta = PacketMeta(ingress_cycle=meta.ingress_cycle,
                                flow_hint=header.vni)
        return [self.make_message(dest, metadata=inner_meta,
                                  data=inner_frame)]


class VxlanEncapTile(Tile):
    """Wraps inner frames in VXLAN + outer UDP/IP metadata."""

    KIND = "ipinip"

    DEFAULT = "default"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 vtep_ip: IPv4Address, vni: int, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.vtep_ip = IPv4Address(vtep_ip)
        self.vni = vni
        # Inner destination MAC -> remote VTEP physical IP.
        self.vteps: dict[MacAddress, IPv4Address] = {}
        self.next_hop = NextHopTable(name=f"{name}.nexthop")
        self.encapsulated = 0
        self.misses = 0

    def set_vtep(self, inner_mac: MacAddress,
                 vtep_ip: IPv4Address) -> None:
        self.vteps[MacAddress(inner_mac)] = IPv4Address(vtep_ip)

    def handle_message(self, message: NocMessage, cycle: int):
        inner_frame = message.data
        try:
            inner_eth, _ = EthernetHeader.unpack(inner_frame)
        except ValueError:
            return self.drop(message, "malformed inner frame")
        remote = self.vteps.get(inner_eth.dst)
        if remote is None:
            self.misses += 1
            return self.drop(message,
                             f"no VTEP for {inner_eth.dst!r}")
        payload = VxlanHeader(vni=self.vni).pack() + inner_frame
        # RFC 7348: the outer source port carries inner-flow entropy
        # so underlay ECMP spreads overlay flows.
        entropy = 49152 + (flow_hash(
            (int(inner_eth.src), int(inner_eth.dst))) % 16384)
        meta = PacketMeta(
            ip=IPv4Header(src=self.vtep_ip, dst=remote,
                          protocol=IPPROTO_UDP),
            udp=UdpHeader(src_port=entropy, dst_port=VXLAN_UDP_PORT),
            ingress_cycle=(message.metadata.ingress_cycle
                           if isinstance(message.metadata, PacketMeta)
                           else None),
        )
        dest = self.next_hop.lookup(self.DEFAULT)
        if dest is None:
            return self.drop(message, "no outer transmit path")
        self.encapsulated += 1
        return [self.make_message(dest, metadata=meta, data=payload)]
