"""IP NAT tiles for network virtualization (section V-E).

The NAT holds a virtual-IP <-> physical-IP table that the control plane
rewrites when a client machine migrates.  The RX tile translates the
source address of inbound packets from physical to virtual space; the TX
tile translates the destination of outbound packets from virtual back to
the current physical address.  Both patch the embedded L4 checksum so
downstream validation (and real clients) still pass.
"""

from __future__ import annotations

from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.packet.checksum import incremental_update
from repro.packet.ipv4 import IPPROTO_TCP, IPPROTO_UDP, IPv4Address, IPv4Header
from repro.packet.tcp import TcpHeader
from repro.packet.udp import UdpHeader
from repro.tiles.base import NextHopTable, PacketMeta, Tile


class NatTable:
    """A bidirectional virtual<->physical address map."""

    def __init__(self):
        self._virt_to_phys: dict[IPv4Address, IPv4Address] = {}
        self._phys_to_virt: dict[IPv4Address, IPv4Address] = {}

    def set_mapping(self, virtual: IPv4Address,
                    physical: IPv4Address) -> None:
        virtual = IPv4Address(virtual)
        physical = IPv4Address(physical)
        old_phys = self._virt_to_phys.pop(virtual, None)
        if old_phys is not None:
            self._phys_to_virt.pop(old_phys, None)
        self._virt_to_phys[virtual] = physical
        self._phys_to_virt[physical] = virtual

    def to_physical(self, virtual: IPv4Address) -> IPv4Address | None:
        return self._virt_to_phys.get(IPv4Address(virtual))

    def to_virtual(self, physical: IPv4Address) -> IPv4Address | None:
        return self._phys_to_virt.get(IPv4Address(physical))


def rewrite_l4_checksum(data: bytes, new_ip: IPv4Header,
                        old_ip: IPv4Header | None = None) -> bytes:
    """Patch the UDP/TCP checksum inside ``data`` for new IPs.

    ``data`` is an L4 segment (the NAT tiles sit between IP RX and the
    L4 layer, so the IP header is already in metadata).  Address
    rewriting invalidates the pseudo-header checksum; like a hardware
    NAT, when ``old_ip`` is given the existing checksum is patched with
    an RFC 1624 incremental update over just the changed address words
    — no pass over the payload.  Without ``old_ip`` (or when the
    datagram carries no checksum to patch) the checksum is recomputed
    from scratch over the new pseudo-header.
    """
    if new_ip.protocol == IPPROTO_UDP:
        udp, payload = UdpHeader.unpack(data)
        if old_ip is not None and udp.checksum != 0:
            csum = incremental_update(
                udp.checksum,
                old_ip.src.packed + old_ip.dst.packed,
                new_ip.src.packed + new_ip.dst.packed,
            )
            if csum == 0:
                csum = 0xFFFF  # RFC 768: transmitted 0 means "no checksum"
            udp.checksum = csum
            fixed = udp.pack()
        else:
            fixed = udp.pack_with_checksum(new_ip.pseudo_header(udp.length),
                                           payload)
        return fixed + data[len(fixed):]
    if new_ip.protocol == IPPROTO_TCP:
        tcp, payload = TcpHeader.unpack(data)
        if old_ip is not None:
            tcp.checksum = incremental_update(
                tcp.checksum,
                old_ip.src.packed + old_ip.dst.packed,
                new_ip.src.packed + new_ip.dst.packed,
            )
            return tcp.pack() + payload
        fixed = tcp.pack_with_checksum(
            new_ip.pseudo_header(tcp.header_len + len(payload)), payload
        )
        return fixed + payload
    return data


class _NatTileBase(Tile):
    DEFAULT = "default"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 table: NatTable | None = None, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.table = table if table is not None else NatTable()
        self.next_hop = NextHopTable(name=f"{name}.nexthop")
        self.translations = 0
        self.misses = 0

    def _forward(self, message: NocMessage, meta: PacketMeta,
                 data: bytes) -> list:
        dest = self.next_hop.lookup(self.DEFAULT)
        if dest is None:
            return self.drop(message, "no downstream")
        return [self.make_message(dest, metadata=meta, data=data)]


class NatRxTile(_NatTileBase):
    """Inbound: translate the source address physical -> virtual."""

    KIND = "nat"

    def handle_message(self, message: NocMessage, cycle: int):
        meta: PacketMeta = message.metadata
        if meta is None or meta.ip is None:
            return self.drop(message, "no IP metadata")
        virtual = self.table.to_virtual(meta.ip.src)
        if virtual is None:
            self.misses += 1
            return self._forward(message, meta, message.data)
        old_ip = meta.ip
        meta = meta.clone()
        meta.ip = IPv4Header(
            src=virtual, dst=old_ip.dst, protocol=old_ip.protocol,
            total_length=old_ip.total_length, ttl=old_ip.ttl,
            identification=old_ip.identification,
        )
        self.translations += 1
        data = rewrite_l4_checksum(message.data, meta.ip, old_ip=old_ip)
        return self._forward(message, meta, data)


class NatTxTile(_NatTileBase):
    """Outbound: translate the destination address virtual -> physical."""

    KIND = "nat"

    def handle_message(self, message: NocMessage, cycle: int):
        meta: PacketMeta = message.metadata
        if meta is None or meta.ip is None:
            return self.drop(message, "no IP metadata")
        physical = self.table.to_physical(meta.ip.dst)
        if physical is None:
            self.misses += 1
            return self._forward(message, meta, message.data)
        old_ip = meta.ip
        meta = meta.clone()
        meta.ip = IPv4Header(
            src=old_ip.src, dst=physical, protocol=old_ip.protocol,
            total_length=old_ip.total_length, ttl=old_ip.ttl,
            identification=old_ip.identification,
        )
        self.translations += 1
        data = rewrite_l4_checksum(message.data, meta.ip, old_ip=old_ip)
        return self._forward(message, meta, data)
