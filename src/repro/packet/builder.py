"""Whole-frame construction and parsing helpers.

These compose the individual header classes into complete Ethernet
frames, and decompose received frames layer by layer — the same walk the
protocol tile chain performs, packaged for hosts, clients, and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.packet.ethernet import ETHERTYPE_IPV4, EthernetHeader, MacAddress
from repro.packet.ipv4 import (
    IPPROTO_IPIP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Address,
    IPv4Header,
)
from repro.packet.tcp import TcpHeader
from repro.packet.udp import UdpHeader
from repro.packet import udp as _udp_mod


def build_ipv4_udp_frame(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
    identification: int = 0,
) -> bytes:
    """A complete Ethernet/IPv4/UDP frame with valid checksums."""
    udp = UdpHeader(
        src_port=src_port,
        dst_port=dst_port,
        length=_udp_mod.HEADER_LEN + len(payload),
    )
    ip = IPv4Header(
        src=src_ip,
        dst=dst_ip,
        protocol=IPPROTO_UDP,
        total_length=20 + udp.length,
        identification=identification,
    )
    udp_bytes = udp.pack_with_checksum(ip.pseudo_header(udp.length), payload)
    eth = EthernetHeader(dst=dst_mac, src=src_mac,
                         ethertype=ETHERTYPE_IPV4)
    return eth.pack() + ip.pack() + udp_bytes + payload


def build_tcp_frame(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    tcp: TcpHeader,
    payload: bytes = b"",
) -> bytes:
    """A complete Ethernet/IPv4/TCP frame with valid checksums."""
    l4_length = tcp.header_len + len(payload)
    ip = IPv4Header(
        src=src_ip,
        dst=dst_ip,
        protocol=IPPROTO_TCP,
        total_length=20 + l4_length,
    )
    tcp_bytes = tcp.pack_with_checksum(ip.pseudo_header(l4_length), payload)
    eth = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4)
    return eth.pack() + ip.pack() + tcp_bytes + payload


def build_ipinip_udp_frame(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    outer_src_ip: IPv4Address,
    outer_dst_ip: IPv4Address,
    inner_src_ip: IPv4Address,
    inner_dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
) -> bytes:
    """An Ethernet / IPv4(IPIP) / IPv4 / UDP frame — the network-
    virtualization tunnel format handled by the IP-in-IP tiles."""
    udp = UdpHeader(
        src_port=src_port,
        dst_port=dst_port,
        length=_udp_mod.HEADER_LEN + len(payload),
    )
    inner = IPv4Header(
        src=inner_src_ip,
        dst=inner_dst_ip,
        protocol=IPPROTO_UDP,
        total_length=20 + udp.length,
    )
    udp_bytes = udp.pack_with_checksum(inner.pseudo_header(udp.length),
                                       payload)
    inner_bytes = inner.pack() + udp_bytes + payload
    outer = IPv4Header(
        src=outer_src_ip,
        dst=outer_dst_ip,
        protocol=IPPROTO_IPIP,
        total_length=20 + len(inner_bytes),
    )
    eth = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4)
    return eth.pack() + outer.pack() + inner_bytes


@dataclass
class ParsedFrame:
    """A fully decomposed frame.  Layers absent from the packet are None."""

    eth: EthernetHeader
    ip: IPv4Header | None = None
    inner_ip: IPv4Header | None = None  # set for IP-in-IP
    udp: UdpHeader | None = None
    tcp: TcpHeader | None = None
    payload: bytes = b""


def parse_frame(frame: bytes) -> ParsedFrame:
    """Decompose a frame layer by layer, validating every checksum.

    Handles one level of IP-in-IP encapsulation (the network-function
    tile's format).  Raises ValueError for malformed or non-IPv4 frames.
    """
    eth, rest = EthernetHeader.unpack(frame)
    if eth.ethertype != ETHERTYPE_IPV4:
        return ParsedFrame(eth=eth, payload=rest)
    ip, rest = IPv4Header.unpack(rest)
    inner_ip = None
    if ip.protocol == IPPROTO_IPIP:
        inner_ip, rest = IPv4Header.unpack(rest)
    l4_ip = inner_ip if inner_ip is not None else ip
    if l4_ip.protocol == IPPROTO_UDP:
        udp, payload = UdpHeader.unpack(rest)
        if not udp.verify(l4_ip.pseudo_header(udp.length), payload):
            raise ValueError("UDP checksum mismatch")
        return ParsedFrame(eth=eth, ip=ip, inner_ip=inner_ip, udp=udp,
                           payload=payload)
    if l4_ip.protocol == IPPROTO_TCP:
        tcp, payload = TcpHeader.unpack(rest)
        l4_length = tcp.header_len + len(payload)
        if not tcp.verify(l4_ip.pseudo_header(l4_length), payload):
            raise ValueError("TCP checksum mismatch")
        return ParsedFrame(eth=eth, ip=ip, inner_ip=inner_ip, tcp=tcp,
                           payload=payload)
    return ParsedFrame(eth=eth, ip=ip, inner_ip=inner_ip, payload=rest)
