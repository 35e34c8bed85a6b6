"""TCP header (RFC 793) with options and pseudo-header checksum.

Like IPv4, TCP headers are variable-width; the options field is the other
case the paper's realignment shifter handles (section V-B).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.packet.checksum import internet_checksum

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20

_FIXED = struct.Struct("!HHIIBBHHH")
FIXED_HEADER_LEN = 20


@dataclass
class TcpHeader:
    """A TCP header; ``flags`` is a bitmask of TCP_* constants."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    urgent: int = 0
    options: bytes = b""
    checksum: int = 0

    def __post_init__(self):
        for port in (self.src_port, self.dst_port):
            if not 0 <= port < 65536:
                raise ValueError(f"port out of range: {port}")
        if len(self.options) % 4:
            raise ValueError("TCP options must be 32-bit aligned")
        if len(self.options) > 40:
            raise ValueError("TCP options exceed 40 bytes")

    @property
    def header_len(self) -> int:
        return FIXED_HEADER_LEN + len(self.options)

    @property
    def data_offset(self) -> int:
        return self.header_len // 4

    def flag(self, mask: int) -> bool:
        return bool(self.flags & mask)

    def _pack_raw(self, checksum: int) -> bytes:
        return _FIXED.pack(
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            self.data_offset << 4,
            self.flags,
            self.window,
            checksum,
            self.urgent,
        ) + self.options

    def pack_with_checksum(self, pseudo_header: bytes,
                           payload: bytes) -> bytes:
        """Serialise with a computed checksum over pseudo-hdr + segment."""
        segment = self._pack_raw(0)
        self.checksum = internet_checksum(pseudo_header + segment + payload)
        return self._pack_raw(self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> tuple["TcpHeader", bytes]:
        """Parse a header off the front of ``data``; returns (hdr, payload)."""
        if len(data) < FIXED_HEADER_LEN:
            raise ValueError(f"too short for TCP: {len(data)}")
        (src_port, dst_port, seq, ack, off_byte, flags,
         window, checksum, urgent) = _FIXED.unpack_from(data)
        header_len = (off_byte >> 4) * 4
        if header_len < FIXED_HEADER_LEN or len(data) < header_len:
            raise ValueError(f"bad TCP data offset: {header_len}")
        header = cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            urgent=urgent,
            options=bytes(data[FIXED_HEADER_LEN:header_len]),
            checksum=checksum,
        )
        return header, data[header_len:]

    def verify(self, pseudo_header: bytes, payload: bytes) -> bool:
        segment = self._pack_raw(self.checksum)
        return internet_checksum(pseudo_header + segment + payload) == 0

    def describe_flags(self) -> str:
        names = [
            (TCP_SYN, "SYN"), (TCP_ACK, "ACK"), (TCP_FIN, "FIN"),
            (TCP_RST, "RST"), (TCP_PSH, "PSH"), (TCP_URG, "URG"),
        ]
        present = [name for mask, name in names if self.flags & mask]
        return "|".join(present) if present else "-"
