"""UDP header (RFC 768) with pseudo-header checksum."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.packet.checksum import internet_checksum

_HDR = struct.Struct("!HHHH")
HEADER_LEN = 8


@dataclass
class UdpHeader:
    """A UDP header.  ``length`` covers header + payload."""

    src_port: int
    dst_port: int
    length: int = HEADER_LEN
    checksum: int = 0

    def __post_init__(self):
        src, dst = self.src_port, self.dst_port
        if not (0 <= src < 65536 and 0 <= dst < 65536):
            bad = dst if 0 <= src < 65536 else src
            raise ValueError(f"port out of range: {bad}")

    def pack(self) -> bytes:
        return _HDR.pack(self.src_port, self.dst_port, self.length,
                         self.checksum)

    def pack_with_checksum(self, pseudo_header: bytes,
                           payload: bytes) -> bytes:
        """Serialise with a computed checksum over pseudo-hdr + datagram."""
        datagram = _HDR.pack(self.src_port, self.dst_port, self.length, 0)
        csum = internet_checksum(pseudo_header + datagram + payload)
        if csum == 0:
            csum = 0xFFFF  # RFC 768: transmitted 0 means "no checksum"
        self.checksum = csum
        return _HDR.pack(self.src_port, self.dst_port, self.length, csum)

    @classmethod
    def unpack(cls, data: bytes) -> tuple["UdpHeader", bytes]:
        """Parse a header off the front of ``data``; returns (hdr, payload)."""
        if len(data) < HEADER_LEN:
            raise ValueError(f"too short for UDP: {len(data)}")
        src_port, dst_port, length, checksum = _HDR.unpack_from(data)
        if length < HEADER_LEN or length > len(data):
            raise ValueError(f"bad UDP length {length} (have {len(data)})")
        # 16-bit struct fields cannot be out of range: skip the
        # __post_init__ port test and set the four fields directly.
        header = object.__new__(cls)
        header.src_port = src_port
        header.dst_port = dst_port
        header.length = length
        header.checksum = checksum
        return header, data[HEADER_LEN:length]

    def verify(self, pseudo_header: bytes, payload: bytes) -> bool:
        """Validate the checksum (0 means the sender didn't compute one)."""
        if self.checksum == 0:
            return True
        datagram = _HDR.pack(self.src_port, self.dst_port, self.length,
                             self.checksum)
        return internet_checksum(pseudo_header + datagram + payload) == 0
