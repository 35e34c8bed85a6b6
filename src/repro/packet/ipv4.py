"""IPv4 header with options support and real header checksum.

Variable-length headers (options) are first-class because the paper calls
out variable-width header removal as one of the harder parts of the
hardware (section V-B).  IP fragmentation is not supported, mirroring the
paper's scoping for intra-datacenter services.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.packet.checksum import internet_checksum, verify_checksum

IPPROTO_TCP = 6
IPPROTO_UDP = 17
IPPROTO_IPIP = 4

_FIXED = struct.Struct("!BBHHHBBH4s4s")
_U16 = struct.Struct("!H")
# RFC 768/793 pseudo-header: source, destination, zero, protocol, length.
_PSEUDO = struct.Struct("!IIxBH")
FIXED_HEADER_LEN = 20

# Codec caches.  Headers repeat heavily inside a simulation (same flows,
# same sizes), so pack() keeps a per-field-tuple template with its
# checksum precomputed at identification=0 and patches the id in with an
# RFC 1624 incremental update, and unpack() memoises fully validated
# header blobs.  Both caches are bounded and cleared wholesale when full;
# hits and misses are behaviour-identical, only faster.
_PACK_TEMPLATES: dict[tuple, tuple[bytes, int]] = {}
_UNPACK_CACHE: dict[bytes, "IPv4Header"] = {}
_CACHE_MAX = 4096


class IPv4Address:
    """A 32-bit IPv4 address; hashable, comparable, printable."""

    __slots__ = ("_value",)

    def __init__(self, value: "str | int | bytes | IPv4Address"):
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value < (1 << 32):
                raise ValueError(f"IPv4 int out of range: {value}")
            self._value = value
        elif isinstance(value, bytes):
            if len(value) != 4:
                raise ValueError(f"IPv4 needs 4 bytes, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"bad IPv4 string {value!r}")
            octets = [int(p) for p in parts]
            if any(not 0 <= o < 256 for o in octets):
                raise ValueError(f"bad IPv4 string {value!r}")
            self._value = int.from_bytes(bytes(octets), "big")
        else:
            raise TypeError(f"cannot make IPv4Address from {type(value)}")

    @property
    def packed(self) -> bytes:
        return self._value.to_bytes(4, "big")

    def __int__(self) -> int:
        return self._value

    def __eq__(self, other) -> bool:
        return isinstance(other, IPv4Address) and self._value == other._value

    def __lt__(self, other: IPv4Address) -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return ".".join(str(b) for b in self.packed)


@dataclass
class IPv4Header:
    """An IPv4 header.  ``total_length`` covers header + payload."""

    src: IPv4Address
    dst: IPv4Address
    protocol: int = IPPROTO_UDP
    total_length: int = FIXED_HEADER_LEN
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    ecn: int = 0
    flags: int = 0b010  # don't-fragment: the stack never fragments
    fragment_offset: int = 0
    options: bytes = b""

    def __post_init__(self):
        if self.src.__class__ is not IPv4Address:
            self.src = IPv4Address(self.src)
        if self.dst.__class__ is not IPv4Address:
            self.dst = IPv4Address(self.dst)
        if len(self.options) % 4:
            raise ValueError("IPv4 options must be 32-bit aligned")
        if len(self.options) > 40:
            raise ValueError("IPv4 options exceed 40 bytes")

    @property
    def header_len(self) -> int:
        return FIXED_HEADER_LEN + len(self.options)

    @property
    def ihl(self) -> int:
        return self.header_len // 4

    @property
    def payload_len(self) -> int:
        return self.total_length - self.header_len

    def pack(self) -> bytes:
        """Serialise with a freshly computed header checksum.

        Uses a cached identification=0 template per distinct field
        tuple and patches the identification (and its checksum delta,
        via RFC 1624) in — bit-identical to packing from scratch.
        """
        key = (
            self.src._value, self.dst._value, self.protocol,
            self.total_length, self.ttl, self.dscp, self.ecn,
            self.flags, self.fragment_offset, self.options,
        )
        template = _PACK_TEMPLATES.get(key)
        if template is None:
            version_ihl = (4 << 4) | self.ihl
            tos = (self.dscp << 2) | self.ecn
            flags_frag = (self.flags << 13) | self.fragment_offset
            without_csum = _FIXED.pack(
                version_ihl,
                tos,
                self.total_length,
                0,
                flags_frag,
                self.ttl,
                self.protocol,
                0,
                self.src.packed,
                self.dst.packed,
            ) + self.options
            csum0 = internet_checksum(without_csum)
            raw0 = without_csum[:10] + struct.pack("!H", csum0) \
                + without_csum[12:]
            if len(_PACK_TEMPLATES) >= _CACHE_MAX:
                _PACK_TEMPLATES.clear()
            template = _PACK_TEMPLATES[key] = (raw0, csum0)
        raw0, csum0 = template
        ident = self.identification
        if not ident:
            return raw0
        # incremental_update(csum0, b"\x00\x00", ident), written out:
        # RFC 1624 eq. 3, ~HC + ~0x0000 + ident, folded, complemented.
        total = (csum0 ^ 0xFFFF) + 0xFFFF + ident
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        return raw0[:4] + _U16.pack(ident) + raw0[6:10] \
            + _U16.pack(total ^ 0xFFFF) + raw0[12:]

    @classmethod
    def unpack(cls, data: bytes) -> tuple["IPv4Header", bytes]:
        """Parse a header off the front of ``data``; returns (hdr, rest).

        Raises ValueError on malformed input or a bad header checksum,
        modelling the tile's checksum-validate-and-drop behaviour.
        """
        if len(data) < FIXED_HEADER_LEN:
            raise ValueError(f"too short for IPv4: {len(data)}")
        cacheable = cls is IPv4Header
        if cacheable:
            # Fast path: this exact (already validated) header blob.
            # Only the length checks depend on the rest of the buffer,
            # so they are the one thing re-done per call.
            quick_len = (data[0] & 0xF) * 4
            if data[0] >> 4 == 4 and \
                    FIXED_HEADER_LEN <= quick_len <= len(data):
                cached = _UNPACK_CACHE.get(bytes(data[:quick_len]))
                if cached is not None:
                    total_length = cached.total_length
                    if total_length < quick_len or total_length > len(data):
                        raise ValueError(
                            f"bad total_length {total_length} "
                            f"(have {len(data)})"
                        )
                    return cached, data[quick_len:total_length]
        (version_ihl, tos, total_length, ident, flags_frag,
         ttl, protocol, _csum, src, dst) = _FIXED.unpack_from(data)
        version = version_ihl >> 4
        if version != 4:
            raise ValueError(f"not IPv4 (version={version})")
        header_len = (version_ihl & 0xF) * 4
        if header_len < FIXED_HEADER_LEN or len(data) < header_len:
            raise ValueError(f"bad IHL: {header_len}")
        if total_length < header_len or total_length > len(data):
            raise ValueError(
                f"bad total_length {total_length} (have {len(data)})"
            )
        if not verify_checksum(data[:header_len]):
            raise ValueError("IPv4 header checksum mismatch")
        header = cls(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            protocol=protocol,
            total_length=total_length,
            ttl=ttl,
            identification=ident,
            dscp=tos >> 2,
            ecn=tos & 0x3,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            options=bytes(data[FIXED_HEADER_LEN:header_len]),
        )
        if cacheable:
            # Parsed headers are never mutated in place (replies build
            # fresh ones), so sharing one instance per blob is safe.
            if len(_UNPACK_CACHE) >= _CACHE_MAX:
                _UNPACK_CACHE.clear()
            _UNPACK_CACHE[bytes(data[:header_len])] = header
        return header, data[header_len:total_length]

    def pseudo_header(self, l4_length: int) -> bytes:
        """The pseudo-header used by UDP/TCP checksums (RFC 768/793)."""
        return _PSEUDO.pack(self.src._value, self.dst._value,
                            self.protocol, l4_length)
