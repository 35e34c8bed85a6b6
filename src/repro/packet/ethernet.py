"""Ethernet II framing, with 802.1Q VLAN tag support.

The Beehive Ethernet receive processor handles VLAN-tagged packets
(section V-B); ours does too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100

_HDR = struct.Struct("!6s6sH")
_VLAN_TCI = struct.Struct("!HH")

# Codec caches: Ethernet headers repeat per flow, so pack() memoises the
# serialised bytes per field tuple and unpack() memoises validated
# header blobs (parsed headers are never mutated in place).  Bounded,
# cleared wholesale when full; hits are behaviour-identical to misses.
_PACK_CACHE: dict[tuple, bytes] = {}
_UNPACK_CACHE: dict[bytes, "EthernetHeader"] = {}
_CACHE_MAX = 4096


class MacAddress:
    """A 48-bit MAC address; hashable, comparable, printable."""

    __slots__ = ("_raw",)

    def __init__(self, value: "bytes | str | int | MacAddress"):
        if isinstance(value, MacAddress):
            self._raw = value._raw
        elif isinstance(value, bytes):
            if len(value) != 6:
                raise ValueError(f"MAC needs 6 bytes, got {len(value)}")
            self._raw = value
        elif isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise ValueError(f"bad MAC string {value!r}")
            self._raw = bytes(int(p, 16) for p in parts)
        elif isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise ValueError(f"MAC int out of range: {value}")
            self._raw = value.to_bytes(6, "big")
        else:
            raise TypeError(f"cannot make MacAddress from {type(value)}")

    @property
    def packed(self) -> bytes:
        return self._raw

    def __int__(self) -> int:
        return int.from_bytes(self._raw, "big")

    def __eq__(self, other) -> bool:
        return isinstance(other, MacAddress) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return ":".join(f"{b:02x}" for b in self._raw)

    @classmethod
    def broadcast(cls) -> MacAddress:
        return cls(b"\xff" * 6)


@dataclass
class EthernetHeader:
    """An Ethernet II header, optionally carrying one 802.1Q tag."""

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_IPV4
    vlan: int | None = None  # 12-bit VLAN ID if tagged
    vlan_pcp: int = 0  # 3-bit priority code point

    HEADER_LEN = 14
    VLAN_HEADER_LEN = 18

    def __post_init__(self):
        if self.dst.__class__ is not MacAddress:
            self.dst = MacAddress(self.dst)
        if self.src.__class__ is not MacAddress:
            self.src = MacAddress(self.src)
        if self.vlan is not None and not 0 <= self.vlan < 4096:
            raise ValueError(f"VLAN id out of range: {self.vlan}")

    def pack(self) -> bytes:
        key = (self.dst.packed, self.src.packed, self.ethertype,
               self.vlan, self.vlan_pcp)
        raw = _PACK_CACHE.get(key)
        if raw is not None:
            return raw
        if self.vlan is None:
            raw = _HDR.pack(self.dst.packed, self.src.packed, self.ethertype)
        else:
            tci = (self.vlan_pcp << 13) | self.vlan
            raw = _HDR.pack(self.dst.packed, self.src.packed,
                            ETHERTYPE_VLAN) + \
                _VLAN_TCI.pack(tci, self.ethertype)
        if len(_PACK_CACHE) >= _CACHE_MAX:
            _PACK_CACHE.clear()
        _PACK_CACHE[key] = raw
        return raw

    @classmethod
    def unpack(cls, data: bytes) -> tuple["EthernetHeader", bytes]:
        """Parse a header off the front of ``data``; returns (hdr, rest)."""
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"frame too short for Ethernet: {len(data)}")
        tagged = data[12:14] == b"\x81\x00"
        offset = cls.VLAN_HEADER_LEN if tagged else cls.HEADER_LEN
        if tagged and len(data) < cls.VLAN_HEADER_LEN:
            raise ValueError("frame too short for 802.1Q tag")
        cacheable = cls is EthernetHeader
        if cacheable:
            cached = _UNPACK_CACHE.get(bytes(data[:offset]))
            if cached is not None:
                return cached, data[offset:]
        dst, src, ethertype = _HDR.unpack_from(data)
        vlan = None
        pcp = 0
        if tagged:
            tci, ethertype = _VLAN_TCI.unpack_from(data, cls.HEADER_LEN)
            vlan = tci & 0x0FFF
            pcp = tci >> 13
        header = cls(
            dst=MacAddress(dst),
            src=MacAddress(src),
            ethertype=ethertype,
            vlan=vlan,
            vlan_pcp=pcp,
        )
        if cacheable:
            if len(_UNPACK_CACHE) >= _CACHE_MAX:
                _UNPACK_CACHE.clear()
            _UNPACK_CACHE[bytes(data[:offset])] = header
        return header, data[offset:]
