"""Property/fuzz tests for the packet codec layer.

The big-integer checksum (one ``% 0xFFFF`` over the whole buffer) and
the header pack/unpack caches are pure optimisations: every one of them
must be bit-identical to the naive form.  These tests pin that with
seeded random fuzzing —

- ``internet_checksum`` against an embedded reference byte-pair loop
  over random odd/even-length buffers;
- ``incremental_update`` (RFC 1071/1624) against a full recompute
  after splicing random words, and ``IPv4Header.pack``'s inline copy of
  it against a reference pack for every identification;
- pack -> unpack round-trips for every header codec (Ethernet with
  and without 802.1Q, IPv4 with options, UDP, TCP with options,
  VXLAN), with the caches hot;
- truncated/garbage rejection, so the caches never launder a buffer
  past a validation.
"""

import random
import struct

import pytest

from repro.packet.checksum import (
    incremental_update,
    internet_checksum,
    verify_checksum,
)
from repro.packet.ethernet import EthernetHeader, MacAddress
from repro.packet.ipv4 import IPv4Address, IPv4Header
from repro.packet.tcp import TcpHeader
from repro.packet.udp import UdpHeader
from repro.packet.vxlan import VxlanHeader


def reference_checksum(data: bytes) -> int:
    """The classic byte-pair loop — the RFC 1071 definition."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def random_bytes(rng: random.Random, length: int) -> bytes:
    return rng.randbytes(length)


class TestChecksumEquivalence:
    CORNERS = [
        b"",
        b"\x00",
        b"\xff",
        b"\x00\x00",
        b"\xff\xff",
        b"\xff\xff\xff\xff",
        b"\xff\xfe",
        b"\x00\x01",
        b"\xff" * 41,
        b"\x00" * 64,
    ]

    def test_corner_buffers(self):
        for buf in self.CORNERS:
            assert internet_checksum(buf) == reference_checksum(buf), buf

    def test_random_odd_and_even_buffers(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(600):
            buf = random_bytes(rng, rng.randrange(0, 80))
            assert internet_checksum(buf) == reference_checksum(buf), buf
        for _ in range(40):
            buf = random_bytes(rng, rng.randrange(1000, 2000))
            assert internet_checksum(buf) == reference_checksum(buf)

    def test_verify_checksum_of_valid_header(self):
        rng = random.Random(7)
        for _ in range(100):
            buf = bytearray(random_bytes(rng, 20))
            buf[10:12] = b"\x00\x00"
            csum = internet_checksum(bytes(buf))
            buf[10:12] = struct.pack("!H", csum)
            assert verify_checksum(bytes(buf))

    def test_mtu_buffers_and_multiples_of_ffff(self):
        """Frame-sized buffers, and the one place ``% 0xFFFF`` and the
        end-around-carry loop could part: a non-zero buffer whose words
        sum to a multiple of 0xFFFF folds to 0xFFFF, never to 0."""
        rng = random.Random(0xBEE)
        for _ in range(300):
            buf = random_bytes(rng, rng.randrange(20, 1502))
            assert internet_checksum(buf) == reference_checksum(buf)
        for words in (1, 2, 3, 10, 750, 0xFFFF, 0x10000):
            for word in (b"\xff\xff", b"\x00\x00", b"\xff\xfe\x00\x01",
                         b"\x80\x00\x7f\xff"):
                buf = word * words
                assert internet_checksum(buf) == reference_checksum(buf)
                assert internet_checksum(buf + b"\x00") == \
                    reference_checksum(buf)
        for _ in range(200):
            # Append the word that completes the sum to 0xFFFF.
            buf = random_bytes(rng, rng.randrange(1, 40) * 2)
            buf += struct.pack("!H", reference_checksum(buf))
            assert internet_checksum(buf) == reference_checksum(buf) == 0


class TestIncrementalUpdate:
    def test_random_splices_match_full_recompute(self):
        """Patching any even-aligned slice must equal recomputing."""
        rng = random.Random(0x1624)
        for _ in range(500):
            length = rng.randrange(2, 60) * 2
            buf = bytearray(random_bytes(rng, length))
            offset = rng.randrange(0, length // 2) * 2
            span = rng.randrange(1, min(5, length // 2 - offset // 2) + 1) * 2
            old = bytes(buf[offset:offset + span])
            new = random_bytes(rng, span)
            checksum = internet_checksum(bytes(buf))
            buf[offset:offset + span] = new
            if not any(buf):
                # An all-zero result is the RFC 1624 0x0000/0xFFFF
                # representation corner; no real header hits it.
                continue
            assert incremental_update(checksum, old, new) == \
                internet_checksum(bytes(buf))

    def test_odd_length_words_are_padded(self):
        checksum = internet_checksum(b"\x12\x34\x56")
        updated = incremental_update(checksum, b"\x56", b"\x78")
        assert updated == internet_checksum(b"\x12\x34\x78")

    def test_empty_update_is_identity(self):
        checksum = internet_checksum(b"\xde\xad\xbe\xef")
        assert incremental_update(checksum, b"", b"") == checksum


def random_mac(rng: random.Random) -> MacAddress:
    return MacAddress(random_bytes(rng, 6))


def random_ip(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.randrange(0, 1 << 32))


class TestEthernetRoundTrip:
    def test_untagged_and_tagged(self):
        rng = random.Random(1)
        for _ in range(300):
            ethertype = rng.randrange(0x0600, 0x10000)
            if ethertype == 0x8100:
                continue  # would be indistinguishable from a 1Q tag
            tagged = rng.random() < 0.5
            header = EthernetHeader(
                dst=random_mac(rng), src=random_mac(rng),
                ethertype=ethertype,
                vlan=rng.randrange(0, 4096) if tagged else None,
                vlan_pcp=rng.randrange(0, 8) if tagged else 0,
            )
            payload = random_bytes(rng, rng.randrange(0, 40))
            parsed, rest = EthernetHeader.unpack(header.pack() + payload)
            assert parsed == header
            assert rest == payload

    def test_repeated_unpack_is_stable(self):
        """The unpack cache must return the same parse every time."""
        rng = random.Random(2)
        frame = EthernetHeader(dst=random_mac(rng), src=random_mac(rng),
                               ethertype=0x0800).pack() + b"payload"
        first, _ = EthernetHeader.unpack(frame)
        second, rest = EthernetHeader.unpack(frame)
        assert second == first
        assert rest == b"payload"

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 13)
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 12 + b"\x81\x00\x00")


class TestIPv4RoundTrip:
    def _random_header(self, rng: random.Random, payload_len: int):
        options = random_bytes(rng, rng.randrange(0, 11) * 4)
        return IPv4Header(
            src=random_ip(rng), dst=random_ip(rng),
            protocol=rng.randrange(0, 256),
            total_length=20 + len(options) + payload_len,
            ttl=rng.randrange(0, 256),
            identification=rng.randrange(0, 1 << 16),
            dscp=rng.randrange(0, 64),
            ecn=rng.randrange(0, 4),
            flags=rng.randrange(0, 8),
            fragment_offset=rng.randrange(0, 1 << 13),
            options=options,
        )

    def test_random_headers_round_trip(self):
        rng = random.Random(4)
        for _ in range(300):
            payload = random_bytes(rng, rng.randrange(0, 60))
            header = self._random_header(rng, len(payload))
            raw = header.pack()
            assert verify_checksum(raw[:header.header_len])
            parsed, rest = IPv4Header.unpack(raw + payload)
            assert parsed == header
            assert rest == payload

    def test_identification_variants_share_template(self):
        """The pack template cache patches the ident in; every ident
        must still carry a correct checksum."""
        rng = random.Random(5)
        base = self._random_header(rng, 8)
        for ident in (0, 1, 0xFFFF, 0x1234, 0xFF00):
            header = IPv4Header(
                src=base.src, dst=base.dst, protocol=base.protocol,
                total_length=base.total_length, ttl=base.ttl,
                identification=ident, dscp=base.dscp, ecn=base.ecn,
                flags=base.flags, fragment_offset=base.fragment_offset,
                options=base.options,
            )
            raw = header.pack()
            assert verify_checksum(raw[:header.header_len])
            parsed, _ = IPv4Header.unpack(raw + b"\x00" * 8)
            assert parsed.identification == ident

    @staticmethod
    def _reference_pack(header: IPv4Header) -> bytes:
        """``struct`` + ``internet_checksum``: no template, no patch."""
        raw = struct.pack(
            "!BBHHHBBH4s4s", (4 << 4) | header.ihl,
            (header.dscp << 2) | header.ecn, header.total_length,
            header.identification,
            (header.flags << 13) | header.fragment_offset, header.ttl,
            header.protocol, 0, header.src.packed, header.dst.packed,
        ) + header.options
        return raw[:10] + struct.pack("!H", internet_checksum(raw)) \
            + raw[12:]

    def test_every_identification_matches_a_reference_pack(self):
        """The inline RFC 1624 patch, for all 65 536 identifications on
        two templates: a random one with options and the echo reply's."""
        rng = random.Random(0x1D)
        templates = [
            self._random_header(rng, 8),
            IPv4Header(src=IPv4Address("10.0.0.10"),
                       dst=IPv4Address("10.0.0.1"),
                       total_length=20 + 8 + 64),
        ]
        for header in templates:
            mismatched = []
            for ident in range(1 << 16):
                header.identification = ident
                if header.pack() != self._reference_pack(header):
                    mismatched.append(ident)
            assert mismatched == []

    def test_pseudo_header_is_the_byte_concatenation(self):
        rng = random.Random(0x768)
        for _ in range(300):
            header = self._random_header(rng, 0)
            length = rng.randrange(0, 1 << 16)
            assert header.pseudo_header(length) == \
                header.src.packed + header.dst.packed + \
                struct.pack("!BBH", 0, header.protocol, length)

    def test_corrupted_checksum_rejected(self):
        rng = random.Random(6)
        header = self._random_header(rng, 4)
        raw = bytearray(header.pack() + b"\x00" * 4)
        raw[10] ^= 0xFF
        with pytest.raises(ValueError):
            IPv4Header.unpack(bytes(raw))

    def test_truncated_rejected(self):
        rng = random.Random(7)
        header = self._random_header(rng, 12)
        raw = header.pack() + b"\x00" * 12
        for cut in (1, 10, 19, len(raw) - 1):
            with pytest.raises(ValueError):
                IPv4Header.unpack(raw[:cut])

    def test_cache_hit_still_validates_length(self):
        """A cached parse must re-check the buffer it is handed."""
        rng = random.Random(8)
        header = self._random_header(rng, 16)
        raw = header.pack() + b"\x00" * 16
        IPv4Header.unpack(raw)  # warm the cache
        with pytest.raises(ValueError):
            IPv4Header.unpack(raw[:header.header_len + 2])


class TestUdpRoundTrip:
    def test_random_headers_round_trip(self):
        rng = random.Random(9)
        for _ in range(300):
            payload = random_bytes(rng, rng.randrange(0, 60))
            header = UdpHeader(
                src_port=rng.randrange(0, 1 << 16),
                dst_port=rng.randrange(0, 1 << 16),
                length=8 + len(payload),
                checksum=rng.randrange(0, 1 << 16),
            )
            parsed, rest = UdpHeader.unpack(header.pack() + payload)
            assert parsed == header
            assert rest == payload

    def test_checksummed_datagram_verifies(self):
        rng = random.Random(10)
        ip = IPv4Header(src=random_ip(rng), dst=random_ip(rng),
                        total_length=20 + 8 + 11)
        payload = b"hello world"
        header = UdpHeader(src_port=1234, dst_port=7, length=8 + 11)
        raw = header.pack_with_checksum(ip.pseudo_header(header.length),
                                        payload)
        parsed, rest = UdpHeader.unpack(raw + payload)
        assert parsed.verify(ip.pseudo_header(parsed.length), rest)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            UdpHeader.unpack(b"\x00" * 7)
        bad_length = UdpHeader(src_port=1, dst_port=2, length=100)
        with pytest.raises(ValueError):
            UdpHeader.unpack(bad_length.pack())

    @pytest.mark.parametrize("ports, bad", [
        ((70000, 7), 70000), ((7, 70000), 70000), ((-1, 7), -1),
        ((7, 65536), 65536), ((70000, -5), 70000)])
    def test_out_of_range_port_names_the_first_bad_one(self, ports, bad):
        src_port, dst_port = ports
        with pytest.raises(ValueError) as raised:
            UdpHeader(src_port=src_port, dst_port=dst_port)
        assert str(raised.value) == f"port out of range: {bad}"

    def test_unpack_builds_the_same_header_for_a_subclass(self):
        class Tagged(UdpHeader):
            pass

        raw = UdpHeader(src_port=1234, dst_port=7, length=10,
                        checksum=0xBEEF).pack() + b"hi"
        plain, _ = UdpHeader.unpack(raw)
        tagged, rest = Tagged.unpack(raw)
        assert type(plain) is UdpHeader and type(tagged) is Tagged
        assert vars(plain) == vars(tagged) == vars(
            UdpHeader(src_port=1234, dst_port=7, length=10,
                      checksum=0xBEEF))
        assert rest == b"hi"


class TestTcpRoundTrip:
    def test_random_headers_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            payload = random_bytes(rng, rng.randrange(0, 60))
            header = TcpHeader(
                src_port=rng.randrange(0, 1 << 16),
                dst_port=rng.randrange(0, 1 << 16),
                seq=rng.randrange(0, 1 << 32),
                ack=rng.randrange(0, 1 << 32),
                flags=rng.randrange(0, 64),
                window=rng.randrange(0, 1 << 16),
                urgent=rng.randrange(0, 1 << 16),
                options=random_bytes(rng, rng.randrange(0, 11) * 4),
                checksum=rng.randrange(0, 1 << 16),
            )
            parsed, rest = TcpHeader.unpack(header.pack() + payload)
            assert parsed == header
            assert rest == payload

    def test_checksummed_segment_verifies(self):
        rng = random.Random(12)
        ip = IPv4Header(src=random_ip(rng), dst=random_ip(rng),
                        protocol=6, total_length=20 + 20 + 5)
        header = TcpHeader(src_port=80, dst_port=5000, seq=1, ack=2)
        payload = b"abcde"
        raw = header.pack_with_checksum(
            ip.pseudo_header(header.header_len + len(payload)), payload)
        parsed, rest = TcpHeader.unpack(raw + payload)
        assert parsed.verify(
            ip.pseudo_header(parsed.header_len + len(rest)), rest)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            TcpHeader.unpack(b"\x00" * 19)
        header = TcpHeader(src_port=1, dst_port=2,
                           options=b"\x01\x01\x01\x01")
        with pytest.raises(ValueError):
            TcpHeader.unpack(header.pack()[:21])


class TestVxlanRoundTrip:
    def test_random_vnis_round_trip(self):
        rng = random.Random(13)
        for _ in range(200):
            header = VxlanHeader(vni=rng.randrange(0, 1 << 24))
            inner = random_bytes(rng, rng.randrange(0, 40))
            parsed, rest = VxlanHeader.unpack(header.pack() + inner)
            assert parsed == header
            assert rest == inner

    def test_missing_flag_rejected(self):
        with pytest.raises(ValueError):
            VxlanHeader.unpack(b"\x00" * 8)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            VxlanHeader.unpack(b"\x08\x00\x00")
