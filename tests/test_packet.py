"""Tests for the byte-accurate packet formats."""

import struct
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Address,
    IPv4Header,
    MacAddress,
    TCP_ACK,
    TCP_SYN,
    TcpHeader,
    UdpHeader,
    build_ipv4_udp_frame,
    build_tcp_frame,
    internet_checksum,
    parse_frame,
    verify_checksum,
)

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")


class TestChecksum:
    def test_rfc1071_example(self):
        # Words 0x0001 0xf203 0xf4f5 0xf6f7 sum to 0x2ddf0, fold to
        # 0xddf2, complement to 0x220d (RFC 1071 section 3 example).
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_verify_roundtrip(self):
        data = b"hello checksum world"
        csum = internet_checksum(data)
        # Embedding the checksum makes the whole thing verify.
        assert verify_checksum(data + csum.to_bytes(2, "big"))

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @given(st.binary(max_size=200))
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF


class TestMacAddress:
    def test_string_roundtrip(self):
        mac = MacAddress("aa:bb:cc:dd:ee:ff")
        assert repr(mac) == "aa:bb:cc:dd:ee:ff"

    def test_int_bytes_equal(self):
        assert MacAddress(0x020000000001) == MAC_A

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            MacAddress("aa:bb")
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * 5)
        with pytest.raises(TypeError):
            MacAddress(3.5)

    def test_hashable(self):
        assert len({MAC_A, MacAddress("02:00:00:00:00:01")}) == 1


class TestIPv4Address:
    def test_string_roundtrip(self):
        assert repr(IPv4Address("192.168.1.200")) == "192.168.1.200"

    def test_forms_equal(self):
        assert IPv4Address("10.0.0.1") == IPv4Address(0x0A000001)
        assert IPv4Address(b"\x0a\x00\x00\x01") == IP_A

    def test_bad_inputs(self):
        for bad in ("10.0.0", "10.0.0.256", -1, 1 << 32):
            with pytest.raises(ValueError):
                IPv4Address(bad)


class TestEthernet:
    def test_roundtrip(self):
        hdr = EthernetHeader(dst=MAC_B, src=MAC_A)
        parsed, rest = EthernetHeader.unpack(hdr.pack() + b"payload")
        assert parsed == hdr
        assert rest == b"payload"

    def test_vlan_roundtrip(self):
        hdr = EthernetHeader(dst=MAC_B, src=MAC_A, vlan=42, vlan_pcp=5)
        parsed, rest = EthernetHeader.unpack(hdr.pack() + b"x")
        assert parsed.vlan == 42
        assert parsed.vlan_pcp == 5
        assert parsed.ethertype == ETHERTYPE_IPV4
        assert rest == b"x"

    def test_vlan_header_len(self):
        assert len(EthernetHeader(dst=MAC_B, src=MAC_A).pack()) == 14
        assert len(EthernetHeader(dst=MAC_B, src=MAC_A, vlan=1).pack()) == 18

    def test_bad_vlan(self):
        with pytest.raises(ValueError):
            EthernetHeader(dst=MAC_B, src=MAC_A, vlan=5000)

    def test_truncated(self):
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 10)


class TestIPv4Header:
    def make(self, **kw):
        defaults = dict(src=IP_A, dst=IP_B, protocol=IPPROTO_UDP,
                        total_length=20 + kw.pop("payload_len", 8))
        defaults.update(kw)
        return IPv4Header(**defaults)

    def test_roundtrip(self):
        hdr = self.make(payload_len=4)
        packed = hdr.pack() + b"abcd"
        parsed, payload = IPv4Header.unpack(packed)
        assert parsed.src == IP_A and parsed.dst == IP_B
        assert payload == b"abcd"

    def test_checksum_is_valid(self):
        assert verify_checksum(self.make().pack())

    def test_corrupted_checksum_rejected(self):
        packed = bytearray(self.make(payload_len=0).pack())
        packed[8] ^= 0xFF  # flip TTL
        with pytest.raises(ValueError, match="checksum"):
            IPv4Header.unpack(bytes(packed))

    def test_options_roundtrip(self):
        hdr = self.make(options=b"\x01" * 8, payload_len=2)
        hdr.total_length = hdr.header_len + 2
        parsed, payload = IPv4Header.unpack(hdr.pack() + b"hi")
        assert parsed.options == b"\x01" * 8
        assert parsed.header_len == 28
        assert payload == b"hi"

    def test_misaligned_options_rejected(self):
        with pytest.raises(ValueError):
            self.make(options=b"\x01\x02")

    def test_oversized_options_rejected(self):
        with pytest.raises(ValueError):
            self.make(options=b"\x00" * 44)

    def test_not_ipv4_rejected(self):
        data = bytearray(self.make().pack())
        data[0] = (6 << 4) | 5
        with pytest.raises(ValueError, match="version"):
            IPv4Header.unpack(bytes(data) + b"\x00" * 8)

    def test_bad_total_length_rejected(self):
        hdr = self.make(payload_len=100)  # claims more than provided
        with pytest.raises(ValueError, match="total_length"):
            IPv4Header.unpack(hdr.pack())

    def test_pseudo_header_layout(self):
        pseudo = self.make().pseudo_header(8)
        assert pseudo == IP_A.packed + IP_B.packed + \
            bytes([0, IPPROTO_UDP]) + (8).to_bytes(2, "big")


class TestUdp:
    def test_roundtrip_with_checksum(self):
        ip = IPv4Header(src=IP_A, dst=IP_B, protocol=IPPROTO_UDP,
                        total_length=20 + 8 + 5)
        udp = UdpHeader(src_port=1234, dst_port=80, length=13)
        packed = udp.pack_with_checksum(ip.pseudo_header(13), b"hello")
        parsed, payload = UdpHeader.unpack(packed + b"hello")
        assert parsed.src_port == 1234 and parsed.dst_port == 80
        assert payload == b"hello"
        assert parsed.verify(ip.pseudo_header(13), payload)

    def test_corrupt_payload_fails_verify(self):
        ip = IPv4Header(src=IP_A, dst=IP_B, protocol=IPPROTO_UDP,
                        total_length=33)
        udp = UdpHeader(src_port=1, dst_port=2, length=13)
        packed = udp.pack_with_checksum(ip.pseudo_header(13), b"hello")
        parsed, _ = UdpHeader.unpack(packed + b"hello")
        assert not parsed.verify(ip.pseudo_header(13), b"jello")

    def test_zero_checksum_means_unchecked(self):
        udp = UdpHeader(src_port=1, dst_port=2, length=8, checksum=0)
        assert udp.verify(b"\x00" * 12, b"")

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            UdpHeader(src_port=-1, dst_port=2)
        with pytest.raises(ValueError):
            UdpHeader(src_port=1, dst_port=70000)

    def test_bad_length_rejected(self):
        udp = UdpHeader(src_port=1, dst_port=2, length=100)
        with pytest.raises(ValueError):
            UdpHeader.unpack(udp.pack())


class TestTcp:
    def test_roundtrip(self):
        tcp = TcpHeader(src_port=5, dst_port=6, seq=1000, ack=2000,
                        flags=TCP_SYN | TCP_ACK, window=512)
        parsed, payload = TcpHeader.unpack(
            tcp.pack_with_checksum(b"", b"data") + b"data")
        assert parsed.seq == 1000 and parsed.ack == 2000
        assert parsed.flag(TCP_SYN) and parsed.flag(TCP_ACK)
        assert parsed.window == 512
        assert payload == b"data"

    def test_options_roundtrip(self):
        tcp = TcpHeader(src_port=1, dst_port=2, options=b"\x02\x04\x05\xb4")
        parsed, _ = TcpHeader.unpack(tcp.pack_with_checksum(b"", b""))
        assert parsed.options == b"\x02\x04\x05\xb4"
        assert parsed.header_len == 24

    def test_checksum_verify(self):
        ip = IPv4Header(src=IP_A, dst=IP_B, protocol=IPPROTO_TCP,
                        total_length=20 + 20 + 3)
        tcp = TcpHeader(src_port=1, dst_port=2, seq=7)
        packed = tcp.pack_with_checksum(ip.pseudo_header(23), b"abc")
        parsed, _ = TcpHeader.unpack(packed + b"abc")
        assert parsed.verify(ip.pseudo_header(23), b"abc")
        assert not parsed.verify(ip.pseudo_header(23), b"abd")

    def test_seq_wraps_32_bits(self):
        tcp = TcpHeader(src_port=1, dst_port=2, seq=(1 << 32) + 5)
        parsed, _ = TcpHeader.unpack(tcp.pack_with_checksum(b"", b""))
        assert parsed.seq == 5

    def test_describe_flags(self):
        assert TcpHeader(src_port=1, dst_port=2,
                         flags=TCP_SYN | TCP_ACK).describe_flags() == \
            "SYN|ACK"
        assert TcpHeader(src_port=1, dst_port=2).describe_flags() == "-"


class TestWholeFrames:
    def test_udp_frame_roundtrip(self):
        frame = build_ipv4_udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1111, 2222,
                                     b"payload!")
        parsed = parse_frame(frame)
        assert parsed.eth.src == MAC_A and parsed.eth.dst == MAC_B
        assert parsed.ip.src == IP_A and parsed.ip.dst == IP_B
        assert parsed.udp.src_port == 1111
        assert parsed.payload == b"payload!"

    def test_tcp_frame_roundtrip(self):
        tcp = TcpHeader(src_port=1, dst_port=2, seq=10, flags=TCP_ACK)
        frame = build_tcp_frame(MAC_A, MAC_B, IP_A, IP_B, tcp, b"xyz")
        parsed = parse_frame(frame)
        assert parsed.tcp.seq == 10
        assert parsed.payload == b"xyz"

    def test_corrupt_udp_payload_detected(self):
        frame = bytearray(
            build_ipv4_udp_frame(MAC_A, MAC_B, IP_A, IP_B, 1, 2, b"hello")
        )
        frame[-1] ^= 0x01
        with pytest.raises(ValueError, match="UDP checksum"):
            parse_frame(bytes(frame))

    @settings(max_examples=50)
    @given(
        payload=st.binary(max_size=2048),
        src_port=st.integers(0, 65535),
        dst_port=st.integers(0, 65535),
        vlan=st.one_of(st.none(), st.integers(0, 4095)),
    )
    def test_udp_frame_property_roundtrip(self, payload, src_port,
                                          dst_port, vlan):
        frame = build_ipv4_udp_frame(MAC_A, MAC_B, IP_A, IP_B, src_port,
                                     dst_port, payload)
        if vlan is not None:
            frame = frame[:12] + struct.pack("!HH", 0x8100, vlan) \
                + frame[12:]
        parsed = parse_frame(frame)
        assert parsed.payload == payload
        assert parsed.udp.src_port == src_port
        assert parsed.udp.dst_port == dst_port
        assert parsed.eth.vlan == vlan
