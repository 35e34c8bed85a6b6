"""Robustness: fuzzed and hostile traffic against the designs.

The paper's next-hop-table semantics ("any packet that does not have an
entry for a next hop is dropped to filter out unwanted traffic") means
the stack must *drop*, never crash or emit garbage, whatever arrives
off the wire.
"""

import struct
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import FrameSink, UdpEchoDesign
from repro.designs.tcp_stack import TcpServerDesign
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def make_udp_design():
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    return design, sink


def valid_frame(payload=b"ok", dst_port=7):
    return build_ipv4_udp_frame(
        CLIENT_MAC, MacAddress("02:be:e0:00:00:01"), CLIENT_IP,
        IPv4Address("10.0.0.10"), 5555, dst_port, payload,
    )


class TestFuzzedFrames:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_frames_never_crash_or_leak(self, data):
        """Flip random bytes of a valid frame: the stack either echoes
        a still-valid request or drops; it never crashes and never
        emits a frame for a corrupted request."""
        base = bytearray(valid_frame(payload=bytes(32)))
        n_flips = data.draw(st.integers(1, 4))
        positions = data.draw(st.lists(
            st.integers(0, len(base) - 1), min_size=n_flips,
            max_size=n_flips))
        mutated = bytearray(base)
        for position in positions:
            mutated[position] ^= data.draw(st.integers(1, 255))
        design, sink = make_udp_design()
        design.inject(bytes(mutated), 0)
        design.sim.run(600)
        if sink.count:
            # Anything echoed must be a well-formed frame.
            parse_frame(sink.frames[0][0])

    @settings(max_examples=40, deadline=None)
    @given(blob=st.binary(min_size=0, max_size=200))
    def test_random_bytes_never_crash(self, blob):
        design, sink = make_udp_design()
        design.inject(blob, 0)
        design.sim.run(600)
        assert sink.count == 0  # garbage never produces a reply

    def test_truncated_frames_at_every_layer(self):
        frame = valid_frame(payload=bytes(64))
        design, sink = make_udp_design()
        for cut in (0, 5, 14, 20, 33, 34, 41, 42, 50):
            design.inject(frame[:cut], design.sim.cycle)
        design.sim.run(2000)
        assert sink.count == 0

    def test_good_traffic_flows_despite_garbage(self):
        """Hostile frames interleaved with real ones don't wedge the
        stack or corrupt the real replies."""
        design, sink = make_udp_design()
        garbage = [b"", b"\xff" * 9, valid_frame()[:21],
                   bytes(150), b"\x00" * 64]
        for index in range(10):
            design.inject(garbage[index % len(garbage)],
                          design.sim.cycle)
            design.inject(valid_frame(payload=bytes([index]) * 16),
                          design.sim.cycle)
        design.sim.run_until(lambda: sink.count >= 10,
                             max_cycles=20_000)
        payloads = {parse_frame(frame).payload
                    for frame, _ in sink.frames}
        assert payloads == {bytes([i]) * 16 for i in range(10)}


class TestHostileTcp:
    def make_design(self):
        design = TcpServerDesign(tcp_port=5000, request_size=16)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        return design

    def test_ack_flood_without_connection(self):
        """ACKs for nonexistent flows are filtered, not processed."""
        from repro.packet import TcpHeader, TCP_ACK
        from repro.packet.builder import build_tcp_frame

        design = self.make_design()
        for seq in range(20):
            header = TcpHeader(src_port=1000 + seq, dst_port=5000,
                               seq=seq, ack=seq, flags=TCP_ACK)
            design.inject(build_tcp_frame(
                CLIENT_MAC, design.server_mac, CLIENT_IP,
                design.server_ip, header), design.sim.cycle)
        design.sim.run(5000)
        assert len(design.tcp_rx.flows.rx) == 0
        assert design.tcp_tx.segments_out == 0

    def test_syn_flood_bounded_by_table(self):
        """A SYN flood allocates at most max_flows flow entries."""
        from repro.packet import TcpHeader, TCP_SYN
        from repro.packet.builder import build_tcp_frame

        design = TcpServerDesign(tcp_port=5000, request_size=16,
                                 max_flows=4)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        for port in range(30_000, 30_040):
            header = TcpHeader(src_port=port, dst_port=5000, seq=1,
                               flags=TCP_SYN)
            design.inject(build_tcp_frame(
                CLIENT_MAC, design.server_mac, CLIENT_IP,
                design.server_ip, header), design.sim.cycle)
        design.sim.run(20_000)
        assert len(design.tcp_rx.flows.rx) == 4

    def test_rst_tears_down(self):
        from repro.packet import TcpHeader, TCP_RST, TCP_SYN
        from repro.packet.builder import build_tcp_frame
        from repro.tcp.peer import SoftTcpPeer

        design = self.make_design()
        peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                           design.server_ip, 5000, wire_cycles=50)
        design.sim.add(peer)
        peer.connect()
        design.sim.run_until(lambda: len(design.tcp_rx.flows.rx) == 1,
                             max_cycles=20_000)
        header = TcpHeader(src_port=peer.src_port, dst_port=5000,
                           seq=peer.snd_nxt, flags=TCP_RST)
        design.inject(build_tcp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP,
            design.server_ip, header), design.sim.cycle)
        design.sim.run_until(lambda: len(design.tcp_rx.flows.rx) == 0,
                             max_cycles=20_000)
        assert design.tcp_rx.resets == 1


class TestVlanTraffic:
    def test_vlan_tagged_request_echoed(self):
        """Section V-B: the Ethernet receive processor handles VLAN
        tags; a tagged request gets echoed (untagged reply)."""
        design, sink = make_udp_design()
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP,
            design.server_ip, 5555, 7, b"tagged!",
        )
        tagged = frame[:12] + struct.pack("!HH", 0x8100, 42) + frame[12:]
        design.inject(tagged, 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)
        reply = parse_frame(sink.frames[0][0])
        assert reply.payload == b"tagged!"
