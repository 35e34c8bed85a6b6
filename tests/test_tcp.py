"""Tests for the TCP engine: flow state, handshake, data transfer,
loss recovery, flow control, and the application interface."""

from hypothesis import given
from hypothesis import strategies as st

from repro.designs.tcp_stack import TcpServerDesign
from repro.packet import IPv4Address, MacAddress
from repro.packet.builder import build_tcp_frame
from repro.packet.tcp import TCP_ACK, TCP_PSH, TCP_SYN, TcpHeader
from repro.sim.kernel import NEVER
from repro.tcp.flow import (
    FlowTable,
    TcpState,
    seq_add,
    seq_diff,
    seq_ge,
)
from repro.tcp.peer import PeerNetwork, SoftTcpPeer
from repro.tcp.app import TcpSinkAppTile, TcpSourceAppTile
from tests.test_flatcore import scheduling

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


class TestSeqArithmetic:
    def test_wraparound_add(self):
        assert seq_add(0xFFFFFFFF, 1) == 0
        assert seq_add(0xFFFFFFF0, 0x20) == 0x10

    def test_signed_diff(self):
        assert seq_diff(5, 3) == 2
        assert seq_diff(3, 5) == -2
        assert seq_diff(0x10, 0xFFFFFFF0) == 0x20  # across the wrap

    def test_ge_across_wrap(self):
        assert seq_ge(0x10, 0xFFFFFFF0)
        assert not seq_ge(0xFFFFFFF0, 0x10)

    @given(a=st.integers(0, 2**32 - 1), delta=st.integers(0, 2**30))
    def test_diff_inverts_add(self, a, delta):
        assert seq_diff(seq_add(a, delta), a) == delta


class TestFlowTable:
    def test_create_and_lookup(self):
        table = FlowTable()
        tup = (1, 2, 3, 4)
        flow_id = table.create(tup)
        assert table.lookup(tup) == flow_id
        assert flow_id in table.rx and flow_id in table.tx

    def test_capacity_limit(self):
        table = FlowTable(max_flows=2)
        assert table.create((1, 1, 1, 1)) is not None
        assert table.create((2, 2, 2, 2)) is not None
        assert table.create((3, 3, 3, 3)) is None

    def test_release_frees_slot(self):
        table = FlowTable(max_flows=1)
        flow_id = table.create((1, 1, 1, 1))
        table.release(flow_id)
        assert table.lookup((1, 1, 1, 1)) is None
        assert table.create((2, 2, 2, 2)) is not None

    def test_rx_window_shrinks_with_unread_data(self):
        table = FlowTable()
        flow_id = table.create((1, 2, 3, 4))
        rx = table.rx[flow_id]
        rx.rx_buf_size = 1000
        rx.irs = 100
        rx.rcv_nxt = seq_add(101, 400)  # 400 payload bytes arrived
        assert rx.rx_stream_received == 400
        assert rx.rx_window == 600
        rx.app_read_offset = 400
        assert rx.rx_window == 1000


def make_design(request_size=16, **design_kwargs):
    design = TcpServerDesign(tcp_port=5000, request_size=request_size,
                             **design_kwargs)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    return design


def make_pair(request_size=16, wire_cycles=50, **design_kwargs):
    design = make_design(request_size=request_size, **design_kwargs)
    peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC, design.server_ip,
                       5000, wire_cycles=wire_cycles)
    design.sim.add(peer)
    return design, peer


class TestHandshake:
    def test_three_way_handshake(self):
        design, peer = make_pair()
        peer.connect()
        design.sim.run_until(lambda: peer.established, max_cycles=20000)
        flow_id = design.tcp_rx.flows.lookup(
            (int(CLIENT_IP), peer.src_port, int(design.server_ip), 5000)
        )
        assert flow_id is not None
        # The server reaches ESTABLISHED once the peer's ACK lands, and
        # the app tile is notified a few NoC hops later.
        design.sim.run_until(
            lambda: design.tcp_rx.flows.rx[flow_id].state
            == TcpState.ESTABLISHED,
            max_cycles=20000,
        )
        design.sim.run_until(lambda: design.app.connections == 1,
                             max_cycles=20000)

    def test_syn_to_closed_port_ignored(self):
        design, peer = make_pair()
        peer.server_port = 9999  # nothing listens there
        peer.connect()
        design.sim.run(5000)
        assert not peer.established
        assert len(design.tcp_rx.flows.rx) == 0

    def test_syn_retransmission_tolerated(self):
        """A duplicated SYN must not corrupt the flow state."""
        design, peer = make_pair()
        original_inject = design.inject
        frames = []

        def duplicate_syn(frame, cycle):
            original_inject(frame, cycle)
            if not frames:  # duplicate only the very first frame (SYN)
                frames.append(frame)
                original_inject(frame, cycle + 3)

        design.inject = duplicate_syn
        peer.connect()
        design.sim.run_until(lambda: peer.established, max_cycles=20000)
        peer.send(b"x" * 16)
        design.sim.run_until(lambda: len(peer.received) >= 16,
                             max_cycles=100000)
        assert len(design.tcp_rx.flows.rx) == 1

    def test_connection_table_full(self):
        design = make_design(max_flows=1)
        network = PeerNetwork(design)
        design.sim.add(network)
        peers = []
        for i in range(2):
            peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                               design.server_ip, 5000,
                               src_port=40000 + i, wire_cycles=50)
            network.register(peer)
            design.sim.add(peer)
            peer.connect()
            peers.append(peer)
        design.sim.run(30000)
        assert sum(p.established for p in peers) == 1


class TestDataTransfer:
    def test_echo_roundtrip(self):
        design, peer = make_pair(request_size=16)
        peer.connect()
        peer.send(b"0123456789abcdef")
        design.sim.run_until(lambda: len(peer.received) >= 16,
                             max_cycles=200000)
        assert bytes(peer.received) == b"0123456789abcdef"

    def test_many_requests_in_order(self):
        design, peer = make_pair(request_size=8)
        peer.connect()
        expected = bytearray()
        for i in range(20):
            chunk = bytes([i]) * 8
            peer.send(chunk)
            expected.extend(chunk)
        design.sim.run_until(
            lambda: len(peer.received) >= len(expected),
            max_cycles=500000,
        )
        assert bytes(peer.received) == bytes(expected)

    def test_request_spanning_segments(self):
        """A request larger than one segment is reassembled."""
        design, peer = make_pair(request_size=4096)
        peer.mss = 1000  # force multi-segment requests
        peer.connect()
        payload = bytes(range(256)) * 16
        peer.send(payload)
        design.sim.run_until(lambda: len(peer.received) >= 4096,
                             max_cycles=500000)
        assert bytes(peer.received) == payload

    def test_stream_wraps_ring_buffer(self):
        """A stream longer than the 64 KiB ring exercises the wrap
        (split RxNotify / TxGrant) paths."""
        design, peer = make_pair(request_size=4096)
        peer.connect()
        total = 80 * 1024  # > one ring
        pattern = bytes(range(251))
        payload = (pattern * (total // len(pattern) + 1))[:total]
        peer.send(payload)
        design.sim.run_until(lambda: len(peer.received) >= total,
                             max_cycles=3_000_000)
        assert bytes(peer.received[:total]) == payload

    def test_concurrent_connections(self):
        design = make_design(request_size=16)
        network = PeerNetwork(design)
        design.sim.add(network)
        peers = []
        for i in range(3):
            peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                               design.server_ip, 5000,
                               src_port=41000 + i, wire_cycles=50,
                               iss=9000 + 777 * i)
            network.register(peer)
            design.sim.add(peer)
            peer.connect()
            peer.send(bytes([i]) * 16)
            peers.append(peer)
        design.sim.run_until(
            lambda: all(len(p.received) >= 16 for p in peers),
            max_cycles=500000,
        )
        for i, peer in enumerate(peers):
            assert bytes(peer.received) == bytes([i]) * 16


class TestLossRecovery:
    def test_server_ignores_out_of_order(self):
        """An out-of-order segment is dropped and re-ACKed, not stored."""
        design, peer = make_pair(request_size=16)
        original_inject = design.inject
        state = {"dropped": False}

        def drop_first_data(frame, cycle):
            if len(frame) > 60 and not state["dropped"]:
                state["dropped"] = True  # swallow first data segment
                return
            original_inject(frame, cycle)

        design.inject = drop_first_data
        peer.rto_cycles = 3000  # fast client RTO for the test
        peer.connect()
        peer.send(b"Y" * 16)
        design.sim.run_until(lambda: len(peer.received) >= 16,
                             max_cycles=500000)
        assert bytes(peer.received) == b"Y" * 16
        assert peer.retransmits >= 1

    def test_server_retransmits_lost_reply(self):
        """Dropping the server's data segment forces its RTO path."""
        design, peer = make_pair(request_size=16)
        state = {"dropped": False}
        original_handle = peer._handle_frame

        def drop_first_server_data(frame, cycle):
            if len(frame) > 60 and not state["dropped"]:
                state["dropped"] = True
                return
            original_handle(frame, cycle)

        peer._handle_frame = drop_first_server_data
        peer.connect()
        peer.send(b"Z" * 16)
        design.sim.run_until(lambda: len(peer.received) >= 16,
                             max_cycles=1_000_000)
        assert bytes(peer.received) == b"Z" * 16
        flow_id = list(design.tcp_rx.flows.rx)[0]
        assert design.tcp_rx.flows.tx[flow_id].retransmits >= 1

    def test_fast_retransmit_on_dup_acks(self):
        """Three duplicate ACKs trigger fast retransmit without waiting
        for the RTO (section V-D)."""
        design, peer = make_pair(request_size=16, wire_cycles=20)
        state = {"dropped": False}
        original_handle = peer._handle_frame

        def drop_first_server_data(frame, cycle):
            if len(frame) > 60 and not state["dropped"]:
                state["dropped"] = True
                return
            original_handle(frame, cycle)

        peer._handle_frame = drop_first_server_data
        peer.connect()
        design.sim.run_until(lambda: peer.established, max_cycles=20000)
        # Each request generates a dup-ACK for the missing reply bytes.
        for _ in range(6):
            peer.send(b"Q" * 16)
        design.sim.run_until(lambda: len(peer.received) >= 96,
                             max_cycles=1_000_000)
        flow_id = list(design.tcp_rx.flows.rx)[0]
        assert design.tcp_rx.flows.tx[flow_id].fast_retransmits >= 1

    def test_corrupted_segment_dropped(self):
        design, peer = make_pair(request_size=16)
        original_inject = design.inject
        state = {"corrupted": False}

        def corrupt_first_data(frame, cycle):
            if len(frame) > 60 and not state["corrupted"]:
                state["corrupted"] = True
                frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
            original_inject(frame, cycle)

        design.inject = corrupt_first_data
        peer.rto_cycles = 3000
        peer.connect()
        peer.send(b"C" * 16)
        design.sim.run_until(lambda: len(peer.received) >= 16,
                             max_cycles=500000)
        assert bytes(peer.received) == b"C" * 16
        assert design.tcp_rx.checksum_errors == 1


class TestFlowControl:
    def test_window_closes_when_app_stalls(self):
        """A sink app that never frees the window throttles the peer."""

        class StalledSink(TcpSinkAppTile):
            def _handle_rx_data(self, resp, data, cycle):
                return []  # never RxComplete, never re-request

        design, peer = make_pair(app_tile_cls=StalledSink,
                                 request_size=1024)
        peer.connect()
        peer.send(bytes(300 * 1024))  # 5x the receive ring
        design.sim.run(400_000)
        flow_id = list(design.tcp_rx.flows.rx)[0]
        rx = design.tcp_rx.flows.rx[flow_id]
        # The server accepted at most one ring worth of data.
        assert rx.rx_stream_received <= rx.rx_buf_size
        # And the peer still has unsent data (it respected the window).
        assert len(peer.send_stream) > 0

    def test_fin_moves_to_close_wait(self):
        design, peer = make_pair(request_size=16)
        peer.connect()
        peer.send(b"f" * 16)
        design.sim.run_until(lambda: len(peer.received) >= 16,
                             max_cycles=200000)
        peer.close()
        flow_id = list(design.tcp_rx.flows.rx)[0]
        design.sim.run_until(
            lambda: design.tcp_rx.flows.rx[flow_id].state
            == TcpState.CLOSE_WAIT,
            max_cycles=200000,
        )
        assert design.tcp_rx.flows.rx[flow_id].fin_received


class TestLoggingTiles:
    def test_tcp_headers_logged_both_directions(self):
        design, peer = make_pair(request_size=16, with_logging=True)
        peer.connect()
        peer.send(b"L" * 16)
        design.sim.run_until(lambda: len(peer.received) >= 16,
                             max_cycles=500000)
        # SYN + data (the handshake ACK piggybacks on the first data
        # segment when the client has data queued).
        assert len(design.log_rx.entries) >= 2
        assert len(design.log_tx.entries) >= 2  # SYN-ACK, data, ACKs
        assert all(e.direction == "rx" for e in design.log_rx.entries)
        assert all(e.direction == "tx" for e in design.log_tx.entries)
        flags = [e.flags for e in design.log_rx.entries]
        assert any("SYN" in f for f in flags)
        # Cycle timestamps are usable for replay ordering.
        cycles = [e.cycle for e in design.log_rx.entries]
        assert cycles == sorted(cycles)


class TestSourceApp:
    def test_fpga_sends_stream_to_peer(self):
        """The Fig 9 'FPGA send' direction: a source app streams out."""
        total = 64 * 1024
        design, peer = make_pair(
            app_tile_cls=TcpSourceAppTile, request_size=64,
            chunk_size=8192, total_bytes=total,
        )
        peer.connect()
        design.sim.run_until(lambda: len(peer.received) >= total,
                             max_cycles=2_000_000)
        assert len(peer.received) == total


def scripted_session(design, gap, start=10):
    """``(cycle, action)`` pairs: a client driven by hand, one frame
    every ``gap`` cycles, so the TX engine is asleep before each one.
    SYN (the ``request_synack`` wire), the ACK that completes the
    handshake, one request (``request_ack``; the echo app's
    ``TxReady`` then makes the engine send as many bytes back), three
    duplicate ACKs for those (``fast_retransmit`` on the third), and
    the ACK that covers them (``on_ack_advance``).  The server's ISS is
    read when a frame is due, so the schedule fits any echo design."""
    size = design.app.request_size

    def segment(flags, seq, acked=0, payload=b""):
        def inject(at):
            ack = seq_add(design.tcp_rx.flows.tx[0].iss, acked) if acked else 0
            header = TcpHeader(src_port=40_000, dst_port=5000,
                               seq=seq, ack=ack, flags=flags,
                               window=65535)
            design.inject(build_tcp_frame(
                CLIENT_MAC, design.server_mac, CLIENT_IP,
                design.server_ip, header, payload), at)
        return inject

    frames = [
        segment(TCP_SYN, 7000),
        segment(TCP_ACK, 7001, acked=1),
        segment(TCP_ACK | TCP_PSH, 7001, acked=1, payload=bytes(size)),
        segment(TCP_ACK, 7001 + size, acked=1),
        segment(TCP_ACK, 7001 + size, acked=1),
        segment(TCP_ACK, 7001 + size, acked=1),
        segment(TCP_ACK, 7001 + size, acked=1 + size),
    ]
    return [(at, lambda inject=inject, at=at: inject(at))
            for at, inject in zip(range(start, start + gap * len(frames),
                                        gap), frames)]


def play(design, actions):
    """Run ``design`` through ``(cycle, action)`` pairs, each action
    called between ticks once its cycle has come."""
    for at, action in sorted(actions, key=lambda pair: pair[0]):
        design.sim.run(at - design.sim.cycle)
        action()


class TestTxEngineSleeps:
    """The TX engine's quiescence contract (DESIGN.md 5c): stepped on
    a wire from the RX engine, a message from the app or one of its
    own timers, and on no other cycle."""

    WIRES = ("request_synack", "request_ack", "fast_retransmit",
             "on_ack_advance")
    GAP = 1_000

    def logged(self, profile):
        """A design whose TX engine logs the cycle of every wire
        call, every ``send`` and every ``step``."""
        design = make_design(profile=profile)
        engine = design.tcp_tx
        log = {name: [] for name in (*self.WIRES, "send", "step")}
        for name, cycles in log.items():
            def logged(*args, inner=getattr(engine, name), cycles=cycles):
                cycles.append(design.sim.cycle)
                return inner(*args)
            setattr(engine, name, logged)
        return design, log

    def drive(self, profile):
        """The whole scripted session, and a quiet tail."""
        design, log = self.logged(profile)
        play(design, scripted_session(design, self.GAP))
        design.sim.run(self.GAP)
        return design, log

    def test_every_wire_and_the_app_rouse_it_on_the_right_cycle(self):
        design, fast = self.drive("fast")
        _, reference = self.drive("reference")
        tx = design.tcp_rx.flows.tx[0]
        assert tx.fast_retransmits == 1 and tx.retransmits == 0
        assert seq_diff(design.tcp_rx.flows.rx[0].snd_una, tx.iss) == 17
        # Every wire fired, and the engine was stepped in that very
        # cycle: the RX engine sits before it in the step order.
        for wire in self.WIRES:
            assert fast[wire] and set(fast[wire]) <= set(fast["step"])
        # SYN-ACK, ACK, the grant to the app, the echo (after the
        # app's TxReady), the fast retransmission: each leaves in the
        # cycle the always-stepped engine of ``reference`` sends it.
        assert len(fast["send"]) == 5
        for name in (*self.WIRES, "send"):
            assert fast[name] == reference[name], name
        # ... having been stepped a few dozen times, not 8 000.
        assert len(reference["step"]) == design.sim.cycle
        assert len(fast["step"]) < 40

    def test_an_established_idle_engine_is_not_stepped(self):
        design, log = self.drive("fast")
        sim = design.sim
        state = scheduling(design.tile_core, design.tcp_tx)
        assert not state.fast    # it overrides on_cycle
        assert not state.busy and state.deadline == -1
        assert design.tcp_tx._due() == NEVER    # no work, no timer
        quiet_from = sim.cycle
        skipped = sim.idle_cycles_skipped
        sim.run(5_000)
        assert log["step"][-1] < quiet_from
        assert sim.idle_cycles_skipped == skipped + 5_000

    def test_a_sleeping_engine_keeps_its_retransmission_timer(self):
        """Bytes in flight and nothing arriving: the only thing that
        can bring the engine back is the timer it armed, one cycle
        past ``last_tx_cycle + rto_cycles``."""
        design, log = self.logged("fast")
        design.tcp_tx.rto_cycles = 3_000
        play(design, scripted_session(design, 400)[:3])
        design.sim.run(400)
        sent = log["send"]
        echoed_at = sent[-1]
        state = scheduling(design.tile_core, design.tcp_tx)
        assert not state.busy
        assert state.deadline == echoed_at + 3_001
        design.sim.run(7_000)
        assert sent[-2:] == [echoed_at + 3_001, echoed_at + 6_002]
        assert design.tcp_rx.flows.tx[0].retransmits == 2
