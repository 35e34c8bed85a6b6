"""Tests for the optional TCP congestion-control extension.

The paper's engine ships without congestion control and lists it as
integration work (section V-D); this extension adds RFC 5681 slow
start, congestion avoidance, and window collapse on loss, off by
default so the default engine stays paper-faithful.
"""

from repro.designs.tcp_stack import TcpServerDesign
from repro.packet import IPv4Address, MacAddress
from repro.tcp.app import TcpSourceAppTile
from repro.tcp.peer import SoftTcpPeer

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")

MSS = 1000


def make_sender(congestion_control, **peer_kwargs):
    design = TcpServerDesign(
        tcp_port=5000, app_tile_cls=TcpSourceAppTile, request_size=64,
        mss=MSS, chunk_size=16384, line_rate_bytes_per_cycle=None,
        congestion_control=congestion_control,
    )
    design.add_client(CLIENT_IP, CLIENT_MAC)
    peer_kwargs.setdefault("wire_cycles", 400)
    peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                       design.server_ip, 5000,
                       service_cycles=2, window=60_000,
                       **peer_kwargs)
    design.sim.add(peer)
    peer.connect()
    return design, peer


def flow_state(design):
    flow_id = list(design.tcp_rx.flows.rx)[0]
    return design.tcp_rx.flows.tx[flow_id], design.tcp_rx.flows.rx[flow_id]


class TestDisabledByDefault:
    def test_paper_faithful_default(self):
        design, peer = make_sender(congestion_control=False)
        design.sim.run_until(lambda: peer.established,
                             max_cycles=50_000)
        design.sim.run(5_000)
        tx, _ = flow_state(design)
        assert tx.cwnd == 0  # disabled: peer window is the only limit


class TestSlowStart:
    def test_window_grows_exponentially_then_linearly(self):
        design, peer = make_sender(congestion_control=True)
        design.sim.run_until(lambda: peer.established,
                             max_cycles=50_000)
        tx, _ = flow_state(design)
        assert tx.cwnd == 2 * MSS  # initial window
        samples = [tx.cwnd]
        for _ in range(20):
            design.sim.run(2_000)
            samples.append(tx.cwnd)
        assert samples[-1] > samples[0]  # the window opened
        # It is bounded by ssthresh growth dynamics, not unbounded.
        assert tx.cwnd < 10_000_000

    def test_initial_window_limits_inflight(self):
        """Right after the handshake the sender may have at most the
        initial window in flight, even with a huge peer window."""
        design, peer = make_sender(congestion_control=True,
                                   wire_cycles=3000)
        from repro.tcp.flow import TcpState, seq_diff

        def server_established():
            flows = list(design.tcp_rx.flows.rx)
            return flows and design.tcp_rx.flows.rx[flows[0]].state == \
                TcpState.ESTABLISHED

        design.sim.run_until(server_established, max_cycles=100_000)
        tx, rx = flow_state(design)
        # Before any ACK for data returns (one-way wire = 3000 cy),
        # in-flight is capped by cwnd = 2 * MSS.
        design.sim.run_until(lambda: tx.tx_stream_sent > 0,
                             max_cycles=50_000)
        design.sim.run(2_000)
        in_flight = seq_diff(tx.snd_nxt, rx.snd_una)
        assert 0 < in_flight <= 2 * MSS

    def test_uncontrolled_sender_fills_peer_window_instead(self):
        design, peer = make_sender(congestion_control=False,
                                   wire_cycles=3000)
        from repro.tcp.flow import TcpState, seq_diff

        def server_established():
            flows = list(design.tcp_rx.flows.rx)
            return flows and design.tcp_rx.flows.rx[flows[0]].state == \
                TcpState.ESTABLISHED

        design.sim.run_until(server_established, max_cycles=100_000)
        tx, rx = flow_state(design)
        design.sim.run_until(lambda: tx.tx_stream_sent > 0,
                             max_cycles=50_000)
        design.sim.run(4_000)
        in_flight = seq_diff(tx.snd_nxt, rx.snd_una)
        assert in_flight > 10 * MSS  # blasted well past 2*MSS


class TestLossResponse:
    def test_rto_collapses_window(self):
        design, peer = make_sender(congestion_control=True)
        design.tcp_tx.rto_cycles = 3_000
        design.sim.run_until(lambda: peer.established,
                             max_cycles=50_000)
        tx, _ = flow_state(design)
        # Let the window open first.
        design.sim.run(20_000)
        opened = tx.cwnd
        assert opened > 2 * MSS
        # Black-hole the peer: its ACKs stop arriving at the server.
        design.eth_rx.push_frame = lambda frame, cycle: None
        design.sim.run(20_000)
        assert tx.retransmits >= 1
        assert tx.cwnd == MSS            # collapsed to one segment
        assert tx.ssthresh >= 2 * MSS    # and remembers half the flight

    def test_fast_retransmit_halves_window(self):
        design, peer = make_sender(congestion_control=True)
        design.sim.run_until(lambda: peer.established,
                             max_cycles=50_000)
        design.sim.run(20_000)
        tx, rx = flow_state(design)
        opened = tx.cwnd
        assert opened > 4 * MSS
        design.tcp_tx.fast_retransmit(rx.flow_id, design.sim.cycle)
        assert tx.cwnd < opened
        assert tx.cwnd == tx.ssthresh

    def test_stream_still_delivered_with_congestion_control(self):
        """Correctness is unchanged: the receiver gets the stream."""
        design, peer = make_sender(congestion_control=True)
        design.sim.run_until(lambda: len(peer.received) >= 48_000,
                             max_cycles=2_000_000)
        assert bytes(peer.received[:64]) == bytes(64)
