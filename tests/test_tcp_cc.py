"""Tests for the pluggable congestion-control strategies.

The algorithm unit tests drive bare flow objects (anything with
``cwnd``/``ssthresh`` attributes) through ACK/loss/timeout events and
check the window against the textbook traces: slow start doubles per
RTT, Reno halves on triple-dup-ACK, Tahoe collapses to one MSS, CUBIC
follows its closed-form cubic.  The integration tests run the
competing-flows harness and pin the acceptance property: the three
algorithms produce *distinct* completion/fairness signatures through
the same seeded loss.
"""

from types import SimpleNamespace

import pytest

from repro.tcp.cc import (
    CubicCC,
    RenoCC,
    TahoeCC,
    cubic_window,
    make_cc,
)

MSS = 1000


def make_flow(cc, cycle=0):
    flow = SimpleNamespace()
    cc.on_connect(flow, MSS, cycle)
    return flow


def ack_window(cc, flow, cycle=0):
    """Deliver one ACK per outstanding MSS — one idealised RTT."""
    segments = max(1, flow.cwnd // MSS)
    for _ in range(segments):
        cc.on_ack(flow, MSS, MSS, cycle)


class TestSlowStart:
    def test_window_doubles_per_rtt(self):
        cc = RenoCC()
        flow = make_flow(cc)
        trace = [flow.cwnd]
        for _ in range(3):
            ack_window(cc, flow)
            trace.append(flow.cwnd)
        assert trace == [2000, 4000, 8000, 16000]

    def test_congestion_avoidance_is_linear(self):
        cc = RenoCC()
        flow = make_flow(cc)
        flow.cwnd = 10 * MSS
        flow.ssthresh = 10 * MSS  # at threshold: avoidance mode
        ack_window(cc, flow)
        # Ten ACKs each add mss*mss/cwnd ~ mss/10: one MSS per RTT.
        assert 10 * MSS < flow.cwnd <= 11 * MSS

    def test_all_strategies_share_slow_start(self):
        for cc in (TahoeCC(), RenoCC(), CubicCC()):
            flow = make_flow(cc)
            ack_window(cc, flow)
            assert flow.cwnd == 4000, type(cc).__name__


class TestLossResponse:
    def test_reno_halves_on_triple_dup_ack(self):
        cc = RenoCC()
        flow = make_flow(cc)
        flow.cwnd = 16 * MSS
        cc.on_loss(flow, 16 * MSS, MSS, cycle=100)
        assert flow.ssthresh == 8 * MSS
        assert flow.cwnd == 8 * MSS  # halved, not collapsed

    def test_tahoe_collapses_on_triple_dup_ack(self):
        cc = TahoeCC()
        flow = make_flow(cc)
        flow.cwnd = 16 * MSS
        cc.on_loss(flow, 16 * MSS, MSS, cycle=100)
        assert flow.ssthresh == 8 * MSS
        assert flow.cwnd == MSS  # Tahoe restarts from one segment

    def test_timeout_collapses_all_strategies(self):
        for cc in (TahoeCC(), RenoCC()):
            flow = make_flow(cc)
            flow.cwnd = 16 * MSS
            cc.on_timeout(flow, 16 * MSS, MSS, cycle=100)
            assert flow.cwnd == MSS, type(cc).__name__
            assert flow.ssthresh == 8 * MSS

    def test_loss_floor_is_two_mss(self):
        cc = RenoCC()
        flow = make_flow(cc)
        flow.cwnd = MSS
        cc.on_loss(flow, MSS, MSS, cycle=100)
        assert flow.ssthresh == 2 * MSS
        assert flow.cwnd == 2 * MSS


class TestCubic:
    def test_closed_form_properties(self):
        # At t == K the curve returns exactly to w_max.
        w_max = 10.0
        k = (w_max * (1 - 0.7) / 0.4) ** (1.0 / 3.0)
        assert cubic_window(k, w_max) == pytest.approx(w_max)
        # At t == 0 it starts from the post-loss window.
        assert cubic_window(0.0, w_max) == pytest.approx(0.7 * w_max)
        # Past K it grows beyond w_max (probing).
        assert cubic_window(k + 1.0, w_max) > w_max

    def test_growth_matches_closed_form(self):
        cc = CubicCC()
        cc.cycles_per_unit = 1000
        flow = make_flow(cc)
        flow.cwnd = 10 * MSS
        cc.on_loss(flow, 10 * MSS, MSS, cycle=0)
        assert flow.cwnd == 7 * MSS  # beta = 0.7
        assert flow.cc_wmax == pytest.approx(10.0)
        # First post-loss ACK anchors the epoch; growth then follows
        # w(t) = C*(t - K)^3 + w_max in MSS units.
        cc.on_ack(flow, MSS, MSS, cycle=2000)
        for cycle in (3000, 4000, 5000, 6000):
            cc.on_ack(flow, MSS, MSS, cycle=cycle)
            t = (cycle - 2000) / 1000.0
            expected = int(cubic_window(t, 10.0) * MSS)
            assert flow.cwnd == max(7 * MSS, expected), cycle

    def test_window_is_monotone_between_losses(self):
        cc = CubicCC()
        cc.cycles_per_unit = 1000
        flow = make_flow(cc)
        flow.cwnd = 10 * MSS
        cc.on_loss(flow, 10 * MSS, MSS, cycle=0)
        last = flow.cwnd
        for cycle in range(1000, 20_000, 1000):
            cc.on_ack(flow, MSS, MSS, cycle=cycle)
            assert flow.cwnd >= last
            last = flow.cwnd

    def test_timeout_restarts_from_one_mss(self):
        cc = CubicCC()
        cc.cycles_per_unit = 1000
        flow = make_flow(cc)
        flow.cwnd = 10 * MSS
        cc.on_timeout(flow, 10 * MSS, MSS, cycle=0)
        assert flow.cwnd == MSS
        assert flow.cc_wmax == pytest.approx(10.0)


class TestMakeCc:
    def test_disabled_spellings(self):
        for spec in (None, False, "", "none", "off"):
            assert make_cc(spec) is None

    def test_true_means_reno(self):
        assert isinstance(make_cc(True), RenoCC)

    def test_names(self):
        assert isinstance(make_cc("tahoe"), TahoeCC)
        assert isinstance(make_cc("reno"), RenoCC)
        assert isinstance(make_cc("cubic"), CubicCC)
        assert isinstance(make_cc("CUBIC"), CubicCC)

    def test_instance_passthrough(self):
        cc = CubicCC()
        cc.cycles_per_unit = 500
        assert make_cc(cc) is cc

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="bbr"):
            make_cc("bbr")

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            make_cc(3.14)


class TestEngineCubic:
    def test_server_engine_accepts_cubic_by_name(self):
        from repro.designs.tcp_stack import TcpServerDesign
        from repro.packet import IPv4Address, MacAddress
        from repro.tcp.app import TcpSourceAppTile
        from repro.tcp.peer import SoftTcpPeer

        design = TcpServerDesign(
            tcp_port=5000, app_tile_cls=TcpSourceAppTile,
            request_size=64, mss=MSS, chunk_size=16384,
            line_rate_bytes_per_cycle=None,
            congestion_control="cubic",
        )
        ip, mac = IPv4Address("10.0.0.1"), \
            MacAddress("02:00:00:00:00:01")
        design.add_client(ip, mac)
        peer = SoftTcpPeer(design, ip, mac, design.server_ip, 5000,
                           service_cycles=2, window=60_000,
                           wire_cycles=400)
        design.sim.add(peer)
        peer.connect()
        design.sim.run_until(lambda: len(peer.received) >= 16_000,
                             max_cycles=2_000_000)
        flow_id = list(design.tcp_rx.flows.rx)[0]
        assert design.tcp_rx.flows.tx[flow_id].cwnd >= 2 * MSS


class TestCompetingFlowSignatures:
    """The acceptance property: three algorithms, same seeded loss,
    distinct regression-tested signatures."""

    @pytest.fixture(scope="class")
    def signatures(self):
        from repro.loadgen.flows import run_competing_flows
        return {cc: run_competing_flows(cc=cc)
                for cc in ("tahoe", "reno", "cubic")}

    def test_full_stream_delivery_through_loss(self, signatures):
        for cc, result in signatures.items():
            assert result["all_delivered"], cc
            assert result["wire_drops"] > 0, cc
            for flow in result["flows"]:
                assert flow["complete"], (cc, flow["src_port"])

    def test_losses_recovered_by_fast_retransmit(self, signatures):
        for cc, result in signatures.items():
            assert result["total_fast_retransmits"] > 0, cc

    def test_signatures_are_distinct(self, signatures):
        completions = {cc: r["completion_cycle"]
                       for cc, r in signatures.items()}
        assert len(set(completions.values())) == 3, completions
        jains = {cc: r["jain_fairness"]
                 for cc, r in signatures.items()}
        assert len(set(jains.values())) == 3, jains

    def test_reno_beats_tahoe(self, signatures):
        """Reno halves where Tahoe collapses to one MSS; through the
        same drop schedule Reno must finish first."""
        assert signatures["reno"]["completion_cycle"] < \
            signatures["tahoe"]["completion_cycle"]

    def test_fairness_stays_high(self, signatures):
        for cc, result in signatures.items():
            assert result["jain_fairness"] > 0.9, cc

    def test_signature_is_deterministic(self, signatures):
        import json

        from repro.loadgen.flows import run_competing_flows
        again = run_competing_flows(cc="reno")
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(signatures["reno"], sort_keys=True)

    #: cc -> (completion cycle, wire drops, per flow (completion
    #: cycle, segments, timeouts, fast retransmits, cwnd, ssthresh)),
    #: as run at the commit before the peers learned to sleep.
    PINNED = {
        "tahoe": (10619, 4, [(10619, 90, 0, 2, 11185, 2048),
                             (8079, 92, 0, 1, 13082, 5120),
                             (8881, 87, 0, 1, 12865, 3072)]),
        "reno": (8527, 4, [(6874, 95, 0, 1, 13826, 6656),
                           (8527, 96, 0, 2, 11617, 3204),
                           (8309, 90, 0, 1, 13265, 3072)]),
        "cubic": (12318, 5, [(11124, 137, 0, 3, 5134, 5010),
                             (8690, 138, 0, 1, 8082, 7168),
                             (12318, 211, 0, 1, 5255, 4300)]),
    }

    def test_signatures_survive_a_kernel_that_lets_peers_sleep(
            self, signatures):
        """A peer that misses a wake or a timer sends a segment late
        (or never): every count and cycle below would move."""
        for cc, (completion, drops, flows) in self.PINNED.items():
            result = signatures[cc]
            assert result["completion_cycle"] == completion, cc
            assert result["wire_drops"] == drops, cc
            assert [(f["completion_cycle"], f["segments_sent"],
                     f["retransmits"], f["fast_retransmits"],
                     f["cwnd"], f["ssthresh"])
                    for f in result["flows"]] == flows, cc

    @pytest.mark.parametrize("profile", [
        pytest.param("fast", id="scheduled"),   # named for the kernel
        pytest.param("reference", id="naive"),  # whose timers they try
    ])
    def test_timeout_retransmission_fires_on_its_cycle(self, profile):
        """Total loss until cycle 30 000: every flow's SYN and its
        retransmissions wait out whole RTOs with nothing arriving, so
        only the peer's own timer can bring it back."""
        from repro.loadgen.flows import build_competing_flows

        design, peers = build_competing_flows(
            cc="reno", n_flows=2, loss=0.0, stream_bytes=4 * 1024,
            rto_cycles=3_000, profile=profile)
        inject = design.inject
        sent_at = []

        def black_hole(frame, arrival):
            sent_at.append(arrival - 500)
            if arrival >= 30_000:
                inject(frame, arrival)

        design.inject = black_hole
        design.sim.run_until(
            lambda: all(p.bytes_acked >= 4 * 1024 for p in peers),
            max_cycles=100_000)
        # Both peers: SYN at 0, then one more every RTO + 1 cycles.
        assert sent_at[:20] == [3_001 * (k // 2) for k in range(20)]
        for peer in peers:
            assert peer.retransmits >= 9 and peer.established

    def test_an_established_idle_peer_is_not_stepped(self):
        """Between its events — a frame in its inbox, something to
        send, the RTO — a peer behind a PeerNetwork sleeps."""
        from repro.loadgen.flows import build_competing_flows

        design, peers = build_competing_flows(
            cc="reno", n_flows=2, loss=0.0, stream_bytes=8 * 1024)
        sim = design.sim
        steps = {peer.src_port: [] for peer in peers}
        for peer in peers:
            step = peer.step
            peer.step = lambda cycle, peer=peer, step=step: (
                steps[peer.src_port].append(cycle), step(cycle))[1]
        sim.run_until(
            lambda: all(p.bytes_acked >= 8 * 1024 for p in peers),
            max_cycles=200_000)
        done = sim.cycle
        for peer in peers:
            assert peer.established and not peer.sent_unacked
            # Far fewer steps than cycles while the stream ran ...
            assert 8 < len(steps[peer.src_port]) < done // 10
        # ... and none at all once everything is acknowledged: only a
        # frame, a send() or a close() can rouse the peer now.
        sim.run(5_000)
        for peer in peers:
            assert steps[peer.src_port][-1] < done
            assert sim.wake_cycle(peer) is None
        peers[0].send(b"more")
        assert sim.wake_cycle(peers[0]) == sim.cycle
        sim.run_until(lambda: peers[0].bytes_acked >= 8 * 1024 + 4,
                      max_cycles=20_000)
