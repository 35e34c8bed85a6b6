"""Tests for the open-loop load-generation subsystem.

Pinned-seed property tests bound the arrival processes (empirical mean
against the configured rate, Zipf rank-frequency against the power
law), unit tests pin the ``OpenLoopSource`` admission boundary, a
regression test drives ``FrameSource`` at twice line rate, and the
sweep tests pin the acceptance shape: a monotone goodput curve that
saturates at the knee with the p999 tail blowing up past it —
byte-identical across runs and across the two profiles.
"""

import json

import pytest

from repro.loadgen.arrivals import (
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    ZipfPopularity,
    make_arrivals,
)
from repro.loadgen.source import OVERRUN_REASON, OpenLoopSource
from repro.sim.kernel import NEVER
from repro.sim.rng import SeededStreams

MEAN = 100.0
N_GAPS = 5000


def empirical_mean(process, n=N_GAPS):
    last = 0.0
    total = 0.0
    for _ in range(n):
        t = process.next_arrival()
        total += t - last
        last = t
    return total / n


class TestArrivalProcesses:
    def test_poisson_mean_in_bounds(self):
        streams = SeededStreams(0xBEE)
        process = make_arrivals("poisson", MEAN, streams)
        assert 95.0 < empirical_mean(process) < 105.0

    def test_bursty_mean_in_bounds(self):
        streams = SeededStreams(0xBEE)
        process = make_arrivals("bursty", MEAN, streams)
        assert 90.0 < empirical_mean(process) < 110.0

    def test_bursty_is_burstier_than_poisson(self):
        """Same offered load, higher variance: the point of the knob."""
        def gap_variance(process, n=N_GAPS):
            last, gaps = 0.0, []
            for _ in range(n):
                t = process.next_arrival()
                gaps.append(t - last)
                last = t
            mean = sum(gaps) / n
            return sum((g - mean) ** 2 for g in gaps) / n

        poisson = make_arrivals("poisson", MEAN, SeededStreams(1))
        bursty = make_arrivals("bursty", MEAN, SeededStreams(1))
        assert gap_variance(bursty) > 2 * gap_variance(poisson)

    def test_diurnal_mean_in_bounds(self):
        streams = SeededStreams(0xBEE)
        process = make_arrivals("diurnal", MEAN, streams,
                                period_cycles=50_000.0)
        assert 85.0 < empirical_mean(process) < 115.0

    def test_arrivals_strictly_increase(self):
        for kind in ("poisson", "bursty", "diurnal"):
            process = make_arrivals(kind, MEAN, SeededStreams(7))
            last = 0.0
            for _ in range(1000):
                t = process.next_arrival()
                assert t > last, kind
                last = t

    def test_same_seed_same_schedule(self):
        a = make_arrivals("poisson", MEAN, SeededStreams(42))
        b = make_arrivals("poisson", MEAN, SeededStreams(42))
        assert [a.next_arrival() for _ in range(200)] == \
            [b.next_arrival() for _ in range(200)]

    def test_processes_draw_independent_substreams(self):
        """One root seed, different named substreams: adding a process
        never perturbs another's schedule."""
        solo = make_arrivals("poisson", MEAN, SeededStreams(42))
        schedule = [solo.next_arrival() for _ in range(100)]
        streams = SeededStreams(42)
        make_arrivals("bursty", MEAN, streams)  # a second consumer
        again = make_arrivals("poisson", MEAN, streams)
        assert [again.next_arrival() for _ in range(100)] == schedule

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="self_similar"):
            make_arrivals("self_similar", MEAN, SeededStreams(1))

    def test_bad_parameters_raise(self):
        rng = SeededStreams(1).stream("x")
        with pytest.raises(ValueError):
            PoissonArrivals(0.0, rng)
        with pytest.raises(ValueError):
            BurstyArrivals(MEAN, rng, burst_len=0)
        with pytest.raises(ValueError):
            BurstyArrivals(MEAN, rng, duty=0.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(MEAN, rng, amplitude=1.0)


class TestZipfPopularity:
    def sample_counts(self, n_keys=16, skew=1.0, n=20_000, seed=0xBEE):
        zipf = ZipfPopularity(n_keys, skew,
                              SeededStreams(seed).stream("z"))
        counts = [0] * n_keys
        for _ in range(n):
            counts[zipf.sample()] += 1
        return counts

    def test_rank_frequency_follows_power_law(self):
        counts = self.sample_counts()
        # Rank 0 is hottest; the 0/1 ratio is 2 for skew=1.
        assert counts[0] > counts[1] > counts[15]
        ratio = counts[0] / counts[1]
        assert 1.7 < ratio < 2.3
        # And the 0/7 ratio is 8.
        assert 6.0 < counts[0] / counts[7] < 10.5

    def test_zero_skew_is_uniform(self):
        counts = self.sample_counts(skew=0.0)
        expected = sum(counts) / len(counts)
        for count in counts:
            assert abs(count - expected) < 0.2 * expected

    def test_samples_cover_the_key_space(self):
        counts = self.sample_counts(n_keys=4, n=1000)
        assert all(count > 0 for count in counts)

    def test_deterministic(self):
        assert self.sample_counts() == self.sample_counts()

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity(0)
        with pytest.raises(ValueError):
            ZipfPopularity(4, skew=-1.0)


class FixedGaps:
    """Stub arrival process: a fixed interarrival gap."""

    def __init__(self, gap):
        self.gap = gap
        self._t = 0.0

    def next_arrival(self):
        self._t += self.gap
        return self._t


class TestOpenLoopSource:
    def make(self, gap=10.0, backlog=None, **kwargs):
        pushed = []
        source = OpenLoopSource(
            lambda frame, cycle: pushed.append((frame, cycle)),
            lambda seq, cycle: bytes(16),
            FixedGaps(gap),
            admission=backlog, **kwargs)
        return source, pushed

    def test_injects_on_schedule(self):
        source, pushed = self.make(gap=10.0, count=5)
        for cycle in range(60):
            source.step(cycle)
        assert source.offered == 5
        assert source.admitted == 5
        assert [cycle for _, cycle in pushed] == [10, 20, 30, 40, 50]
        assert source.done

    def test_catches_up_after_a_stall(self):
        """Open loop: arrivals that fell due during a stall all fire;
        the schedule does not stretch."""
        source, pushed = self.make(gap=10.0, count=6)
        source.step(59)  # first observation at cycle 59
        assert source.offered == 5
        assert source.admitted == 5

    def test_admission_overrun_counted_never_buffered(self):
        backlog = [0]
        source, pushed = self.make(gap=10.0, count=10,
                                   backlog=lambda: backlog[0],
                                   max_admission=4)
        for cycle in range(45):
            source.step(cycle)
        assert source.admitted == 4
        backlog[0] = 4  # the NIC is now full
        for cycle in range(45, 105):
            source.step(cycle)
        assert source.offered == 10
        assert source.admitted == 4
        assert source.offered_dropped == 6
        assert source.drop_reasons == {OVERRUN_REASON: 6}
        assert len(pushed) == 4  # nothing silently queued

    def test_horizon_bound(self):
        source, _ = self.make(gap=10.0, horizon_cycles=35)
        for cycle in range(100):
            source.step(cycle)
        assert source.offered == 3  # arrivals at 10, 20, 30
        assert source.done

    def test_requires_a_bound(self):
        with pytest.raises(ValueError):
            OpenLoopSource(lambda f, c: None, lambda s, c: b"",
                           FixedGaps(10.0))

    def test_quiescence_contract(self):
        source, _ = self.make(gap=10.0, count=2)
        assert source.step(0) == 10     # purely timer-driven
        for cycle in range(1, 24):
            source.step(cycle)
        assert source.done
        assert source.step(24) == NEVER


class TestFrameSourceOverrun:
    """Satellite regression: arrivals at twice line rate must be
    counted at the admission boundary, not queued without bound."""

    def drive(self, overrun):
        from repro.designs.harness import FrameSource
        from repro.designs.udp_stack import UdpEchoDesign
        from repro.loadgen.source import nic_backlog
        from repro.packet.builder import build_ipv4_udp_frame
        from repro.packet.ethernet import MacAddress
        from repro.packet.ipv4 import IPv4Address

        design = UdpEchoDesign()
        ip, mac = IPv4Address("10.0.0.1"), \
            MacAddress("02:00:00:00:00:01")
        design.add_client(ip, mac)
        frame = build_ipv4_udp_frame(
            mac, design.server_mac, ip, design.server_ip,
            20_000, design.udp_port, bytes(256))
        source = FrameSource(design.inject, lambda i: frame,
                             rate=100.0,  # 2x the 50 B/cy line rate
                             count=300,
                             backlog=nic_backlog(design),
                             max_backlog=16, overrun=overrun)
        design.sim.add(source)
        peak_backlog = 0
        while not source.done and design.sim.cycle < 100_000:
            design.sim.run(50)
            peak_backlog = max(peak_backlog,
                               len(design.eth_rx._rx_ready))
        return source, peak_backlog

    def test_drop_mode_counts_at_the_boundary(self):
        source, peak_backlog = self.drive("drop")
        assert source.offered == 300
        assert source.offered_dropped > 0
        assert source.sent + source.offered_dropped == source.offered
        assert source.drop_reasons[OVERRUN_REASON] == \
            source.offered_dropped
        # The hazard this pins: the backlog stays bounded by the
        # admission limit instead of growing with the rate mismatch.
        assert peak_backlog <= 17

    def test_block_mode_never_drops(self):
        source, peak_backlog = self.drive("block")
        assert source.offered == 300
        assert source.offered_dropped == 0
        assert source.sent == 300
        assert peak_backlog <= 17


class TestSweep:
    POINT_KWARGS = dict(payload_bytes=256, duration_cycles=20_000,
                        warmup_cycles=4_000, seed=7)

    def test_run_point_shape(self):
        from repro.loadgen.sweep import run_point
        point = run_point(30.0, **self.POINT_KWARGS)
        assert point["offered"] > 0
        assert point["delivered"] > 0
        assert point["delivery_ratio"] == 1.0
        assert point["goodput_gbps"] > 0
        assert point["p50_cycles"] <= point["p99_cycles"] <= \
            point["p999_cycles"]
        assert point["hot_key_frames"] > 0

    def test_curve_has_knee_and_tail_blowup(self):
        from repro.loadgen.sweep import sweep
        result = sweep([20.0, 40.0, 60.0, 80.0],
                       payload_bytes=256, duration_cycles=40_000,
                       warmup_cycles=8_000, seed=7)
        curve = result["curve"]
        goodputs = [p["goodput_gbps"] for p in curve]
        ratios = [p["delivery_ratio"] for p in curve]
        # Goodput rises to saturation...
        assert goodputs[1] > goodputs[0] * 1.5
        assert max(goodputs[2:]) >= goodputs[1]
        assert abs(goodputs[3] - goodputs[2]) < 0.1 * goodputs[2]
        # ...admission degrades monotonically past the knee...
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[0] == 1.0 and ratios[3] < 0.95
        assert curve[3]["offered_dropped"] > \
            curve[2]["offered_dropped"] > 0
        # ...and the tail blows up.
        assert curve[3]["p999_cycles"] > 2 * curve[0]["p999_cycles"]
        assert result["knee_gbps"] == 40.0

    def test_sweep_deterministic(self):
        from repro.loadgen.sweep import sweep
        a = sweep([25.0], **self.POINT_KWARGS)
        b = sweep([25.0], **self.POINT_KWARGS)
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)

    def test_sweep_identical_across_profiles(self):
        from repro.loadgen.sweep import run_point
        fast = run_point(30.0, **self.POINT_KWARGS)
        reference = run_point(30.0, profile="reference",
                              **self.POINT_KWARGS)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(reference, sort_keys=True)

    def test_arrival_kinds_run_end_to_end(self):
        from repro.loadgen.sweep import run_point
        for arrival in ("bursty", "diurnal"):
            point = run_point(25.0, arrival=arrival,
                              **self.POINT_KWARGS)
            assert point["delivered"] > 0, arrival

    def test_sweep_result_is_plain_json(self):
        from repro.loadgen.sweep import sweep
        result = sweep([25.0], **self.POINT_KWARGS)
        assert json.loads(json.dumps(result)) == result
        assert "goodput_gbps" in result["curve"][0]
        assert result["knee_gbps"] == 25.0

    def test_payload_must_fit_the_tag(self):
        from repro.loadgen.sweep import run_point
        with pytest.raises(ValueError, match="payload_bytes"):
            run_point(30.0, payload_bytes=8)


class TestLoadCli:
    def test_sweep_output_and_determinism(self, tmp_path, capsys):
        from repro.tools.load import main
        args = ["--offered", "20,60", "--payload", "256",
                "--duration", "20000", "--warmup", "4000",
                "--seed", "7"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main([*args, "--out", str(first)]) == 0
        out = capsys.readouterr().out
        assert "knee:" in out
        assert main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        document = json.loads(first.read_text())
        assert document["n_points"] == 2

    def test_flows_mode(self, capsys):
        from repro.tools.load import main
        assert main(["--flows", "2", "--cc", "reno",
                     "--stream-bytes", "16384"]) == 0
        out = capsys.readouterr().out
        assert "jain=" in out
        assert "delivered=True" in out

    def test_rejects_bad_offered_list(self):
        from repro.tools.load import main
        with pytest.raises(SystemExit):
            main(["--offered", "0,-5"])
