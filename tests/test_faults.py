"""Tests for ``repro.faults``: deterministic fault injection.

Covers the plan builder's validation, the null-plan fast path, every
wire impairment, tile freeze/crash with kernel-wake-safe resume, NoC
link stalls and flit corruption, fault telemetry (tracer events and
the design report), the wall-clock run budget, and the two end-to-end
recovery claims: TCP delivers a full byte stream through 1% wire loss,
and a VR cluster completes a view change around a frozen leader.
"""

import pytest

from repro.designs import FrameSink, UdpEchoDesign
from repro.designs.tcp_stack import TcpServerDesign
from repro.faults import FaultPlan, apply_vr_faults, attach_faults
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro.sim.kernel import WallClockBudgetExceeded
from repro.tcp.peer import SoftTcpPeer
from repro.telemetry import design_report, run_record
from repro.telemetry.trace import Tracer, attach_tracer, chrome_trace_events

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def echo_design(plan, **kwargs):
    design = UdpEchoDesign(udp_port=7, fault_plan=plan, **kwargs)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    return design, sink


def inject_echoes(design, count=20, gap=40, start=1):
    for i in range(count):
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP, design.server_ip,
            5555, 7, b"payload-%02d" % i)
        design.inject(frame, start + i * gap)


class TestFaultPlanValidation:
    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan().wire(drop=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultPlan().wire(corrupt=-0.1)

    def test_bad_delay_range(self):
        with pytest.raises(ValueError, match="delay_range"):
            FaultPlan().wire(delay=0.5, delay_range=(10, 5))
        with pytest.raises(ValueError, match="delay_range"):
            FaultPlan().wire(delay=0.5, delay_range=(0, 5))

    def test_bad_window(self):
        with pytest.raises(ValueError, match="duration"):
            FaultPlan().freeze_tile("app", at=10, duration=0)
        with pytest.raises(ValueError, match="start cycle"):
            FaultPlan().stall_link((0, 0), at=-1, duration=5)

    def test_overlapping_tile_windows_rejected(self):
        # The first window to close would thaw the tile under the
        # second; freeze and crash set one flag, so they share a target.
        with pytest.raises(ValueError, match=(
                r"freeze tile 'app' cycles \(300, 700\] meets "
                r"freeze tile 'app' cycles \(100, 500\]")):
            (FaultPlan().freeze_tile("app", at=100, duration=400)
             .freeze_tile("app", at=300, duration=400))
        with pytest.raises(ValueError,
                           match="crash tile 'app'.* meets freeze tile"):
            (FaultPlan().freeze_tile("app", at=100, duration=400)
             .crash_tile("app", at=450, duration=10))

    def test_touching_tile_windows_rejected_in_either_order(self):
        for first, second in ((100, 300), (300, 100)):
            with pytest.raises(ValueError, match="meets"):
                (FaultPlan().freeze_tile("app", at=first, duration=200)
                 .freeze_tile("app", at=second, duration=200))

    def test_overlapping_stall_windows_rejected(self):
        with pytest.raises(ValueError, match=(
                r"stall link \(3, 0\) cycles \(300, 700\] meets "
                r"stall link \(3, 0\) cycles \(100, 500\]")):
            (FaultPlan().stall_link((3, 0), at=100, duration=400)
             .stall_link([3, 0], at=300, duration=400))

    def test_windows_apart_or_on_other_targets_accepted(self):
        plan = (FaultPlan().freeze_tile("app", at=100, duration=200)
                .crash_tile("app", at=301, duration=200)
                .freeze_tile("eth_rx", at=100, duration=400)
                .stall_link((3, 0), at=100, duration=400)
                .stall_link((2, 0), at=100, duration=400))
        assert [kind for kind, *_ in plan.windows] == [
            "freeze", "crash", "freeze", "stall", "stall"]

    def test_second_wire_rejected(self):
        with pytest.raises(ValueError, match=r"one wire\(\) call"):
            FaultPlan().wire(drop=0.5).wire(corrupt=0.1)

    @pytest.mark.parametrize("second", [
        ((0.2,), {"coords": [(2, 0)]}),
        ((0.0,), {"coords": [[2, 0], (3, 0)]}),
        ((0.1,), {}),
    ])
    def test_corrupt_flits_on_a_port_twice_rejected(self, second):
        args, kwargs = second
        plan = FaultPlan().corrupt_flits(0.5, coords=[(2, 0)])
        with pytest.raises(ValueError, match=(
                r"corrupt_flits\(.*\) meets corrupt_flits\(0\.5, "
                r"coords=\[\(2, 0\)\]\)")):
            plan.corrupt_flits(*args, **kwargs)

    def test_every_port_meets_any_port(self):
        with pytest.raises(ValueError, match=(
                r"corrupt_flits\(0\.2, coords=\[\(3, 0\)\]\) meets "
                r"corrupt_flits\(0\.1, coords=None\)")):
            FaultPlan().corrupt_flits(0.1).corrupt_flits(0.2, coords=[(3, 0)])

    def test_corrupt_flits_on_other_ports_accepted(self):
        plan = (FaultPlan().corrupt_flits(0.5, coords=[(2, 0)])
                .corrupt_flits(0.2, coords=[(3, 0)]))
        assert plan.eject_corrupt == [([(2, 0)], 0.5), ([(3, 0)], 0.2)]

    def test_bad_vr_role(self):
        with pytest.raises(ValueError, match="role"):
            FaultPlan().vr_freeze("observer", 0, 0.1, 0.1)

    def test_is_null(self):
        assert FaultPlan().is_null
        # All-zero probabilities inject nothing: still null.
        assert FaultPlan().wire().is_null
        assert not FaultPlan().wire(drop=0.1).is_null
        assert not FaultPlan().freeze_tile("app", 5, 5).is_null


class TestNullFastPath:
    def test_no_plan_installs_nothing(self):
        design, _sink = echo_design(None)
        assert design.fault_engine is None
        assert getattr(design, "fault_wire", None) is None
        # inject is still the class method, not a wire-bound shadow.
        assert "inject" not in vars(design)

    def test_null_plan_installs_nothing(self):
        design, _sink = echo_design(FaultPlan(seed=3))
        assert design.fault_engine is None
        assert "inject" not in vars(design)

    def test_double_attach_rejected(self):
        design, _sink = echo_design(FaultPlan().wire(drop=0.5))
        with pytest.raises(ValueError, match="already"):
            attach_faults(design, FaultPlan().wire(drop=0.5))

    def test_unknown_tile_rejected(self):
        with pytest.raises(KeyError, match="no_such_tile"):
            echo_design(FaultPlan().freeze_tile("no_such_tile", 1, 1))


class TestWireFaults:
    def test_drop_all(self):
        design, sink = echo_design(FaultPlan(seed=1).wire(drop=1.0))
        inject_echoes(design)
        design.sim.run(5000)
        assert sink.count == 0
        assert design.fault_engine.counters["wire.drop"] == 20
        assert design.fault_wire.frames_offered == 20
        assert design.fault_wire.frames_delivered == 0

    def test_duplicate_all(self):
        design, sink = echo_design(FaultPlan(seed=1).wire(duplicate=1.0))
        inject_echoes(design)
        design.sim.run(8000)
        assert sink.count == 40
        assert design.fault_engine.counters["wire.duplicate"] == 20

    def test_delay_loses_nothing(self):
        design, sink = echo_design(
            FaultPlan(seed=1).wire(delay=1.0, delay_range=(100, 200)))
        inject_echoes(design)
        design.sim.run(8000)
        assert sink.count == 20

    def test_corrupt_is_caught_by_checksums(self):
        """Corrupted frames are dropped by the stack's checksum and
        address checks — never echoed corrupted, never emitted as
        garbage."""
        design, sink = echo_design(FaultPlan(seed=1).wire(corrupt=1.0))
        inject_echoes(design)
        design.sim.run(8000)
        assert design.fault_engine.counters["wire.corrupt"] == 20
        assert sink.count < 20
        assert sink.malformed == 0
        sent = {b"payload-%02d" % i for i in range(20)}
        for frame, _cycle in sink.frames:
            assert parse_frame(frame).payload in sent

    def test_same_seed_is_bit_identical(self):
        def run(seed):
            design, sink = echo_design(
                FaultPlan(seed=seed).wire(drop=0.3, corrupt=0.2,
                                          duplicate=0.2, reorder=0.3,
                                          delay=0.5))
            inject_echoes(design, count=40)
            design.sim.run(10_000)
            return (list(sink.frames), dict(design.fault_engine.counters),
                    list(design.fault_engine.log))

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestTileFaults:
    def test_freeze_delays_but_loses_nothing(self):
        plan = FaultPlan(seed=1).freeze_tile("app", at=10, duration=2000)
        design, sink = echo_design(plan)
        baseline, base_sink = echo_design(None)
        inject_echoes(design, count=5, gap=40)
        inject_echoes(baseline, count=5, gap=40)
        design.sim.run(8000)
        baseline.sim.run(8000)
        assert sink.count == 5  # everything queued through the freeze
        assert sink.last_cycle > base_sink.last_cycle
        counters = design.fault_engine.counters
        assert counters["tile.freeze"] == 1
        assert counters["tile.thaw"] == 1

    def test_frozen_tile_resumes_under_scheduled_kernel(self):
        """Kernel-wake-safe resume: with idle-skip active, the thaw
        must wake the tile even though nothing else is scheduled."""
        plan = FaultPlan(seed=1).freeze_tile("app", at=10, duration=3000)
        design, sink = echo_design(plan)
        inject_echoes(design, count=3, gap=10)
        design.sim.run(8000)
        assert sink.count == 3

    def test_crash_loses_buffered_messages(self):
        # Saturating burst into a crash window: whatever the ingress
        # tile holds at the crash point is gone, the rest echoes
        # (frames arriving during the outage queue up and survive).
        plan = FaultPlan(seed=1).crash_tile("eth_rx", at=10, duration=500)
        design, sink = echo_design(plan)
        inject_echoes(design, count=20, gap=2)
        design.sim.run(8000)
        eth_rx = design.tiles["eth_rx"]
        lost = eth_rx.drop_reasons.get("fault: crash", 0)
        assert lost > 0
        assert sink.count == 20 - lost
        assert design.fault_engine.counters["tile.crash_lost_msgs"] == lost

    def test_stall_link_delays_ejection(self):
        plan = FaultPlan(seed=1).stall_link((3, 0), at=50, duration=1500)
        design, sink = echo_design(plan)
        baseline, base_sink = echo_design(None)
        inject_echoes(design, count=5, gap=10)
        inject_echoes(baseline, count=5, gap=10)
        design.sim.run(8000)
        baseline.sim.run(8000)
        assert sink.count == 5
        assert sink.last_cycle > base_sink.last_cycle
        assert design.fault_engine.counters["noc.stall"] == 1
        assert design.fault_engine.counters["noc.unstall"] == 1

    def test_flit_corruption_is_caught_by_checksums(self):
        # Corrupt every DATA flit ejected into the UDP RX tile: the
        # UDP checksum rejects the payloads, nothing garbled egresses.
        plan = FaultPlan(seed=1).corrupt_flits(1.0, coords=[(2, 0)])
        design, sink = echo_design(plan)
        inject_echoes(design, count=10)
        design.sim.run(8000)
        assert design.fault_engine.counters["noc.flit_corrupt"] > 0
        assert sink.count == 0
        assert sink.malformed == 0


class TestFaultTelemetry:
    def _faulty_run(self):
        plan = (FaultPlan(seed=5).wire(drop=0.5)
                .freeze_tile("app", at=100, duration=200))
        design = UdpEchoDesign(udp_port=7, fault_plan=plan)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        tracer = attach_tracer(design, Tracer())
        inject_echoes(design, count=10)
        design.sim.run(3000)
        return design, tracer

    def test_tracer_records_fault_events(self):
        design, tracer = self._faulty_run()
        kinds = {event.kind for event in tracer.faults}
        assert "wire.drop" in kinds
        assert "tile.freeze" in kinds and "tile.thaw" in kinds
        # Perfetto export: fault instants live on their own track.
        events = chrome_trace_events(tracer)
        instants = [e for e in events if e.get("ph") == "i"]
        assert any("wire.drop" in e["name"] for e in instants)

    def test_counters_and_report_surface_faults(self):
        design, _tracer = self._faulty_run()
        record = run_record(design)
        assert record["faults"] == dict(design.fault_engine.counters)
        report = design_report(design)
        assert "fault injections:" in report
        assert "wire.drop" in report

    def test_no_fault_section_without_plan(self):
        design, _sink = echo_design(None)
        design.sim.run(100)
        assert "faults" not in run_record(design)
        assert "fault injections:" not in design_report(design)


class TestWallClockBudget:
    def test_budget_raises(self):
        design, _sink = echo_design(None, profile="reference")
        with pytest.raises(WallClockBudgetExceeded):
            design.sim.run_until(lambda: False, max_cycles=10**9,
                                 wall_clock_budget_s=0.05)

    def test_budget_is_a_timeout(self):
        # Callers already catching TimeoutError keep working.
        assert issubclass(WallClockBudgetExceeded, TimeoutError)

    def test_generous_budget_does_not_fire(self):
        design, sink = echo_design(None)
        inject_echoes(design, count=3)
        design.sim.run_until(lambda: sink.count == 3, max_cycles=10_000,
                             wall_clock_budget_s=60.0)
        assert sink.count == 3


class TestTcpUnderLoss:
    def test_full_stream_through_one_percent_loss(self):
        """The acceptance scenario: a pinned seed at 1% wire frame
        loss drops real data segments, and the engines retransmit the
        stream to byte-exact completion."""
        import random

        plan = FaultPlan(seed=3).wire(drop=0.01)
        design = TcpServerDesign(tcp_port=5000, request_size=1024,
                                 fault_plan=plan)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                           design.server_ip, 5000, wire_cycles=50)
        design.sim.add(peer)
        payload = bytes(random.Random(3).randrange(256)
                        for _ in range(131072))
        peer.connect()
        design.sim.run_until(lambda: peer.established,
                             max_cycles=500_000)
        peer.send(payload)
        design.sim.run_until(lambda: len(peer.received) >= len(payload),
                             max_cycles=20_000_000)
        assert bytes(peer.received) == payload
        assert design.fault_engine.counters["wire.drop"] >= 1
        # The loss hit a data segment, not just a coverable ACK.
        assert peer.retransmits >= 1


class TestVrRecovery:
    def _experiment(self, seed=0xBEE5):
        from repro.apps.vr.cluster import VrExperiment

        plan = FaultPlan(seed=seed).vr_freeze("leader", shard=0,
                                              at_s=0.05, duration_s=1.0)
        experiment = VrExperiment(
            shards=2, witness_kind="fpga", n_clients=4, seed=seed,
            view_change_timeout_s=0.01, client_retry_s=0.01)
        apply_vr_faults(experiment, plan)
        result = experiment.run(duration_s=0.3, warmup_s=0.02)
        return experiment, result

    def test_view_change_completes_around_frozen_leader(self):
        experiment, result = self._experiment()
        assert experiment.fault_log == [(0.05, "leader", 0, 1.0)]
        assert experiment.view_changes == 1
        time_s, shard, view = experiment.view_change_log[0]
        assert shard == 0 and view == 1 and time_s > 0.05
        # The promoted leader serves the rest of the run.
        assert experiment.leaders[0].view == 1
        assert experiment.leaders[0].completed > 0
        assert result.throughput_kops > 0
        # Clients survived the outage by retrying.
        assert sum(c.retries for c in experiment.clients) > 0

    def test_recovery_is_deterministic(self):
        _exp_a, result_a = self._experiment()
        exp_a, _ = _exp_a, None
        exp_b, result_b = self._experiment()
        assert exp_a.view_change_log == exp_b.view_change_log
        assert result_a.throughput_kops == result_b.throughput_kops
        assert result_a.latencies_us == result_b.latencies_us

    def test_unfrozen_cluster_has_no_view_change(self):
        from repro.apps.vr.cluster import VrExperiment

        experiment = VrExperiment(
            shards=2, witness_kind="fpga", n_clients=4, seed=0xBEE5,
            view_change_timeout_s=0.01, client_retry_s=0.01)
        experiment.run(duration_s=0.2, warmup_s=0.02)
        assert experiment.view_changes == 0
