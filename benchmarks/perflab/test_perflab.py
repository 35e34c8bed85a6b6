"""Tests of the benchmark itself: ``pytest benchmarks/perflab -q``.

Not tier-1 (``testpaths = ["tests"]``). Workloads are built directly at
a fraction of their benchmark size, so the whole file runs in seconds
and never spawns a worker.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from . import cli, metrics, workloads
from .compare import verdict
from .spans import SpanRecorder, layer_totals
from .worker import run_rep

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = json.loads(
    (HERE.parent.parent / "BENCHMARK.json").read_text())

#: The frozen loop. If this fails you edited calibrate.py: every number
#: recorded so far was divided by the old loop's rate. Revert the edit,
#: or start a new baseline and say so in CHANGES.md.
CALIBRATE_SHA256 = \
    "a312b22147483ea3af618826a361d015524d0d2176c2d715e2be458e6bd05e43"

SMALL = {
    "udp_idle_4x2":
        lambda seed: workloads.build_udp_idle_4x2(seed, requests=40),
    "echo_sat_mtu_7x4":
        lambda seed: workloads.build_echo_sat_mtu_7x4(seed, requests=60),
    "echo_sat_64b_7x4":
        lambda seed: workloads.build_echo_sat_64b_7x4(seed, requests=300),
    "echo_sat_mtu_32x32":
        lambda seed: workloads.build_echo_sat_mtu_32x32(
            seed, requests=30, size=8),
    "tcp_loss_reno":
        lambda seed: workloads.build_tcp_loss_reno(
            seed, n_flows=2, stream_bytes=24 * 1024),
    "openloop_64b_16g":
        lambda seed: workloads.build_openloop_64b_16g(
            seed, horizon_cycles=6_000),
}


def small_rep(name, seed=48878, traced=False):
    return run_rep(name, SMALL[name], seed, traced=traced)


def test_small_instances_cover_every_workload():
    assert set(SMALL) == set(workloads.WORKLOADS)


# -- BENCHMARK.json and the output agree -------------------------------------

def test_benchmark_json_repeats_the_metric_tables():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK_JSON["end_to_end"]] == \
        [tuple(row) for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK_JSON["per_layer"]] == \
        [tuple(row) for row in metrics.PER_LAYER]
    assert [(w["name"], w["why"]) for w in BENCHMARK_JSON["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK_JSON[section]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                                entry["name"])
    assert BENCHMARK_JSON["paths"] == ["benchmarks/perflab"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_metric_is_printed_with_its_unit(name):
    untraced, traced = small_rep(name), small_rep(name, traced=True)
    record = cli.summarise([untraced], traced)
    assert record["correct"], record["problems"]
    for trace, table in ((False, metrics.END_TO_END),
                         (True, metrics.PER_LAYER)):
        line = json.loads(cli.driver_line(record, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [row[0] for row in table]
        for row in table:
            assert line["metrics"][row[0]]["unit"] == row[1]
    shares = [value for key, value in record["per_layer"].items()
              if key.endswith("self_share")
              or key == "trace.unattributed_share"]
    assert sum(shares) == pytest.approx(1.0)
    assert record["per_layer"]["trace.unattributed_share"] < 0.10
    assert all(value > 0 for value in record["end_to_end"].values())


# -- simulated results are exact ---------------------------------------------

@pytest.mark.parametrize("name", sorted(SMALL))
def test_sim_metrics_repeat_for_a_seed(name):
    first, second = small_rep(name), small_rep(name)
    assert first["digest"] == second["digest"]
    for metric in metrics.SIMULATED:
        assert first["end_to_end"][metric] == second["end_to_end"][metric]
    assert first["failed"] == 0


@pytest.mark.parametrize("name", ["tcp_loss_reno", "openloop_64b_16g"])
def test_another_seed_is_another_run(name):
    assert small_rep(name, seed=48878)["digest"] != \
        small_rep(name, seed=7)["digest"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_chunked_driving_equals_one_shot(name):
    chunked = SMALL[name](48878)
    while not chunked.finished:
        chunked.advance()
    one_shot = SMALL[name](48878)
    sim = one_shot.design.sim
    if one_shot.until:
        sim.run_until(one_shot.done, max_cycles=one_shot.deadline)
    else:
        sim.run(chunked.design.sim.cycle)
    assert one_shot.digest() == chunked.digest()
    assert sim.cycle == chunked.design.sim.cycle
    assert chunked.finish().failed == 0


def test_tracing_changes_nothing_and_uninstalls():
    from repro.packet import builder
    parse_frame = builder.parse_frame
    traced = small_rep("openloop_64b_16g", traced=True)
    assert traced["digest"] == small_rep("openloop_64b_16g")["digest"]
    assert builder.parse_frame is parse_frame
    assert workloads.parse_frame is parse_frame
    layers = traced["spans"]["layers"]
    assert layers["packet"]["calls"] > 0
    assert layers["loadgen"]["self_ns"] > 0


def test_spans_without_the_kernels_component_list():
    """A kernel that hides its list still gets its cores and the
    workload's own components timed."""
    from types import SimpleNamespace

    class HiddenList:
        def __init__(self, sim):
            self.__dict__["sim"] = sim

        def __getattr__(self, name):
            if name == "_components":
                raise AttributeError(name)
            return getattr(self.sim, name)

    bench = SMALL["udp_idle_4x2"](1)
    real = bench.design
    design = SimpleNamespace(sim=HiddenList(real.sim), mesh=real.mesh,
                             tile_core=real.tile_core, tiles=real.tiles)
    recorder = SpanRecorder().install(design, bench.components)
    try:
        wrapped = [real.mesh.core.step, real.mesh.core.commit,
                   real.tile_core.step, *(c.step for c in bench.components)]
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped)
    finally:
        recorder.uninstall()
    assert not hasattr(real.mesh.core.step, "__wrapped__")


# -- span accounting ---------------------------------------------------------

def test_self_time_is_duration_minus_children():
    now = [0]
    recorder = SpanRecorder(clock=lambda: now[0])

    def spend(ns):
        now[0] += ns

    leaf = recorder.wrap("mesh.step", lambda: spend(30))
    other = recorder.wrap("tiles.step", lambda: spend(20))

    def tick_body():
        spend(5)
        leaf()
        spend(5)
        other()
        leaf()

    tick = recorder.wrap("kernel.tick", tick_body)
    tick()
    spend(1_000)    # outside any span: in wall, in no self time
    tick()
    rows = recorder.aggregate()
    assert rows["kernel.tick"] == \
        {"calls": 2, "total_ns": 180, "self_ns": 20}
    assert rows["mesh.step"] == \
        {"calls": 4, "total_ns": 120, "self_ns": 120}
    assert rows["tiles.step"] == \
        {"calls": 2, "total_ns": 40, "self_ns": 40}
    assert sum(row["self_ns"] for row in rows.values()) == 180 <= now[0]
    assert list(recorder.parent) == [-1, 0, 0, 0, -1, 4, 4, 4]
    assert layer_totals(rows)["kernel"]["self_ns"] == 20
    # Taking the recorder's own cost back out: 1 ns inside each span,
    # 1 ns in its parent per child.
    compensated = recorder.aggregate(cost=(1, 1))
    assert compensated["kernel.tick"]["self_ns"] == 2 * (90 - 83 - 1)
    assert compensated["mesh.step"]["self_ns"] == 4 * 29
    assert compensated["kernel.tick"]["total_ns"] == 180


def test_a_span_closes_when_its_callee_raises():
    recorder = SpanRecorder()

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        recorder.wrap("outer.call", recorder.wrap("inner.call", boom))()
    assert recorder.wrap("next.call", len)("ab") == 2
    assert list(recorder.parent) == [-1, 0, -1]
    assert all(end >= start
               for start, end in zip(recorder.start, recorder.end))


# -- compare -----------------------------------------------------------------

@pytest.mark.parametrize("a,b,better,word", [
    ([100, 101, 99], [100, 102, 98], "higher", "within"),
    ([100, 101, 99], [85, 86, 84], "higher", "worse"),
    ([100, 101, 99], [104, 105, 103], "higher", "within"),
    ([100, 101, 99], [115, 116, 114], "higher", "better"),
    ([100, 120, 90], [101, 119, 92], "higher", "unresolved"),
    ([100, 104, 88], [105, 106, 107], "higher", "better"),
    ([100, 101, 99], [115, 116, 114], "lower", "worse"),
    ([100, 101, 99], [86, 87, 85], "lower", "better"),
])
def test_compare_verdicts(a, b, better, word):
    assert verdict(a, b, better, bound=0.10)[1] == word


def test_symmetric_compare_rejects_a_gain_too():
    assert verdict([100], [115], "higher", 0.10, symmetric=True)[1] \
        == "worse"
    assert verdict([5], [5], "lower", 0.0, symmetric=True)[1] == "within"


# -- the frozen loop ---------------------------------------------------------

def test_calibration_loop_is_frozen():
    digest = hashlib.sha256(
        (HERE / "calibrate.py").read_bytes()).hexdigest()
    assert digest == CALIBRATE_SHA256
