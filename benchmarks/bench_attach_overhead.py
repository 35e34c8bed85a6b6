"""What attaching an observer costs: nothing simulated, little wall clock.

Tracer, telemetry probe, fault plan and sanitizer all hook the hottest
paths in the simulator — the kernel tick, every ``LocalPort`` ejection,
every tile step, the frame inject boundary — so each is built to vanish
when unused: instrumentation sites are guarded by ``if tracer.enabled:``
against the shared no-op ``NULL_TRACER``, ``attach_probe(design,
interval=None)`` and ``attach_faults(design, None)`` attach nothing, the
fault hooks are class-attribute defaults that cost one attribute load,
and the sanitizer enters through its own ``sanitized_tick``.  A *live*
tracer or probe only reads, and a fault plan with no faults in it wraps
nothing, so the simulated run must not move either.

One harness — the saturated echo of ``bench_fig7_udp_goodput`` on the
4x2 UDP design, 20k cycles — and one row per attachment:

- the two bare rows (no call at all: the null tracer and the null fault
  plan are the defaults) sit on the goodput pinned at the seed commit,
  113.230769 Gbps at 1472 B and 9.846154 Gbps at 64 B; the simulation
  is cycle-deterministic, so any drift means a dormant hook changed
  cycle behaviour;
- null probe, live probe (a sample every ``DEFAULT_INTERVAL`` cycles),
  empty fault plan (1472 B) and live tracer (64 B, the most events per
  cycle) reproduce their bare row's goodput *and* frame count exactly,
  and report their wall clock against it;
- an active wire plan and a full ``analyze_dynamic`` sweep are timed
  alongside for scale — the cost you opt into.
"""

import time

import pytest

from repro.analysis import analyze_dynamic
from repro.designs import UdpEchoDesign, saturation_goodput
from repro.faults import FaultPlan, attach_faults
from repro.telemetry.probe import DEFAULT_INTERVAL, attach_probe
from repro.telemetry.trace import Tracer, attach_tracer

CYCLES = 20_000
SANITIZE_CYCLES = 2_000

MTU = bytes(range(256)) * 5 + bytes(192)     # 1472 B of UDP payload
SMALL = bytes(64)
# Saturation goodput and warm-up frames per payload, as measured at the
# seed commit (``bench_fig7_udp_goodput`` at 1472 B and 64 B).
PINNED = {MTU: (113.230769, 20), SMALL: (9.846154, 30)}

# (row, payload, attach(design), events recorded by what it returned).
ATTACHMENTS = (
    ("null probe", MTU,
     lambda design: attach_probe(design, interval=None), None),
    ("live probe", MTU,
     lambda design: attach_probe(design, interval=DEFAULT_INTERVAL),
     lambda probe: probe.samples_taken),
    ("empty fault plan", MTU,
     lambda design: attach_faults(design, FaultPlan(seed=1)), None),
    ("live tracer", SMALL,
     lambda design: attach_tracer(design, Tracer()),
     lambda tracer: (len(tracer.spans) + len(tracer.link_flits)
                     + len(tracer.drops))),
)
ACTIVE_PLAN = FaultPlan(seed=1).wire(drop=0.01, corrupt=0.01, delay=0.05)


def saturated(payload: bytes, attach=None):
    """One run: (goodput Gbps, frames, wall s, what ``attach`` gave)."""
    design = UdpEchoDesign(line_rate_bytes_per_cycle=None)
    attached = attach(design) if attach is not None else None
    started = time.perf_counter()
    measured = saturation_goodput(design, payload, CYCLES,
                                  warmup_frames=PINNED[payload][1])
    wall = time.perf_counter() - started
    return measured.gbps, measured.sink.count, wall, attached


def run_attach_overhead() -> dict:
    bare = {payload: saturated(payload) for payload in PINNED}
    rows = []
    for label, payload, attach, count in ATTACHMENTS:
        gbps, frames, wall, attached = saturated(payload, attach)
        rows.append((label, payload, gbps, frames, wall,
                     count(attached) if count else "-"))
    active = saturated(
        MTU, lambda design: attach_faults(design, ACTIVE_PLAN))
    started = time.perf_counter()
    sanitized = analyze_dynamic(UdpEchoDesign, name="udp_echo",
                                cycles=SANITIZE_CYCLES)
    return {"bare": bare, "rows": rows, "active": active,
            "sanitized": sanitized,
            "sanitize_wall_s": time.perf_counter() - started}


def bench_attach_overhead(benchmark, report):
    results = benchmark.pedantic(run_attach_overhead, rounds=1,
                                 iterations=1)
    bare = results["bare"]
    table = [[f"bare, {len(payload)} B", gbps, frames, wall, "-", "-"]
             for payload, (gbps, frames, wall, _) in bare.items()]
    for label, payload, gbps, frames, wall, events in results["rows"]:
        table.append([f"{label}, {len(payload)} B", gbps, frames, wall,
                      f"x{wall / bare[payload][2]:.2f}", events])
    act_gbps, act_frames, act_wall, engine = results["active"]
    faults = sum(engine.counters.values())
    table.append([f"active wire plan, {len(MTU)} B", act_gbps,
                  act_frames, act_wall,
                  f"x{act_wall / bare[MTU][2]:.2f}", faults])
    report.table(["attachment", "goodput Gbps", "frames", "wall s",
                  "vs bare", "events"], table)
    report.row()
    report.row(f"opt-in sanitizer sweep (4 passes, {SANITIZE_CYCLES} "
               f"cycles x 3 runs): {results['sanitize_wall_s']:.2f} s, "
               f"{len(results['sanitized'].findings)} findings")

    for payload, (gbps, _frames, _wall, _) in bare.items():
        assert gbps == pytest.approx(PINNED[payload][0], abs=1e-6)
    # Observe, never perturb: identical simulated rate and frame count.
    for label, payload, gbps, frames, _wall, _events in results["rows"]:
        assert (gbps, frames) == bare[payload][:2], label
    events = {row[0]: row[5] for row in results["rows"]}
    assert events["live tracer"] > 0
    # Ticks cover cycles 0..CYCLES-1, so the sample due exactly at
    # CYCLES never fires.
    assert events["live probe"] == (CYCLES - 1) // DEFAULT_INTERVAL
    # The active plan must actually have injected something.
    assert faults > 0
    assert results["sanitized"].findings == [], \
        results["sanitized"].render()
