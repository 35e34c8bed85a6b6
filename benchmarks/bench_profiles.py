"""What the ``fast`` profile buys over ``reference``: the one ratio bench.

A design is run one of two ways (``repro.sim.profiles``): ``reference``
— the naive kernel stepping one object per router, port and tile every
cycle — or ``fast`` — the scheduled kernel over the flat mesh and tile
cores.  The two are bit-identical (``tests/test_kernel_equivalence.py``
is the differential suite; every row here asserts the same frames at
the same emit cycles again); this benchmark measures what the fast path
is worth at the two ends of the load range and asserts a floor under
each ratio:

- *idle-heavy*: the 4x2 UDP echo design, MTU-sized requests paced at
  10% of the 50 B/cycle line rate.  Most cycles nobody has work:
  ``fast`` skips them outright and steps four components on the
  others, ``reference`` steps all 22 on every one.
- *saturating*: the section VII-I scaled echo design (22 application
  tiles on the paper's 7x4 U200 floorplan) under back-to-back MTU-sized
  requests.  Nothing is skipped; the gap is 84 stepped objects and a
  ``Flit`` per flit against two batch loops moving int handles.

Absolute host time per workload and per layer is ``benchmarks/perflab``'s
job; this file only guards the ratio, so a change that slows ``fast``
down to its own executable spec cannot pass unnoticed.
"""

import time

from repro.designs import UdpEchoDesign, attach_client, client_frame
from repro.designs.scaled_echo import ScaledEchoDesign
from repro.noc.message import reset_id_counters

LINE_RATE = 50.0                 # bytes/cycle, the modelled MAC rate
IDLE_RATE = LINE_RATE / 10.0     # "10% line rate" injection pacing
PAYLOAD = 1458                   # MTU-sized UDP payload
IDLE_CYCLES = 100_000
SAT_CYCLES = 20_000
SAT_APPS = 22
REPS = 2                         # best-of-N wall clock per profile

# Hard regression floors: 0.8x the lowest of six runs on the
# development host (idle-heavy 10.8-13.0x, 3.3-4.8 s against
# 0.28-0.44 s; saturating 3.91-4.85x, 3.0-3.6 s against 0.72-0.81 s;
# best-of-2 each).
MIN_IDLE_SPEEDUP = 8.6
MIN_SAT_SPEEDUP = 3.1


def _drive(design, frames: int, rate: float | None, cycles: int):
    """Cycle ``frames`` distinct requests through a built design:
    (wall seconds, frames [(bytes, cycle)], cycles skipped)."""
    requests = [client_frame(design, bytes(PAYLOAD), src_port=5000 + i)
                for i in range(frames)]
    _source, sink = attach_client(design, requests, rate=rate)
    started = time.perf_counter()
    design.sim.run(cycles)
    wall = time.perf_counter() - started
    return wall, list(sink.frames), design.sim.idle_cycles_skipped


def _run_idle(profile: str):
    reset_id_counters()
    design = UdpEchoDesign(udp_port=7,
                           line_rate_bytes_per_cycle=LINE_RATE,
                           profile=profile)
    return _drive(design, 1, IDLE_RATE, IDLE_CYCLES)


def _run_sat(profile: str):
    reset_id_counters()
    return _drive(ScaledEchoDesign(n_apps=SAT_APPS, profile=profile),
                  SAT_APPS, None, SAT_CYCLES)


def _measure(run) -> dict:
    """Both profiles on one workload, best-of-REPS wall clock.

    Reps interleave the profiles so slow host drift cancels instead of
    biasing whichever ran last.
    """
    reference_wall, reference_frames, _ = run("reference")
    fast_wall, fast_frames, skipped = run("fast")
    for _ in range(REPS - 1):
        reference_wall = min(reference_wall, run("reference")[0])
        fast_wall = min(fast_wall, run("fast")[0])
    # Bit-identical results: same frame bytes at the same emit cycles.
    assert reference_frames == fast_frames, \
        "fast diverged from reference (frames or emit cycles)"
    return {
        "frames": len(fast_frames),
        "reference_wall_s": round(reference_wall, 4),
        "fast_wall_s": round(fast_wall, 4),
        "speedup": round(reference_wall / fast_wall, 3),
        "idle_cycles_skipped": skipped,
    }


def run_profiles() -> dict:
    idle = _measure(_run_idle)
    idle.update(design="UdpEchoDesign 4x2", cycles=IDLE_CYCLES,
                rate_bytes_per_cycle=IDLE_RATE)
    sat = _measure(_run_sat)
    sat.update(design=f"ScaledEchoDesign 7x4 ({SAT_APPS} apps)",
               cycles=SAT_CYCLES, rate_bytes_per_cycle=None)
    return {
        "benchmark": "fast vs reference profile (UDP echo designs)",
        "payload_bytes": PAYLOAD,
        "idle_heavy": idle,
        "saturating": sat,
    }


def bench_profiles(benchmark, report):
    results = benchmark.pedantic(run_profiles, rounds=1, iterations=1)

    rows = []
    for tag in ("idle_heavy", "saturating"):
        r = results[tag]
        rows.append([tag, r["design"], r["frames"], r["reference_wall_s"],
                     r["fast_wall_s"], r["speedup"],
                     r["idle_cycles_skipped"]])
    report.table(
        ["load", "design", "frames", "reference s", "fast s", "speedup",
         "cycles skipped"],
        rows,
    )

    idle = results["idle_heavy"]
    assert idle["speedup"] >= MIN_IDLE_SPEEDUP, (
        f"idle-heavy speedup {idle['speedup']}x below regression floor "
        f"{MIN_IDLE_SPEEDUP}x — is the scheduler still skipping? "
        f"(skipped {idle['idle_cycles_skipped']} cycles)")
    assert idle["idle_cycles_skipped"] > 0
    sat = results["saturating"]
    assert sat["speedup"] >= MIN_SAT_SPEEDUP, (
        f"saturating speedup {sat['speedup']}x below regression floor "
        f"{MIN_SAT_SPEEDUP}x — have the flat engines stopped paying?")
    assert sat["idle_cycles_skipped"] == 0
