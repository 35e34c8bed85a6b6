"""Activity-scheduled kernel speed: idle-heavy vs saturating load.

The scheduled kernel only spends Python cycles where simulated activity
exists: a component is stepped on the cycles it asked for or was woken
for, and fully quiescent stretches are skipped wholesale (see
``repro.sim.kernel``).  This benchmark runs the UDP echo design under
both kernels at two operating points and writes ``BENCH_kernel.json``:

- *idle-heavy*: MTU-sized requests paced at 10% of the 50 B/cycle line
  rate, so the mesh is quiescent for most of every inter-frame gap.
  This is where activity scheduling pays: ~3.3x wall-clock speedup
  measured locally, with ~40% of cycles skipped outright.
- *saturating*: the same requests injected back-to-back.  Nearly
  everything is due every cycle, so the scheduled kernel steps what
  the naive one steps and the two run at parity.

Both runs assert bit-identical results (frame bytes and emit cycles)
across kernels — speed must never change simulated behaviour.  The
broader differential suite lives in ``tests/test_kernel_equivalence.py``.
"""

import json
import time
from pathlib import Path

from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.noc.message import reset_id_counters
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")

LINE_RATE = 50.0          # bytes/cycle, the design's modelled MAC rate
IDLE_RATE = LINE_RATE / 10.0   # "10% line rate" injection pacing
PAYLOAD = 1458            # MTU-sized UDP payload
IDLE_CYCLES = 100_000
SAT_CYCLES = 30_000
REPS = 2                  # best-of-N wall clock per configuration

# Hard regression floor for the idle-heavy speedup.  Locally measured
# ~3.3x (best-of-3); the assert leaves headroom for noisy CI runners
# while still catching a scheduler that has stopped skipping.
MIN_IDLE_SPEEDUP = 2.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _run(kernel: str, rate: float | None, cycles: int):
    """One run: (wall seconds, frames [(bytes, cycle)], cycles skipped)."""
    reset_id_counters()
    # Pinned to the object mesh backend: this benchmark isolates the
    # *kernel* axis (naive vs activity-scheduled), which is starkest
    # when every router/port is its own schedulable component.  The
    # flat backend skips idle routers internally either way and has
    # its own benchmark (bench_mesh_backend.py).
    design = UdpEchoDesign(udp_port=7,
                           line_rate_bytes_per_cycle=LINE_RATE,
                           kernel=kernel,
                           mesh_backend="object")
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                 CLIENT_IP, design.server_ip, 5555, 7,
                                 bytes(PAYLOAD))
    source = FrameSource(design.inject, lambda i: frame, rate=rate)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    started = time.perf_counter()
    design.sim.run(cycles)
    wall = time.perf_counter() - started
    return wall, list(sink.frames), design.sim.idle_cycles_skipped


def _measure(rate: float | None, cycles: int) -> dict:
    """Both kernels at one operating point, best-of-REPS wall clock."""
    naive_wall, naive_frames, _ = _run("naive", rate, cycles)
    sched_wall, sched_frames, skipped = _run("scheduled", rate, cycles)
    for _ in range(REPS - 1):
        naive_wall = min(naive_wall, _run("naive", rate, cycles)[0])
        sched_wall = min(sched_wall, _run("scheduled", rate, cycles)[0])
    # Bit-identical results: same frame bytes at the same emit cycles.
    assert naive_frames == sched_frames, \
        "scheduled kernel diverged from naive (frames or emit cycles)"
    return {
        "cycles": cycles,
        "rate_bytes_per_cycle": rate,
        "payload_bytes": PAYLOAD,
        "frames": len(sched_frames),
        "naive_wall_s": round(naive_wall, 4),
        "scheduled_wall_s": round(sched_wall, 4),
        "speedup": round(naive_wall / sched_wall, 3),
        "idle_cycles_skipped": skipped,
    }


def run_kernel_speed() -> dict:
    return {
        "benchmark": "activity-scheduled kernel vs naive (UDP echo)",
        "idle_heavy": _measure(IDLE_RATE, IDLE_CYCLES),
        "saturating": _measure(None, SAT_CYCLES),
    }


def bench_kernel_speed(benchmark, report):
    results = benchmark.pedantic(run_kernel_speed, rounds=1, iterations=1)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    rows = []
    for tag in ("idle_heavy", "saturating"):
        r = results[tag]
        rows.append([tag, r["frames"], r["naive_wall_s"],
                     r["scheduled_wall_s"], r["speedup"],
                     r["idle_cycles_skipped"]])
    report.table(
        ["load", "frames", "naive s", "scheduled s", "speedup",
         "cycles skipped"],
        rows,
    )
    report.row()
    report.row(f"results written to {RESULTS_PATH.name}")

    idle = results["idle_heavy"]
    assert idle["speedup"] >= MIN_IDLE_SPEEDUP, (
        f"idle-heavy speedup {idle['speedup']}x below regression floor "
        f"{MIN_IDLE_SPEEDUP}x — is the scheduler still skipping? "
        f"(skipped {idle['idle_cycles_skipped']} cycles)")
    assert idle["idle_cycles_skipped"] > 0
    assert results["saturating"]["idle_cycles_skipped"] == 0
