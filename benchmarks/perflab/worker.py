"""One rep: build a workload, drive it in chunks, time it, check it.

The noise method lives here. A rep drives ``design.sim`` in fixed-size
cycle chunks of about 20 ms and runs one 8 ms slice of the frozen
calibration loop between chunks. A chunk's seconds are scaled by the
mean rate of the two slices around it, so a host that slowed down for
that chunk (a busy sibling hyperthread, a frequency step) is cancelled
to the extent it slows the calibration loop alike. A rep's rates are
total work over total scaled seconds, leaving out the first chunk
(cold caches) and the last (drain and idle tail).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from time import perf_counter

from repro.params import CYCLE_TIME_S

from .calibrate import REF_RATE, run_slice
from .spans import SpanRecorder, layer_totals, span_cost

#: In a traced rep, spans up to this simulated cycle go to the
#: Chrome-trace dump.
TRACE_CYCLES = 2_000
#: ``sim_latency_p99_cycles`` needs ten samples beyond it.
P99_MIN_SAMPLES = 1_000
#: A rep whose calibration slices spread wider than this is noisy.
NOISY_CALIB_IQR = 0.15


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def iqr_share(values: list[float]) -> float:
    """(Q3 - Q1) / median, the spread statistic used throughout."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _drive(bench, recorder):
    """Chunk loop: per-chunk ``(cycles, frames, flit hops, seconds)``,
    slice rates, trace span count."""
    sim = bench.design.sim
    mesh = bench.design.mesh
    egress = bench.egress
    chunks: list[tuple[int, int, int, float]] = []
    trace_spans = None
    rates = [run_slice()]
    gc.disable()
    try:
        while not bench.finished:
            cycle, frames, hops = \
                sim.cycle, len(egress), mesh.total_flits_forwarded
            started = perf_counter()
            bench.advance(stop_at=TRACE_CYCLES
                          if recorder is not None and trace_spans is None
                          else None)
            seconds = perf_counter() - started
            chunks.append((sim.cycle - cycle, len(egress) - frames,
                           mesh.total_flits_forwarded - hops, seconds))
            if recorder is not None and trace_spans is None \
                    and sim.cycle >= TRACE_CYCLES:
                trace_spans = len(recorder)
            rates.append(run_slice())
    finally:
        gc.enable()
    return chunks, rates, trace_spans


def _host_counters(design) -> dict[str, float]:
    """Counts read off the finished design, by their per-layer names."""
    tiles = design.tiles
    tiles = list(tiles.values() if isinstance(tiles, dict) else tiles)
    stats = design.sim.stats()
    return {
        "sim.kernel.idle_cycles_skipped": stats["idle_cycles_skipped"],
        "sim.kernel.component_steps": stats["component_steps"],
        "noc.flatmesh.flit_hops": design.mesh.total_flits_forwarded,
        "noc.flatmesh.input_high_water": max(
            (getattr(fifo, "high_water", 0)
             for router in design.mesh.routers.values()
             for fifo in getattr(router, "inputs", {}).values()),
            default=0),
        "tiles.messages_in": sum(getattr(t, "messages_in", 0)
                                 for t in tiles),
        "tiles.drops": sum(getattr(t, "drops", 0) for t in tiles),
        "tiles.eject_high_water": max(
            (t.port.eject_fifo.high_water for t in tiles), default=0),
    }


def run_rep(name: str, build, seed: int, traced: bool = False,
            t0: float | None = None, trace_path=None) -> dict:
    """Run one rep of ``build(seed)``; returns its record.

    ``t0`` is the ``perf_counter`` reading from which set-up is timed:
    the parent's, taken just before it spawned this process, so that
    interpreter start and imports count.
    """
    if t0 is None:
        t0 = perf_counter()
    bench = build(seed)
    recorder = None
    if traced:
        recorder = SpanRecorder().install(bench.design, bench.components)
    try:
        setup_raw = perf_counter() - t0
        setup_rate = statistics.median(run_slice() for _ in range(3))
        drive_started = perf_counter()
        chunks, rates, trace_spans = _drive(bench, recorder)
        measure_s = perf_counter() - drive_started
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mib = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = bench.finish()

    # Rates are total work over total time across the timed chunks,
    # each chunk's seconds first scaled by the slices on either side.
    # (A median of per-chunk rates spread wider between runs here, and
    # differs from the mean wherever the work per cycle ramps.)
    timed = range(1, len(chunks) - 1) if len(chunks) > 2 \
        else range(len(chunks))
    cycles = frames = hops = 0
    raw_s = host_s = 0.0
    for index in timed:
        chunk_cycles, chunk_frames, chunk_hops, seconds = chunks[index]
        cycles += chunk_cycles
        frames += chunk_frames
        hops += chunk_hops
        raw_s += seconds
        host_s += seconds * (rates[index] + rates[index + 1]) / 2.0 \
            / REF_RATE

    latencies = sorted(outcome.latencies)
    counters = _host_counters(bench.design)
    counters.update(outcome.counters)
    frames_out = len(bench.egress)
    rep = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "digest": bench.digest(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "frames_out": frames_out,
        "latency_samples": len(latencies),
        "end_to_end": {
            "setup_s": setup_raw * setup_rate / REF_RATE,
            "cycles_per_s": cycles / host_s,
            "frames_per_s": frames / host_s,
            "flit_hops_per_s": hops / host_s,
            "peak_rss_mib": peak_rss_mib,
            "sim_cycles": outcome.sim_cycles,
            "sim_goodput_gbps": outcome.payload_bytes * 8
                / (outcome.sim_cycles * CYCLE_TIME_S) / 1e9,
            "sim_latency_p50_cycles":
                percentile(latencies, 50) if latencies else 0,
        },
        "sim_latency_p99_cycles":
            percentile(latencies, 99)
            if len(latencies) >= P99_MIN_SAMPLES else None,
        "host": {
            "setup_s_raw": setup_raw,
            "cycles_per_s_raw": cycles / raw_s,
            "wall_s_raw": sum(chunk[3] for chunk in chunks),
            "measure_s": measure_s,
            "chunks": len(chunks),
        },
        "calib": {
            "rate": statistics.median(rates),
            "iqr_share": iqr_share(rates),
        },
        "counters": counters,
    }
    rep["noisy"] = rep["calib"]["iqr_share"] > NOISY_CALIB_IQR
    if recorder is not None:
        cost = span_cost()
        rows = recorder.aggregate(cost)
        rep["spans"] = {"count": len(recorder), "cost_ns": cost,
                        "names": rows,
                        "layers": layer_totals(rows)}
        if trace_path is not None and trace_spans:
            recorder.write_chrome_trace(trace_path, trace_spans)
    return rep
