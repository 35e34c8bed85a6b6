"""Metric names, units, directions and bounds, and how reps become them.

``BENCHMARK.json`` repeats the two tables below; ``test_perflab.py``
fails if they drift apart.

End-to-end values come from untraced reps only: host-time metrics are
the median over reps, simulated ones are identical in every rep of a
seed (the caller checks that) and are read from the first. Per-layer
values come from one traced rep plus one untraced rep beside it.
"""

from __future__ import annotations

import statistics

#: (name, unit, better, bound). ``sim_*`` are simulated time at 250 MHz
#: and repeat exactly for a seed; their bound covers the spread between
#: seeds, which the driver's acceptance runs vary.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cycles_per_s", "cycles/s", "higher", 0.25),
    ("frames_per_s", "frames/s", "higher", 0.25),
    ("flit_hops_per_s", "hops/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
    ("sim_cycles", "cycles", "lower", 0.25),
    ("sim_goodput_gbps", "Gbps", "higher", 0.25),
    ("sim_latency_p50_cycles", "cycles", "lower", 0.25),
)

#: (name, unit, better). No bounds: these explain, they do not gate.
PER_LAYER = (
    ("sim.kernel.self_share", "ratio", "lower"),
    ("sim.kernel.self_ns_per_tick", "ns", "lower"),
    ("sim.kernel.ticks", "count", "lower"),
    ("sim.kernel.idle_cycles_skipped", "count", "higher"),
    ("sim.kernel.skip_share", "ratio", "higher"),
    ("sim.kernel.component_steps", "count", "lower"),
    ("noc.flatmesh.step.self_share", "ratio", "lower"),
    ("noc.flatmesh.step.ns_per_call", "ns", "lower"),
    ("noc.flatmesh.step.ns_per_flit_hop", "ns", "lower"),
    ("noc.flatmesh.commit.self_share", "ratio", "lower"),
    ("noc.flatmesh.commit.ns_per_call", "ns", "lower"),
    ("noc.flatmesh.flit_hops", "count", "lower"),
    ("noc.flatmesh.flit_hops_per_frame", "count", "lower"),
    ("noc.flatmesh.input_high_water", "count", "lower"),
    ("tiles.flatcore.self_share", "ratio", "lower"),
    ("tiles.flatcore.ns_per_call", "ns", "lower"),
    ("tiles.flatcore.us_per_frame", "us", "lower"),
    ("tiles.handlers.self_share", "ratio", "lower"),
    ("tiles.handlers.us_per_message", "us", "lower"),
    ("tiles.messages_in", "count", "lower"),
    ("tiles.drops", "count", "lower"),
    ("tiles.eject_high_water", "count", "lower"),
    ("packet.self_share", "ratio", "lower"),
    ("packet.us_per_call", "us", "lower"),
    ("tcp.peer.self_share", "ratio", "lower"),
    ("tcp.segments_sent", "count", "lower"),
    ("tcp.retransmits", "count", "lower"),
    ("tcp.fast_retransmits", "count", "lower"),
    ("faults.self_share", "ratio", "lower"),
    ("faults.wire_drops", "count", "lower"),
    ("designs.harness.self_share", "ratio", "lower"),
    ("designs.harness.us_per_frame", "us", "lower"),
    ("designs.harness.offered", "count", "higher"),
    ("designs.harness.admitted", "count", "higher"),
    ("designs.harness.offered_dropped", "count", "lower"),
    ("designs.harness.malformed", "count", "lower"),
    ("loadgen.self_share", "ratio", "lower"),
    ("loadgen.us_per_arrival", "us", "lower"),
    ("loadgen.generator_lag_max_cycles", "cycles", "lower"),
    ("sim.latency_p99_cycles", "cycles", "lower"),
    ("sim.latency_samples", "count", "higher"),
    ("paper.fig7_64b_err_pct", "%", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("calib.rate", "1/s", "higher"),
    ("calib.iqr_share", "ratio", "lower"),
    ("host.cycles_per_s_raw", "cycles/s", "higher"),
    ("host.wall_s_raw", "s", "lower"),
    ("host.setup_s_raw", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: End-to-end metrics that are simulated, hence exact for a seed.
SIMULATED = tuple(name for name, *_ in END_TO_END
                  if name.startswith("sim_"))

#: Bounds ``compare`` uses instead when both runs are of one seed. The
#: bounds above must cover the spread between seeds (on ``tcp_loss_reno``
#: another seed is another loss pattern); two runs of one seed differ by
#: the host's noise alone, and not at all in simulated time.
SAME_SEED_BOUND = {"cycles_per_s": 0.08, "frames_per_s": 0.08,
                   "flit_hops_per_s": 0.08,
                   **{name: 0.0 for name in SIMULATED}}


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Median over untraced reps of every end-to-end metric."""
    return {name: statistics.median(rep["end_to_end"][name]
                                    for rep in reps)
            for name, *_ in END_TO_END}


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 where the layer did not run."""
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric from a traced rep and its untraced twin.

    A metric whose layer does no work on a workload (``loadgen`` on an
    echo workload, the p99 of four TCP flows, the Fig 7 error anywhere
    but the 64 B workload) reads 0: the driver wants every name on
    every workload. The human-readable table prints those as ``n/a``.
    """
    names = traced["spans"]["names"]
    layers = traced["spans"]["layers"]
    counters = traced["counters"]
    total_ns = sum(row["self_ns"] for row in layers.values())

    def layer(key: str) -> dict:
        return layers.get(key, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def share(key: str) -> float:
        return _ratio(layer(key)["self_ns"], total_ns)

    def calls(span_name: str) -> int:
        return names.get(span_name, {"calls": 0})["calls"]

    frames = traced["frames_out"]
    step, commit = layer("noc.flatmesh.step"), layer("noc.flatmesh.commit")
    hops = counters["noc.flatmesh.flit_hops"]
    ticks = calls("sim.kernel.tick")
    sim_cycles = traced["end_to_end"]["sim_cycles"]
    values = {
        "sim.kernel.self_share": share("sim.kernel"),
        "sim.kernel.self_ns_per_tick":
            _ratio(layer("sim.kernel")["self_ns"], ticks),
        "sim.kernel.ticks": ticks,
        "sim.kernel.skip_share": _ratio(
            counters["sim.kernel.idle_cycles_skipped"], sim_cycles),
        "noc.flatmesh.step.self_share": share("noc.flatmesh.step"),
        "noc.flatmesh.step.ns_per_call":
            _ratio(step["self_ns"], step["calls"]),
        "noc.flatmesh.step.ns_per_flit_hop": _ratio(step["self_ns"], hops),
        "noc.flatmesh.commit.self_share": share("noc.flatmesh.commit"),
        "noc.flatmesh.commit.ns_per_call":
            _ratio(commit["self_ns"], commit["calls"]),
        "noc.flatmesh.flit_hops_per_frame": _ratio(hops, frames),
        "tiles.flatcore.self_share": share("tiles.flatcore"),
        "tiles.flatcore.ns_per_call": _ratio(
            layer("tiles.flatcore")["self_ns"],
            calls("tiles.flatcore.step")),
        "tiles.flatcore.us_per_frame": _ratio(
            layer("tiles.flatcore")["self_ns"] / 1e3, frames),
        "tiles.handlers.self_share": share("tiles.handlers"),
        "tiles.handlers.us_per_message": _ratio(
            layer("tiles.handlers")["self_ns"] / 1e3,
            calls("tiles.handlers.message")),
        "packet.self_share": share("packet"),
        "packet.us_per_call": _ratio(layer("packet")["self_ns"] / 1e3,
                                     layer("packet")["calls"]),
        "tcp.peer.self_share": share("tcp.peer"),
        "faults.self_share": share("faults"),
        "designs.harness.self_share": share("designs.harness"),
        "designs.harness.us_per_frame": _ratio(
            layer("designs.harness")["self_ns"] / 1e3, frames),
        "loadgen.self_share": share("loadgen"),
        "loadgen.us_per_arrival": _ratio(
            layer("loadgen")["self_ns"] / 1e3,
            counters["designs.harness.offered"]),
        "sim.latency_p99_cycles": traced["sim_latency_p99_cycles"] or 0,
        "sim.latency_samples": traced["latency_samples"],
        "trace.overhead_ratio": _ratio(traced["host"]["wall_s_raw"],
                                       untraced["host"]["wall_s_raw"]),
        "trace.unattributed_share": share("unattributed"),
        # The host's own health is read from the untraced twin: the
        # traced rep's chunks are stretched by the recorder.
        "calib.rate": untraced["calib"]["rate"],
        "calib.iqr_share": untraced["calib"]["iqr_share"],
        "host.cycles_per_s_raw": untraced["host"]["cycles_per_s_raw"],
        "host.wall_s_raw": untraced["host"]["wall_s_raw"],
        "host.setup_s_raw": untraced["host"]["setup_s_raw"],
    }
    # Everything else is a count the worker read off the design.
    return {name: values[name] if name in values
            else counters.get(name, 0) for name, *_ in PER_LAYER}


def not_applicable(name: str, rep: dict) -> bool:
    """True where a per-layer 0 means "no such thing on this workload"."""
    if name == "sim.latency_p99_cycles":
        return rep["sim_latency_p99_cycles"] is None
    if name in ("paper.fig7_64b_err_pct",
                "loadgen.generator_lag_max_cycles"):
        return name not in rep["counters"]
    return False
