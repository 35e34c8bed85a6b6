"""The run record — the one reader of a design's operational state.

Every tile keeps the counters the control plane can export
(messages/bytes in and out, drops with reasons); every router counts
forwarded flits; every queue records its high-water mark.
:func:`run_record` reads all of it, with the scheduler's and the fault
engine's counters, into one JSON-able dict.  The probe samples it
(:mod:`repro.telemetry.probe`), the Prometheus exporter serves its
scalars, the sanitizer's determinism pass compares two of them, and
``design_report`` renders it as the operator's table.

When a design ran under a :class:`repro.telemetry.trace.Tracer`,
``design_report`` accepts the tracer's :class:`MetricsWindow` and
appends the time-series view: per-window link utilization, latency
percentiles (p50/p99/p999), and drops.  The table is rendered from
``MetricsWindow.to_dict()`` — the same structured source the JSON
exporters consume — so the human and machine views can never drift
apart.
"""

from __future__ import annotations


def jain_index(values) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every flow gets an identical share (or there is nothing
    to be unfair about), approaching ``1/n`` as one flow starves the
    rest.
    """
    values = [float(v) for v in values]
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if not square_sum:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def _depth_and_mark(fifo: object) -> tuple[int, int]:
    """A queue's depth and high-water mark as of the end of this cycle.

    Depth counts staged items too, and the mark is raised to it: the
    object mesh stages a push until the cycle's commit while the flat
    engine pushes in place, so a reading taken mid-tick (the probe's)
    would otherwise depend on the profile.  Between ticks both reads
    are the plain ``len`` / ``high_water``.
    """
    depth = fifo.occupancy
    return depth, max(fifo.high_water, depth)


def run_record(design: object) -> dict:
    """One JSON-able reading of a design's tiles, routers and faults.

    ``profile`` and ``kernel`` (``sim.stats()``) are the only fields
    that may differ between two profiles running the same traffic.
    ``routers`` holds only routers that forwarded a flit or queued
    one.  Tolerant by design: a tile missing a counter attribute (stub
    tiles, adapters) reads zero rather than failing — a monitoring
    scrape must never take the design down.
    """
    sim, mesh = design.sim, design.mesh
    tiles: dict[str, dict] = {}
    # Busy tiles: those whose step would ask for the next cycle as
    # things stand; a tile that is no ``Tile`` (no ``_due``) is not.
    # Not the flat tile core's busy bytes, which stay set on a tile
    # woken with work not yet due until the core next steps, nor
    # ``sim.wake_cycle``: the naive kernel schedules nothing.
    busy_tiles = 0
    for name, tile in design.tiles.items():
        port = getattr(tile, "port", None)
        eject = getattr(port, "eject_fifo", None)
        depth, mark = (0, 0) if eject is None else _depth_and_mark(eject)
        tiles[name] = {
            "kind": getattr(tile, "KIND", "generic"),
            "coord": list(tile.coord),
            "msgs_in": getattr(tile, "messages_in", 0),
            "msgs_out": getattr(tile, "messages_out", 0),
            "bytes_in": getattr(tile, "bytes_in", 0),
            "bytes_out": getattr(tile, "bytes_out", 0),
            "drops": getattr(tile, "drops", 0),
            "drop_reasons": dict(getattr(tile, "drop_reasons", None) or {}),
            "rx_ready": len(getattr(tile, "_rx_ready", ())),
            "buffered_flits": getattr(tile, "_buffered_flits", 0),
            "eject_depth": depth,
            "eject_hwm": mark,
            "tx_backlog": port.tx_backlog if port is not None else 0,
            "tx_hwm": getattr(port, "tx_backlog_high_water", 0),
        }
        due = getattr(tile, "_due", None)
        if due is not None and due() is None:
            busy_tiles += 1
    # Busy routers: the flat core's routers owning an active output,
    # or the object mesh's routers holding an input flit.
    core = getattr(mesh, "core", None)
    busy_routers = core.busy_routers if core is not None else 0
    routers: dict[str, dict] = {}
    for coord, router in mesh.routers.items():
        inputs = router.inputs.values()
        input_hwm = max((_depth_and_mark(fifo)[1] for fifo in inputs),
                        default=0)
        if router.flits_forwarded or input_hwm:
            routers[str(coord)] = {"flits": router.flits_forwarded,
                                   "input_hwm": input_hwm}
        if core is None and any(fifo.occupancy for fifo in inputs):
            busy_routers += 1
    record = {
        "cycle": sim.cycle,
        "profile": getattr(design, "profile", "hand-built"),
        "kernel": sim.stats(),
        "busy_routers": busy_routers,
        "busy_tiles": busy_tiles,
        "total_flits": mesh.total_flits_forwarded,
        "drops": sum(tile["drops"] for tile in tiles.values()),
        "tiles": tiles,
        "routers": routers,
    }
    engine = getattr(design, "fault_engine", None)
    if engine is not None:
        record["faults"] = dict(sorted(engine.counters.items()))
    return record


def _render_windows(metrics: object) -> list[str]:
    """The per-window metrics table appended to a traced report.

    Renders from :meth:`MetricsWindow.to_dict` — the structured view
    the exporters serialise — never from private tracer state.
    """
    data = metrics.to_dict()
    lines = [
        "",
        f"per-window metrics (window = {data['window_cycles']} cycles):",
        f"{'window':<16} {'pkts':>5} {'p50':>6} {'p99':>6} {'p999':>6} "
        f"{'busiest link':<22} {'util%':>6} {'drops':>6}",
    ]

    def fmt(value: float | None) -> str:
        return "-" if value is None else f"{value:.0f}"

    for window in data["windows"]:
        link_util = window["link_util"]
        if link_util:
            link, util = max(link_util.items(), key=lambda item: item[1])
            util_text = f"{util * 100:.1f}"
        else:
            link, util_text = "-", "-"
        label = f"[{window['start']},{window['end']})"
        lines.append(
            f"{label:<16} "
            f"{window['packets']:>5} {fmt(window['p50']):>6} "
            f"{fmt(window['p99']):>6} {fmt(window['p999']):>6} "
            f"{link:<22} {util_text:>6} "
            f"{sum(window['drops'].values()):>6}"
        )
    stats = data["latency"]
    if stats["count"]:
        lines.append(
            f"packet latency: n={stats['count']} "
            f"min={stats['min']} p50={stats['p50']:.0f} "
            f"p99={stats['p99']:.0f} p999={stats['p999']:.0f} "
            f"max={stats['max']} cycles"
        )
    return lines


def design_report(design: object,
                  metrics: object | None = None) -> str:
    """A human-readable counter dump for a design, from its run record.

    ``metrics`` is an optional
    :class:`repro.telemetry.trace.MetricsWindow` over the tracer the
    design ran with; when given, the windowed time-series is appended.
    """
    record = run_record(design)
    tiles = record["tiles"]
    kinds: dict[str, int] = {}
    for tile in tiles.values():
        kinds[tile["kind"]] = kinds.get(tile["kind"], 0) + 1
    rendered_kinds = ", ".join(f"{kind} x{count}"
                               for kind, count in sorted(kinds.items()))
    lines = [f"design state at cycle {record['cycle']}",
             f"profile: {record['profile']}",
             f"tile kinds: {rendered_kinds}",
             f"{'tile':<14} {'kind':<14} {'coord':<8} "
             f"{'msgs in':>8} {'msgs out':>9} {'bytes in':>10} "
             f"{'bytes out':>10} {'drops':>6} {'ej hwm':>6} {'tx hwm':>6}"]
    for name, tile in tiles.items():
        lines.append(
            f"{name:<14} {tile['kind']:<14} "
            f"{str(tuple(tile['coord'])):<8} {tile['msgs_in']:>8} "
            f"{tile['msgs_out']:>9} {tile['bytes_in']:>10} "
            f"{tile['bytes_out']:>10} {tile['drops']:>6} "
            f"{tile['eject_hwm']:>6} {tile['tx_hwm']:>6}"
        )
    lines.append(f"NoC flits forwarded: {record['total_flits']}")
    for label, field in (("busiest routers", "flits"),
                         ("deepest router input queues", "input_hwm")):
        top = sorted(((coord, router[field])
                      for coord, router in record["routers"].items()
                      if router[field]),
                     key=lambda item: -item[1])[:3]
        if top:
            lines.append(f"{label}: "
                         + ", ".join(f"{coord}: {n}" for coord, n in top))
    reason_lines = [
        f"  {name}: {reason} ({count})"
        for name, tile in tiles.items()
        for reason, count in sorted(tile["drop_reasons"].items(),
                                    key=lambda item: -item[1])]
    if reason_lines:
        lines.append("drop reasons:")
        lines.extend(reason_lines)
    faults = record.get("faults")
    if faults:
        lines.append("fault injections:")
        lines.extend(f"  {kind}: {count}" for kind, count in faults.items())
    if metrics is not None:
        lines.extend(_render_windows(metrics))
    return "\n".join(lines)
