"""Design-wide statistics reporting — the operator's view.

Every tile keeps the counters the control plane can export
(messages/bytes in and out, drops with reasons); every router counts
forwarded flits; every queue records its high-water mark.
``design_report`` renders the whole design's state as a table, and
``design_counters`` returns the same data structured, which is what a
monitoring pipeline would scrape.

When a design ran under a :class:`repro.telemetry.trace.Tracer`,
``design_report`` accepts the tracer's :class:`MetricsWindow` and
appends the time-series view: per-window link utilization, latency
percentiles (p50/p99/p999), and drops.  The table is rendered from
``MetricsWindow.to_dict()`` — the same structured source the JSON and
Prometheus exporters consume — so the human and machine views can
never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TileCounters:
    name: str
    kind: str
    coord: tuple
    messages_in: int
    messages_out: int
    bytes_in: int
    bytes_out: int
    drops: int
    drop_reasons: dict = field(default_factory=dict)
    #: Deepest the tile's ejection FIFO has ever been (committed depth).
    eject_high_water: int = 0
    #: Deepest the tile's injection-side backlog has ever been.
    tx_backlog_high_water: int = 0


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


def design_counters(design: object) -> dict:
    """Structured counters for every tile and the NoC.

    Tolerant by design: ``design.tiles`` may be a list or a dict, and
    tiles missing any counter attribute (stub tiles, adapters) report
    zero rather than failing — a monitoring scrape must never take the
    design down.
    """
    tiles = []
    design_tiles = design.tiles
    if isinstance(design_tiles, dict):
        design_tiles = design_tiles.values()
    for tile in design_tiles:
        port = getattr(tile, "port", None)
        eject = getattr(port, "eject_fifo", None)
        tiles.append(TileCounters(
            name=tile.name,
            kind=getattr(tile, "KIND", "generic"),
            coord=tile.coord,
            messages_in=getattr(tile, "messages_in", 0),
            messages_out=getattr(tile, "messages_out", 0),
            bytes_in=getattr(tile, "bytes_in", 0),
            bytes_out=getattr(tile, "bytes_out", 0),
            drops=getattr(tile, "drops", 0),
            drop_reasons=dict(getattr(tile, "drop_reasons", {}) or {}),
            eject_high_water=getattr(eject, "high_water", 0),
            tx_backlog_high_water=getattr(
                port, "tx_backlog_high_water", 0),
        ))
    routers = {
        coord: router.flits_forwarded
        for coord, router in design.mesh.routers.items()
    }
    # Per-router high-water over the directional + local input queues:
    # both backends expose ``high_water`` on every input (StagedFifo on
    # the object mesh, ring views on the flat mesh).
    router_high_water = {}
    for coord, router in design.mesh.routers.items():
        inputs = getattr(router, "inputs", None)
        if inputs:
            router_high_water[coord] = max(
                getattr(fifo, "high_water", 0) for fifo in inputs.values())
    tile_kinds: dict[str, int] = {}
    for tile in tiles:
        tile_kinds[tile.kind] = tile_kinds.get(tile.kind, 0) + 1
    counters = {
        "cycle": design.sim.cycle,
        "profile": getattr(design, "profile", "hand-built"),
        "tiles": tiles,
        "tile_kinds": dict(sorted(tile_kinds.items())),
        "router_flits": routers,
        "router_input_high_water": router_high_water,
        "total_flits": design.mesh.total_flits_forwarded,
    }
    engine = getattr(design, "fault_engine", None)
    if engine is not None:
        counters["faults"] = dict(engine.counters)
    return counters


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
    """A human-readable counter dump for a design.

    ``metrics`` is an optional
    :class:`repro.telemetry.trace.MetricsWindow` over the tracer the
    design ran with; when given, the windowed time-series is appended.
    """
    counters = design_counters(design)
    kinds = ", ".join(f"{kind} x{count}"
                      for kind, count in counters["tile_kinds"].items())
    lines = [f"design state at cycle {counters['cycle']}",
             f"profile: {counters['profile']}",
             f"tile kinds: {kinds}",
             f"{'tile':<14} {'kind':<14} {'coord':<8} "
             f"{'msgs in':>8} {'msgs out':>9} {'bytes in':>10} "
             f"{'bytes out':>10} {'drops':>6} {'ej hwm':>6} {'tx hwm':>6}"]
    for tile in counters["tiles"]:
        lines.append(
            f"{tile.name:<14} {tile.kind:<14} "
            f"{str(tile.coord):<8} {tile.messages_in:>8} "
            f"{tile.messages_out:>9} {tile.bytes_in:>10} "
            f"{tile.bytes_out:>10} {tile.drops:>6} "
            f"{tile.eject_high_water:>6} {tile.tx_backlog_high_water:>6}"
        )
    lines.append(f"NoC flits forwarded: {counters['total_flits']}")
    busiest = sorted(counters["router_flits"].items(),
                     key=lambda item: -item[1])[:3]
    rendered = ", ".join(f"{coord}: {flits}"
                         for coord, flits in busiest if flits)
    if rendered:
        lines.append(f"busiest routers: {rendered}")
    deepest = sorted(counters["router_input_high_water"].items(),
                     key=lambda item: -item[1])[:3]
    rendered = ", ".join(f"{coord}: {depth}"
                         for coord, depth in deepest if depth)
    if rendered:
        lines.append(f"deepest router input queues: {rendered}")
    reason_lines = []
    for tile in counters["tiles"]:
        for reason, count in sorted(tile.drop_reasons.items(),
                                    key=lambda item: -item[1]):
            reason_lines.append(f"  {tile.name}: {reason} ({count})")
    if reason_lines:
        lines.append("drop reasons:")
        lines.extend(reason_lines)
    faults = counters.get("faults")
    if faults:
        lines.append("fault injections:")
        for kind, count in sorted(faults.items()):
            lines.append(f"  {kind}: {count}")
    if metrics is not None:
        lines.extend(_render_windows(metrics))
    return "\n".join(lines)
