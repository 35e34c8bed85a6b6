"""Live mesh dashboard — ``top`` for a running design.

    python -m repro.tools.top udp_echo --cycles 20000
    python -m repro.tools.top --replay snapshots.json --plain
    python -m repro.tools.top udp_echo --save snapshots.json

Live mode builds a design (XML path or shipped name), attaches a
:class:`repro.telemetry.probe.Probe`, drives the same UDP traffic the
trace tool does, and redraws a frame per sample: a link-utilization
heatmap of the mesh, per-tile occupancy (queue depths against their
high-water marks), latency percentiles with a sparkline, and the
kernel's scheduling stats.  With a TTY and curses the frame repaints
in place; otherwise (or with ``--plain``) frames print sequentially.

Replay mode renders a recorded snapshot series (``probe.write(path)``
or ``--save``) instead of running anything.  Rendering is a pure
function of the snapshot data — replaying the same file always
produces byte-identical frames, which is what the CI smoke asserts.
"""

from __future__ import annotations

import argparse
import sys

from repro.telemetry.export import SnapshotSeries

#: Latency sparkline ramp (8 levels + blank).
BLOCKS = " ▁▂▃▄▅▆▇█"
#: Heatmap ramp, cold to hot.
SHADES = " .:-=+*#%@"
SPARK_WIDTH = 32


def _coord_of(value) -> tuple[int, int]:
    """A (x, y) tuple from a snapshot coord (list) or a link key."""
    return (int(value[0]), int(value[1]))


def _link_source(key: str) -> tuple[int, int]:
    """``"(1, 0)->east"`` -> ``(1, 0)``."""
    coord_text = key.split("->", 1)[0].strip("() ")
    x_text, y_text = coord_text.split(",")
    return (int(x_text), int(y_text))


def mesh_extent(snapshot) -> tuple[int, int]:
    """Grid size implied by tile coords and link endpoints."""
    width = height = 1
    for tile in snapshot.get("tiles", {}).values():
        x, y = _coord_of(tile["coord"])
        width = max(width, x + 1)
        height = max(height, y + 1)
    for key in snapshot.get("links", {}):
        x, y = _link_source(key)
        width = max(width, x + 1)
        height = max(height, y + 1)
    return width, height


def router_activity(snapshot) -> dict[tuple[int, int], int]:
    """Outgoing flit deltas summed per source router."""
    activity: dict[tuple[int, int], int] = {}
    for key, delta in snapshot.get("links", {}).items():
        coord = _link_source(key)
        activity[coord] = activity.get(coord, 0) + delta
    return activity


def _shade(value: int, peak: int) -> str:
    if peak <= 0 or value <= 0:
        return SHADES[0]
    index = 1 + (value * (len(SHADES) - 2)) // peak
    return SHADES[min(index, len(SHADES) - 1)]


def sparkline(values, width: int = SPARK_WIDTH) -> str:
    """Fixed-width block sparkline of the last ``width`` values."""
    tail = [v for v in values if v is not None][-width:]
    if not tail:
        return ""
    peak = max(tail) or 1
    chars = []
    for value in tail:
        index = (int(value) * (len(BLOCKS) - 2)) // int(peak) + 1 \
            if value > 0 else 0
        chars.append(BLOCKS[min(index, len(BLOCKS) - 1)])
    return "".join(chars)


def render_frame(series: SnapshotSeries, index: int) -> str:
    """One dashboard frame, as text.  Pure: same series + index in,
    byte-identical frame out — the replay determinism contract."""
    snapshots = series.snapshots
    snapshot = snapshots[index]
    width, height = mesh_extent(snapshot)
    activity = router_activity(snapshot)
    peak = max(activity.values(), default=0)
    interval = series.interval or 1

    lines = [
        f"repro.top — {series.design or 'design'}  "
        f"cycle {snapshot['cycle']}  "
        f"sample {index + 1}/{len(snapshots)}",
        f"fabric: {snapshot.get('busy_routers', 0)} busy routers, "
        f"{snapshot.get('total_flits', 0)} flits forwarded total, "
        f"peak link {peak}/{interval} flits/cycle this sample",
        "",
        f"link utilization ({width}x{height} mesh, '{SHADES[-1]}' = "
        "hottest router this sample):",
    ]
    for y in range(height):
        row = "".join(
            _shade(activity.get((x, y), 0), peak) * 2
            for x in range(width))
        lines.append(f"  {y} |{row}|")
    lines.append("     " + "".join(f"{x % 10} " for x in range(width)))

    lines.append("")
    lines.append(f"{'tile':<14} {'coord':<8} {'in':>7} {'out':>7} "
                 f"{'drops':>6} {'ej d/hwm':>9} {'tx d/hwm':>9}")
    for name in sorted(snapshot.get("tiles", {})):
        tile = snapshot["tiles"][name]
        coord = tuple(tile["coord"])
        lines.append(
            f"{name:<14} {str(coord):<8} {tile['msgs_in']:>7} "
            f"{tile['msgs_out']:>7} {tile['drops']:>6} "
            f"{tile['eject_depth']:>4}/{tile['eject_hwm']:<4} "
            f"{tile['tx_backlog']:>4}/{tile['tx_hwm']:<4}"
        )

    latency = snapshot.get("latency") or {}
    history = [s.get("latency", {}).get("window_p50")
               for s in snapshots[:index + 1]]
    spark = sparkline(history)

    def fmt(value) -> str:
        return "-" if value is None else f"{value:.0f}"

    lines.append("")
    lines.append(
        f"latency (cycles): p50={fmt(latency.get('p50'))} "
        f"p99={fmt(latency.get('p99'))} p999={fmt(latency.get('p999'))} "
        f"window n={latency.get('completed', 0)} "
        f"p50={fmt(latency.get('window_p50'))}"
        + (f"  last transit={latency['last_transit']}"
           if "last_transit" in latency else "")
    )
    if spark:
        lines.append(f"window p50 trend: {spark}")

    kernel = snapshot.get("kernel") or {}
    if kernel:
        lines.append(
            f"kernel[{kernel.get('kernel', '?')}]: "
            f"{kernel.get('active', 0)}/{kernel.get('components', 0)} "
            f"active, {kernel.get('armed_timers', 0)} timers, "
            f"{kernel.get('idle_cycles_skipped', 0)} idle skipped, "
            f"{kernel.get('component_steps', 0)} steps"
        )
    faults = snapshot.get("faults")
    if faults:
        rendered = ", ".join(f"{kind}={count}"
                             for kind, count in sorted(faults.items()))
        lines.append(f"faults: {rendered}")
    return "\n".join(lines)


def render_all(series: SnapshotSeries) -> str:
    """Every frame, separated — the deterministic replay transcript."""
    frames = [render_frame(series, i)
              for i in range(len(series.snapshots))]
    separator = "\n" + "=" * 72 + "\n"
    return separator.join(frames)


# -- live mode ---------------------------------------------------------------


def _run_live(args) -> int:
    # Reuse the trace tool's design loading + traffic conventions, but
    # sample with a probe instead of recording a full trace.
    from repro.designs.harness import attach_client
    from repro.telemetry.probe import attach_probe
    from repro.tools.trace import build_target

    design = build_target(args.design)
    if design is None:
        return 1
    if design.udp_port is None:
        print(f"error: design {args.design!r} routes no UDP port",
              file=sys.stderr)
        return 1
    probe = attach_probe(design, interval=args.interval,
                         design_name=args.design)
    source, sink = attach_client(design, bytes(args.payload),
                                 rate=args.rate, keep_frames=False)

    use_curses = (not args.plain and sys.stdout.isatty())
    screen = None
    curses = None
    if use_curses:
        try:
            import curses as curses_mod
            curses = curses_mod
            screen = curses.initscr()
            curses.noecho()
            curses.cbreak()
            screen.nodelay(True)
        except Exception:
            screen = None
    try:
        remaining = args.cycles
        while remaining > 0:
            chunk = min(args.interval, remaining)
            design.sim.run(chunk)
            remaining -= chunk
            if not probe.series.snapshots:
                continue
            frame_text = render_frame(
                probe.series, len(probe.series.snapshots) - 1)
            if screen is not None:
                screen.erase()
                try:
                    screen.addstr(0, 0, frame_text)
                except Exception:
                    pass  # terminal smaller than the frame
                screen.refresh()
                if screen.getch() in (ord("q"), 27):
                    break
            else:
                print(frame_text)
                print("=" * 72)
    finally:
        if screen is not None and curses is not None:
            curses.nocbreak()
            curses.echo()
            curses.endwin()

    if args.save:
        probe.write(args.save)
        print(f"saved {len(probe.series.snapshots)} snapshots "
              f"-> {args.save}")
    if screen is not None and probe.series.snapshots:
        # Leave the final frame on the scrollback after curses exits.
        print(render_frame(probe.series, len(probe.series.snapshots) - 1))
    print(f"injected {source.sent} frames, egressed {sink.count}, "
          f"{probe.samples_taken} samples")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.top",
        description="Live mesh dashboard, or deterministic replay of a "
                    "recorded snapshot series.",
    )
    parser.add_argument("design", nargs="?",
                        help="design XML path or shipped name "
                             "(omit with --replay)")
    parser.add_argument("--replay", metavar="SNAPSHOTS_JSON",
                        help="render a recorded snapshot series instead "
                             "of running a design")
    parser.add_argument("--frame", type=int, default=None,
                        help="with --replay: render only this frame "
                             "(0-based; negative counts from the end)")
    parser.add_argument("--cycles", type=int, default=20000,
                        help="live mode: cycles to simulate "
                             "(default 20000)")
    parser.add_argument("--interval", type=int, default=500,
                        help="probe sampling interval in cycles "
                             "(default 500)")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="injection rate in bytes/cycle "
                             "(default 50)")
    parser.add_argument("--payload", type=int, default=64,
                        help="UDP payload bytes per frame (default 64)")
    parser.add_argument("--plain", action="store_true",
                        help="print frames sequentially (no curses)")
    parser.add_argument("--save", metavar="PATH",
                        help="live mode: write the snapshot series for "
                             "later --replay")
    args = parser.parse_args(argv)

    if args.replay:
        try:
            series = SnapshotSeries.load(args.replay)
        except (OSError, ValueError) as error:
            print(f"error: cannot load {args.replay!r}: {error}",
                  file=sys.stderr)
            return 1
        if not series.snapshots:
            print(f"error: {args.replay!r} holds no snapshots",
                  file=sys.stderr)
            return 1
        if args.frame is not None:
            index = args.frame if args.frame >= 0 \
                else len(series.snapshots) + args.frame
            if not 0 <= index < len(series.snapshots):
                print(f"error: frame {args.frame} out of range "
                      f"(0..{len(series.snapshots) - 1})",
                      file=sys.stderr)
                return 1
            print(render_frame(series, index))
        else:
            print(render_all(series))
        return 0

    if not args.design:
        parser.error("a design (or --replay) is required")
    return _run_live(args)


if __name__ == "__main__":
    sys.exit(main())
