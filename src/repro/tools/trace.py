"""Run a design under cycle-level trace and export Perfetto JSON.

    python -m repro.tools.trace udp_echo --cycles 5000 --out trace.json
    python -m repro.tools.trace my_design.xml --rate 50 --payload 256

The positional argument is either a design XML file or the name of a
shipped design (``python -m repro.tools.lint --list``).  The tool
builds the design, attaches a
:class:`repro.telemetry.trace.Tracer`, drives UDP traffic from a
simulated client into the design's Ethernet RX tile for ``--cycles``
cycles, then writes the Chrome trace-event JSON (loadable in Perfetto /
``chrome://tracing``) and prints the windowed text summary.

Traffic is plain UDP from the harness client
(:func:`repro.designs.harness.attach_client`) addressed to ``--port``
(defaulting to the design's own ``udp_port``, the first port its
``udp_rx`` tile routes, so the echo design answers it end to end;
designs expecting an application payload — e.g. the Reed-Solomon
accelerator — still exercise their receive path, and any drops show up
in the trace with their reason).
"""

from __future__ import annotations

import argparse
import sys

from repro.designs import SHIPPED, load_design
from repro.designs.harness import attach_client, client_frame
from repro.telemetry.stats import design_report
from repro.telemetry.trace import (
    MetricsWindow,
    Tracer,
    attach_tracer,
    write_chrome_trace,
)

def build_target(target: str):
    """The design ``target`` names (a shipped name or an XML path), or
    None after saying on stderr why there is none."""
    try:
        return load_design(target)[1]()
    except OSError as error:
        print(f"error: cannot read design {target!r}: {error}",
              file=sys.stderr)
    except ValueError as error:  # not a design, or one validate rejects
        print(f"error: cannot build design {target!r}: {error}",
              file=sys.stderr)
    return None


def _rate(text: str) -> float | None:
    """--rate value: bytes/cycle, or 'max'/'none' for unthrottled."""
    if text.lower() in ("max", "none"):
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number or 'max'") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.trace",
        description="Run a design under cycle-level trace; write "
                    "Perfetto-loadable JSON plus a text summary.",
    )
    parser.add_argument("design",
                        help="design XML path or shipped name "
                             f"({', '.join(sorted(SHIPPED))})")
    parser.add_argument("--cycles", type=int, default=5000,
                        help="cycles to simulate (default 5000)")
    parser.add_argument("--rate", type=_rate, default=50.0,
                        help="injection rate in bytes/cycle, or 'max' "
                             "to saturate (default 50 = 100 GbE)")
    parser.add_argument("--payload", type=int, default=64,
                        help="UDP payload bytes per frame (default 64)")
    parser.add_argument("--port", type=int, default=None,
                        help="UDP destination port (default: first "
                             "routed port of the design's udp_rx tile)")
    parser.add_argument("--window", type=int, default=500,
                        help="metrics window in cycles (default 500)")
    parser.add_argument("--out", default="trace.json",
                        help="output JSON path (default trace.json)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the text summary")
    args = parser.parse_args(argv)

    design = build_target(args.design)
    if design is None:
        return 1
    port = args.port if args.port is not None else design.udp_port
    if port is None:
        print(f"error: design {args.design!r} routes no UDP port; "
              "pass --port", file=sys.stderr)
        return 1

    tracer = attach_tracer(design, Tracer())
    frame = client_frame(design, bytes(args.payload), dst_port=port)
    source, sink = attach_client(design, [frame], rate=args.rate,
                                 keep_frames=False)
    design.sim.run(args.cycles)
    write_chrome_trace(tracer, args.out, args.window)

    if not args.quiet:
        print(design_report(design, MetricsWindow(tracer, args.window)))
        print(f"\ninjected {source.sent} frames (port {port}, "
              f"{args.payload} B payload), egressed {sink.count}")
        print(f"trace: {len(tracer.spans)} tile spans, "
              f"{len(tracer.link_flits)} link events, "
              f"{len(tracer.drops)} drops "
              f"-> {args.out} (open in https://ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
