"""Offered-load CLI — sweep the UDP echo design, race TCP flows.

    python -m repro.tools.load --offered 20,40,60,80,100
    python -m repro.tools.load --offered 20,60 --arrival bursty \\
        --out sweep.json
    python -m repro.tools.load --flows 3 --cc cubic --loss 0.01

The default mode walks the offered-load list through
:func:`repro.loadgen.sweep.sweep` and prints one row per point
(goodput, delivery ratio, latency percentiles) plus the knee; with
``--out`` the result is written as sorted JSON (byte-identical across
runs with the same arguments — CI diffs two invocations to pin
determinism).

``--flows`` switches to the competing-TCP-flows harness
(:func:`repro.loadgen.flows.run_competing_flows`): N peers with the
``--cc`` congestion control streaming through seeded loss, reporting
per-flow completion, Jain fairness, and retransmission counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.loadgen.flows import run_competing_flows
from repro.loadgen.sweep import sweep
from repro.tcp.cc import _CC_REGISTRY


def _parse_offered(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--offered wants comma-separated Gbps, got {text!r}")
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"--offered values must be > 0, got {text!r}")
    return values


def _print_sweep(result: dict) -> None:
    header = (f"{'offered':>8} {'goodput':>8} {'ratio':>6} "
              f"{'dropped':>8} {'p50':>7} {'p99':>7} {'p999':>8}")
    print(header)
    for point in result["curve"]:
        print(f"{point['offered_gbps']:>8g} "
              f"{point['goodput_gbps']:>8.2f} "
              f"{point['delivery_ratio']:>6.3f} "
              f"{point['offered_dropped']:>8} "
              f"{point['p50_cycles']:>7g} "
              f"{point['p99_cycles']:>7g} "
              f"{point['p999_cycles']:>8g}")
    print(f"knee: {result['knee_gbps']:g} Gbps "
          f"(last point with delivery ratio >= 0.95)")


def _print_flows(result: dict) -> None:
    print(f"{result['cc']}: {result['n_flows']} flows x "
          f"{result['stream_bytes']} bytes through "
          f"{result['loss']:.1%} loss")
    for flow in result["flows"]:
        done = flow["completion_cycle"]
        print(f"  :{flow['src_port']} acked={flow['bytes_acked']} "
              f"done@{done if done else 'never'} "
              f"goodput={flow['goodput_gbps']:.3f}Gbps "
              f"rtx={flow['retransmits']} "
              f"fast={flow['fast_retransmits']} cwnd={flow['cwnd']}")
    print(f"  completion={result['completion_cycle']} "
          f"jain={result['jain_fairness']:.4f} "
          f"rtx={result['total_retransmits']} "
          f"fast={result['total_fast_retransmits']} "
          f"wire_drops={result['wire_drops']} "
          f"delivered={result['all_delivered']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.load",
        description="Open-loop offered-load sweeps and competing-flow "
                    "congestion-control runs.",
    )
    parser.add_argument("--offered", type=_parse_offered,
                        default=[20.0, 40.0, 60.0, 80.0, 100.0],
                        metavar="GBPS[,GBPS...]",
                        help="offered loads to sweep "
                             "(default 20,40,60,80,100)")
    parser.add_argument("--arrival", default="poisson",
                        choices=("poisson", "bursty", "diurnal"),
                        help="arrival process (default poisson)")
    parser.add_argument("--payload", type=int, default=64,
                        help="UDP payload bytes (default 64)")
    parser.add_argument("--duration", type=int, default=120_000,
                        help="injection horizon in cycles "
                             "(default 120000)")
    parser.add_argument("--warmup", type=int, default=20_000,
                        help="cycles excluded from latency/goodput "
                             "(default 20000)")
    parser.add_argument("--seed", type=int, default=0xBEE,
                        help="root seed (default 0xBEE)")
    parser.add_argument("--zipf-keys", type=int, default=64,
                        help="key population size (default 64)")
    parser.add_argument("--zipf-skew", type=float, default=1.0,
                        help="Zipf skew exponent (default 1.0)")
    parser.add_argument("--max-admission", type=int, default=64,
                        help="NIC backlog limit before overrun "
                             "(default 64)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the result as JSON here")
    parser.add_argument("--flows", type=int, default=0, metavar="N",
                        help="run N competing TCP flows instead of "
                             "the sweep")
    parser.add_argument("--cc", default="reno",
                        choices=sorted(_CC_REGISTRY),
                        help="congestion control for --flows "
                             "(default reno)")
    parser.add_argument("--loss", type=float, default=0.01,
                        help="wire drop probability for --flows "
                             "(default 0.01)")
    parser.add_argument("--stream-bytes", type=int, default=48 * 1024,
                        help="bytes each flow streams for --flows "
                             "(default 49152)")
    args = parser.parse_args(argv)

    if args.flows:
        result = run_competing_flows(
            cc=args.cc, n_flows=args.flows, loss=args.loss,
            stream_bytes=args.stream_bytes, seed=args.seed)
        _print_flows(result)
        if args.out:
            Path(args.out).write_text(
                json.dumps(result, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.out}")
        return 0 if result["all_delivered"] else 1

    result = sweep(args.offered, seed=args.seed, arrival=args.arrival,
                   payload_bytes=args.payload,
                   duration_cycles=args.duration,
                   warmup_cycles=args.warmup,
                   zipf_keys=args.zipf_keys, zipf_skew=args.zipf_skew,
                   max_admission=args.max_admission)
    _print_sweep(result)
    if args.out:
        Path(args.out).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
