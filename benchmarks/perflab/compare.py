"""``compare A.json B.json``: did B get worse than A, per metric?

One row per workload x end-to-end metric. ``change`` is signed so that
positive is better whatever the metric's direction. Verdicts:

- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: not worse, but the reps of one side spread (max - min
  over median) wider than the bound, so "no change" cannot be claimed,
  unless every rep of B reads better than every rep of A (``better``);
- ``better``: B's median is better than A's by more than the bound;
- ``within``: anything else.

When both files used one seed there is no spread between seeds to
allow for: the rates are held to ``metrics.SAME_SEED_BOUND``, and
``sim_*`` metrics and the digest are exact, so their bound is 0.
``--symmetric`` is the self-agreement check of two runs of one commit:
a difference beyond the bound in either direction is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics

from . import metrics


def spread(reps: list[float]) -> float:
    middle = statistics.median(reps)
    return (max(reps) - min(reps)) / middle if middle else 0.0


def verdict(a_reps: list[float], b_reps: list[float], better: str,
            bound: float, symmetric: bool = False) -> tuple[float, str]:
    """``(change, verdict)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    a, b = statistics.median(a_reps), statistics.median(b_reps)
    change = sign * (b - a) / a if a else 0.0
    if change < -bound or (symmetric and change > bound):
        return change, "worse"
    if max(spread(a_reps), spread(b_reps)) > bound:
        separated = min(sign * value for value in b_reps) > \
            max(sign * value for value in a_reps)
        return change, "better" if separated else "unresolved"
    return change, "better" if change > bound else "within"


def load(path: str) -> dict:
    """A result file; a bundle ``{"sets": [...]}`` has its reps pooled."""
    with open(path) as handle:
        data = json.load(handle)
    first, *rest = data.get("sets", [data])
    for other in rest:
        if other["seed"] != first["seed"]:
            raise SystemExit(f"{path}: sets of different seeds")
        for workload, record in first["workloads"].items():
            for name, reps in record["end_to_end_reps"].items():
                reps += other["workloads"][workload]["end_to_end_reps"][name]
                record["end_to_end"][name] = statistics.median(reps)
    return first


def compare(a: dict, b: dict, symmetric: bool = False) -> list[tuple]:
    """Rows ``(workload, metric, a, b, change, bound, verdict)``."""
    same_seed = a["seed"] == b["seed"]
    rows = []
    for workload, before in a["workloads"].items():
        after = b["workloads"].get(workload)
        if after is None:
            rows.append((workload, "*", None, None, 0.0, 0.0, "worse"))
            continue
        for name, _unit, better, bound in metrics.END_TO_END:
            if same_seed:
                bound = metrics.SAME_SEED_BOUND.get(name, bound)
            change, word = verdict(before["end_to_end_reps"][name],
                                   after["end_to_end_reps"][name],
                                   better, bound, symmetric)
            rows.append((workload, name, before["end_to_end"][name],
                         after["end_to_end"][name], change, bound, word))
        if same_seed:
            same = before["sim_digest"] == after["sim_digest"]
            word = "within" if same else \
                ("worse" if symmetric else "changed")
            rows.append((workload, "sim_digest", before["sim_digest"][:12],
                         after["sim_digest"][:12], 0.0, 0.0, word))
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perflab compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("a", help="result file of the parent commit")
    parser.add_argument("b", help="result file of the change")
    parser.add_argument("--symmetric", action="store_true")
    args = parser.parse_args(argv)
    rows = compare(load(args.a), load(args.b), args.symmetric)
    print(f"{'workload':20s} {'metric':24s} {'A':>14s} {'B':>14s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload, name, before, after, change, bound, word in rows:
        cells = [f"{v:14.6g}" if isinstance(v, (int, float))
                 else f"{v!s:>14s}" for v in (before, after)]
        print(f"{workload:20s} {name:24s} {cells[0]} {cells[1]} "
              f"{change:+8.2%} {bound:6.0%}  {word}")
    worse = sum(1 for row in rows if row[-1] == "worse")
    print(f"{worse} worse of {len(rows)} rows")
    return 1 if worse else 0
