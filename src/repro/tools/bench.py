"""Perf-lab runner — execute benchmarks, record JSON, gate regressions.

    python -m repro.tools.bench benchmarks/bench_profiles.py \\
        --out BENCH_run.json
    python -m repro.tools.bench --input BENCH_run.json \\
        --compare BENCH_baseline.json
    python -m repro.tools.bench --check BENCH_run.json
    python -m repro.tools.bench --list

Each ``benchmarks/bench_*.py`` module exposes one zero-argument
``run_*`` entry point (the convention the whole suite follows); the
runner imports the module by path, times the call, and flattens every
numeric leaf of a dict return into dotted metric names.  Results are
written as a schema-validated document (``repro.bench/1``) so a CI
baseline from last week is still comparable next month.

``--compare`` is the regression gate: metrics present in both
documents are compared with a direction inferred from their name
(goodput/speedup/rate-like metrics must not drop, wall-clock/latency
metrics must not grow) and a relative ``--threshold`` (default 5%).
A document compared against itself always passes; any metric worse
than the threshold fails the run with exit code 1.  Metrics whose
direction is unknown are reported but never gate.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import sys
from pathlib import Path
from time import perf_counter

SCHEMA = "repro.bench/1"

#: Substrings marking a metric where bigger is better.
HIGHER_BETTER = ("gbps", "goodput", "speedup", "throughput", "rate",
                 "frames", "kreq", "per_sec", "ops", "echoed", "count")
#: Substrings marking a metric where smaller is better.  The seconds
#: suffix is matched at the end only — ``_s`` *inside* a name (as in
#: ``tiles_saturating.speedup`` or ``frames_sent``) says nothing
#: about units.
LOWER_BETTER = ("wall", "seconds", "latency", "p50", "p99",
                "p999", "cycles", "rtt", "overhead", "drops", "loc")


def metric_direction(name: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 unknown.

    Lower-better wins ties ("goodput_wall_s" is a timing), because
    gating a timing as a throughput inverts the alarm.
    """
    lowered = name.lower()
    if lowered.endswith("_s") or \
            any(token in lowered for token in LOWER_BETTER):
        return -1
    if any(token in lowered for token in HIGHER_BETTER):
        return 1
    return 0


def flatten_metrics(value, prefix: str = "") -> dict[str, float]:
    """Dotted numeric leaves of a nested dict/list result.

    Lists flatten to indexed names (``curve.0.goodput_gbps``), so
    per-load-point curves — lists of dicts — survive as one metric
    per point instead of being dropped; a top-level list gets bare
    indices (``0.goodput_gbps``), never a leading dot.
    """
    out: dict[str, float] = {}
    if isinstance(value, dict):
        for key, item in value.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(item, name))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            name = f"{prefix}.{index}" if prefix else str(index)
            out.update(flatten_metrics(item, name))
    elif isinstance(value, bool):
        pass  # True/False are not metrics
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    return out


# -- document schema ---------------------------------------------------------


def validate_bench_document(doc) -> dict:
    """Check a ``repro.bench/1`` document; returns it or raises
    ``ValueError`` naming what's wrong."""
    if not isinstance(doc, dict):
        raise ValueError("bench document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    results = doc.get("results")
    if not isinstance(results, dict):
        raise ValueError("'results' must be an object of benchmarks")
    for bench_name, entry in results.items():
        if not isinstance(entry, dict):
            raise ValueError(f"results[{bench_name!r}] must be an object")
        if not isinstance(entry.get("wall_s"), (int, float)):
            raise ValueError(
                f"results[{bench_name!r}].wall_s must be a number")
        metrics = entry.get("metrics", {})
        if not isinstance(metrics, dict):
            raise ValueError(
                f"results[{bench_name!r}].metrics must be an object")
        for metric, value in metrics.items():
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                raise ValueError(
                    f"results[{bench_name!r}].metrics[{metric!r}] "
                    "must be a number")
    return doc


def load_bench_document(path: str) -> dict:
    with open(path) as handle:
        return validate_bench_document(json.load(handle))


# -- running -----------------------------------------------------------------


def _entry_point(module, module_name: str):
    """The module's ``run_*`` callable.

    Prefers the one whose suffix appears in the module name
    (``bench_sec7i_scalability`` -> ``run_scalability``); otherwise
    the sole candidate; otherwise the last one defined.
    """
    candidates = [name for name in dir(module)
                  if name.startswith("run_") and
                  callable(getattr(module, name))]
    if not candidates:
        raise ValueError(f"{module_name}: no run_* entry point")
    if len(candidates) > 1:
        matched = [name for name in candidates
                   if name[len("run_"):] in module_name]
        if matched:
            candidates = matched
    return getattr(module, candidates[-1])


def run_benchmark(path: str) -> dict:
    """Import one bench module by path and execute its entry point.

    Returns ``{"wall_s": ..., "metrics": {...}}``.
    """
    module_path = Path(path)
    module_name = module_path.stem
    spec = importlib.util.spec_from_file_location(module_name,
                                                 module_path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    entry = _entry_point(module, module_name)
    start = perf_counter()
    result = entry()
    wall = perf_counter() - start
    metrics = flatten_metrics(result) if isinstance(
        result, (dict, list, tuple)) else {}
    if not metrics:
        raise ValueError(
            f"{module_name}: {entry.__name__}() yielded no usable "
            f"metrics — it returned {type(result).__name__}, but the "
            "runner needs a dict (or list) with numeric leaves to "
            "flatten into dotted metric names")
    return {"wall_s": wall, "metrics": metrics}


def describe_benchmarks(root: str = "benchmarks") -> list[dict]:
    """Discover ``bench_*.py`` modules under ``root`` without importing.

    Each row carries the path, the ``run_*`` entry points found by
    parsing the source (no side effects), and the first docstring
    line; an unparseable file gets an ``error`` entry instead.
    """
    rows: list[dict] = []
    for path in sorted(Path(root).glob("bench_*.py")):
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError as error:
            rows.append({"path": str(path), "error": str(error)})
            continue
        summary = (ast.get_docstring(tree) or "").strip()
        rows.append({
            "path": str(path),
            "entry_points": [node.name for node in tree.body
                             if isinstance(node, ast.FunctionDef)
                             and node.name.startswith("run_")],
            "summary": summary.splitlines()[0] if summary else "",
        })
    return rows


def run_suite(paths: list[str]) -> dict:
    """Run several bench modules into one ``repro.bench/1`` document."""
    results = {}
    for path in paths:
        name = Path(path).stem.removeprefix("bench_")
        results[name] = run_benchmark(path)
    return {"schema": SCHEMA, "results": results}


# -- comparing ---------------------------------------------------------------


def compare_documents(current: dict, baseline: dict,
                      threshold: float = 0.05) -> dict:
    """Gate ``current`` against ``baseline``.

    Returns ``{"regressions": [...], "improvements": [...],
    "unchanged": int, "ungated": [...]}`` where each entry is
    ``(bench, metric, baseline_value, current_value, rel_change)``.
    Only metrics present in both documents are compared; ``wall_s``
    is deliberately ungated (host timing noise is not a regression).
    """
    regressions, improvements, ungated = [], [], []
    unchanged = 0
    current_results = current["results"]
    for bench_name, base_entry in baseline["results"].items():
        cur_entry = current_results.get(bench_name)
        if cur_entry is None:
            continue
        base_metrics = base_entry.get("metrics", {})
        cur_metrics = cur_entry.get("metrics", {})
        for metric, base_value in base_metrics.items():
            if metric not in cur_metrics:
                continue
            cur_value = cur_metrics[metric]
            if base_value == 0:
                change = 0.0 if cur_value == 0 else float("inf")
            else:
                change = (cur_value - base_value) / abs(base_value)
            row = (bench_name, metric, base_value, cur_value, change)
            direction = metric_direction(metric)
            if direction == 0:
                ungated.append(row)
            elif direction * change < -threshold:
                regressions.append(row)
            elif direction * change > threshold:
                improvements.append(row)
            else:
                unchanged += 1
    return {"regressions": regressions, "improvements": improvements,
            "unchanged": unchanged, "ungated": ungated}


def _render_rows(label: str, rows) -> list[str]:
    lines = [f"{label}:"]
    for bench_name, metric, base, cur, change in rows:
        lines.append(f"  {bench_name}.{metric}: "
                     f"{base:g} -> {cur:g} ({change:+.1%})")
    return lines


def format_comparison(outcome: dict) -> str:
    lines = []
    if outcome["regressions"]:
        lines.extend(_render_rows("REGRESSIONS", outcome["regressions"]))
    if outcome["improvements"]:
        lines.extend(_render_rows("improvements",
                                  outcome["improvements"]))
    lines.append(f"{outcome['unchanged']} metrics within threshold, "
                 f"{len(outcome['ungated'])} informational")
    return "\n".join(lines)


# -- CLI ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.bench",
        description="Run bench_* modules into a repro.bench/1 JSON "
                    "document; compare documents as a regression gate.",
    )
    parser.add_argument("benchmarks", nargs="*",
                        help="bench_*.py paths to execute (with "
                             "--list: directories to scan)")
    parser.add_argument("--list", action="store_true",
                        dest="list_benches",
                        help="list discoverable bench modules (from "
                             "benchmarks/ or the given directories) "
                             "and exit")
    parser.add_argument("--out", metavar="PATH",
                        help="write the result document here")
    parser.add_argument("--input", metavar="PATH",
                        help="use an existing result document instead "
                             "of running benchmarks")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="gate results against this baseline "
                             "document (exit 1 on regression)")
    parser.add_argument("--check", metavar="PATH",
                        help="only validate a document against the "
                             f"{SCHEMA} schema")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative regression threshold "
                             "(default 0.05 = 5%%)")
    args = parser.parse_args(argv)

    if args.list_benches:
        roots = args.benchmarks or ["benchmarks"]
        rows: list[dict] = []
        for root in roots:
            if not Path(root).is_dir():
                print(f"error: {root}: not a directory",
                      file=sys.stderr)
                return 2
            rows.extend(describe_benchmarks(root))
        if not rows:
            print(f"no bench_*.py modules under {', '.join(roots)}",
                  file=sys.stderr)
            return 2
        for row in rows:
            if "error" in row:
                print(f"{row['path']}: unparseable ({row['error']})")
                continue
            entries = ", ".join(row["entry_points"]) \
                or "NO run_* entry point"
            line = f"{row['path']}: {entries}"
            if row["summary"]:
                line += f" -- {row['summary']}"
            print(line)
        return 0

    if args.check:
        try:
            load_bench_document(args.check)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: {args.check}: {error}", file=sys.stderr)
            return 2
        print(f"{args.check}: valid {SCHEMA} document")
        return 0

    if args.input:
        try:
            document = load_bench_document(args.input)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: {args.input}: {error}", file=sys.stderr)
            return 2
    elif args.benchmarks:
        try:
            document = run_suite(args.benchmarks)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for bench_name, entry in document["results"].items():
            print(f"{bench_name}: {entry['wall_s']:.2f}s, "
                  f"{len(entry['metrics'])} metrics")
    else:
        parser.error("give bench_*.py paths, or --input/--check/--list")
        return 2  # unreachable; parser.error raises

    validate_bench_document(document)
    if args.out:
        Path(args.out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if args.compare:
        try:
            baseline = load_bench_document(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: {args.compare}: {error}", file=sys.stderr)
            return 2
        outcome = compare_documents(document, baseline,
                                    threshold=args.threshold)
        print(format_comparison(outcome))
        if outcome["regressions"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
