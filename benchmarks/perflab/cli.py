"""Command line: the driver's one-workload run, the full set, ``compare``.

The parent process never simulates. It spawns one worker at a time
(so there is never more than one busy thread), reads the rep record
the worker prints, checks the reps of a workload against each other,
and reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import compare, metrics

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
RUN_PY = HERE / "run.py"

#: Untraced reps per workload: at least this many, then more until the
#: ``--seconds`` budget of measured time is used, up to the cap.
MIN_REPS = 3
MAX_REPS = 12
WORKER_TIMEOUT_S = 150


def spawn_rep(workload: str, seed: int, traced: bool) -> dict:
    """Run one rep in a fresh worker process and return its record."""
    command = [sys.executable, str(RUN_PY), "worker", workload,
               str(seed), str(int(traced)), repr(perf_counter())]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(done.stdout.splitlines()[-1])


def worker_main(workload: str, seed: int, traced: bool, t0: float) -> int:
    # Imported here: only workers pay for (and time) importing repro.
    from .worker import run_rep
    from .workloads import WORKLOADS

    trace_path = None
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-{seed}.json"
    rep = run_rep(workload, WORKLOADS[workload].build, seed,
                  traced=traced, t0=t0, trace_path=trace_path)
    print(json.dumps(rep))
    return 0


def check_reps(reps: list[dict]) -> list[str]:
    """Correctness gate over the reps of one workload and seed."""
    problems = []
    if len({rep["digest"] for rep in reps}) != 1:
        problems.append("sim_digest differs between reps: tracing or "
                        "chunked driving changed a simulated result")
    for rep in reps:
        if rep["failed"]:
            problems.append(f"{rep['failed']} of {rep['attempted']} "
                            "operations failed (expected 0)")
        if rep["counters"]["designs.harness.malformed"]:
            problems.append("malformed egress frames")
        for name in metrics.SIMULATED:
            if rep["end_to_end"][name] != reps[0]["end_to_end"][name]:
                problems.append(f"{name} differs between reps")
    return sorted(set(problems))


def summarise(untraced: list[dict], traced: dict | None) -> dict:
    """One workload's record for the result file."""
    reps = untraced + ([traced] if traced else [])
    problems = check_reps(reps)
    record = {
        "seed": untraced[0]["seed"],
        "correct": not problems,
        "problems": problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "sim_digest": untraced[0]["digest"],
        "noisy_reps": sum(rep["noisy"] for rep in untraced),
        "end_to_end": metrics.end_to_end(untraced),
        "end_to_end_reps": {
            name: [rep["end_to_end"][name] for rep in untraced]
            for name, *_ in metrics.END_TO_END},
    }
    if traced:
        record["per_layer"] = metrics.per_layer(untraced[-1], traced)
        record["not_applicable"] = [
            name for name, *_ in metrics.PER_LAYER
            if metrics.not_applicable(name, traced)]
    return record


def print_table(workload: str, record: dict) -> None:
    print(f"== {workload} (seed {record['seed']}): "
          f"{'correct' if record['correct'] else 'INCORRECT'}, "
          f"{record['failed']}/{record['attempted']} operations failed, "
          f"{record['noisy_reps']} noisy reps")
    for problem in record["problems"]:
        print(f"   !! {problem}")
    for name, unit, _better, bound in metrics.END_TO_END:
        reps = record["end_to_end_reps"][name]
        print(f"   {name:34s} {record['end_to_end'][name]:16.6g} "
              f"{unit:9s} bound {bound:.0%}  reps "
              + " ".join(f"{value:.6g}" for value in reps))
    skip = record.get("not_applicable", ())
    for name, unit, _better in metrics.PER_LAYER:
        if "per_layer" not in record:
            break
        value = "n/a" if name in skip else \
            f"{record['per_layer'][name]:.6g}"
        print(f"   {name:34s} {value:>16s} {unit}")


def driver_line(record: dict, trace: bool) -> str:
    """The one JSON object the driver reads from the last line."""
    values = record["per_layer"] if trace else record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    })


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """The driver's entry: one workload, one seed, one mode."""
    untraced = [spawn_rep(workload, seed, traced=False)]
    if trace:
        return summarise(untraced, spawn_rep(workload, seed, traced=True))
    measured = untraced[0]["host"]["measure_s"]
    while len(untraced) < MAX_REPS and \
            (len(untraced) < MIN_REPS or measured < seconds):
        untraced.append(spawn_rep(workload, seed, traced=False))
        measured += untraced[-1]["host"]["measure_s"]
    return summarise(untraced, None)


def run_set(seed: int, names: list[str]) -> dict:
    """The full set: round-robin untraced reps, then one traced each.

    Rep r of every workload runs before rep r+1 of any, so a slow
    phase of the host lands on one rep of each workload, not on every
    rep of one.
    """
    untraced: dict[str, list] = {name: [] for name in names}
    for _ in range(MIN_REPS):
        for name in names:
            untraced[name].append(spawn_rep(name, seed, traced=False))
    return {
        "schema": "perflab/1",
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {
            name: summarise(untraced[name],
                            spawn_rep(name, seed, traced=True))
            for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["worker"]:
        workload, seed, traced, t0 = argv[1:]
        return worker_main(workload, int(seed), traced == "1", float(t0))
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])

    from .workloads import WORKLOADS
    parser = argparse.ArgumentParser(
        prog="perflab", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload only and end with the "
                        "driver's JSON line (default: the full set)")
    parser.add_argument("--seed", type=int, default=48878)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per workload before the "
                        f"benchmark stops adding reps (min {MIN_REPS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a "
                        "traced rep instead of end-to-end ones")
    parser.add_argument("--out", type=Path,
                        help="full set only: result file (default "
                        "out/perflab-<seed>.json)")
    args = parser.parse_args(argv)

    if args.workload:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print_table(args.workload, record)
        # The line carries the verdict; a non-zero exit would hide it.
        print(driver_line(record, bool(args.trace)))
        return 0

    result = run_set(args.seed, list(WORKLOADS))
    for name, record in result["workloads"].items():
        print_table(name, record)
    out = args.out
    if out is None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"perflab-{args.seed}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(record["correct"]
                    for record in result["workloads"].values()) else 1
