"""The design linter as a command line.

    python -m repro.tools.lint udp_echo
    python -m repro.tools.lint design.xml --json
    python -m repro.tools.lint --all
    python -m repro.tools.lint udp_echo --sanitize --cycles 2000
    python -m repro.tools.lint --list-codes

A target is either the name of a shipped design (see ``--list``) or a
path to a design XML file (:func:`repro.designs.load_design`).  Either
way its spec is linted first; then the design is built and every
analysis pass runs over the real objects — mesh, routers, next-hop
tables, simulator components.  The seeded-bug demo targets
(:data:`repro.analysis.demo.FIXTURES`, one per finding family the
linter must catch, left out of ``--all``) have no spec and are only
built.

``--sanitize`` additionally runs the dynamic sanitizer passes
(BHV4xx): bounded instrumented simulations of ``--cycles`` cycles each,
under the ``fast`` profile, plus a ``reference`` run for the
determinism pass to compare it with.  ``--pass`` filters across both
families; a sanitize-family pass name requires ``--sanitize``.

Exit status: 0 clean (warnings allowed unless ``--strict``), 1 when
any error-severity finding is reported, 2 when a target cannot be
loaded at all.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import CODES, SANITIZE_PASSES, AnalysisReport, analyze
from repro.analysis.findings import Finding
from repro.analysis.sanitize import DEFAULT_CYCLES, analyze_dynamic
from repro.designs import SHIPPED, load_design


def _split_passes(passes, sanitize: bool, error) -> tuple[list | None,
                                                          list | None]:
    """Split ``--pass`` names into (static, sanitize) selections.

    ``None`` means "all passes of that family".  A sanitize-family
    name without ``--sanitize`` is an error: the dynamic passes run
    simulations and must be asked for explicitly.
    """
    from repro.analysis import PASSES

    if passes is None:
        return None, (None if sanitize else [])
    static = [p for p in passes if p in PASSES]
    dynamic = [p for p in passes if p in SANITIZE_PASSES]
    unknown = [p for p in passes
               if p not in PASSES and p not in SANITIZE_PASSES]
    if unknown:
        error(f"unknown pass(es) {unknown}; static: "
              f"{sorted(PASSES)}; sanitize: {sorted(SANITIZE_PASSES)}")
    if dynamic and not sanitize:
        error(f"pass(es) {dynamic} belong to the sanitizer family; "
              "add --sanitize to run bounded simulations")
    return static, (dynamic if sanitize else [])


def _sanitize_into(report: AnalysisReport, factory, name: str,
                   passes, cycles: int) -> None:
    """Run the dynamic passes and fold the results into ``report``."""
    dynamic = analyze_dynamic(factory, name=name, passes=passes,
                              cycles=cycles)
    report.extend(dynamic.findings)
    report.passes_run.extend(dynamic.passes_run)


def _lint(target: str, passes, sanitize_passes=(),
          cycles: int = 0) -> AnalysisReport:
    """Spec-lint ``target`` (a shipped name or an XML path), then build
    it and run the instance passes over the real objects.

    Build-time rejections (the generator's own validation and deadlock
    gate) are folded into the report instead of escaping as tracebacks.
    """
    from repro.analysis import lint_spec
    from repro.analysis.deadlock import DeadlockError
    from repro.config.validate import ValidationError

    spec, factory = load_design(target)
    name = target if target in SHIPPED else f"{spec.name} ({target})"
    report = AnalysisReport(target=name)
    report.extend(lint_spec(spec))
    report.passes_run.append("spec")
    if not report.ok:
        return report  # cannot build a spec the spec-lint rejects
    try:
        design = factory()
    except ValidationError as error:
        for problem in error.problems:
            report.findings.append(Finding(
                "BHV120", f"build rejected: {problem}", location=target))
        return report
    except DeadlockError as error:
        report.findings.append(Finding(
            "BHV201", f"build rejected: {error}", location=target,
            hint="re-place the tiles so each chain acquires links in "
                 "ascending order (paper Fig 5b)"))
        return report
    instance = analyze(design, name=name, passes=passes)
    report.extend(instance.findings)
    report.passes_run.extend(instance.passes_run)
    if sanitize_passes is None or sanitize_passes:
        _sanitize_into(report, factory, name, sanitize_passes, cycles)
    return report


def _lint_demo(name: str, factory, passes, sanitize_passes=(),
               cycles: int = 0) -> AnalysisReport:
    design = factory()
    report = analyze(design, name=name, passes=passes)
    if sanitize_passes is None or sanitize_passes:
        _sanitize_into(report, factory, name, sanitize_passes, cycles)
    return report


def _print_codes() -> None:
    print(f"{'code':<8} {'severity':<8} description")
    for code, (severity, description) in sorted(CODES.items()):
        print(f"{code:<8} {severity:<8} {description}")


def _exit_code(report: AnalysisReport, strict: bool) -> int:
    if not report.ok:
        return 1
    if strict and report.warnings:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.lint",
        description="Analysis of Beehive designs: topology (BHV1xx), "
                    "routing/deadlock (BHV2xx), kernel wake contracts "
                    "(BHV3xx), data-flow routing (BHV5xx), and — with "
                    "--sanitize — simulation-backed sanitizers "
                    "(BHV4xx).",
    )
    parser.add_argument("targets", nargs="*",
                        help="shipped design name or design XML path")
    parser.add_argument("--all", action="store_true",
                        help="lint every shipped design")
    parser.add_argument("--list", action="store_true", dest="list_designs",
                        help="list lintable design names and exit")
    parser.add_argument("--list-codes", action="store_true",
                        help="print the BHV finding-code table and exit")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    parser.add_argument("--pass", action="append", dest="passes",
                        metavar="PASS",
                        help="run only this pass (repeatable). static: "
                             "structural, deadlock, wake-contract, "
                             "dataflow; sanitize (needs --sanitize): "
                             "idle-truth, lost-wake, conservation, "
                             "determinism")
    parser.add_argument("--sanitize", action="store_true",
                        help="also run the dynamic sanitizer passes "
                             "(bounded instrumented simulations)")
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLES,
                        metavar="N",
                        help="simulated cycles per sanitizer run "
                             f"(default {DEFAULT_CYCLES})")
    args = parser.parse_args(argv)

    if args.list_codes:
        _print_codes()
        return 0

    static_passes, sanitize_passes = _split_passes(
        args.passes, args.sanitize, parser.error)
    if args.cycles < 1:
        parser.error(f"--cycles must be >= 1, got {args.cycles}")

    from repro.analysis.demo import FIXTURES

    if args.list_designs:
        print("shipped:", " ".join(sorted(SHIPPED)))
        print("demos:  ", " ".join(sorted(FIXTURES)))
        return 0

    targets = list(args.targets)
    if args.all:
        targets.extend(name for name in sorted(SHIPPED)
                       if name not in targets)
    if not targets:
        parser.error("no targets (give a design name / XML path, "
                     "or --all; --list shows the names)")

    worst = 0
    reports = []
    for target in targets:
        if target in FIXTURES:
            try:
                report = _lint_demo(target, FIXTURES[target], static_passes,
                                    sanitize_passes, args.cycles)
            except Exception as error:  # noqa: BLE001 - reported, not hidden
                print(f"error: cannot build design {target!r}: {error}",
                      file=sys.stderr)
                return 2
        elif target in SHIPPED or target.endswith(".xml"):
            try:
                report = _lint(target, static_passes,
                               sanitize_passes, args.cycles)
            except (OSError, ValueError) as error:
                print(f"error: cannot read {target}: {error}",
                      file=sys.stderr)
                return 2
        else:
            print(f"error: unknown design {target!r} (not a shipped "
                  "design name or .xml path; --list shows the names)",
                  file=sys.stderr)
            return 2
        reports.append(report)
        worst = max(worst, _exit_code(report, args.strict))

    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
    else:
        for report in reports:
            print(report.render())
    return worst


if __name__ == "__main__":
    sys.exit(main())
