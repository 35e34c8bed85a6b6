"""The static pass table and :func:`analyze`, which runs it."""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis import dataflow, deadlock, structural, wake
from repro.analysis.findings import AnalysisReport
from repro.analysis.model import extract

#: name -> pass callable (design-like -> list[Finding]), in run order.
PASSES = {
    "structural": structural.run,
    "deadlock": deadlock.run,
    "wake-contract": wake.run,
    "dataflow": dataflow.run,
}


def analyze(design: object, *, name: str | None = None,
            passes: Iterable[str] | None = None) -> AnalysisReport:
    """Run the requested passes (default: all) over ``design``."""
    model = extract(design, name=name)
    selected = list(PASSES) if passes is None else list(passes)
    unknown = [p for p in selected if p not in PASSES]
    if unknown:
        raise KeyError(f"unknown pass(es) {unknown}; "
                       f"available: {sorted(PASSES)}")
    report = AnalysisReport(target=model.name)
    for pass_name in selected:
        report.extend(PASSES[pass_name](model))
        report.passes_run.append(pass_name)
    return report
