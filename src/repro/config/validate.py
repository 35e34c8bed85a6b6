"""Topology soundness checks (paper section V-G).

"We check if two tiles have the same X and Y coordinates, and all NoC
coordinates are within the expected dimensions of the design.  Because
a 2D mesh must be a rectangle, this also gives us the opportunity to
automatically generate empty tiles."

The checks themselves live in :mod:`repro.analysis.structural` (the
unified finding pipeline, codes BHV1xx); this module keeps the
historical exception-based API used by the XML tooling and the design
generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import ERROR, Finding
from repro.analysis.structural import lint_spec
from repro.config.schema import DesignSpec


class ValidationError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass
class ValidationReport:
    empty_coords: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    findings: list = field(default_factory=list)


def validate(design: DesignSpec) -> ValidationReport:
    """Raise :class:`ValidationError` on a broken design; otherwise
    return the report (including auto-generated empty-tile coords)."""
    findings: list[Finding] = lint_spec(design)
    problems = [f"{f.code}: {f.message}" for f in findings
                if f.severity == ERROR]
    if problems:
        raise ValidationError(problems)
    return ValidationReport(
        empty_coords=design.empty_coords(),
        warnings=[f.message for f in findings if f.severity != ERROR],
        findings=findings,
    )
