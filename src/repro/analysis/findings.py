"""Finding objects and the BHV code registry.

Every problem the design linter can report carries a stable code so CI
greps, suppressions, and documentation survive message rewording:

- ``BHV1xx`` — topology / structural soundness,
- ``BHV2xx`` — routing and channel-dependency deadlock,
- ``BHV3xx`` — simulation-kernel (quiescence/wake) contract,
- ``BHV4xx`` — dynamic sanitizer findings from bounded instrumented
  runs (:mod:`repro.analysis.sanitize`),
- ``BHV5xx`` — data-flow routing: declared destination domains vs the
  runtime routing state (:mod:`repro.analysis.dataflow`).

Severities: ``error`` findings make :mod:`repro.tools.lint` exit
nonzero; ``warning`` and ``info`` findings are reported but do not
fail the build (``--strict`` promotes warnings).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}

#: code -> (default severity, one-line description).  The table is the
#: source of truth for ``repro.tools.lint --list-codes`` and the
#: tutorial's finding-code table.
CODES: dict[str, tuple[str, str]] = {
    # -- BHV1xx: topology / structure ----------------------------------
    "BHV101": (ERROR, "two tiles share the same mesh coordinates"),
    "BHV102": (ERROR, "tile coordinates outside the mesh rectangle"),
    "BHV103": (WARNING, "tile is unreachable: no ingress, no incoming "
                        "route, and it originates no traffic"),
    "BHV104": (ERROR, "next-hop destination has no tile attached "
                      "(flits would wedge in the router)"),
    "BHV105": (ERROR, "duplicate tile name"),
    "BHV106": (ERROR, "component registered with the simulator more "
                      "than once (double-stepped)"),
    "BHV107": (ERROR, "attached local port never registered with the "
                      "simulator (its ejection FIFO never commits)"),
    "BHV110": (WARNING, "suspicious buffer/credit sizing"),
    "BHV111": (ERROR, "tile engine can never make progress "
                      "(non-positive backlog or buffer limits)"),
    "BHV120": (ERROR, "bad mesh dimensions"),
    "BHV121": (ERROR, "chain references an unknown tile"),
    "BHV122": (WARNING, "no chains declared: deadlock analysis has "
                        "nothing to check"),
    "BHV123": (ERROR, "destination entry with no targets"),
    "BHV124": (ERROR, "destination targets an unknown tile"),
    "BHV125": (ERROR, "unknown tile type"),
    "BHV126": (ERROR, "required tile param missing"),
    "BHV127": (ERROR, "tile param value does not parse"),
    "BHV128": (ERROR, "tile param the type does not take"),
    # -- BHV2xx: routing / deadlock ------------------------------------
    "BHV201": (ERROR, "channel-dependency cycle: a message chain can "
                      "hold a NoC link it later re-acquires"),
    "BHV202": (WARNING, "tile-level forwarding loop in the next-hop "
                        "tables"),
    "BHV203": (INFO, "traffic path derived from the next-hop tables is "
                     "not covered by any declared chain"),
    "BHV204": (INFO, "path enumeration truncated (design too large for "
                     "exhaustive analysis)"),
    "BHV205": (ERROR, "next-hop entry routes a tile to itself"),
    # -- BHV3xx: kernel / wake contract --------------------------------
    "BHV301": (ERROR, "component can idle-sleep but consumes a FIFO "
                      "with no wake hook (lost-wakeup stall)"),
    "BHV302": (ERROR, "component can idle-sleep but has no wake "
                      "mechanism at all"),
    "BHV304": (WARNING, "wake_sources() raised"),
    "BHV305": (INFO, "component that consumes FIFOs returned None from "
                     "every step: it is stepped every cycle "
                     "(naive-kernel behaviour)"),
    "BHV306": (WARNING, "declared wake source is not wired to wake "
                        "this component"),
    # -- BHV4xx: dynamic sanitizer (bounded instrumented runs) ---------
    "BHV401": (ERROR, "idle-truthfulness violation: a component the "
                      "scheduled kernel pruned made observable "
                      "progress when shadow-stepped"),
    "BHV402": (ERROR, "lost wakeup: a push into a FIFO whose consumer "
                      "is pruned and not woken in the same cycle"),
    "BHV403": (ERROR, "flit conservation violated: injected flits != "
                      "ejected + in-flight (unattributed loss)"),
    "BHV404": (ERROR, "non-determinism: the fast and reference "
                      "profiles diverged under identical traffic"),
    "BHV405": (ERROR, "early read: an ejected flit consumed in the "
                      "cycle a flat mesh pushed it (a consumer did not "
                      "pass its cycle to the port)"),
    # -- BHV5xx: data-flow routing (destination domains) ---------------
    "BHV501": (ERROR, "declared destination-domain coordinate has no "
                      "tile attached (data-dependent dispatch to it "
                      "can never be routed)"),
    "BHV502": (WARNING, "declared destination-domain coordinate that "
                        "no runtime routing state (next-hop table, "
                        "replica/stack list) can emit"),
    "BHV503": (ERROR, "runtime destination outside the tile's "
                      "declared destination domain (the declaration "
                      "under-covers the reachable set)"),
    "BHV504": (WARNING, "tile forwards traffic but has no statically "
                        "derivable destinations (data-dependent "
                        "routing the linter cannot see)"),
}


@dataclass
class Finding:
    """One problem (or observation) found by an analysis pass."""

    code: str
    message: str
    location: str = ""
    severity: str = ""  # defaults to the code's registry severity
    hint: str = ""
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered finding code {self.code!r}")
        if not self.severity:
            self.severity = CODES[self.code][0]
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"bad severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
        }
        if self.hint:
            out["hint"] = self.hint
        if self.data:
            out["data"] = self.data
        return out

    def render(self) -> str:
        where = f" {self.location}:" if self.location else ""
        text = f"{self.severity} {self.code}{where} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class AnalysisReport:
    """The combined output of every pass run over one design."""

    target: str
    findings: list[Finding] = field(default_factory=list)
    passes_run: list[str] = field(default_factory=list)

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def sorted_findings(self) -> list[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (_SEVERITY_RANK[f.severity], f.code, f.location),
        )

    def by_code(self, code: str) -> list[Finding]:
        return [f for f in self.findings if f.code == code]

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "ok": self.ok,
            "passes": self.passes_run,
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }

    def render(self) -> str:
        lines = [f"== {self.target} =="]
        for finding in self.sorted_findings():
            lines.append(finding.render())
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_info = len(self.findings) - n_err - n_warn
        lines.append(
            f"{'FAIL' if n_err else 'OK'}: {n_err} error(s), "
            f"{n_warn} warning(s), {n_info} info"
        )
        return "\n".join(lines)
