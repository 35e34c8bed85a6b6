"""Pass-based static analysis of instantiated Beehive designs.

The paper's design-time tooling (section V-G) rejects broken
topologies before anything runs; the activity-scheduled kernel (PR 2)
added a second class of statically-checkable failure — lost-wakeup
stalls.  This package is one finding pipeline for both:

- :mod:`repro.analysis.structural` — topology soundness (BHV1xx);
- :mod:`repro.analysis.deadlock` — channel-dependency deadlock over
  the *real* routing state: declared chains plus chains derived from
  the next-hop tables (BHV2xx);
- :mod:`repro.analysis.wake` — quiescence/wake contract verification
  against the scheduled kernel (BHV3xx);
- :mod:`repro.analysis.dataflow` — destination-domain declarations vs
  the runtime routing state, covering data-dependent routing (BHV5xx).

A separate *dynamic* family, :mod:`repro.analysis.sanitize`, runs
bounded instrumented simulations (BHV4xx: idle-truthfulness, lost
wakeups, flit conservation, determinism) through the same finding
pipeline — see :func:`repro.analysis.sanitize.analyze_dynamic` and
``python -m repro.tools.lint --sanitize``.

A name is imported from its submodule when first asked for
(:mod:`repro._exports`): a design's build-time deadlock check loads
``repro.analysis.deadlock`` and none of the other passes.

Entry points::

    from repro.analysis import analyze
    report = analyze(UdpEchoDesign())
    assert report.ok, report.render()

or, from a shell::

    python -m repro.tools.lint udp_echo --json
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.deadlock import (
        DeadlockError,
        analyze_chains,
        assert_deadlock_free,
        build_dependency_graph,
        chain_link_sequence,
        chains_through,
        derive_streaming_chains,
        witness_cycles,
    )
    from repro.analysis.findings import (
        CODES,
        ERROR,
        INFO,
        WARNING,
        AnalysisReport,
        Finding,
    )
    from repro.analysis.model import DesignModel, extract
    from repro.analysis.passes import PASSES, analyze
    from repro.analysis.sanitize import SANITIZE_PASSES, analyze_dynamic
    from repro.analysis.structural import lint_spec

#: exported name -> the submodule that defines it.
_EXPORTS = {
    "DeadlockError": "deadlock",
    "analyze_chains": "deadlock",
    "assert_deadlock_free": "deadlock",
    "build_dependency_graph": "deadlock",
    "chain_link_sequence": "deadlock",
    "chains_through": "deadlock",
    "derive_streaming_chains": "deadlock",
    "witness_cycles": "deadlock",
    "CODES": "findings",
    "ERROR": "findings",
    "INFO": "findings",
    "WARNING": "findings",
    "AnalysisReport": "findings",
    "Finding": "findings",
    "DesignModel": "model",
    "extract": "model",
    "PASSES": "passes",
    "analyze": "passes",
    "SANITIZE_PASSES": "sanitize",
    "analyze_dynamic": "sanitize",
    "lint_spec": "structural",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CODES",
    "ERROR",
    "INFO",
    "PASSES",
    "SANITIZE_PASSES",
    "WARNING",
    "AnalysisReport",
    "DeadlockError",
    "DesignModel",
    "Finding",
    "analyze",
    "analyze_chains",
    "analyze_dynamic",
    "assert_deadlock_free",
    "build_dependency_graph",
    "chain_link_sequence",
    "chains_through",
    "derive_streaming_chains",
    "extract",
    "lint_spec",
    "witness_cycles",
]
