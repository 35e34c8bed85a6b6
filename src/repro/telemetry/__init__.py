"""Telemetry: tracing, metrics, sampling probes (sec V-F).

Two planes, two costs:

- The *debug* plane — :class:`Tracer` (cycle-accurate spans, Chrome
  trace export) and the paper's log/replay workflow
  (:class:`FrameTraceRecorder` / :class:`TraceReplayer`): records
  everything, costs accordingly, attach only when investigating.
- The *operational* plane — :class:`~repro.telemetry.metrics.
  MetricsRegistry` (counters, gauges, p50/p99/p999 histograms) fed by
  :func:`~repro.telemetry.probe.attach_probe`'s periodic sampler and
  exported via :mod:`repro.telemetry.export` (Prometheus text,
  replayable snapshot series for ``python -m repro.tools.top``):
  cheap enough to leave on.

Both planes share one null-path contract: not attached means not
wrapped — ``NULL_TRACER`` and ``attach_probe(design, None)`` cost
exactly nothing on the hot path.  Where *host* time goes is measured
from outside the program, by ``benchmarks/perflab``.
"""

from repro.telemetry.export import (
    SnapshotSeries,
    prometheus_text,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.probe import DEFAULT_INTERVAL, Probe, attach_probe
from repro.telemetry.replay import FrameTraceRecorder, TraceReplayer
from repro.telemetry.stats import (
    design_counters,
    design_report,
    jain_index,
)
from repro.telemetry.trace import (
    NULL_TRACER,
    MetricsWindow,
    NullTracer,
    Tracer,
    attach_tracer,
    chrome_trace_events,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_INTERVAL",
    "FrameTraceRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsWindow",
    "NULL_TRACER",
    "NullTracer",
    "Probe",
    "SnapshotSeries",
    "Tracer",
    "TraceReplayer",
    "attach_probe",
    "attach_tracer",
    "chrome_trace_events",
    "design_counters",
    "design_report",
    "jain_index",
    "prometheus_text",
    "write_chrome_trace",
]
