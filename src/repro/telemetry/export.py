"""Exporters: Prometheus text format and versioned JSON snapshots.

Two consumers, two formats:

- :func:`prometheus_text` renders a :class:`~repro.telemetry.metrics.
  MetricsRegistry` in the Prometheus exposition text format (v0.0.4):
  ``# HELP`` / ``# TYPE`` headers, counters with a ``_total`` suffix,
  histograms as cumulative ``_bucket{le="..."}`` series plus ``_sum``
  and ``_count`` — what a scrape endpoint would serve.
- :class:`SnapshotSeries` is the recorded-telemetry interchange file:
  a schema-versioned JSON document holding the probe's periodic
  snapshots, written by :meth:`~repro.telemetry.probe.Probe.write` and
  replayed deterministically by ``python -m repro.tools.top --replay``.

Both formats are pure functions of their inputs — same registry or
series in, byte-identical text out — which is what makes the replay
determinism test in CI meaningful.
"""

from __future__ import annotations

import json

from repro.telemetry.metrics import Histogram, MetricsRegistry

SNAPSHOT_SCHEMA = "repro.telemetry.snapshots/1"


def _prom_name(name: str) -> str:
    """Metric names use dots as namespacing; Prometheus wants [a-zA-Z0-9_:]."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _prom_value(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """The registry in Prometheus exposition text format.

    Every line is ``name{labels} value`` (labels only on histogram
    buckets); instruments render in name order, so the output is a
    deterministic function of the registry's state.
    """
    lines: list[str] = []
    for metric in registry:
        name = _prom_name(f"{prefix}_{metric.name}" if prefix
                          else metric.name)
        help_text = getattr(metric, "help", "") or metric.name
        if metric.kind == "counter":
            lines.append(f"# HELP {name}_total {help_text}")
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_prom_value(metric.value)}")
        elif metric.kind == "gauge":
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(metric.value)}")
        elif metric.kind == "histogram":
            assert isinstance(metric, Histogram)
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in metric.buckets():
                cumulative += count
                lines.append(
                    f'{name}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{name}_sum {_prom_value(metric.total)}")
            lines.append(f"{name}_count {metric.count}")
        else:  # pragma: no cover - future instrument kinds
            raise TypeError(f"unknown instrument kind {metric.kind!r}")
    return "\n".join(lines) + "\n"


class SnapshotSeries:
    """A schema-versioned series of probe snapshots.

    The probe appends one JSON-able dict per sampling point; ``write``
    persists the whole series with its schema tag and metadata, and
    ``load`` validates the document before handing it back.  The
    on-disk document is the contract between a recorded run and every
    later consumer (``tools/top --replay``, dashboards, diffing).
    """

    def __init__(self, interval: int, design: str = "",
                 meta: dict | None = None) -> None:
        if interval < 1:
            raise ValueError("snapshot interval must be >= 1 cycle")
        self.interval = interval
        self.design = design
        self.meta = dict(meta or {})
        self.snapshots: list[dict] = []

    def append(self, snapshot: dict) -> None:
        self.snapshots.append(snapshot)

    def to_dict(self) -> dict:
        return {
            "schema": SNAPSHOT_SCHEMA,
            "interval": self.interval,
            "design": self.design,
            "meta": self.meta,
            "snapshots": self.snapshots,
        }

    def write(self, path: str) -> dict:
        document = self.to_dict()
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return document

    @classmethod
    def from_dict(cls, document: dict) -> SnapshotSeries:
        validate_snapshot_document(document)
        series = cls(interval=document["interval"],
                     design=document.get("design", ""),
                     meta=document.get("meta", {}))
        series.snapshots = list(document["snapshots"])
        return series

    @classmethod
    def load(cls, path: str) -> SnapshotSeries:
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def validate_snapshot_document(document: dict) -> None:
    """Raise ValueError unless ``document`` is a valid snapshot series."""
    if not isinstance(document, dict):
        raise ValueError("snapshot document must be a JSON object")
    schema = document.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(f"unknown snapshot schema {schema!r} "
                         f"(expected {SNAPSHOT_SCHEMA!r})")
    interval = document.get("interval")
    if not isinstance(interval, int) or interval < 1:
        raise ValueError(f"bad snapshot interval {interval!r}")
    snapshots = document.get("snapshots")
    if not isinstance(snapshots, list):
        raise ValueError("snapshot document missing 'snapshots' list")
    last_cycle = -1
    for index, snapshot in enumerate(snapshots):
        if not isinstance(snapshot, dict) or "cycle" not in snapshot:
            raise ValueError(f"snapshot {index} missing 'cycle'")
        cycle = snapshot["cycle"]
        if not isinstance(cycle, int) or cycle <= last_cycle:
            raise ValueError(
                f"snapshot {index}: cycles must increase "
                f"({cycle!r} after {last_cycle})")
        last_cycle = cycle
