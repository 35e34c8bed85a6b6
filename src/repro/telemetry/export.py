"""Exporters: Prometheus text format and versioned JSON snapshots.

Two consumers, two formats:

- :func:`prometheus_text` renders a :class:`~repro.telemetry.probe.
  Probe`'s latest snapshot in the Prometheus exposition text format
  (v0.0.4): ``# HELP`` / ``# TYPE`` headers, counters with a ``_total``
  suffix, histograms as cumulative ``_bucket{le="..."}`` series plus
  ``_sum`` and ``_count`` — what a scrape endpoint would serve.
- :class:`SnapshotSeries` is the recorded-telemetry interchange file:
  a schema-versioned JSON document holding the probe's periodic
  snapshots, written by ``probe.series.write(path)`` and replayed
  deterministically by ``python -m repro.tools.top --replay``.

Both formats are pure functions of their inputs — same snapshots in,
byte-identical text out — which is what makes the replay determinism
test in CI meaningful.
"""

from __future__ import annotations

import json

SNAPSHOT_SCHEMA = "repro.telemetry.snapshots/1"

#: The scalars a scrape serves: (name, kind, help, snapshot field),
#: the field a dotted path into the probe's latest snapshot.  A field
#: the snapshot lacks (no Ethernet TX tile, say) is left out.
PROMETHEUS_SCALARS = (
    ("kernel.active_components", "gauge",
     "schedule entries in the active set", "kernel.active"),
    ("kernel.armed_timers", "gauge",
     "sleeping components with a wake cycle of their own",
     "kernel.armed_timers"),
    ("kernel.component_steps", "counter",
     "component step() calls executed", "kernel.component_steps"),
    ("kernel.idle_cycles_skipped", "counter",
     "cycles skipped by whole-design idle stretches",
     "kernel.idle_cycles_skipped"),
    ("latency.last_transit_cycles", "gauge",
     "most recent Ethernet-to-Ethernet transit", "latency.last_transit"),
    ("noc.busy_routers", "gauge",
     "routers with (possible) work this cycle", "busy_routers"),
    ("noc.flits_forwarded", "counter", "flits moved across all routers",
     "total_flits"),
    ("tiles.busy", "gauge", "tiles with (possible) work this cycle",
     "busy_tiles"),
    ("tiles.drops", "counter", "packets dropped across all tiles",
     "drops"),
)


def _prom_name(name: str) -> str:
    """Metric names use dots as namespacing; Prometheus wants [a-zA-Z0-9_:]."""
    return "".join(ch if ch.isalnum() or ch in "_:" else "_" for ch in name)


def _prom_value(value: object) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


def _field(snapshot: dict, path: str) -> object:
    *parents, leaf = path.split(".")
    for key in parents:
        snapshot = snapshot.get(key, {})
    return snapshot.get(leaf)


def prometheus_text(probe: object) -> str:
    """The probe's latest snapshot in Prometheus exposition text format.

    Every line is ``name{labels} value`` (labels only on histogram
    buckets).  Scalars come from :data:`PROMETHEUS_SCALARS` plus one
    counter per fault kind, distributions from the probe's histograms;
    metrics render in name order, so the output is a deterministic
    function of the probe's state.
    """
    snapshots = probe.series.snapshots
    snapshot = snapshots[-1] if snapshots else {}
    metrics = [(name, kind, text, _field(snapshot, field))
               for name, kind, text, field in PROMETHEUS_SCALARS]
    metrics += [(f"faults.{fault}", "counter", f"faults.{fault}", count)
                for fault, count in snapshot.get("faults", {}).items()]
    metrics = [metric for metric in metrics if metric[3] is not None]
    metrics += [(name, "histogram", hist.help, hist)
                for name, hist in probe.histograms.items()]
    lines: list[str] = []
    for metric_name, kind, help_text, value in sorted(
            metrics, key=lambda metric: metric[0]):
        name = _prom_name(f"repro_{metric_name}")
        if kind == "counter":
            name += "_total"
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        if kind != "histogram":
            lines.append(f"{name} {_prom_value(value)}")
            continue
        cumulative = 0
        for bound, count in value.buckets():
            cumulative += count
            lines.append(f'{name}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {value.count}')
        lines.append(f"{name}_sum {_prom_value(value.total)}")
        lines.append(f"{name}_count {value.count}")
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
