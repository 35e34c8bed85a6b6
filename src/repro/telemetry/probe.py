"""Periodic operational sampling — the always-on telemetry plane.

A :class:`Probe` is a clocked component that wakes every ``interval``
cycles, reads the design's operational state (it *never* writes any),
and feeds two sinks:

- a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters,
  gauges and p50/p99/p999 histograms — the scrape surface
  (:func:`repro.telemetry.export.prometheus_text` renders it);
- a :class:`~repro.telemetry.export.SnapshotSeries` of per-interval
  snapshots — the recorded-run surface ``python -m repro.tools.top``
  renders live or replays deterministically.

What a sample captures:

- queue depths and high-water marks on every tile's ejection FIFO and
  injection backlog (``StagedFifo.high_water`` /
  ``LocalPort.tx_backlog_high_water``), plus engine/rx occupancy;
- scheduler state from :meth:`CycleSimulator.stats` — active-set size,
  idle cycles skipped, cumulative component steps;
- fabric activity: per-link flit deltas since the previous sample
  (rate = delta / interval), the busy-router population (the flat
  backend's routers owning an active output, the object backend's
  non-idle count);
- :class:`~repro.faults.engine.FaultEngine` counters, when a plan is
  attached;
- end-to-end latency, two ways: the cheap
  ``eth_tx.last_transit_cycles`` gauge always, and — when a recording
  :class:`~repro.telemetry.trace.Tracer` is attached — exact
  per-packet latencies extracted *incrementally* from new tile spans
  (O(new spans) per sample, never a whole-trace rescan) and recorded
  into the ``latency.e2e_cycles`` histogram.

Null fast path: the contract mirrors :data:`~repro.telemetry.trace.
NULL_TRACER` and ``attach_faults(design, None)`` — ``attach_probe(
design, interval=None)`` attaches *nothing*: no component is added, no
state is wrapped, and the design's per-cycle cost is exactly what it
was.  An attached probe is read-only and timer-driven, so it never
changes simulated behaviour (the differential equivalence suite pins
this); its only cost is one kernel wake plus the sample walk every
``interval`` cycles.
"""

from __future__ import annotations

from repro.sim.kernel import Wakeable
from repro.telemetry.export import SnapshotSeries
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import percentile

DEFAULT_INTERVAL = 500


def _iter_tiles(design: object) -> list:
    tiles = design.tiles
    if isinstance(tiles, dict):
        return list(tiles.values())
    return list(tiles)


def _link_key(coord: object, port: object) -> str:
    return f"{coord}->{getattr(port, 'value', port)}"


class Probe(Wakeable):
    """The periodic sampler.  Build via :func:`attach_probe`."""

    name = "telemetry.probe"

    def __init__(self, design: object,
                 interval: int = DEFAULT_INTERVAL,
                 design_name: str = "") -> None:
        if interval < 1:
            raise ValueError("probe interval must be >= 1 cycle")
        self.design = design
        self.interval = interval
        self.registry = MetricsRegistry()
        self.series = SnapshotSeries(
            interval=interval,
            design=design_name or type(design).__name__,
            meta={"profile": getattr(design, "profile", "hand-built")},
        )
        self.samples_taken = 0
        self._next = design.sim.cycle + interval
        # Previous-sample state for delta-rate computation.
        self._prev_link_flits: dict[str, int] = {}
        self._prev_totals: dict[str, int] = {}
        # Incremental latency extraction (when a tracer records).
        self._span_index = 0
        self._first_end: dict[int, int] = {}
        self._dropped: set[int] = set()
        self._drop_index = 0

    # -- clocked component --------------------------------------------------

    def step(self, cycle: int) -> int:
        # Sampling is purely timer-driven: due again at the next sample.
        if cycle >= self._next:
            self._next = cycle + self.interval
            self.sample(cycle)
        return self._next

    # -- sampling -----------------------------------------------------------

    def _inc_to(self, counter_name: str, absolute: int, help: str = "") -> int:
        """Advance a monotonic counter to an absolute reading; the delta."""
        prev = self._prev_totals.get(counter_name, 0)
        delta = absolute - prev
        if delta > 0:
            self.registry.counter(counter_name, help).inc(delta)
            self._prev_totals[counter_name] = absolute
        return max(0, delta)

    def _sample_latencies(self) -> list[int]:
        """Latencies of packets that completed since the last sample.

        Mirrors ``Tracer.packet_latencies()``
        incrementally: a packet completes at its first *terminal* span
        (no outputs) after at least one earlier span, unless dropped.
        """
        tracer = self.design.sim.tracer
        if not tracer.enabled:
            return []
        drops = getattr(tracer, "drops", None)
        if drops is not None:
            for event in drops[self._drop_index:]:
                if event.packet_id is not None:
                    self._dropped.add(event.packet_id)
            self._drop_index = len(drops)
        spans = getattr(tracer, "spans", None)
        if spans is None:
            return []
        new: list[int] = []
        first_end = self._first_end
        for span in spans[self._span_index:]:
            pid = span.packet_id
            if pid is None:
                continue
            start = first_end.get(pid)
            if start is None:
                first_end[pid] = span.end
            elif span.outputs == 0 and pid not in self._dropped:
                new.append(span.end - start)
        self._span_index = len(spans)
        return new

    def sample(self, cycle: int) -> dict:
        """Take one snapshot now; returns the snapshot dict."""
        design = self.design
        registry = self.registry
        sim = design.sim

        kernel = sim.stats()
        registry.gauge("kernel.active_components",
                       "schedule entries in the active set"
                       ).set(kernel["active"])
        registry.gauge("kernel.armed_timers",
                       "timer-wheel entries").set(kernel["armed_timers"])
        self._inc_to("kernel.idle_cycles_skipped",
                     kernel["idle_cycles_skipped"],
                     "cycles skipped by whole-design idle stretches")
        self._inc_to("kernel.component_steps", kernel["component_steps"],
                     "component step() calls executed")

        # Fabric: per-link flit deltas + busy-router population.
        links: dict[str, int] = {}
        prev = self._prev_link_flits
        for coord, router in design.mesh.routers.items():
            for port, flits in router.flits_per_output.items():
                if not flits:
                    continue
                key = _link_key(coord, port)
                delta = flits - prev.get(key, 0)
                if delta:
                    links[key] = delta
                    prev[key] = flits
        total_flits = design.mesh.total_flits_forwarded
        self._inc_to("noc.flits_forwarded", total_flits,
                     "flits moved across all routers")
        core = getattr(design.mesh, "core", None)
        if core is not None:
            busy_routers = core.busy_routers
        else:
            busy_routers = sum(
                1 for router in design.mesh.routers.values()
                if any(fifo.occupancy for fifo in router.inputs.values()))
        registry.gauge("noc.busy_routers",
                       "routers with (possible) work this cycle"
                       ).set(busy_routers)

        # Busy-tile population: the flat tile core's busy-mask
        # popcount, or the tiles whose step would ask for the next
        # cycle as things stand; a tile that is no ``Tile`` (no
        # ``_due``) counts as not busy.  (Not ``sim.wake_cycle``: the
        # naive kernel schedules nothing, so every tile reads as due.)
        tile_core = getattr(design, "tile_core", None)
        if tile_core is not None:
            busy_tiles = tile_core.busy_tiles
        else:
            busy_tiles = 0
            for tile in _iter_tiles(design):
                due = getattr(tile, "_due", None)
                if due is not None and due() is None:
                    busy_tiles += 1
        registry.gauge("tiles.busy",
                       "tiles with (possible) work this cycle"
                       ).set(busy_tiles)

        # Tiles: depths, high-water marks, counter deltas.
        tiles: dict[str, dict] = {}
        depth_hist = registry.histogram(
            "queues.eject_depth", "sampled ejection FIFO depths")
        backlog_hist = registry.histogram(
            "queues.tx_backlog", "sampled injection backlogs")
        drops_total = 0
        for tile in _iter_tiles(design):
            port = getattr(tile, "port", None)
            eject = getattr(port, "eject_fifo", None)
            depth = len(eject) if eject is not None else 0
            backlog = port.tx_backlog if port is not None else 0
            depth_hist.record(depth)
            backlog_hist.record(backlog)
            drops_total += getattr(tile, "drops", 0)
            tiles[tile.name] = {
                "coord": list(tile.coord),
                "msgs_in": getattr(tile, "messages_in", 0),
                "msgs_out": getattr(tile, "messages_out", 0),
                "drops": getattr(tile, "drops", 0),
                "rx_ready": len(getattr(tile, "_rx_ready", ())),
                "buffered_flits": getattr(tile, "_buffered_flits", 0),
                "eject_depth": depth,
                "eject_hwm": getattr(eject, "high_water", 0),
                "tx_backlog": backlog,
                "tx_hwm": getattr(port, "tx_backlog_high_water", 0),
            }
        self._inc_to("tiles.drops", drops_total,
                     "packets dropped across all tiles")

        # Faults, when an engine is attached.
        faults = None
        engine = getattr(design, "fault_engine", None)
        if engine is not None:
            faults = dict(sorted(engine.counters.items()))
            for kind, count in faults.items():
                self._inc_to(f"faults.{kind}", count)

        # Latency: exact per-packet (tracer) + last-transit gauge.
        new_latencies = self._sample_latencies()
        latency_hist = registry.histogram(
            "latency.e2e_cycles",
            "end-to-end packet latency (first to last processing-end)")
        for value in new_latencies:
            latency_hist.record(value)
        latency = {
            "completed": len(new_latencies),
            "window_p50": percentile(new_latencies, 50),
            "window_max": max(new_latencies) if new_latencies else None,
            "p50": latency_hist.percentile(50),
            "p99": latency_hist.percentile(99),
            "p999": latency_hist.percentile(99.9),
        }
        transit = getattr(getattr(design, "eth_tx", None),
                          "last_transit_cycles", None)
        if transit is not None:
            registry.gauge("latency.last_transit_cycles",
                           "most recent Ethernet-to-Ethernet transit"
                           ).set(transit)
            latency["last_transit"] = transit

        snapshot = {
            "cycle": cycle,
            "kernel": kernel,
            "links": dict(sorted(links.items())),
            "busy_routers": busy_routers,
            "busy_tiles": busy_tiles,
            "total_flits": total_flits,
            "tiles": tiles,
            "latency": latency,
        }
        if faults:
            snapshot["faults"] = faults
        self.series.append(snapshot)
        self.samples_taken += 1
        return snapshot

    # -- persistence --------------------------------------------------------

    def write(self, path: str) -> dict:
        """Write the recorded snapshot series (replayable by tools/top)."""
        return self.series.write(path)


def attach_probe(design: object,
                 interval: int | None = DEFAULT_INTERVAL,
                 design_name: str = "") -> Probe | None:
    """Wire a periodic sampler into a design's simulator.

    ``interval=None`` is the null fast path: nothing is attached,
    nothing is wrapped, and ``None`` is returned — the same contract as
    ``attach_faults(design, None)``.  Otherwise the returned
    :class:`Probe` samples every ``interval`` cycles from now on; its
    ``registry`` and ``series`` hold the results.
    """
    if interval is None:
        return None
    probe = Probe(design, interval=interval, design_name=design_name)
    design.sim.add(probe)
    return probe
