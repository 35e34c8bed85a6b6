"""Cycle-level tracing, per-packet latency spans, and windowed metrics.

The paper's debugging story (section V-F) works because the hardware
exposes *when* things happened, not just how often.  This module is the
equivalent layer for the simulator: a :class:`Tracer` event bus that the
simulation kernel, NoC routers, local ports, and tiles publish into,
plus post-processing that turns the raw events into

- per-packet end-to-end latency spans, correlated across tiles by the
  ``packet_id`` propagated through :class:`repro.noc.message.NocMessage`;
- windowed time-series metrics (:class:`MetricsWindow`): link
  utilization, tile busy fraction, latency percentiles, drop counts
  per ``N``-cycle window;
- a Chrome trace-event JSON export (:func:`write_chrome_trace`)
  loadable in Perfetto / ``chrome://tracing``.

Cost model: every instrumentation site is guarded by
``if self.tracer.enabled:`` and the default tracer is the shared
:data:`NULL_TRACER` singleton, so an untraced run pays one attribute
test per event site and allocates nothing.

Latency definition: a packet's end-to-end latency is measured from the
*processing-end* of its first tile span to the processing-end of its
last — i.e. Ethernet-parse to Ethernet-emit, the same two timestamp
points the paper's section VII-C microbenchmark uses — so the tracer's
numbers agree with ``eth_tx.last_transit_cycles`` exactly.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro import params


class NullTracer:
    """The do-nothing tracer wired into every component by default.

    ``enabled`` is False, and every instrumented path tests it before
    calling a hook, so this tracer has no hooks: a recording
    :class:`Tracer` has them all.
    """

    __slots__ = ()
    enabled = False


#: Shared singleton default for every instrumented component.
NULL_TRACER = NullTracer()


@dataclass(slots=True)
class TileSpan:
    """One message's trip through one tile's processing engine."""

    tile: str
    coord: tuple
    msg_id: int
    packet_id: int | None
    received: int | None  # tail-flit arrival (None for MAC-side input)
    start: int            # engine pickup
    end: int              # transformed outputs emitted
    outputs: int = 0      # NoC messages emitted (0 = terminal tile)


@dataclass(slots=True)
class DropEvent:
    """A packet dropped at a tile, with the tile's stated reason."""

    cycle: int | None
    tile: str
    coord: tuple
    packet_id: int | None
    reason: str


@dataclass(slots=True)
class FaultEvent:
    """One injected fault, as published by a ``repro.faults`` engine."""

    cycle: int
    kind: str            # e.g. "wire.drop", "noc.stall", "tile.freeze"
    target: str | None   # tile name, port coord, ... (engine-defined)
    detail: str | None


class Tracer(NullTracer):
    """Records every published event for post-run analysis.

    Attach to a design with :func:`attach_tracer`.  Raw event lists are
    public; :meth:`packet_spans` / :meth:`packet_latencies` reconstruct
    the per-packet view, :class:`MetricsWindow` the windowed one.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[TileSpan] = []
        self.drops: list[DropEvent] = []
        self.link_flits: list[tuple[int, tuple, str]] = []
        self.link_stalls: list[tuple[int, tuple, str, str]] = []
        self.buffer_levels: list[tuple[int, str, int]] = []
        self.faults: list[FaultEvent] = []
        self.last_cycle = 0
        self._rx_pending: dict[tuple, int] = {}
        self._svc_pending: dict[tuple, tuple] = {}

    # -- hooks ------------------------------------------------------------

    def cycle_start(self, cycle: int) -> None:
        self.last_cycle = cycle

    def flit_forwarded(self, cycle: int, coord: tuple,
                       port: object, flit: object) -> None:
        self.link_flits.append((cycle, coord, port))

    def link_stall(self, cycle: int, coord: tuple,
                   port: object, kind: str) -> None:
        self.link_stalls.append((cycle, coord, port, kind))

    def message_received(self, cycle: int, tile: object,
                         message: object) -> None:
        self._rx_pending[(tile.name, message.msg_id)] = cycle

    def processing_start(self, cycle: int, tile: object,
                         message: object) -> None:
        key = (tile.name, message.msg_id)
        self._svc_pending[key] = (self._rx_pending.pop(key, None), cycle)

    def processing_end(self, cycle: int, tile: object,
                       message: object,
                       outputs: int = 0) -> None:
        key = (tile.name, message.msg_id)
        received, start = self._svc_pending.pop(key, (None, cycle))
        self.spans.append(TileSpan(
            tile=tile.name, coord=tile.coord, msg_id=message.msg_id,
            packet_id=message.packet_id, received=received, start=start,
            end=cycle, outputs=outputs,
        ))

    def buffer_level(self, cycle: int, tile: object,
                     flits: int) -> None:
        self.buffer_levels.append((cycle, tile.name, flits))

    def drop(self, cycle: int, tile: object, message: object,
             reason: str) -> None:
        self.drops.append(DropEvent(
            cycle=cycle, tile=tile.name, coord=tile.coord,
            packet_id=getattr(message, "packet_id", None), reason=reason,
        ))

    def fault(self, cycle: int, kind: str,
              target: str | None,
              detail: str | None = None) -> None:
        self.faults.append(FaultEvent(
            cycle=cycle, kind=kind, target=target, detail=detail,
        ))

    # -- per-packet reconstruction ---------------------------------------

    def packet_spans(self) -> dict[int, list[TileSpan]]:
        """Tile spans grouped by packet id, in processing order."""
        by_packet: dict[int, list[TileSpan]] = defaultdict(list)
        for span in self.spans:
            if span.packet_id is not None:
                by_packet[span.packet_id].append(span)
        for spans in by_packet.values():
            spans.sort(key=lambda s: (s.end, s.start))
        return dict(by_packet)

    def packet_latencies(self) -> dict[int, int]:
        """End-to-end cycles per packet (first to last processing-end).

        A packet needs at least two tile spans for a latency to exist,
        and only packets that finished their trip count: the last span
        must be *terminal* (the tile emitted no further NoC message — it
        consumed the packet or handed it to a MAC) and the packet must
        not have been dropped.
        """
        dropped = {event.packet_id for event in self.drops}
        return {
            packet_id: spans[-1].end - spans[0].end
            for packet_id, spans in self.packet_spans().items()
            if len(spans) >= 2 and spans[-1].outputs == 0
            and packet_id not in dropped
        }

    @property
    def horizon(self) -> int:
        """One past the last cycle any event was recorded on."""
        last = self.last_cycle
        if self.spans:
            last = max(last, max(span.end for span in self.spans))
        if self.link_flits:
            last = max(last, self.link_flits[-1][0])
        return last + 1


def attach_tracer(design: object,
                  tracer: Tracer | None = None) -> Tracer:
    """Wire ``tracer`` into a design's kernel, routers, ports and tiles.

    Returns the tracer (a fresh :class:`Tracer` if none was given).
    Must be called before the cycles of interest run; attaching
    mid-simulation is allowed and simply starts recording from there.
    """
    if tracer is None:
        tracer = Tracer()
    design.sim.tracer = tracer
    for router in design.mesh.routers.values():
        router.tracer = tracer
    for port in design.mesh.ports.values():
        port.tracer = tracer
    for tile in design.tiles.values():
        tile.tracer = tracer
    return tracer


# -- windowed metrics -------------------------------------------------------


def percentile(values: list, q: float) -> float | None:
    """Nearest-rank percentile (q in [0, 100]) of a sequence."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class WindowSample:
    """Aggregated metrics for one ``[start, end)`` cycle window."""

    start: int
    end: int
    link_util: dict        # (router coord, out port) -> busy fraction
    link_stalls: Counter   # (router coord, out port) -> stalled cycles
    tile_busy: dict        # tile name -> engine busy fraction
    latencies: list        # packets whose egress fell in this window
    p50: float | None
    p99: float | None
    p999: float | None
    drops: Counter         # drop reason -> count

    def to_dict(self) -> dict:
        """The window as a structured, JSON-able dict.

        Link/router keys are rendered ``"(x, y)->port"`` so the dict
        round-trips through JSON; this is the one source the report
        renderer and every exporter consume.
        """
        return {
            "start": self.start,
            "end": self.end,
            "link_util": {f"{coord}->{port}": util
                          for (coord, port), util
                          in sorted(self.link_util.items(),
                                    key=lambda item: repr(item[0]))},
            "link_stalls": {f"{coord}->{port}": count
                            for (coord, port), count
                            in sorted(self.link_stalls.items(),
                                      key=lambda item: repr(item[0]))},
            "tile_busy": dict(sorted(self.tile_busy.items())),
            "packets": len(self.latencies),
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "drops": dict(sorted(self.drops.items())),
        }


class MetricsWindow:
    """Time-series aggregation of a :class:`Tracer`'s raw events.

    Slices the run into ``window_cycles``-sized windows and computes,
    per window: per-link utilization (busy cycles / window), per-tile
    engine busy fraction, the latency distribution of packets that
    *completed* in the window (with p50/p99), and drop counts by
    reason.
    """

    def __init__(self, tracer: Tracer,
                 window_cycles: int = 500) -> None:
        if window_cycles < 1:
            raise ValueError("window_cycles must be >= 1")
        self.tracer = tracer
        self.window_cycles = window_cycles

    def _window_of(self, cycle: int) -> int:
        return cycle // self.window_cycles

    def samples(self) -> list[WindowSample]:
        """The per-window samples over everything recorded so far."""
        w = self.window_cycles
        horizon = self.tracer.horizon
        n_windows = max(1, math.ceil(horizon / w))

        link_busy = [Counter() for _ in range(n_windows)]
        for cycle, coord, port in self.tracer.link_flits:
            link_busy[self._window_of(cycle)][(coord, port)] += 1
        stalls = [Counter() for _ in range(n_windows)]
        for cycle, coord, port, _kind in self.tracer.link_stalls:
            stalls[self._window_of(cycle)][(coord, port)] += 1

        tile_busy = [Counter() for _ in range(n_windows)]
        for span in self.tracer.spans:
            # Clip the engine-busy interval [start, end) to each window.
            for index in range(self._window_of(span.start),
                               min(self._window_of(max(span.start,
                                                       span.end - 1)),
                                   n_windows - 1) + 1):
                lo = max(span.start, index * w)
                hi = min(span.end, (index + 1) * w)
                if hi > lo:
                    tile_busy[index][span.tile] += hi - lo

        latencies: list[list[int]] = [[] for _ in range(n_windows)]
        spans_by_packet = self.tracer.packet_spans()
        for packet_id, latency in self.tracer.packet_latencies().items():
            egress = spans_by_packet[packet_id][-1].end
            index = self._window_of(egress)
            if index < n_windows:
                latencies[index].append(latency)

        drops = [Counter() for _ in range(n_windows)]
        for event in self.tracer.drops:
            if event.cycle is not None:
                index = self._window_of(event.cycle)
                if index < n_windows:
                    drops[index][event.reason] += 1

        return [
            WindowSample(
                start=index * w,
                end=min((index + 1) * w, horizon),
                link_util={link: count / w
                           for link, count in link_busy[index].items()},
                link_stalls=stalls[index],
                tile_busy={tile: busy / w
                           for tile, busy in tile_busy[index].items()},
                latencies=latencies[index],
                p50=percentile(latencies[index], 50),
                p99=percentile(latencies[index], 99),
                p999=percentile(latencies[index], 99.9),
                drops=drops[index],
            )
            for index in range(n_windows)
        ]

    def latency_stats(self) -> dict:
        """Whole-run latency distribution: count, min/max, p50/p99/p999."""
        latencies = list(self.tracer.packet_latencies().values())
        return {
            "count": len(latencies),
            "min": min(latencies) if latencies else None,
            "max": max(latencies) if latencies else None,
            "p50": percentile(latencies, 50),
            "p99": percentile(latencies, 99),
            "p999": percentile(latencies, 99.9),
        }

    def to_dict(self) -> dict:
        """Every window plus the whole-run stats, as one structured dict.

        ``design_report`` renders its per-window table from exactly
        this structure, and the exporters serialise it unchanged — one
        source for both the human and the machine view.
        """
        return {
            "window_cycles": self.window_cycles,
            "windows": [sample.to_dict() for sample in self.samples()],
            "latency": self.latency_stats(),
        }


# -- Perfetto / chrome://tracing export -------------------------------------

_TILE_PID = 1
_NOC_PID = 2
_FAULT_PID = 3


def chrome_trace_events(tracer: Tracer,
                        window_cycles: int = 500) -> list[dict]:
    """The trace-event list for a run, sorted by timestamp.

    Timestamps are in cycles (one trace-clock microsecond per cycle, so
    Perfetto's time axis reads directly in cycles); each event's
    ``args`` carries the wall-clock nanoseconds at the modelled
    :data:`repro.params.CYCLE_TIME_S`.  Three-plus track types:

    - ``X`` complete events: one per tile span (per-message engine
      occupancy, labelled with the packet id);
    - ``C`` counter events: per-window link utilization on the NoC
      process, per-tile buffer occupancy on the tile process;
    - ``i`` instant events: drops, labelled with the drop reason.
    """
    cycle_ns = params.CYCLE_TIME_S * 1e9
    tile_tids: dict[str, int] = {}
    events: list[dict] = []

    def tid_for(tile: str, coord: tuple) -> int:
        if tile not in tile_tids:
            tile_tids[tile] = len(tile_tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "ts": 0,
                "pid": _TILE_PID, "tid": tile_tids[tile],
                "args": {"name": f"{tile} {coord}"},
            })
        return tile_tids[tile]

    events.append({"name": "process_name", "ph": "M", "ts": 0,
                   "pid": _TILE_PID, "tid": 0,
                   "args": {"name": "tiles"}})
    events.append({"name": "process_name", "ph": "M", "ts": 0,
                   "pid": _NOC_PID, "tid": 0,
                   "args": {"name": "noc links"}})
    if tracer.faults:
        events.append({"name": "process_name", "ph": "M", "ts": 0,
                       "pid": _FAULT_PID, "tid": 0,
                       "args": {"name": "faults"}})
        for fault in tracer.faults:
            label = (fault.kind if fault.target is None
                     else f"{fault.kind} @ {fault.target}")
            events.append({
                "name": label, "cat": "fault", "ph": "i",
                "ts": fault.cycle, "pid": _FAULT_PID, "tid": 0,
                "s": "p",
                "args": {"target": fault.target, "detail": fault.detail},
            })

    for span in tracer.spans:
        label = (f"pkt {span.packet_id}" if span.packet_id is not None
                 else f"msg {span.msg_id}")
        events.append({
            "name": label, "cat": "tile", "ph": "X",
            "ts": span.start, "dur": max(1, span.end - span.start),
            "pid": _TILE_PID, "tid": tid_for(span.tile, span.coord),
            "args": {
                "msg_id": span.msg_id,
                "received": span.received,
                "start_ns": span.start * cycle_ns,
            },
        })

    for event in tracer.drops:
        events.append({
            "name": f"drop: {event.reason}", "cat": "drop", "ph": "i",
            "ts": event.cycle if event.cycle is not None else 0,
            "pid": _TILE_PID, "tid": tid_for(event.tile, event.coord),
            "s": "t",
            "args": {"packet_id": event.packet_id},
        })

    for cycle, tile, level in tracer.buffer_levels:
        events.append({
            "name": f"{tile} buffer flits", "cat": "buffer", "ph": "C",
            "ts": cycle, "pid": _TILE_PID, "tid": 0,
            "args": {"flits": level},
        })

    metrics = MetricsWindow(tracer, window_cycles)
    for sample in metrics.samples():
        for (coord, port), util in sorted(sample.link_util.items(),
                                          key=lambda item: repr(item[0])):
            events.append({
                "name": f"link {coord} {port}", "cat": "link",
                "ph": "C", "ts": sample.start,
                "pid": _NOC_PID, "tid": 0,
                "args": {"util_pct": round(util * 100.0, 2)},
            })

    events.sort(key=lambda event: event["ts"])
    return events


def write_chrome_trace(tracer: Tracer, path: str,
                       window_cycles: int = 500) -> dict:
    """Write the Perfetto-loadable JSON for a traced run.

    Returns the document written (``traceEvents`` plus metadata).
    """
    document = {
        "traceEvents": chrome_trace_events(tracer, window_cycles),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "cycles (1 trace us = 1 cycle)",
            "cycle_ns": params.CYCLE_TIME_S * 1e9,
            "window_cycles": window_cycles,
        },
    }
    with open(path, "w") as handle:
        json.dump(document, handle)
    return document
