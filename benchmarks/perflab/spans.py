"""Span recording from outside the program.

A span is (name, start, end, parent). ``SpanRecorder.wrap`` turns any
callable into one that records a span around each call; ``install``
shadows, on one built design instance, the bound methods the kernel
calls each cycle, so nothing under ``src/`` knows it is being timed.
This is the technique of ``repro.telemetry.hostprof`` but owned by the
benchmark, so that module can be replaced without touching this one.

Spans live in four parallel ``array('q')`` columns (32 bytes a span,
so the million spans of a traced rep cost tens of MiB, not hundreds)
and are aggregated after the run: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

#: Layer of a registered simulator component, by the module that
#: defines its class. Anything else the kernel steps is ``unattributed``.
COMPONENT_LAYERS = {
    "repro.noc.flatmesh": "noc.flatmesh",
    "repro.tiles.flatcore": "tiles.flatcore",
    "repro.designs.harness": "designs.harness",
    "repro.loadgen.source": "loadgen",
    "repro.tcp.peer": "tcp.peer",
    "repro.faults.engine": "faults",
}

#: Codec entry points charged to the ``packet`` layer. Consumers import
#: them by value, so every module-global alias is patched, not only the
#: defining module's.
PACKET_FUNCTIONS = ("parse_frame", "build_ipv4_udp_frame",
                    "build_tcp_frame", "internet_checksum")
PACKET_HEADER_METHODS = ("pack", "pack_with_checksum")


class SpanRecorder:
    """In-memory span store with exclusive-time aggregation."""

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """A callable that records one ``name`` span around ``fn``."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id, start, end, parent = \
            self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = self.clock

        def span(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span

    # -- patching -----------------------------------------------------------

    def _patch(self, owner: object, attribute: str, name: str) -> None:
        original = getattr(owner, attribute, None)
        if original is None or hasattr(original, "__wrapped__"):
            return
        # A bound method found on the instance's class is shadowed on
        # the instance and un-shadowed by deletion; anything already in
        # the owner's own namespace (module globals, class attributes)
        # is replaced and later put back.
        own = attribute in vars(owner)
        setattr(owner, attribute, self.wrap(name, original))
        self._patches.append((owner, attribute, original, own))

    def install(self, design, components=()) -> SpanRecorder:
        """Shadow the per-cycle call sites of one built design.

        ``components`` are simulator components the caller registered
        itself; they matter only when the kernel's list is out of reach.
        """
        sim = design.sim
        self._patch(sim, "run", "sim.kernel.run")
        self._patch(sim, "run_until", "sim.kernel.run")
        self._patch(sim, "tick", "sim.kernel.tick")
        # Every registered component gets a span, so time in one this
        # file has never heard of is reported, not folded into the
        # kernel's self time. The list is private to the kernel; without
        # it the two cores that dominate are still found by attribute.
        registered = getattr(sim, "_components", None)
        if registered is None:
            registered = [getattr(design.mesh, "core", None),
                          getattr(design, "tile_core", None), *components]
        for component in registered:
            if component is None:
                continue
            layer = COMPONENT_LAYERS.get(type(component).__module__,
                                         "unattributed")
            self._patch(component, "step", f"{layer}.step")
            # Only the mesh does real work at commit; everyone else's is
            # a no-op whose call is the kernel's cost, and a span around
            # it would cost more than the call.
            if layer in ("noc.flatmesh", "unattributed"):
                self._patch(component, "commit", f"{layer}.commit")
        tiles = design.tiles
        for tile in (tiles.values() if isinstance(tiles, dict) else tiles):
            # handle_message runs for every tile; the flat core calls
            # step() only on tiles it keeps in object mode, whose
            # _pump_* bodies are handler-side work, not engine work.
            self._patch(tile, "handle_message", "tiles.handlers.message")
            self._patch(tile, "step", "tiles.handlers.pump")
        self._patch_packet_codecs()
        return self

    def _patch_packet_codecs(self) -> None:
        from repro.packet import builder, checksum
        from repro.packet.ethernet import EthernetHeader
        from repro.packet.ipv4 import IPv4Header
        from repro.packet.tcp import TcpHeader
        from repro.packet.udp import UdpHeader

        targets = {id(vars(module)[name]): name
                   for module in (builder, checksum)
                   for name in PACKET_FUNCTIONS if name in vars(module)}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(
                    ("repro.", __package__)):
                continue
            for attribute, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is not None:
                    self._patch(module, attribute, f"packet.{name}")
        for header in (EthernetHeader, IPv4Header, UdpHeader, TcpHeader):
            for method in PACKET_HEADER_METHODS:
                if method in vars(header):
                    self._patch(header, method, f"packet.{method}")

    def uninstall(self) -> None:
        """Undo every patch (idempotent)."""
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def aggregate(self, cost: tuple[float, float] = (0.0, 0.0)
                  ) -> dict[str, dict]:
        """Per-name ``calls`` / ``total_ns`` / ``self_ns``.

        ``self_ns`` is duration minus direct children. ``cost`` is
        :func:`span_cost`'s ``(inside, outside)``: what recording one
        span adds to its own duration and to its parent's self time.
        Both are taken back out, or a layer that makes many cheap calls
        (the kernel, five children a tick) would be charged for the
        recorder's work. With no cost, self times sum to exactly the
        time the root spans cover.
        """
        inside, outside = cost
        count = len(self.start)
        child_ns = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child_ns[up] += end[index] - start[index] + outside
        rows = [{"calls": 0, "total_ns": 0, "self_ns": 0}
                for _ in self.names]
        name_id = self.name_id
        for index in range(count):
            row = rows[name_id[index]]
            duration = end[index] - start[index]
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += max(0.0, duration - child_ns[index] - inside)
        return dict(zip(self.names, rows))

    def write_chrome_trace(self, path, limit: int) -> int:
        """Dump the first ``limit`` spans as Chrome-trace JSON."""
        limit = min(limit, len(self.start))
        origin = self.start[0] if limit else 0
        events = [
            {"name": self.names[self.name_id[i]], "ph": "X", "pid": 1,
             "tid": 1, "ts": (self.start[i] - origin) / 1000.0,
             "dur": (self.end[i] - self.start[i]) / 1000.0}
            for i in range(limit)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ns"}, handle)
        return limit


def span_cost(batches: int = 5, calls: int = 4_000) -> tuple[float, float]:
    """``(inside_ns, outside_ns)``: what recording one span costs.

    ``inside`` lands between the span's own two clock readings;
    ``outside`` (the bookkeeping before the first and after the second)
    lands in its parent. Each is the median over a few batches of
    spans around a function that does nothing.
    """
    def nothing():
        pass

    inside, outside = [], []
    for _ in range(batches):
        probe = SpanRecorder()
        child = probe.wrap("probe.child", nothing)
        began = perf_counter_ns()
        for _ in range(calls):
            nothing()
        middle = perf_counter_ns()
        for _ in range(calls):
            child()
        ended = perf_counter_ns()
        within = sum(probe.end) - sum(probe.start)
        inside.append(within / calls)
        outside.append(
            max(0.0, ((ended - middle) - (middle - began) - within) / calls))
    inside.sort()
    outside.sort()
    return inside[batches // 2], outside[batches // 2]


def layer_totals(rows: dict[str, dict]) -> dict[str, dict]:
    """Fold span names (``layer.site``) into layers.

    ``noc.flatmesh.step`` and ``noc.flatmesh.commit`` stay separate
    because the issue reports them separately; every other name drops
    its last dotted part.
    """
    layers: dict[str, dict] = {}
    for name, row in rows.items():
        layer = name if name.startswith("noc.flatmesh.") \
            else name.rsplit(".", 1)[0]
        into = layers.setdefault(
            layer, {"calls": 0, "total_ns": 0, "self_ns": 0})
        for key in into:
            into[key] += row[key]
    return layers
