"""Live fault machinery: the wire, the schedule engine, attachment.

``attach_faults(design, plan)`` instantiates, from one
:class:`~repro.faults.plan.FaultPlan`:

- a :class:`FaultyWire` interposed on ``design.inject`` for wire
  impairments (drop/corrupt/duplicate/reorder/delay);
- per-port ejection fault state (flit corruption) consulted by
  :meth:`repro.noc.mesh.LocalPort.receive` — the staging shared by the
  object and flat mesh backends, so both observe bit-identical fault
  streams;
- a :class:`FaultEngine`, a clocked component owning the time-sorted
  event schedule (tile freeze/crash windows, link-stall windows), the
  fault counters, and the tracer feed.

Everything is deterministic per plan seed: wire draws happen in frame
injection order from one named stream, ejection draws in per-port flit
order from per-port streams, and scheduled events at fixed cycles —
none of which depend on the kernel or mesh backend in use.
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.faults.plan import FaultPlan, WireFaultSpec
from repro.sim.kernel import NEVER, Wakeable
from repro.sim.rng import SeededStreams


def _corrupt_payload(data: bytes, rng, n_bytes: int) -> bytes:
    """XOR ``n_bytes`` randomly chosen bytes with non-zero masks."""
    if not data:
        return data
    out = bytearray(data)
    for _ in range(n_bytes):
        index = rng.randrange(len(out))
        out[index] ^= rng.randrange(1, 256)
    return bytes(out)


class FaultyWire(Wakeable):
    """A lossy, reordering link between frame injection and the MAC.

    Frames offered through :meth:`inject` suffer the plan's wire
    impairments and are released to the underlying ``push`` callable in
    arrival order (a heap keyed by arrival cycle), modelling a physical
    link: a delayed frame is overtaken by later traffic instead of
    head-of-line blocking it.  Timer-only: a frame on the wire moves at
    its arrival cycle, which ``step`` returns, and ``inject`` wakes the
    wire for a new one.
    """

    def __init__(self, sim, push, spec: WireFaultSpec, rng, engine):
        self.sim = sim
        self._push = push
        self.spec = spec
        self.rng = rng
        self.engine = engine
        self._heap: list[tuple[int, int, bytes]] = []
        self._seq = 0
        self.frames_offered = 0
        self.frames_delivered = 0

    # -- injection side -----------------------------------------------------

    def inject(self, frame: bytes, cycle: int) -> None:
        """The design-facing replacement for ``design.inject``."""
        spec, rng, engine = self.spec, self.rng, self.engine
        self.frames_offered += 1
        arrival = cycle
        if spec.drop and rng.random() < spec.drop:
            engine.record("wire.drop", detail=len(frame))
            return
        if spec.corrupt and rng.random() < spec.corrupt:
            frame = _corrupt_payload(frame, rng, spec.corrupt_bytes)
            engine.record("wire.corrupt")
        duplicate = spec.duplicate and rng.random() < spec.duplicate
        if spec.reorder and rng.random() < spec.reorder:
            arrival += spec.reorder_cycles
            engine.record("wire.reorder")
        if spec.delay and rng.random() < spec.delay:
            arrival += rng.randint(*spec.delay_range)
            engine.record("wire.delay")
        self._schedule(arrival, frame)
        if duplicate:
            engine.record("wire.duplicate")
            self._schedule(arrival + spec.dup_delay_cycles, frame)

    def _schedule(self, arrival: int, frame: bytes) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (arrival, self._seq, frame))
        self._wake()

    # -- clocked behaviour --------------------------------------------------

    def step(self, cycle: int) -> int:
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            _, _, frame = heapq.heappop(heap)
            self.frames_delivered += 1
            self._push(frame, cycle)
        return heap[0][0] if heap else NEVER


class _EjectFault:
    """Per-port ejection impairment state, consulted by
    :meth:`repro.noc.mesh.LocalPort.receive` for every popped flit.

    One probability draw per ejected flit keeps the stream aligned
    across backends: the differential suite guarantees both backends
    eject identical flit sequences per port, so identical draws land
    on identical flits.
    """

    __slots__ = ("engine", "coord", "prob", "rng")

    def __init__(self, engine, coord, prob: float, rng):
        self.engine = engine
        self.coord = coord
        self.prob = prob
        self.rng = rng

    def filter(self, flit):
        from repro.noc.flit import FlitKind
        if self.rng.random() >= self.prob:
            return flit
        if flit.kind is not FlitKind.DATA or not flit.payload:
            # Only payload bytes rot; corrupting routing/metadata would
            # wedge the wormhole rather than model bit errors.
            return flit
        flit.payload = _corrupt_payload(bytes(flit.payload), self.rng, 1)
        self.engine.record("noc.flit_corrupt", target=self.coord,
                           detail=flit.msg_id)
        return flit


class FaultEngine(Wakeable):
    """The clocked owner of a design's fault schedule and counters.

    Registered after the design's own components, it applies due
    events during its ``step`` — so a fault landing "at cycle N"
    becomes visible to tiles from cycle N+1, identically under every
    kernel (timer wheel wakes it at exactly each event cycle).
    """

    def __init__(self, design, plan: FaultPlan):
        self.design = design
        self.plan = plan
        self.sim = design.sim
        self.counters: Counter = Counter()
        #: (cycle, kind, target, detail) for every recorded fault.
        self.log: list[tuple] = []
        self._events: list[tuple[int, int, object]] = []
        self._next = 0

    # -- schedule construction (attach time) --------------------------------

    def schedule(self, cycle: int, action) -> None:
        """Queue ``action(cycle)`` to run during the step at
        ``cycle``.  Insertion order breaks ties, deterministically."""
        self._events.append((cycle, len(self._events), action))

    def seal(self) -> None:
        self._events.sort(key=lambda event: (event[0], event[1]))

    # -- recording ----------------------------------------------------------

    def record(self, kind: str, target=None, detail=None) -> None:
        cycle = self.sim.cycle
        self.counters[kind] += 1
        self.log.append((cycle, kind, target, detail))
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.fault(cycle, kind, target, detail)

    # -- fault actions ------------------------------------------------------

    def _freeze(self, tile, cycle: int) -> None:
        tile._fault_frozen = True
        self.record("tile.freeze", target=tile.name)

    def _crash(self, tile, cycle: int) -> None:
        lost = len(tile._rx_ready)
        if tile._in_service is not None:
            lost += 1
            tile._in_service = None
        if lost:
            tile.drops += lost
            tile.drop_reasons["fault: crash"] += lost
            self.counters["tile.crash_lost_msgs"] += lost
        tile._rx_ready.clear()
        tile._buffered_flits = 0
        tile._fault_frozen = True
        self.record("tile.crash", target=tile.name, detail=lost)

    def _thaw(self, tile, cycle: int) -> None:
        tile._fault_frozen = False
        # Kernel-wake-safe resume: a tile that slept through the whole
        # window re-enters the active set and re-derives its timers.
        # ``_wake`` routes through whatever hook owns the tile — the
        # scheduled kernel's waker, a flat tile core's busy-bit setter,
        # or nothing under the naive kernel (which steps everything).
        tile._wake()
        self.record("tile.thaw", target=tile.name)

    def _stall(self, port, cycle: int) -> None:
        port.fault_stalled = True
        self.record("noc.stall", target=port.coord)

    def _unstall(self, port, cycle: int) -> None:
        port.fault_stalled = False
        self.record("noc.unstall", target=port.coord)

    def _misroute_on(self, router, cycle: int) -> None:
        router.fault_misroute(True)
        self.record("noc.misroute_on", target=router.coord)

    def _misroute_off(self, router, cycle: int) -> None:
        router.fault_misroute(False)
        self.record("noc.misroute_off", target=router.coord)

    def _grant_stick(self, router, out_index: int, cycle: int) -> None:
        router.fault_block_output(out_index, True)
        self.record("noc.stuck_grant", target=router.coord,
                    detail=out_index)

    def _grant_release(self, router, out_index: int,
                       cycle: int) -> None:
        router.fault_block_output(out_index, False)
        self.record("noc.grant_release", target=router.coord,
                    detail=out_index)

    # -- clocked behaviour --------------------------------------------------

    def step(self, cycle: int) -> int:
        events = self._events
        while self._next < len(events) and events[self._next][0] <= cycle:
            _, _, action = events[self._next]
            self._next += 1
            action(cycle)
        return events[self._next][0] if self._next < len(events) else NEVER


def _iter_tiles(design):
    tiles = design.tiles
    if isinstance(tiles, dict):
        return list(tiles.values())
    return list(tiles)


def attach_faults(design, plan: FaultPlan | None):
    """Wire a :class:`FaultPlan` into an instantiated design.

    Returns the design's :class:`FaultEngine`, or ``None`` for a null
    plan (the fast path: nothing is installed, the design runs the
    exact pre-fault code paths).  Design constructors call this for
    their ``fault_plan=`` kwarg; it equally works post-construction on
    any design exposing ``sim``/``mesh``/``tiles``/``inject``.
    """
    design.fault_plan = plan
    if plan is None or plan.is_null:
        if getattr(design, "fault_engine", None) is None:
            design.fault_engine = None
        return None
    if getattr(design, "fault_engine", None) is not None:
        raise ValueError("design already has a fault plan attached")

    streams = SeededStreams(plan.seed)
    engine = FaultEngine(design, plan)

    tiles = {tile.name: tile for tile in _iter_tiles(design)}
    for kind, name, at, duration in plan.tile_events:
        tile = tiles.get(name)
        if tile is None:
            raise KeyError(
                f"fault plan targets unknown tile {name!r} "
                f"(design has {sorted(tiles)})")
        apply = engine._crash if kind == "crash" else engine._freeze
        engine.schedule(at, lambda c, t=tile, a=apply: a(t, c))
        engine.schedule(at + duration,
                        lambda c, t=tile: engine._thaw(t, c))

    ports = design.mesh.ports
    for coord, at, duration in plan.stall_windows:
        port = ports.get(coord)
        if port is None:
            raise KeyError(
                f"fault plan stalls unattached port {coord!r} "
                f"(attached: {sorted(ports)})")
        engine.schedule(at, lambda c, p=port: engine._stall(p, c))
        engine.schedule(at + duration,
                        lambda c, p=port: engine._unstall(p, c))

    routers = design.mesh.routers
    for kind, coord, port_index, at, duration in plan.router_events:
        router = routers.get(tuple(coord))
        if router is None:
            raise KeyError(
                f"fault plan targets unknown router {coord!r} "
                f"(mesh has {sorted(routers)})")
        if kind == "misroute":
            engine.schedule(at, lambda c, r=router:
                            engine._misroute_on(r, c))
            engine.schedule(at + duration, lambda c, r=router:
                            engine._misroute_off(r, c))
        else:
            engine.schedule(at, lambda c, r=router, o=port_index:
                            engine._grant_stick(r, o, c))
            engine.schedule(at + duration,
                            lambda c, r=router, o=port_index:
                            engine._grant_release(r, o, c))

    for coords, prob in plan.eject_corrupt:
        if not prob:
            continue
        targets = sorted(ports) if coords is None else coords
        for coord in targets:
            port = ports.get(tuple(coord))
            if port is None:
                raise KeyError(
                    f"fault plan corrupts unattached port {coord!r}")
            port._fault_eject = _EjectFault(
                engine, tuple(coord), prob,
                streams.stream(f"eject{tuple(coord)}"))

    if plan.wire_spec is not None and plan.wire_spec.active:
        wire = FaultyWire(design.sim, design.inject, plan.wire_spec,
                          streams.stream("wire"), engine)
        design.fault_wire = wire
        design.sim.add(wire)
        # Shadow the bound method: all existing callers (tests, peers,
        # FrameSource) now route through the lossy wire.
        design.inject = wire.inject

    engine.seal()
    design.sim.add(engine)
    design.fault_engine = engine
    return engine
