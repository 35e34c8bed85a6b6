"""Live fault machinery: the wire, the schedule engine, attachment.

``attach_faults(design, plan)`` instantiates, from one
:class:`~repro.faults.plan.FaultPlan`:

- a :class:`FaultyWire` interposed on ``design.inject`` for wire
  impairments (drop/corrupt/duplicate/reorder/delay);
- per-port ejection fault state (flit corruption) consulted by
  :meth:`repro.noc.mesh.LocalPort.receive` — the staging shared by the
  object and flat mesh backends, so both observe bit-identical fault
  streams;
- a :class:`FaultEngine`, a clocked component that opens and closes
  each of the plan's windows on its cycles, and owns the fault
  counters and the tracer feed.

Everything is deterministic per plan seed: wire draws happen in frame
injection order from one named stream, ejection draws in per-port flit
order from per-port streams, and scheduled events at fixed cycles —
none of which depend on the kernel or mesh backend in use.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import partial

from repro.faults.plan import _ROUTER_PORTS, FaultPlan, WireFaultSpec
from repro.sim.kernel import NEVER, Wakeable
from repro.sim.rng import SeededStreams

CORRUPT_BYTES = 1       # bytes XORed per corrupted frame
DUP_DELAY_CYCLES = 1    # a duplicate arrives this long after the original
REORDER_CYCLES = 64     # a reordered frame is held back this long


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

    def __init__(self, push, spec: WireFaultSpec, rng, engine):
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
            frame = _corrupt_payload(frame, rng, CORRUPT_BYTES)
            engine.record("wire.corrupt")
        duplicate = spec.duplicate and rng.random() < spec.duplicate
        if spec.reorder and rng.random() < spec.reorder:
            arrival += REORDER_CYCLES
            engine.record("wire.reorder")
        if spec.delay and rng.random() < spec.delay:
            arrival += rng.randint(*spec.delay_range)
            engine.record("wire.delay")
        self._schedule(arrival, frame)
        if duplicate:
            engine.record("wire.duplicate")
            self._schedule(arrival + DUP_DELAY_CYCLES, frame)

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
    kernel (the scheduled one wakes it at exactly each event cycle: its
    ``step`` answers with the next event's cycle).
    """

    def __init__(self, sim):
        self.sim = sim
        self.counters: Counter = Counter()
        #: (cycle, kind, target, detail) for every recorded fault.
        self.log: list[tuple] = []
        #: (cycle, insertion order, action) still to run, latest
        #: first; insertion order breaks ties, deterministically.
        self._events: list[tuple[int, int, partial]] = []

    # -- recording ----------------------------------------------------------

    def record(self, kind: str, target=None, detail=None) -> None:
        cycle = self.sim.cycle
        self.counters[kind] += 1
        self.log.append((cycle, kind, target, detail))
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.fault(cycle, kind, target, detail)

    # -- fault windows: each method opens one with ``on``, closes without --

    def _freeze(self, tile, on: bool) -> None:
        tile._fault_frozen = on
        if on:
            self.record("tile.freeze", target=tile.name)
            return
        # Kernel-wake-safe resume: a tile that slept through the whole
        # window re-enters the active set and re-derives its timers.
        # ``_wake`` routes through whatever hook owns the tile — the
        # scheduled kernel's waker, a flat tile core's busy-bit setter,
        # or nothing under the naive kernel (which steps everything).
        tile._wake()
        self.record("tile.thaw", target=tile.name)

    def _crash(self, tile, on: bool) -> None:
        if not on:
            return self._freeze(tile, False)
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

    def _stall(self, port, on: bool) -> None:
        port.fault_stalled = on
        self.record("noc.stall" if on else "noc.unstall",
                    target=port.coord)

    def _misroute(self, router, on: bool) -> None:
        router.fault_misroute(on)
        self.record("noc.misroute_on" if on else "noc.misroute_off",
                    target=router.coord)

    def _stuck_grant(self, output, on: bool) -> None:
        router, index = output
        router.fault_block_output(index, on)
        self.record("noc.stuck_grant" if on else "noc.grant_release",
                    target=router.coord, detail=index)

    # -- clocked behaviour --------------------------------------------------

    def step(self, cycle: int) -> int:
        events = self._events
        while events and events[-1][0] <= cycle:
            events.pop()[2]()
        return events[-1][0] if events else NEVER


def _find(table: dict, key, missing: str):
    """``table[key]``, or a ``KeyError`` naming ``key`` and the table."""
    if key not in table:
        raise KeyError(missing.format(key, sorted(table)))
    return table[key]


def _tile(design, name):
    return _find(design.tiles, name,
                 "fault plan targets unknown tile {!r} (design has {})")


def _port(design, coord):
    return _find(design.mesh.ports, coord,
                 "fault plan stalls unattached port {!r} (attached: {})")


def _router(design, coord):
    return _find(design.mesh.routers, coord,
                 "fault plan targets unknown router {!r} (mesh has {})")


def _output(design, target):
    coord, port = target
    return _router(design, coord), _ROUTER_PORTS[port]


#: window kind -> (what its plan target names on a design, the engine
#: method that opens and closes it).
_WINDOW_KINDS = {
    "freeze": (_tile, FaultEngine._freeze),
    "crash": (_tile, FaultEngine._crash),
    "stall": (_port, FaultEngine._stall),
    "misroute": (_router, FaultEngine._misroute),
    "stuck_grant": (_output, FaultEngine._stuck_grant),
}


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
    engine = FaultEngine(design.sim)

    events = engine._events
    for kind, target, at, duration in plan.windows:
        find, method = _WINDOW_KINDS[kind]
        found = find(design, target)
        for cycle, on in ((at, True), (at + duration, False)):
            events.append((cycle, len(events),
                           partial(method, engine, found, on)))
    events.sort(reverse=True)

    ports = design.mesh.ports
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
        wire = FaultyWire(design.inject, plan.wire_spec,
                          streams.stream("wire"), engine)
        design.fault_wire = wire
        design.sim.add(wire)
        # Shadow the bound method: all existing callers (tests, peers,
        # FrameSource) now route through the lossy wire.
        design.inject = wire.inject

    design.sim.add(engine)
    design.fault_engine = engine
    return engine
