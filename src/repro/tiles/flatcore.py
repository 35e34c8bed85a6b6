"""Flat tile engine: batch-step a design's tiles as one kernel component.

``repro.noc.flatmesh`` showed the shape: replace N scheduled Python
objects with one array-of-struct core that keeps a busy bitmask, steps
only the members with work, and preserves the object API through
read-only views.  :class:`FlatTileCore` applies the same recipe to the
tile layer — under the ``reference`` profile every tile is its own
schedule entry paying kernel dispatch, contract checks, and two
``_pump_*`` method calls per cycle; under ``fast`` the whole protocol
pipeline is one entry whose step inlines the pump bodies for tiles in
the busy mask only.  The core only ever runs over a flat mesh: a tile
whose port no :class:`~repro.noc.flatmesh.FlatMeshCore` steps is
refused at :meth:`FlatTileCore.adopt`.

Correctness contract
--------------------

The core replicates :class:`repro.tiles.base.Tile` semantics *exactly*
(same guard order, same counter updates, same tracer events in the same
within-cycle order) so the differential equivalence suite holds
bit-identically between individually registered tiles and the core:

- Tiles stay the source of truth for all mutable state (``_rx_ready``,
  ``_in_service``, ``_buffered_flits``, counters, ...).  The core owns
  only scheduling state: the busy bitmask, per-tile armed deadlines,
  and a timer heap.  Telemetry (``design_counters``, the probe) and the
  fault engine keep reading and mutating tiles directly.
- Adoption order is registration order, and the busy mask is iterated
  LSB-first, so trace events appear in the same order as per-tile
  stepping.
- **The in-core wake rule** is the kernel's (DESIGN.md 5c), applied
  between the tiles of one core: a tile woken during the walk by a
  tile *earlier* in adoption order steps in this cycle (stepping every
  tile in order would have run it after the waker, with the change in
  view), one woken by a *later* tile keeps its bit for the next.  The
  walk therefore re-reads the busy bits above the current tile after
  the two places a tile runs code that can wake another — an
  object-mode ``step`` and a ``handle_message`` — and nowhere else:
  nothing is added per pumped flit.  The TCP RX engine (adopted before
  the TX engine) queueing an ACK over the dedicated wires is the
  shipped case: the sleeping TX engine sends it in that same cycle.
- **The dispatch rule**, one for every hook the walk inlines: the
  walk runs ``Tile``'s own body of a hook only when neither the tile's
  class nor the tile itself replaces it; otherwise it calls the hook
  through the instance, as ``Tile.step`` would.  The engine-internal
  hooks (``on_cycle``, ``_due``, ``_pump_process``, ...) are judged
  once, at adoption: a tile that replaces any of them falls back to
  *object mode* — the core calls its ``step`` instead of the inlined
  fast path and takes the cycle it returns as the kernel would, so
  such tiles (of the shipped ones, the TCP TX engine and the
  controller) keep working unchanged and sleep whenever their own
  contract says so; a tile that returns
  :data:`~repro.sim.kernel.NEVER` also voids a timer it armed earlier,
  as the kernel's ``wake_at`` would.  ``service_cycles`` is the one
  per-message hook inlined: its class is judged at adoption and the
  tile's instance ``__dict__`` at every message, so an instance-level
  patch on a built design counts from the next message on (a patch on
  the class after adoption is not seen: patch the tile).
  ``handle_message``, ``send`` and ``drop`` are never inlined.
- Each adopted tile gets a ``_kernel_wake`` hook that sets its busy bit
  (and wakes the core), and the core registers the tiles' ejection
  FIFOs as its own ``wake_sources`` — so frame injection, router
  ejection, and fault thaw re-activate exactly the tiles they touch,
  under both the scheduled and naive kernels.
- **Busy-bit invariant:** a tile whose ejection FIFO holds anything
  has its busy bit set (``_busy == 0`` implies every FIFO is empty).
  The flat mesh relies on it — it fires a FIFO's wake hooks only when
  it ejects into an empty one — so it holds unconditionally: an
  object-mode tile's bit is cleared only if its ``step`` returned a
  cycle *and* the FIFO is empty, whatever a subclass's ``_due`` looks
  at.
  :meth:`FlatTileCore.check_invariants` checks it.

A visit reads one per-tile record, ``_fabric[i]``: the tile, its port,
the ejection FIFO and its committed queue (which keeps its identity for
the FIFO's life, and is all the FIFO holds: the flat mesh stages
nothing), the reassembler, the flat mesh core stepping the port, two
flags fixed at adoption (inlined pumps? a class with the default
``service_cycles``?) and the tile's instance ``__dict__``, where the
walk looks for an instance-level ``service_cycles``.
Flit counts and the injection backlog are computed inline, not through
the ``n_flits`` / ``tx_backlog`` properties.  The FIFO holds int
handles (``repro.noc.flit``) and the inlined receive is
``LocalPort.pop_flit(cycle)`` plus the handle branch of
``LocalPort.receive``: leave a flit ejected this very cycle alone, pop,
count, keep the high-water mark, check the framing, take the message
from the mesh core's table on the tail — no chunk list, no join.  A
port with a fault filter, which wants to see ``Flit`` objects, goes
through ``port.receive(cycle)`` itself.

Scheduling contract (``repro.sim.kernel``): the core lists the tiles
as ``kernel_substeps()`` so the linter treats them as
registered-by-proxy, and its ``step`` returns when it is next due from
its own busy mask and timer heap (None while any bit is set, else the
earliest live timer) — mirroring, tile by tile, what the kernel would
have computed for individually registered tiles.
"""

from __future__ import annotations

import heapq

from repro.noc.flit import HANDLE_HEAD, HANDLE_SEQ_SHIFT
from repro.noc.mesh import handle_framing_error
from repro.noc.message import next_packet_id
from repro.params import FLIT_BYTES
from repro.sim.kernel import NEVER, CycleSimulator, Wakeable
from repro.tiles.base import Tile

# The dispatch rule (module docstring): ``Tile``'s body of a hook is
# inlined only when neither the class nor the instance replaces it.  A
# tile gets the inlined pumps only if the rule holds, at adoption, for
# every engine-internal hook below.  ``service_cycles`` is judged per
# message instead (its instance half); ``handle_message`` / ``send`` /
# ``drop`` are always called through the instance, so replacing any of
# those four does not disqualify a tile.
_ENGINE_HOOKS = (
    "step", "commit", "on_cycle", "_due", "_engine_due",
    "wake_sources", "_pump_eject", "_pump_process", "_begin_service",
    "_finish_service",
)
_FAST_CLASS_CACHE: dict[type, bool] = {}


def _is_fast(tile: Tile) -> bool:
    """Whether ``tile`` runs on the inlined pumps (the rule, applied
    to every engine-internal hook; the class half is cached)."""
    cls = type(tile)
    fast = _FAST_CLASS_CACHE.get(cls)
    if fast is None:
        fast = all(
            getattr(cls, hook) is getattr(Tile, hook)
            for hook in _ENGINE_HOOKS
        )
        _FAST_CLASS_CACHE[cls] = fast
    return fast and vars(tile).keys().isdisjoint(_ENGINE_HOOKS)


class FlatTileView:
    """Read-only per-tile window into a :class:`FlatTileCore`.

    The adapter the dashboards/probe use to see core-side scheduling
    state (busy bit, armed deadline, dispatch mode) next to the
    tile-side queue state — same pattern as ``flatmesh.FlatRouterView``.
    """

    __slots__ = ("_core", "index")

    def __init__(self, core: FlatTileCore, index: int):
        self._core = core
        self.index = index

    @property
    def tile(self) -> Tile:
        return self._core.tiles[self.index]

    @property
    def name(self) -> str:
        return self.tile.name

    @property
    def kind(self) -> str:
        return getattr(self.tile, "KIND", "generic")

    @property
    def busy(self) -> bool:
        return bool((self._core._busy >> self.index) & 1)

    @property
    def mode(self) -> str:
        """``"fast"`` (inlined pumps) or ``"object"`` (delegated step)."""
        return "fast" if self._core._fabric[self.index][6] else "object"

    @property
    def armed_deadline(self) -> int | None:
        deadline = self._core._deadlines[self.index]
        return None if deadline < 0 else deadline

    @property
    def rx_depth(self) -> int:
        return len(self.tile._rx_ready)

    @property
    def eject_depth(self) -> int:
        return len(self.tile.port.eject_fifo)

    def __repr__(self) -> str:
        return (f"FlatTileView({self.name!r}, kind={self.kind!r}, "
                f"mode={self.mode!r}, busy={self.busy})")


class FlatTileCore(Wakeable):
    """Array-of-struct engine batch-stepping a design's tiles.

    Build with :func:`register_tiles` (or ``adopt`` tiles manually,
    then ``sim.add(core)``).  The core is one clocked component; the
    adopted tiles must *not* also be registered with the simulator —
    the linter's BHV106 flags that double-step.
    """

    def __init__(self, name: str = "flattiles"):
        self.name = name
        self.tiles: list[Tile] = []
        self._ejects: list = []
        # Per-tile hot-path record, indexed by tile bit: (tile, port,
        # eject, eject._items, assembler, mesh_core, fast,
        # default_service, vars(tile)) — one list lookup per busy tile
        # per cycle.
        self._fabric: list[tuple] = []
        # Scheduling state: busy bitmask (bit i == tiles[i] must step),
        # per-tile armed deadline (-1 when unarmed), timer heap of
        # (deadline, index) with lazy invalidation — the same shape the
        # kernel uses for individually registered components.
        self._busy = 0
        self._deadlines: list[int] = []
        self._timers: list[tuple[int, int]] = []
        self._index_of: dict[str, int] = {}
        self.by_kind: dict[str, list[int]] = {}

    # -- construction -------------------------------------------------------

    def adopt(self, tile: Tile) -> int:
        """Take over stepping for ``tile``; returns its index."""
        if not isinstance(tile, Tile):
            raise TypeError(f"FlatTileCore can only adopt Tiles, "
                            f"got {type(tile).__name__}")
        if tile.port._core is None:
            raise TypeError(
                f"FlatTileCore can only adopt tiles on a FlatMesh, but "
                f"no FlatMeshCore steps the port of {tile.name!r}: "
                "register it with the simulator on its own")
        index = len(self.tiles)
        bit = 1 << index
        self.tiles.append(tile)
        cls = type(tile)
        eject = tile.port.eject_fifo
        self._ejects.append(eject)
        self._fabric.append((
            tile, tile.port, eject, eject._items,
            tile.port._assembler, tile.port._core, _is_fast(tile),
            cls.service_cycles is Tile.service_cycles, vars(tile),
        ))
        self._deadlines.append(-1)
        self._busy |= bit
        self._index_of[tile.name] = index
        self.by_kind.setdefault(getattr(cls, "KIND", "generic"),
                                []).append(index)

        def hook(core=self, bit=bit):
            # Fires on every ejected flit at saturation; the early exit
            # skips the kernel wake when the bit is already set (a set
            # bit means the core is not idle, so it is still scheduled).
            busy = core._busy
            if busy & bit:
                return
            core._busy = busy | bit
            waker = core._kernel_wake
            if waker is not None:
                waker()

        # The tile-side wake hook: push_frame/send/fault-thaw call
        # tile._wake(), the router's ejection lands in the FIFO — both
        # must set the busy bit whether or not the kernel ever wired a
        # waker of its own (it doesn't, under the naive kernel).
        tile._kernel_wake = hook
        eject.add_waker(hook)
        return index

    # -- views --------------------------------------------------------------

    def view(self, tile_or_name) -> FlatTileView:
        if isinstance(tile_or_name, str):
            index = self._index_of[tile_or_name]
        else:
            index = self.tiles.index(tile_or_name)
        return FlatTileView(self, index)

    def views(self) -> list[FlatTileView]:
        return [FlatTileView(self, i) for i in range(len(self.tiles))]

    @property
    def busy_tiles(self) -> int:
        """Population count of the busy mask (telemetry gauge)."""
        return self._busy.bit_count()

    # -- clocked behaviour --------------------------------------------------

    def step(self, cycle: int) -> int | None:
        timers = self._timers
        deadlines = self._deadlines
        if timers and timers[0][0] <= cycle:
            while timers and timers[0][0] <= cycle:
                deadline, index = heapq.heappop(timers)
                if deadlines[index] == deadline:
                    deadlines[index] = -1
                    self._busy |= 1 << index
        mask = self._busy
        fabric = self._fabric
        while mask:
            low = mask & -mask
            mask ^= low
            i = low.bit_length() - 1
            (t, port, eject, items, assembler, mesh_core, is_fast,
             has_default_service, own) = fabric[i]
            if t._fault_frozen:
                continue  # clock gated; stays busy (as Tile.step says)
            if not is_fast:
                due = t.step(cycle)
                mask = self._busy & -(low << 1)  # in-core wake rule
                # The busy-bit invariant, whatever _due looks at.
                if due is not None and not items:
                    self._busy &= ~low
                    if due != NEVER:
                        self._arm(i, due, cycle)
                    else:
                        # A timer armed earlier (an RTO since ACKed)
                        # is void, as in the kernel's wake_at.
                        deadlines[i] = -1
                continue
            # Inlined Tile.step for engine-default tiles: on_cycle is
            # the base no-op, then _pump_eject / _pump_process with the
            # guards and tracer calls of tiles/base.py (mid-message,
            # 22 of 24 visits at MTU, is tested before the buffer).
            # A lone flit the mesh ejected this very cycle is not
            # here yet (port.eject_ready(cycle), inlined).
            n = len(items)
            if n and (n > 1 or eject._pushc != cycle) and \
                    not port.fault_stalled and \
                    (assembler._active or
                     t._buffered_flits < t.buffer_flits):
                t._buffered_flits += 1
                message = None
                if port._fault_eject is not None:
                    # A fault filter wants to see Flit objects: not the
                    # path worth inlining.
                    message = port.receive(cycle)
                else:
                    # ``LocalPort.pop_flit`` and the handle branch of
                    # ``receive`` inlined (the fault_stalled and
                    # readiness checks are the guards above): pop one
                    # handle, check the wormhole framing, take the
                    # message on the tail.
                    flit = items.popleft()
                    if eject._hwc == cycle:
                        eject.high_water -= 1
                        eject._hwc = -1
                    port.flits_ejected += 1
                    bits = -flit if flit < 0 else flit
                    if bits & HANDLE_HEAD:
                        if assembler._active:
                            raise handle_framing_error(bits, assembler)
                        assembler._active = True
                        assembler._seq = bits >> HANDLE_SEQ_SHIFT
                    elif not assembler._active or \
                            bits >> HANDLE_SEQ_SHIFT != assembler._seq:
                        raise handle_framing_error(bits, assembler)
                    if flit < 0:
                        assembler._active = False
                        port.messages_received += 1
                        message = mesh_core.take(bits >> HANDLE_SEQ_SHIFT)
                if message is not None:
                    t._rx_ready.append((cycle, message))
                    tracer = t.tracer
                    if tracer.enabled:
                        tracer.message_received(cycle, t, message)
                        tracer.buffer_level(cycle, t, t._buffered_flits)
            in_service = t._in_service
            if in_service is not None and cycle >= t._emit_at:
                t.messages_in += 1
                data = in_service.data
                t.bytes_in += len(data)
                # in_service.n_flits, inlined.
                buffered = t._buffered_flits - (
                    1 + in_service.n_meta_flits
                    + (len(data) + FLIT_BYTES - 1) // FLIT_BYTES)
                t._buffered_flits = buffered if buffered > 0 else 0
                if in_service.packet_id is None:
                    in_service.packet_id = next_packet_id()
                t._service_ctx = (in_service, cycle)
                sent_before = t.messages_out
                try:
                    outputs = t.handle_message(in_service, cycle)
                    for out in outputs or []:
                        t.send(out)
                finally:
                    t._service_ctx = None
                # The in-core wake rule: a tile the handler woke
                # steps this cycle if it is later in the walk.
                mask = self._busy & -(low << 1)
                tracer = t.tracer
                if tracer.enabled:
                    tracer.processing_end(cycle, t, in_service,
                                          t.messages_out - sent_before)
                    tracer.buffer_level(cycle, t, t._buffered_flits)
                t._in_service = in_service = None
            rx = t._rx_ready
            # port.tx_backlog, inlined here and below: messages queued
            # plus one mid-injection.
            if (rx and in_service is None and rx[0][0] <= cycle
                    and cycle >= t._engine_free
                    and len(port._send_queue)
                    + (1 if port._pending_flits else 0)
                    < t.max_tx_backlog):
                message = rx.popleft()[1]
                if has_default_service and "service_cycles" not in own:
                    n_flits = (1 + message.n_meta_flits
                               + (len(message.data) + FLIT_BYTES - 1)
                               // FLIT_BYTES)
                    occupancy = t.occupancy
                    busy_cycles = (n_flits if n_flits > occupancy
                                   else occupancy)
                else:
                    busy_cycles = t.service_cycles(message)
                t._in_service = message
                parse_latency = t.parse_latency
                t._emit_at = cycle + (parse_latency if parse_latency > 1
                                      else 1)
                t._engine_free = cycle + busy_cycles
                tracer = t.tracer
                if tracer.enabled:
                    tracer.processing_start(cycle, t, message)
            # Inlined Tile._due, mirroring what the kernel stores for a
            # tile with its own slot.
            if items:
                continue  # flits to pump (or a full buffer to poll)
            if t._in_service is not None:
                self._busy &= ~low
                self._arm(i, t._emit_at, cycle)
                continue
            if rx:
                if len(port._send_queue) + \
                        (1 if port._pending_flits else 0) \
                        < t.max_tx_backlog:
                    tail_cycle = rx[0][0]
                    engine_free = t._engine_free
                    self._busy &= ~low
                    self._arm(i,
                              tail_cycle if tail_cycle > engine_free
                              else engine_free, cycle)
                # else: blocked injection — only port progress (not a
                # wake) unblocks it, so the bit stays set for polling.
                continue
            self._busy &= ~low
        if self._busy:
            return None
        while timers and deadlines[timers[0][1]] != timers[0][0]:
            heapq.heappop(timers)  # lazily drop superseded entries
        return timers[0][0] if timers else NEVER

    def _arm(self, index: int, deadline: int, cycle: int) -> None:
        if deadline <= cycle:
            deadline = cycle + 1
        armed = self._deadlines[index]
        if armed != -1 and armed <= deadline:
            return  # an equal-or-earlier (safe) wake is already queued
        self._deadlines[index] = deadline
        heapq.heappush(self._timers, (deadline, index))

    # -- scheduling contract (see repro.sim.kernel) -------------------------

    def kernel_substeps(self) -> list:
        """The components this core steps on the kernel's behalf."""
        return list(self.tiles)

    def wake_sources(self):
        """Ejections into any adopted tile re-activate the core."""
        return list(self._ejects)

    def lint_consumed_fifos(self):
        """FIFOs the core itself pops (via the inlined eject pump)."""
        return list(self._ejects)

    def check_invariants(self) -> list[str]:
        """Cross-check the scheduling state; returns the violations.

        A debugging aid for tests and ``lint --sanitize`` (never called
        from ``step``), valid at any point outside ``step``: a clear
        busy bit over a FIFO that holds flits is a lost wake-up, an
        armed deadline with no heap entry a timer that never fires.
        """
        problems: list[str] = []
        live = set(self._timers)
        for i, (tile, _port, eject, *_rest) in enumerate(self._fabric):
            if eject.occupancy and not (self._busy >> i) & 1:
                problems.append(
                    f"tile {tile.name!r} is not busy but its ejection "
                    f"FIFO holds {eject.occupancy} flit(s)")
            deadline = self._deadlines[i]
            if deadline != -1 and (deadline, i) not in live:
                problems.append(
                    f"tile {tile.name!r} is armed for cycle {deadline} "
                    "with no entry in the timer heap")
        return problems

    def __repr__(self) -> str:
        return (f"FlatTileCore({self.name!r}, tiles={len(self.tiles)}, "
                f"busy={self.busy_tiles})")


def register_tiles(sim: CycleSimulator, tiles) -> FlatTileCore:
    """Adopt ``tiles`` (a sequence, or a dict's values) into one
    :class:`FlatTileCore` and register it with ``sim`` in their place —
    the ``fast`` half of :meth:`repro.designs.base.Design.register`,
    which under ``reference`` gives each tile a slot of its own
    (``sim.add_all``).  The core takes the slot the first tile would
    have had, so within-cycle step order (and therefore every trace
    stream) is the same either way.
    """
    core = FlatTileCore()
    for tile in (tiles.values() if isinstance(tiles, dict) else tiles):
        core.adopt(tile)
    sim.add(core)
    return core
