"""Flat tile engine: batch-step a design's tiles as one kernel component.

``repro.noc.flatmesh`` showed the shape: replace N scheduled Python
objects with one array-of-struct core that keeps a busy set and steps
only the members with work.  :class:`FlatTileCore` applies the same
recipe to the tile layer — under the ``reference`` profile every tile
is its own schedule entry paying kernel dispatch, contract checks, and
two ``_pump_*`` method calls per cycle; under ``fast`` the whole
protocol pipeline is one entry whose step inlines the pump bodies for
busy tiles only.  The core only ever runs over a flat mesh: a tile whose
port no :class:`~repro.noc.flatmesh.FlatMeshCore` steps is refused at
:meth:`FlatTileCore.adopt`.

The walk is C: ``tile_step`` in ``repro/noc/_flatstep.c``, compiled
with the mesh's step by the loader in :mod:`repro.noc.flatmesh` (one
build, one cache entry) and called by the scheduled kernel's loop, or
as ``FlatTileCore.step``.  It keeps no state of its own: the tiles,
ports, FIFOs, assemblers and this core's ``_busy``, ``_deadlines``
and ``_fabric`` are the Python objects every reader below sees, so
this docstring is the specification the C code implements.  In the
paper a protocol tile is an RTL engine, of which the model keeps only
the pipeline depth and occupancy; so the engine's bookkeeping
(ejection, reassembly, parse latency, occupancy) is compiled, and only
the handlers, which are the protocol logic, stay Python.

Correctness contract
--------------------

The core replicates :class:`repro.tiles.base.Tile` semantics *exactly*
(same guard order, same counter updates, same tracer events in the same
within-cycle order) so the differential equivalence suite holds
bit-identically between individually registered tiles and the core:

- Tiles stay the source of truth for all mutable state (``_rx_ready``,
  ``_in_service``, ``_buffered_flits``, counters, ...).  The core owns
  only scheduling state: the busy bytes and one armed deadline per
  tile.  Telemetry (``run_record``, the probe) and the fault engine
  keep reading and mutating tiles directly.
- Adoption order is registration order, and the walk visits tiles in
  that order, so trace events appear in the same order as per-tile
  stepping.
- **The in-core wake rule** is the kernel's (DESIGN.md 5c), applied
  between the tiles of one core: a tile woken during the walk by a
  tile *earlier* in adoption order steps in this cycle (stepping every
  tile in order would have run it after the waker, with the change in
  view), one woken by a *later* tile keeps its byte for the next.  The
  walk reads a tile's busy byte when it gets to it, which is the rule.
  The TCP RX engine (adopted before the TX engine) queueing an ACK over
  the dedicated wires is the shipped case: the sleeping TX engine
  sends it in that same cycle.
- **The dispatch rule**, one for every hook the walk inlines: the
  walk runs ``Tile``'s own body of a hook only when neither the tile's
  class nor the tile itself replaces it; otherwise it calls the hook
  through the instance, as ``Tile.step`` would.  The engine-internal
  hooks (``on_cycle``, ``_due``, ``_pump_process``, ...) are judged at
  each adoption, against the class and the instance as they are then:
  a tile that replaces any of them falls back to *object mode* — the
  core calls its ``step`` instead of the inlined fast path and takes
  the cycle it returns as the kernel would, so such tiles (of the
  shipped ones, the TCP TX engine and the controller) keep working
  unchanged and sleep whenever their own contract says so; a tile
  that returns :data:`~repro.sim.kernel.NEVER` also voids a timer it
  armed earlier, as the kernel's ``wake_at`` would.  ``service_cycles``
  is the one per-message hook inlined: its class is judged at adoption
  and the tile's instance ``__dict__`` at every message, so an
  instance-level patch on a built design counts from the next message
  on (a patch on the class after adoption is not seen by tiles already
  adopted: patch the tile).  ``handle_message``, ``send`` and ``drop``
  are never inlined.
- Each adopted tile gets a ``_kernel_wake`` hook, ``waker`` from the
  compiled module (the flat mesh's ports get one too): it sets the
  tile's busy byte and, if the byte was clear, calls the core's own
  ``_kernel_wake`` (a set byte means the core is not idle, so it is
  still scheduled).  The same hook wakes every FIFO the tile's own
  ``wake_sources()`` returns, and its ``component`` is the core, the
  tag the wake lint reads.  So frame injection, router ejection, and
  fault thaw re-activate exactly the tiles they touch, under both
  kernels, and no ejection wake runs Python unless the tile was idle.
  The core declares no ``wake_sources`` of its own, which would only
  have the kernel repeat the waker's call.  Adoption wakes the core,
  which may already be asleep.
- **Busy-byte invariant:** a tile whose ejection FIFO holds anything
  has its busy byte set (all bytes clear implies every FIFO is empty).
  The flat mesh relies on it — it fires a FIFO's wake hooks only when
  it ejects into an empty one.  It holds for every tile whose
  ``wake_sources()`` returns its ejection FIFO: an object-mode tile's
  byte is cleared only if its ``step`` returned a cycle *and* the FIFO
  is empty, whatever a subclass's ``_due`` looks at, and the walk
  clears a byte only at the end of that tile's visit, so it also holds
  when a handler raises.  A tile whose ``wake_sources()`` misses the
  FIFO loses the wake-up the kernel would lose (BHV301), and
  :meth:`FlatTileCore.check_invariants` reports the stranded flits.

The step
--------

One call, ``step(cycle)``:

1. **Deadlines.**  One pass over ``_deadlines``: each armed deadline
   that is due (``0 <= deadline <= cycle``) is disarmed (-1) and sets
   its tile's busy byte.
2. **The walk.**  Each tile ``i`` in adoption order whose byte is set
   is visited; a frozen tile (``_fault_frozen``) is skipped and stays
   busy (its clock is gated, as ``Tile.step`` says).  An object-mode
   tile's ``step(cycle)`` is called; unless it returned None or its
   FIFO holds flits, its byte is cleared and the cycle it returned is
   armed (``NEVER`` disarms instead).  A fast-mode tile runs the pumps
   below, then settles.
3. **The answer.**  None while any byte is set; else the smallest
   armed deadline, found in a second pass; else ``NEVER``.

Arming ``deadline`` for tile ``i`` is one store: a deadline not after
``cycle`` becomes ``cycle + 1``; an armed deadline no later than it
stands (an equal-or-earlier wake is already armed, and is safe);
otherwise it becomes ``_deadlines[i]``.  A tile has at most one armed
deadline, and arming only ever moves it earlier, so the smallest entry
is the core's next timer.

``_deadlines`` is an ``array('q')`` with one entry per adopted tile
(-1 when unarmed), the form of the mesh core's per-output tables.  The
step takes it through the buffer protocol and holds it until it
returns: anything else, or an array of another length, raises (there
is no fallback), and a callback that resizes it mid-step gets
``BufferError``.  :meth:`FlatTileCore.adopt` grows it before anything
else, so an adoption refused that way leaves the core as it was.

A fast-mode visit reads one per-tile record, ``_fabric[i]``: the tile,
its port, the ejection FIFO and its committed queue (which keeps its
identity for the FIFO's life, and is all the FIFO holds: the flat mesh
stages nothing), the reassembler, the flat mesh core stepping the port,
two flags fixed at adoption (inlined pumps? a class with the default
``service_cycles``?) and the tile's instance ``__dict__``, where the
walk looks for an instance-level ``service_cycles``.  Tile state is
read and written as Python attributes, so a subclass's property over
one still sees every access.  Flit
counts and the injection backlog are computed inline, not through the
``n_flits`` / ``tx_backlog`` properties.

- **Eject** (``Tile._pump_eject``): only if the FIFO holds a flit
  consumable now (more than one, or one not pushed this very cycle:
  ``_pushc != cycle``), the port is not ``fault_stalled``, and the
  tile is mid-message or has buffer room (``_buffered_flits <
  buffer_flits``).  ``_buffered_flits`` is counted up, then one flit is
  taken.  A port with an ejection fault filter (``_fault_eject``),
  which wants ``Flit`` objects, is read through ``port.receive(cycle)``.
  Otherwise the receive is ``LocalPort.pop_flit`` plus the handle
  branch of ``LocalPort.receive``: pop the int handle, take back a
  high-water raise stamped this cycle (``_hwc``), count
  ``flits_ejected``, check the wormhole framing (a head opens the
  assembler and names its sequence; anything else must continue the
  open one; a violation raises ``handle_framing_error``'s error), and
  on the tail (a negative handle) close the assembler, count
  ``messages_received`` and take the message from the mesh core's
  tables (``take``'s two dict pops).  A completed message is queued on
  ``_rx_ready`` as ``(cycle, message)``; the tracer (if enabled) gets
  ``message_received`` and ``buffer_level``.
- **Finish** (``Tile._finish_service``): if a message is in service
  and ``cycle >= _emit_at``: count ``messages_in`` and ``bytes_in``,
  release its flits from ``_buffered_flits`` (not below 0), give it a
  ``packet_id`` from ``next_packet_id()`` if it has none, set
  ``_service_ctx``, call ``handle_message(message, cycle)`` and
  ``send`` each output, both through the instance, and reset
  ``_service_ctx`` to None whatever they raised (an exception then
  propagates out of the step); the tracer gets ``processing_end`` and
  ``buffer_level``; ``_in_service`` becomes None.
- **Pick up** (``Tile._pump_process`` / ``_begin_service``): if nothing
  is (still) in service, the oldest waiting message's tail cycle has
  come, ``cycle >= _engine_free`` and the backlog is below
  ``max_tx_backlog``: pop it; it occupies the engine for
  ``max(n_flits, occupancy)`` cycles (or ``service_cycles(message)``
  when replaced), emits ``max(parse_latency, 1)`` cycles on, and the
  tracer gets ``processing_start``.
- **Settle** (``Tile._due``): a FIFO holding flits keeps the byte (flits
  to pump, or a full buffer to poll); a message in service clears it
  and arms ``_emit_at``; waiting messages clear it and arm
  ``max(tail cycle, _engine_free)`` unless the backlog is full (only
  the port's progress, not a wake, unblocks that: the byte stays, to
  poll); an idle tile clears it.

Scheduling contract (``repro.sim.kernel``): the core lists the tiles
as ``kernel_substeps()`` so the linter treats them as
registered-by-proxy, and its ``step`` answers from its own busy bytes
and armed deadlines — mirroring, tile by tile, what the kernel would
have computed for individually registered tiles.
"""

from __future__ import annotations

from array import array

from repro.noc.flatmesh import compiled
from repro.sim.kernel import CycleSimulator, Wakeable
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


def _is_fast(tile: Tile) -> bool:
    """Whether ``tile`` runs on the inlined pumps: the rule, applied to
    every engine-internal hook of its class, as the class is now, and
    of the instance."""
    cls = type(tile)
    return all(getattr(cls, hook) is getattr(Tile, hook)
               for hook in _ENGINE_HOOKS) and \
        vars(tile).keys().isdisjoint(_ENGINE_HOOKS)


class FlatTileCore(Wakeable):
    """Array-of-struct engine batch-stepping a design's tiles.

    Build with :func:`register_tiles` (or ``adopt`` tiles manually,
    then ``sim.add(core)``).  The core is one clocked component; the
    adopted tiles must *not* also be registered with the simulator —
    the linter's BHV106 flags that double-step.
    """

    def __init__(self):
        self.name = "flattiles"
        self.tiles: list[Tile] = []
        # Per-tile record the walk reads, indexed by tile: (tile, port,
        # eject, eject._items, assembler, mesh_core, fast,
        # default_service, vars(tile)).
        self._fabric: list[tuple] = []
        # Scheduling state: busy bytes (byte i set == tiles[i] must
        # step; a bytearray, so a wake sets one without allocating, and
        # never replaced: every tile's waker holds this one) and each
        # tile's armed deadline (-1 when unarmed).
        self._busy = bytearray()
        self._deadlines = array("q")
        module = compiled()
        # The scheduled clock calls ``tile_step`` itself, not ``step``,
        # unless ``step`` is shadowed on the instance.
        module.step_directly(FlatTileCore, module.tile_step)
        self._step = module.tile_step

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
        # First: a step in progress holds this array, and a refused
        # resize (BufferError) then leaves the core as it was.
        self._deadlines.append(-1)
        index = len(self.tiles)
        self.tiles.append(tile)
        cls = type(tile)
        eject = tile.port.eject_fifo
        self._fabric.append((
            tile, tile.port, eject, eject._items,
            tile.port._assembler, tile.port._core, _is_fast(tile),
            cls.service_cycles is Tile.service_cycles, vars(tile),
        ))
        self._busy.append(1)
        # The tile-side wake hook: push_frame/send/fault-thaw call
        # tile._wake(), the router's ejection lands in the FIFOs the
        # tile's wake_sources() names — both must set the busy byte
        # whether or not the kernel ever wired a waker of its own (it
        # doesn't, under the naive kernel).
        hook = compiled().waker(self, self._busy, index)
        tile._kernel_wake = hook
        for fifo in tile.wake_sources():
            fifo.add_waker(hook)
        # The byte is set; a core already asleep must see it.
        self._wake()
        return index

    # -- clocked behaviour --------------------------------------------------

    def step(self, cycle: int) -> int | None:
        """One cycle of every tile with work (C, ``_flatstep.c``; the
        module docstring is its specification)."""
        return self._step(self, cycle)

    # -- scheduling contract (see repro.sim.kernel) -------------------------

    def kernel_substeps(self) -> list:
        """The components this core steps on the kernel's behalf."""
        return list(self.tiles)

    def lint_consumed_fifos(self):
        """FIFOs the core itself pops (via the inlined eject pump)."""
        return [record[2] for record in self._fabric]

    def check_invariants(self) -> list[str]:
        """Cross-check the scheduling state; returns the violations.

        A debugging aid for tests and ``lint --sanitize`` (never called
        from ``step``), valid at any point outside ``step``: a clear
        busy byte over a FIFO that holds flits is a lost wake-up.
        """
        problems: list[str] = []
        for i, (tile, _port, eject, *_rest) in enumerate(self._fabric):
            if eject.occupancy and not self._busy[i]:
                problems.append(
                    f"tile {tile.name!r} is not busy but its ejection "
                    f"FIFO holds {eject.occupancy} flit(s)")
        return problems


def register_tiles(sim: CycleSimulator, tiles) -> FlatTileCore:
    """Adopt ``tiles`` (an iterable of tiles) into one
    :class:`FlatTileCore` and register it with ``sim`` in their place —
    the ``fast`` half of :meth:`repro.designs.base.Design.register`,
    which under ``reference`` gives each tile a slot of its own
    (``sim.add_all``).  The core takes the slot the first tile would
    have had, so within-cycle step order (and therefore every trace
    stream) is the same either way.
    """
    core = FlatTileCore()
    for tile in tiles:
        core.adopt(tile)
    sim.add(core)
    return core
