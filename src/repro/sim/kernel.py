"""Cycle-driven simulation kernel.

Models synchronous digital hardware with a clock.  Under the naive
kernel (the reference) the clock is two-phase:

1. *step*: every component reads the state committed at the end of the
   previous cycle and stages its outputs (e.g. pushes flits into
   downstream :class:`StagedFifo` objects).
2. *commit*: all staged writes become visible simultaneously.

Because no staged write is observable until every component has stepped,
the result is independent of component iteration order, which keeps the
simulator deterministic and faithful to clocked RTL.  The scheduled
kernel is single-phase: it steps and never commits, so it runs only
components that stage nothing (their class ``commit`` is the shared
:func:`no_commit`); a producer there stamps what it writes with the
cycle instead (see :class:`StagedFifo`), and :meth:`CycleSimulator.add`
refuses anything else.

Scheduling
----------

The simulator ships two kernels, selected by ``kernel=`` (designs do
not pass it: their ``profile`` names a kernel, see
:mod:`repro.sim.profiles`):

``"scheduled"`` (the default)
    A component is stepped on the cycles it asked for or was woken
    for, and on no other; a stretch of cycles nobody asked for is
    skipped from its first cycle.  All of the scheduler's state is one
    list, ``wake_at[i]``: the next cycle the component in registration
    slot ``i`` must be stepped (:data:`NEVER` when only a wake can
    rouse it).  ``tick`` steps, in registration order, exactly the
    slots with ``wake_at[i] <= cycle`` and stores what each step
    returns as it goes: one call per stepped component.  Going to
    sleep, arming a timer and waking are one list store each.  A
    component with a real ``commit`` is refused (``TypeError``).  Its
    loop is C (below), so it needs a C compiler, as ``fast`` does.

``"naive"``
    Every registered component steps and commits every cycle: the
    reference for differential (cycle-equivalence) testing, and the
    kernel for any mix of object and flat components.  Pure Python:
    it needs no compiler.

The quiescence contract — what ``step`` returns, plus two optional
hooks looked up once at ``add``:

``step(cycle) -> int | None``
    The next cycle the component must be stepped.  ``None`` — the
    answer of a component with no contract — means every cycle.
    :data:`NEVER` means only a wake can rouse it; any other cycle, at
    the latest then (a cycle at or before ``cycle`` means ``cycle +
    1``).  The promise: stepping it on any cycle before that one, with
    no wake in between, would change nothing observable.  Waking
    *early* is always safe (the step is a no-op and returns again),
    waking late is a bug.  The naive kernel ignores the value.

``wake_sources() -> iterable[StagedFifo]``
    The FIFOs whose producer must wake this component — a tile's
    ejection FIFO, say, which the flat mesh fills.  Wired up by
    :meth:`add` (the FIFO's ``add_waker``).

``_kernel_wake``
    Slot filled by the kernel with a zero-argument wake callable (see
    :class:`Wakeable`), for externally-invoked mutators (``push_frame``,
    ``send``) to call so out-of-band state changes wake the component.

The wake rule is what stepping everything in registration order would
do, and a wake only ever lowers ``wake_at[i]``.  Outside a tick it
lowers it to the current cycle.  Raised during the step phase it lowers
it to *this* tick if slot ``i`` is still ahead of the slot being
stepped (the naive kernel would step ``i`` later in this very cycle,
with the waker's change in view) and to the *next* tick if the slot has
passed (the naive kernel already stepped it, seeing nothing).  A wake
raised during slot ``i``'s own step is for the next tick too, and
survives whatever that step returns.

The call chain
--------------

Under ``kernel="scheduled"`` the cycle body, ``run`` and ``run_until``
are one compiled loop (``tick`` and ``run`` in
``src/repro/noc/_flatstep.c``, the flat cores' module, loaded when the
simulator is constructed).  It keeps nothing of its own: it reads
``_wake_at`` and ``_components`` live and writes ``cycle``,
``_stepping``, ``component_steps`` and ``idle_cycles_skipped`` back as
they change, so a step, a waker, a condition or the tracer reads them
as it would from Python.  :meth:`CycleSimulator.tick` is one call into
it (under ``kernel="naive"`` it runs the naive body instead).
``run``/``run_until`` tick every cycle they do not skip and between
ticks jump straight to ``min(wake_at)``.  ``run_until`` calls
``condition()`` and checks its wall-clock budget before each tick or
skip, and bisects an idle stretch for the condition's first cycle.
Every wake hook is a compiled kernel waker (:meth:`_waker_for`) that
applies the rule above and carries read-only ``.component`` and
``.slot`` tags.

Calls are by name.  ``tick`` is looked up once per ``run`` /
``run_until``, so one shadowed on the instance after construction (as
``benchmarks/perflab`` does to attribute host time) is called once per
cycle not skipped.  Steps (and, under naive, commits) are called *by
name on the component*, so a shadowed ``step`` or ``commit`` is called
exactly once per cycle its kernel steps (commits) the component: the
scheduled kernel never calls ``commit``.  The one shortcut: a flat core
(``FlatMeshCore``, ``FlatTileCore``) whose ``step`` is not shadowed on
the instance is stepped by the C step its ``step`` would call.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable
from typing import Protocol, runtime_checkable


class WallClockBudgetExceeded(TimeoutError):
    """``run_until`` exceeded its ``wall_clock_budget_s``: the bound on
    *host* time (``max_cycles`` bounds simulated time) that lets chaos
    sweeps and CI fail a wedged design instead of hanging the job."""


@runtime_checkable
class ClockedComponent(Protocol):
    """Anything driven by the simulator clock.

    ``step(cycle)`` computes against last cycle's state and returns
    the next cycle it is due (``None``: every cycle; module docstring);
    ``commit()`` publishes this cycle's writes.
    """

    def step(self, cycle: int) -> int | None: ...

    def commit(self) -> None: ...


def no_commit(self) -> None:
    """The one no-op ``commit``, for components that stage nothing.
    ``CycleSimulator.add`` recognises it by identity on the class: the
    scheduled kernel accepts only such components.  :class:`Wakeable`
    provides it; others alias it (``commit = no_commit``)."""


class Wakeable:
    """Mixin giving a component an externally triggerable wake hook.

    The scheduled kernel fills :attr:`_kernel_wake` when the component
    is added; methods that mutate its state from outside its own
    ``step`` (frame injection, message send) call :meth:`_wake`.  Under
    the naive kernel the slot stays None and ``_wake`` is a no-op.
    """

    _kernel_wake: Callable[[], None] | None = None

    commit = no_commit

    def _wake(self) -> None:
        wake = self._kernel_wake
        if wake is not None:
            wake()


class StagedFifo:
    """A FIFO with staged writes, modelling a clocked queue.

    ``push`` stages an item that becomes poppable only after ``commit``.
    Capacity accounting is conservative: staged items count against
    capacity immediately, so a producer that checks :meth:`can_accept`
    during *step* can never overflow the queue.

    Staging is for the two-phase (naive) clock, whose commit pass
    publishes the staged items.  A producer that is handed the cycle
    may skip the staging: it appends to the committed queue and stamps
    the cycle, and whoever consumes in that same cycle leaves the
    stamped item alone.  The flat mesh ejects this way, at most one
    flit per FIFO per cycle, into FIFOs read through
    ``LocalPort.pop_flit(cycle)``, so its ejection FIFOs need no
    ``commit`` at all — the scheduled kernel has no commit pass.

    Wake hooks: consumers registered through :meth:`add_waker` are the
    ones such a producer wakes (the flat mesh on the empty -> non-empty
    edge), so they can sleep while the queue is empty.  ``push`` wakes
    nobody: a staged push is read after a commit, and only the naive
    kernel, which steps everything, commits.
    """

    __slots__ = ("capacity", "name", "high_water", "_items", "_staged",
                 "_wakers", "_visible", "_pushc", "_hwc")

    def __init__(self, capacity: int | None = None, name: str = "fifo"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self.name = name
        #: Maximum end-of-cycle depth ever reached — the telemetry
        #: plane's per-queue high-water mark.
        self.high_water = 0
        self._items: deque = deque()
        self._staged: list = []
        self._wakers: list[Callable[[], None]] = []
        #: Committed occupancy as of the last commit boundary — the
        #: credit count a router-to-router link sees (a pop is a credit
        #: upstream only from the next cycle boundary on).
        self._visible = 0
        # Stamps of a producer that pushes unstaged: the cycle of its
        # latest push, and the cycle that push raised ``high_water`` —
        # a pop later in that cycle takes the raise back, keeping the
        # mark the exact end-of-cycle depth.
        self._pushc = -1
        self._hwc = -1

    def __len__(self) -> int:
        """Number of committed items (between ticks: all visible)."""
        return len(self._items)

    def pushed_at(self, cycle: int) -> bool:
        """Whether something was pushed at ``cycle`` (asked before that
        cycle's commit) — the sanitizer's lost-wake probe."""
        return bool(self._staged) or self._pushc == cycle

    def snapshot(self) -> list:
        """Every item held, committed then staged, oldest first."""
        return [*self._items, *self._staged]

    @property
    def occupancy(self) -> int:
        """Committed plus staged items — what counts against capacity."""
        return len(self._items) + len(self._staged)

    def can_accept(self) -> bool:
        capacity = self.capacity
        if capacity is None:
            return True
        return len(self._items) + len(self._staged) < capacity

    def add_waker(self, waker: Callable[[], None]) -> None:
        """Have an unstaged producer re-activate a consumer."""
        self._wakers.append(waker)

    def push(self, item) -> None:
        if not self.can_accept():
            raise OverflowError(f"push to full StagedFifo {self.name!r}")
        self.push_unchecked(item)

    def push_unchecked(self, item) -> None:
        """``push`` minus the capacity re-check, for hot paths that
        have just tested :meth:`can_accept` themselves."""
        self._staged.append(item)

    def peek(self):
        """The oldest committed item, or None if empty."""
        if not self._items:
            return None
        return self._items[0]

    def pop(self):
        if not self._items:
            raise IndexError(f"pop from empty StagedFifo {self.name!r}")
        return self._items.popleft()

    def commit(self) -> None:
        if self._staged:
            self._items.extend(self._staged)
            self._staged.clear()
            depth = len(self._items)
            if depth > self.high_water:
                self.high_water = depth
            self._visible = depth
        elif self._visible != len(self._items):
            self._visible = len(self._items)

#: What ``step`` returns, and ``wake_at`` holds, for a component only
#: a wake can rouse.
NEVER = 1 << 62


class CycleSimulator:
    """Drives a set of :class:`ClockedComponent` objects cycle by cycle.

    ``kernel`` selects the scheduler: ``"scheduled"`` (the default) or
    ``"naive"`` (step everything every cycle — the reference for
    differential testing; see the module docstring).  ``tracer`` is the
    observability event bus (:mod:`repro.telemetry.trace`); it starts
    as the shared no-op tracer, one attribute test per tick.  Use
    :func:`repro.telemetry.trace.attach_tracer` to wire a recording
    tracer into a whole design.
    """

    def __init__(self, kernel: str = "scheduled"):
        from repro.telemetry.trace import NULL_TRACER
        if kernel not in ("scheduled", "naive"):
            raise ValueError(f"unknown kernel {kernel!r} "
                             "(choose 'scheduled' or 'naive')")
        self.cycle = 0
        self.kernel = kernel
        self.tracer = NULL_TRACER
        self._components: list[ClockedComponent] = []
        self._slots: dict[int, int] = {}    # id(component) -> its slot
        self._scheduled = kernel == "scheduled"
        # Scheduled-kernel state: the next cycle to step each
        # registration slot, and the slot being stepped (-1 between
        # ticks).
        self._wake_at: list[int] = []
        self._stepping = -1
        # Stats (scheduled kernel only; stay 0 under naive).
        self.idle_cycles_skipped = 0
        self.component_steps = 0
        if self._scheduled:
            # The compiled clock (``tick``, ``run``, ``kernel_waker``),
            # in the flat cores' module: built here, so a run imports
            # nothing, and only here, so ``naive`` needs no compiler.
            from repro.noc.flatmesh import compiled
            self._clock = compiled()

    # -- read-only view ------------------------------------------------------

    @property
    def components(self) -> tuple:
        """The registered components, in registration order."""
        return tuple(self._components)

    def wake_cycle(self, component) -> int | None:
        """The next cycle ``component`` will be stepped, as things
        stand: the current one or earlier while awake (always, under
        naive), a later one asleep on a timer, None asleep for good."""
        if not self._scheduled:
            return self.cycle
        due = self._wake_at[self._slots[id(component)]]
        return None if due == NEVER else due

    def stats(self) -> dict:
        """Scheduler state as the telemetry probe samples it (plain
        ints, JSON-able): ``active`` counts the components due at the
        current cycle (all, under naive), ``armed_timers`` the sleepers
        with a cycle of their own."""
        cycle = self.cycle
        wake_at = self._wake_at
        asleep = sum(1 for due in wake_at if due > cycle)
        return {
            "kernel": self.kernel,
            "cycle": cycle,
            "components": len(self._components),
            "active": len(self._components) - asleep,
            "armed_timers": asleep - wake_at.count(NEVER),
            "idle_cycles_skipped": self.idle_cycles_skipped,
            "component_steps": self.component_steps,
        }

    # -- registration -------------------------------------------------------

    def add(self, component: ClockedComponent) -> None:
        if id(component) in self._slots:
            raise ValueError(
                f"{type(component).__name__} is already registered: a "
                "component has one slot")
        if (self._scheduled
                and getattr(type(component), "commit", None) is not no_commit):
            raise TypeError(
                f"{type(component).__name__} has a commit phase and the "
                "scheduled kernel has none: run it under "
                "CycleSimulator(kernel='naive'), or give a class that "
                "stages nothing `commit = no_commit`")
        slot = self._slots[id(component)] = len(self._components)
        self._components.append(component)
        if not self._scheduled:
            return
        self._wake_at.append(0)         # due until its step says more
        waker = self._waker_for(component, slot)
        if getattr(component, "_kernel_wake", False) is None:
            component._kernel_wake = waker
        sources = getattr(component, "wake_sources", None)
        if sources is not None:
            for fifo in sources():
                fifo.add_waker(waker)

    def add_all(self, components: Iterable[ClockedComponent]) -> None:
        for component in components:
            self.add(component)

    def _waker_for(self, component, slot: int) -> Callable[[], None]:
        """The scheduled kernel's wake hook for ``slot``, compiled: it
        applies the wake rule (module docstring) and carries read-only
        ``.component`` and ``.slot`` tags, which static analysis
        (:mod:`repro.analysis.wake`) reads to check that a FIFO's hook
        wakes the component that consumes the FIFO."""
        return self._clock.kernel_waker(self, component, slot)

    # -- the clock ----------------------------------------------------------

    def _tick_naive(self) -> None:
        if self.tracer.enabled:
            self.tracer.cycle_start(self.cycle)
        for component in self._components:
            component.step(self.cycle)
        for component in self._components:
            component.commit()
        self.cycle += 1

    def tick(self) -> None:
        """Advance the simulation by one clock cycle."""
        if self._scheduled:
            self._clock.tick(self)
        else:
            self._tick_naive()

    def sanitized_tick(self, observer) -> None:
        """One instrumented cycle for :mod:`repro.analysis.sanitize`.

        Steps and commits *everything*, naive-style — safe because a
        component stepped before it is due is a no-op by contract — while
        keeping ``wake_at`` exactly as :meth:`tick` would (what a
        shadow step returns is not stored).  A component that is not due
        is handed to ``observer.shadow_step(component, cycle)`` instead
        of being stepped directly, so the observer can fingerprint it
        around its own step (BHV401), and
        ``observer.step_phase_done(cycle)`` runs before anything
        commits, while this cycle's pushes into FIFOs whose consumers
        stay asleep can still be told apart (BHV402).  Strictly opt-in:
        :meth:`tick` never consults it.
        """
        cycle = self.cycle
        if self.tracer.enabled:
            self.tracer.cycle_start(cycle)
        components = self._components
        wake_at = self._wake_at
        slot = 0
        try:
            if not self._scheduled:
                for component in components:
                    component.step(cycle)
            for due in wake_at:
                self._stepping = slot
                if due <= cycle:
                    nxt = components[slot].step(cycle)
                    if nxt is not None:
                        wake_at[slot] = (nxt if nxt > cycle >= wake_at[slot]
                                         else cycle + 1)
                else:
                    observer.shadow_step(components[slot], cycle)
                slot += 1
            self._stepping = slot
            observer.step_phase_done(cycle)
            for component in components:
                component.commit()
        finally:
            self._stepping = -1
        self.component_steps += len(wake_at)
        self.cycle = cycle + 1
        observer.cycle_done(cycle)

    def run(self, cycles: int) -> None:
        if self._scheduled:
            self._clock.run(self, self.cycle + cycles, None, None)
            return
        tick = self.tick
        for _ in range(cycles):
            tick()

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 1_000_000,
        wall_clock_budget_s: float | None = None,
    ) -> int:
        """Tick until ``condition()`` is true; returns cycles consumed.

        Raises TimeoutError if the condition does not hold within
        ``max_cycles`` — the standard way tests detect a hung (e.g.
        deadlocked) design — and :class:`WallClockBudgetExceeded` once
        ``wall_clock_budget_s`` of host time have passed (checked
        between ticks: a wedged loop cannot hang the caller).

        Idle stretches are skipped and the condition re-evaluated at
        each wake boundary.  During a stretch no simulated state
        changes except ``self.cycle``, so a condition that flips
        mid-stretch (e.g. ``sim.cycle >= N``) is located by bisection
        and observed at the exact cycle it first became true.  (One
        that flips back and forth within a stretch has no well-defined
        first-true cycle; bisection returns one of its true cycles.)
        """
        start = self.cycle
        deadline = (None if wall_clock_budget_s is None
                    else time.monotonic() + wall_clock_budget_s)
        if self._scheduled:
            limit = self._clock.run(self, start + max_cycles, condition,
                                    deadline)
        else:
            limit = self._run_naive_until(condition, start + max_cycles,
                                          deadline)
        if limit == "max_cycles":
            raise TimeoutError(
                f"condition not met within {max_cycles} cycles")
        if limit is not None:
            raise WallClockBudgetExceeded(
                f"condition not met within {wall_clock_budget_s}s "
                f"of wall clock ({self.cycle - start} cycles run)")
        return self.cycle - start

    def _run_naive_until(self, condition, end: int,
                         deadline: float | None) -> str | None:
        """The naive kernel's ``run_until``: every cycle is ticked.
        Returns what the compiled loop does: None once the condition
        holds, else the name of the limit that ran out."""
        tick = self.tick
        while not condition():
            if self.cycle >= end:
                return "max_cycles"
            if deadline is not None and time.monotonic() >= deadline:
                return "wall_clock_budget_s"
            tick()
        return None
