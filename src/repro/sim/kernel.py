"""Cycle-driven simulation kernel.

Models synchronous digital hardware with a two-phase clock:

1. *step*: every component reads the state committed at the end of the
   previous cycle and stages its outputs (e.g. pushes flits into
   downstream :class:`StagedFifo` objects).
2. *commit*: all staged writes become visible simultaneously.

Because no staged write is observable until every component has stepped,
the result is independent of component iteration order, which keeps the
simulator deterministic and faithful to clocked RTL.

Scheduling
----------

The simulator ships two kernels, selected by ``kernel=``:

``"scheduled"`` (the default)
    Activity-scheduled execution.  Components that implement the
    *quiescence contract* (below) are removed from the per-cycle active
    set while idle and re-activated in O(1) by either a *wake hook* on a
    :class:`StagedFifo` they consume from or a *timer wheel* entry for
    their next self-generated event.  When the whole design is
    quiescent, idle stretches are skipped wholesale instead of being
    ticked one no-op cycle at a time.

``"naive"``
    The original exhaustive scheduler: every registered component steps
    and commits every cycle.  Kept as an escape hatch and as the
    reference for differential (cycle-equivalence) testing.

The quiescence contract — all optional, checked with ``getattr``:

``is_idle() -> bool``
    True iff ``step(cycle)`` would make no externally visible state
    change at the current cycle *and every future cycle* until either
    (a) an item is pushed into one of the component's
    :meth:`wake_sources` FIFOs, (b) the component is woken through its
    ``_kernel_wake`` hook, or (c) the cycle returned by
    ``next_event_cycle()`` arrives.  A component without ``is_idle``
    is stepped every cycle, exactly as under the naive kernel.

``next_event_cycle() -> int | None``
    The absolute cycle of the component's next self-generated event
    (a paced injector's next send, a tile engine's emit deadline), or
    None if only external input can create work.  Consulted only when
    ``is_idle()`` is True; waking *early* is always safe (the step is
    a no-op and the component re-idles), waking late is a bug.

``wake_sources() -> iterable[StagedFifo]``
    The FIFOs whose ``push`` must re-activate this component — its NoC
    input FIFOs, ejection FIFO, and so on.  Wired up by :meth:`add`.

``_kernel_wake``
    Slot filled by the kernel with a zero-argument wake callable (see
    :class:`Wakeable`).  Components call it from externally-invoked
    mutators (``push_frame``, ``send``) so out-of-band state changes
    re-activate them.

A wake that arrives during the step phase still gets the component a
commit this cycle (so staged pushes into its FIFOs become visible on
schedule) and a step from the next cycle on — which is exactly when the
naive kernel would first let it observe the new state.

The call chain
--------------

:meth:`CycleSimulator.tick` *is* the scheduled cycle body (it hands
over to the naive body first thing under ``kernel="naive"``), and
``run``/``run_until`` reach every cycle they do not skip through
``self.tick``.  They inline the "is there work this cycle" test: a
non-empty active set means tick now, and only an empty one consults
``_next_wake_cycle()`` to skip ahead.  A component whose class leaves ``commit`` as the shared
:func:`no_commit` — most of them: tiles, harnesses, peers — is stepped
but never asked to commit.

Steps and commits are called *by name on the component*, and ``tick``
is looked up on the simulator at the start of each ``run``/``run_until``
at the earliest.  Nothing is pre-bound at ``add()`` time, so a ``tick``,
``step`` or ``commit`` shadowed on an instance after construction (as
``repro.telemetry.hostprof`` and ``benchmarks/perflab`` do to attribute
host time) is called exactly once per non-skipped cycle.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from collections.abc import Callable, Iterable
from typing import Protocol, runtime_checkable


class WallClockBudgetExceeded(TimeoutError):
    """``run_until`` exceeded its ``wall_clock_budget_s``.

    Distinct from the plain ``TimeoutError`` raised when ``max_cycles``
    is exhausted: a cycle budget bounds *simulated* time, the wall
    budget bounds *host* time — the guard chaos sweeps and CI use so a
    wedged design fails instead of hanging the job.
    """


@runtime_checkable
class ClockedComponent(Protocol):
    """Anything driven by the simulator clock.

    ``step(cycle)`` computes against last cycle's state; ``commit()``
    publishes this cycle's writes.  Components may additionally
    implement the quiescence contract (module docstring) to be
    eligible for idle-skip under the scheduled kernel.
    """

    def step(self, cycle: int) -> None: ...

    def commit(self) -> None: ...


def no_commit(self) -> None:
    """The one no-op ``commit``, for components that stage nothing.

    ``CycleSimulator.add`` recognises it by identity on the class and
    leaves such a component out of the scheduled kernel's commit pass.
    :class:`Wakeable` provides it; a component that is not ``Wakeable``
    aliases it (``commit = no_commit``).
    """


class Wakeable:
    """Mixin giving a component an externally triggerable wake hook.

    The scheduled kernel fills :attr:`_kernel_wake` when the component
    is added; methods that mutate component state from outside the
    component's own ``step`` (frame injection, message send) call
    :meth:`_wake` so the scheduler re-activates the sleeper.  Under the
    naive kernel the slot stays None and ``_wake`` is a no-op.
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

    Wake hooks: consumers registered through :meth:`add_waker` are
    re-activated on every ``push`` — the mechanism the scheduled kernel
    uses to let downstream components sleep while the queue is empty.
    """

    __slots__ = ("capacity", "name", "high_water", "_items", "_staged",
                 "_wakers", "_visible")

    def __init__(self, capacity: int | None = None, name: str = "fifo"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self.name = name
        #: Maximum end-of-cycle depth ever committed — the telemetry
        #: plane's per-queue high-water mark.  Updated at commit (the
        #: only point the occupancy is architecturally observable), so
        #: it costs nothing on cycles without staged pushes.
        self.high_water = 0
        self._items: deque = deque()
        self._staged: list = []
        self._wakers: list[Callable[[], None]] = []
        #: Committed occupancy as of the last commit boundary — the
        #: credit count a link-level producer sees.  Router-to-router
        #: links release credits with one cycle of lag (a pop becomes
        #: visible upstream only at the next cycle boundary, like a
        #: hardware credit return crossing the link).
        self._visible = 0

    def __len__(self) -> int:
        """Number of committed (visible) items."""
        return len(self._items)

    @property
    def occupancy(self) -> int:
        """Committed plus staged items — what counts against capacity."""
        return len(self._items) + len(self._staged)

    def can_accept(self, n: int = 1) -> bool:
        capacity = self.capacity
        if capacity is None:
            return True
        return len(self._items) + len(self._staged) + n <= capacity

    def add_waker(self, waker: Callable[[], None]) -> None:
        """Re-activate a consumer (and its committer) on every push."""
        self._wakers.append(waker)

    def push(self, item) -> None:
        if not self.can_accept():
            raise OverflowError(f"push to full StagedFifo {self.name!r}")
        self._staged.append(item)
        for waker in self._wakers:
            waker()

    def push_unchecked(self, item) -> None:
        """``push`` minus the capacity re-check, for hot paths that
        have just tested :meth:`can_accept` themselves."""
        self._staged.append(item)
        for waker in self._wakers:
            waker()

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

    def drain(self) -> list:
        """Pop and return *everything*: committed items, then staged.

        Draining empties the FIFO completely — the staging buffer is
        cleared too, so nothing silently becomes visible on the next
        ``commit``.  Committed items come first (they are older); staged
        items follow in push order.  Mid-simulation use still breaks the
        two-phase abstraction (a drain observes writes from the current
        cycle), so this remains a between-runs/testing convenience.
        """
        out = list(self._items)
        out.extend(self._staged)
        self._items.clear()
        self._staged.clear()
        self._visible = 0
        return out


class CycleSimulator:
    """Drives a set of :class:`ClockedComponent` objects cycle by cycle.

    ``kernel`` selects the scheduler: ``"scheduled"`` (activity-based,
    the default) or ``"naive"`` (step everything every cycle — the
    reference for differential testing; see the module docstring).

    ``tracer`` is the observability event bus
    (:mod:`repro.telemetry.trace`); it defaults to the shared no-op
    tracer, so an untraced simulation pays a single attribute test per
    tick.  Use :func:`repro.telemetry.trace.attach_tracer` to wire a
    recording tracer into a whole design.
    """

    def __init__(self, tracer=None, kernel: str = "scheduled",
                 mesh_backend: str = "object",
                 tile_backend: str = "object",
                 saturation_threshold: float | None = None,
                 prune_interval: int | None = None):
        from repro.telemetry.trace import NULL_TRACER
        if kernel not in ("scheduled", "naive"):
            raise ValueError(f"unknown kernel {kernel!r} "
                             "(choose 'scheduled' or 'naive')")
        if mesh_backend not in ("object", "flat"):
            raise ValueError(f"unknown mesh backend {mesh_backend!r} "
                             "(choose 'object' or 'flat')")
        if tile_backend not in ("object", "flat"):
            raise ValueError(f"unknown tile backend {tile_backend!r} "
                             "(choose 'object' or 'flat')")
        if saturation_threshold is not None and saturation_threshold < 0:
            raise ValueError("saturation_threshold must be >= 0 "
                             "(fractions > 1 disable the bypass)")
        if prune_interval is not None and prune_interval < 1:
            raise ValueError("prune_interval must be >= 1 cycle")
        self.cycle = 0
        self.kernel = kernel
        # Advisory: design constructors thread their mesh and tile
        # backends through here (mirroring kernel=) so harnesses,
        # telemetry, and bench reports can consult them.
        self.mesh_backend = mesh_backend
        self.tile_backend = tile_backend
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._components: list[ClockedComponent] = []
        self._fifos: list[StagedFifo] = []
        self._scheduled = kernel == "scheduled"
        # Scheduled-kernel state.
        self._order: dict = {}          # component -> registration index
        self._wakers: dict = {}         # component -> its wake closure
        # Components with a real commit (not no_commit), in
        # registration order; a dict so membership is O(1) too.
        self._committers: dict = {}
        self._active: set = set()       # components stepped next cycle
        self._timers: list = []         # heap of (cycle, seq, component)
        self._timer_seq = 0
        self._armed: dict = {}          # component -> earliest armed cycle
        self._in_step = False
        self._late_wakes: list = []
        # component -> (is_idle, next_event_cycle) resolved once at add
        # time; (None, None) for components without the contract.
        self._contracts: dict = {}
        # Sorted view of the active set, rebuilt only when it changes
        # (under saturation the set is stable for long stretches).
        self._stepping_cache: list = []
        self._committing_cache: list = []
        self._active_dirty = True
        # Saturation bypass tuning.  The bypass engages on the *raw*
        # active fraction (schedule entries, not weights): a
        # batch-stepped component like the flat mesh core is one cheap
        # entry however many routers it absorbs.  ``kernel_weight``
        # (the component count such a core replaces) instead feeds the
        # effective design size that derives the prune interval.
        self._saturation_threshold = (
            0.25 if saturation_threshold is None else saturation_threshold
        )
        self._prune_interval_cfg = prune_interval
        self._total_weight = 0          # effective component count
        self._sat_limit = 0.0           # threshold * len(components)
        # Adaptive pruning cadence (no explicit prune_interval): start
        # at the floor and let the controller in tick() adapt
        # within [_PRUNE_FLOOR, _PRUNE_CAP] from what pruning ticks
        # actually find.  An explicit setting stays fixed.
        self._adaptive = prune_interval is None
        self._prune_interval = prune_interval or self._PRUNE_FLOOR
        # Stats (scheduled kernel only; stay 0 under naive).
        self.idle_cycles_skipped = 0
        self.component_steps = 0

    @property
    def saturation_threshold(self) -> float:
        """Active-weight fraction above which the bypass engages."""
        return self._saturation_threshold

    #: Adaptive prune-cadence bounds: the controller never checks more
    #: often than every _PRUNE_FLOOR cycles under saturation, and never
    #: lets more than _PRUNE_CAP bypass cycles pass without one full
    #: pruning sweep (the bound on how stale the active set can get).
    _PRUNE_FLOOR = 32
    _PRUNE_CAP = 4096

    @property
    def prune_interval(self) -> int:
        """Cycles between pruning ticks while the bypass is engaged.

        With no explicit ``prune_interval=``, the cadence is adaptive:
        every pruning tick that finds nothing to prune doubles the
        interval (a genuinely saturated design pays ever fewer full
        sweeps), and any tick that *does* prune — or any cycle below
        the saturation threshold — resets it to the floor, so a
        draining design is detected within one floor-interval.  Bounds
        are [32, 4096].  An explicit setting disables the controller
        and stays fixed.
        """
        return self._prune_interval

    @property
    def active_components(self) -> int:
        """Schedule entries in the active set (all, under naive)."""
        if not self._scheduled:
            return len(self._components)
        return len(self._active)

    def stats(self) -> dict:
        """Operational scheduler state, as the telemetry probe samples it.

        Plain ints only — the dict is JSON-able as-is and cheap enough
        to build every sampling interval.
        """
        return {
            "kernel": self.kernel,
            "cycle": self.cycle,
            "components": len(self._components),
            "active": self.active_components,
            "armed_timers": len(self._timers),
            "idle_cycles_skipped": self.idle_cycles_skipped,
            "component_steps": self.component_steps,
        }

    # -- registration -------------------------------------------------------

    def add(self, component: ClockedComponent) -> None:
        self._components.append(component)
        if not self._scheduled:
            return
        self._order[component] = len(self._components) - 1
        self._total_weight += int(getattr(component, "kernel_weight", 1))
        self._sat_limit = (self._saturation_threshold
                           * len(self._components))
        self._active.add(component)
        self._contracts[component] = (
            getattr(component, "is_idle", None),
            getattr(component, "next_event_cycle", None),
        )
        if getattr(type(component), "commit", None) is not no_commit:
            self._committers[component] = None
        self._wakers[component] = waker = self._waker_for(component)
        if getattr(component, "_kernel_wake", False) is None:
            component._kernel_wake = waker
        sources = getattr(component, "wake_sources", None)
        if sources is not None:
            for fifo in sources():
                fifo.add_waker(waker)

    def add_all(self, components: Iterable[ClockedComponent]) -> None:
        for component in components:
            self.add(component)

    def register_fifo(self, fifo: StagedFifo) -> StagedFifo:
        """Track a free-standing FIFO so the simulator commits it.

        FIFOs owned by a component should be committed by that
        component's ``commit`` instead.
        """
        self._fifos.append(fifo)
        return fifo

    # -- scheduled-kernel machinery ----------------------------------------

    def _waker_for(self, component) -> Callable[[], None]:
        active = self._active

        def wake() -> None:
            if component in active:
                return
            active.add(component)
            self._active_dirty = True
            if self._in_step:
                # Woken mid-step: too late to step this cycle (the
                # naive kernel's step would see nothing new anyway)
                # but it must commit this cycle so staged pushes into
                # its FIFOs land on schedule.  Everything stepped this
                # cycle was already in the active set, so reaching
                # here means this component is not being stepped.
                self._late_wakes.append(component)

        # Tag the closure with its target so static analysis
        # (repro.analysis.wake) can verify FIFO hooks are wired to the
        # component that consumes the FIFO.
        wake.component = component
        return wake

    def wake(self, component) -> None:
        """Re-activate ``component`` (no-op under the naive kernel)."""
        waker = self._wakers.get(component)
        if waker is not None:
            waker()

    def _arm_timer(self, component, deadline: int) -> None:
        armed = self._armed.get(component)
        if armed is not None and armed <= deadline:
            return  # an equal-or-earlier (safe) wake is already queued
        self._armed[component] = deadline
        self._timer_seq += 1
        heapq.heappush(self._timers, (deadline, self._timer_seq, component))

    def _service_timers(self, cycle: int) -> None:
        timers = self._timers
        while timers and timers[0][0] <= cycle:
            deadline, _, component = heapq.heappop(timers)
            if self._armed.get(component) == deadline:
                del self._armed[component]
            if component not in self._active:
                self._active.add(component)
                self._active_dirty = True

    def _reschedule(self, component, cycle: int) -> None:
        """Deactivate ``component`` if it reports quiescence.

        (The tick loop inlines this per stepped component; this method
        is the readable reference and the hook for external callers.)
        """
        is_idle, next_event = self._contracts[component]
        if is_idle is None or not is_idle():
            return
        if component in self._active:
            self._active.discard(component)
            self._active_dirty = True
        if next_event is None:
            return
        deadline = next_event()
        if deadline is not None:
            self._arm_timer(component, max(deadline, cycle + 1))

    def _next_wake_cycle(self) -> int | None:
        """Earliest cycle with scheduled work, or None if fully quiescent.

        Only meaningful under the scheduled kernel; callers use it to
        skip idle stretches in O(1).
        """
        if self._active:
            return self.cycle
        if self._timers:
            return max(self._timers[0][0], self.cycle)
        return None

    def _skip_to(self, target: int) -> None:
        """Advance the clock over a stretch of provably idle cycles."""
        skipped = target - self.cycle
        if skipped <= 0:
            return
        self.idle_cycles_skipped += skipped
        if self.tracer.enabled:
            # The naive kernel announces every cycle; announcing the
            # last skipped one keeps Tracer.last_cycle (and horizon)
            # identical without per-cycle cost.
            self.tracer.cycle_start(target - 1)
        self.cycle = target

    # -- the clock ----------------------------------------------------------

    def _tick_naive(self) -> None:
        if self.tracer.enabled:
            self.tracer.cycle_start(self.cycle)
        for component in self._components:
            component.step(self.cycle)
        for component in self._components:
            component.commit()
        for fifo in self._fifos:
            fifo.commit()
        self.cycle += 1

    def tick(self) -> None:
        """Advance the simulation by one clock cycle."""
        if not self._scheduled:
            return self._tick_naive()
        cycle = self.cycle
        timers = self._timers
        if timers and timers[0][0] <= cycle:
            self._service_timers(cycle)
        # Saturation bypass: when a sizeable fraction of the schedule
        # entries is active, pruning bookkeeping (idle checks, timer
        # arms, set churn) costs more than the no-op steps it saves.
        # Stepping a sleeping component is always safe — its step is a
        # no-op by contract — so step the full registration list
        # naive-style, keeping a periodic pruning tick (every
        # ``prune_interval`` cycles) so the active set drains when load
        # drops.  The bypass *engages* on raw entry counts — a
        # batch-stepping core skips its own idle internals, so it stays
        # one cheap entry however many components it absorbs — but the
        # design-size gate uses effective weight, so a design that is
        # large only through such a core still qualifies.
        saturated = (self._total_weight >= 16
                     and len(self._active) > self._sat_limit)
        if saturated and cycle % self._prune_interval:
            if self.tracer.enabled:
                self.tracer.cycle_start(cycle)
            components = self._components
            for component in components:
                component.step(cycle)
            for component in self._committers:
                component.commit()
            for fifo in self._fifos:
                fifo.commit()
            self.component_steps += len(components)
            self.cycle = cycle + 1
            return
        if self.tracer.enabled:
            self.tracer.cycle_start(cycle)
        if self._active_dirty:
            stepping = sorted(self._active, key=self._order.__getitem__)
            committers = self._committers
            committing = [c for c in stepping if c in committers]
            self._stepping_cache = stepping
            self._committing_cache = committing
            self._active_dirty = False
        else:
            stepping = self._stepping_cache
            committing = self._committing_cache
        self._late_wakes = late = []
        self._in_step = True
        try:
            for component in stepping:
                component.step(cycle)
        finally:
            self._in_step = False
        if late:
            # A late wake already marked the active set dirty, so the
            # caches are rebuilt next tick; extending in place is safe.
            late.sort(key=self._order.__getitem__)
            stepping.extend(late)
            committers = self._committers
            committing.extend(c for c in late if c in committers)
        self.component_steps += len(stepping)
        for component in committing:
            component.commit()
        for fifo in self._fifos:
            fifo.commit()
        contracts = self._contracts
        active = self._active
        pruned = 0
        for component in stepping:
            is_idle, next_event = contracts[component]
            if is_idle is None or not is_idle():
                continue
            active.discard(component)
            self._active_dirty = True
            pruned += 1
            if next_event is None:
                continue
            deadline = next_event()
            if deadline is not None:
                self._arm_timer(component, max(deadline, cycle + 1))
        if self._adaptive:
            # Adapt the pruning cadence to what this tick observed: a
            # saturated sweep that pruned nothing doubles the interval
            # (up to the cap), one that found idle components — or any
            # cycle below the saturation threshold — resets it to the
            # floor so draining load is noticed promptly.
            if saturated:
                if pruned:
                    self._prune_interval = self._PRUNE_FLOOR
                elif self._prune_interval < self._PRUNE_CAP:
                    self._prune_interval *= 2
            elif self._prune_interval != self._PRUNE_FLOOR:
                self._prune_interval = self._PRUNE_FLOOR
        self.cycle = cycle + 1

    def sanitized_tick(self, observer) -> None:
        """One instrumented cycle for :mod:`repro.analysis.sanitize`.

        Steps the *full* registration list naive-style — safe because a
        truthfully idle component's step is a no-op by contract, the
        same property the saturation bypass relies on — while
        maintaining the scheduled kernel's activity bookkeeping (active
        set, timers, pruning) exactly as a bypass-free scheduled run
        would.  The divergence between the two is the signal:

        - a component *not* in the active set is handed to
          ``observer.shadow_step(component, cycle)`` instead of being
          stepped directly, so the observer can fingerprint it around
          its own step (BHV401 idle-truthfulness);
        - after the step phase, ``observer.step_phase_done(cycle)``
          runs with staged pushes still visible, so pushes into FIFOs
          whose consumers stayed pruned are observable (BHV402).

        This method is strictly opt-in: the normal ``tick`` path never
        consults it, so the sanitizer-off fast path is untouched.
        Under the naive kernel nothing is ever pruned and this
        degrades to a plain naive tick plus the observer callbacks.
        """
        cycle = self.cycle
        if not self._scheduled:
            if self.tracer.enabled:
                self.tracer.cycle_start(cycle)
            for component in self._components:
                component.step(cycle)
            observer.step_phase_done(cycle)
            for component in self._components:
                component.commit()
            for fifo in self._fifos:
                fifo.commit()
            self.cycle = cycle + 1
            observer.cycle_done(cycle)
            return
        if self._timers and self._timers[0][0] <= cycle:
            self._service_timers(cycle)
        if self.tracer.enabled:
            self.tracer.cycle_start(cycle)
        active = self._active
        stepped = []
        self._late_wakes = late = []
        self._in_step = True
        try:
            for component in self._components:
                if component in active:
                    stepped.append(component)
                    component.step(cycle)
                else:
                    observer.shadow_step(component, cycle)
        finally:
            self._in_step = False
        observer.step_phase_done(cycle)
        self.component_steps += len(self._components)
        for component in self._components:
            component.commit()
        for fifo in self._fifos:
            fifo.commit()
        # Prune bookkeeping over the components the scheduled kernel
        # would have stepped (the active set at cycle start plus late
        # wakes), mirroring tick() without the bypass.
        stepped.extend(late)
        contracts = self._contracts
        for component in stepped:
            is_idle, next_event = contracts[component]
            if is_idle is None or not is_idle():
                continue
            active.discard(component)
            self._active_dirty = True
            if next_event is None:
                continue
            deadline = next_event()
            if deadline is not None:
                self._arm_timer(component, max(deadline, cycle + 1))
        self.cycle = cycle + 1
        observer.cycle_done(cycle)

    def run(self, cycles: int) -> None:
        tick = self.tick
        if not self._scheduled:
            for _ in range(cycles):
                tick()
            return
        end = self.cycle + cycles
        active = self._active
        while self.cycle < end:
            if not active:
                wake = self._next_wake_cycle()
                target = end if wake is None or wake > end else wake
                if target > self.cycle:
                    self._skip_to(target)
                    continue
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
        deadlocked) design.  ``wall_clock_budget_s`` additionally
        bounds *host* time: when set, the run raises
        :class:`WallClockBudgetExceeded` once the budget elapses (the
        check runs between ticks, so one pathological tick can overrun
        the budget, but a wedged loop cannot hang the caller).

        Under the scheduled kernel, fully idle stretches are skipped
        and the condition re-evaluated at each wake boundary.  During
        a stretch no simulated state changes except ``self.cycle``, so
        a condition that flips mid-stretch (e.g. ``sim.cycle >= N``)
        is located by bisection and observed at the exact cycle it
        first became true — never overshot.  (A condition that flips
        back and forth *within* one idle stretch as a function of the
        cycle number alone has no well-defined first-true cycle under
        any scheduler; bisection returns one of its true cycles.)
        """
        start = self.cycle
        limit = start + max_cycles
        deadline = (None if wall_clock_budget_s is None
                    else time.monotonic() + wall_clock_budget_s)
        tick = self.tick
        # The naive kernel never skips: it counts as always active.
        active = self._active if self._scheduled else True
        while not condition():
            if self.cycle - start >= max_cycles:
                raise TimeoutError(
                    f"condition not met within {max_cycles} cycles"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise WallClockBudgetExceeded(
                    f"condition not met within {wall_clock_budget_s}s "
                    f"of wall clock ({self.cycle - start} cycles run)"
                )
            if not active:
                wake = self._next_wake_cycle()
                target = limit if wake is None or wake > limit else wake
                if target > self.cycle:
                    self._skip_to_condition(condition, target)
                    continue
            tick()
        return self.cycle - start

    def _skip_to_condition(
        self,
        condition: Callable[[], bool],
        target: int,
    ) -> None:
        """Skip an idle stretch, stopping at the first cycle in
        ``(cycle, target]`` where ``condition`` holds (if any).

        Only the clock advances during an idle stretch, so probing the
        condition at a trial cycle is just a matter of setting
        ``self.cycle`` — no component state is touched.
        """
        here = self.cycle
        self.cycle = target
        fired = condition()
        self.cycle = here
        if not fired:
            self._skip_to(target)
            return
        lo, hi = here + 1, target
        while lo < hi:
            mid = (lo + hi) // 2
            self.cycle = mid
            if condition():
                hi = mid
            else:
                lo = mid + 1
        self.cycle = here
        self._skip_to(lo)
