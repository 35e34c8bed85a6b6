"""Tests for the cycle-driven simulation kernel."""

import re
import time
from pathlib import Path

import pytest

from repro.sim.kernel import (
    NEVER,
    CycleSimulator,
    StagedFifo,
    WallClockBudgetExceeded,
    Wakeable,
    no_commit,
)


class Counter:
    """Test component: counts its step/commit invocations."""

    def __init__(self):
        self.steps = 0
        self.commits = 0

    def step(self, cycle):
        self.steps += 1
        self.last_cycle = cycle

    def commit(self):
        self.commits += 1


class TestStagedFifo:
    def test_push_not_visible_until_commit(self):
        fifo = StagedFifo()
        fifo.push("a")
        assert len(fifo) == 0
        assert fifo.peek() is None
        fifo.commit()
        assert len(fifo) == 1
        assert fifo.peek() == "a"

    def test_fifo_order(self):
        fifo = StagedFifo()
        for item in ("a", "b", "c"):
            fifo.push(item)
        fifo.commit()
        assert [fifo.pop() for _ in range(3)] == ["a", "b", "c"]

    def test_capacity_counts_staged(self):
        fifo = StagedFifo(capacity=2)
        fifo.push(1)
        assert fifo.can_accept()
        fifo.push(2)
        assert not fifo.can_accept()
        with pytest.raises(OverflowError):
            fifo.push(3)

    def test_capacity_frees_on_pop(self):
        fifo = StagedFifo(capacity=1)
        fifo.push(1)
        fifo.commit()
        assert not fifo.can_accept()
        fifo.pop()
        assert fifo.can_accept()

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            StagedFifo().pop()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            StagedFifo(capacity=0)

    def test_occupancy_tracks_both(self):
        fifo = StagedFifo()
        fifo.push(1)
        fifo.commit()
        fifo.push(2)
        assert len(fifo) == 1
        assert fifo.occupancy == 2


class Stepper(Counter):
    """A :class:`Counter` with nothing to commit, as the scheduled
    kernel requires: its ``commits`` stays 0."""

    commit = no_commit


def post(fifo, item, cycle):
    """Push ``item`` unstaged at ``cycle`` and wake the FIFO's
    consumers, as the flat mesh ejects: whoever steps at ``cycle`` does
    not see it yet (:class:`SleepyConsumer` reads through the stamp)."""
    fifo._items.append(item)
    fifo._pushc = cycle
    for waker in fifo._wakers:
        waker()


class TestCycleSimulator:
    def test_step_then_commit_each_cycle(self):
        sim = CycleSimulator(kernel="naive")
        comp = Counter()
        sim.add(comp)
        sim.run(5)
        assert comp.steps == 5
        assert comp.commits == 5
        assert sim.cycle == 5

    def test_run_until(self):
        sim = CycleSimulator()
        comp = Stepper()
        sim.add(comp)
        consumed = sim.run_until(lambda: comp.steps >= 3)
        assert consumed == 3

    def test_run_until_timeout(self):
        sim = CycleSimulator()
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=10)

    def test_two_phase_isolation(self):
        """A consumer never sees a value pushed in the same cycle."""
        sim = CycleSimulator(kernel="naive")
        fifo = StagedFifo()
        seen = []

        class Producer:
            def step(self, cycle):
                fifo.push(cycle)

            def commit(self):
                fifo.commit()

        class Observer:
            def step(self, cycle):
                if fifo.peek() is not None:
                    seen.append((cycle, fifo.pop()))

            commit = no_commit

        sim.add(Producer())
        sim.add(Observer())
        sim.run(4)
        assert seen == [(1, 0), (2, 1), (3, 2)]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            CycleSimulator(kernel="turbo")


class SleepyConsumer(Wakeable):
    """Test component honouring the quiescence contract: drains a FIFO
    filled by :func:`post`, sleeps (returns NEVER) while it is empty."""

    def __init__(self, fifo):
        self.fifo = fifo
        self.steps = 0
        self.drained = []

    def step(self, cycle):
        self.steps += 1
        fifo = self.fifo
        # What LocalPort.pop_flit(cycle) takes: not a flit of this cycle.
        while len(fifo) > (fifo._pushc == cycle):
            self.drained.append((cycle, fifo.pop()))
        return None if fifo.occupancy else NEVER

    def wake_sources(self):
        return (self.fifo,)


class Alarm(Wakeable):
    """Test component that self-schedules: fires every ``period``."""

    def __init__(self, period):
        self.period = period
        self.fired = []
        self._next = period

    def step(self, cycle):
        if cycle >= self._next:
            self.fired.append(cycle)
            self._next = cycle + self.period
        return self._next


class TestScheduledKernel:
    def test_idle_component_is_not_stepped(self):
        sim = CycleSimulator(kernel="scheduled")
        fifo = StagedFifo()
        consumer = SleepyConsumer(fifo)
        sim.add(consumer)
        sim.run(100)
        # Stepped once (cycle 0), found nothing, slept for the rest.
        assert consumer.steps == 1
        assert sim.idle_cycles_skipped == 99

    def test_fifo_push_wakes_consumer(self):
        sim = CycleSimulator(kernel="scheduled")
        fifo = StagedFifo()
        consumer = SleepyConsumer(fifo)
        sim.add(consumer)
        sim.run(10)
        assert consumer.steps == 1
        post(fifo, "ping", sim.cycle)  # external injection mid-quiescence
        sim.run(10)
        # Woken: the push is stamped, the consumer drains it next step.
        assert consumer.drained == [(11, "ping")]
        # ...then goes back to sleep instead of being stepped 10 times.
        assert consumer.steps <= 3

    def test_same_cycle_push_commits_on_schedule(self):
        """A producer stepping before a sleeping consumer wakes it this
        very cycle, and the stamp keeps the item from it until the next
        — so the item is visible exactly one cycle after the push, as a
        staged push committed under the naive kernel would be."""
        results = {}
        for kernel in ("naive", "scheduled"):
            sim = CycleSimulator(kernel=kernel)
            fifo = StagedFifo()
            consumer = SleepyConsumer(fifo)

            class Producer(Wakeable):
                def step(self, cycle):
                    if cycle == 5:
                        post(fifo, "x", cycle)

            sim.add(Producer())
            sim.add(consumer)
            sim.run(20)
            results[kernel] = consumer.drained
        assert results["naive"] == results["scheduled"] == [(6, "x")]

    def test_timer_wheel_wakes_self_scheduling_component(self):
        sim = CycleSimulator(kernel="scheduled")
        alarm = Alarm(period=25)
        sim.add(alarm)
        sim.run(100)
        assert alarm.fired == [25, 50, 75]
        assert sim.idle_cycles_skipped > 0

    def test_timer_matches_naive_schedule(self):
        naive = CycleSimulator(kernel="naive")
        a1 = Alarm(period=7)
        naive.add(a1)
        naive.run(60)
        sched = CycleSimulator(kernel="scheduled")
        a2 = Alarm(period=7)
        sched.add(a2)
        sched.run(60)
        assert a1.fired == a2.fired

    def test_idle_skip_advances_clock_exactly(self):
        sim = CycleSimulator(kernel="scheduled")
        sim.add(SleepyConsumer(StagedFifo()))
        sim.run(1000)
        assert sim.cycle == 1000

    def test_naive_kernel_steps_everything(self):
        sim = CycleSimulator(kernel="naive")
        fifo = StagedFifo()
        consumer = SleepyConsumer(fifo)
        sim.add(consumer)
        sim.run(50)
        assert consumer.steps == 50
        assert sim.idle_cycles_skipped == 0

    def test_component_without_contract_always_stepped(self):
        sim = CycleSimulator(kernel="scheduled")
        comp = Stepper()
        sim.add(comp)
        sim.run(50)
        assert comp.steps == 50
        assert sim.idle_cycles_skipped == 0

    def test_run_until_skips_and_still_times_out(self):
        sim = CycleSimulator(kernel="scheduled")
        sim.add(SleepyConsumer(StagedFifo()))
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=500)
        assert sim.cycle == 500

    def test_run_until_condition_met_via_timer(self):
        sim = CycleSimulator(kernel="scheduled")
        alarm = Alarm(period=40)
        sim.add(alarm)
        consumed = sim.run_until(lambda: alarm.fired, max_cycles=1000)
        assert alarm.fired == [40]
        assert consumed <= 41

    def test_explicit_wake_api(self):
        sim = CycleSimulator(kernel="scheduled")
        fifo = StagedFifo()
        consumer = SleepyConsumer(fifo)
        sim.add(consumer)
        sim.run(10)
        before = consumer.steps
        consumer._wake()
        sim.run(1)
        assert consumer.steps == before + 1

    def test_wake_early_is_harmless(self):
        """Waking an idle component early must not change behaviour —
        its step is a no-op and it re-idles."""
        sim = CycleSimulator(kernel="scheduled")
        alarm = Alarm(period=30)
        sim.add(alarm)
        sim.run(10)
        alarm._wake()
        sim.run(90)
        assert alarm.fired == [30, 60, 90]


class TestRunUntilExactness:
    """run_until must observe the condition at the exact cycle it
    first becomes true, even when that cycle falls in the middle of an
    idle-skipped stretch (ROADMAP: predicates were previously only
    evaluated at wake boundaries)."""

    def test_predicate_mid_idle_stretch_not_overshot(self):
        sim = CycleSimulator(kernel="scheduled")
        sim.add(SleepyConsumer(StagedFifo()))
        # Fully quiescent design: without re-evaluation the skip would
        # jump straight to max_cycles and overshoot to 10_000.
        consumed = sim.run_until(lambda: sim.cycle >= 337,
                                 max_cycles=10_000)
        assert sim.cycle == 337
        assert consumed == 337

    def test_predicate_between_timer_wakes(self):
        sim = CycleSimulator(kernel="scheduled")
        alarm = Alarm(period=100)
        sim.add(alarm)
        # 250 lies strictly inside the idle stretch (200, 300).
        sim.run_until(lambda: sim.cycle >= 250, max_cycles=1000)
        assert sim.cycle == 250
        assert alarm.fired == [100, 200]

    def test_predicate_at_stretch_start_consumes_nothing_extra(self):
        sim = CycleSimulator(kernel="scheduled")
        sim.add(SleepyConsumer(StagedFifo()))
        sim.run(42)
        assert sim.run_until(lambda: sim.cycle >= 42) == 0
        assert sim.cycle == 42

    def test_naive_kernel_semantics_unchanged(self):
        sim = CycleSimulator(kernel="naive")
        comp = Counter()
        sim.add(comp)
        consumed = sim.run_until(lambda: sim.cycle >= 7)
        assert (sim.cycle, consumed) == (7, 7)
        assert comp.steps == 7

    def test_timeout_still_raised_when_never_true(self):
        sim = CycleSimulator(kernel="scheduled")
        sim.add(SleepyConsumer(StagedFifo()))
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=123)
        assert sim.cycle == 123


class Pulse(Wakeable):
    """Sleeps between pulses ``period`` apart."""

    def __init__(self, period):
        self.period = period

    def step(self, cycle):
        return cycle + self.period


def _count_calls(owner, attribute, log):
    """Shadow ``owner.attribute`` on the instance, as perflab does."""
    original = getattr(owner, attribute)

    def wrapper(*args):
        log.append(attribute)
        return original(*args)

    setattr(owner, attribute, wrapper)


class TestByNameCallingContract:
    """``benchmarks/perflab`` shadows ``sim.tick``, ``component.step``
    and ``component.commit`` on the instances after construction; the
    kernel must reach each of them once per cycle it does not skip,
    through ``run`` and ``run_until`` alike — ``commit`` under the
    naive kernel only: the scheduled one has no commit pass."""

    @staticmethod
    def drive(sim, how, cycles):
        if how == "run":
            sim.run(cycles)
        else:
            sim.run_until(lambda: sim.cycle >= cycles)

    @pytest.mark.parametrize("how", ["run", "run_until"])
    def test_pulsing_component_between_idle_skips(self, how):
        sim = CycleSimulator(kernel="scheduled")
        pulse = Pulse(period=10)
        sim.add(pulse)
        log = []
        for attribute in ("step", "commit"):
            _count_calls(pulse, attribute, log)
        _count_calls(sim, "tick", log)
        # 95 lies inside the idle stretch (91, 100): the bisection
        # must stop there, not at the next wake.
        self.drive(sim, how, 95)
        assert sim.cycle == 95
        ticked = 95 - sim.idle_cycles_skipped
        assert ticked == 10  # cycles 0, 10, ..., 90
        assert log == ["tick", "step"] * ticked

    @pytest.mark.parametrize("how", ["run", "run_until"])
    @pytest.mark.parametrize("kernel", ["scheduled", "naive"])
    def test_saturated_component_under_the_bypass(self, kernel, how):
        # (The name predates the wake_at kernel: there is no bypass
        # left, an always-busy component is simply due every cycle.)
        sim = CycleSimulator(kernel=kernel)
        naive = kernel == "naive"
        busy = Counter() if naive else Stepper()
        sim.add(busy)
        log = []
        for attribute in ("step", "commit"):
            _count_calls(busy, attribute, log)
        _count_calls(sim, "tick", log)
        self.drive(sim, how, 70)
        assert sim.cycle == 70 and sim.idle_cycles_skipped == 0
        phases = ["tick", "step", "commit"] if naive else ["tick", "step"]
        assert log == phases * 70
        assert (busy.steps, busy.commits) == (70, 70 if naive else 0)

    @pytest.mark.parametrize("how", ["run", "run_until"])
    def test_a_flat_core_step_shadowed_on_the_instance(self, how):
        """The clock steps a flat core by its C step only while the
        instance leaves ``step`` alone: shadowed, the shadow is what
        runs, once per cycle the core is stepped, and the run is the
        same run."""
        runs = []
        for shadow in (False, True):
            design, sink = TestNoTickWithoutWork.paced_echo()
            sim = design.sim
            calls = {}
            if shadow:
                for component in sim.components:
                    log = calls[component] = []
                    step = component.step
                    component.step = lambda cycle, step=step, log=log: (
                        log.append(cycle), step(cycle))[1]
            self.drive(sim, how, TestNoTickWithoutWork.CYCLES)
            runs.append((sink.frames, sim.cycle, sim.component_steps,
                         sim.idle_cycles_skipped))
        assert runs[0] == runs[1]
        assert sum(map(len, calls.values())) == sim.component_steps
        assert design.mesh.core in calls and design.tile_core in calls
        for log in calls.values():
            assert log == sorted(set(log))
        assert len(calls[design.mesh.core]) > 100


class TestCommitList:
    """The scheduled kernel has no commit pass, so it takes only
    components whose class leaves ``commit`` as the shared
    ``no_commit``; everything else runs under the naive kernel."""

    def test_scheduled_kernel_refuses_a_commit_phase(self):
        from repro.noc.mesh import LocalPort
        from repro.noc.router import Router

        class Inherits(Wakeable):
            def step(self, cycle):
                pass

        class Aliases:
            commit = no_commit

            def step(self, cycle):
                pass

        class OwnNoOp(Inherits):
            def commit(self):
                pass

        router = Router((0, 0))
        for component in (router, LocalPort(router), OwnNoOp()):
            sim = CycleSimulator(kernel="scheduled")
            with pytest.raises(TypeError, match=type(component).__name__):
                sim.add(component)
            assert sim.components == ()
            naive = CycleSimulator(kernel="naive")
            naive.add(component)
            assert naive.components == (component,)
        sim = CycleSimulator()
        accepted = [Inherits(), Aliases()]
        sim.add_all(accepted)
        sim.run(3)
        assert sim.components == tuple(accepted)
        with pytest.raises(TypeError, match="kernel='naive'"):
            sim.add(Counter())

    def test_default_designs_commit_nothing(self):
        """Under ``fast`` every shipped design is flat cores plus
        commit-free components (``mesh.core.commit`` stays an attribute
        — perflab wraps it — but it is the shared no-op, never
        called)."""
        from repro.designs import SHIPPED, load_design
        from repro.loadgen.flows import build_competing_flows

        sizes = {}
        for name in SHIPPED:
            design = load_design(name)[1]()
            sizes[name] = len(design.sim.components)
            assert design.mesh.core in design.sim.components
            for component in design.sim.components:
                assert type(component).commit is no_commit, component
        # Two flat cores each, but for the managed NAT: data mesh, tile
        # core, control mesh and four control endpoints.
        assert sizes.pop("managed_nat_echo") == 7
        assert set(sizes.values()) == {2}
        sim = build_competing_flows()[0].sim
        for component in sim.components:
            assert type(component).commit is no_commit, component
        # The TCP set-up: mesh, tiles, wire, fault engine, peer
        # network and three peers.
        assert len(sim.components) == 8


def test_wake_reuses_the_waker_made_at_add():
    sim = CycleSimulator(kernel="scheduled")
    consumer = SleepyConsumer(StagedFifo())
    sim.add(consumer)
    assert consumer._kernel_wake.component is consumer
    assert consumer.fifo._wakers == [consumer._kernel_wake]
    sim.run(3)
    assert sim.wake_cycle(consumer) is None     # only a wake rouses it
    consumer._wake()
    assert sim.wake_cycle(consumer) == sim.cycle == 3
    naive = CycleSimulator(kernel="naive")
    sleeper = SleepyConsumer(StagedFifo())
    naive.add(sleeper)
    sleeper._wake()
    assert sleeper._kernel_wake is None and sleeper.fifo._wakers == []
    assert naive.wake_cycle(sleeper) == naive.cycle


def test_the_kernel_waker_is_compiled_and_its_tags_are_read_only():
    sim = CycleSimulator()
    busy, consumer = Stepper(), SleepyConsumer(StagedFifo())
    sim.add_all([busy, consumer])
    hook = consumer._kernel_wake
    assert not hasattr(hook, "__code__")
    assert (hook.component, hook.slot) == (consumer, 1)
    for tag in ("component", "slot"):
        with pytest.raises(AttributeError):
            setattr(hook, tag, None)
    assert (hook.component, hook.slot) == (consumer, 1)
    with pytest.raises(TypeError):
        hook(1)
    sim.run(4)
    assert sim.wake_cycle(consumer) is None
    hook()
    assert sim.wake_cycle(consumer) == sim.cycle == 4


@pytest.mark.parametrize("kernel", ["scheduled", "naive"])
def test_a_component_is_registered_once(kernel):
    """A second ``add`` of the same component is refused: it would get
    a second slot, be stepped twice a cycle, and under the scheduled
    kernel keep its ``_kernel_wake`` wired to the first."""
    sim = CycleSimulator(kernel=kernel)
    pulse = Answering(lambda cycle: None)
    sim.add(pulse)
    hook = pulse._kernel_wake
    with pytest.raises(ValueError, match="already registered"):
        sim.add(pulse)
    with pytest.raises(ValueError, match="already registered"):
        sim.add_all([Answering(lambda cycle: None), pulse])
    assert sim.components[0] is pulse and len(sim.components) == 2
    assert pulse._kernel_wake is hook
    sim.run(10)
    assert pulse.stepped == list(range(10))


# -- the wake_at scheduler ---------------------------------------------------


class TestNoTickWithoutWork:
    """Idle means idle: under ``fast`` a paced design is ticked on
    exactly the cycles some component has work, and every other cycle
    is skipped."""

    CYCLES = 6_000

    @staticmethod
    def paced_echo():
        from repro.designs import FrameSink, FrameSource, UdpEchoDesign
        from repro.noc.message import reset_id_counters
        from repro.packet import (
            IPv4Address,
            MacAddress,
            build_ipv4_udp_frame,
        )

        reset_id_counters()
        design = UdpEchoDesign(udp_port=7)
        ip, mac = IPv4Address("10.0.0.1"), MacAddress("02:00:00:00:00:01")
        design.add_client(ip, mac)
        frame = build_ipv4_udp_frame(mac, design.server_mac, ip,
                                     design.server_ip, 5555, 7,
                                     bytes(1400))
        source = FrameSource(design.inject, lambda i: frame, rate=5.0,
                             count=15)
        sink = FrameSink(design.eth_tx)
        design.sim.add(source)
        design.sim.add(sink)
        return design, sink

    @staticmethod
    def has_work(component, cycle):
        """Whether ``component`` has work at ``cycle``, read from its own
        state rather than from anything the scheduler stores."""
        from repro.designs import FrameSink, FrameSource
        from repro.noc.flatmesh import FlatMeshCore
        from repro.tiles.flatcore import FlatTileCore

        if isinstance(component, FlatMeshCore):
            return bool(component._ring_total or any(component._inj_busy))
        if isinstance(component, FlatTileCore):
            return any(component._busy) or any(
                0 <= deadline <= cycle for deadline in component._deadlines)
        if isinstance(component, FrameSource):
            return not component.done and component._next_free <= cycle
        if isinstance(component, FrameSink):
            return any(tile.frames_out and tile.frames_out[0][1] <= cycle
                       for tile in component.eth_tx)
        raise AssertionError(f"no oracle for {type(component).__name__}")

    def test_every_tick_has_work_and_every_idle_cycle_is_skipped(self):
        design, sink = self.paced_echo()
        sim = design.sim
        assert len(sim.components) == 4
        tick = sim.tick
        idle_ticks = []
        ticks = []

        def watched_tick():
            ticks.append(sim.cycle)
            if not any(self.has_work(c, sim.cycle) for c in sim.components):
                idle_ticks.append(sim.cycle)
            tick()

        sim.tick = watched_tick
        sim.run(self.CYCLES)
        assert sink.count == 15
        assert idle_ticks == []
        assert len(ticks) + sim.idle_cycles_skipped == self.CYCLES
        assert sim.idle_cycles_skipped > self.CYCLES // 3

        # The same design ticked through every cycle (``tick`` never
        # skips): the cycles on which nobody has work are the cycles
        # ``run`` skipped, and skipping them changes nothing.
        shadow, shadow_sink = self.paced_echo()
        idle_cycles = []
        for cycle in range(self.CYCLES):
            if not any(self.has_work(c, cycle)
                       for c in shadow.sim.components):
                idle_cycles.append(cycle)
            shadow.sim.tick()
        assert shadow_sink.frames == sink.frames
        assert sim.idle_cycles_skipped == len(idle_cycles)
        assert sorted(set(range(self.CYCLES)) - set(ticks)) == idle_cycles


class Mailbox(Wakeable):
    """Sleeps over an unstaged inbox; logs when it first sees an item.
    ``on_cycle`` maps a cycle to the mailboxes it posts to then."""

    def __init__(self, on_cycle=None):
        self.inbox = []
        self.seen = []
        self.stepped = []
        self.on_cycle = on_cycle or {}

    def step(self, cycle):
        self.stepped.append(cycle)
        while self.inbox:
            self.seen.append((cycle, self.inbox.pop(0)))
        for target in self.on_cycle.get(cycle, ()):
            target.inbox.append(f"from {cycle}")
            target._wake()
        return min((c for c in self.on_cycle if c > cycle), default=NEVER)


class TestWakeRule:
    """A wake lands where stepping everything in order would let the
    woken component see the change: this tick if its slot is still
    ahead of the waker's, the next tick if it has passed."""

    @staticmethod
    def build(kernel):
        sim = CycleSimulator(kernel=kernel)
        early = Mailbox()
        late = Mailbox()
        waker = Mailbox(on_cycle={5: (early, late)})
        sim.add_all([early, waker, late])
        return sim, early, waker, late

    @pytest.mark.parametrize("kernel", ["scheduled", "naive"])
    def test_earlier_slot_wakes_this_tick_later_slot_next(self, kernel):
        sim, early, waker, late = self.build(kernel)
        sim.run(10)
        assert late.seen == [(5, "from 5")]     # slot ahead: this tick
        assert early.seen == [(6, "from 5")]    # slot passed: next tick

    def test_sleepers_take_no_other_step(self):
        sim, early, waker, late = self.build("scheduled")
        sim.run(10)
        assert waker.stepped == [0, 5]
        assert late.stepped == [0, 5]
        assert early.stepped == [0, 6]
        assert sim.idle_cycles_skipped == 10 - 3

    def test_between_ticks_a_wake_is_for_the_current_cycle(self):
        sim, early, waker, late = self.build("scheduled")
        sim.run(3)
        assert sim.wake_cycle(late) is None
        assert sim.wake_cycle(waker) == 5
        late.inbox.append("poke")
        late._wake()
        assert sim.wake_cycle(late) == 3
        sim.run(1)
        assert late.seen == [(3, "poke")]
        # Waking a component that is already due changes nothing.
        waker._wake()
        assert sim.wake_cycle(waker) == 4
        waker._wake()
        sim.run(6)
        assert waker.stepped == [0, 4, 5]


class Answering(Wakeable):
    """Logs the cycle of every step and returns ``answer(cycle)``;
    ``during`` maps a cycle to the components that step wakes."""

    def __init__(self, answer, during=None):
        self.answer = answer
        self.during = during or {}
        self.stepped = []

    def step(self, cycle):
        self.stepped.append(cycle)
        for target in self.during.get(cycle, ()):
            target._wake()
        return self.answer(cycle)


class TestStepAnswer:
    """What ``step`` returns is the one thing the scheduled kernel asks:
    None is every cycle, NEVER only a wake, a cycle at or before the
    one stepped the next, and a wake only ever lowers the answer."""

    def test_a_wake_lowers_a_slot_ahead_to_this_cycle_a_passed_one_to_the_next(
            self):
        sim = CycleSimulator()
        early = Answering(lambda c: 9 if c < 9 else NEVER)
        late = Answering(lambda c: NEVER)
        waker = Answering(lambda c: 5 if c < 5 else NEVER)
        waker.during = {5: (early, late)}
        sim.add_all([early, waker, late])
        sim.run(20)
        assert late.stepped == [0, 5]           # ahead: this cycle
        assert early.stepped == [0, 6, 9]       # passed: the next, and
        assert waker.stepped == [0, 5]          # its own timer still

    def test_a_wake_during_its_own_step_survives_a_never_answer(self):
        sim = CycleSimulator()
        selfish = Answering(lambda c: NEVER)
        selfish.during = {0: (selfish,), 7: (selfish,)}
        sim.add(selfish)
        sim.run(5)
        assert selfish.stepped == [0, 1]
        assert sim.wake_cycle(selfish) is None
        selfish._wake()
        sim.run(2)
        assert selfish.stepped == [0, 1, 5]

    def test_an_answer_at_or_before_the_cycle_means_the_next(self):
        sim = CycleSimulator()
        stale = Answering(lambda c: c - 3 if c % 2 else c)
        sim.add(stale)
        sim.run(6)
        assert stale.stepped == list(range(6))
        assert sim.wake_cycle(stale) == sim.cycle == 6
        assert sim.idle_cycles_skipped == 0

    def test_none_is_every_cycle_and_never_only_a_wake(self):
        sim = CycleSimulator()
        busy = Answering(lambda c: None)
        sleeper = Answering(lambda c: NEVER)
        sim.add_all([busy, sleeper])
        sim.run(20)
        assert busy.stepped == list(range(20))
        assert sleeper.stepped == [0]
        assert sim.wake_cycle(sleeper) is None
        sleeper._wake()
        sim.run(5)
        assert sleeper.stepped == [0, 20]
        assert busy.stepped == list(range(25))

    def test_naive_kernel_steps_everything_whatever_the_answer(self):
        sim = CycleSimulator(kernel="naive")
        answers = [None, NEVER, 100, -1]
        components = [Answering(lambda c, a=a: a) for a in answers]
        sim.add_all(components)
        sim.run(10)
        for component in components:
            assert component.stepped == list(range(10))
            assert sim.wake_cycle(component) == sim.cycle
        assert sim.idle_cycles_skipped == sim.component_steps == 0


class Churner(Wakeable):
    """Sleeps on a timer of its own period and pokes a neighbour every
    third firing; logs the cycle of every step the kernel makes."""

    def __init__(self, period):
        self.period = period
        self.neighbour = None
        self.pokes = 0
        self.fired = []
        self._next = period
        self.stepped = []

    def step(self, cycle):
        self.stepped.append(cycle)
        if self.pokes:
            self.fired.append((cycle, "poked", self.pokes))
            self.pokes = 0
        if cycle >= self._next:
            self.fired.append((cycle, "timer"))
            self._next = cycle + self.period
            if len(self.fired) % 3 == 0:
                self.neighbour.pokes += 1
                self.neighbour._wake()
        return self._next


class TestChurn:
    """Forty components sleeping, timing out and waking each other:
    the scheduler's work is per transition, not per component per
    tick — a sleeper is called for nothing until it is due again."""

    @staticmethod
    def build(kernel):
        sim = CycleSimulator(kernel=kernel)
        churners = [Churner(period=7 + 3 * (i % 11)) for i in range(40)]
        for i, churner in enumerate(churners):
            churner.neighbour = churners[(i * 7 + 3) % 40]
        sim.add_all(churners)
        return sim, churners

    def test_one_question_per_step_and_none_while_asleep(self):
        sim, churners = self.build("scheduled")
        ticks = []
        tick = sim.tick
        sim.tick = lambda: (ticks.append(sim.cycle), tick())
        sim.run(2_000)
        naive, reference = self.build("naive")
        naive.run(2_000)
        assert [c.fired for c in churners] == [c.fired for c in reference]
        steps = sum(len(c.stepped) for c in churners)
        assert steps == sim.component_steps
        # Sleep, timer and wake transitions really happened, ...
        assert sim.idle_cycles_skipped > 0
        assert any(kind == "poked" for c in churners
                   for _cycle, kind, *_ in c.fired)
        # ... stepping only who is due (naive: 40 per cycle), and each
        # step but the first (cycle 0, before any answer) is one its
        # answer or a poke asked for: the step is the only call, and
        # nothing is polled while a component sleeps.
        assert steps < 2_000 * 40 // 8
        for churner in churners:
            fired = {cycle for cycle, *_ in churner.fired}
            assert [c for c in churner.stepped if c not in fired] == [0]
        assert len(ticks) + sim.idle_cycles_skipped == 2_000

    def test_sanitized_tick_files_the_same_wake_cycles_as_tick(self):
        """``sanitized_tick`` repeats ``tick``'s wake bookkeeping in
        a body of its own; through the same churn — timers, wakes for
        slots ahead and slots passed, a timer already in the past — the
        two must agree on every component's wake cycle after every
        cycle."""

        class StaleTimer(Wakeable):
            def step(self, cycle):
                return 3

        class Shadow:
            def shadow_step(self, component, cycle):
                component.step(cycle)

            def step_phase_done(self, cycle):
                pass

            def cycle_done(self, cycle):
                pass

        plain, churners = self.build("scheduled")
        sanitized, shadowed = self.build("scheduled")
        observer = Shadow()
        for sim, group in ((plain, churners), (sanitized, shadowed)):
            group.append(StaleTimer())
            sim.add(group[-1])
        for _ in range(600):
            plain.tick()
            sanitized.sanitized_tick(observer)
            assert [plain.wake_cycle(c) for c in churners] == \
                [sanitized.wake_cycle(c) for c in shadowed]
        assert plain.wake_cycle(churners[-1]) == 600    # clamped: next tick
        del churners[-1], shadowed[-1]
        assert [c.fired for c in churners] == [c.fired for c in shadowed]
        assert any(kind == "poked" for c in churners
                   for _cycle, kind, *_ in c.fired)


def test_one_contract_step_says_when_it_is_next_due():
    """The kernel asks a component one thing, by calling its ``step``:
    no class under ``src/repro`` defines the two questions the contract
    used to ask after every step."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bdef (is_idle|next_event_cycle)\b", line)]
    assert offenders == []


class Boom(Exception):
    pass


class Fuse(Wakeable):
    """Sleeps three cycles between steps and raises when stepped at
    ``at``."""

    def __init__(self, at):
        self.at = at
        self.stepped = []

    def step(self, cycle):
        self.stepped.append(cycle)
        if cycle == self.at:
            raise Boom(f"at {cycle}")
        return cycle + 3


class TestAStepThatRaises:
    """An exception out of a step ends the tick with nothing of it
    taken: the same exception at the same cycle under either kernel, no
    slot left marked as stepping, and the tick's cycle and step count
    not counted."""

    @pytest.mark.parametrize("how", ["tick", "run", "run_until"])
    @pytest.mark.parametrize("kernel", ["scheduled", "naive"])
    def test_same_exception_same_cycle_and_the_tick_undone(self, kernel,
                                                           how):
        sim = CycleSimulator(kernel=kernel)
        sleeper, busy, fuse = Mailbox(), Stepper(), Fuse(at=9)
        sim.add_all([sleeper, busy, fuse])
        sim.run(9)
        steps = sim.component_steps
        with pytest.raises(Boom, match="at 9"):
            if how == "tick":
                sim.tick()
            elif how == "run":
                sim.run(5)
            else:
                sim.run_until(lambda: False, max_cycles=5)
        assert (sim.cycle, sim._stepping, sim.component_steps) == \
            (9, -1, steps)
        assert busy.steps == 10 and fuse.stepped[-1] == 9
        # A wake between ticks is for the current cycle: no stale slot
        # makes the sleeper, ahead of the fuse, wait for the next one.
        sleeper.inbox.append("poke")
        sleeper._wake()
        assert sim.wake_cycle(sleeper) == 9
        fuse.at = None
        sim.run(1)
        assert sleeper.seen == [(9, "poke")]


@pytest.mark.parametrize("kernel", ["scheduled", "naive"])
def test_the_wall_clock_budget_is_checked_between_ticks(kernel):
    class Slow(Wakeable):
        def __init__(self):
            self.stepped = []

        def step(self, cycle):
            self.stepped.append(cycle)
            time.sleep(0.001)
            return cycle + 5

    sim = CycleSimulator(kernel=kernel)
    slow = Slow()
    sim.add(slow)
    # A check that never fires ends in a plain TimeoutError instead,
    # after about 4 000 steps.
    with pytest.raises(WallClockBudgetExceeded, match="cycles run"):
        sim.run_until(lambda: False, max_cycles=20_000,
                      wall_clock_budget_s=0.05)
    assert sim._stepping == -1 and 1 <= len(slow.stepped) < 1_000
    # Raised after a tick or after a skip, never inside either.
    assert sim.cycle - slow.stepped[-1] in ((1, 5) if kernel == "scheduled"
                                            else (1,))


class TestTheCompiledLoopLeaksNothing:
    """The loop makes an int for ``cycle`` and ``component_steps`` every
    tick and stores each step's answer in ``_wake_at``: a reference it
    forgets to drop is an int or a singleton count that only grows.  A
    paced echo shaped like perflab's ``udp_idle_4x2`` ticks about 36
    times a frame and skips the rest."""

    def test_traced_memory(self):
        from repro.designs import UdpEchoDesign
        from tests.test_flatmesh import traced_growth

        # 400 frames are about 14 000 ticks: one leaked int a tick
        # would be over 400 KiB.
        assert traced_growth(bytes(1458), 400, build=UdpEchoDesign,
                             rate=5.0, max_cycles=400_000) < 256 * 1024

    def test_singleton_reference_counts(self):
        from repro.designs import UdpEchoDesign, attach_client
        from tests.test_flatcore import singleton_drift

        def build(profile):
            design = UdpEchoDesign(profile=profile)
            _source, design.sink = attach_client(
                design, bytes(1458), rate=5.0, count=200, keep_frames=False)
            return design

        drift = singleton_drift(build, lambda design: design.sink.count,
                                50, 200)
        # A leak drives a count up, a release it does not own down:
        # either, once a tick, is thousands apart from ``reference``.
        assert all(abs(fast - reference) < 100 for fast, reference
                   in zip(drift["fast"], drift["reference"])), drift
