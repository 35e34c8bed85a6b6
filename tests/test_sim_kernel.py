"""Tests for the cycle-driven simulation kernel."""

import pytest

from repro.sim.kernel import (
    CycleSimulator,
    StagedFifo,
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

    def test_drain(self):
        fifo = StagedFifo()
        fifo.push(1)
        fifo.push(2)
        fifo.commit()
        assert fifo.drain() == [1, 2]
        assert len(fifo) == 0

    def test_drain_includes_staged(self):
        """Drain empties the staging buffer too — staged items must not
        silently commit on the next tick after a drain."""
        fifo = StagedFifo()
        fifo.push(1)
        fifo.commit()
        fifo.push(2)  # staged, not yet committed
        assert fifo.drain() == [1, 2]
        assert len(fifo) == 0
        assert fifo.occupancy == 0
        fifo.commit()
        assert len(fifo) == 0  # nothing reappears

    def test_drain_staged_frees_capacity(self):
        fifo = StagedFifo(capacity=1)
        fifo.push(1)
        assert not fifo.can_accept()
        fifo.drain()
        assert fifo.can_accept()


class TestCycleSimulator:
    def test_step_then_commit_each_cycle(self):
        sim = CycleSimulator()
        comp = Counter()
        sim.add(comp)
        sim.run(5)
        assert comp.steps == 5
        assert comp.commits == 5
        assert sim.cycle == 5

    def test_run_until(self):
        sim = CycleSimulator()
        comp = Counter()
        sim.add(comp)
        consumed = sim.run_until(lambda: comp.steps >= 3)
        assert consumed == 3

    def test_run_until_timeout(self):
        sim = CycleSimulator()
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=10)

    def test_registered_fifo_commits(self):
        sim = CycleSimulator()
        fifo = sim.register_fifo(StagedFifo())

        class Producer:
            def step(self, cycle):
                fifo.push(cycle)

            def commit(self):
                pass

        sim.add(Producer())
        sim.run(3)
        # Cycle 2's push commits at end of cycle 2; all three visible.
        assert fifo.drain() == [0, 1, 2]

    def test_two_phase_isolation(self):
        """A consumer never sees a value pushed in the same cycle."""
        sim = CycleSimulator()
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

            def commit(self):
                pass

        sim.add(Producer())
        sim.add(Observer())
        sim.run(4)
        assert seen == [(1, 0), (2, 1), (3, 2)]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            CycleSimulator(kernel="turbo")


class SleepyConsumer(Wakeable):
    """Test component honouring the quiescence contract: drains a FIFO,
    sleeps while it is empty."""

    def __init__(self, fifo):
        self.fifo = fifo
        self.steps = 0
        self.drained = []

    def step(self, cycle):
        self.steps += 1
        while self.fifo.peek() is not None:
            self.drained.append((cycle, self.fifo.pop()))

    def commit(self):
        self.fifo.commit()

    def wake_sources(self):
        return (self.fifo,)

    def is_idle(self):
        return not self.fifo._items and not self.fifo._staged


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

    def commit(self):
        pass

    def is_idle(self):
        return True

    def next_event_cycle(self):
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
        fifo.push("ping")  # external injection mid-quiescence
        sim.run(10)
        # Woken: the push commits, the consumer drains it next step.
        assert consumer.drained == [(11, "ping")]
        # ...then goes back to sleep instead of being stepped 10 times.
        assert consumer.steps <= 3

    def test_same_cycle_push_commits_on_schedule(self):
        """A producer stepping before a sleeping consumer wakes it in
        time for the consumer's FIFO to commit that same cycle — so the
        item is visible exactly one cycle after the push, as under the
        naive kernel."""
        results = {}
        for kernel in ("naive", "scheduled"):
            sim = CycleSimulator(kernel=kernel)
            fifo = StagedFifo()
            consumer = SleepyConsumer(fifo)

            class Producer:
                def step(self, cycle):
                    if cycle == 5:
                        fifo.push("x")

                def commit(self):
                    pass

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
        comp = Counter()
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
        sim.wake(consumer)
        sim.run(1)
        assert consumer.steps == before + 1

    def test_wake_early_is_harmless(self):
        """Waking an idle component early must not change behaviour —
        its step is a no-op and it re-idles."""
        sim = CycleSimulator(kernel="scheduled")
        alarm = Alarm(period=30)
        sim.add(alarm)
        sim.run(10)
        sim.wake(alarm)
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
    """Sleeps between pulses ``period`` apart; has a real ``commit``."""

    def __init__(self, period):
        self.period = period

    def step(self, cycle):
        self._last = cycle

    def commit(self):
        pass

    def is_idle(self):
        return True

    def next_event_cycle(self):
        return self._last + self.period


class Heavy(Counter):
    """Always busy and weighty enough to engage the saturation bypass."""

    kernel_weight = 16


def _count_calls(owner, attribute, log):
    """Shadow ``owner.attribute`` on the instance, as hostprof does."""
    original = getattr(owner, attribute)

    def wrapper(*args):
        log.append(attribute)
        return original(*args)

    setattr(owner, attribute, wrapper)


class TestByNameCallingContract:
    """``repro.telemetry.hostprof`` and ``benchmarks/perflab`` shadow
    ``sim.tick``, ``component.step`` and ``component.commit`` on the
    instances after construction; the kernel must reach each of them
    once per cycle it does not skip, through ``run`` and ``run_until``
    alike."""

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
        assert log == ["tick", "step", "commit"] * ticked

    @pytest.mark.parametrize("how", ["run", "run_until"])
    @pytest.mark.parametrize("kernel", ["scheduled", "naive"])
    def test_saturated_component_under_the_bypass(self, kernel, how):
        sim = CycleSimulator(kernel=kernel)
        heavy = Heavy()
        sim.add(heavy)
        log = []
        for attribute in ("step", "commit"):
            _count_calls(heavy, attribute, log)
        _count_calls(sim, "tick", log)
        self.drive(sim, how, 70)  # bypass cycles and two pruning ticks
        assert sim.cycle == 70 and sim.idle_cycles_skipped == 0
        assert log == ["tick", "step", "commit"] * 70
        assert (heavy.steps, heavy.commits) == (70, 70)


class TestCommitList:
    """The scheduled kernel commits only components whose class does
    not leave ``commit`` as the shared ``no_commit``."""

    def test_membership_is_by_identity_of_the_class_attribute(self):
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

        sim = CycleSimulator(kernel="scheduled")
        components = [Inherits(), Aliases(), OwnNoOp(), Counter()]
        sim.add_all(components)
        assert list(sim._committers) == components[2:]
        sim.run(3)
        assert components[3].commits == 3

    def test_late_woken_committer_still_commits_that_cycle(self):
        sim = CycleSimulator(kernel="scheduled")
        fifo = StagedFifo()
        consumer = SleepyConsumer(fifo)

        class Producer(Wakeable):
            def step(self, cycle):
                if cycle == 5:
                    fifo.push("x")

        sim.add(consumer)   # registered first: asleep when woken
        sim.add(Producer())
        sim.run(8)
        assert consumer.drained == [(6, "x")]

    def test_default_designs_commit_only_the_mesh_core(self):
        from repro.designs import ScaledEchoDesign, UdpEchoDesign
        from repro.loadgen.flows import build_competing_flows

        for design in (UdpEchoDesign(), ScaledEchoDesign(),
                       build_competing_flows()[0]):
            sim = design.sim
            assert list(sim._committers) == [design.mesh.core]
            assert len(sim._components) >= 2
        # The TCP set-up: mesh, tiles, wire, fault engine, peer
        # network and three peers — one committer among eight.
        assert len(sim._components) == 8


def test_wake_reuses_the_waker_made_at_add():
    sim = CycleSimulator(kernel="scheduled")
    consumer = SleepyConsumer(StagedFifo())
    sim.add(consumer)
    assert sim._wakers[consumer] is consumer._kernel_wake
    assert consumer.fifo._wakers == [consumer._kernel_wake]
    sim.wake(Counter())  # never added: a no-op, not an error
    naive = CycleSimulator(kernel="naive")
    counter = Counter()
    naive.add(counter)
    naive.wake(counter)
    assert naive._wakers == {}
