"""Tests for the event-driven simulator and the RNG streams."""

import pytest

from repro.sim.events import EventSimulator
from repro.sim.rng import SeededStreams


class TestEventSimulator:
    def test_events_fire_in_time_order(self):
        sim = EventSimulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run_until(100.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = EventSimulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
        sim.run_until(100.0)
        assert fired == list(range(5))

    def test_now_advances(self):
        sim = EventSimulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run_until(100.0)
        assert times == [2.5]

    def test_nested_scheduling(self):
        sim = EventSimulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(1.0, second)

        def second():
            fired.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run_until(100.0)
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_run_until_stops_and_pins_now(self):
        sim = EventSimulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run_until(2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run_until(10.0)
        assert fired == ["a", "b"]

    def test_negative_delay_rejected(self):
        sim = EventSimulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at(self):
        sim = EventSimulator()
        fired = []
        sim.schedule_at(4.0, lambda: fired.append(sim.now))
        sim.run_until(100.0)
        assert fired == [4.0]


class TestSeededStreams:
    def test_same_name_same_sequence(self):
        a = SeededStreams(1).stream("x")
        b = SeededStreams(1).stream("x")
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        streams = SeededStreams(1)
        xs = [streams.stream("x").random() for _ in range(5)]
        ys = [streams.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_differ(self):
        a = SeededStreams(1).stream("x").random()
        b = SeededStreams(2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        streams = SeededStreams()
        assert streams.stream("x") is streams.stream("x")
