"""Event-driven simulation kernel for the distributed-host experiments.

A classic timestamped event queue.  Host models (Linux stacks, DPDK
stacks, VR nodes, clients, switches) schedule callbacks; ties are broken
by insertion order so runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable


class Event:
    """A scheduled callback."""

    __slots__ = ("time", "callback", "args")

    def __init__(self, time: float, callback: Callable, args: tuple):
        self.time = time
        self.callback = callback
        self.args = args


class EventSimulator:
    """A deterministic discrete-event simulator."""

    def __init__(self):
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def schedule(self, delay: float, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event(self.now + delay, callback, args)
        heapq.heappush(self._queue, (event.time, next(self._counter), event))
        return event

    def schedule_at(self, time: float, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def run_until(self, end_time: float) -> None:
        """Process events with timestamps <= ``end_time``.

        Leaves ``now`` at ``end_time`` even if the queue drains early, so
        rate computations over the window are well defined.
        """
        while self._queue and self._queue[0][0] <= end_time:
            _, _, event = heapq.heappop(self._queue)
            self.now = event.time
            event.callback(*event.args)
        self.now = max(self.now, end_time)

