"""The open-loop injector and its admission boundary.

A closed-loop source (:class:`repro.designs.harness.FrameSource`)
slows down when the design does — fine for "how fast can it go",
useless for "what happens at 80 Gbps offered".  The
:class:`OpenLoopSource` injects on its arrival process's schedule no
matter what the design is doing, which forces the question every
open-loop harness must answer explicitly: *what happens to an arrival
the NIC cannot admit?*

Here the answer is the admission boundary: ``admission()`` reports the
NIC's ingress backlog, and an arrival landing while it is at
``max_admission`` is **counted and discarded** — never queued inside
the harness.  Silently buffering would turn the harness back into a
closed-loop source with an infinite queue, hiding exactly the overload
behaviour the sweep exists to measure.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.sim.kernel import NEVER, Wakeable

OVERRUN_REASON = "offered: admission overrun"


def nic_backlog(design) -> Callable[[], int]:
    """The canonical admission gauge: frames the MAC has accepted but
    the Ethernet RX tile has not yet begun to service."""
    rx_ready = design.eth_rx._rx_ready
    return lambda: len(rx_ready)


class OpenLoopSource(Wakeable):
    """Inject frames on an arrival schedule (a clocked component).

    ``frame_for(seq, cycle)`` builds the ``seq``-th frame (the
    injection cycle is offered so payloads can carry timestamps).
    ``arrivals`` is an :class:`repro.loadgen.arrivals.ArrivalProcess`.
    Arrivals after ``horizon_cycles`` are not offered.  Purely timer-driven:
    the next arrival time is always known, and ``step`` returns it.
    """

    def __init__(self, push: Callable[[bytes, int], None],
                 frame_for: Callable[[int, int], bytes],
                 arrivals,
                 horizon_cycles: int,
                 admission: Callable[[], int] | None = None,
                 max_admission: int = 64):
        self.push = push
        self.frame_for = frame_for
        self.arrivals = arrivals
        self.horizon_cycles = horizon_cycles
        self.admission = admission
        self.max_admission = max_admission
        self.offered = 0
        self.admitted = 0
        self.offered_dropped = 0
        self.drop_reasons: dict[str, int] = {}
        self.done = False
        self._next = arrivals.next_arrival()
        self._check_horizon()

    def _check_horizon(self) -> None:
        if self._next > self.horizon_cycles:
            self.done = True

    def step(self, cycle: int) -> int:
        while not self.done and self._next <= cycle:
            self.offered += 1
            if self.admission is not None and \
                    self.admission() >= self.max_admission:
                # The admission boundary: counted, never buffered.
                self.offered_dropped += 1
                self.drop_reasons[OVERRUN_REASON] = \
                    self.drop_reasons.get(OVERRUN_REASON, 0) + 1
            else:
                frame = self.frame_for(self.admitted, cycle)
                self.push(frame, cycle)
                self.admitted += 1
            self._next = self.arrivals.next_arrival()
            self._check_horizon()
        return NEVER if self.done else math.ceil(self._next)
