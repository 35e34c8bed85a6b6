"""Cycle-accurate trace capture and replay.

TCP on hardware is timing-dependent: "the TCP engine may behave
differently depending on the timing of events (e.g. it may drop
different packets)", so reproduction needs the *exact* cycles, not a
tcpdump-style trace.  The recorder captures (cycle, frame) at a
design's ingress; the replayer drives another design instance with the
same frames at the same relative cycles.  Determinism of the replayed
run is asserted by the tests — the property the paper's debugging
methodology depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.kernel import no_commit


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    frame: bytes


@dataclass
class FrameTraceRecorder:
    """Wraps a design's ``inject`` to capture a timed frame trace."""

    design: object
    events: list[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._inner_inject = self.design.inject

    def inject(self, frame: bytes, cycle: int) -> None:
        self.events.append(TraceEvent(cycle=cycle, frame=bytes(frame)))
        self._inner_inject(frame, cycle)

    def attach(self) -> None:
        """Interpose on the design (undo with :meth:`detach`)."""
        self.design.inject = self.inject

    def detach(self) -> None:
        self.design.inject = self._inner_inject


class TraceReplayer:
    """Replays a recorded trace into a design, cycle-accurately.

    A clocked component: add it to the target design's simulator.  The
    trace's first event is aligned to ``start_cycle``; every later
    event keeps its recorded offset.
    """

    def __init__(self, design: object, events: list[TraceEvent],
                 start_cycle: int = 0) -> None:
        self.design = design
        self.events = sorted(events, key=lambda e: e.cycle)
        self.start_cycle = start_cycle
        self._base = self.events[0].cycle if self.events else 0
        self._index = 0
        self.replayed = 0
        # Events due at or before the start are pre-loaded, exactly as
        # a recorded run's initial frames were injected before the
        # clock started.
        while not self.done:
            event = self.events[self._index]
            due = self.start_cycle + (event.cycle - self._base)
            if due > self.start_cycle:
                break
            self.design.inject(event.frame, due)
            self._index += 1
            self.replayed += 1

    @property
    def done(self) -> bool:
        return self._index >= len(self.events)

    def step(self, cycle: int) -> None:
        # Inject one cycle ahead of the due time (stamped with the due
        # cycle): components that already stepped this cycle then see
        # the frame become consumable exactly at its recorded cycle.
        while not self.done:
            event = self.events[self._index]
            due = self.start_cycle + (event.cycle - self._base)
            if due > cycle + 1:
                return
            self.design.inject(event.frame, due)
            self._index += 1
            self.replayed += 1

    commit = no_commit
