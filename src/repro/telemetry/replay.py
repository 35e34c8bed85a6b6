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

from repro.sim.kernel import NEVER, no_commit


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
        """Interpose on the design."""
        self.design.inject = self.inject


class TraceReplayer:
    """Replays a recorded trace into a design, cycle-accurately.

    A clocked component: add it to the target design's simulator.  The
    trace's first event is aligned to cycle 0; every later
    event keeps its recorded offset.  Nothing happens between events:
    the replayer sleeps until the cycle before the next one is due.
    """

    def __init__(self, design: object, events: list[TraceEvent]) -> None:
        self.design = design
        self.events = sorted(events, key=lambda e: e.cycle)
        self._base = self.events[0].cycle if self.events else 0
        self._index = 0
        self.replayed = 0
        # Events due at or before the start are pre-loaded, exactly as
        # a recorded run's initial frames were injected before the
        # clock started.
        self._inject_until(0)

    @property
    def done(self) -> bool:
        return self._index >= len(self.events)

    def _due(self) -> int:
        """The cycle the next event is due (there must be one)."""
        return self.events[self._index].cycle - self._base

    def _inject_until(self, cycle: int) -> None:
        while not self.done:
            due = self._due()
            if due > cycle:
                return
            self.design.inject(self.events[self._index].frame, due)
            self._index += 1
            self.replayed += 1

    def step(self, cycle: int) -> int:
        # Inject one cycle ahead of the due time (stamped with the due
        # cycle): components that already stepped this cycle then see
        # the frame become consumable exactly at its recorded cycle.
        self._inject_until(cycle + 1)
        return NEVER if self.done else self._due() - 1

    commit = no_commit
