"""Simulation substrates.

Two simulators underpin the reproduction:

- :mod:`repro.sim.kernel` — a deterministic, two-phase, cycle-driven
  simulator used for the on-chip world (NoC routers, tiles, MAC).  It
  models synchronous hardware: every component computes in the *step*
  phase against last cycle's state, and all state changes become visible
  in the *commit* phase.
- :mod:`repro.sim.events` — a timestamped event-driven simulator used for
  the distributed-systems world (hosts, switches, links, clients).

:mod:`repro.sim.rng` provides named, seeded random streams so every
experiment is reproducible run-to-run; :mod:`repro.sim.profiles` is the
two-row table (``reference`` / ``fast``) a design's ``profile=`` is
looked up in.
"""

from repro.sim.events import EventSimulator
from repro.sim.kernel import ClockedComponent, CycleSimulator, StagedFifo
from repro.sim.rng import SeededStreams

__all__ = [
    "ClockedComponent",
    "CycleSimulator",
    "EventSimulator",
    "SeededStreams",
    "StagedFifo",
]
