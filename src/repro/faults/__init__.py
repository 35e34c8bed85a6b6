"""``repro.faults`` — deterministic fault injection and chaos testing.

The reproduction's reliability claims (hostile traffic is dropped,
never crashed on; TCP retransmits to completion; the VR cluster
survives node failure; a wedged grant holds a chain of links) are
exercised through one declarative layer:

- :class:`FaultPlan` — a seed, wire impairments, ejection-flit
  corruption, VR node freezes and one list of timed windows (tile
  freeze/crash, link stall, router misroute/stuck grant)
  (:mod:`repro.faults.plan`);
- :func:`attach_faults` — instantiates the plan on a cycle-level
  design (:mod:`repro.faults.engine`); every shipped design
  constructor accepts ``fault_plan=`` and calls it;
- :func:`apply_vr_faults` — the adapter for the event-level VR
  cluster (:mod:`repro.faults.vr`);
- ``python -m repro.tools.chaos`` — seed-sweeping CLI asserting
  recovery invariants over the shipped designs, every window kind
  included.

Determinism: all randomness derives from the plan seed via
:class:`repro.sim.rng.SeededStreams`, and every injection point sits
on state shared by both meshes, so an active plan keeps the
``fast`` / ``reference`` differential suite green.
"""

from repro.faults.engine import FaultEngine, FaultyWire, attach_faults
from repro.faults.plan import FaultPlan, WireFaultSpec
from repro.faults.vr import apply_vr_faults

__all__ = [
    "FaultEngine",
    "FaultPlan",
    "FaultyWire",
    "WireFaultSpec",
    "apply_vr_faults",
    "attach_faults",
]
