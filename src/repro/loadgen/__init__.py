"""Open-loop population-scale load generation (capacity planning).

The closed-loop harness in :mod:`repro.designs.harness` answers "how
fast can the stack echo?"; this subsystem answers the ROADMAP's
north-star question — what happens under *offered* load from a large
client population.  Millions of clients collapse, as in any open-loop
model, into aggregate arrival processes:

- :mod:`repro.loadgen.arrivals` — seed-deterministic interarrival
  generators (Poisson, bursty on/off, diurnal-modulated) and
  Zipf-skewed key popularity, all drawn from
  :class:`repro.sim.rng.SeededStreams` substreams;
- :mod:`repro.loadgen.source` — :class:`OpenLoopSource`, which injects
  by arrival *schedule* rather than by completion, with an explicit
  admission boundary (overrun is counted, never silently buffered);
- :mod:`repro.loadgen.sweep` — the offered-load sweep driver: walks a
  load list over the UDP echo design, records p50/p99/p999 latency and
  goodput-vs-offered-load through :mod:`repro.telemetry.metrics`;
- :mod:`repro.loadgen.flows` — N competing TCP flows with pluggable
  congestion control (:mod:`repro.tcp.cc`) through seeded loss, with
  Jain-fairness and retransmission signatures.

CLI: ``python -m repro.tools.load``.
"""

from repro.loadgen.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    ZipfPopularity,
    make_arrivals,
)
from repro.loadgen.flows import run_competing_flows
from repro.loadgen.source import OpenLoopSource, nic_backlog
from repro.loadgen.sweep import run_point, sweep

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "BurstyArrivals",
    "DiurnalArrivals",
    "OpenLoopSource",
    "PoissonArrivals",
    "ZipfPopularity",
    "make_arrivals",
    "nic_backlog",
    "run_competing_flows",
    "run_point",
    "sweep",
]
