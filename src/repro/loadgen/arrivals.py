"""Seed-deterministic arrival processes and key popularity.

Each process draws from exactly one named
:class:`~repro.sim.rng.SeededStreams` stream, so adding a process to a
run never perturbs any other randomness and two runs with the same
root seed produce bit-identical arrival schedules regardless of
kernel, mesh backend, or host platform (``random.Random`` is a
portable Mersenne twister).

Times are in *cycles* and continuous (floats); the consumer quantises
to its clock.  All processes share one contract: ``next_arrival()``
returns a strictly later absolute arrival time each call, with
long-run mean interarrival equal to ``mean_interval_cycles``.
"""

from __future__ import annotations

import math
from bisect import bisect_left


class ArrivalProcess:
    """Base: an absolute-time arrival clock over per-gap draws."""

    kind = "base"

    def __init__(self, mean_interval_cycles: float, rng):
        if mean_interval_cycles <= 0:
            raise ValueError("mean_interval_cycles must be > 0, got "
                             f"{mean_interval_cycles!r}")
        self.mean = float(mean_interval_cycles)
        self.rng = rng
        self._t = 0.0

    def next_arrival(self) -> float:
        self._t += self._gap()
        return self._t


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential interarrival gaps — the
    aggregate of many independent low-rate clients."""

    kind = "poisson"

    def _gap(self) -> float:
        return self.rng.expovariate(1.0 / self.mean)


class BurstyArrivals(ArrivalProcess):
    """On/off (interrupted-Poisson) arrivals.

    Bursts of geometrically distributed length (mean ``burst_len``)
    arrive back-to-back at ``duty`` times the mean gap; each burst is
    preceded by an off-gap sized so the *long-run* mean interarrival
    stays exactly ``mean_interval_cycles`` — turning the duty knob
    reshapes variance, not offered load.
    """

    kind = "bursty"
    #: Mean arrivals per burst, and the in-burst gap as a share of the
    #: mean interarrival.
    burst_len = 16
    duty = 0.25

    def __init__(self, mean_interval_cycles: float, rng):
        super().__init__(mean_interval_cycles, rng)
        self._left = 0  # arrivals left in the current burst

    def _gap(self) -> float:
        if self._left > 0:
            self._left -= 1
            return self.mean * self.duty
        # Draw the next burst's length: geometric with mean burst_len.
        n = 1
        if self.burst_len > 1:
            p = 1.0 / self.burst_len
            while self.rng.random() >= p:
                n += 1
        self._left = n - 1
        # The off-gap carries the budget the burst's tight gaps saved:
        # n arrivals consume n*mean in the long run, the burst itself
        # only (n-1)*mean*duty + this gap.
        return n * self.mean - (n - 1) * self.mean * self.duty


class DiurnalArrivals(ArrivalProcess):
    """Poisson arrivals with a sinusoidally modulated rate.

    The instantaneous rate is ``(1 + amplitude*sin(2*pi*t/period)) /
    mean`` — a compressed diurnal cycle, so a sweep horizon spanning a
    few ``period_cycles`` sees the stack under its daily peak and
    trough.  Long-run mean interarrival approaches ``mean``.
    """

    kind = "diurnal"
    #: The modulation's period in cycles, and its depth.
    period = 1_000_000.0
    amplitude = 0.5

    def _gap(self) -> float:
        scale = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * self._t / self.period)
        return self.rng.expovariate(scale / self.mean)


class ZipfPopularity:
    """Zipf-skewed key sampling over ``n_keys`` keys.

    ``P(rank k) ~ 1/(k+1)**skew`` via a precomputed CDF and one
    uniform draw per sample — rank 0 is the hottest key.  With
    ``skew=0`` it degenerates to uniform popularity.
    """

    def __init__(self, n_keys: int, skew: float = 1.0, rng=None):
        if n_keys < 1:
            raise ValueError(f"n_keys must be >= 1, got {n_keys}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.n_keys = int(n_keys)
        self.rng = rng
        weights = [1.0 / (k + 1) ** skew for k in range(self.n_keys)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float undershoot
        self._cdf = cdf

    def sample(self) -> int:
        return bisect_left(self._cdf, self.rng.random())


ARRIVAL_KINDS = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "diurnal": DiurnalArrivals,
}


def make_arrivals(kind: str, mean_interval_cycles: float,
                  streams) -> ArrivalProcess:
    """Build an arrival process drawing from its own named substream
    of ``streams`` (a :class:`~repro.sim.rng.SeededStreams`)."""
    try:
        cls = ARRIVAL_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown arrival kind {kind!r} "
                         f"(choose from {sorted(ARRIVAL_KINDS)})") \
            from None
    rng = streams.stream(f"loadgen.arrivals.{kind}")
    return cls(mean_interval_cycles, rng)
