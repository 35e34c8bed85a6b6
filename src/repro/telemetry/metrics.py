"""Design-wide metrics: counters, gauges, and HDR-style histograms.

The PR-1 tracer answers *what happened to one packet*; this module
answers *what is the system doing right now* — the always-on counter
plane a production NIC stack ships next to the datapath (Dagger's
telemetry block, Coyote v2's status registers).  Three instrument
kinds, collected in a :class:`MetricsRegistry`:

- :class:`Counter` — monotonic; ``inc()`` only.  Flit totals, drops,
  fault injections.
- :class:`Gauge` — last-write-wins.  Queue depths, active-set size,
  busy-router population.
- :class:`Histogram` — log-bucketed HDR-style value distribution with
  :meth:`~Histogram.percentile` (p50/p99/p999 and friends).  Latencies,
  sampled depths.

Histogram precision
-------------------

Values are non-negative integers (cycle counts, queue depths).  The
bucket for value ``v`` is unit-width while ``v < 2 * subbuckets`` and
doubles every octave above, HDR-histogram style: with two significant
digits (``SUBBUCKETS = 128``), every recorded value is
resolved *exactly* below 256 and with relative error below
``1/subbuckets`` (< 0.8%) above.  Percentiles interpolate nothing —
they return the representative (highest) value of the bucket containing
the requested rank, so ``p50``/``p99``/``p999`` are exact for typical
cycle-latency magnitudes and within the bucket's bounded relative
error beyond.

Everything here is plain state mutation — no clocks, no simulator
coupling — so instruments are safe to update from any component and
cost one dict/att lookup plus integer arithmetic per update.  The
periodic sampler (:mod:`repro.telemetry.probe`) and the exporters
(:mod:`repro.telemetry.export`) are the intended producers/consumers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

SCHEMA = "repro.telemetry.metrics/1"

#: Buckets per histogram octave: the power of two at or above 10 ** 2,
#: two significant digits.
SUBBUCKETS = 128
SUB_BITS = SUBBUCKETS.bit_length() - 1


def _validate_name(name: str) -> str:
    if not name or any(c.isspace() for c in name):
        raise ValueError(f"bad metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _validate_name(name)
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; inc() takes >= 0")
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _validate_name(name)
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Log-bucketed HDR-style histogram over non-negative integers.

    Bucket layout: index ``v`` directly while ``v < 2 * SUBBUCKETS``;
    above that, each octave reuses ``SUBBUCKETS`` buckets whose width
    doubles per
    octave, keeping relative resolution constant (see the module
    docstring for the accuracy contract).  ``record`` is O(1) with two
    integer ops and one list increment; ``percentile`` walks the
    non-empty prefix of the bucket array.
    """

    __slots__ = ("name", "help", "_buckets", "count", "total", "min",
                 "max")

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _validate_name(name)
        self.help = help
        self._buckets: list[int] = []
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None

    # -- recording --------------------------------------------------------

    def _index_of(self, value: int) -> int:
        sub = SUBBUCKETS
        if value < (sub << 1):
            return value
        # Octave = position of the highest bit above the unit horizon;
        # within an octave, values collapse onto ``sub`` buckets.
        octave = value.bit_length() - SUB_BITS - 1
        return (octave << SUB_BITS) + (value >> octave)

    def _value_of(self, index: int) -> int:
        """Highest value mapping to bucket ``index`` (its representative)."""
        sub = SUBBUCKETS
        if index < (sub << 1):
            return index
        octave = (index >> SUB_BITS) - 1
        base = (index - (octave << SUB_BITS)) << octave
        return base + (1 << octave) - 1

    def record(self, value: int) -> None:
        value = int(value)
        if value < 0:
            raise ValueError("histograms take non-negative values")
        index = self._index_of(value)
        buckets = self._buckets
        if index >= len(buckets):
            buckets.extend([0] * (index + 1 - len(buckets)))
        buckets[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    # -- reading ----------------------------------------------------------

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile (``q`` in [0, 100]), or None if empty."""
        if not self.count:
            return None
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for index, n in enumerate(self._buckets):
            if not n:
                continue
            seen += n
            if seen >= rank:
                return float(self._value_of(index))
        return float(self._value_of(len(self._buckets) - 1))

    def buckets(self) -> list[tuple[int, int]]:
        """Non-empty (upper_bound_value, count) pairs, ascending."""
        return [(self._value_of(index), n)
                for index, n in enumerate(self._buckets) if n]


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics.

    ``registry.counter("noc.flits")`` returns the existing instrument
    or creates it, so instrumentation sites need no shared setup.
    Asking for an existing name with a different instrument kind is an
    error — one name, one meaning.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls: type, name: str, help: str,
             **kwargs: object) -> Counter | Gauge | Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}")
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(sorted(self._instruments.values(),
                           key=lambda m: m.name))

