"""The offered-load sweep driver (find the knee, characterise the tail).

Each point drives a fresh :class:`~repro.designs.udp_stack.
UdpEchoDesign` with an :class:`~repro.loadgen.source.OpenLoopSource`
whose mean interarrival is set from the offered rate in Gbps; every
injected payload carries a 16-byte tag (magic, Zipf key, sequence
number, injection cycle) so the echoed frame's emit cycle gives the
per-request latency without any side channel.  Latencies go through a
:class:`repro.telemetry.metrics.Histogram`; goodput is measured over
the fixed post-warmup window so curves are comparable across points.

Everything in a result derives from cycles, counts, and seeded draws —
two runs with identical arguments produce byte-identical documents,
under either profile (the differential suites pin the stack itself; the
arrival schedule never touches simulator state).
"""

from __future__ import annotations

import struct

from repro import params
from repro.designs.harness import (
    CLIENT_IP,
    CLIENT_MAC,
    FrameSink,
    client_frame,
)
from repro.designs.udp_stack import UdpEchoDesign
from repro.loadgen.arrivals import ZipfPopularity, make_arrivals
from repro.loadgen.source import OpenLoopSource, nic_backlog
from repro.packet.builder import parse_frame
from repro.sim.rng import SeededStreams
from repro.telemetry.metrics import MetricsRegistry

#: magic, zipf key, sequence, injection cycle.
_TAG = struct.Struct("<HHIQ")
_MAGIC = 0xBEE5


def _mean_interval_cycles(offered_gbps: float,
                          frame_len: int) -> float:
    """Interarrival (cycles) for one frame size at an offered rate."""
    bytes_per_cycle = offered_gbps * 1e9 * params.CYCLE_TIME_S / 8.0
    wire_bytes = frame_len + params.ETHERNET_OVERHEAD_BYTES
    return wire_bytes / bytes_per_cycle


def run_point(offered_gbps: float, *, seed: int = 0xBEE,
              arrival: str = "poisson", payload_bytes: int = 64,
              duration_cycles: int = 120_000,
              warmup_cycles: int = 20_000,
              zipf_keys: int = 64, zipf_skew: float = 1.0,
              max_admission: int = 64,
              profile: str = "fast",
              metrics: MetricsRegistry | None = None,
              arrival_kwargs: dict | None = None) -> dict:
    """One offered-load point on the UDP echo design."""
    if payload_bytes < _TAG.size:
        raise ValueError(f"payload_bytes must be >= {_TAG.size} "
                         f"(the latency tag), got {payload_bytes}")
    design = UdpEchoDesign(profile=profile)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    streams = SeededStreams(seed)
    zipf = ZipfPopularity(zipf_keys, zipf_skew,
                          streams.stream("loadgen.zipf"))
    pad = b"\x00" * (payload_bytes - _TAG.size)

    def frame_for(seq: int, cycle: int) -> bytes:
        key = zipf.sample()
        payload = _TAG.pack(_MAGIC, key, seq & 0xFFFFFFFF, cycle) + pad
        return client_frame(design, payload, src_port=20_000 + key)

    probe = frame_for(0, 0)
    arrivals = make_arrivals(arrival,
                             _mean_interval_cycles(offered_gbps,
                                                   len(probe)),
                             streams, **(arrival_kwargs or {}))
    source = OpenLoopSource(design.inject, frame_for, arrivals,
                            horizon_cycles=duration_cycles,
                            admission=nic_backlog(design),
                            max_admission=max_admission)
    sink = FrameSink(design.eth_tx, keep_frames=True)
    design.sim.add(source)
    design.sim.add(sink)

    design.sim.run_until(lambda: source.done,
                         max_cycles=duration_cycles + 10_000)
    try:
        design.sim.run_until(lambda: sink.count >= source.admitted,
                             max_cycles=120_000)
    except TimeoutError:
        pass  # stuck frames show up as delivered < admitted

    registry = metrics if metrics is not None else MetricsRegistry()
    hist = registry.histogram(
        f"loadgen.latency.{offered_gbps:g}gbps")
    key_counts: dict[int, int] = {}
    delivered = 0
    goodput_bytes = 0
    max_latency = 0
    for frame, emit_cycle in sink.frames:
        try:
            parsed = parse_frame(frame)
        except ValueError:
            continue
        payload = parsed.payload
        if len(payload) < _TAG.size:
            continue
        magic, key, _seq, inj = _TAG.unpack_from(payload)
        if magic != _MAGIC:
            continue
        delivered += 1
        key_counts[key] = key_counts.get(key, 0) + 1
        if inj < warmup_cycles:
            continue
        latency = emit_cycle - inj
        hist.record(latency)
        if latency > max_latency:
            max_latency = latency
        goodput_bytes += len(payload)

    window_s = (duration_cycles - warmup_cycles) * params.CYCLE_TIME_S

    def pct(q: float) -> float:
        value = hist.percentile(q)
        return 0.0 if value is None else float(value)

    return {
        "offered_gbps": float(offered_gbps),
        "arrival": arrival,
        "offered": source.offered,
        "admitted": source.admitted,
        "offered_dropped": source.offered_dropped,
        "delivered": delivered,
        "delivery_ratio": (source.admitted / source.offered
                           if source.offered else 1.0),
        "goodput_gbps": goodput_bytes * 8 / window_s / 1e9,
        "p50_cycles": pct(50),
        "p99_cycles": pct(99),
        "p999_cycles": pct(99.9),
        "max_latency_cycles": float(max_latency),
        "hot_key_frames": (max(key_counts.values())
                           if key_counts else 0),
    }


def sweep(offered_gbps_list, **kwargs) -> dict:
    """Walk an offered-load list; returns the curve plus the knee.

    The knee is the highest offered load the stack still admits nearly
    everything at (delivery ratio >= 0.95) — past it goodput saturates
    and the tail (p999) blows up.
    """
    curve = [run_point(gbps, **kwargs) for gbps in offered_gbps_list]
    knee = 0.0
    for point in curve:
        if point["delivery_ratio"] >= 0.95 and \
                point["offered_gbps"] > knee:
            knee = point["offered_gbps"]
    return {
        "curve": curve,
        "knee_gbps": knee,
        "n_points": len(curve),
    }
