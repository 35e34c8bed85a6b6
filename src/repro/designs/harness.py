"""Traffic harness for cycle-level experiments.

The paper drives every design it evaluates with one packet generator
(section VII-C: "we run a packet generator on another U200, because the
client machines cannot generate enough traffic to saturate the FPGA")
and reads the results off one set of counters.  So does this module:
``CLIENT_IP`` / ``CLIENT_MAC`` are the one synthetic client,
:func:`client_frame` addresses a request from it to a design,
:func:`attach_client` puts a paced ``FrameSource`` and a ``FrameSink``
on the design's simulator, and :func:`saturation_goodput` is the
saturated run that computes goodput the way the paper plots it (UDP
payload bytes per second).  Every bench, tool and example goes through
these; ``benchmarks/perflab`` builds on the two classes directly.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro import params
from repro.packet.builder import build_ipv4_udp_frame, parse_frame
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address
from repro.sim.kernel import NEVER, Wakeable

#: The one synthetic client.
CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


class FrameSource(Wakeable):
    """Paced frame injection (a clocked component).

    ``frame_factory(i)`` returns the i-th frame to send.  ``rate`` is
    the injection rate in bytes/cycle: 50.0 models the 100 GbE wire at
    250 MHz; ``None`` saturates (injects a new frame the moment the
    ingress can conceptually accept one, modelling the paper's
    in-simulation 128 Gbps mode).  Injection pacing includes per-frame
    Ethernet wire overhead, like a real generator.  The source is closed
    loop: every frame it offers is pushed, so ``offered_dropped`` stays
    0 (an open-loop admission boundary that counts overruns is
    :class:`repro.loadgen.source.OpenLoopSource`).

    Pacing is timer-driven: ``step`` returns the next injection cycle.
    """

    def __init__(self, push: Callable[[bytes, int], None],
                 frame_factory: Callable[[int], bytes],
                 rate: float | None = 50.0,
                 count: int | None = None):
        self.push = push
        self.frame_factory = frame_factory
        self.rate = rate
        self.count = count
        self.sent = 0
        self.bytes_sent = 0
        self.offered = 0
        self.offered_dropped = 0
        self._next_free = 0

    @property
    def done(self) -> bool:
        return self.count is not None and self.offered >= self.count

    def step(self, cycle: int) -> int | None:
        if self.done:
            return NEVER
        if cycle < self._next_free:
            return self._next_free
        frame = self.frame_factory(self.offered)
        wire_bytes = len(frame) + params.ETHERNET_OVERHEAD_BYTES
        if self.rate is not None:
            arrival = cycle + math.ceil(len(frame) / self.rate)
            self._next_free = cycle + math.ceil(wire_bytes / self.rate)
        else:
            arrival = cycle + 1
            self._next_free = cycle + 1
        self.offered += 1
        self.push(frame, arrival)
        self.sent += 1
        self.bytes_sent += len(frame)
        return NEVER if self.done else self._next_free


class FrameSink(Wakeable):
    """Drains the MAC output of one or more Ethernet TX tiles (a clocked
    component).

    It sleeps between frames: every recorded value derives from a
    frame's emit cycle, so draining on the emit cycle (the cycle
    ``step`` returns) or on a wake from a TX tile loses nothing.
    """

    def __init__(self, *eth_tx, keep_frames: bool = True):
        self.eth_tx = eth_tx
        self.keep_frames = keep_frames
        self.frames: list[tuple[bytes, int]] = []
        self.count = 0
        self.frame_bytes = 0
        self.payload_bytes = 0
        self.malformed = 0
        self.first_cycle: int | None = None
        self.last_cycle: int | None = None
        for tile in eth_tx:
            listeners = getattr(tile, "frame_listeners", None)
            if listeners is not None:
                listeners.append(self._wake)

    def step(self, cycle: int) -> int:
        due = NEVER
        for tile in self.eth_tx:
            frames_out = tile.frames_out
            while frames_out:
                frame, emit_cycle = frames_out.popleft()
                if emit_cycle > cycle:
                    frames_out.appendleft((frame, emit_cycle))
                    due = min(due, emit_cycle)
                    break
                self.count += 1
                self.frame_bytes += len(frame)
                try:
                    parsed = parse_frame(frame)
                    self.payload_bytes += len(parsed.payload)
                except ValueError:
                    # Garbage egress — the chaos invariant a healthy
                    # design must never produce, however hostile the
                    # ingress.
                    self.malformed += 1
                if self.first_cycle is None:
                    self.first_cycle = emit_cycle
                self.last_cycle = emit_cycle
                if self.keep_frames:
                    self.frames.append((frame, emit_cycle))
        return due


def client_frame(design, payload: bytes, src_port: int = 5555,
                 dst_port: int | None = None) -> bytes:
    """A UDP request from the client to the address ``design`` answers
    on (``server_mac`` / ``server_ip``, and ``udp_port`` unless
    ``dst_port`` names another)."""
    if dst_port is None:
        dst_port = design.udp_port
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac, CLIENT_IP,
                                design.server_ip, src_port, dst_port,
                                payload)


def attach_client(design, traffic: bytes | Sequence[bytes],
                  rate: float | None = 50.0, count: int | None = None,
                  keep_frames: bool = True
                  ) -> tuple[FrameSource, FrameSink]:
    """Put the client on ``design``: teach the TX path its MAC, add a
    source injecting ``traffic`` at ``rate`` (``count`` frames, or
    without end) and one sink draining every MAC-facing TX tile.

    ``traffic`` is one UDP payload, sent as :func:`client_frame` builds
    it, or a sequence of ready frames, sent round-robin.
    """
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frames = ([client_frame(design, traffic)]
              if isinstance(traffic, bytes) else list(traffic))
    n_frames = len(frames)
    source = FrameSource(design.inject, lambda i: frames[i % n_frames],
                         rate=rate, count=count)
    sink = FrameSink(*design.mac_tx, keep_frames=keep_frames)
    design.sim.add(source)
    design.sim.add(sink)
    return source, sink


@dataclass(frozen=True)
class Goodput:
    """What :func:`saturation_goodput` measured after the warm-up."""

    gbps: float         # UDP payload goodput, the way Fig 7 plots it
    kreqs: float        # thousands of requests (frames) per second
    sink: FrameSink     # everything that egressed, warm-up included


def saturation_goodput(design, traffic: bytes | Sequence[bytes],
                       cycles: int, warmup_frames: int = 30) -> Goodput:
    """Saturate ``design`` with the client's ``traffic`` (see
    :func:`attach_client`) for ``cycles`` cycles; the measured window
    opens at the egress of the ``warmup_frames``-th frame and closes at
    the last one."""
    _source, sink = attach_client(design, traffic, rate=None)
    sim = design.sim
    end = sim.cycle + cycles
    sim.run_until(lambda: sink.count >= warmup_frames, max_cycles=cycles)
    frames, payload, opened = \
        sink.count, sink.payload_bytes, sink.last_cycle
    sim.run(end - sim.cycle)
    window_s = (sink.last_cycle - opened) * params.CYCLE_TIME_S
    return Goodput(
        gbps=(sink.payload_bytes - payload) * 8 / window_s / 1e9,
        kreqs=(sink.count - frames) / window_s / 1e3,
        sink=sink)
