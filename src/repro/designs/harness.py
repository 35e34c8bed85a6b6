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
    Ethernet wire overhead, like a real generator.

    ``overrun`` decides what happens when the NIC's admission backlog
    is full at an injection instant: ``"block"`` (default, the
    closed-loop behaviour) polls until the backlog drains, stretching
    the effective rate; ``"drop"`` keeps the offered clock honest —
    the frame is *counted* in ``offered_dropped``/``drop_reasons`` and
    discarded, never buffered, so memory stays flat however far
    arrivals outrun admission.

    Pacing is timer-driven: ``step`` returns the next injection cycle.
    Only a backlog-blocked source polls (the backlog callable is
    opaque, so no wake exists).
    """

    def __init__(self, push: Callable[[bytes, int], None],
                 frame_factory: Callable[[int], bytes],
                 rate: float | None = 50.0,
                 count: int | None = None,
                 backlog: Callable[[], int] | None = None,
                 max_backlog: int = 8,
                 overrun: str = "block"):
        if overrun not in ("block", "drop"):
            raise ValueError(
                f"overrun must be 'block' or 'drop', not {overrun!r}")
        self.push = push
        self.frame_factory = frame_factory
        self.rate = rate
        self.count = count
        self.backlog = backlog
        self.max_backlog = max_backlog
        self.overrun = overrun
        self.sent = 0
        self.bytes_sent = 0
        self.offered = 0
        self.offered_dropped = 0
        self.drop_reasons: dict[str, int] = {}
        self._next_free = 0

    @property
    def done(self) -> bool:
        return self.count is not None and self.offered >= self.count

    def step(self, cycle: int) -> int | None:
        if self.done:
            return NEVER
        if cycle < self._next_free:
            return self._next_free
        blocked = (self.backlog is not None
                   and self.backlog() >= self.max_backlog)
        if blocked and self.overrun == "block":
            return None     # polled until the backlog drains
        frame = self.frame_factory(self.offered)
        wire_bytes = len(frame) + params.ETHERNET_OVERHEAD_BYTES
        if self.rate is not None:
            arrival = cycle + math.ceil(len(frame) / self.rate)
            self._next_free = cycle + math.ceil(wire_bytes / self.rate)
        else:
            arrival = cycle + 1
            self._next_free = cycle + 1
        self.offered += 1
        if blocked:
            # Open-loop admission boundary: the arrival happened, the
            # NIC had no room, the frame is lost — count it, never
            # queue it.
            self.offered_dropped += 1
            reason = "offered: admission overrun"
            self.drop_reasons[reason] = \
                self.drop_reasons.get(reason, 0) + 1
        else:
            self.push(frame, arrival)
            self.sent += 1
            self.bytes_sent += len(frame)
        return NEVER if self.done else self._next_free


class FrameSink(Wakeable):
    """Drains an Ethernet TX tile's MAC output (a clocked component).

    It sleeps between frames: every recorded value derives from a
    frame's emit cycle, so draining on the emit cycle (the cycle
    ``step`` returns) or on a wake from the TX tile loses nothing.
    """

    def __init__(self, eth_tx, keep_frames: bool = True):
        self.eth_tx = eth_tx
        self.keep_frames = keep_frames
        self.frames: list[tuple[bytes, int]] = []
        self.count = 0
        self.frame_bytes = 0
        self.payload_bytes = 0
        self.malformed = 0
        self.first_cycle: int | None = None
        self.last_cycle: int | None = None
        listeners = getattr(eth_tx, "frame_listeners", None)
        if listeners is not None:
            listeners.append(self._wake)

    def step(self, cycle: int) -> int:
        while self.eth_tx.frames_out:
            frame, emit_cycle = self.eth_tx.frames_out.popleft()
            if emit_cycle > cycle:
                self.eth_tx.frames_out.appendleft((frame, emit_cycle))
                return emit_cycle
            self.count += 1
            self.frame_bytes += len(frame)
            try:
                parsed = parse_frame(frame)
                self.payload_bytes += len(parsed.payload)
            except ValueError:
                # Garbage egress — the chaos invariant a healthy design
                # must never produce, however hostile the ingress.
                self.malformed += 1
            if self.first_cycle is None:
                self.first_cycle = emit_cycle
            self.last_cycle = emit_cycle
            if self.keep_frames:
                self.frames.append((frame, emit_cycle))
        return NEVER


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
    without end) and a sink draining ``design.eth_tx``.

    ``traffic`` is one UDP payload, sent as :func:`client_frame` builds
    it, or a sequence of ready frames, sent round-robin.
    """
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frames = ([client_frame(design, traffic)]
              if isinstance(traffic, bytes) else list(traffic))
    n_frames = len(frames)
    source = FrameSource(design.inject, lambda i: frames[i % n_frames],
                         rate=rate, count=count)
    sink = FrameSink(design.eth_tx, keep_frames=keep_frames)
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
