"""The six workloads: what is built, what is an operation, what is checked.

Each ``build_*`` function takes the workload seed and returns a
:class:`Bench`: a built design with its harness wired, ready to be
driven in chunks by :mod:`worker`. Every workload does fixed work, so
``sim_cycles`` means something, and every size has a keyword so the
tests can build a small instance directly.

Only the default configuration is built (scheduled kernel, flat mesh,
flat tiles, one shard): no backend keyword is passed anywhere, so the
benchmark follows whatever the constructors default to.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import params
from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.designs.scaled_echo import ScaledEchoDesign
from repro.loadgen.arrivals import ZipfPopularity, make_arrivals
from repro.loadgen.flows import build_competing_flows
from repro.loadgen.source import OpenLoopSource, nic_backlog
from repro.noc.message import reset_id_counters
from repro.packet import IPv4Address, MacAddress
from repro.packet.builder import build_ipv4_udp_frame, parse_frame
from repro.sim.rng import SeededStreams

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")
MTU_PAYLOAD = 1458
#: Fig 7's 64 B point on the 7x4 design, in thousands of requests/s.
PAPER_FIG7_64B_KREQS = 18_392.0


@dataclass
class Outcome:
    """What one finished run did, in simulated terms only."""

    attempted: int
    failed: int
    latencies: list[int]
    payload_bytes: int          # verified application bytes
    sim_cycles: int
    counters: dict[str, float] = field(default_factory=dict)


@dataclass
class Bench:
    """A built workload instance."""

    design: object
    #: Simulator components this module registered or knows of, for
    #: span attribution should the kernel's own list be out of reach.
    components: list
    done: Callable[[], bool]
    finish: Callable[[], Outcome]
    #: True: advance with ``run_until`` (stops the cycle the work
    #: completes); False: advance with plain ``run`` in whole chunks.
    until: bool
    chunk_cycles: int
    #: The drain deadline: work not finished by this cycle has failed.
    deadline: int
    #: ``(frame, emit_cycle)`` for every frame ``eth_tx`` emitted.
    egress: list

    def advance(self, stop_at: int | None = None) -> None:
        """Drive the simulator one chunk (cut short at ``stop_at``)."""
        sim = self.design.sim
        end = min(sim.cycle + self.chunk_cycles, self.deadline)
        if stop_at is not None and sim.cycle < stop_at < end:
            end = stop_at
        if self.until:
            done = self.done
            sim.run_until(lambda: done() or sim.cycle >= end,
                          max_cycles=end - sim.cycle + 1)
        else:
            sim.run(end - sim.cycle)

    @property
    def finished(self) -> bool:
        return self.done() or self.design.sim.cycle >= self.deadline

    def digest(self) -> str:
        """sha256 over (egress frame bytes, emit cycle)."""
        sha = hashlib.sha256()
        for frame, emit_cycle in self.egress:
            sha.update(len(frame).to_bytes(4, "big"))
            sha.update(frame)
            sha.update(emit_cycle.to_bytes(8, "big"))
        return sha.hexdigest()


def _tap_egress(design) -> list:
    """Record every emitted frame without consuming it.

    ``eth_tx`` calls its listeners right after queueing a frame, so the
    newest entry of ``frames_out`` is that frame whoever pops it later
    (a ``FrameSink`` or the TCP ``PeerNetwork``).
    """
    egress: list = []
    frames_out = design.eth_tx.frames_out
    design.eth_tx.frame_listeners.append(
        lambda: egress.append(frames_out[-1]))
    return egress


def _match_replies(egress: list, sent: list,
                   key_of: Callable[[bytes], int | None]
                   ) -> tuple[list[int], int]:
    """Pair egress frames with operations: ``(latencies, verified bytes)``.

    ``sent[key]`` is an operation's ``(payload, reference cycle)`` and
    ``key_of(payload)`` the operation a reply claims to answer. A reply
    counts once, and only if its UDP payload is byte-identical.
    """
    latencies, seen, verified_bytes = [], set(), 0
    for frame, emit_cycle in egress:
        try:
            payload = parse_frame(frame).payload
        except ValueError:
            continue
        key = key_of(payload)
        if key is None or key in seen or key >= len(sent) or \
                sent[key][0] != payload:
            continue
        seen.add(key)
        verified_bytes += len(payload)
        latencies.append(emit_cycle - sent[key][1])
    return latencies, verified_bytes


# -- echo workloads ----------------------------------------------------------

def _echo(design, seed: int, requests: int, payload_bytes: int,
          rate: float | None, chunk_cycles: int, deadline: int,
          flows: int = 256, paper_kreqs: float | None = None) -> Bench:
    """Closed-form echo: ``requests`` pre-built frames, one per op.

    The seed draws the client source ports (hence which app replica
    each flow hashes to) and the payload bytes. Payloads start with
    their index, so replies are matched whatever order they leave in.
    ``paper_kreqs`` is the paper's request rate for this operating
    point, if it has one, to report the simulator's error against.
    """
    rng = SeededStreams(seed).stream("perflab.echo")
    design.add_client(CLIENT_IP, CLIENT_MAC)
    ports = rng.sample(range(1024, 65536), flows)
    payloads = [index.to_bytes(4, "big") + rng.randbytes(payload_bytes - 4)
                for index in range(requests)]
    frames = [build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                   CLIENT_IP, design.server_ip,
                                   ports[index % flows], design.udp_port,
                                   payload)
              for index, payload in enumerate(payloads)]
    arrivals: list[int] = []
    inject = design.inject

    def push(frame: bytes, cycle: int) -> None:
        arrivals.append(cycle)
        inject(frame, cycle)

    source = FrameSource(push, frames.__getitem__, rate=rate,
                         count=requests)
    sink = FrameSink(design.eth_tx, keep_frames=False)
    egress = _tap_egress(design)
    design.sim.add(source)
    design.sim.add(sink)

    def finish() -> Outcome:
        latencies, verified_bytes = _match_replies(
            egress, list(zip(payloads, arrivals)),
            lambda payload: int.from_bytes(payload[:4], "big"))
        counters = {
            "designs.harness.offered": source.offered,
            "designs.harness.admitted": source.sent,
            "designs.harness.offered_dropped": source.offered_dropped,
            "designs.harness.malformed": sink.malformed,
        }
        window = egress[-1][1] - egress[0][1] if egress else 0
        if paper_kreqs is not None and window > 0:
            kreqs = (len(egress) - 1) / (window * params.CYCLE_TIME_S) / 1e3
            counters["paper.fig7_64b_err_pct"] = \
                100.0 * abs(kreqs - paper_kreqs) / paper_kreqs
        return Outcome(
            attempted=requests, failed=requests - len(latencies),
            latencies=latencies, payload_bytes=verified_bytes,
            sim_cycles=(egress[-1][1] + 1) if egress else deadline,
            counters=counters)

    return Bench(design=design, components=[source, sink],
                 done=lambda: sink.count >= requests, finish=finish,
                 until=False, chunk_cycles=chunk_cycles,
                 deadline=deadline, egress=egress)


def build_udp_idle_4x2(seed: int, requests: int = 1000) -> Bench:
    reset_id_counters()
    design = UdpEchoDesign()
    # 10% of the 50 B/cycle line rate: ~300 cycles between frames.
    return _echo(design, seed, requests, MTU_PAYLOAD, rate=5.0,
                 chunk_cycles=3_000, deadline=requests * 400 + 20_000)


def build_echo_sat_mtu_7x4(seed: int, requests: int = 1200) -> Bench:
    reset_id_counters()
    design = ScaledEchoDesign()
    return _echo(design, seed, requests, MTU_PAYLOAD, rate=None,
                 chunk_cycles=325, deadline=requests * 60 + 20_000)


def build_echo_sat_64b_7x4(seed: int, requests: int = 4000) -> Bench:
    reset_id_counters()
    design = ScaledEchoDesign()
    return _echo(design, seed, requests, 64, rate=None,
                 chunk_cycles=550, deadline=requests * 30 + 20_000,
                 paper_kreqs=PAPER_FIG7_64B_KREQS)


def build_echo_sat_mtu_32x32(seed: int, requests: int = 400,
                             size: int = 32) -> Bench:
    reset_id_counters()
    # bench_shard_scaling's placement: replicas in the two far-east
    # columns, so every request crosses the whole mesh and back.
    coords = [(x, y) for x in (size - 2, size - 1) for y in range(size)]
    design = ScaledEchoDesign(n_apps=len(coords), width=size, height=size,
                              app_coords=coords)
    return _echo(design, seed, requests, MTU_PAYLOAD, rate=None,
                 chunk_cycles=110, deadline=requests * 60 + 20_000)


# -- TCP through seeded loss -------------------------------------------------

def build_tcp_loss_reno(seed: int, n_flows: int = 4,
                        stream_bytes: int = 384 * 1024) -> Bench:
    reset_id_counters()
    # The RTO is 4x the 1000-cycle wire round trip, not the harness's
    # 10 000 cycles: a seed whose loss pattern costs a flow one timeout
    # then shifts completion by 6%, not 15%, which halves the spread of
    # every simulated metric between seeds.
    design, peers = build_competing_flows(
        cc="reno", n_flows=n_flows, loss=0.01,
        stream_bytes=stream_bytes, seed=seed, rto_cycles=4_000)
    egress = _tap_egress(design)
    completed: dict[int, int] = {}
    sim = design.sim

    def done() -> bool:
        for peer in peers:
            if peer.src_port not in completed and \
                    peer.bytes_acked >= stream_bytes:
                completed[peer.src_port] = sim.cycle
        return len(completed) == len(peers)

    def finish() -> Outcome:
        malformed = 0
        for frame, _emit_cycle in egress:
            try:
                parse_frame(frame)
            except ValueError:
                malformed += 1
        segments = sum(peer.segments_sent for peer in peers)
        wire_drops = design.fault_engine.counters.get("wire.drop", 0)
        return Outcome(
            attempted=n_flows, failed=n_flows - len(completed),
            latencies=sorted(completed.values()),
            payload_bytes=sum(min(peer.bytes_acked, stream_bytes)
                              for peer in peers),
            sim_cycles=sim.cycle,
            counters={
                "tcp.segments_sent": segments,
                "tcp.retransmits": sum(p.retransmits for p in peers),
                "tcp.fast_retransmits": sum(p.fast_retransmits
                                            for p in peers),
                "faults.wire_drops": wire_drops,
                "designs.harness.offered": segments,
                "designs.harness.admitted": segments - wire_drops,
                "designs.harness.offered_dropped": 0,
                "designs.harness.malformed": malformed,
            })

    return Bench(design=design, components=list(peers), done=done,
                 finish=finish, until=True, chunk_cycles=425,
                 deadline=3_000_000, egress=egress)


# -- open loop ---------------------------------------------------------------

#: magic, zipf key, sequence, due cycle (``repro.loadgen.sweep``'s tag).
_TAG = struct.Struct("<HHIQ")
_MAGIC = 0xBEE5


class _RecordedArrivals:
    """Remember every due time an arrival process hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.due: list[float] = []

    def next_arrival(self) -> float:
        due = self.inner.next_arrival()
        self.due.append(due)
        return due


def build_openloop_64b_16g(seed: int, offered_gbps: float = 16.0,
                           horizon_cycles: int = 80_000,
                           payload_bytes: int = 64) -> Bench:
    reset_id_counters()
    design = UdpEchoDesign()
    design.add_client(CLIENT_IP, CLIENT_MAC)
    streams = SeededStreams(seed)
    zipf = ZipfPopularity(64, 1.0, streams.stream("loadgen.zipf"))
    pad = b"\x00" * (payload_bytes - _TAG.size)
    frame_len = 14 + 20 + 8 + payload_bytes
    bytes_per_cycle = offered_gbps * 1e9 * params.CYCLE_TIME_S / 8.0
    arrivals = _RecordedArrivals(make_arrivals(
        "poisson",
        (frame_len + params.ETHERNET_OVERHEAD_BYTES) / bytes_per_cycle,
        streams))
    sent: list[tuple[bytes, int]] = []   # seq -> (payload, due cycle)
    lag = [0]

    def frame_for(seq: int, cycle: int) -> bytes:
        # ``offered`` was bumped for this arrival just before the call.
        due = math.ceil(arrivals.due[source.offered - 1])
        if cycle - due > lag[0]:
            lag[0] = cycle - due
        key = zipf.sample()
        payload = _TAG.pack(_MAGIC, key, seq & 0xFFFFFFFF, due) + pad
        sent.append((payload, due))
        return build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP, design.server_ip,
            20_000 + key, design.udp_port, payload)

    source = OpenLoopSource(design.inject, frame_for, arrivals,
                            horizon_cycles=horizon_cycles,
                            admission=nic_backlog(design),
                            max_admission=64)
    sink = FrameSink(design.eth_tx, keep_frames=False)
    egress = _tap_egress(design)
    design.sim.add(source)
    design.sim.add(sink)

    def finish() -> Outcome:
        latencies, verified_bytes = _match_replies(
            egress, sent,
            lambda payload: _TAG.unpack_from(payload)[2]
            if len(payload) >= _TAG.size else None)
        return Outcome(
            attempted=source.offered,
            failed=source.offered - len(latencies),
            latencies=latencies, payload_bytes=verified_bytes,
            sim_cycles=(egress[-1][1] + 1) if egress else horizon_cycles,
            counters={
                "designs.harness.offered": source.offered,
                "designs.harness.admitted": source.admitted,
                "designs.harness.offered_dropped": source.offered_dropped,
                "designs.harness.malformed": sink.malformed,
                "loadgen.generator_lag_max_cycles": lag[0],
            })

    return Bench(design=design, components=[source, sink],
                 done=lambda: source.done and sink.count >= source.admitted,
                 finish=finish, until=True, chunk_cycles=900,
                 deadline=horizon_cycles + 120_000, egress=egress)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], Bench]


WORKLOADS = {w.name: w for w in (
    Workload("udp_idle_4x2",
             "paced at 10% line rate: kernel self time is largest and "
             "mesh/tile calls are near-empty, so idle skipping, timers "
             "and per-call overhead show",
             build_udp_idle_4x2),
    Workload("echo_sat_mtu_7x4",
             "the ROADMAP baseline row: saturated MTU echo, mesh step "
             "dominates through long wormhole body runs",
             build_echo_sat_mtu_7x4),
    Workload("echo_sat_64b_7x4",
             "same design at the smallest packet: header-dominated "
             "messages shift cost to tiles, handlers and codecs; "
             "carries the Fig 7 fidelity check",
             build_echo_sat_64b_7x4),
    Workload("echo_sat_mtu_32x32",
             "1024 routers: isolates mesh scaling with router count and "
             "predicts no change for kernel or tile work",
             build_echo_sat_mtu_32x32),
    Workload("tcp_loss_reno",
             "object-mode TCP engine tiles, soft peers, fault engine and "
             "RTO timers; completion time separates TCP behaviour from "
             "simulator speed",
             build_tcp_loss_reno),
    Workload("openloop_64b_16g",
             "open loop below the knee: the only workload that builds, "
             "checksums and parses a frame per operation, so loadgen, "
             "harness and packet codecs carry weight",
             build_openloop_64b_16g),
)}
