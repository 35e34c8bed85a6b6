"""The tile framework.

A :class:`Tile` is the paper's basic component (Fig. 3): a NoC router
(reached through a :class:`repro.noc.mesh.LocalPort`), message
construction/deconstruction logic, and processing logic supplied by a
subclass's :meth:`Tile.handle_message`.

Timing model
------------

Tiles are *streaming* engines in the paper; we model them at message
granularity with two calibrated timing knobs that together reproduce the
latency and throughput behaviour the evaluation reports:

- ``parse_latency``: cycles between the tail flit arriving and the
  transformed output beginning to inject (header parse/deparse plus the
  realignment shifter).  Governs per-packet *latency*.
- ``occupancy``: the engine handles one message at a time and is busy
  for ``max(message_flits, occupancy)`` cycles per message.  Governs
  small-packet *throughput* (the paper's UDP stack serialises at ~13.6
  cycles/packet — 9 Gbps of 64 B packets) while large messages stream at
  one flit per cycle and reach line rate.

Backpressure is real: the tile consumes ejected flits only while its
internal buffer has space, a full buffer stops the router's local output,
and a blocked wormhole message then holds its chain of NoC links — which
is what makes the Fig. 5(a) deadlock reproducible in this simulator.
"""

from __future__ import annotations

import zlib
from collections import Counter, deque
from dataclasses import dataclass
from collections.abc import Iterable
from functools import lru_cache

from repro import params
from repro.noc.mesh import LocalPort, Mesh
from repro.noc.message import NocMessage, next_packet_id
from repro.sim.kernel import NEVER, Wakeable
from repro.telemetry.trace import NULL_TRACER
from repro.packet.ethernet import EthernetHeader
from repro.packet.ipv4 import IPv4Header
from repro.packet.tcp import TcpHeader
from repro.packet.udp import UdpHeader


@dataclass
class PacketMeta:
    """Parsed-header metadata carried in a NoC message's metadata flit.

    Each protocol tile fills in (RX) or consumes (TX) its layer.  The
    ``outer_ip`` slot holds the encapsulating header for IP-in-IP
    traffic.  ``ingress_cycle`` is the Ethernet-layer timestamp used by
    the latency microbenchmark and the logging tiles.
    """

    eth: EthernetHeader | None = None
    ip: IPv4Header | None = None
    outer_ip: IPv4Header | None = None
    udp: UdpHeader | None = None
    tcp: TcpHeader | None = None
    ingress_cycle: int | None = None
    flow_hint: object = None  # app/scheduler cookie (e.g. shard id)

    def clone(self) -> PacketMeta:
        # Spelled out: ``dataclasses.replace`` costs five of these
        # calls, and the protocol tiles clone four times per frame.
        return PacketMeta(self.eth, self.ip, self.outer_ip, self.udp,
                          self.tcp, self.ingress_cycle, self.flow_hint)

    def four_tuple(self) -> tuple:
        """(src_ip, dst_ip, src_port, dst_port) for flow hashing."""
        l4 = self.udp or self.tcp
        if self.ip is None or l4 is None:
            raise ValueError("four_tuple needs ip and l4 headers")
        return (int(self.ip.src), int(self.ip.dst),
                l4.src_port, l4.dst_port)


# Memoised and bounded, like the packet codec caches: a simulation
# hashes the same few flows once per packet.  Keys are int tuples, so
# equal keys have equal reprs and so equal hashes.
@lru_cache(maxsize=4096)
def flow_hash(key: tuple) -> int:
    """Deterministic hash used by the load-balancing hash tables."""
    return zlib.crc32(repr(key).encode()) & 0xFFFFFFFF


@dataclass(frozen=True)
class DestDomain:
    """A tile's declared destination domain — the typed generalisation
    of the ``lint_dest_coords()`` hook.

    ``coords`` is the complete set of mesh coordinates the tile may
    ever address, *including* destinations computed from packet data at
    runtime (Dagger-style RPC dispatch, multi-tenant demux).  A tile
    declares its domain through a ``dest_domain()`` method returning
    one of these; :mod:`repro.analysis.dataflow` joins the declaration
    against the tile's real routing state (``NextHopTable`` entries,
    replica/stack lists) and flags coordinates that can never be
    routed (BHV501), domain entries nothing emits (BHV502), and
    runtime destinations outside the declaration (BHV503).

    ``data_dependent`` marks domains whose concrete destination is
    picked per packet rather than configured up front (flow hashing,
    round-robin scheduling, RPC dispatch) — it documents why the
    domain may be wider than any routing table ever shows.
    """

    coords: tuple[tuple[int, int], ...]
    data_dependent: bool = False

    @classmethod
    def of(cls, coords: Iterable[tuple[int, int]],
           data_dependent: bool = False) -> DestDomain:
        """Normalise any iterable of coordinates into a domain."""
        unique: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for coord in coords:
            key = (int(coord[0]), int(coord[1]))
            if key not in seen:
                seen.add(key)
                unique.append(key)
        return cls(coords=tuple(unique), data_dependent=data_dependent)


class NextHopTable:
    """A tile's packet-level routing component (section IV-D, V-B).

    Maps a match key (ethertype, IP protocol, L4 port, ...) to one or
    more downstream tile coordinates.  Multiple coordinates are load
    balanced round-robin or by flow hash.  Unmatched traffic is dropped,
    per the paper ("any packet that does not have an entry for a next
    hop is dropped").  The control plane rewrites entries at runtime via
    :meth:`set_entry`.
    """

    def __init__(self, name: str = "nexthop", policy: str = "flow_hash"):
        if policy not in ("flow_hash", "round_robin"):
            raise ValueError(f"unknown policy {policy!r}")
        self.name = name
        self.policy = policy
        self._entries: dict[object, list[tuple[int, int]]] = {}
        self._rr: dict[object, int] = {}
        self.drops = 0

    def set_entry(self, key, dests) -> None:
        """Install/replace the destination set for ``key``.

        ``dests`` is one coordinate or a list of coordinates.
        """
        if isinstance(dests, tuple) and len(dests) == 2 and \
                all(isinstance(v, int) for v in dests):
            dests = [dests]
        dests = list(dests)
        if not dests:
            raise ValueError("destination list must be non-empty")
        self._entries[key] = dests
        self._rr.setdefault(key, 0)

    def remove_entry(self, key) -> None:
        self._entries.pop(key, None)

    def keys(self) -> list:
        return list(self._entries)

    def lookup(self, key, flow_key: tuple | None = None) -> tuple | None:
        """The next tile for ``key``, or None (drop) if unmatched."""
        dests = self._entries.get(key)
        if dests is None:
            self.drops += 1
            return None
        if len(dests) == 1:
            return dests[0]
        if self.policy == "flow_hash" and flow_key is not None:
            return dests[flow_hash(flow_key) % len(dests)]
        # set_entry may have shrunk the list since the pointer last
        # advanced, so reduce it modulo the current length first.
        index = self._rr[key] % len(dests)
        self._rr[key] = (index + 1) % len(dests)
        return dests[index]


class Tile(Wakeable):
    """Base class for every Beehive tile.

    Subclasses implement :meth:`handle_message` (transform one input
    message into zero or more outputs) and may override :meth:`on_cycle`
    (source/application behaviour independent of message arrival).

    Scheduling: ``step`` returns when the tile is next due (the
    kernel's quiescence contract), so a purely message-driven tile
    sleeps while it has no flits to pump and no engine work, and its
    timers (``parse_latency`` emit deadline, engine recovery,
    future-stamped arrivals) are the cycles it returns.  A subclass
    that overrides :meth:`on_cycle` is conservatively stepped every
    cycle unless it also overrides :meth:`_due` with its own contract,
    as the two shipped ones do (DESIGN.md 5c): the TCP TX engine sleeps
    until a dedicated wire from the RX engine, a message from the
    application or its retransmission timer, the controller tile
    until an RPC or a reply from the control NoC — each built on
    :meth:`_engine_due`, and each woken (``_wake()``) by whoever hands
    it work from outside its own ``step``.
    """

    KIND = "generic"  # key into the resource model's cost tables

    # True for tiles whose bounded *dropping* buffer decouples their
    # upstream from their downstream (e.g. the packet log's readback
    # queue): the static deadlock analyzer splits derived streaming
    # chains at such tiles instead of coupling across them.
    CHAIN_BOUNDARY = False

    # Tracing sink (shared no-op unless attach_tracer replaces it).
    tracer = NULL_TRACER

    # Fault injection (repro.faults): True while a scheduled freeze or
    # crash window holds the tile's clock.  Class-level default keeps
    # the un-faulted step to one attribute test; the fault engine
    # shadows it per instance.
    _fault_frozen = False

    def __init__(
        self,
        name: str,
        mesh: Mesh,
        coord: tuple[int, int],
        parse_latency: int = params.TILE_PARSE_LATENCY_CYCLES,
        occupancy: int = params.TILE_MSG_OCCUPANCY_CYCLES,
        buffer_flits: int = 320,
        max_tx_backlog: int = 2,
    ):
        self.name = name
        self.mesh = mesh
        self.coord = coord
        self.port: LocalPort = mesh.attach(coord)
        self.parse_latency = parse_latency
        self.occupancy = occupancy
        self.buffer_flits = buffer_flits
        self.max_tx_backlog = max_tx_backlog

        self._buffered_flits = 0
        # (tail_cycle, msg) pairs; deque because pickup pops the head.
        self._rx_ready: deque[tuple[int, NocMessage]] = deque()
        self._engine_free = 0
        self._emit_at = 0
        self._in_service: NocMessage | None = None
        # (message, cycle) while handle_message runs — lets drop() and
        # send() know which input packet the outputs descend from.
        self._service_ctx: tuple[NocMessage, int] | None = None
        # Statistics
        self.messages_in = 0
        self.messages_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.drops = 0
        self.drop_reasons: Counter = Counter()

    # -- subclass interface ---------------------------------------------------

    def handle_message(self, message: NocMessage,
                       cycle: int) -> Iterable[NocMessage]:
        """Transform one input message into zero or more outputs."""
        raise NotImplementedError

    def on_cycle(self, cycle: int) -> None:
        """Per-cycle hook for tiles that originate traffic."""

    def service_cycles(self, message: NocMessage) -> int:
        """Engine occupancy for one message.  Default: the flit stream
        or the per-packet occupancy, whichever is longer.  Stateful
        tiles override this to charge control messages less than
        packets (e.g. the TCP engines' app-interface bookkeeping)."""
        return max(message.n_flits, self.occupancy)

    def connect(self, key, targets: list[tuple[int, int]],
                policy: str = "flow_hash") -> None:
        """Declare where the traffic this tile matches on ``key`` goes
        — how a design spec's ``<dest>`` reaches the tile.  Several
        ``targets`` are balanced by ``policy``.  A tile that keeps its
        destinations elsewhere than in a next-hop table overrides this.
        """
        table = getattr(self, "next_hop", None)
        if table is None:
            raise ValueError(
                f"tile {self.name!r} cannot take destinations")
        if len(targets) > 1:
            table.policy = policy
        table.set_entry(key, targets)

    # -- helpers --------------------------------------------------------------

    def make_message(self, dst: tuple[int, int], metadata=None,
                     data: bytes = b"") -> NocMessage:
        return NocMessage(dst, self.coord, metadata, data)

    def drop(self, message: NocMessage | None, reason: str = "") -> list:
        reason = reason or "unspecified"
        self.drops += 1
        self.drop_reasons[reason] += 1
        if self.tracer.enabled:
            cycle = (self._service_ctx[1]
                     if self._service_ctx is not None else None)
            self.tracer.drop(cycle, self, message, reason)
        return []

    # -- clocked behaviour ----------------------------------------------------

    def step(self, cycle: int) -> int | None:
        if self._fault_frozen:
            return None  # clock gated by an injected freeze/crash window
        self.on_cycle(cycle)
        self._pump_eject(cycle)
        self._pump_process(cycle)
        return self._due()

    # -- quiescence contract (see repro.sim.kernel) ---------------------------

    def wake_sources(self):
        """Flits ejected by the router re-activate the tile."""
        return (self.port.eject_fifo,)

    def _due(self) -> int | None:
        """What :meth:`step` returns: when the tile is next due, as
        things stand (side-effect free).

        A subclass that overrides :meth:`on_cycle` has per-cycle
        behaviour the base class cannot reason about, so it is stepped
        every cycle (naive-kernel behaviour) unless it overrides this
        with its own contract: :meth:`_engine_due` for the message
        engine, its own test for what ``on_cycle`` waits on, and a
        ``_wake()`` from everyone who hands it work out of band.
        """
        if type(self).on_cycle is not Tile.on_cycle:
            return None
        return self._engine_due()

    def _engine_due(self) -> int | None:
        """The message engine's half of :meth:`_due`: every cycle while
        frozen (its timers are stale) or while the ejection pump has
        flits (or a full buffer to poll), else the engine's next
        deadline, else :data:`NEVER` — until a flit arrives."""
        if self._fault_frozen or self.port.eject_fifo.occupancy:
            return None
        if self._in_service is not None:
            return self._emit_at
        rx = self._rx_ready
        if rx:
            # Pickup waits on arrival/engine timers — but a blocked
            # injection queue must be polled, since only the port's
            # progress (not a wake) unblocks it.
            if self.port.tx_backlog >= self.max_tx_backlog:
                return None
            tail_cycle = rx[0][0]
            engine_free = self._engine_free
            return tail_cycle if tail_cycle > engine_free else engine_free
        return NEVER

    def _pump_eject(self, cycle: int) -> None:
        """Consume at most one flit from the router, space permitting.

        A message mid-assembly is always drained to completion (the
        paper's tiles stream; ours must at least not wedge a wormhole
        mid-message); the buffer cap gates the *start* of the next
        message, which is where real backpressure bites.
        """
        port = self.port
        if port.fault_stalled:
            # Checked before the readiness test: receive() would return
            # None and the buffered-flit count must not advance for it.
            return
        if self._buffered_flits >= self.buffer_flits and \
                not port.mid_message:
            return
        if not port.eject_ready(cycle):
            return
        self._buffered_flits += 1
        message = port.receive(cycle)
        if message is not None:
            self._rx_ready.append((cycle, message))
            if self.tracer.enabled:
                self.tracer.message_received(cycle, self, message)
                self.tracer.buffer_level(cycle, self, self._buffered_flits)

    def _pump_process(self, cycle: int) -> None:
        """Run the (serialised) processing engine.

        Pickup happens when the engine is free and the output side has
        room; the transformed outputs emit ``parse_latency`` cycles
        later; the engine then stays busy so consecutive messages are
        spaced ``max(message_flits, occupancy)`` cycles apart — the
        flit stream for large messages, the engine recovery for small
        ones.
        """
        if self._in_service is not None and cycle >= self._emit_at:
            self._finish_service(self._in_service, cycle)
            self._in_service = None
        if (self._in_service is None
                and self._rx_ready
                and self._rx_ready[0][0] <= cycle
                and cycle >= self._engine_free
                and self.port.tx_backlog < self.max_tx_backlog):
            _tail_cycle, message = self._rx_ready.popleft()
            self._begin_service(message, cycle,
                                self.service_cycles(message))

    def _begin_service(self, message: NocMessage, cycle: int,
                       busy_cycles: int) -> None:
        """Engine pickup: occupy the engine for ``busy_cycles``."""
        self._in_service = message
        self._emit_at = cycle + max(1, self.parse_latency)
        self._engine_free = cycle + busy_cycles
        if self.tracer.enabled:
            self.tracer.processing_start(cycle, self, message)

    def _finish_service(self, message: NocMessage, cycle: int) -> None:
        self.messages_in += 1
        self.bytes_in += len(message.data)
        self._buffered_flits = max(
            0, self._buffered_flits - message.n_flits
        )
        if message.packet_id is None:
            message.packet_id = next_packet_id()
        self._service_ctx = (message, cycle)
        sent_before = self.messages_out
        try:
            outputs = self.handle_message(message, cycle)
            for out in outputs or []:
                self.send(out)
        finally:
            self._service_ctx = None
        if self.tracer.enabled:
            self.tracer.processing_end(cycle, self, message,
                                       self.messages_out - sent_before)
            self.tracer.buffer_level(cycle, self, self._buffered_flits)

    def send(self, message: NocMessage) -> None:
        """Queue an output message for injection.

        Outputs emitted while an input is in service inherit its
        ``packet_id`` (the end-to-end correlation id tracing spans are
        stitched by); source-originated messages get a fresh one.
        """
        if message.packet_id is None:
            if self._service_ctx is not None:
                message.packet_id = self._service_ctx[0].packet_id
            else:
                message.packet_id = next_packet_id()
        self.messages_out += 1
        self.bytes_out += len(message.data)
        self.port.send(message)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}@{self.coord})"
