"""Logging tiles (section V-F).

A :class:`PacketLogTile` is inserted into a processing chain (the paper
puts them between the TCP and IP layers): it forwards traffic unchanged
while recording a cycle-timestamped summary of each packet's headers
into a ring buffer.  The log is read back over the network: the L4 RX
tile routes requests on the log's UDP port here, and the tile answers
one entry per request (requests are queued in a small buffer and
dropped when it overflows, exactly as the paper describes — the client
re-requests missing entries).

Entries carry the exact cycle timestamps needed by the trace-replay
framework in :mod:`repro.telemetry.replay`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.tiles.base import NextHopTable, PacketMeta, Tile


@dataclass(frozen=True)
class LogEntry:
    """One logged packet: cycle timestamp + header summary."""

    cycle: int
    direction: str  # "rx" or "tx" relative to the protected engine
    summary: str
    seq: int | None = None
    ack: int | None = None
    flags: str = ""
    length: int = 0

    MAX_WIRE_LEN = 64

    def pack(self) -> bytes:
        """Fixed-width wire encoding used by the UDP readback protocol."""
        # ';' separates fields ('|' appears inside TCP flag strings).
        text = f"{self.direction};{self.flags};{self.summary}"
        blob = text.encode()[: self.MAX_WIRE_LEN]
        return struct.pack(
            "!QIIH", self.cycle,
            (self.seq or 0) & 0xFFFFFFFF,
            (self.ack or 0) & 0xFFFFFFFF,
            self.length,
        ) + blob

    @classmethod
    def unpack(cls, data: bytes) -> LogEntry:
        cycle, seq, ack, length = struct.unpack_from("!QIIH", data)
        text = data[18:].decode()
        direction, flags, summary = text.split(";", 2)
        return cls(cycle=cycle, direction=direction, summary=summary,
                   seq=seq, ack=ack, flags=flags, length=length)


@dataclass(frozen=True)
class LogReadReq:
    """NoC-level log read: entry ``index`` to ``reply_to``."""

    index: int
    reply_to: tuple[int, int]
    tag: object = None


@dataclass(frozen=True)
class LogReadResp:
    index: int
    total: int
    entry: LogEntry | None
    tag: object = None


class PacketLogTile(Tile):
    """A pass-through tap that logs headers with cycle timestamps."""

    KIND = "log_tile"

    # The bounded, *dropping* request buffer decouples the readback
    # path from the forward path (section V-F), so derived streaming
    # chains split here — matching the segmented chains the logged
    # designs declare.
    CHAIN_BOUNDARY = True

    FORWARD = "forward"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 direction: str = "rx", capacity: int = 4096,
                 request_buffer: int = 8,
                 readback_port: int | None = None, **kwargs):
        kwargs.setdefault("occupancy", 4)
        kwargs.setdefault("parse_latency", 2)
        super().__init__(name, mesh, coord, **kwargs)
        self.direction = direction
        self.readback_port = readback_port
        self.capacity = capacity
        self.entries: list[LogEntry] = []
        self.request_buffer = request_buffer
        self.dropped_requests = 0
        self.next_hop = NextHopTable(name=f"{name}.nexthop")

    def connect(self, key, targets, policy="flow_hash") -> None:
        """``readback`` is where log reads are answered; under any
        other key the tile forwards the traffic it taps."""
        super().connect(
            self.READBACK if key == self.READBACK else self.FORWARD,
            targets, policy)

    # -- logging ---------------------------------------------------------

    def _record(self, meta: PacketMeta | None, data: bytes,
                cycle: int) -> None:
        length = len(data)
        seq = ack = None
        flags = ""
        summary = "?"
        if meta is not None:
            tcp = meta.tcp
            if tcp is None and meta.ip is not None and \
                    meta.ip.protocol == 6:
                # Below the TCP layer (the paper's placement between the
                # TCP and IP tiles) the header is still in the payload:
                # parse it here, like the hardware logging tile does.
                from repro.packet.tcp import TcpHeader
                try:
                    tcp, _ = TcpHeader.unpack(data)
                except ValueError:
                    tcp = None
            udp = meta.udp
            if udp is None and tcp is None and meta.ip is not None \
                    and meta.ip.protocol == 17:
                from repro.packet.udp import UdpHeader
                try:
                    udp, _ = UdpHeader.unpack(data)
                except ValueError:
                    udp = None
            if tcp is not None:
                seq, ack = tcp.seq, tcp.ack
                flags = tcp.describe_flags()
                summary = f"tcp {tcp.src_port}->{tcp.dst_port}"
            elif udp is not None:
                summary = f"udp {udp.src_port}->{udp.dst_port}"
            elif meta.udp is not None:
                summary = (f"udp {meta.udp.src_port}->{meta.udp.dst_port}")
            elif meta.ip is not None:
                summary = f"ip proto {meta.ip.protocol}"
        entry = LogEntry(cycle=cycle, direction=self.direction,
                         summary=summary, seq=seq, ack=ack, flags=flags,
                         length=length)
        if len(self.entries) >= self.capacity:
            self.entries.pop(0)
        self.entries.append(entry)

    # -- message handling --------------------------------------------------

    READBACK = "readback"

    def handle_message(self, message: NocMessage, cycle: int):
        request = message.metadata
        if isinstance(request, LogReadReq):
            return self._serve_read(request)
        meta = request if isinstance(request, PacketMeta) else None
        if meta is not None and meta.udp is not None and \
                self.READBACK in self.next_hop.keys():
            # The paper's section V-F flow: the L4 RX tile directed a
            # UDP packet on the log's port here; serve one entry back
            # over the network.
            return self._serve_udp_read(meta, message.data)
        # Data-plane traffic: log and forward unchanged.  Traffic on
        # the log's own readback port is control, not workload — skip
        # it so read requests don't pollute the trace being read.
        if not self._is_readback_traffic(meta, message.data):
            self._record(meta, message.data, cycle)
        dest = self.next_hop.lookup(self.FORWARD)
        if dest is None:
            return self.drop(message, "no forward destination")
        return [self.make_message(dest, metadata=message.metadata,
                                  data=message.data)]

    def _is_readback_traffic(self, meta: PacketMeta | None,
                             data: bytes) -> bool:
        if self.readback_port is None or meta is None:
            return False
        udp = meta.udp
        if udp is None and meta.ip is not None and \
                meta.ip.protocol == 17:
            from repro.packet.udp import UdpHeader
            try:
                udp, _ = UdpHeader.unpack(data)
            except ValueError:
                return False
        return udp is not None and udp.dst_port == self.readback_port

    def _serve_udp_read(self, meta: PacketMeta, payload: bytes):
        """Network-facing readback: request = 4-byte entry index;
        response = (index, total count, packed entry | empty).  The
        client reads an entry at a time and re-requests entries whose
        responses never arrive, as the paper describes."""
        if self.request_buffer <= 0:
            self.dropped_requests += 1
            return []
        if len(payload) < 4:
            return self.drop(None, "short log read request")
        index = struct.unpack_from("!I", payload)[0]
        body = struct.pack("!II", index, len(self.entries))
        if 0 <= index < len(self.entries):
            body += self.entries[index].pack()
        from repro.packet.ipv4 import IPPROTO_UDP, IPv4Header
        from repro.packet.udp import UdpHeader
        reply_meta = PacketMeta(
            ip=IPv4Header(src=meta.ip.dst, dst=meta.ip.src,
                          protocol=IPPROTO_UDP),
            udp=UdpHeader(src_port=meta.udp.dst_port,
                          dst_port=meta.udp.src_port),
        )
        dest = self.next_hop.lookup(self.READBACK)
        return [self.make_message(dest, metadata=reply_meta,
                                  data=body)]

    def _serve_read(self, request: LogReadReq) -> list:
        if self.request_buffer <= 0:
            self.dropped_requests += 1
            return []
        entry = None
        if 0 <= request.index < len(self.entries):
            entry = self.entries[request.index]
        resp = LogReadResp(index=request.index, total=len(self.entries),
                           entry=entry, tag=request.tag)
        data = entry.pack() if entry is not None else b""
        return [self.make_message(request.reply_to, metadata=resp,
                                  data=data)]
