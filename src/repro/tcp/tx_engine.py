"""The TCP transmit engine tile.

Responsibilities (paper section V-D): separate out buffers for sending,
update the sequence number of the transmitted stream, segmentation
within the peer's flow-control window, and retransmission (timer-driven
go-back-N plus fast retransmit triggered by the receive engine over the
dedicated wires).

The engine writes only the TX half of the flow state.  When building a
segment it reads the receive engine's ``rcv_nxt`` for the ACK field —
the value may be a cycle stale, which the paper shows is equivalent to
the packet having been received slightly later (the asynchrony
argument in section V-D).
"""

from __future__ import annotations

from collections import deque

from repro import params
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.packet.ipv4 import IPPROTO_TCP, IPv4Address, IPv4Header
from repro.packet.tcp import TCP_ACK, TCP_PSH, TCP_SYN, TcpHeader
from repro.tcp.cc import CongestionControl, make_cc
from repro.tcp.flow import FlowTable, TcpState, seq_add, seq_diff
from repro.tcp.messages import TxGrant, TxReady, TxReserve
from repro.tiles.base import NextHopTable, PacketMeta, Tile
from repro.tiles.buffer import BufferTile


class TcpTxEngineTile(Tile):
    """Server-side TCP transmit processing."""

    KIND = "tcp_tx"

    DEFAULT = "default"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 flows: FlowTable, tx_buffer: BufferTile,
                 mss: int = params.TCP_MSS_BYTES,
                 rto_cycles: int = params.TCP_RTO_CYCLES,
                 congestion_control: bool | str |
                 CongestionControl | None = False,
                 **kwargs):
        kwargs.setdefault("occupancy", params.TCP_ENGINE_PER_PACKET_CYCLES)
        super().__init__(name, mesh, coord, **kwargs)
        self.flows = flows
        self.tx_buffer = tx_buffer
        self.tx_buf_bytes = params.TCP_TX_BUFFER_BYTES
        self.mss = mss
        self.rto_cycles = rto_cycles
        # Optional congestion control — the paper's engine ships
        # without it ("it does not support ... congestion control")
        # and names it as integration work.  ``congestion_control``
        # resolves through repro.tcp.cc.make_cc: True keeps the
        # historical Reno behaviour; "tahoe"/"reno"/"cubic" pick an
        # algorithm; a CongestionControl instance is used as-is.
        self.cc = make_cc(congestion_control)
        self.congestion_control = self.cc is not None
        # The engine is pipelined: different flows issue pipeline_ii
        # cycles apart; the same flow waits the full occupancy (its
        # flow-state read-modify-write round-trip).  Section VII-D's
        # multi-connection bandwidth behaviour falls out of this.
        self.pipeline_ii = params.TCP_ENGINE_PIPELINE_II_CYCLES
        self._flow_pace: dict[int, int] = {}
        self.next_hop = NextHopTable(name=f"{name}.nexthop")
        self._next_buf_base = 0
        self._iss_counter = 0x1000_0000
        # Control work queued by the RX engine over the dedicated wires.
        self._control: deque[tuple[str, int]] = deque()
        # Flows with a pending (unsatisfiable-yet) reservation.
        self._pending_reserve: dict[int, deque] = {}
        self._rr_flows: deque[int] = deque()
        self._pace_free = 0
        # Statistics
        self.segments_out = 0
        self.pure_acks_out = 0
        self.payload_bytes_out = 0

    # -- dedicated wires from the RX engine ------------------------------------
    # Each one hands the pump work (or window) from outside its step,
    # so each one wakes the engine; the RX engine passes the cycle it
    # is stepping, because a sleeping engine has no clock of its own.

    def request_synack(self, flow_id: int, cycle: int) -> None:
        tx = self.flows.tx[flow_id]
        if tx.iss == 0:
            self._iss_counter += 0x10000
            tx.iss = self._iss_counter
            tx.snd_nxt = seq_add(tx.iss, 1)
            tx.tx_buf_base = self._next_buf_base
            tx.tx_buf_size = self.tx_buf_bytes
            self._next_buf_base += self.tx_buf_bytes
            self._pending_reserve.setdefault(flow_id, deque())
            self._rr_flows.append(flow_id)
            if self.cc is not None:
                self.cc.on_connect(tx, self.mss, cycle)
        self._control.append(("synack", flow_id))
        self._wake()

    def request_ack(self, flow_id: int) -> None:
        self._control.append(("ack", flow_id))
        self._wake()

    def fast_retransmit(self, flow_id: int, cycle: int) -> None:
        if self.cc is not None:
            tx = self.flows.tx.get(flow_id)
            rx = self.flows.rx.get(flow_id)
            if tx is not None and rx is not None:
                in_flight = max(self.mss, seq_diff(tx.snd_nxt,
                                                   rx.snd_una))
                self.cc.on_loss(tx, in_flight, self.mss, cycle)
        self._control.append(("fast_rtx", flow_id))
        self._wake()

    def on_ack_advance(self, flow_id: int, acked_bytes: int,
                       cycle: int) -> None:
        """Dedicated-wire notification from the RX engine: new data
        was acknowledged.  Acked bytes free transmit-ring space, so
        any reservation waiting on that space can be granted now (an
        idle engine would otherwise never re-evaluate it); with
        congestion control enabled the window also grows (RFC 5681).
        """
        self._wake()  # bytes left flight: the send window has room
        if flow_id in self._pending_reserve and \
                self._pending_reserve[flow_id]:
            for out in self._grant_reservations(flow_id):
                self.send(out)
        if self.cc is None:
            return
        tx = self.flows.tx.get(flow_id)
        if tx is None:
            return
        self.cc.on_ack(tx, acked_bytes, self.mss, cycle)

    def release_flow(self, flow_id: int) -> None:
        self._pending_reserve.pop(flow_id, None)
        self._flow_pace.pop(flow_id, None)
        if flow_id in self._rr_flows:
            self._rr_flows.remove(flow_id)

    # -- application interface ----------------------------------------------------

    def handle_message(self, message: NocMessage, cycle: int):
        request = message.metadata
        if isinstance(request, TxReserve):
            queue = self._pending_reserve.get(request.flow_id)
            if queue is None:
                return self.drop(message, "unknown flow")
            queue.append([request.size, request.reply_to])
            return self._grant_reservations(request.flow_id)
        if isinstance(request, TxReady):
            tx = self.flows.tx.get(request.flow_id)
            if tx is None:
                return self.drop(message, "unknown flow")
            tx.tx_written += request.size
            return []
        return self.drop(message, "unknown message at TCP TX")

    def service_cycles(self, message: NocMessage) -> int:
        """App-interface bookkeeping (reserve/ready) is a couple of
        state-machine transitions, not a packet traversal."""
        if isinstance(message.metadata, PacketMeta):
            return max(message.n_flits, self.occupancy)
        return max(message.n_flits, 8)

    def _acked_stream(self, flow_id: int) -> int:
        """Stream bytes the peer has acknowledged (frees ring space)."""
        rx = self.flows.rx[flow_id]
        tx = self.flows.tx[flow_id]
        return max(0, seq_diff(rx.snd_una, seq_add(tx.iss, 1)))

    def _grant_reservations(self, flow_id: int) -> list[NocMessage]:
        tx = self.flows.tx[flow_id]
        outputs = []
        queue = self._pending_reserve[flow_id]
        while queue:
            size, reply_to = queue[0]
            free = tx.tx_buf_size - (tx.tx_reserved -
                                     self._acked_stream(flow_id))
            offset = tx.tx_reserved % tx.tx_buf_size
            # Grant whole requests (or ring-boundary splits), never
            # free-space crumbs: fragmenting a reservation into tiny
            # grants floods the engine with bookkeeping messages.
            chunk = min(size, tx.tx_buf_size - offset)
            if free < chunk:
                break
            grant = TxGrant(
                flow_id=flow_id,
                addr=tx.tx_buf_base + offset,
                size=chunk,
                stream_offset=tx.tx_reserved,
            )
            outputs.append(self.make_message(reply_to, metadata=grant))
            tx.tx_reserved += chunk
            if chunk == size:
                queue.popleft()
            else:
                queue[0][0] = size - chunk
        return outputs

    # -- transmission pump -----------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        if cycle < self._pace_free or \
                self.port.tx_backlog >= self.max_tx_backlog:
            return
        message = self._next_transmission(cycle)
        if message is None:
            return
        self.send(message)
        self._pace_free = cycle + max(message.n_flits,
                                      self.pipeline_ii)
        # Retry any reservations that freed ring space unblocks.
        for flow_id in list(self._pending_reserve):
            if self._pending_reserve[flow_id]:
                for out in self._grant_reservations(flow_id):
                    self.send(out)

    # -- quiescence contract (repro.sim.kernel; DESIGN.md 5c) -----------------

    def _due(self) -> int | None:
        """The pump acts on a request from the application, a signal
        on the dedicated wires or a retransmission timer, and sleeps
        otherwise: a message arrives through the ejection FIFO, every
        wire wakes the engine, and the timer is the earlier of the
        engine's deadline and :meth:`_pump_due`.  Behind a full
        injection backlog it polls while it has anything to send — only
        the port's progress unblocks that."""
        due = self._engine_due()
        if due is None:
            return None
        pump = self._pump_due()
        if pump is None:
            return due
        if self.port.tx_backlog >= self.max_tx_backlog:
            return None
        return pump if pump < due else due

    def _pump_due(self) -> int | None:
        """The first cycle :meth:`on_cycle` could send something, as
        the state stands (None: not before a wake).  A control entry
        waits for the engine's pace; unsent data the window admits, for
        its flow's pace too; a handshake or bytes in flight, for the
        retransmission timer, which fires on the first cycle *past*
        ``last_tx_cycle + rto_cycles``.  Early is safe, late is not."""
        if self._control:
            return self._pace_free
        due = []
        rx_flows = self.flows.rx
        for flow_id, tx in self.flows.tx.items():
            rx = rx_flows.get(flow_id)
            if rx is None or tx.iss == 0:
                continue
            if self._send_length(tx, rx) > 0:
                due.append(self._flow_pace.get(flow_id, 0))
            if rx.state == TcpState.SYN_RCVD or (
                    rx.state in (TcpState.ESTABLISHED,
                                 TcpState.CLOSE_WAIT)
                    and seq_diff(tx.snd_nxt, rx.snd_una) > 0):
                due.append(tx.last_tx_cycle + self.rto_cycles + 1)
        return max(min(due), self._pace_free) if due else None

    def _next_transmission(self, cycle: int) -> NocMessage | None:
        while self._control:
            kind, flow_id = self._control.popleft()
            if flow_id not in self.flows.tx:
                continue
            if kind == "synack":
                self.flows.tx[flow_id].last_tx_cycle = cycle
                return self._build_segment(flow_id, syn=True)
            if kind == "ack":
                self.pure_acks_out += 1
                return self._build_segment(flow_id)
            if kind == "fast_rtx":
                tx = self.flows.tx[flow_id]
                tx.fast_retransmits += 1
                return self._retransmit(flow_id, cycle)
        # Data transmission: round-robin across flows.
        for _ in range(len(self._rr_flows)):
            flow_id = self._rr_flows[0]
            self._rr_flows.rotate(-1)
            message = self._try_send_data(flow_id, cycle)
            if message is not None:
                return message
        # Retransmission timer.
        for flow_id in self.flows.tx:
            tx = self.flows.tx[flow_id]
            rx = self.flows.rx.get(flow_id)
            if rx is None or tx.iss == 0:
                continue
            if cycle - tx.last_tx_cycle <= self.rto_cycles:
                continue
            if rx.state == TcpState.SYN_RCVD:
                tx.retransmits += 1
                tx.last_tx_cycle = cycle
                return self._build_segment(flow_id, syn=True)
            in_flight = seq_diff(tx.snd_nxt, rx.snd_una)
            if rx.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT) \
                    and in_flight > 0:
                tx.retransmits += 1
                if self.cc is not None and tx.cwnd:
                    # RTO: the strategy's heavy hammer.
                    self.cc.on_timeout(tx, in_flight, self.mss, cycle)
                return self._retransmit(flow_id, cycle)
        return None

    def _try_send_data(self, flow_id: int,
                       cycle: int) -> NocMessage | None:
        tx = self.flows.tx[flow_id]
        rx = self.flows.rx.get(flow_id)
        if rx is None or tx.iss == 0:
            return None
        if cycle < self._flow_pace.get(flow_id, 0):
            return None  # this flow's state round-trip is in flight
        length = self._send_length(tx, rx)
        if length <= 0:
            return None
        payload = self._read_ring(tx, tx.tx_stream_sent, length)
        message = self._build_segment(flow_id, payload=payload,
                                      seq=tx.snd_nxt)
        tx.snd_nxt = seq_add(tx.snd_nxt, len(payload))
        tx.last_tx_cycle = cycle
        self._flow_pace[flow_id] = cycle + self.occupancy
        self.payload_bytes_out += len(payload)
        return message

    def _send_length(self, tx, rx) -> int:
        """Bytes of the next new-data segment: unsent stream the send
        window admits, up to one MSS (<= 0: nothing to send, or no
        room)."""
        unsent = tx.tx_written - tx.tx_stream_sent
        if unsent <= 0:
            return 0
        send_window = rx.peer_window
        if self.congestion_control and tx.cwnd:
            send_window = min(send_window, tx.cwnd)
        window_room = send_window - seq_diff(tx.snd_nxt, rx.snd_una)
        return min(unsent, window_room, self.mss)

    def _retransmit(self, flow_id: int, cycle: int) -> NocMessage | None:
        """Go-back-N: resend one segment from the oldest unacked byte."""
        tx = self.flows.tx[flow_id]
        rx = self.flows.rx.get(flow_id)
        if rx is None:
            return None
        start = self._acked_stream(flow_id)
        length = min(seq_diff(tx.snd_nxt, rx.snd_una), self.mss)
        if length <= 0:
            return None
        payload = self._read_ring(tx, start, length)
        tx.last_tx_cycle = cycle
        self._flow_pace[flow_id] = cycle + self.occupancy
        return self._build_segment(flow_id, payload=payload,
                                   seq=rx.snd_una)

    def _read_ring(self, tx, stream_offset: int, length: int) -> bytes:
        offset = stream_offset % tx.tx_buf_size
        base = tx.tx_buf_base
        memory = self.tx_buffer.memory
        first = min(length, tx.tx_buf_size - offset)
        data = bytes(memory[base + offset:base + offset + first])
        if first < length:
            data += bytes(memory[base:base + (length - first)])
        return data

    def _build_segment(self, flow_id: int, payload: bytes = b"",
                       syn: bool = False,
                       seq: int | None = None) -> NocMessage | None:
        rx = self.flows.rx.get(flow_id)
        tx = self.flows.tx[flow_id]
        if rx is None:
            return None
        client_ip, client_port, server_ip, server_port = rx.four_tuple
        flags = TCP_ACK
        if syn:
            flags |= TCP_SYN
            seq = tx.iss
        elif payload:
            flags |= TCP_PSH
        if seq is None:
            seq = tx.snd_nxt
        header = TcpHeader(
            src_port=server_port,
            dst_port=client_port,
            seq=seq,
            ack=rx.rcv_nxt,  # read across the dedicated wires
            flags=flags,
            window=min(rx.rx_window, 0xFFFF),  # no window scaling
        )
        ip = IPv4Header(
            src=IPv4Address(server_ip),
            dst=IPv4Address(client_ip),
            protocol=IPPROTO_TCP,
            total_length=20 + header.header_len + len(payload),
        )
        tcp_bytes = header.pack_with_checksum(
            ip.pseudo_header(header.header_len + len(payload)), payload
        )
        meta = PacketMeta(ip=ip, tcp=header)
        dest = self.next_hop.lookup(self.DEFAULT)
        if dest is None:
            return None
        self.segments_out += 1
        return self.make_message(dest, metadata=meta,
                                 data=tcp_bytes + payload)
