"""The TCP receive engine tile.

Responsibilities (paper section V-D): accept connection-setup requests,
determine whether received data is in order, calculate the next ACK,
and process ACKs for the transmitted data (including driving fast
retransmit on the third duplicate ACK).  Out-of-order segments are
dropped and re-ACKed — the engine has no SACK, mirroring the paper.

The engine writes only the RX half of the flow state; it reads the TX
half and signals the transmit engine over dedicated wires
(``tx_engine`` — direct method calls, not NoC messages), because
"every receive path has only one corresponding transmit path, so wires
do not fan out".
"""

from __future__ import annotations

from collections import deque

from repro import params
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.packet.tcp import TCP_ACK, TCP_FIN, TCP_RST, TCP_SYN, TcpHeader
from repro.tcp.flow import (
    FlowTable,
    TcpState,
    seq_add,
    seq_diff,
    seq_ge,
)
from repro.tcp.messages import (
    ConnectionClosed,
    ConnectionNotify,
    RxComplete,
    RxNotify,
    RxRequest,
)
from repro.tiles.base import DestDomain, PacketMeta, Tile
from repro.tiles.buffer import BufferTile


class TcpRxEngineTile(Tile):
    """Server-side TCP receive processing."""

    KIND = "tcp_rx"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 flows: FlowTable, rx_buffer: BufferTile,
                 tx_engine=None, **kwargs):
        kwargs.setdefault("occupancy", params.TCP_ENGINE_PER_PACKET_CYCLES)
        super().__init__(name, mesh, coord, **kwargs)
        # Like the TX engine, the RX pipeline issues a new segment
        # every pipeline_ii cycles; the full per-packet occupancy is a
        # *per-flow* state round-trip, which at the receive side is
        # already enforced by the sender's pacing, so segments of
        # different flows interleave freely.
        self.pipeline_ii = params.TCP_ENGINE_PIPELINE_II_CYCLES
        self.flows = flows
        self.rx_buffer = rx_buffer
        self.rx_buf_bytes = params.TCP_RX_BUFFER_BYTES
        self.listen_ports: dict[int, tuple[int, int]] = {}  # port -> app
        self.tx_engine = tx_engine
        self._next_buf_base = 0
        # Per-flow: stream offset already handed to the app via RxNotify.
        self._notified: dict[int, int] = {}
        # Per-flow queue of outstanding (remaining_size, reply_to).
        self._pending: dict[int, deque] = {}
        # Statistics
        self.segments_in = 0
        self.out_of_order_drops = 0
        self.checksum_errors = 0
        self.resets = 0

    def dest_domain(self) -> DestDomain:
        """The RX engine addresses its buffer, every listening app,
        and — data-dependently — per-flow reply destinations carried
        in the requests it services."""
        return DestDomain.of(
            [self.rx_buffer.coord, *self.listen_ports.values()],
            data_dependent=True)

    # -- wiring ---------------------------------------------------------------

    def listen(self, port: int, app_coord: tuple[int, int]) -> None:
        """Accept connections on ``port`` for the app tile at
        ``app_coord``."""
        self.listen_ports[port] = app_coord

    def connect(self, key: int, targets, policy) -> None:
        """A ``port:N`` destination is ``listen(N, app)``."""
        (app_coord,) = targets
        self.listen(key, app_coord)

    # -- message handling -------------------------------------------------------

    def handle_message(self, message: NocMessage, cycle: int):
        request = message.metadata
        if isinstance(request, RxRequest):
            return self._handle_rx_request(request)
        if isinstance(request, RxComplete):
            return self._handle_rx_complete(request)
        if isinstance(request, PacketMeta):
            return self._handle_segment(request, message.data, cycle)
        return self.drop(message, "unknown message at TCP RX")

    def service_cycles(self, message) -> int:
        """App-interface messages (RxRequest/RxComplete) are cheap
        state updates; segments occupy the pipelined engine for one
        initiation interval (or their flit stream, if longer)."""
        if isinstance(message.metadata, PacketMeta):
            return max(message.n_flits, self.pipeline_ii)
        return max(message.n_flits, 8)

    # -- segment path -------------------------------------------------------------

    def _handle_segment(self, meta: PacketMeta, data: bytes, cycle: int):
        try:
            tcp, payload = TcpHeader.unpack(data)
        except ValueError:
            return self.drop(None, "malformed TCP")
        l4_len = tcp.header_len + len(payload)
        if not tcp.verify(meta.ip.pseudo_header(l4_len), payload):
            self.checksum_errors += 1
            return []
        self.segments_in += 1
        four_tuple = (int(meta.ip.src), tcp.src_port,
                      int(meta.ip.dst), tcp.dst_port)
        flow_id = self.flows.lookup(four_tuple)

        if tcp.flag(TCP_RST):
            if flow_id is not None:
                self.resets += 1
                self._teardown(flow_id)
            return []

        outputs: list[NocMessage] = []
        if tcp.flag(TCP_SYN) and not tcp.flag(TCP_ACK):
            self._handle_syn(four_tuple, tcp, flow_id, cycle)
            return []
        if flow_id is None:
            return []  # no flow and not a SYN: filtered out
        rx = self.flows.rx[flow_id]

        if tcp.flag(TCP_ACK):
            self._process_ack(rx, tcp, outputs, cycle)

        if payload or tcp.flag(TCP_FIN):
            self._process_data(rx, tcp, payload, meta, outputs)

        outputs.extend(self._satisfy_pending(flow_id))
        return outputs

    def _handle_syn(self, four_tuple, tcp: TcpHeader,
                    flow_id: int | None, cycle: int) -> None:
        if tcp.dst_port not in self.listen_ports:
            return
        if flow_id is None:
            flow_id = self.flows.create(four_tuple)
            if flow_id is None:
                return  # connection table full
            rx = self.flows.rx[flow_id]
            rx.rx_buf_base = self._next_buf_base
            rx.rx_buf_size = self.rx_buf_bytes
            self._next_buf_base += self.rx_buf_bytes
            self._notified[flow_id] = 0
            self._pending[flow_id] = deque()
        rx = self.flows.rx[flow_id]
        # Fresh SYN or SYN retransmission: (re)arm the handshake.
        rx.irs = tcp.seq
        rx.rcv_nxt = seq_add(tcp.seq, 1)
        rx.peer_window = tcp.window
        rx.state = TcpState.SYN_RCVD
        self.tx_engine.request_synack(flow_id, cycle)

    def _process_ack(self, rx, tcp: TcpHeader,
                     outputs: list[NocMessage], cycle: int) -> None:
        # peer_window, snd_una and state are what the TX engine's
        # pump decides on: writing them is a wire, like the calls below.
        self.tx_engine._wake()
        rx.peer_window = tcp.window
        tx = self.flows.tx[rx.flow_id]
        ack = tcp.ack
        if rx.state == TcpState.SYN_RCVD and \
                ack == seq_add(tx.iss, 1):
            rx.state = TcpState.ESTABLISHED
            rx.snd_una = ack
            app = self.listen_ports.get(rx.four_tuple[3])
            if app is not None:
                notify = ConnectionNotify(
                    flow_id=rx.flow_id, four_tuple=rx.four_tuple,
                    dst_port=rx.four_tuple[3],
                )
                outputs.append(self.make_message(app, metadata=notify))
            return
        if seq_diff(ack, rx.snd_una) > 0 and seq_ge(tx.snd_nxt, ack):
            acked = seq_diff(ack, rx.snd_una)
            rx.snd_una = ack
            rx.dup_acks = 0
            self.tx_engine.on_ack_advance(rx.flow_id, acked, cycle)
        elif ack == rx.snd_una and \
                seq_diff(tx.snd_nxt, rx.snd_una) > 0:
            rx.dup_acks += 1
            if rx.dup_acks == 3:
                self.tx_engine.fast_retransmit(rx.flow_id, cycle)

    def _process_data(self, rx, tcp: TcpHeader, payload: bytes,
                      meta: PacketMeta,
                      outputs: list[NocMessage]) -> None:
        if rx.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            return
        in_order = tcp.seq == rx.rcv_nxt
        fits = len(payload) <= rx.rx_window
        if payload and in_order and fits:
            self._write_ring(rx, payload)
            rx.rcv_nxt = seq_add(rx.rcv_nxt, len(payload))
        elif payload:
            self.out_of_order_drops += 1
        if tcp.flag(TCP_FIN) and not rx.fin_received:
            if payload:
                fin_in_order = in_order and fits and \
                    seq_add(tcp.seq, len(payload)) == rx.rcv_nxt
            else:
                fin_in_order = tcp.seq == rx.rcv_nxt
            if fin_in_order:
                rx.fin_received = True
                rx.rcv_nxt = seq_add(rx.rcv_nxt, 1)
                rx.state = TcpState.CLOSE_WAIT
                app = self.listen_ports.get(rx.four_tuple[3])
                if app is not None:
                    outputs.append(self.make_message(
                        app,
                        metadata=ConnectionClosed(flow_id=rx.flow_id),
                    ))
        # Always ACK: progress ACK if accepted, duplicate ACK otherwise —
        # the duplicate is what lets the peer fast-retransmit.
        self.tx_engine.request_ack(rx.flow_id)

    def _write_ring(self, rx, payload: bytes) -> None:
        offset = rx.rx_stream_received % rx.rx_buf_size
        base = rx.rx_buf_base
        first = min(len(payload), rx.rx_buf_size - offset)
        memory = self.rx_buffer.memory
        memory[base + offset:base + offset + first] = payload[:first]
        if first < len(payload):
            rest = payload[first:]
            memory[base:base + len(rest)] = rest

    def _teardown(self, flow_id: int) -> None:
        self.flows.release(flow_id)
        self._notified.pop(flow_id, None)
        self._pending.pop(flow_id, None)
        self.tx_engine.release_flow(flow_id)

    # -- application interface ---------------------------------------------------

    def _handle_rx_request(self, request: RxRequest):
        if request.flow_id not in self.flows.rx:
            return []
        self._pending[request.flow_id].append(
            [request.size, request.reply_to]
        )
        return self._satisfy_pending(request.flow_id)

    def _handle_rx_complete(self, request: RxComplete):
        rx = self.flows.rx.get(request.flow_id)
        if rx is not None:
            rx.app_read_offset += request.size
        return []

    def _satisfy_pending(self, flow_id: int) -> list[NocMessage]:
        """Emit RxNotify for any request that data now satisfies."""
        rx = self.flows.rx.get(flow_id)
        if rx is None:
            return []
        outputs = []
        queue = self._pending.get(flow_id)
        while queue:
            size, reply_to = queue[0]
            available = rx.rx_stream_received - self._notified[flow_id]
            if available < size:
                break
            offset = self._notified[flow_id] % rx.rx_buf_size
            chunk = min(size, rx.rx_buf_size - offset)
            notify = RxNotify(
                flow_id=flow_id,
                addr=rx.rx_buf_base + offset,
                size=chunk,
                stream_offset=self._notified[flow_id],
            )
            outputs.append(self.make_message(reply_to, metadata=notify))
            self._notified[flow_id] += chunk
            if chunk == size:
                queue.popleft()
            else:
                queue[0][0] = size - chunk  # wrapped: remainder pending
        return outputs
