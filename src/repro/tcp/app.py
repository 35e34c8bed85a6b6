"""Application tiles speaking the TCP engine's NoC interface.

:class:`TcpAppTile` implements the full client side of the section V-D
interface — connection notifications, receive request/notify/complete
with buffer-tile reads, and transmit reserve/grant/copy/ready with
buffer-tile writes (waiting for the write ACK before signalling
``TxReady``, since the buffer tile and the TX engine are different NoC
destinations and only point-to-point ordering is guaranteed).

Concrete apps override :meth:`on_request` (echo: return the payload) or
:meth:`on_connected` (streaming source).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.tcp.messages import (
    ConnectionClosed,
    ConnectionNotify,
    RxComplete,
    RxNotify,
    RxRequest,
    TxGrant,
    TxReady,
    TxReserve,
)
from repro.tiles.base import DestDomain, Tile
from repro.tiles.buffer import (
    BufferReadReq,
    BufferReadResp,
    BufferWriteAck,
    BufferWriteReq,
)


@dataclass
class _FlowCtx:
    """Per-connection application context."""

    flow_id: int
    request_size: int
    rx_accumulated: bytearray = field(default_factory=bytearray)
    tx_queue: deque = field(default_factory=deque)  # bytes chunks to send
    tx_inflight: bytes | None = None  # chunk waiting for grant/ack
    tx_granted: TxGrant | None = None
    requests_served: int = 0
    bytes_received: int = 0
    bytes_submitted: int = 0
    closed: bool = False


class TcpAppTile(Tile):
    """Base class for TCP applications at request granularity."""

    KIND = "echo_app"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 tcp_rx_coord: tuple[int, int],
                 tcp_tx_coord: tuple[int, int],
                 rx_buffer_coord: tuple[int, int],
                 tx_buffer_coord: tuple[int, int],
                 request_size: int = 64,
                 **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.tcp_rx_coord = tcp_rx_coord
        self.tcp_tx_coord = tcp_tx_coord
        self.rx_buffer_coord = rx_buffer_coord
        self.tx_buffer_coord = tx_buffer_coord
        self.request_size = request_size
        self.flows: dict[int, _FlowCtx] = {}
        self.connections = 0

    def dest_domain(self) -> DestDomain:
        """Fixed wiring: the app only ever addresses its two engines
        and its two buffers."""
        return DestDomain.of((self.tcp_rx_coord, self.tcp_tx_coord,
                              self.rx_buffer_coord,
                              self.tx_buffer_coord))

    # -- overridables -----------------------------------------------------------

    def on_connected(self, ctx: _FlowCtx, cycle: int) -> None:
        """Called when a connection completes its handshake."""

    # -- engine interface -------------------------------------------------------

    def submit(self, ctx: _FlowCtx, data: bytes) -> list[NocMessage]:
        """Queue ``data`` for transmission on the flow."""
        ctx.tx_queue.append(bytes(data))
        ctx.bytes_submitted += len(data)
        return self._pump_tx(ctx)

    def _request_more(self, ctx: _FlowCtx) -> NocMessage:
        want = self.request_size - len(ctx.rx_accumulated)
        return self.make_message(
            self.tcp_rx_coord,
            metadata=RxRequest(flow_id=ctx.flow_id, size=want,
                               reply_to=self.coord),
        )

    def _pump_tx(self, ctx: _FlowCtx) -> list[NocMessage]:
        """Reserve space for the next queued chunk, if idle."""
        if ctx.tx_inflight is not None or not ctx.tx_queue:
            return []
        ctx.tx_inflight = ctx.tx_queue.popleft()
        reserve = TxReserve(flow_id=ctx.flow_id,
                            size=len(ctx.tx_inflight),
                            reply_to=self.coord)
        return [self.make_message(self.tcp_tx_coord, metadata=reserve)]

    def handle_message(self, message: NocMessage, cycle: int):
        meta = message.metadata
        if isinstance(meta, ConnectionNotify):
            ctx = _FlowCtx(flow_id=meta.flow_id,
                           request_size=self.request_size)
            self.flows[meta.flow_id] = ctx
            self.connections += 1
            outputs = [self._request_more(ctx)]
            self.on_connected(ctx, cycle)
            outputs.extend(self._pump_tx(ctx))
            return outputs
        if isinstance(meta, ConnectionClosed):
            ctx = self.flows.get(meta.flow_id)
            if ctx is not None:
                ctx.closed = True
            return []
        if isinstance(meta, RxNotify):
            read = BufferReadReq(addr=meta.addr, length=meta.size,
                                 reply_to=self.coord,
                                 tag=("rx", meta.flow_id, meta.size))
            return [self.make_message(self.rx_buffer_coord,
                                      metadata=read)]
        if isinstance(meta, BufferReadResp):
            return self._handle_rx_data(meta, message.data, cycle)
        if isinstance(meta, TxGrant):
            return self._handle_grant(meta)
        if isinstance(meta, BufferWriteAck):
            return self._handle_write_ack(meta)
        return self.drop(message, "unexpected message at TCP app")

    def _handle_rx_data(self, resp, data: bytes, cycle: int):
        _tag, flow_id, size = resp.tag
        ctx = self.flows.get(flow_id)
        if ctx is None:
            return []
        ctx.rx_accumulated.extend(data)
        ctx.bytes_received += len(data)
        outputs = [self.make_message(
            self.tcp_rx_coord,
            metadata=RxComplete(flow_id=flow_id, size=len(data)),
        )]
        if len(ctx.rx_accumulated) >= ctx.request_size:
            request = bytes(ctx.rx_accumulated[:ctx.request_size])
            del ctx.rx_accumulated[:ctx.request_size]
            ctx.requests_served += 1
            reply = self.on_request(ctx, request, cycle)
            if reply:
                outputs.extend(self.submit(ctx, reply))
        outputs.append(self._request_more(ctx))
        return outputs

    def _handle_grant(self, grant: TxGrant):
        ctx = self.flows.get(grant.flow_id)
        if ctx is None or ctx.tx_inflight is None:
            return []
        ctx.tx_granted = grant
        chunk = ctx.tx_inflight[:grant.size]
        write = BufferWriteReq(addr=grant.addr, reply_to=self.coord,
                               tag=("tx", grant.flow_id, grant.size))
        return [self.make_message(self.tx_buffer_coord, metadata=write,
                                  data=chunk)]

    def _handle_write_ack(self, ack):
        _tag, flow_id, size = ack.tag
        ctx = self.flows.get(flow_id)
        if ctx is None or ctx.tx_inflight is None:
            return []
        outputs = [self.make_message(
            self.tcp_tx_coord,
            metadata=TxReady(flow_id=flow_id, size=size),
        )]
        remainder = ctx.tx_inflight[size:]
        if remainder:
            # The grant was split at the ring boundary: reserve the rest.
            ctx.tx_inflight = remainder
            reserve = TxReserve(flow_id=flow_id, size=len(remainder),
                                reply_to=self.coord)
            outputs.append(self.make_message(self.tcp_tx_coord,
                                             metadata=reserve))
        else:
            ctx.tx_inflight = None
            outputs.extend(self._pump_tx(ctx))
        return outputs


class TcpEchoAppTile(TcpAppTile):
    """Echoes each ``request_size`` request back — the paper's TCP RPC
    microbenchmark server."""

    def on_request(self, ctx, data, cycle):
        return data


class TcpSinkAppTile(TcpAppTile):
    """Consumes the stream without further processing — the receive
    side of the Fig 9 unidirectional throughput experiment."""

    def on_request(self, ctx, data, cycle):
        return None


class TcpSourceAppTile(TcpAppTile):
    """Submits data into the stack as fast as possible — the send side
    of the Fig 9 experiment ("the sending application sits in a tight
    loop, submitting data into the network stack")."""

    def __init__(self, *args, chunk_size: int = 8192,
                 total_bytes: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.chunk_size = chunk_size
        self.total_bytes = total_bytes

    def _refill(self, ctx) -> list:
        """Keep a couple of chunks in flight; submit() counts them."""
        outputs = []
        while len(ctx.tx_queue) < 2:
            if self.total_bytes is not None and \
                    ctx.bytes_submitted >= self.total_bytes:
                break
            outputs.extend(self.submit(ctx, bytes(self.chunk_size)))
        return outputs

    def handle_message(self, message, cycle):
        outputs = list(super().handle_message(message, cycle) or [])
        for ctx in self.flows.values():
            outputs.extend(self._refill(ctx))
        return outputs
