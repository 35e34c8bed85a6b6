"""TCP flow state, partitioned by writing engine.

The paper avoids write conflicts between the receive and transmit
engines by dividing flow state into two BRAMs according to which engine
writes the data (section V-D).  We keep the same discipline:
:class:`RxFlowState` is written only by the RX engine,
:class:`TxFlowState` only by the TX engine; each engine may *read* the
other's store (over the dedicated wires between the tiles), tolerating
slightly stale values as the paper's asynchrony argument allows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

SEQ_MOD = 1 << 32


def seq_add(a: int, b: int) -> int:
    return (a + b) % SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """a - b in sequence space, interpreted as a signed 32-bit delta."""
    delta = (a - b) % SEQ_MOD
    if delta >= SEQ_MOD // 2:
        delta -= SEQ_MOD
    return delta


def seq_ge(a: int, b: int) -> bool:
    return seq_diff(a, b) >= 0


class TcpState(enum.Enum):
    LISTEN = "listen"
    SYN_RCVD = "syn_rcvd"
    ESTABLISHED = "established"
    CLOSE_WAIT = "close_wait"
    CLOSED = "closed"


FourTuple = tuple  # (client_ip_int, client_port, server_ip_int, server_port)


@dataclass
class RxFlowState:
    """Flow state written by the receive engine only."""

    flow_id: int
    four_tuple: FourTuple
    state: TcpState = TcpState.LISTEN
    irs: int = 0          # initial receive sequence number (client's ISS)
    rcv_nxt: int = 0      # next in-order byte expected = the ACK we send
    snd_una: int = 0      # oldest unacknowledged byte of *our* stream
    peer_window: int = 65535  # latest window advertised by the peer
    dup_acks: int = 0
    # Receive buffering (ring inside a buffer tile region).
    rx_buf_base: int = 0
    rx_buf_size: int = 0
    app_read_offset: int = 0   # stream bytes the app has consumed/freed
    fin_received: bool = False

    @property
    def rx_stream_received(self) -> int:
        """In-order payload bytes received so far (stream offset)."""
        return seq_diff(self.rcv_nxt, seq_add(self.irs, 1)) - (
            1 if self.fin_received else 0
        )

    @property
    def rx_window(self) -> int:
        """Receive window to advertise: free ring space."""
        unread = self.rx_stream_received - self.app_read_offset
        return max(0, self.rx_buf_size - unread)


@dataclass
class TxFlowState:
    """Flow state written by the transmit engine only."""

    flow_id: int
    iss: int = 0          # our initial sequence number
    snd_nxt: int = 0      # next sequence number to send
    # Transmit buffering (ring inside a buffer tile region).
    tx_buf_base: int = 0
    tx_buf_size: int = 0
    tx_written: int = 0     # stream bytes the app has made ready
    tx_reserved: int = 0    # stream bytes granted to the app
    last_tx_cycle: int = 0  # for the retransmission timer
    retransmits: int = 0
    fast_retransmits: int = 0
    # Congestion control (RFC 5681), an optional extension: the
    # paper's engine ships without it and notes it as future work.
    cwnd: int = 0           # 0 = congestion control disabled
    ssthresh: int = 65535

    @property
    def tx_stream_sent(self) -> int:
        return seq_diff(self.snd_nxt, seq_add(self.iss, 1))


class FlowTable:
    """Both engines' stores plus the 4-tuple lookup CAM."""

    def __init__(self, max_flows: int = 16):
        self.max_flows = max_flows
        self.rx: dict[int, RxFlowState] = {}
        self.tx: dict[int, TxFlowState] = {}
        self._by_tuple: dict[FourTuple, int] = {}
        self._next_id = 0

    def lookup(self, four_tuple: FourTuple) -> int | None:
        return self._by_tuple.get(four_tuple)

    def create(self, four_tuple: FourTuple) -> int | None:
        """Allocate a flow id, or None if the CAM is full."""
        if len(self._by_tuple) >= self.max_flows:
            return None
        flow_id = self._next_id
        self._next_id += 1
        self._by_tuple[four_tuple] = flow_id
        self.rx[flow_id] = RxFlowState(flow_id=flow_id,
                                       four_tuple=four_tuple)
        self.tx[flow_id] = TxFlowState(flow_id=flow_id)
        return flow_id

    def release(self, flow_id: int) -> None:
        rx = self.rx.pop(flow_id, None)
        self.tx.pop(flow_id, None)
        if rx is not None:
            self._by_tuple.pop(rx.four_tuple, None)

