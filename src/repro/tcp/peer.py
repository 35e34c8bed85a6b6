"""A software TCP peer for the cycle-level simulations.

Plays the role of the unmodified Linux/kernel-bypass client the paper
interoperates with: an independent, frame-level TCP implementation that
actively opens connections, streams or echo-pings data, ACKs received
segments, and retransmits on timeout.  Being independently written, it
doubles as the interop check — the Beehive engine is exercised against
TCP logic that shares none of its code.
"""

from __future__ import annotations

from collections import deque

from repro import params
from repro.packet.builder import build_tcp_frame, parse_frame
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address
from repro.packet.tcp import TCP_ACK, TCP_FIN, TCP_PSH, TCP_SYN, TcpHeader
from repro.sim.kernel import NEVER, Wakeable
from repro.tcp.cc import CongestionControl, make_cc
from repro.tcp.flow import seq_add, seq_diff


class PeerNetwork(Wakeable):
    """Demultiplexes a design's egress frames to multiple peers.

    A single peer may drain ``design.eth_tx.frames_out`` directly, but
    with several clients each frame must reach the right one; this
    clocked component routes by (destination IP, destination port).
    Register it with the simulator *before* the peers it feeds: a peer
    it wakes then steps in the same cycle, as it would if everything
    were stepped in order.

    Like ``FrameSink`` it sleeps between frames — woken when the TX
    tile queues one, timed to the emit cycle of the oldest.
    """

    def __init__(self, design):
        self.design = design
        self._inboxes: dict[tuple[int, int], tuple[deque, SoftTcpPeer]] = {}
        self.unrouted = 0
        design.eth_tx.frame_listeners.append(self._wake)

    def register(self, peer: SoftTcpPeer) -> None:
        inbox: deque = deque()
        self._inboxes[(int(peer.my_ip), peer.src_port)] = (inbox, peer)
        peer._inbox = inbox

    def step(self, cycle: int) -> int:
        frames_out = self.design.eth_tx.frames_out
        while frames_out:
            frame, emit_cycle = frames_out.popleft()
            if emit_cycle > cycle:
                frames_out.appendleft((frame, emit_cycle))
                return emit_cycle
            try:
                parsed = parse_frame(frame)
            except ValueError:
                self.unrouted += 1
                continue
            l4 = parsed.tcp or parsed.udp
            if parsed.ip is None or l4 is None:
                self.unrouted += 1
                continue
            route = self._inboxes.get((int(parsed.ip.dst), l4.dst_port))
            if route is None:
                self.unrouted += 1
                continue
            inbox, peer = route
            inbox.append((frame, emit_cycle))
            peer._wake()
        return NEVER


class SoftTcpPeer(Wakeable):
    """A clocked client endpoint wired frame-to-frame to a design.

    ``service_cycles`` is the per-frame processing cost of the host
    (model knob); ``wire_cycles`` is the one-way link+switch latency.

    Behind a :class:`PeerNetwork` the peer sleeps between its events:
    a frame in its inbox (the network wakes it), the cycle it may next
    transmit something it already has to send, the retransmission
    deadline.  Draining ``frames_out`` itself it is stepped every cycle.
    """

    def __init__(self, design, my_ip: IPv4Address, my_mac: MacAddress,
                 server_ip: IPv4Address, server_port: int,
                 src_port: int = 40000,
                 mss: int = params.TCP_MSS_BYTES,
                 window: int = 65535,
                 service_cycles: int = 8,
                 wire_cycles: int = 250,
                 rto_cycles: int = params.TCP_RTO_CYCLES,
                 iss: int = 7_000,
                 congestion_control: bool | str |
                 CongestionControl | None = None):
        self.design = design
        self.my_ip = IPv4Address(my_ip)
        self.my_mac = MacAddress(my_mac)
        self.server_ip = IPv4Address(server_ip)
        self.server_port = server_port
        self.src_port = src_port
        self.mss = mss
        self.window = window
        self.service_cycles = service_cycles
        self.wire_cycles = wire_cycles
        self.rto_cycles = rto_cycles

        # Optional sender-side congestion control (see repro.tcp.cc).
        # The peer itself is the flow object: the strategy reads and
        # writes ``self.cwnd`` / ``self.ssthresh``.
        self.cc = make_cc(congestion_control)
        self.cwnd = 0  # 0 = no congestion window (legacy behaviour)
        self.ssthresh = 65535
        self.dup_acks = 0
        self.fast_retransmits = 0

        self.iss = iss
        self._data_seq = seq_add(iss, 1)  # of the first stream byte
        self.snd_nxt = iss
        self.snd_una = iss
        self.rcv_nxt = 0
        self.peer_window = 65535
        self.established = False
        self.fin_sent = False

        self.send_stream = bytearray()  # bytes waiting to go out
        self.sent_unacked = bytearray()  # retransmission window
        self.received = bytearray()
        self.on_data = None  # optional callback(bytes, cycle)

        self._inbox: deque | None = None  # set by PeerNetwork.register
        self._tx_free = 0
        self._ack_pending = False
        self._syn_sent = False
        self._last_tx_cycle = 0
        self.segments_sent = 0
        self.retransmits = 0

    # -- public API --------------------------------------------------------------

    def connect(self) -> None:
        """Start the active open on the next step."""
        self._connect_requested = True
        self._wake()

    _connect_requested = False

    def send(self, data: bytes) -> None:
        self.send_stream.extend(data)
        self._wake()

    def close(self) -> None:
        self._close_requested = True
        self._wake()

    _close_requested = False

    @property
    def bytes_acked(self) -> int:
        return seq_diff(self.snd_una, self._data_seq)

    def _roll_back(self) -> None:
        """Go-back-N on a detected loss: the server discards
        out-of-order segments, so every byte past the hole is gone and
        must be re-sent.  Re-queue the retransmission window at the
        head of the stream and rewind ``snd_nxt``; the normal data
        path then resends it under the post-loss congestion window."""
        if self.sent_unacked:
            self.send_stream[:0] = self.sent_unacked
            self.sent_unacked.clear()
        self.snd_nxt = self.snd_una

    # -- clocked behaviour --------------------------------------------------------

    def step(self, cycle: int) -> int | None:
        self._drain_server_frames(cycle)
        self._transmit(cycle)
        if self._inbox is None or self._inbox:
            return None     # draining frames_out itself: every cycle
        return self._due()

    def _due(self) -> int:
        """When ``_next_frame`` next returns a frame, nothing arriving:
        as soon as the transmitter is free if it has one to send now,
        else when the retransmission timer of what is outstanding runs
        out (``_next_frame`` tests ``cycle - _last_tx_cycle >
        rto_cycles``), else never."""
        if not self.established:
            if self._connect_requested and not self._syn_sent:
                return self._tx_free
            if self._syn_sent:
                return max(self._tx_free,
                           self._last_tx_cycle + self.rto_cycles + 1)
            return NEVER
        if self._ack_pending:
            return self._tx_free
        send_window = self.peer_window
        if self.cc is not None and self.cwnd:
            send_window = min(send_window, self.cwnd)
        if self.send_stream and send_window > len(self.sent_unacked):
            return self._tx_free
        if self.sent_unacked:
            return max(self._tx_free,
                       self._last_tx_cycle + self.rto_cycles + 1)
        if self._close_requested and not self.fin_sent and \
                not self.send_stream:
            return self._tx_free
        return NEVER

    def _drain_server_frames(self, cycle: int) -> None:
        if self._inbox is not None:
            while self._inbox:
                frame, _emit_cycle = self._inbox.popleft()
                self._handle_frame(frame, cycle)
            return
        frames_out = self.design.eth_tx.frames_out
        while frames_out:
            frame, emit_cycle = frames_out.popleft()
            if emit_cycle > cycle:
                frames_out.appendleft((frame, emit_cycle))
                break
            self._handle_frame(frame, cycle)

    def _handle_frame(self, frame: bytes, cycle: int) -> None:
        parsed = parse_frame(frame)
        if parsed.tcp is None or parsed.ip.dst != self.my_ip:
            return
        tcp = parsed.tcp
        if tcp.flag(TCP_SYN) and tcp.flag(TCP_ACK):
            if tcp.ack == self._data_seq:
                self.rcv_nxt = seq_add(tcp.seq, 1)
                self.snd_una = tcp.ack
                self.snd_nxt = tcp.ack
                self.peer_window = tcp.window
                self.established = True
                self._ack_pending = True
                if self.cc is not None:
                    self.cc.on_connect(self, self.mss, cycle)
            return
        payload = parsed.payload
        if tcp.flag(TCP_ACK):
            advance = seq_diff(tcp.ack, self.snd_una)
            if advance > 0:
                del self.sent_unacked[:advance]
                self.snd_una = tcp.ack
                self.dup_acks = 0
                if self.cc is not None:
                    self.cc.on_ack(self, advance, self.mss, cycle)
            elif advance == 0 and not payload and self.sent_unacked \
                    and self.cc is not None:
                # Pure duplicate ACK with data outstanding: the
                # server re-ACKed an out-of-order segment, i.e. a
                # packet of ours was lost on the wire.
                self.dup_acks += 1
                if self.dup_acks == 3:
                    self.fast_retransmits += 1
                    self.cc.on_loss(self, len(self.sent_unacked),
                                    self.mss, cycle)
                    self._roll_back()
            self.peer_window = tcp.window
        if payload:
            if tcp.seq == self.rcv_nxt:
                self.received.extend(payload)
                self.rcv_nxt = seq_add(self.rcv_nxt, len(payload))
                if self.on_data is not None:
                    self.on_data(payload, cycle)
            self._ack_pending = True

    def _transmit(self, cycle: int) -> None:
        if cycle < self._tx_free:
            return
        frame = self._next_frame(cycle)
        if frame is None:
            return
        self.design.inject(frame, cycle + self.wire_cycles)
        self.segments_sent += 1
        self._tx_free = cycle + self.service_cycles

    def _next_frame(self, cycle: int) -> bytes | None:
        if self._connect_requested and not self._syn_sent:
            self._syn_sent = True
            self._last_tx_cycle = cycle
            return self._frame(TcpHeader(
                src_port=self.src_port, dst_port=self.server_port,
                seq=self.iss, flags=TCP_SYN, window=self.window,
            ))
        if self._syn_sent and not self.established and \
                cycle - self._last_tx_cycle > self.rto_cycles:
            self._last_tx_cycle = cycle
            self.retransmits += 1
            return self._frame(TcpHeader(
                src_port=self.src_port, dst_port=self.server_port,
                seq=self.iss, flags=TCP_SYN, window=self.window,
            ))
        if not self.established:
            return None
        # Data, window permitting (flow control, and congestion
        # control when a strategy installed a window).
        in_flight = len(self.sent_unacked)
        send_window = self.peer_window
        if self.cc is not None and self.cwnd:
            send_window = min(send_window, self.cwnd)
        room = min(send_window - in_flight, self.mss)
        if self.send_stream and room > 0:
            chunk = bytes(self.send_stream[:room])
            del self.send_stream[:len(chunk)]
            header = TcpHeader(
                src_port=self.src_port, dst_port=self.server_port,
                seq=self.snd_nxt, ack=self.rcv_nxt,
                flags=TCP_ACK | TCP_PSH, window=self.window,
            )
            self.snd_nxt = seq_add(self.snd_nxt, len(chunk))
            self.sent_unacked.extend(chunk)
            self._ack_pending = False
            self._last_tx_cycle = cycle
            return self._frame(header, chunk)
        # Retransmission.
        if self.sent_unacked and \
                cycle - self._last_tx_cycle > self.rto_cycles:
            self.retransmits += 1
            self._last_tx_cycle = cycle
            if self.cc is not None:
                self.cc.on_timeout(self, len(self.sent_unacked),
                                   self.mss, cycle)
                self._roll_back()
                chunk = bytes(self.send_stream[:self.mss])
                del self.send_stream[:len(chunk)]
                header = TcpHeader(
                    src_port=self.src_port, dst_port=self.server_port,
                    seq=self.snd_nxt, ack=self.rcv_nxt,
                    flags=TCP_ACK | TCP_PSH, window=self.window,
                )
                self.snd_nxt = seq_add(self.snd_nxt, len(chunk))
                self.sent_unacked.extend(chunk)
                return self._frame(header, chunk)
            chunk = bytes(self.sent_unacked[:self.mss])
            header = TcpHeader(
                src_port=self.src_port, dst_port=self.server_port,
                seq=self.snd_una, ack=self.rcv_nxt,
                flags=TCP_ACK | TCP_PSH, window=self.window,
            )
            return self._frame(header, chunk)
        if self._close_requested and not self.fin_sent and \
                not self.send_stream and not self.sent_unacked:
            self.fin_sent = True
            header = TcpHeader(
                src_port=self.src_port, dst_port=self.server_port,
                seq=self.snd_nxt, ack=self.rcv_nxt,
                flags=TCP_ACK | TCP_FIN, window=self.window,
            )
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            return self._frame(header)
        if self._ack_pending:
            self._ack_pending = False
            return self._frame(TcpHeader(
                src_port=self.src_port, dst_port=self.server_port,
                seq=self.snd_nxt, ack=self.rcv_nxt,
                flags=TCP_ACK, window=self.window,
            ))
        return None

    def _frame(self, header: TcpHeader, payload: bytes = b"") -> bytes:
        return build_tcp_frame(
            self.my_mac, self.design.server_mac, self.my_ip,
            self.server_ip, header, payload,
        )
