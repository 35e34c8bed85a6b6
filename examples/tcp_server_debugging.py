#!/usr/bin/env python3
"""TCP serving + the logging/replay debugging workflow (section V-F).

Starts the Beehive TCP server design with logging tiles inserted
between the IP and TCP layers, connects an independent software TCP
client, runs an RPC exchange with an injected packet loss, then:

1. dumps the cycle-timestamped TCP header log the tiles captured
   (including the retransmission the loss forced), and
2. replays the recorded ingress trace cycle-accurately into a fresh
   design instance and checks the run reproduces byte-for-byte.

Run:  python examples/tcp_server_debugging.py
"""

from repro.designs import CLIENT_IP, CLIENT_MAC
from repro.designs.tcp_stack import TcpServerDesign
from repro.tcp.peer import SoftTcpPeer
from repro.telemetry import FrameTraceRecorder, TraceReplayer


def build(with_recorder=False):
    design = TcpServerDesign(tcp_port=5000, request_size=32,
                             with_logging=True)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    recorder = None
    if with_recorder:
        recorder = FrameTraceRecorder(design)
        recorder.attach()
    return design, recorder


def main():
    design, recorder = build(with_recorder=True)

    # Drop the client's second data segment once, to exercise recovery.
    state = {"seen_data": 0}
    recorded_inject = design.inject

    def lossy_inject(frame, cycle):
        if len(frame) > 60:
            state["seen_data"] += 1
            if state["seen_data"] == 2:
                print("[loss injected: dropping one client segment]")
                return
        recorded_inject(frame, cycle)

    design.inject = lossy_inject

    peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC, design.server_ip,
                       5000, wire_cycles=50)
    peer.mss = 32  # one segment per RPC, so the loss hits a whole RPC
    peer.rto_cycles = 4000
    design.sim.add(peer)
    peer.connect()
    for i in range(3):
        peer.send(bytes([0x41 + i]) * 32)
    design.sim.run_until(lambda: len(peer.received) >= 96,
                         max_cycles=2_000_000)
    print(f"client echoed 3 RPCs ({len(peer.received)} bytes) despite "
          f"the loss; client retransmits: {peer.retransmits}")

    # This design's log tiles have no readback port, so the entries are
    # read from the tile in process (logged_udp_echo shows the section
    # V-F network readback).
    print("\nTCP RX log (cycle-timestamped, the log tile's entries read "
          "in process):")
    for entry in design.log_rx.entries:
        print(f"  cycle {entry.cycle:>7} {entry.direction} "
              f"{entry.summary:<18} seq={entry.seq} ack={entry.ack} "
              f"[{entry.flags}] len={entry.length}")

    # Cycle-accurate replay into a fresh design.
    replay_design, _ = build()
    replayer = TraceReplayer(replay_design, recorder.events)
    replay_design.sim.add(replayer)
    replay_design.sim.run(design.sim.cycle)
    original = [e.seq for e in design.log_rx.entries]
    replayed = [e.seq for e in replay_design.log_rx.entries]
    assert original == replayed, "replay diverged!"
    print(f"\nreplayed {replayer.replayed} recorded frames "
          "cycle-accurately: log sequences identical")


if __name__ == "__main__":
    main()
