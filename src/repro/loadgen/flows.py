"""N competing TCP flows through seeded loss (CC shoot-out harness).

One server-side stack (:class:`~repro.designs.tcp_stack.
TcpServerDesign` with a sink app), N :class:`~repro.tcp.peer.
SoftTcpPeer` clients each streaming the same byte count through a
shared lossy wire (:class:`repro.faults.FaultPlan` drop probability,
seed-deterministic), every peer running the same pluggable congestion
control (:mod:`repro.tcp.cc`).  Dropped client segments make the
server re-ACK out of order, the peers' triple-dup-ACK detectors fire
fast retransmits, and the chosen algorithm's loss response shapes the
completion time — Tahoe collapses to one MSS, Reno halves, CUBIC
probes back with its cubic curve.  Jain fairness and retransmission
counters come back in the result.
"""

from __future__ import annotations

from repro import params
from repro.designs.tcp_stack import TcpServerDesign
from repro.faults import FaultPlan
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address
from repro.tcp.app import TcpSinkAppTile
from repro.tcp.peer import PeerNetwork, SoftTcpPeer
from repro.telemetry.stats import jain_index


#: Every flow's segment size, receive window and one-way wire delay.
MSS = 1024
WINDOW = 60_000
WIRE_CYCLES = 500


def build_competing_flows(cc: str = "reno", n_flows: int = 3,
                          loss: float = 0.01,
                          stream_bytes: int = 48 * 1024,
                          seed: int = 0xBEE,
                          rto_cycles: int = 10_000,
                          profile: str = "fast"):
    """Construct the design plus its N sending peers (not yet run)."""
    plan = FaultPlan(seed=seed).wire(drop=loss) if loss else None
    design = TcpServerDesign(
        tcp_port=5000, app_tile_cls=TcpSinkAppTile,
        request_size=MSS, mss=MSS,
        line_rate_bytes_per_cycle=None, max_flows=n_flows + 2,
        profile=profile, fault_plan=plan)
    network = PeerNetwork(design)
    design.sim.add(network)
    peers = []
    payload = bytes(range(256)) * (stream_bytes // 256 + 1)
    for index in range(n_flows):
        ip = IPv4Address(f"10.0.1.{index + 1}")
        mac = MacAddress(f"02:00:00:00:01:{index + 1:02x}")
        design.add_client(ip, mac)
        peer = SoftTcpPeer(design, ip, mac, design.server_ip, 5000,
                           src_port=42_000 + index, mss=MSS,
                           window=WINDOW, service_cycles=2,
                           wire_cycles=WIRE_CYCLES,
                           rto_cycles=rto_cycles,
                           iss=5_000 + 313 * index,
                           congestion_control=cc)
        network.register(peer)
        design.sim.add(peer)
        peer.connect()
        peer.send(payload[:stream_bytes])
        peers.append(peer)
    return design, peers


def run_competing_flows(cc: str = "reno", n_flows: int = 3,
                        loss: float = 0.01,
                        stream_bytes: int = 48 * 1024,
                        seed: int = 0xBEE,
                        max_cycles: int = 3_000_000,
                        **kwargs) -> dict:
    """Run N competing flows to full-stream delivery; returns the
    completion/fairness/retransmission signature."""
    design, peers = build_competing_flows(
        cc=cc, n_flows=n_flows, loss=loss,
        stream_bytes=stream_bytes, seed=seed, **kwargs)

    flow_done: dict[int, int] = {}

    def all_delivered() -> bool:
        cyc = design.sim.cycle
        for p in peers:
            if p.bytes_acked >= stream_bytes and \
                    p.src_port not in flow_done:
                flow_done[p.src_port] = cyc
        return len(flow_done) == len(peers)

    try:
        design.sim.run_until(all_delivered, max_cycles=max_cycles)
    except TimeoutError:
        pass
    completion = design.sim.cycle
    flows = []
    for peer in peers:
        done_cycle = flow_done.get(peer.src_port)
        elapsed_s = (done_cycle if done_cycle else completion) * \
            params.CYCLE_TIME_S
        flows.append({
            "src_port": peer.src_port,
            "bytes_acked": peer.bytes_acked,
            "complete": peer.bytes_acked >= stream_bytes,
            "completion_cycle": done_cycle,
            "segments_sent": peer.segments_sent,
            "retransmits": peer.retransmits,
            "fast_retransmits": peer.fast_retransmits,
            "goodput_gbps": (peer.bytes_acked * 8 / elapsed_s / 1e9
                             if elapsed_s else 0.0),
            "cwnd": peer.cwnd,
            "ssthresh": peer.ssthresh,
        })
    engine = getattr(design, "fault_engine", None)
    wire_drops = 0 if engine is None else \
        engine.counters.get("wire.drop", 0)
    return {
        "cc": cc,
        "n_flows": n_flows,
        "loss": loss,
        "stream_bytes": stream_bytes,
        "completion_cycle": completion,
        "all_delivered": all_delivered(),
        "flows": flows,
        "jain_fairness": jain_index(f["goodput_gbps"] for f in flows),
        "total_retransmits": sum(f["retransmits"] for f in flows),
        "total_fast_retransmits": sum(f["fast_retransmits"]
                                      for f in flows),
        "wire_drops": wire_drops,
    }
