"""Figure 9: packet size vs goodput for unidirectional TCP send.

Beehive's TCP engine streaming to a client versus the Linux TCP stack
(Demikernel falls back to Linux TCP here, as the paper notes).  The
claims: Beehive outperforms Linux TCP across all request sizes; the
gap is largest at small payloads (2666 vs 843 KReq/s, 3.2x); Beehive
TCP is slower than Beehive UDP (stateful handling, full bandwidth only
across multiple connections); CPU TCP streams better than CPU UDP
thanks to jumbo-frame batching.
"""

import pytest

from repro import params
from repro.baselines.hoststacks import (
    demikernel_udp_goodput_gbps,
    linux_tcp_goodput_gbps,
    linux_tcp_kreqs,
)
from repro.designs import CLIENT_IP, CLIENT_MAC
from repro.designs.tcp_stack import TcpServerDesign
from repro.tcp.app import TcpSourceAppTile
from repro.tcp.peer import SoftTcpPeer

SIZES = (64, 256, 1024, 4096, 8960)
WARMUP_CYCLES = 80_000
MEASURE_CYCLES = 80_000


def beehive_send_goodput(payload: int) -> tuple[float, float]:
    """(Gbps, KReq/s) of the hardware TCP engine streaming out."""
    design = TcpServerDesign(
        tcp_port=5000, app_tile_cls=TcpSourceAppTile, request_size=64,
        mss=payload, chunk_size=16384,
        line_rate_bytes_per_cycle=50.0,
    )
    design.add_client(CLIENT_IP, CLIENT_MAC)
    peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC, design.server_ip,
                       5000, wire_cycles=100, service_cycles=2,
                       window=60_000)
    design.sim.add(peer)
    peer.connect()
    design.sim.run(WARMUP_CYCLES)
    base = len(peer.received)
    start = design.sim.cycle
    design.sim.run(MEASURE_CYCLES)
    received = len(peer.received) - base
    elapsed = (design.sim.cycle - start) * params.CYCLE_TIME_S
    gbps = received * 8 / elapsed / 1e9
    kreqs = received / payload / elapsed / 1e3
    return gbps, kreqs


def run_fig9():
    rows = []
    for payload in SIZES:
        bee_gbps, bee_kreqs = beehive_send_goodput(payload)
        rows.append((payload, bee_gbps, bee_kreqs,
                     linux_tcp_goodput_gbps(payload),
                     linux_tcp_kreqs(payload)))
    return rows


def bench_fig9_tcp_goodput(benchmark, report):
    rows = benchmark.pedantic(run_fig9, rounds=1, iterations=1)

    report.row("single-connection unidirectional send "
               "(Beehive measured in the cycle simulator; Linux from "
               "the calibrated host model):")
    report.table(
        ["payload B", "Beehive Gbps", "Beehive KReq/s", "Linux Gbps",
         "Linux KReq/s", "speedup"],
        [[size, bee, bee_k, lin, lin_k, f"{bee / lin:.1f}x"]
         for size, bee, bee_k, lin, lin_k in rows],
    )
    by_size = {row[0]: row for row in rows}
    small = by_size[64]
    report.row()
    report.row(f"64 B: {small[2]:.0f} vs {small[4]:.0f} KReq/s = "
               f"{small[2] / small[4]:.1f}x "
               "(paper: 2666 vs 843 KReq/s, 3.2x)")
    report.row("CPU TCP streams better than CPU UDP via batching "
               f"(TCP {linux_tcp_goodput_gbps(8960):.0f} vs UDP "
               f"{demikernel_udp_goodput_gbps(8960):.0f} Gbps at "
               "jumbo) — the paper's Fig 9 note")

    # Shape assertions.
    assert small[2] == pytest.approx(2666, rel=0.05)
    assert small[2] / small[4] == pytest.approx(3.2, rel=0.1)
    for size, bee, _, lin, _ in rows:
        assert bee > lin  # Beehive wins at every size
    # Beehive TCP slower than Beehive UDP at small packets (9.8 Gbps).
    assert by_size[64][1] < 9.0
    assert linux_tcp_goodput_gbps(8960) > \
        demikernel_udp_goodput_gbps(8960)
