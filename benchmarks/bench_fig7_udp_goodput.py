"""Figure 7: packet size vs goodput for a UDP echo application.

Four systems at saturation across payload sizes: Beehive (this work),
CALM (the PANIC-crossbar echo), the fixed-pipeline design (Fig 8b),
and single-core Demikernel.  Expected shape: Beehive ~ CALM; the
pipelined design slightly ahead at small sizes, converging as NoC
flit overhead amortises; all three at/near line rate from 1024 B and
scaling toward the 128 Gbps NoC maximum in simulation mode; the CPU
stack far below line rate at every size (31x gap at 64 B).
"""

from repro import params
from repro.baselines import CalmUdpEcho, PipelinedUdpEchoDesign
from repro.baselines.hoststacks import (
    demikernel_udp_goodput_gbps,
    demikernel_udp_kreqs,
)
from repro.designs import (
    CLIENT_IP,
    CLIENT_MAC,
    UdpEchoDesign,
    client_frame,
    saturation_goodput,
)
from repro.sim.kernel import no_commit

SIZES = (64, 256, 1024, 4096, 9000)


def _cycles_for(size: int) -> int:
    return 20_000 if size <= 1024 else 60_000


def beehive_goodput(size: int) -> tuple[float, float]:
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    measured = saturation_goodput(design, bytes(size), _cycles_for(size))
    return measured.gbps, measured.kreqs


def saturate_echo(design, size: int) -> float:
    frame = client_frame(design, bytes(size))

    class Source:
        def __init__(self):
            self._free = 0

        def step(self, cycle):
            if cycle >= self._free:
                design.inject(frame, cycle)
                self._free = cycle + max(1, len(frame) // 64)

        commit = no_commit

    design.sim.add(Source())
    design.sim.run(_cycles_for(size))
    return design.goodput_gbps()


def run_fig7():
    rows = []
    for size in SIZES:
        bee_gbps, bee_kreqs = beehive_goodput(size)
        calm = CalmUdpEcho(udp_port=7)
        calm.add_client(CLIENT_IP, CLIENT_MAC)
        calm_gbps = saturate_echo(calm, size)
        pipe = PipelinedUdpEchoDesign(udp_port=7)
        pipe.add_client(CLIENT_IP, CLIENT_MAC)
        pipe_gbps = saturate_echo(pipe, size)
        demi_gbps = demikernel_udp_goodput_gbps(size)
        rows.append((size, bee_gbps, bee_kreqs, calm_gbps, pipe_gbps,
                     demi_gbps))
    return rows


def bench_fig7_udp_goodput(benchmark, report):
    rows = benchmark.pedantic(run_fig7, rounds=1, iterations=1)

    report.row("goodput (Gbps) at saturation, simulation mode "
               "(128 Gbps NoC ceiling, no 100G line cap):")
    report.table(
        ["payload B", "Beehive", "CALM", "Pipelined", "Demikernel"],
        [[size, bee, calm, pipe, demi]
         for size, bee, _, calm, pipe, demi in rows],
    )

    by_size = {row[0]: row for row in rows}
    size, bee, bee_kreqs, calm, pipe, demi = by_size[64]
    speedup = bee_kreqs / demikernel_udp_kreqs(64)
    report.row()
    report.row(f"64 B: Beehive {bee:.1f} Gbps / {bee_kreqs:.0f} KReq/s "
               f"vs Demikernel {demi:.1f} Gbps — {speedup:.0f}x "
               "(paper: 9 Gbps / 18392 KReq/s vs 0.3 Gbps, 31x)")
    report.row(f"9000 B: Beehive {by_size[9000][1]:.1f} Gbps "
               f"(paper: scales toward the {params.NOC_PEAK_GBPS:.0f} "
               "Gbps theoretical max)")

    # Shape assertions.
    assert speedup > 20                      # ~31x at 64 B
    assert abs(bee - calm) / bee < 0.25      # Beehive ~ CALM
    assert pipe > bee                        # pipelined slightly ahead
    assert (pipe - bee) / bee < 0.5          # ... but only slightly
    assert by_size[1024][1] > 100            # line rate from 1024 B
    assert by_size[9000][1] > 115            # approaches 128 in sim
    assert all(row[5] < 15 for row in rows)  # CPU far below line rate
