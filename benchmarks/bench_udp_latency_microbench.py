"""Section VII-C latency microbenchmark: one 1-byte UDP echo.

The paper timestamps the packet at the Ethernet parsing layer on entry
and at the Ethernet layer on transmit: 368 ns (92 cycles) through
Beehive, 362 ns through CALM — within a few percent of each other
despite Beehive's per-layer tiles, because NoC hops are cheap.
"""

from repro.baselines import CalmUdpEcho
from repro.designs import (
    CLIENT_IP,
    CLIENT_MAC,
    FrameSink,
    UdpEchoDesign,
    client_frame,
)


def beehive_latency_cycles() -> int:
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    design.inject(client_frame(design, b"x"), 0)
    design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)
    return design.eth_tx.last_transit_cycles


def calm_latency_cycles() -> int:
    design = CalmUdpEcho(udp_port=7)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    design.inject(client_frame(design, b"x"), 0)
    design.sim.run_until(lambda: design.frames_echoed >= 1,
                         max_cycles=2000)
    return design.last_transit_cycles


def run_latency():
    return beehive_latency_cycles(), calm_latency_cycles()


def bench_udp_latency_microbench(benchmark, report):
    beehive, calm = benchmark.pedantic(run_latency, rounds=1,
                                       iterations=1)
    report.table(
        ["system", "cycles", "ns", "paper ns"],
        [["Beehive", beehive, beehive * 4, 368],
         ["CALM", calm, calm * 4, 362]],
    )
    assert abs(beehive - 92) <= 3
    assert abs(calm * 4 - 362) <= 30
    # The paper's point: similar latency, far more flexibility.
    assert abs(beehive - calm) <= 8
