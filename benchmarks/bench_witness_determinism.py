"""Witness reply-latency distributions: hardware vs CPU.

The VR case study rests on one property (section VI-B): "the witness
can be designed in hardware to reply with low and reliable latency."
This benchmark measures the cycle-level witness tile's reply latency
over a loaded run — its p99 equals its median to within NoC
arbitration jitter — against the calibrated CPU witness model, whose
scheduling tail is what Fig 11/Table IV ultimately charge for.
"""

import pytest

from repro import params
from repro.apps.vr.tile import MSG_PREPARE, PrepareWire
from repro.designs import FrameSink, VrWitnessDesign
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro.sim.kernel import no_commit
from repro.sim.rng import SeededStreams

LEADER_IP = IPv4Address("10.0.0.2")
LEADER_MAC = MacAddress("02:00:00:00:00:02")

N_PREPARES = 400


def hardware_latencies() -> list[float]:
    """Per-prepare transit (us) through the witness design under a
    steady request stream."""
    design = VrWitnessDesign(shards=1, line_rate_bytes_per_cycle=None)
    design.add_client(LEADER_IP, LEADER_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    latencies = []
    opnum = 0

    class Source:
        def __init__(self):
            self._free = 0

        def step(self, cycle):
            nonlocal opnum
            if cycle >= self._free and opnum < N_PREPARES:
                opnum += 1
                wire = PrepareWire(msg_type=MSG_PREPARE, view=0,
                                   opnum=opnum, shard=0,
                                   digest=b"deadbeef")
                frame = build_ipv4_udp_frame(
                    LEADER_MAC, design.server_mac, LEADER_IP,
                    design.server_ip, 7777, design.shard_port(0),
                    wire.pack(),
                )
                design.inject(frame, cycle)
                self._free = cycle + 25  # ~10 Mprepare/s offered

        commit = no_commit

    design.sim.add(Source())
    previous = 0
    while sink.count < N_PREPARES and design.sim.cycle < 200_000:
        design.sim.tick()
        if sink.count > previous:
            previous = sink.count
            latencies.append(design.eth_tx.last_transit_cycles
                             * params.CYCLE_TIME_S * 1e6)
    return latencies


def cpu_latencies() -> list[float]:
    """Samples from the calibrated CPU witness service model."""
    rng = SeededStreams(7).stream("witness-model")
    samples = []
    for _ in range(N_PREPARES):
        cost = params.VR_CPU_WITNESS_SERVICE_S + rng.expovariate(
            1.0 / params.VR_CPU_WITNESS_JITTER_S)
        if rng.random() < params.VR_CPU_WITNESS_TAIL_PROB:
            cost += rng.expovariate(1.0 / params.VR_CPU_WITNESS_TAIL_S)
        samples.append(cost * 1e6)
    return samples


def run_determinism():
    return sorted(hardware_latencies()), sorted(cpu_latencies())


def bench_witness_determinism(benchmark, report):
    hardware, cpu = benchmark.pedantic(run_determinism, rounds=1,
                                       iterations=1)

    def stats(samples):
        n = len(samples)
        return (samples[n // 2], samples[int(n * 0.99)], samples[-1])

    hw_p50, hw_p99, hw_max = stats(hardware)
    cpu_p50, cpu_p99, cpu_max = stats(cpu)
    report.table(
        ["witness", "p50 us", "p99 us", "max us", "p99/p50"],
        [["Beehive tile (measured)", hw_p50, hw_p99, hw_max,
          f"{hw_p99 / hw_p50:.2f}"],
         ["CPU model (calibrated)", cpu_p50, cpu_p99, cpu_max,
          f"{cpu_p99 / cpu_p50:.2f}"]],
    )
    report.row()
    report.row("the hardware witness's p99 equals its median (NoC "
               "arbitration is the only variance); the CPU witness "
               "pays jitter always and a scheduler tail sometimes — "
               "the 'low and reliable latency' claim of section VI-B")

    assert len(hardware) == N_PREPARES
    assert hw_p99 / hw_p50 < 1.1     # deterministic
    assert cpu_p99 / cpu_p50 > 1.4   # jittery
    assert hw_p50 < 1.0              # sub-microsecond
    assert cpu_p50 > 5 * hw_p50