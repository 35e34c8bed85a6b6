"""Table III: Reed-Solomon encoding — goodput and energy, 1-4 instances.

The Beehive accelerator (measured in the cycle simulator, with parity
verified against the reference codec) versus the CPU BackBlaze-style
baseline.  Paper: 15 -> 62 Gbps for 1 -> 4 tiles vs 2 -> 8 Gbps on
CPU (7.5-7.8x), at 16-22x better energy per operation.
"""

import os

import pytest

from repro import params
from repro.apps.reed_solomon import ReedSolomonCodec
from repro.apps.reed_solomon.cpu import CpuReedSolomonBaseline
from repro.designs import RsDesign, attach_client
from repro.energy.model import FpgaEnergyModel, TileActivity
from repro.packet import parse_frame

PAPER = {
    # apps: (cpu mJ/op, fpga mJ/op, cpu Gbps, fpga Gbps)
    1: (1.1, 0.05, 2.0, 15.0),
    2: (0.59, 0.03, 4.0, 31.0),
    3: (0.41, 0.02, 6.0, 45.0),
    4: (0.32, 0.02, 8.0, 62.0),
}


def fpga_point(instances: int, cycles: int = 60_000):
    design = RsDesign(instances=instances,
                      line_rate_bytes_per_cycle=None)
    request = os.urandom(4096)
    _source, sink = attach_client(design, request, rate=None)
    design.sim.run(cycles)

    # Functional check: the accelerator's parity is the codec's parity.
    reply = parse_frame(sink.frames[0][0])
    assert reply.payload == ReedSolomonCodec(8, 2).encode_request(
        request)

    elapsed = design.sim.cycle * params.CYCLE_TIME_S
    gbps = design.total_requests * 4096 * 8 / elapsed / 1e9
    ops = design.total_requests / elapsed
    stack_util = min(1.0, gbps / 100.0)
    tiles = [TileActivity(f"stack{i}", stack_util) for i in range(7)]
    tiles += [TileActivity(f"rs{i}", 1.0) for i in range(instances)]
    energy = FpgaEnergyModel().mj_per_op(tiles, ops)
    return gbps, energy


def run_table3():
    baseline = CpuReedSolomonBaseline()
    rows = []
    for instances in (1, 2, 3, 4):
        cpu = baseline.measure(instances)
        fpga_gbps, fpga_energy = fpga_point(instances)
        rows.append((instances, cpu.energy_mj_per_op, fpga_energy,
                     cpu.goodput_gbps, fpga_gbps))
    return rows


def bench_table3_reed_solomon(benchmark, report):
    rows = benchmark.pedantic(run_table3, rounds=1, iterations=1)

    table_rows = []
    for instances, cpu_energy, fpga_energy, cpu_gbps, fpga_gbps in rows:
        p_cpu_e, p_fpga_e, p_cpu_g, p_fpga_g = PAPER[instances]
        table_rows.append([
            instances,
            f"{cpu_energy:.2f} ({p_cpu_e})",
            f"{fpga_energy:.3f} ({p_fpga_e})",
            f"{cpu_energy / fpga_energy:.0f}x (paper "
            f"{p_cpu_e / p_fpga_e:.0f}x)",
            f"{cpu_gbps:.0f} ({p_cpu_g:.0f})",
            f"{fpga_gbps:.0f} ({p_fpga_g:.0f})",
            f"{fpga_gbps / cpu_gbps:.1f}x (paper "
            f"{p_fpga_g / p_cpu_g:.1f}x)",
        ])
    report.row("measured (paper) per column:")
    report.table(
        ["apps", "CPU mJ/op", "FPGA mJ/op", "efficiency",
         "CPU Gbps", "FPGA Gbps", "speedup"],
        table_rows,
    )

    for instances, cpu_energy, fpga_energy, cpu_gbps, fpga_gbps in rows:
        assert fpga_gbps == pytest.approx(15.0 * instances, rel=0.08)
        assert fpga_gbps / cpu_gbps == pytest.approx(7.5, rel=0.1)
        efficiency = cpu_energy / fpga_energy
        assert 14 <= efficiency <= 26  # paper: 16-22x
