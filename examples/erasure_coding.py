#!/usr/bin/env python3
"""Erasure-coding acceleration (paper section VI-A / Table III).

Builds Beehive with 1-4 Reed-Solomon encoder tiles behind the
round-robin scheduler, streams 4 KB encode requests at it, verifies
the returned parity against the reference codec (and demonstrates a
two-disk-failure recovery), then prints the Table III goodput/energy
comparison against the CPU baseline.

Run:  python examples/erasure_coding.py
"""

import os

from repro import params
from repro.apps.reed_solomon import ReedSolomonCodec
from repro.apps.reed_solomon.cpu import CpuReedSolomonBaseline
from repro.designs import RsDesign, attach_client
from repro.energy.model import FpgaEnergyModel, TileActivity
from repro.packet import parse_frame


def demonstrate_recovery():
    """Encode a block, lose two shards, rebuild the data."""
    codec = ReedSolomonCodec(8, 2)
    data = os.urandom(4096)
    stripe = len(data) // 8
    blocks = [data[i * stripe:(i + 1) * stripe] for i in range(8)]
    parity = codec.encode(blocks)
    shards = {i: b for i, b in enumerate(blocks + parity)}
    del shards[2], shards[6]  # two disks die
    rebuilt = codec.reconstruct(shards, stripe)
    assert b"".join(rebuilt) == data
    print("(8,2) code: lost shards 2 and 6, reconstructed 4 KB "
          "block byte-for-byte")


def accelerator_goodput(instances: int, cycles: int = 60_000):
    """Measured consume-rate of N encoder tiles, plus verification."""
    design = RsDesign(instances=instances,
                      line_rate_bytes_per_cycle=None)
    request = os.urandom(4096)
    _source, sink = attach_client(design, request, rate=None)
    design.sim.run(cycles)

    reply = parse_frame(sink.frames[0][0])
    expected = ReedSolomonCodec(8, 2).encode_request(request)
    assert reply.payload == expected, "accelerator parity mismatch"

    consumed_bits = design.total_requests * 4096 * 8
    gbps = consumed_bits / (design.sim.cycle
                            * params.CYCLE_TIME_S) / 1e9
    ops = design.total_requests / (design.sim.cycle
                                   * params.CYCLE_TIME_S)
    # FPGA power: stack + scheduler (partially busy) + encoder tiles.
    stack_util = min(1.0, gbps / 100.0)
    tiles = [TileActivity(f"stack{i}", stack_util) for i in range(7)]
    tiles += [TileActivity(f"rs{i}", 1.0) for i in range(instances)]
    energy = FpgaEnergyModel().mj_per_op(tiles, ops)
    return gbps, energy


def main():
    demonstrate_recovery()
    print()
    baseline = CpuReedSolomonBaseline()
    header = (f"{'apps':>4} | {'CPU Gbps':>8} {'FPGA Gbps':>9} "
              f"{'speedup':>7} | {'CPU mJ/op':>9} {'FPGA mJ/op':>10} "
              f"{'efficiency':>10}")
    print(header)
    print("-" * len(header))
    for instances in (1, 2, 3, 4):
        cpu = baseline.measure(instances)
        fpga_gbps, fpga_energy = accelerator_goodput(instances)
        print(f"{instances:>4} | {cpu.goodput_gbps:>8.1f} "
              f"{fpga_gbps:>9.1f} "
              f"{fpga_gbps / cpu.goodput_gbps:>6.1f}x | "
              f"{cpu.energy_mj_per_op:>9.2f} {fpga_energy:>10.3f} "
              f"{cpu.energy_mj_per_op / fpga_energy:>9.1f}x")
    print("\npaper (Table III): speedup 7.5-7.8x, efficiency 16-22x")


if __name__ == "__main__":
    main()
