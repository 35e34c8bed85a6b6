#!/usr/bin/env python3
"""Quickstart: build the Beehive UDP echo design, push a packet
through it, and measure the stack's latency and small-packet goodput.

This is the paper's Fig 8a configuration: seven tiles (Ethernet, IPv4,
and UDP with separate receive/transmit tiles, plus the echo
application) on a 4x2 mesh, processing real Ethernet/IPv4/UDP bytes.

Run:  python examples/quickstart.py
"""

from repro import params
from repro.designs import (
    UdpEchoDesign,
    attach_client,
    saturation_goodput,
)
from repro.packet import parse_frame


def one_packet():
    """Echo a single datagram and report the per-packet latency."""
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    _source, sink = attach_client(design, b"hello, beehive", count=1)
    design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)

    reply = parse_frame(sink.frames[0][0])
    cycles = design.eth_tx.last_transit_cycles
    print(f"echoed {reply.payload!r} back to "
          f"{reply.ip.dst}:{reply.udp.dst_port}")
    print(f"stack transit: {cycles} cycles = {cycles * 4} ns "
          f"(paper: 92 cycles / 368 ns)")


def saturating_goodput(payload_bytes: int = 64,
                       cycles: int = 20_000) -> float:
    """Drive the stack at full rate and measure echo goodput."""
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    return saturation_goodput(design, bytes(payload_bytes), cycles,
                              warmup_frames=50).gbps


def main():
    one_packet()
    print()
    print(f"{'payload':>8}  {'goodput':>10}   (NoC peak "
          f"{params.NOC_PEAK_GBPS:.0f} Gbps)")
    for payload in (64, 256, 1024, 4096):
        gbps = saturating_goodput(payload)
        print(f"{payload:>7}B  {gbps:>7.1f} Gbps")


if __name__ == "__main__":
    main()
