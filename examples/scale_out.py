#!/usr/bin/env python3
"""Scale-out and manageability (paper sections IV-G, VII-I).

Builds the largest configuration the paper placed on the U200 — a UDP
stack plus 22 replicated echo application tiles, 28 tiles total —
drives it with dozens of client flows, and prints the operator's view:
the per-tile telemetry counters the control plane exposes, plus the
timing model's account of *why* 28 tiles is the ceiling.

Run:  python examples/scale_out.py
"""

import itertools

from repro import params
from repro.designs import CLIENT_MAC, FrameSink, ScaledEchoDesign
from repro.packet import IPv4Address, build_ipv4_udp_frame
from repro.resources import max_frequency_mhz
from repro.sim.kernel import no_commit
from repro.telemetry import design_counters, design_report


def main():
    design = ScaledEchoDesign(n_apps=22)
    print(f"built {design.total_tiles}-tile design "
          f"({design.n_apps} echo app tiles + 6-tile UDP stack) on a "
          f"{design.mesh.width}x{design.mesh.height} mesh")
    print(f"all {len(design.chains)} message chains verified "
          "deadlock-free at build time")
    print(f"timing model: fmax({design.total_tiles} tiles) = "
          f"{max_frequency_mhz(design.total_tiles):.1f} MHz; "
          f"fmax({design.total_tiles + 1}) = "
          f"{max_frequency_mhz(design.total_tiles + 1):.1f} MHz — "
          "28 is the paper's placement wall")

    # Drive it with 120 client flows at wire rate.
    ips = [IPv4Address(f"10.0.2.{i}") for i in range(1, 121)]
    for ip in ips:
        design.add_client(ip, CLIENT_MAC)
    frames = [
        build_ipv4_udp_frame(CLIENT_MAC, design.server_mac, ip,
                             design.server_ip, 5000 + j, 7, bytes(64))
        for j, ip in enumerate(ips)
    ]
    cycler = itertools.cycle(frames)

    class Source:
        def __init__(self):
            self._free = 0

        def step(self, cycle):
            if cycle >= self._free:
                design.inject(next(cycler), cycle)
                self._free = cycle + 2

        commit = no_commit

    sink = FrameSink(design.eth_tx, keep_frames=False)
    design.sim.add(Source())
    design.sim.add(sink)
    design.sim.run(20_000)

    elapsed = design.sim.cycle * params.CYCLE_TIME_S
    print(f"\nechoed {sink.count} requests in "
          f"{design.sim.cycle} cycles "
          f"({sink.count / elapsed / 1e6:.1f} MReq/s)")
    served = sorted((app.requests for app in design.apps),
                    reverse=True)
    print(f"per-app flow-hash spread (requests): {served}")

    print("\noperator telemetry (the counters the control plane "
          "exports):")
    print(design_report(design))
    busiest = max(design_counters(design)["router_flits"].items(),
                  key=lambda item: item[1])
    print(f"\nhot spot: router {busiest[0]} forwarded "
          f"{busiest[1]} flits — the udp_rx fan-out point, as the "
          "mesh layout predicts")


if __name__ == "__main__":
    main()
