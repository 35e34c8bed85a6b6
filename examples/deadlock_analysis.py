#!/usr/bin/env python3
"""Compile-time deadlock analysis + runtime confirmation (Fig 5).

Runs the design linter (``repro.analysis``) over the paper's Fig 5
tile placements, then *actually deadlocks* the cycle simulator on the
bad one (and streams a packet cleanly through the good one).  Finally
builds a design from XML and shows the generator rejecting a deadlocky
layout at compile time.

Run:  python examples/deadlock_analysis.py
"""

from repro.analysis import analyze
from repro.analysis.deadlock import DeadlockError
from repro.analysis.demo import Fig5Design
from repro.config import GeneratedDesign, design_from_xml
from repro.config.examples import UDP_ECHO_XML
from repro.noc import NocMessage


def static_analysis():
    for variant in ("a", "b"):
        design = Fig5Design(variant)
        report = analyze(design, name=f"fig5{variant}")
        layout = ", ".join(f"{name}@{coord}"
                           for name, coord in design.tile_coords.items())
        cycles = report.by_code("BHV201")
        if not cycles:
            print(f"Fig 5{variant} [{layout}]: deadlock-free")
        for finding in cycles:
            print(f"Fig 5{variant} [{layout}]: {finding.render()}")


def runtime_confirmation():
    print("\nruntime (8 KB packet through streaming relay tiles):")
    for variant in ("a", "b"):
        design = Fig5Design(variant)
        tiles, coords = design.tiles, design.tile_coords
        design.ingress.send(NocMessage(dst=coords["ip"],
                                       src=coords["eth"],
                                       data=bytes(8192)))
        try:
            design.sim.run_until(
                lambda: tiles["app"].messages_through >= 1,
                max_cycles=5000)
            print(f"  Fig 5{variant}: delivered in "
                  f"{design.sim.cycle} cycles")
        except TimeoutError:
            print(f"  Fig 5{variant}: WEDGED — app received "
                  f"{tiles['app'].flits_through} flits, NoC deadlocked")


def compile_time_rejection():
    print("\nXML tooling rejects a deadlocky placement at build time:")
    spec = design_from_xml(UDP_ECHO_XML)
    spec.tile("ip_rx").x, spec.tile("udp_rx").x = 2, 1  # Fig 5a swap
    try:
        GeneratedDesign(spec)
    except DeadlockError as error:
        print(f"  DeadlockError: {error}")


def main():
    static_analysis()
    runtime_confirmation()
    compile_time_rejection()


if __name__ == "__main__":
    main()
