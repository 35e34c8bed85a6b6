"""repro — a Python reproduction of Beehive (MICRO 2024).

Beehive is an FPGA network stack for direct-attached accelerators,
built as protocol/application tiles message-passing over a 2D-mesh
NoC.  This package reproduces the system and its evaluation in
simulation: a flit-accurate NoC and tile model, byte-accurate
protocols (Ethernet/IPv4/UDP/TCP), network functions (NAT, IP-in-IP),
a control plane, compile-time deadlock analysis, design-XML tooling,
the two case-study accelerators (Reed-Solomon, VR witness), every
baseline the paper compares against, and one benchmark per table and
figure.  See DESIGN.md for the substitution map (what the paper ran on
hardware vs. what this package models) and EXPERIMENTS.md for
paper-vs-measured results.

Quick start::

    from repro.designs import UdpEchoDesign, attach_client

    design = UdpEchoDesign(udp_port=7)
    source, sink = attach_client(design, b"hello", count=1)
    design.sim.run_until(lambda: sink.count >= 1)
"""

__version__ = "1.0.0"

from repro import params

__all__ = ["params", "__version__"]
