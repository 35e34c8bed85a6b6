"""The network-on-chip substrate.

A flit-accurate functional model of the NoC Beehive builds on (OpenPiton's
2D mesh, widened to 512 bits): wormhole switching, dimension-ordered (XY)
routing, per-input-port FIFOs with backpressure, one flit per link per
cycle.  At the paper's 250 MHz / 64 B flits this gives the 128 Gbps
theoretical peak the evaluation cites.
"""

from repro.noc.flit import Flit, FlitKind
from repro.noc.message import MessageAssembler, NocMessage
from repro.noc.routing import Port, xy_route, xy_route_path
from repro.noc.router import Router
from repro.noc.mesh import LocalPort, Mesh
from repro.noc.flatmesh import FlatMesh

__all__ = [
    "FlatMesh",
    "Flit",
    "FlitKind",
    "LocalPort",
    "Mesh",
    "MessageAssembler",
    "NocMessage",
    "Port",
    "Router",
    "xy_route",
    "xy_route_path",
]
