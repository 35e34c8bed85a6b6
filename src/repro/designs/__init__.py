"""Prebuilt Beehive designs used by the evaluation.

Each design couples a mesh, a set of tiles, the packet-level next-hop
tables, and the declared message chains that the static deadlock
analyzer checks at construction time.
"""

from repro.designs.harness import (
    CLIENT_IP,
    CLIENT_MAC,
    FrameSink,
    FrameSource,
    attach_client,
    client_frame,
    saturation_goodput,
)
from repro.designs.udp_stack import LoggedUdpEchoDesign, UdpEchoDesign
from repro.designs.virt_stack import IpInIpEchoDesign, NatEchoDesign
from repro.designs.managed_stack import ManagedNatEchoDesign
from repro.designs.multi_stack import MultiStackDesign
from repro.designs.rs_design import RsDesign
from repro.designs.scaled_echo import ScaledEchoDesign
from repro.designs.tcp_stack import TcpServerDesign
from repro.designs.vr_design import VrWitnessDesign
from repro.designs.vxlan_stack import VxlanEchoDesign

__all__ = [
    "CLIENT_IP",
    "CLIENT_MAC",
    "FrameSink",
    "FrameSource",
    "IpInIpEchoDesign",
    "LoggedUdpEchoDesign",
    "ManagedNatEchoDesign",
    "MultiStackDesign",
    "NatEchoDesign",
    "RsDesign",
    "ScaledEchoDesign",
    "TcpServerDesign",
    "UdpEchoDesign",
    "VrWitnessDesign",
    "VxlanEchoDesign",
    "attach_client",
    "client_frame",
    "saturation_goodput",
]
