"""Prebuilt Beehive designs used by the evaluation.

Each design couples a mesh, a set of tiles, the packet-level next-hop
tables, and the declared message chains that the static deadlock
analyzer checks at construction time.

A name is imported from its submodule when first asked for
(:mod:`repro._exports`): a UDP echo loads neither TCP nor numpy.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.designs.harness import (
        CLIENT_IP,
        CLIENT_MAC,
        FrameSink,
        FrameSource,
        attach_client,
        client_frame,
        saturation_goodput,
    )
    from repro.designs.managed_stack import ManagedNatEchoDesign
    from repro.designs.multi_stack import MultiStackDesign
    from repro.designs.rs_design import RsDesign
    from repro.designs.scaled_echo import ScaledEchoDesign
    from repro.designs.tcp_stack import TcpServerDesign
    from repro.designs.udp_stack import LoggedUdpEchoDesign, UdpEchoDesign
    from repro.designs.virt_stack import IpInIpEchoDesign, NatEchoDesign
    from repro.designs.vr_design import VrWitnessDesign
    from repro.designs.vxlan_stack import VxlanEchoDesign

#: exported name -> the submodule that defines it.
_EXPORTS = {
    "CLIENT_IP": "harness",
    "CLIENT_MAC": "harness",
    "FrameSink": "harness",
    "FrameSource": "harness",
    "attach_client": "harness",
    "client_frame": "harness",
    "saturation_goodput": "harness",
    "ManagedNatEchoDesign": "managed_stack",
    "MultiStackDesign": "multi_stack",
    "RsDesign": "rs_design",
    "ScaledEchoDesign": "scaled_echo",
    "TcpServerDesign": "tcp_stack",
    "LoggedUdpEchoDesign": "udp_stack",
    "UdpEchoDesign": "udp_stack",
    "IpInIpEchoDesign": "virt_stack",
    "NatEchoDesign": "virt_stack",
    "VrWitnessDesign": "vr_design",
    "VxlanEchoDesign": "vxlan_stack",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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
