"""Prebuilt Beehive designs used by the evaluation.

Each design is the spec it publishes (``Cls.spec(**keywords)``: tiles,
coordinates, next-hop entries and the message chains the static
deadlock analyzer checks at construction time), generated.
:data:`SHIPPED` names them for the tools; :func:`load_design` takes
one of those names or a design XML path.

A name is imported from its submodule when first asked for
(:mod:`repro._exports`): a UDP echo loads neither TCP nor numpy.
"""

import sys
from functools import partial
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

#: shipped design name -> (its class, the keywords that differ from
#: the class's defaults): the one table of what "a shipped design" is.
SHIPPED = {
    "udp_echo": ("UdpEchoDesign", {}),
    "logged_udp_echo": ("LoggedUdpEchoDesign", {}),
    "nat_echo": ("NatEchoDesign", {}),
    "ipinip_echo": ("IpInIpEchoDesign", {}),
    "managed_nat_echo": ("ManagedNatEchoDesign", {}),
    "multi_stack": ("MultiStackDesign", {}),
    "scaled_echo": ("ScaledEchoDesign", {}),
    "tcp_server": ("TcpServerDesign", {}),
    "tcp_server_logged": ("TcpServerDesign", {"with_logging": True}),
    "rs": ("RsDesign", {}),
    "vr_witness": ("VrWitnessDesign", {}),
    "vxlan_echo": ("VxlanEchoDesign", {}),
}


def load_design(target: str):
    """``(spec, factory)`` for a shipped design name or the path of a
    design XML file; ``factory(profile=..., fault_plan=...)`` builds
    it.  Raises ``OSError`` for a path that cannot be read and
    ``ValueError`` for a file that is not a design."""
    if target in SHIPPED:
        name, keywords = SHIPPED[target]
        cls = getattr(sys.modules[__name__], name)
        return cls.spec(**keywords), partial(cls, **keywords)
    from repro.config.generate import GeneratedDesign
    from repro.config.xmlio import design_from_xml
    with open(target) as handle:
        spec = design_from_xml(handle.read())
    return spec, partial(GeneratedDesign, spec)


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
    "SHIPPED",
    "ScaledEchoDesign",
    "TcpServerDesign",
    "UdpEchoDesign",
    "VrWitnessDesign",
    "VxlanEchoDesign",
    "attach_client",
    "client_frame",
    "load_design",
    "saturation_goodput",
]
