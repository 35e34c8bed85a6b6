"""Canonical XML design files.

The declarative form of three shipped designs, printed from the spec
the design class itself runs (``Cls.spec(...)``) when first asked for;
the config tests build them and run traffic through, and the Table VI
benchmark measures instantiation cost against them.
"""

import repro.designs
from repro.config.xmlio import design_to_xml

#: name -> (design class, the keywords the file is written for).
_EXAMPLES = {
    "UDP_ECHO_XML": ("UdpEchoDesign", {"udp_port": 7}),
    "RS_DESIGN_XML": ("RsDesign", {"instances": 4, "udp_port": 7000}),
    "VR_DESIGN_XML": ("VrWitnessDesign", {"shards": 4}),
}


def __getattr__(name: str) -> str:
    if name not in _EXAMPLES:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    cls, keywords = _EXAMPLES[name]
    text = design_to_xml(getattr(repro.designs, cls).spec(
        line_rate_bytes_per_cycle=None, **keywords))
    globals()[name] = text
    return text
