"""Tiles — the basic Beehive component (paper Fig. 3).

Each tile couples a NoC router with NoC-message construction and
deconstruction logic and a piece of processing logic (a protocol layer,
a network function, or an application).  Tiles also hold the per-hop
packet-level routing tables ("each tile hop determines the next tile",
section IV-D), which the control plane can rewrite at runtime.

A name is imported from its submodule when first asked for
(:mod:`repro._exports`): a design loads the tiles its spec names.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.tiles.base import DestDomain, NextHopTable, PacketMeta, Tile
    from repro.tiles.buffer import BufferReadReq, BufferTile, BufferWriteReq
    from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
    from repro.tiles.ip import IpRxTile, IpTxTile
    from repro.tiles.ipinip import IpInIpDecapTile, IpInIpEncapTile
    from repro.tiles.loadbalancer import FlowHashLoadBalancerTile
    from repro.tiles.logger import PacketLogTile
    from repro.tiles.nat import NatRxTile, NatTxTile
    from repro.tiles.scheduler import RoundRobinSchedulerTile
    from repro.tiles.udp import UdpRxTile, UdpTxTile
    from repro.tiles.vxlan import VxlanDecapTile, VxlanEncapTile

#: exported name -> the submodule that defines it.
_EXPORTS = {
    "BufferReadReq": "buffer",
    "BufferTile": "buffer",
    "BufferWriteReq": "buffer",
    "DestDomain": "base",
    "EthernetRxTile": "ethernet",
    "EthernetTxTile": "ethernet",
    "FlowHashLoadBalancerTile": "loadbalancer",
    "IpInIpDecapTile": "ipinip",
    "IpInIpEncapTile": "ipinip",
    "IpRxTile": "ip",
    "IpTxTile": "ip",
    "NatRxTile": "nat",
    "NatTxTile": "nat",
    "NextHopTable": "base",
    "PacketLogTile": "logger",
    "PacketMeta": "base",
    "RoundRobinSchedulerTile": "scheduler",
    "Tile": "base",
    "UdpRxTile": "udp",
    "UdpTxTile": "udp",
    "VxlanDecapTile": "vxlan",
    "VxlanEncapTile": "vxlan",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BufferReadReq",
    "BufferTile",
    "BufferWriteReq",
    "DestDomain",
    "EthernetRxTile",
    "EthernetTxTile",
    "FlowHashLoadBalancerTile",
    "IpInIpDecapTile",
    "IpInIpEncapTile",
    "IpRxTile",
    "IpTxTile",
    "NatRxTile",
    "NatTxTile",
    "NextHopTable",
    "PacketLogTile",
    "PacketMeta",
    "RoundRobinSchedulerTile",
    "Tile",
    "UdpRxTile",
    "UdpTxTile",
    "VxlanDecapTile",
    "VxlanEncapTile",
]
