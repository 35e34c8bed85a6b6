"""Ethernet tiles: the boundary between the transceivers and the NoC.

The RX tile parses and strips the Ethernet (optionally 802.1Q) header,
turning a wire frame into a NoC message routed by ethertype.  The TX
tile prepends a fresh Ethernet header — destination MAC resolved from a
static neighbour table, as in a datacenter stack with ARP suppression —
and hands the frame to the MAC at line rate.
"""

from __future__ import annotations

import math
from collections import deque

from repro import params
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage, next_packet_id
from repro.packet.ethernet import ETHERTYPE_IPV4, EthernetHeader, MacAddress
from repro.packet.ipv4 import IPv4Address
from repro.tiles.base import DestDomain, NextHopTable, PacketMeta, Tile


class EthernetRxTile(Tile):
    """Parses Ethernet framing and routes by ethertype.

    Frames enter through :meth:`push_frame` (the MAC-facing I/O port the
    paper notes Ethernet tiles keep in addition to their NoC ports).
    """

    KIND = "eth_rx"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 my_mac: MacAddress | None = None, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.my_mac = my_mac
        self.next_hop = NextHopTable(name=f"{name}.nexthop")
        self.bad_frames = 0

    def push_frame(self, frame: bytes, cycle: int) -> None:
        """Deliver one wire frame from the MAC (fully arrived at
        ``cycle``)."""
        pseudo = NocMessage(dst=self.coord, src=self.coord, metadata=None,
                            data=frame, n_meta_flits=0,
                            packet_id=next_packet_id())
        self._rx_ready.append((cycle, pseudo))
        self._wake()

    def handle_message(self, message: NocMessage, cycle: int):
        frame = message.data
        try:
            eth, rest = EthernetHeader.unpack(frame)
        except ValueError:
            self.bad_frames += 1
            return self.drop(message, "malformed ethernet")
        if self.my_mac is not None and eth.dst != self.my_mac and \
                eth.dst != MacAddress.broadcast():
            return self.drop(message, "not for us")
        dest = self.next_hop.lookup(eth.ethertype)
        if dest is None:
            return self.drop(message, "no handler for ethertype")
        meta = PacketMeta(eth=eth, ingress_cycle=cycle)
        return [self.make_message(dest, metadata=meta, data=rest)]


class EthernetTxTile(Tile):
    """Prepends Ethernet framing and transmits at line rate.

    Completed frames land in :attr:`frames_out` as ``(frame, cycle)``
    pairs — the MAC-facing output.  ``line_rate_bytes_per_cycle`` models
    the physical link: 50 B/cycle is 100 GbE at 250 MHz; ``None`` leaves
    the NoC's 64 B/cycle as the only limit (the paper's "in simulation"
    configuration that scales to 128 Gbps).
    """

    KIND = "eth_tx"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 my_mac: MacAddress,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.my_mac = MacAddress(my_mac)
        self.line_rate = line_rate_bytes_per_cycle
        # An *inner* Ethernet TX tile (e.g. inside a VXLAN overlay)
        # hands its frames to the encapsulation tile over the NoC
        # instead of a MAC.
        self.emit_to_noc: tuple[int, int] | None = None
        # Next-hop IP -> the packed Ethernet header to its MAC.
        self.neighbor_headers: dict[IPv4Address, bytes] = {}
        self.frames_out: deque[tuple[bytes, int]] = deque()
        # MAC-side consumers (FrameSink and friends) register a wake
        # callback here so a newly queued frame re-activates them.
        self.frame_listeners: list = []
        self.frame_bytes_out = 0
        self._line_free = 0

    def add_neighbor(self, ip: IPv4Address, mac: MacAddress) -> None:
        self.neighbor_headers[IPv4Address(ip)] = EthernetHeader(
            dst=MacAddress(mac), src=self.my_mac,
            ethertype=ETHERTYPE_IPV4).pack()

    def connect(self, key, targets, policy) -> None:
        """A destination makes this an inner TX tile: frames go to the
        encapsulation tile there instead of a MAC."""
        (self.emit_to_noc,) = targets

    def dest_domain(self) -> DestDomain | None:
        """A MAC-facing TX tile addresses nothing on the NoC; an inner
        (overlay) TX tile addresses exactly its encapsulation tile."""
        if self.emit_to_noc is None:
            return None
        return DestDomain.of((self.emit_to_noc,))

    def handle_message(self, message: NocMessage, cycle: int):
        meta: PacketMeta = message.metadata
        if meta is None or meta.ip is None:
            return self.drop(message, "no IP metadata for framing")
        eth = self.neighbor_headers.get(meta.ip.dst)
        if eth is None:
            return self.drop(message, f"no MAC for {meta.ip.dst}")
        frame = eth + message.data
        if self.emit_to_noc is not None:
            self.frame_bytes_out += len(frame)
            out = NocMessage(dst=self.emit_to_noc, src=self.coord,
                             metadata=meta.clone(), data=frame,
                             n_meta_flits=1)
            return [out]
        emit_cycle = cycle
        if self.line_rate is not None:
            wire_bytes = len(frame) + params.ETHERNET_OVERHEAD_BYTES
            serialize = math.ceil(wire_bytes / self.line_rate)
            emit_cycle = max(cycle, self._line_free)
            self._line_free = emit_cycle + serialize
        self.frames_out.append((frame, emit_cycle))
        self.frame_bytes_out += len(frame)
        for listener in self.frame_listeners:
            listener()
        if meta.ingress_cycle is not None:
            self.last_transit_cycles = emit_cycle - meta.ingress_cycle
        return []

    last_transit_cycles: int | None = None
