"""The Reed-Solomon accelerator tile.

A UDP application: a 4 KB request arrives, the tile computes the (8,2)
parity and replies with 1 KB of erasure data.  The engine consumes data
at the measured 15 Gbps per instance (7.5 B/cycle at 250 MHz), so a
request occupies it ~546 cycles; four instances behind the round-robin
scheduler tile scale to 62 Gbps (Table III).  Each tile logs per-request
metadata (cycle, bytes) for bandwidth accounting, as the paper notes.
"""

from __future__ import annotations

import math

from repro import params
from repro.apps.reed_solomon.codec import ReedSolomonCodec
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.packet.ipv4 import IPPROTO_UDP, IPv4Header
from repro.packet.udp import UdpHeader
from repro.tiles.base import NextHopTable, PacketMeta, Tile


class RsEncoderTile(Tile):
    """One hardware Reed-Solomon encoder instance."""

    KIND = "rs_encoder"

    DEFAULT = "default"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 data_shards: int = params.RS_DATA_SHARDS,
                 parity_shards: int = params.RS_PARITY_SHARDS,
                 gbps: float = params.RS_TILE_GBPS,
                 **kwargs):
        bytes_per_cycle = gbps * 1e9 / 8 / params.CLOCK_HZ
        kwargs.setdefault(
            "occupancy",
            math.ceil(params.RS_REQUEST_BYTES / bytes_per_cycle),
        )
        super().__init__(name, mesh, coord, **kwargs)
        self.codec = ReedSolomonCodec(data_shards, parity_shards)
        self.next_hop = NextHopTable(name=f"{name}.nexthop")
        self.requests = 0
        self.bad_requests = 0
        # Per-request metadata log: (completion cycle, request bytes).
        self.metadata_log: list[tuple[int, int]] = []

    def handle_message(self, message: NocMessage, cycle: int):
        meta: PacketMeta = message.metadata
        if meta is None or meta.ip is None or meta.udp is None:
            return self.drop(message, "not a UDP request")
        request = message.data
        if not request or len(request) % self.codec.data_shards:
            self.bad_requests += 1
            return self.drop(message, "misaligned RS request")
        parity = self.codec.encode_request(request)
        self.requests += 1
        self.metadata_log.append((cycle, len(request)))
        reply_meta = PacketMeta(
            ip=IPv4Header(src=meta.ip.dst, dst=meta.ip.src,
                          protocol=IPPROTO_UDP),
            udp=UdpHeader(src_port=meta.udp.dst_port,
                          dst_port=meta.udp.src_port),
            ingress_cycle=meta.ingress_cycle,
        )
        dest = self.next_hop.lookup(self.DEFAULT)
        if dest is None:
            return self.drop(message, "no transmit path")
        return [self.make_message(dest, metadata=reply_meta,
                                  data=parity)]

