"""The consensus-witness design (paper Fig 6).

A UDP stack hosting one VR witness tile per shard.  The witness is
stateful, so requests for a shard must always reach the same tile:
distribution is by destination port (one port per shard) in the UDP RX
hash table — contrast with the stateless Reed-Solomon design's
round-robin scheduler.

With ``duplicate_udp=True`` the design also replicates the UDP RX and
TX *protocol* tiles — "we also duplicate protocol tiles to prevent
them from becoming a bottleneck" (section VII-F) — with the IP RX tile
spreading flows across the UDP RX replicas by flow hash.  This is the
differential-scaling feature the framework exists for: protocol
elements scale independently of application elements.
"""

from __future__ import annotations

from repro.config.schema import DesignSpec
from repro.designs.stack import (
    ShippedDesign,
    design_spec,
    dests,
    path,
    stack_tiles,
    tile,
)

VR_BASE_PORT = 9000


class VrWitnessDesign(ShippedDesign):
    """Beehive hosting witness tiles for 1-4 shards.

    ``duplicate_udp=True`` instantiates two UDP RX and two UDP TX
    tiles (7x2 mesh) with flow-hash distribution at the IP layer.
    """

    @staticmethod
    def spec(shards: int = 4,
             line_rate_bytes_per_cycle: float | None = 50.0,
             duplicate_udp: bool = False) -> DesignSpec:
        if not 1 <= shards <= 4:
            raise ValueError("this layout hosts 1-4 witness shards")
        copies = ("0", "1") if duplicate_udp else ("",)
        # One UDP port per shard: stateful tiles need sticky routing.
        ports = {f"port:{VR_BASE_PORT + s}": [f"witness{s}"]
                 for s in range(shards)}
        udp_rx = [tile(f"udp_rx{copy}", "udp_rx", (2 + i, 0), ports)
                  for i, copy in enumerate(copies)]
        udp_tx = [tile(f"udp_tx{copy}", "udp_tx", (2 + i, 1),
                       {"default": ["ip_tx"]})
                  for i, copy in enumerate(copies)]
        # Replicated UDP RX tiles: flows spread by hash at the IP
        # layer; witnesses spread replies across the UDP TX replicas.
        (eth_rx, ip_rx, _), (_, ip_tx, eth_tx) = stack_tiles(
            {}, line_rate_bytes_per_cycle)
        ip_rx.dests = dests({"proto:17": [spec.name for spec in udp_rx]})
        west = 2 + len(copies)
        witnesses = [
            tile(f"witness{s}", "vr_witness", coord,
                 {"default": [spec.name for spec in udp_tx]},
                 policy="round_robin", shard=s)
            for s, coord in zip(range(shards), (
                (west, 0), (west + 1, 0), (west + 2, 0), (west, 1)))]
        return design_spec(
            "vr_witness", west + 3, 2,
            [*path(eth_rx, ip_rx), *udp_rx, *witnesses, *udp_tx,
             *path(ip_tx, eth_tx)],
            [[eth_rx, ip_rx, rx, witness, tx, ip_tx, eth_tx]
             for witness in witnesses for rx in udp_rx for tx in udp_tx])

    @property
    def witnesses(self) -> list:
        return self.tiles_named("witness")

    @property
    def udp_rx_tiles(self) -> list:
        return self.tiles_named("udp_rx")

    @property
    def udp_tx_tiles(self) -> list:
        return self.tiles_named("udp_tx")

    def shard_port(self, shard: int) -> int:
        return VR_BASE_PORT + shard
