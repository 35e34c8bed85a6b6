"""The Reed-Solomon accelerator design (paper section VI-A).

A UDP stack feeding a round-robin front-end scheduler that parcels
4 KB encode requests across 1-4 stateless RS encoder tiles:

    eth_rx  ip_rx  udp_rx  sched   rs0    rs1
    eth_tx  ip_tx  udp_tx  rs2     rs3    empty

The scheduler exists because the encoder is stateless — any request
can go to any copy — unlike the VR witness, which is distributed by
destination port instead.
"""

from __future__ import annotations

from repro import params
from repro.config.schema import DesignSpec
from repro.designs.stack import (
    ShippedDesign,
    design_spec,
    path,
    stack_tiles,
    tile,
)

_RS_COORDS = [(4, 0), (5, 0), (3, 1), (4, 1)]


class RsDesign(ShippedDesign):
    """Beehive hosting 1-4 Reed-Solomon encoder instances."""

    @staticmethod
    def spec(instances: int = 4, udp_port: int = 7000,
             line_rate_bytes_per_cycle: float | None = 50.0,
             rs_gbps: float = params.RS_TILE_GBPS) -> DesignSpec:
        if not 1 <= instances <= 4:
            raise ValueError("this layout hosts 1-4 RS instances")
        rx, tx = stack_tiles({f"port:{udp_port}": ["sched"]},
                             line_rate_bytes_per_cycle)
        encoders = [
            tile(f"rs{i}", "rs_encoder", _RS_COORDS[i],
                 {"default": ["udp_tx"]},
                 data_shards=params.RS_DATA_SHARDS,
                 parity_shards=params.RS_PARITY_SHARDS, gbps=rs_gbps)
            for i in range(instances)]
        sched = tile("sched", "rr_scheduler", (3, 0),
                     {"default": [rs.name for rs in encoders]})
        return design_spec(
            "rs_accelerator", 6, 2,
            [*path(*rx), sched, *encoders, *path(*tx)],
            [[*rx, sched, rs, *tx] for rs in encoders])

    @property
    def rs_tiles(self) -> list:
        return self.tiles_named("rs")

    @property
    def total_requests(self) -> int:
        return sum(tile.requests for tile in self.rs_tiles)
