"""The multi-stack scalability design (paper Fig 12 / section VII-I).

A front-end load-balancer tile splits flows across N duplicated UDP
echo stacks on one mesh.  The load balancer itself tops out at 32 Gbps
for 64 B packets (4 cycles each: 3 NoC flits + 1 recovery), and two
stacks roughly double small-packet goodput versus one, converging to
the link maximum at large payloads — the Fig 12 curves.

Layout (5 x 2N mesh), rows r = 2k, 2k+1 per stack k:

    lb(0,0)  eth_rx_k(1,2k)  ip_rx_k(2,2k)  udp_rx_k(3,2k)  app_k(4,2k)
             eth_tx_k(1,2k+1) ip_tx_k(2,2k+1) udp_tx_k(3,2k+1)
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.config.schema import DesignSpec
from repro.designs.stack import (
    ShippedDesign,
    design_spec,
    path,
    stack_tiles,
    tile,
)


class MultiStackDesign(ShippedDesign):
    """N duplicated UDP stacks behind a flow-hash load balancer."""

    @staticmethod
    def spec(stacks: int = 2, udp_port: int = 7,
             line_rate_bytes_per_cycle: float | None = None) -> DesignSpec:
        if stacks < 1:
            raise ValueError("need at least one stack")
        lb = tile("lb", "load_balancer", (0, 0), {
            "default": [f"eth_rx_{k}" for k in range(stacks)]})
        tiles, chains = [lb], []
        for k in range(stacks):
            top, bottom = 2 * k, 2 * k + 1
            rx, tx = stack_tiles(
                {f"port:{udp_port}": [f"app_{k}"]},
                line_rate_bytes_per_cycle,
                rx=((1, top), (2, top), (3, top)),
                tx=((3, bottom), (2, bottom), (1, bottom)),
                name=f"{{}}_{k}".format)
            stack = path(*rx) \
                + path(tile(f"app_{k}", "echo_app", (4, top)), *tx)
            tiles += stack
            chains.append([lb, *stack])
        return design_spec("multi_stack", 5, 2 * stacks, tiles, chains)

    @property
    def stacks(self) -> list[SimpleNamespace]:
        """Per stack, the two tiles callers reach for."""
        return [SimpleNamespace(eth_tx=self.tiles[f"eth_tx_{k}"],
                                app=self.tiles[f"app_{k}"])
                for k in range(len(self.lb.stacks))]

    def inject(self, frame: bytes, cycle: int) -> None:
        self.lb.push_frame(frame, cycle)

