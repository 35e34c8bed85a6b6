"""The UDP echo design (paper Fig 8a).

Seven tiles on a 4x2 mesh — Ethernet/IP/UDP with separate receive and
transmit tiles plus one application tile — laid out so the echo chain
acquires NoC links in order (the Fig 5b discipline):

    (0,0) eth_rx   (1,0) ip_rx   (2,0) udp_rx   (3,0) app
    (0,1) eth_tx   (1,1) ip_tx   (2,1) udp_tx   (3,1) empty

The design declares its message chains for the static deadlock analyzer
and is the configuration Fig 7, Table I, and the latency microbenchmark
run on.
"""

from __future__ import annotations

from repro.config.schema import DesignSpec
from repro.designs.stack import (
    ShippedDesign,
    design_spec,
    path,
    stack_tiles,
    tile,
)


class UdpEchoDesign(ShippedDesign):
    """The 7-tile UDP echo stack."""

    @staticmethod
    def spec(udp_port: int = 7,
             line_rate_bytes_per_cycle: float | None = 50.0) -> DesignSpec:
        rx, tx = stack_tiles({f"port:{udp_port}": ["app"]},
                             line_rate_bytes_per_cycle)
        tiles = path(*rx) + path(tile("app", "echo_app", (3, 0)), *tx)
        return design_spec("udp_echo", 4, 2, tiles, [tiles])


class LoggedUdpEchoDesign(ShippedDesign):
    """UDP echo with a logging tile and network log readback (V-F).

    Layout (5x2 mesh):

        eth_rx  ip_rx  log    udp_rx  app
        eth_tx  ip_tx  empty  empty   udp_tx

    The log tile taps the receive path between IP and UDP.  Reading the
    log back is itself UDP traffic: the UDP RX tile routes the log port
    to the log tile, which answers one entry per request through the
    transmit path.  The readback path revisits the log tile, which
    would break chain resource ordering — the log tile's *bounded,
    dropping* request buffer is what decouples it (the paper's stated
    design for the log read interface), so the chains are declared
    segmented at that boundary.
    """

    LOG_PORT = 5100

    @classmethod
    def spec(cls, udp_port: int = 7,
             line_rate_bytes_per_cycle: float | None = 50.0) -> DesignSpec:
        (eth_rx, ip_rx, udp_rx), tx = stack_tiles(
            {f"port:{udp_port}": ["app"], f"port:{cls.LOG_PORT}": ["log"]},
            line_rate_bytes_per_cycle, rx=((0, 0), (1, 0), (3, 0)),
            tx=((4, 1), (1, 1), (0, 1)))
        log = tile("log", "log", (2, 0), {"readback": ["udp_tx"]},
                   direction="rx", readback_port=cls.LOG_PORT)
        tiles = path(eth_rx, ip_rx, log, udp_rx) \
            + path(tile("app", "echo_app", (4, 0)), *tx)
        # Chains segmented at the log tile's dropping request buffer.
        return design_spec("logged_udp_echo", 5, 2, tiles,
                           [tiles, [udp_rx, log], [log, *tx]])
