"""LUT/BRAM cost model and the placement/timing model.

Tile costs compose the way Table V decomposes them: a tile = its
router + NoC message parsing + processing logic (+ a small glue
allowance).  Leaf costs that appear in Table V use the paper's numbers
(router 5946 LUTs, UDP RX processing 2912, NoC message parsing
897/658, ...); the rest are estimates consistent with the stack totals
the paper reports.  The timing model reproduces section VII-I: 512-bit
router fan-out plus SLR (chiplet) crossings cap the design at 28 tiles
before the router-to-router critical path fails 250 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import params

GLUE_LUTS = 300
"""Per-tile misc logic (resets, counters) — the gap between Table V's
tile totals and the sum of their listed submodules."""


@dataclass(frozen=True)
class ModuleCost:
    name: str
    luts: int
    brams: float

    @property
    def lut_pct(self) -> float:
        return 100.0 * self.luts / params.U200_TOTAL_LUTS

    @property
    def bram_pct(self) -> float:
        return 100.0 * self.brams / params.U200_TOTAL_BRAMS


# Which NoC-message-parsing flavour each tile kind uses, and whether
# the kind has a dedicated (larger) router entry.
_PARSE_FLAVOUR = {
    "eth_rx": "noc_msg_parse_rx", "ip_rx": "noc_msg_parse_rx",
    "udp_rx": "noc_msg_parse_rx", "tcp_rx": "noc_msg_parse_rx",
    "nat": "noc_msg_parse_rx", "ipinip": "noc_msg_parse_rx",
    "log_tile": "noc_msg_parse_rx", "load_balancer": "noc_msg_parse_rx",
    "eth_tx": "noc_msg_parse_tx", "ip_tx": "noc_msg_parse_tx",
    "udp_tx": "noc_msg_parse_tx", "tcp_tx": "noc_msg_parse_tx",
    "echo_app": "noc_msg_parse_rx", "rs_encoder": "noc_msg_parse_rx",
    "vr_witness": "noc_msg_parse_rx", "buffer_tile": "noc_msg_parse_rx",
    "controller": "noc_msg_parse_rx", "empty": None,
}

_PROC_KEY = {
    "eth_rx": "eth_rx_proc", "eth_tx": "eth_tx_proc",
    "ip_rx": "ip_rx_proc", "ip_tx": "ip_tx_proc",
    "udp_rx": "udp_rx_proc", "udp_tx": "udp_tx_proc",
    "tcp_rx": "tcp_rx_proc", "tcp_tx": "tcp_tx_proc",
    "echo_app": "echo_app", "rs_encoder": "rs_encoder",
    "vr_witness": "vr_witness", "nat": "nat", "ipinip": "ipinip",
    "load_balancer": "load_balancer", "log_tile": "log_tile",
    "buffer_tile": "buffer_tile", "controller": "controller",
    "empty": "empty",
}

_ROUTER_KEY = {
    # The TCP engines carry the wider, higher-radix routers Table V
    # lists separately.
    "tcp_rx": "tcp_rx_router",
    "tcp_tx": "tcp_tx_router",
}


def tile_cost(kind: str) -> ModuleCost:
    """LUT/BRAM cost of a whole tile of ``kind``."""
    if kind not in _PROC_KEY:
        raise KeyError(f"unknown tile kind {kind!r} "
                       f"(known: {sorted(_PROC_KEY)})")
    router_key = _ROUTER_KEY.get(kind, "router")
    luts = params.LUT_COSTS[router_key]
    brams = params.BRAM_COSTS[router_key]
    parse = _PARSE_FLAVOUR[kind]
    if parse is not None:
        luts += params.LUT_COSTS[parse]
        brams += params.BRAM_COSTS[parse]
    luts += params.LUT_COSTS[_PROC_KEY[kind]]
    brams += params.BRAM_COSTS[_PROC_KEY[kind]]
    if kind != "empty":
        luts += GLUE_LUTS
    return ModuleCost(name=kind, luts=luts, brams=brams)


@dataclass(frozen=True)
class DesignUtilization:
    name: str
    tiles: list
    luts: int
    brams: float

    @property
    def lut_pct(self) -> float:
        return 100.0 * self.luts / params.U200_TOTAL_LUTS

    @property
    def bram_pct(self) -> float:
        return 100.0 * self.brams / params.U200_TOTAL_BRAMS


def design_utilization(design, name: str | None = None,
                       include_empty: bool = True) -> DesignUtilization:
    """Aggregate cost of a built design (its tiles' KINDs plus the
    auto-generated empty-tile routers filling the mesh rectangle)."""
    tiles = design.tiles
    tiles = list(tiles.values() if isinstance(tiles, dict) else tiles)
    kinds = [tile.KIND for tile in tiles]
    if include_empty:
        occupied = {tile.coord for tile in tiles}
        mesh = design.mesh
        empties = mesh.width * mesh.height - len(occupied)
        kinds.extend(["empty"] * empties)
    luts = sum(tile_cost(kind).luts for kind in kinds)
    brams = sum(tile_cost(kind).brams for kind in kinds)
    return DesignUtilization(
        name=name or type(design).__name__,
        tiles=kinds, luts=luts, brams=brams,
    )


# -- timing / placement (section VII-I) ------------------------------------------


def max_frequency_mhz(n_tiles: int) -> float:
    """Achievable clock for an n-tile design.

    The critical path is router-to-router: a base path through the
    512-bit crossbar plus congestion/fan-out pressure that grows with
    tile count (and with the SLR crossings a taller mesh needs).
    Calibrated so 28 tiles is the last configuration that makes the
    paper's 250 MHz.
    """
    if n_tiles < 1:
        raise ValueError("need at least one tile")
    path_ns = params.TIMING_BASE_NS + params.TIMING_PER_TILE_NS * n_tiles
    return 1e3 / path_ns


def max_placeable_tiles(target_mhz: float = 250.0) -> int:
    """Largest tile count meeting ``target_mhz`` under the model."""
    n = 1
    while max_frequency_mhz(n + 1) >= target_mhz:
        n += 1
    return n
