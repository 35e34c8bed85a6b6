"""Tests for the resource (Table V), timing (section VII-I), and
energy (Tables III/IV) models."""

import pytest

from repro import params
from repro.designs import UdpEchoDesign
from repro.designs.tcp_stack import TcpServerDesign
from repro.energy.model import (
    CpuEnergyModel,
    FpgaEnergyModel,
    TileActivity,
)
from repro.resources import (
    design_utilization,
    max_frequency_mhz,
    max_placeable_tiles,
    tile_cost,
)


class TestTileCosts:
    def test_paper_leaf_numbers(self):
        """Leaf costs present in Table V use the paper's numbers."""
        assert params.LUT_COSTS["router"] == 5946
        assert params.LUT_COSTS["udp_rx_proc"] == 2912
        assert params.LUT_COSTS["udp_tx_proc"] == 3105
        assert params.LUT_COSTS["noc_msg_parse_rx"] == 897
        assert params.LUT_COSTS["noc_msg_parse_tx"] == 658
        assert params.LUT_COSTS["tcp_rx_proc"] == 10304
        assert params.LUT_COSTS["tcp_rx_router"] == 8847

    def test_udp_rx_tile_near_paper(self):
        """Table V: UDP RX tile = 10054 LUTs / 9.5 BRAM."""
        cost = tile_cost("udp_rx")
        assert cost.luts == pytest.approx(10054, rel=0.05)
        assert cost.brams == 9.5

    def test_router_dominates_simple_tiles(self):
        """The paper's point: a router is ~2x the UDP processing —
        the cost of flexibility."""
        assert params.LUT_COSTS["router"] > \
            2 * 0.9 * params.LUT_COSTS["udp_rx_proc"]

    def test_empty_tile_is_router_only(self):
        cost = tile_cost("empty")
        assert cost.luts == params.LUT_COSTS["router"]
        assert cost.brams == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            tile_cost("flux_capacitor")


class TestDesignUtilization:
    def test_udp_stack_near_table5(self):
        """Table V: the Beehive UDP protocol stack = 58540 LUTs /
        4.95%, 41 BRAM / 1.9%."""
        stack = ["eth_rx", "ip_rx", "udp_rx", "udp_tx", "ip_tx",
                 "eth_tx"]
        luts = sum(tile_cost(kind).luts for kind in stack)
        brams = sum(tile_cost(kind).brams for kind in stack)
        assert luts == pytest.approx(58540, rel=0.08)
        assert brams == pytest.approx(41, rel=0.08)

    def test_whole_design_fits_comfortably(self):
        """The paper's framing: the flexibility tax is small against
        the whole U200."""
        design = UdpEchoDesign()
        utilization = design_utilization(design)
        assert utilization.lut_pct < 10.0
        assert 100 * utilization.brams / params.U200_TOTAL_BRAMS < 5.0

    def test_tcp_design_near_table5(self):
        """Table V: Beehive TCP/UDP stack = 144491 LUTs / 12%."""
        design = TcpServerDesign(with_logging=True)
        utilization = design_utilization(design)
        assert utilization.luts == pytest.approx(144491, rel=0.12)

    def test_empty_tiles_counted(self):
        design = UdpEchoDesign()  # 7 tiles on a 4x2 mesh -> 1 empty
        with_empty = design_utilization(design)
        tiles_only = sum(tile_cost(tile.KIND).luts
                         for tile in design.tiles.values())
        assert with_empty.luts - tiles_only == params.LUT_COSTS["router"]


class TestTimingModel:
    def test_paper_placement_ceiling(self):
        """Section VII-I: 28 tiles total before timing fails 250 MHz."""
        assert max_placeable_tiles() == params.MAX_PLACEABLE_TILES

    def test_frequency_monotone(self):
        freqs = [max_frequency_mhz(n) for n in range(1, 40)]
        assert all(a > b for a, b in zip(freqs, freqs[1:]))

    def test_28_passes_29_fails(self):
        assert max_frequency_mhz(28) >= 250.0
        assert max_frequency_mhz(29) < 250.0

    def test_bad_input(self):
        with pytest.raises(ValueError):
            max_frequency_mhz(0)


class TestEnergyModels:
    def test_cpu_power_linear(self):
        model = CpuEnergyModel(idle_w=40, core_w=10)
        assert model.power_w(0) == 40
        assert model.power_w(2.5) == 65
        with pytest.raises(ValueError):
            model.power_w(-1)

    def test_fpga_power_composition(self):
        model = FpgaEnergyModel()
        tiles = [TileActivity("a", 0.0), TileActivity("b", 1.0)]
        assert model.power_w(tiles) == pytest.approx(
            params.FPGA_STATIC_W + 2 * params.FPGA_TILE_IDLE_W
            + params.FPGA_TILE_ACTIVE_W)

    def test_fpga_bad_utilisation(self):
        model = FpgaEnergyModel()
        with pytest.raises(ValueError):
            model.power_w([TileActivity("a", 1.5)])

