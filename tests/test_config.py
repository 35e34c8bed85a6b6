"""Tests for the XML design tooling: parse, validate, generate, LoC."""

import pytest

from repro.config import (
    ChainSpec,
    DesignSpec,
    DestSpec,
    GeneratedDesign,
    TileSpec,
    ValidationError,
    design_from_xml,
    design_to_xml,
    generate_top_level,
    instantiation_loc,
    validate,
)
from repro.config.examples import UDP_ECHO_XML
from repro.analysis.deadlock import DeadlockError
from repro.designs import FrameSink
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


class TestXmlRoundtrip:
    def test_parse_udp_echo(self):
        design = design_from_xml(UDP_ECHO_XML)
        assert design.name == "udp_echo"
        assert (design.width, design.height) == (4, 2)
        assert len(design.tiles) == 7
        assert design.tile("eth_rx").dests[0].parsed_key() == 0x0800
        assert design.tile("ip_rx").dests[0].parsed_key() == 17
        assert design.tile("udp_rx").dests[0].parsed_key() == 7
        assert design.chains[0].tiles[0] == "eth_rx"

    def test_roundtrip_through_text(self):
        design = design_from_xml(UDP_ECHO_XML)
        text = design_to_xml(design)
        again = design_from_xml(text)
        assert again.coords() == design.coords()
        assert [t.type for t in again.tiles] == \
            [t.type for t in design.tiles]

    def test_rejects_non_design_root(self):
        with pytest.raises(ValueError):
            design_from_xml("<chip/>")

    def test_rejects_tile_without_name(self):
        with pytest.raises(ValueError, match="name"):
            design_from_xml(
                '<design name="x" width="1" height="1">'
                "<tile><type>ip_rx</type><x>0</x><y>0</y></tile>"
                "</design>"
            )


class TestValidation:
    def spec(self, **overrides):
        design = DesignSpec(name="t", width=2, height=2)
        design.tiles = [
            TileSpec(name="a", type="ip_rx", x=0, y=0),
            TileSpec(name="b", type="ip_tx", x=1, y=0),
        ]
        for key, value in overrides.items():
            setattr(design, key, value)
        return design

    def test_valid_design_reports_empty_tiles(self):
        report = validate(self.spec())
        assert report.empty_coords == [(0, 1), (1, 1)]

    def test_duplicate_coordinates_rejected(self):
        design = self.spec()
        design.tiles[1].x = 0
        with pytest.raises(ValidationError, match="share coordinates"):
            validate(design)

    def test_out_of_range_rejected(self):
        design = self.spec()
        design.tiles[1].x = 9
        with pytest.raises(ValidationError, match="outside"):
            validate(design)

    def test_duplicate_names_rejected(self):
        design = self.spec()
        design.tiles[1].name = "a"
        with pytest.raises(ValidationError, match="duplicate"):
            validate(design)

    def test_unknown_dest_rejected(self):
        design = self.spec()
        design.tiles[0].dests = [DestSpec(key="default",
                                          targets=["ghost"])]
        with pytest.raises(ValidationError, match="unknown tile"):
            validate(design)

    def test_chain_with_unknown_tile_rejected(self):
        design = self.spec()
        design.chains = [ChainSpec(tiles=["a", "ghost"])]
        with pytest.raises(ValidationError):
            validate(design)

    def test_problems_accumulate(self):
        design = self.spec()
        design.tiles[1].name = "a"
        design.tiles[1].x = 9
        with pytest.raises(ValidationError) as excinfo:
            validate(design)
        assert len(excinfo.value.problems) == 2


class TestValidationEdgeCases:
    """Degenerate-but-legal and corner-case topologies."""

    def test_one_by_n_mesh_valid(self):
        design = DesignSpec(name="line", width=1, height=4)
        design.tiles = [
            TileSpec(name="a", type="ip_rx", x=0, y=0),
            TileSpec(name="b", type="ip_tx", x=0, y=3),
        ]
        report = validate(design)
        assert report.empty_coords == [(0, 1), (0, 2)]

    def test_n_by_one_mesh_rejects_out_of_range_y(self):
        design = DesignSpec(name="row", width=4, height=1)
        design.tiles = [TileSpec(name="a", type="ip_rx", x=0, y=1)]
        with pytest.raises(ValidationError, match="outside"):
            validate(design)

    def test_one_by_one_mesh_single_tile(self):
        design = DesignSpec(name="dot", width=1, height=1)
        design.tiles = [TileSpec(name="only", type="ip_rx", x=0, y=0)]
        report = validate(design)
        assert report.empty_coords == []

    def test_duplicate_coords_distinct_names_lists_both(self):
        design = DesignSpec(name="dup", width=2, height=2)
        design.tiles = [
            TileSpec(name="first", type="ip_rx", x=1, y=1),
            TileSpec(name="second", type="ip_tx", x=1, y=1),
        ]
        with pytest.raises(ValidationError,
                           match="share coordinates") as excinfo:
            validate(design)
        # Both offending tiles are named so the fix is obvious.
        assert "first" in str(excinfo.value)
        assert "second" in str(excinfo.value)

    def test_corner_empty_tiles_autogenerated(self):
        """A lone centre tile leaves all four corners (and edges) to
        the empty-tile generator, in row-major order."""
        design = DesignSpec(name="corners", width=3, height=3)
        design.tiles = [TileSpec(name="mid", type="ip_rx", x=1, y=1)]
        report = validate(design)
        everything = {(x, y) for x in range(3) for y in range(3)}
        assert set(report.empty_coords) == everything - {(1, 1)}
        assert report.empty_coords[0] == (0, 0)
        assert report.empty_coords[-1] == (2, 2)

    @pytest.mark.parametrize("tile, code", [
        (TileSpec("a", "quantum_tile", 0, 0), "BHV125"),
        (TileSpec("a", "eth_tx", 0, 0), "BHV126"),
        (TileSpec("a", "eth_tx", 0, 0, {"my_mac": "02:00:00:00:00:01",
                                        "line_rate": "fast"}), "BHV127"),
        (TileSpec("a", "eth_rx", 0, 0, {"my_mac": "not-a-mac"}), "BHV127"),
        (TileSpec("a", "tcp_tx", 0, 0, {"tx_buffer": "nowhere"}),
         "BHV124"),
        # A misspelt name used to be dropped: line rate 50.0, no finding.
        (TileSpec("a", "eth_tx", 0, 0, {"my_mac": "02:00:00:00:00:01",
                                        "line_rat": "12.5"}), "BHV128"),
    ])
    def test_tile_types_and_params_are_checked_before_any_factory(
            self, tile, code):
        """The registry entry says what a type requires and how each
        param parses; the factory no longer finds out the hard way."""
        design = DesignSpec(name="t", width=1, height=1, tiles=[tile])
        with pytest.raises(ValidationError, match=code) as excinfo:
            validate(design)
        assert len(excinfo.value.problems) == 1
        with pytest.raises(ValidationError, match=code):
            GeneratedDesign(design)

    def test_no_chains_is_a_warning_not_an_error(self):
        design = DesignSpec(name="quiet", width=2, height=1)
        design.tiles = [TileSpec(name="a", type="ip_rx", x=0, y=0)]
        report = validate(design)
        assert any("no chains declared" in w for w in report.warnings)

    def test_report_carries_findings(self):
        """The report exposes the underlying BHV findings so callers
        can act on codes rather than parsing message text."""
        design = DesignSpec(name="quiet", width=2, height=1)
        design.tiles = [TileSpec(name="a", type="ip_rx", x=0, y=0)]
        report = validate(design)
        assert [f.code for f in report.findings] == ["BHV122"]


class TestGeneratedDesign:
    def test_builds_and_echoes(self):
        """The XML-generated design behaves like the handwritten one."""
        spec = design_from_xml(UDP_ECHO_XML)
        design = GeneratedDesign(spec)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, MacAddress("02:be:e0:00:00:01"), CLIENT_IP,
            IPv4Address("10.0.0.10"), 5555, 7, b"from-xml",
        )
        design.inject(frame, 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)
        assert parse_frame(sink.frames[0][0]).payload == b"from-xml"

    def test_names_its_own_address_and_port(self):
        """Host-facing values come from the design's own tiles: a spec
        with other addresses answers on those, one with none on the
        shared default (its RX tiles accept any)."""
        moved = UDP_ECHO_XML.replace("02:be:e0:00:00:01",
                                     "02:be:e0:00:00:77") \
            .replace("10.0.0.10", "10.0.7.7").replace("port:7", "port:53")
        design = GeneratedDesign(design_from_xml(moved))
        assert design.server_mac == MacAddress("02:be:e0:00:00:77")
        assert design.server_ip == IPv4Address("10.0.7.7")
        assert design.udp_port == 53
        spec = design_from_xml(UDP_ECHO_XML)
        for tile in spec.tiles:
            if tile.type in ("eth_rx", "ip_rx"):
                tile.params.clear()
            if tile.type == "udp_rx":
                tile.dests.clear()
        design = GeneratedDesign(spec)
        assert design.server_mac == MacAddress("02:be:e0:00:00:01")
        assert design.server_ip == IPv4Address("10.0.0.10")
        assert design.udp_port is None

    def test_deadlocky_layout_rejected_at_build(self):
        """Building the Fig 5a placement fails the compile-time check."""
        spec = design_from_xml(UDP_ECHO_XML)
        # Swap ip_rx and udp_rx coordinates: eth->ip now crosses udp.
        spec.tile("ip_rx").x, spec.tile("udp_rx").x = 2, 1
        with pytest.raises(DeadlockError):
            GeneratedDesign(spec)

    def test_unknown_type_rejected(self):
        spec = DesignSpec(name="t", width=1, height=1, tiles=[
            TileSpec(name="a", type="quantum_tile", x=0, y=0),
        ])
        with pytest.raises(ValidationError, match="BHV125.*quantum_tile"):
            GeneratedDesign(spec)

    def test_replicated_targets_load_balance(self):
        spec = design_from_xml(UDP_ECHO_XML)
        design = GeneratedDesign(spec)
        table = design.tiles["udp_rx"].next_hop
        table.set_entry(7, [(3, 0), (3, 1)])
        picks = {table.lookup(7, flow_key=(0, 0, p, 7))
                 for p in range(50)}
        assert picks == {(3, 0), (3, 1)}


class TestTopLevelGeneration:
    def test_wires_and_instances_present(self):
        spec = design_from_xml(UDP_ECHO_XML)
        text = generate_top_level(spec)
        assert "wire [511:0] noc_0_0__to__1_0;" in text
        assert "eth_rx_inst" in text
        assert "udp_tx_inst" in text
        # Empty tile auto-generated at the unoccupied (3, 1).
        assert "empty_3_1" in text

    def test_wire_count_matches_mesh(self):
        spec = design_from_xml(UDP_ECHO_XML)
        text = generate_top_level(spec)
        wires = [line for line in text.splitlines()
                 if line.startswith("wire")]
        # 4x2 mesh: horizontal 3*2 pairs + vertical 4*1 pairs, 2 dirs.
        assert len(wires) == (3 * 2 + 4 * 1) * 2

    def test_edge_ports_tied_off(self):
        spec = design_from_xml(UDP_ECHO_XML)
        text = generate_top_level(spec)
        assert "512'b0" in text


class TestLocAccounting:
    def test_instantiation_loc_shape(self):
        """Adding a tile costs tens of XML/top-level lines (Table VI's
        point: instantiating a service instance is cheap)."""
        spec = design_from_xml(UDP_ECHO_XML)
        loc = instantiation_loc(spec, "app")
        assert 5 <= loc.xml_declaration <= 30
        assert loc.xml_destination == 5   # one <dest> block in udp_rx
        assert 10 <= loc.top_level <= 20
        assert loc.xml_total == loc.xml_declaration + 5
