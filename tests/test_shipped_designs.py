"""Every shipped design is the spec it publishes.

For each name in ``repro.designs.SHIPPED``: the XML says everything
the design is, and what is built — tile names, classes, coordinates,
next-hop tables / replica lists, chains — is what the spec lists, in
spec order.  Bit-identity with the hand-wired constructors these
replaced is pinned by ``test_kernel_equivalence`` and the perflab
digests.
"""

import pytest

from repro import params
from repro.config import (
    DestSpec,
    GeneratedDesign,
    design_from_xml,
    design_to_xml,
)
from repro.config.registry import TILE_TYPES
from repro.designs import (
    SHIPPED,
    RsDesign,
    ScaledEchoDesign,
    TcpServerDesign,
    UdpEchoDesign,
    VrWitnessDesign,
    load_design,
)
from repro.tiles.logger import PacketLogTile


def wired(tile, key):
    """Where ``tile`` sends what it matches on ``key``."""
    if hasattr(tile, "replicas"):
        return tile.replicas
    if hasattr(tile, "stacks"):
        return tile.stacks
    if hasattr(tile, "listen_ports"):
        return [tile.listen_ports[key]]
    if getattr(tile, "emit_to_noc", None) is not None:
        return [tile.emit_to_noc]
    if isinstance(tile, PacketLogTile) and key == "default":
        key = PacketLogTile.FORWARD
    return tile.next_hop._entries[key]


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_a_shipped_design_is_what_its_spec_lists(name):
    spec, factory = load_design(name)
    assert design_from_xml(design_to_xml(spec)) == spec
    design = factory()
    assert isinstance(design, GeneratedDesign)
    assert design.spec == spec
    assert list(design.tiles) == spec.tile_names()
    assert [t.name for t in design.tile_core.tiles] == spec.tile_names()
    assert design.tile_coords == spec.coords()
    assert design.chains == [chain.tiles for chain in spec.chains]
    for tile_spec in spec.tiles:
        tile = design.tiles[tile_spec.name]
        assert getattr(design, tile_spec.name) is tile
        assert type(tile) is TILE_TYPES[tile_spec.type].tile_class()
        assert tile.coord == tile_spec.coord
        for dest in tile_spec.dests:
            assert wired(tile, dest.parsed_key()) == \
                [design.tile_coords[target] for target in dest.targets]
    with pytest.raises(AttributeError, match="no_such_tile"):
        design.no_such_tile


def keys_of(spec, tile):
    return {dest.key: dest.targets for dest in spec.tile(tile).dests}


def test_keywords_land_in_the_spec():
    spec = UdpEchoDesign.spec(udp_port=53, line_rate_bytes_per_cycle=None)
    assert keys_of(spec, "udp_rx") == {"port:53": ["app"]}
    assert spec.tile("eth_tx").params["line_rate"] == "none"
    assert UdpEchoDesign(udp_port=53).udp_port == 53

    spec = RsDesign.spec(instances=2, rs_gbps=7.5)
    assert keys_of(spec, "sched") == {"default": ["rs0", "rs1"]}
    assert spec.tile("rs1").params["gbps"] == "7.5"
    assert len(spec.chains) == 2
    assert [t.name for t in RsDesign(instances=2).rs_tiles] == \
        ["rs0", "rs1"]

    spec = VrWitnessDesign.spec(shards=3, duplicate_udp=True)
    assert (spec.width, spec.height) == (7, 2)
    assert spec.tile("ip_rx").dests == [
        DestSpec("proto:17", ["udp_rx0", "udp_rx1"], "flow_hash")]
    assert spec.tile("witness2").dests == [
        DestSpec("default", ["udp_tx0", "udp_tx1"], "round_robin")]
    assert len(spec.chains) == 3 * 2 * 2
    design = VrWitnessDesign(shards=3, duplicate_udp=True)
    assert len(design.udp_rx_tiles) == len(design.udp_tx_tiles) == 2
    assert design.witness2.next_hop.policy == "round_robin"

    coords = [(5, 2), (5, 0), (3, 1)]
    spec = ScaledEchoDesign.spec(n_apps=2, width=6, height=3,
                                 app_coords=coords)
    assert (spec.width, spec.height) == (6, 3)
    assert [spec.tile(f"app{i}").coord for i in range(2)] == coords[:2]
    assert keys_of(spec, "udp_rx") == {"port:7": ["app0", "app1"]}

    spec = TcpServerDesign.spec(with_logging=True, tcp_port=80,
                                max_flows=3, congestion_control="cubic")
    assert spec.tile_names()[-2:] == ["log_rx", "log_tx"]
    assert keys_of(spec, "ip_rx") == {"proto:6": ["log_rx"]}
    assert keys_of(spec, "log_tx") == {"default": ["ip_tx"]}
    assert keys_of(spec, "tcp_rx") == {"port:80": ["app"]}
    assert spec.tile("tcp_tx").params["congestion_control"] == "cubic"
    design = TcpServerDesign(with_logging=True, tcp_port=80, max_flows=3)
    assert (design.tcp_port, design.flows.max_flows) == (80, 3)
    assert design.flows is design.tcp_tx.flows
    assert design.rx_buf.size_bytes == 3 * params.TCP_RX_BUFFER_BYTES


def test_log_tile_takes_its_readback_entry_through_connect():
    """The generator used to write every log-tile ``<dest>`` to the
    forward entry, whatever its key."""
    design = load_design("logged_udp_echo")[1]()
    table = design.log.next_hop
    assert table.lookup(PacketLogTile.FORWARD) == design.udp_rx.coord
    assert table.lookup(PacketLogTile.READBACK) == design.udp_tx.coord
    design.log.connect("default", [design.app.coord])
    assert table.lookup(PacketLogTile.FORWARD) == design.app.coord
    assert table.lookup(PacketLogTile.READBACK) == design.udp_tx.coord
