"""Tests for the duplicated-protocol-tile VR design (section VII-F:
"we also duplicate protocol tiles to prevent them from becoming a
bottleneck")."""

from repro.apps.vr.tile import MSG_PREPARE, MSG_PREPARE_OK, PrepareWire
from repro.analysis import analyze_chains
from repro.designs import FrameSink, VrWitnessDesign
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)

LEADER_MACS = [MacAddress(f"02:00:00:00:00:0{i}") for i in (2, 3, 4, 5)]
LEADER_IPS = [IPv4Address(f"10.0.0.{i}") for i in (2, 3, 4, 5)]


def make_design():
    design = VrWitnessDesign(shards=4, duplicate_udp=True,
                             line_rate_bytes_per_cycle=None)
    for ip, mac in zip(LEADER_IPS, LEADER_MACS):
        design.add_client(ip, mac)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    return design, sink


def prepare_frame(design, leader, shard, opnum):
    wire = PrepareWire(msg_type=MSG_PREPARE, view=0, opnum=opnum,
                       shard=shard, digest=b"deadbeef")
    return build_ipv4_udp_frame(
        LEADER_MACS[leader], design.server_mac, LEADER_IPS[leader],
        design.server_ip, 7000 + leader, design.shard_port(shard),
        wire.pack(),
    )


class TestDuplicatedUdpTiles:
    def test_chains_deadlock_free(self):
        design, _ = make_design()
        # 4 witnesses x 2 udp_rx x 2 udp_tx = 16 declared chains.
        assert len(design.chains) == 16
        assert analyze_chains(design.chains,
                              design.tile_coords) is None

    def test_all_prepares_acknowledged(self):
        design, sink = make_design()
        sent = 0
        for leader in range(4):
            shard = leader
            for opnum in range(1, 8):
                design.inject(
                    prepare_frame(design, leader, shard, opnum),
                    design.sim.cycle,
                )
                sent += 1
        design.sim.run_until(lambda: sink.count >= sent,
                             max_cycles=30_000)
        replies = [PrepareWire.unpack(parse_frame(frame).payload)
                   for frame, _ in sink.frames]
        assert all(r.msg_type == MSG_PREPARE_OK for r in replies)
        assert [w.state.last_opnum for w in design.tiles_named("witness")] == \
            [7, 7, 7, 7]

    def test_flows_spread_across_udp_rx_replicas(self):
        """Different leaders (flows) land on different UDP RX tiles;
        each flow is sticky to one replica."""
        design, sink = make_design()
        sent = 0
        for leader in range(4):
            for opnum in range(1, 4):
                design.inject(
                    prepare_frame(design, leader, leader, opnum),
                    design.sim.cycle,
                )
                sent += 1
        design.sim.run_until(lambda: sink.count >= sent,
                             max_cycles=30_000)
        loads = [tile.messages_in for tile in design.tiles_named("udp_rx")]
        assert sum(loads) == sent
        assert all(load > 0 for load in loads)  # both replicas used

    def test_replies_spread_across_udp_tx_replicas(self):
        design, sink = make_design()
        for opnum in range(1, 11):
            design.inject(prepare_frame(design, 0, 0, opnum),
                          design.sim.cycle)
        design.sim.run_until(lambda: sink.count >= 10,
                             max_cycles=30_000)
        loads = [tile.messages_in for tile in design.tiles_named("udp_tx")]
        assert loads == [5, 5]  # witness round-robins its replies

    def test_in_order_delivery_per_flow_preserved(self):
        """Sticky flow hashing means a shard's prepares stay in order
        even with replicated protocol tiles — no gaps at the witness."""
        design, sink = make_design()
        for opnum in range(1, 30):
            design.inject(prepare_frame(design, 1, 1, opnum),
                          design.sim.cycle)
        design.sim.run_until(lambda: sink.count >= 29,
                             max_cycles=50_000)
        witness = design.tiles_named("witness")[1]
        assert witness.state.last_opnum == 29
        assert witness.state.rejected == 0  # no gaps seen
