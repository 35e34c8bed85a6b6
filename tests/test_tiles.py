"""Tests for the tile framework and protocol tiles."""

import dataclasses
import random

import pytest

from repro.designs import (
    FrameSink,
    FrameSource,
    UdpEchoDesign,
    saturation_goodput,
)
from repro.noc import Mesh, NocMessage
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro.sim.kernel import CycleSimulator
from repro.tiles.base import NextHopTable, PacketMeta, Tile, flow_hash

CLIENT_MAC = MacAddress("02:00:00:00:00:01")
CLIENT_IP = IPv4Address("10.0.0.1")


class TestNextHopTable:
    def test_single_destination(self):
        table = NextHopTable()
        table.set_entry(17, (1, 0))
        assert table.lookup(17) == (1, 0)

    def test_unmatched_drops(self):
        table = NextHopTable()
        assert table.lookup(99) is None
        assert table.drops == 1

    def test_round_robin(self):
        table = NextHopTable(policy="round_robin")
        table.set_entry("app", [(0, 0), (1, 0), (2, 0)])
        picks = [table.lookup("app") for _ in range(6)]
        assert picks == [(0, 0), (1, 0), (2, 0)] * 2

    def test_flow_hash_is_sticky(self):
        table = NextHopTable(policy="flow_hash")
        table.set_entry(7, [(0, 0), (1, 0), (2, 0), (3, 0)])
        flow = (1, 2, 3, 4)
        first = table.lookup(7, flow_key=flow)
        assert all(table.lookup(7, flow_key=flow) == first
                   for _ in range(10))

    def test_flow_hash_spreads(self):
        table = NextHopTable(policy="flow_hash")
        table.set_entry(7, [(0, 0), (1, 0), (2, 0), (3, 0)])
        picks = {table.lookup(7, flow_key=(0, 0, p, 7))
                 for p in range(100)}
        assert len(picks) >= 3  # hash spreads across replicas

    def test_rewrite_entry(self):
        """The control plane can rewrite entries at runtime."""
        table = NextHopTable()
        table.set_entry(7, (1, 0))
        table.set_entry(7, (2, 0))
        assert table.lookup(7) == (2, 0)

    def test_shrinking_entry_does_not_break_round_robin(self):
        """Regression: rewriting an entry with fewer destinations used
        to leave the round-robin pointer past the end of the new list,
        so the next lookup raised IndexError.  The pointer must be
        reduced modulo the current length instead."""
        table = NextHopTable(policy="round_robin")
        table.set_entry("app", [(0, 0), (1, 0), (2, 0)])
        table.lookup("app")
        table.lookup("app")  # pointer now at index 2
        table.set_entry("app", [(5, 0), (6, 0)])  # control-plane shrink
        picks = [table.lookup("app") for _ in range(4)]
        assert picks == [(5, 0), (6, 0), (5, 0), (6, 0)]

    def test_shrink_to_single_destination(self):
        table = NextHopTable(policy="round_robin")
        table.set_entry("app", [(0, 0), (1, 0), (2, 0)])
        for _ in range(2):
            table.lookup("app")
        table.set_entry("app", [(9, 0)])
        assert table.lookup("app") == (9, 0)
        assert table.lookup("app") == (9, 0)

    def test_empty_destination_rejected(self):
        with pytest.raises(ValueError):
            NextHopTable().set_entry(7, [])

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            NextHopTable(policy="magic")

    def test_flow_hash_memo_picks_what_the_hash_picks(self):
        """``flow_hash`` memoises the hash, not an index, so a
        control-plane rewrite that shrinks or grows the list re-spreads
        remembered flows exactly as a fresh hash would; and the memo
        never outgrows its bound."""
        rng = random.Random(0xF10)
        table = NextHopTable(policy="flow_hash")
        bound = flow_hash.cache_info().maxsize
        keys = [tuple(rng.randrange(1 << 32) for _ in range(4))
                for _ in range(bound + 500)]
        for n_dests in (4, 2, 7, 1, 5):
            dests = [(x, 0) for x in range(n_dests)]
            table.set_entry(7, dests)
            for key in keys:
                assert table.lookup(7, flow_key=key) == \
                    dests[flow_hash.__wrapped__(key) % n_dests]
                assert flow_hash.cache_info().currsize <= bound
        hits = flow_hash.cache_info().hits
        assert table.lookup(7, flow_key=keys[-1]) == \
            dests[flow_hash.__wrapped__(keys[-1]) % 5]
        assert flow_hash.cache_info().hits == hits + 1


class TestPacketMeta:
    def test_clone_carries_every_field(self):
        """``clone`` names its fields by hand; one added to the
        dataclass later must not be dropped silently."""
        names = [f.name for f in dataclasses.fields(PacketMeta)]
        meta = PacketMeta(**{name: object() for name in names})
        copy = meta.clone()
        assert copy is not meta
        assert type(copy) is PacketMeta
        for name in names:
            assert getattr(copy, name) is getattr(meta, name), name


class PassThrough(Tile):
    """Minimal tile: forwards every message to a fixed destination."""

    def __init__(self, name, mesh, coord, dest, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.dest = dest
        self.seen = []

    def handle_message(self, message, cycle):
        self.seen.append((cycle, message))
        return [self.make_message(self.dest, metadata=message.metadata,
                                  data=message.data)]


class Collector(Tile):
    def __init__(self, name, mesh, coord, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.received = []

    def handle_message(self, message, cycle):
        self.received.append((cycle, message))
        return []


def chain_fixture(occupancy=13, parse_latency=9):
    sim = CycleSimulator(kernel="naive")
    mesh = Mesh(3, 1)
    src_port = mesh.attach((0, 0))
    middle = PassThrough("mid", mesh, (1, 0), dest=(2, 0),
                         occupancy=occupancy, parse_latency=parse_latency)
    sink = Collector("sink", mesh, (2, 0), occupancy=1, parse_latency=1)
    mesh.register(sim)
    sim.add_all([middle, sink])
    return sim, src_port, middle, sink


class TestTileEngine:
    def test_message_flows_through(self):
        sim, src, middle, sink = chain_fixture()
        src.send(NocMessage(dst=(1, 0), src=(0, 0), metadata="m",
                            data=b"abc"))
        sim.run_until(lambda: sink.received, max_cycles=200)
        _, message = sink.received[0]
        assert message.metadata == "m"
        assert message.data == b"abc"

    def test_occupancy_paces_throughput(self):
        """Messages leave the engine spaced by its occupancy."""
        sim, src, middle, sink = chain_fixture(occupancy=20)
        for i in range(5):
            src.send(NocMessage(dst=(1, 0), src=(0, 0), metadata=i,
                                data=bytes(64)))
        sim.run_until(lambda: len(sink.received) == 5, max_cycles=1000)
        arrivals = [cycle for cycle, _ in sink.received]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(gap >= 20 for gap in gaps)
        assert all(gap <= 22 for gap in gaps)  # no extra bubbles

    def test_large_messages_stream_at_flit_rate(self):
        sim, src, middle, sink = chain_fixture(occupancy=13)
        n_flits = 2 + 16  # 1 KiB of data: flit stream > occupancy (13)
        for i in range(5):
            src.send(NocMessage(dst=(1, 0), src=(0, 0), metadata=i,
                                data=bytes(1024)))
        sim.run_until(lambda: len(sink.received) == 5, max_cycles=1000)
        arrivals = [cycle for cycle, _ in sink.received]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(n_flits <= gap <= n_flits + 2 for gap in gaps)

    def test_parse_latency_sets_transit(self):
        sim, src, middle, sink = chain_fixture(parse_latency=15)
        src.send(NocMessage(dst=(1, 0), src=(0, 0), data=b""))
        sim.run_until(lambda: sink.received, max_cycles=200)
        fast_sim, fast_src, _, fast_sink = chain_fixture(parse_latency=1)
        fast_src.send(NocMessage(dst=(1, 0), src=(0, 0), data=b""))
        fast_sim.run_until(lambda: fast_sink.received, max_cycles=200)
        slow = sink.received[0][0]
        fast = fast_sink.received[0][0]
        assert slow - fast == 14

    def test_stats_counters(self):
        sim, src, middle, sink = chain_fixture()
        src.send(NocMessage(dst=(1, 0), src=(0, 0), data=bytes(100)))
        sim.run_until(lambda: sink.received, max_cycles=200)
        assert middle.messages_in == 1
        assert middle.messages_out == 1
        assert middle.bytes_in == 100
        assert middle.bytes_out == 100

    def test_drop_counts(self):
        class Dropper(Tile):
            def handle_message(self, message, cycle):
                return self.drop(message)

        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(2, 1)
        src = mesh.attach((0, 0))
        dropper = Dropper("d", mesh, (1, 0))
        mesh.register(sim)
        sim.add(dropper)
        src.send(NocMessage(dst=(1, 0), src=(0, 0), data=b"x"))
        sim.run_until(lambda: dropper.drops == 1, max_cycles=200)
        assert dropper.messages_out == 0


class TestUdpEchoDesign:
    def make_design(self, **kwargs):
        design = UdpEchoDesign(udp_port=7, **kwargs)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        return design

    def request(self, design, payload, src_port=5555):
        return build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP, design.server_ip,
            src_port, 7, payload,
        )

    def run_one(self, design, frame):
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame, cycle=0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)
        return sink.frames[0][0]

    def test_end_to_end_echo(self):
        design = self.make_design()
        reply = self.run_one(design, self.request(design, b"ping"))
        parsed = parse_frame(reply)
        assert parsed.payload == b"ping"
        assert parsed.ip.src == design.server_ip
        assert parsed.ip.dst == CLIENT_IP
        assert parsed.udp.src_port == 7
        assert parsed.udp.dst_port == 5555
        assert parsed.eth.dst == CLIENT_MAC

    def test_reply_checksums_valid(self):
        design = self.make_design()
        reply = self.run_one(design, self.request(design, bytes(300)))
        parse_frame(reply)  # raises on any checksum failure

    def test_latency_microbenchmark(self):
        """The paper reports 92 cycles / 368 ns for a 1-byte echo."""
        design = self.make_design(line_rate_bytes_per_cycle=None)
        self.run_one(design, self.request(design, b"x"))
        assert abs(design.eth_tx.last_transit_cycles - 92) <= 3

    def test_corrupt_frame_dropped_at_udp(self):
        design = self.make_design()
        frame = bytearray(self.request(design, b"hello"))
        frame[-1] ^= 0xFF
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(bytes(frame), 0)
        design.sim.run(500)
        assert sink.count == 0
        assert design.udp_rx.checksum_errors == 1

    def test_unknown_port_dropped(self):
        design = self.make_design()
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP, design.server_ip,
            5555, 9999, b"hi",
        )
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame, 0)
        design.sim.run(500)
        assert sink.count == 0
        assert design.udp_rx.drops == 1

    def test_wrong_ip_dropped(self):
        design = self.make_design()
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP,
            IPv4Address("10.9.9.9"), 5555, 7, b"hi",
        )
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame, 0)
        design.sim.run(500)
        assert sink.count == 0
        assert design.ip_rx.drops == 1

    def test_pipelining_many_requests(self):
        design = self.make_design(line_rate_bytes_per_cycle=None)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        source = FrameSource(design.inject,
                             lambda i: self.request(design, bytes(64)),
                             rate=None, count=100)
        design.sim.add(source)
        design.sim.run_until(lambda: sink.count == 100, max_cycles=10000)
        assert design.app.requests == 100

    def test_small_packet_goodput_matches_paper(self):
        """Paper: ~9 Gbps / 18392 KReq/s of 64 B packets (section VII-C)."""
        design = self.make_design(line_rate_bytes_per_cycle=None)
        measured = saturation_goodput(
            design, [self.request(design, bytes(64))], 15000,
            warmup_frames=50)
        assert 8.0 <= measured.gbps <= 11.0
        assert 17000 <= measured.kreqs <= 20500
