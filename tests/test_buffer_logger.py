"""Tests for buffer tiles, logging tiles, and the distribution tiles."""

from repro.noc import Mesh, NocMessage
from repro.packet import build_ipv4_udp_frame, IPv4Address, MacAddress
from repro.sim.kernel import CycleSimulator
from repro.tiles.base import PacketMeta, Tile
from repro.tiles.buffer import (
    BufferReadReq,
    BufferReadResp,
    BufferTile,
    BufferWriteAck,
    BufferWriteReq,
)
from repro.tiles.loadbalancer import FlowHashLoadBalancerTile
from repro.tiles.logger import LogEntry, LogReadReq, LogReadResp, PacketLogTile
from repro.tiles.scheduler import RoundRobinSchedulerTile
from repro.packet.tcp import TcpHeader


class Collector(Tile):
    def __init__(self, name, mesh, coord, **kwargs):
        kwargs.setdefault("occupancy", 1)
        kwargs.setdefault("parse_latency", 1)
        super().__init__(name, mesh, coord, **kwargs)
        self.received = []

    def handle_message(self, message, cycle):
        self.received.append(message)
        return []


def buffer_fixture():
    sim = CycleSimulator(kernel="naive")
    mesh = Mesh(3, 1)
    requester_port = mesh.attach((0, 0))
    buffer_tile = BufferTile("buf", mesh, (1, 0), size_bytes=1024)
    collector = Collector("collector", mesh, (2, 0))
    mesh.register(sim)
    sim.add_all([buffer_tile, collector])
    return sim, requester_port, buffer_tile, collector


class TestBufferTile:
    def test_write_then_read(self):
        sim, port, buffer_tile, collector = buffer_fixture()
        port.send(NocMessage(
            dst=(1, 0), src=(0, 0),
            metadata=BufferWriteReq(addr=100), data=b"stored bytes",
        ))
        port.send(NocMessage(
            dst=(1, 0), src=(0, 0),
            metadata=BufferReadReq(addr=100, length=12, reply_to=(2, 0),
                                   tag="t1"),
        ))
        sim.run_until(lambda: collector.received, max_cycles=500)
        response = collector.received[0]
        assert isinstance(response.metadata, BufferReadResp)
        assert response.metadata.tag == "t1"
        assert response.data == b"stored bytes"

    def test_write_ack(self):
        sim, port, buffer_tile, collector = buffer_fixture()
        port.send(NocMessage(
            dst=(1, 0), src=(0, 0),
            metadata=BufferWriteReq(addr=0, reply_to=(2, 0), tag=9),
            data=b"abc",
        ))
        sim.run_until(lambda: collector.received, max_cycles=500)
        ack = collector.received[0].metadata
        assert isinstance(ack, BufferWriteAck)
        assert ack.length == 3 and ack.tag == 9

    def test_out_of_range_dropped(self):
        sim, port, buffer_tile, collector = buffer_fixture()
        port.send(NocMessage(
            dst=(1, 0), src=(0, 0),
            metadata=BufferReadReq(addr=1020, length=100,
                                   reply_to=(2, 0)),
        ))
        sim.run(300)
        assert not collector.received
        assert buffer_tile.drops == 1

    def test_shared_between_tiles(self):
        """Multiple tiles can share state through one buffer tile."""
        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(3, 1)
        writer = mesh.attach((0, 0))
        buffer_tile = BufferTile("buf", mesh, (1, 0))
        reader = Collector("reader", mesh, (2, 0))
        mesh.register(sim)
        sim.add_all([buffer_tile, reader])
        writer.send(NocMessage(dst=(1, 0), src=(0, 0),
                               metadata=BufferWriteReq(addr=0),
                               data=b"shared"))
        sim.run(50)
        # A different tile (the reader itself) requests the data.
        reader.send(NocMessage(dst=(1, 0), src=(2, 0),
                               metadata=BufferReadReq(addr=0, length=6,
                                                      reply_to=(2, 0))))
        sim.run_until(lambda: reader.received, max_cycles=500)
        assert reader.received[0].data == b"shared"


class TestLogEntry:
    def test_pack_unpack(self):
        entry = LogEntry(cycle=123456, direction="rx",
                         summary="tcp 80->5000", seq=111, ack=222,
                         flags="SYN|ACK", length=1460)
        out = LogEntry.unpack(entry.pack())
        assert out == entry

    def test_pack_truncates_long_summary(self):
        entry = LogEntry(cycle=1, direction="tx", summary="x" * 200)
        assert len(entry.pack()) <= 18 + LogEntry.MAX_WIRE_LEN


def logger_fixture(**log_kwargs):
    sim = CycleSimulator(kernel="naive")
    mesh = Mesh(3, 1)
    src = mesh.attach((0, 0))
    log_tile = PacketLogTile("log", mesh, (1, 0), **log_kwargs)
    collector = Collector("collector", mesh, (2, 0))
    log_tile.next_hop.set_entry(PacketLogTile.FORWARD, (2, 0))
    mesh.register(sim)
    sim.add_all([log_tile, collector])
    return sim, src, log_tile, collector


class TestPacketLogTile:
    def make_meta(self, seq=100):
        return PacketMeta(tcp=TcpHeader(src_port=80, dst_port=5000,
                                        seq=seq, ack=7))

    def test_forwards_and_records(self):
        sim, src, log_tile, collector = logger_fixture()
        for seq in (1, 2, 3):
            src.send(NocMessage(dst=(1, 0), src=(0, 0),
                                metadata=self.make_meta(seq),
                                data=bytes(10)))
        sim.run_until(lambda: len(collector.received) == 3,
                      max_cycles=500)
        assert [e.seq for e in log_tile.entries] == [1, 2, 3]
        assert all(e.direction == "rx" for e in log_tile.entries)
        # Cycle timestamps are monotonically increasing.
        cycles = [e.cycle for e in log_tile.entries]
        assert cycles == sorted(cycles)

    def test_readback_over_noc(self):
        sim, src, log_tile, collector = logger_fixture()
        src.send(NocMessage(dst=(1, 0), src=(0, 0),
                            metadata=self.make_meta(42), data=b""))
        sim.run(60)
        src.send(NocMessage(dst=(1, 0), src=(0, 0),
                            metadata=LogReadReq(index=0,
                                                reply_to=(2, 0))))
        sim.run_until(
            lambda: any(isinstance(m.metadata, LogReadResp)
                        for m in collector.received),
            max_cycles=500,
        )
        resp = [m for m in collector.received
                if isinstance(m.metadata, LogReadResp)][0]
        assert resp.metadata.entry.seq == 42
        assert LogEntry.unpack(resp.data).seq == 42

    def test_read_past_end_returns_empty(self):
        sim, src, log_tile, collector = logger_fixture()
        src.send(NocMessage(dst=(1, 0), src=(0, 0),
                            metadata=LogReadReq(index=5,
                                                reply_to=(2, 0))))
        sim.run_until(lambda: collector.received, max_cycles=500)
        resp = collector.received[0].metadata
        assert resp.entry is None and resp.total == 0

    def test_capacity_is_a_ring(self):
        sim, src, log_tile, collector = logger_fixture(capacity=2)
        for seq in range(4):
            src.send(NocMessage(dst=(1, 0), src=(0, 0),
                                metadata=self.make_meta(seq), data=b""))
        sim.run_until(lambda: len(collector.received) == 4,
                      max_cycles=800)
        assert [e.seq for e in log_tile.entries] == [2, 3]

    def test_full_request_buffer_drops(self):
        sim, src, log_tile, collector = logger_fixture(request_buffer=0)
        src.send(NocMessage(dst=(1, 0), src=(0, 0),
                            metadata=LogReadReq(index=0,
                                                reply_to=(2, 0))))
        sim.run(300)
        assert not collector.received
        assert log_tile.dropped_requests == 1


MAC = MacAddress("02:00:00:00:00:01")


class TestDistributionTiles:
    def test_round_robin_scheduler(self):
        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(4, 1)
        src = mesh.attach((0, 0))
        scheduler = RoundRobinSchedulerTile("sched", mesh, (1, 0))
        replica_a = Collector("a", mesh, (2, 0))
        replica_b = Collector("b", mesh, (3, 0))
        scheduler.add_replica(replica_a.coord)
        scheduler.add_replica(replica_b.coord)
        mesh.register(sim)
        sim.add_all([scheduler, replica_a, replica_b])
        for i in range(10):
            src.send(NocMessage(dst=(1, 0), src=(0, 0), metadata=i,
                                data=b""))
        sim.run_until(
            lambda: len(replica_a.received) + len(replica_b.received)
            == 10,
            max_cycles=1000,
        )
        assert len(replica_a.received) == 5
        assert len(replica_b.received) == 5

    def test_flow_lb_sticky_and_spread(self):
        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(3, 2)
        lb = FlowHashLoadBalancerTile("lb", mesh, (0, 0))
        stack_a = Collector("sa", mesh, (1, 0))
        stack_b = Collector("sb", mesh, (2, 0))
        lb.add_stack(stack_a.coord)
        lb.add_stack(stack_b.coord)
        mesh.register(sim)
        sim.add_all([lb, stack_a, stack_b])
        ip_a = IPv4Address("10.0.0.1")
        ip_b = IPv4Address("10.0.0.10")
        frames = [
            build_ipv4_udp_frame(MAC, MAC, ip_a, ip_b, port, 7, b"x")
            for port in range(20)
        ]
        for frame in frames + frames:  # same flows twice
            lb.push_frame(frame, 0)
        sim.run_until(
            lambda: len(stack_a.received) + len(stack_b.received) == 40,
            max_cycles=2000,
        )
        # Both stacks got traffic, and each flow went to one stack only.
        assert stack_a.received and stack_b.received
        counts = {}
        for tile in (stack_a, stack_b):
            for message in tile.received:
                key = bytes(message.data)
                counts.setdefault(key, set()).add(tile.name)
        assert all(len(stacks) == 1 for stacks in counts.values())

    def test_lb_throughput_is_paper_limit(self):
        """4 cycles per 64 B packet -> 32 Gbps (section VII-I)."""
        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(2, 1)
        lb = FlowHashLoadBalancerTile("lb", mesh, (0, 0))
        sink = Collector("sink", mesh, (1, 0))
        lb.add_stack(sink.coord)
        mesh.register(sim)
        sim.add_all([lb, sink])
        frame = build_ipv4_udp_frame(MAC, MAC, IPv4Address("10.0.0.1"),
                                     IPv4Address("10.0.0.2"), 1, 7,
                                     bytes(64))
        n = 100
        for _ in range(n):
            lb.push_frame(frame, 0)
        cycles = sim.run_until(
            lambda: len(sink.received) == n, max_cycles=5000
        )
        per_packet = cycles / n
        assert 4.0 <= per_packet <= 5.0
