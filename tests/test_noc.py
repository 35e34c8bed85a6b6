"""Tests for the NoC substrate: flits, messages, routing, routers, mesh."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import (
    Flit,
    FlitKind,
    Mesh,
    MessageAssembler,
    NocMessage,
    Port,
    xy_route,
    xy_route_path,
)
from repro.sim.kernel import CycleSimulator, no_commit


class Drain:
    """Clocked helper that drains one local port into a list."""

    def __init__(self, port):
        self.port = port
        self.messages = []

    def step(self, cycle):
        message = self.port.receive(cycle)
        if message is not None:
            self.messages.append(message)

    commit = no_commit


def build(width=4, height=4):
    """An object mesh, on the kernel that commits its routers."""
    sim = CycleSimulator(kernel="naive")
    mesh = Mesh(width, height)
    return sim, mesh


class TestMessageEncoding:
    def test_flit_counts(self):
        msg = NocMessage(dst=(0, 0), src=(1, 1), metadata="m",
                         data=bytes(130))
        assert msg.n_data_flits == 3
        assert msg.n_flits == 5  # header + meta + 3 data

    @pytest.mark.parametrize("n_meta", [0, 1, 2])
    def test_n_flits_is_the_encoded_length(self, n_meta):
        """The integer formula behind ``n_flits`` (also inlined by the
        flat tile engine) against the encoder, across every flit
        boundary up to four data flits and one byte."""
        for size in range(4 * 64 + 2):
            msg = NocMessage(dst=(0, 0), src=(1, 1), data=bytes(size),
                             n_meta_flits=n_meta)
            flits = msg.to_flits()
            assert msg.n_flits == len(flits), size
            assert msg.n_data_flits == len(flits) - 1 - n_meta
            assert [f.is_head for f in flits] == \
                [True] + [False] * (len(flits) - 1)
            assert [f.is_tail for f in flits] == \
                [False] * (len(flits) - 1) + [True]
            assert b"".join(f.payload for f in flits
                            if f.kind is FlitKind.DATA) == bytes(size)

    def test_empty_message(self):
        msg = NocMessage(dst=(0, 0), src=(0, 0), n_meta_flits=0)
        flits = msg.to_flits()
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail

    def test_flit_sequence_shape(self):
        msg = NocMessage(dst=(2, 0), src=(0, 0), metadata={"x": 1},
                         data=bytes(65))
        flits = msg.to_flits()
        assert [f.kind for f in flits] == [
            FlitKind.HEADER, FlitKind.METADATA, FlitKind.DATA,
            FlitKind.DATA,
        ]
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail
        assert sum(f.is_tail for f in flits) == 1

    def test_assembler_roundtrip(self):
        msg = NocMessage(dst=(1, 1), src=(0, 0), metadata=("a", 3),
                         data=bytes(range(200)) + bytes(56))
        assembler = MessageAssembler()
        out = None
        for flit in msg.to_flits():
            result = assembler.push(flit)
            if result is not None:
                out = result
        assert out is not None
        assert out.data == msg.data
        assert out.metadata == msg.metadata
        assert out.msg_id == msg.msg_id

    def test_assembler_rejects_interleaving(self):
        m1 = NocMessage(dst=(0, 0), src=(0, 0), data=bytes(128))
        m2 = NocMessage(dst=(0, 0), src=(0, 0), data=bytes(128))
        assembler = MessageAssembler()
        assembler.push(m1.to_flits()[0])
        with pytest.raises(ValueError):
            assembler.push(m2.to_flits()[0])

    def test_assembler_rejects_headless_body(self):
        msg = NocMessage(dst=(0, 0), src=(0, 0), data=bytes(64))
        with pytest.raises(ValueError):
            MessageAssembler().push(msg.to_flits()[1])

    def test_oversized_data_flit_rejected(self):
        with pytest.raises(ValueError):
            Flit(kind=FlitKind.DATA, is_head=False, is_tail=True,
                 dst=(0, 0), src=(0, 0), msg_id=1, payload=bytes(65))

    @given(data=st.binary(max_size=1000),
           n_meta=st.integers(0, 3))
    @settings(max_examples=50)
    def test_encode_decode_property(self, data, n_meta):
        msg = NocMessage(dst=(3, 2), src=(0, 1), metadata="meta",
                         data=data, n_meta_flits=n_meta)
        assembler = MessageAssembler()
        out = None
        for flit in msg.to_flits():
            out = assembler.push(flit) or out
        assert out.data == data
        assert out.n_meta_flits == n_meta


class TestXYRouting:
    def test_x_before_y(self):
        assert xy_route((0, 0), (2, 2)) == Port.EAST
        assert xy_route((2, 0), (2, 2)) == Port.SOUTH
        assert xy_route((2, 2), (0, 0)) == Port.WEST
        assert xy_route((0, 2), (0, 0)) == Port.NORTH
        assert xy_route((1, 1), (1, 1)) == Port.LOCAL

    def test_path_enumeration(self):
        path = xy_route_path((0, 0), (2, 1))
        assert path == [
            ((0, 0), Port.EAST),
            ((1, 0), Port.EAST),
            ((2, 0), Port.SOUTH),
            ((2, 1), Port.LOCAL),
        ]

    def test_path_to_self(self):
        assert xy_route_path((1, 1), (1, 1)) == [((1, 1), Port.LOCAL)]

    @given(sx=st.integers(0, 7), sy=st.integers(0, 7),
           dx=st.integers(0, 7), dy=st.integers(0, 7))
    def test_path_length_is_manhattan(self, sx, sy, dx, dy):
        path = xy_route_path((sx, sy), (dx, dy))
        assert len(path) == abs(sx - dx) + abs(sy - dy) + 1

    def test_opposite_ports(self):
        assert Port.EAST.opposite == Port.WEST
        assert Port.NORTH.opposite == Port.SOUTH


class TestMeshDelivery:
    def test_point_to_point(self):
        sim, mesh = build()
        src = mesh.attach((0, 0))
        dst_port = mesh.attach((3, 3))
        mesh.register(sim)
        drain = Drain(dst_port)
        sim.add(drain)
        src.send(NocMessage(dst=(3, 3), src=(0, 0), metadata="hi",
                            data=b"abc"))
        sim.run_until(lambda: drain.messages, max_cycles=100)
        assert drain.messages[0].metadata == "hi"
        assert drain.messages[0].data == b"abc"

    def test_point_to_point_ordering(self):
        """The NoC must be point-to-point ordered (paper section IV-A)."""
        sim, mesh = build()
        src = mesh.attach((0, 0))
        dst_port = mesh.attach((3, 2))
        mesh.register(sim)
        drain = Drain(dst_port)
        sim.add(drain)
        for i in range(20):
            src.send(NocMessage(dst=(3, 2), src=(0, 0), metadata=i,
                                data=bytes(i * 16)))
        sim.run_until(lambda: len(drain.messages) == 20, max_cycles=2000)
        assert [m.metadata for m in drain.messages] == list(range(20))

    def test_many_to_one_all_arrive(self):
        sim, mesh = build()
        senders = [mesh.attach((x, 0)) for x in range(4)]
        sink_port = mesh.attach((3, 3))
        mesh.register(sim)
        drain = Drain(sink_port)
        sim.add(drain)
        for i, sender in enumerate(senders):
            for j in range(5):
                sender.send(NocMessage(dst=(3, 3), src=sender.coord,
                                       metadata=(i, j), data=bytes(100)))
        sim.run_until(lambda: len(drain.messages) == 20, max_cycles=5000)
        # per-sender order preserved even under contention
        for i in range(4):
            seq = [m.metadata[1] for m in drain.messages
                   if m.metadata[0] == i]
            assert seq == sorted(seq)

    def test_wormhole_no_interleaving_at_ejection(self):
        """Body flits of two messages never interleave on one link."""
        sim, mesh = build()
        a = mesh.attach((0, 0))
        b = mesh.attach((0, 1))
        sink_port = mesh.attach((3, 0))
        mesh.register(sim)
        drain = Drain(sink_port)  # raises inside assembler on interleave
        sim.add(drain)
        for sender in (a, b):
            for _ in range(5):
                sender.send(NocMessage(dst=(3, 0), src=sender.coord,
                                       data=bytes(512)))
        sim.run_until(lambda: len(drain.messages) == 10, max_cycles=5000)

    def test_all_pairs_delivery(self):
        sim, mesh = build(3, 3)
        ports = {coord: mesh.attach(coord) for coord in mesh.routers}
        mesh.register(sim)
        drains = {coord: Drain(port) for coord, port in ports.items()}
        sim.add_all(drains.values())
        expected = 0
        for src_coord, port in ports.items():
            for dst_coord in ports:
                if src_coord == dst_coord:
                    continue
                port.send(NocMessage(dst=dst_coord, src=src_coord,
                                     metadata=src_coord, data=b"x"))
                expected += 1
        sim.run_until(
            lambda: sum(len(d.messages) for d in drains.values())
            == expected,
            max_cycles=5000,
        )
        for dst_coord, drain in drains.items():
            sources = {m.metadata for m in drain.messages}
            assert len(sources) == 8  # heard from everyone else

    def test_throughput_one_flit_per_cycle(self):
        """A single stream sustains one flit per link per cycle."""
        sim, mesh = build(2, 1)
        src = mesh.attach((0, 0))
        dst_port = mesh.attach((1, 0), eject_depth=8)
        mesh.register(sim)
        drain = Drain(dst_port)
        sim.add(drain)
        n_messages = 20
        flits_each = 1 + 1 + 4  # header + meta + 4 data
        for i in range(n_messages):
            src.send(NocMessage(dst=(1, 0), src=(0, 0), metadata=i,
                                data=bytes(256)))
        cycles = sim.run_until(
            lambda: len(drain.messages) == n_messages, max_cycles=500
        )
        # Perfect streaming would take n*flits cycles (+ small constant).
        assert cycles <= n_messages * flits_each + 10

    def test_backpressure_no_loss(self):
        """A slow consumer loses nothing; flow control backpressures."""
        sim, mesh = build(2, 1)
        src = mesh.attach((0, 0))
        dst_port = mesh.attach((1, 0), eject_depth=2)
        mesh.register(sim)

        class SlowDrain:
            def __init__(self, port):
                self.port = port
                self.messages = []
                self._tick = 0

            def step(self, cycle):
                self._tick += 1
                if self._tick % 7 == 0:  # drain every 7th cycle only
                    message = self.port.receive(cycle)
                    if message is not None:
                        self.messages.append(message)

            commit = no_commit

        drain = SlowDrain(dst_port)
        sim.add(drain)
        for i in range(10):
            src.send(NocMessage(dst=(1, 0), src=(0, 0), metadata=i,
                                data=bytes(128)))
        sim.run_until(lambda: len(drain.messages) == 10, max_cycles=5000)
        assert [m.metadata for m in drain.messages] == list(range(10))

    def test_bad_attach_coord(self):
        _, mesh = build(2, 2)
        with pytest.raises(KeyError):
            mesh.attach((5, 5))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            Mesh(0, 3)

    def test_attach_is_idempotent(self):
        _, mesh = build(2, 2)
        assert mesh.attach((0, 0)) is mesh.attach((0, 0))

    def test_router_stats_count_flits(self):
        sim, mesh = build(2, 1)
        src = mesh.attach((0, 0))
        dst_port = mesh.attach((1, 0))
        mesh.register(sim)
        drain = Drain(dst_port)
        sim.add(drain)
        src.send(NocMessage(dst=(1, 0), src=(0, 0), data=bytes(64)))
        sim.run_until(lambda: drain.messages, max_cycles=100)
        # 3 flits crossed router (0,0) east and router (1,0) local.
        assert mesh.routers[(0, 0)].flits_per_output[Port.EAST] == 3
        assert mesh.routers[(1, 0)].flits_per_output[Port.LOCAL] == 3


class TestYxRouting:
    def test_yx_routes_y_first(self):
        from repro.noc.routing import yx_route, yx_route_path
        assert yx_route((0, 0), (2, 2)) == Port.SOUTH
        assert yx_route((0, 2), (2, 2)) == Port.EAST
        path = yx_route_path((0, 0), (2, 1))
        assert path == [
            ((0, 0), Port.SOUTH),
            ((0, 1), Port.EAST),
            ((1, 1), Port.EAST),
            ((2, 1), Port.LOCAL),
        ]

    def test_routings_take_different_links(self):
        from repro.noc.routing import xy_route_path, yx_route_path
        xy = set(xy_route_path((0, 0), (2, 2)))
        yx = set(yx_route_path((0, 0), (2, 2)))
        assert xy != yx
        # Same endpoints, same hop count, different corners.
        assert len(xy) == len(yx)

    def test_yx_mesh_delivers_in_order(self):
        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(3, 3, routing="yx")
        src = mesh.attach((0, 0))
        dst_port = mesh.attach((2, 2))
        mesh.register(sim)
        drain = Drain(dst_port)
        sim.add(drain)
        for i in range(10):
            src.send(NocMessage(dst=(2, 2), src=(0, 0), metadata=i,
                                data=bytes(64)))
        sim.run_until(lambda: len(drain.messages) == 10,
                      max_cycles=2000)
        assert [m.metadata for m in drain.messages] == list(range(10))

    def test_bad_routing_name(self):
        with pytest.raises(ValueError, match="unknown routing"):
            Mesh(2, 2, routing="adaptive")

    def test_analysis_respects_route_function(self):
        """Safety is a property of placement *and* routing: the Fig 5b
        placement is safe under XY, and an analysis under YX of a
        vertically-laid-out chain shows the dual behaviour."""
        from repro.analysis.deadlock import analyze_chains
        from repro.noc.routing import yx_route

        # Fig 5a rotated 90 degrees: a column layout that reuses a
        # vertical link under YX routing.
        coords = {"eth": (0, 0), "ip": (0, 2), "udp": (0, 1),
                  "app": (0, 3)}
        chain = [["eth", "ip", "udp", "app"]]
        assert analyze_chains(chain, coords,
                              route_fn=yx_route) is not None
        safe = {"eth": (0, 0), "ip": (0, 1), "udp": (0, 2),
                "app": (0, 3)}
        assert analyze_chains(chain, safe, route_fn=yx_route) is None
