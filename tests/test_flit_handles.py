"""Flit handles: what the flat mesh moves instead of ``Flit`` objects.

On a ``FlatMesh`` a flit in flight is an int (``repro.noc.flit``:
``seq << 33 | head << 32 | flits still to come``, tail negated) and the
message travels once, by reference, in ``FlatMeshCore._inflight``.
These tests pin the representation against the object mesh — the
reference, which still encodes every message with ``to_flits()`` —
hop by hop under a tracer that records what each flit *is*, and pin
the point of it: nothing on the default path builds a ``Flit``.
"""

import random

import pytest

from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.faults.engine import _EjectFault
from repro.noc import message as message_module
from repro.noc.flatmesh import FlatMesh
from repro.noc.flit import (
    HANDLE_HEAD,
    HANDLE_SEQ_SHIFT,
    Flit,
    FlitKind,
    decode_handle,
)
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage, reset_id_counters
from repro.noc.routing import Port
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.sim.kernel import CycleSimulator
from repro.telemetry.trace import Tracer, attach_tracer
from repro.tiles.base import Tile
from repro.tiles.flatcore import register_tiles

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")
MESHES = {"object": Mesh, "flat": FlatMesh}

FIELDS = ("dst", "src", "metadata", "data", "n_meta_flits", "msg_id",
          "packet_id")


class HopTracer(Tracer):
    """Records what crossed each link, field by field."""

    def flit_forwarded(self, cycle, coord, port, flit):
        self.link_flits.append((
            cycle, coord, port, flit.kind, flit.is_head, flit.is_tail,
            flit.msg_id,
            bytes(flit.payload) if flit.kind is FlitKind.DATA else None))


@pytest.fixture
def flit_count(monkeypatch):
    """Counts ``Flit.__init__`` calls for the length of a test."""
    built = [0]
    init = Flit.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Flit, "__init__", counting)
    return built


def raw_mesh(backend, width=2, attach=((0, 0), (1, 0)), traced=True):
    """The flat mesh under the scheduled kernel or the object mesh
    under the naive one, its ports attached."""
    reset_id_counters()
    sim = CycleSimulator(kernel="naive" if backend == "object"
                         else "scheduled")
    mesh = MESHES[backend](width, 1)
    ports = {coord: mesh.attach(coord) for coord in attach}
    mesh.register(sim)
    tracer = HopTracer() if traced else None
    if traced:
        for router in mesh.routers.values():
            router.tracer = tracer
    return sim, mesh, ports, tracer


def drain(sim, mesh, ports, cycles, script=None):
    """Tick, run ``script[cycle]`` before its cycle, receive at every
    port each cycle; the flat core's table is checked throughout."""
    received = []
    for cycle in range(cycles):
        if script and cycle in script:
            script[cycle]()
        sim.run(1)
        core = getattr(mesh, "core", None)
        if core is not None:
            assert core.check_invariants(sim.cycle) == []
        for coord, port in ports.items():
            message = port.receive()
            if message is not None:
                received.append((cycle, coord, message))
    return received


def fields(message):
    return tuple(getattr(message, name) for name in FIELDS)


def test_handle_format_round_trips():
    base = 7 << HANDLE_SEQ_SHIFT
    assert decode_handle(base | HANDLE_HEAD | 23) == (7, True, False, 23)
    assert decode_handle(base + 5) == (7, False, False, 5)
    assert decode_handle(-base) == (7, False, True, 0)
    assert decode_handle(-(base | HANDLE_HEAD)) == (7, True, True, 0)


def echo_run(profile, frames=20):
    reset_id_counters()
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None,
                           profile=profile)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                 CLIENT_IP, design.server_ip, 5555, 7,
                                 bytes(range(256)) * 5 + bytes(178))
    source = FrameSource(design.inject, lambda i: frame, rate=None,
                         count=frames)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    design.sim.run_until(lambda: sink.count >= frames, max_cycles=40_000)
    assert sink.count == frames
    return design, list(sink.frames)


def test_the_default_path_builds_no_flit(flit_count):
    design, flat_frames = echo_run("fast")
    assert flit_count[0] == 0
    core = design.mesh.core
    assert not core._inflight and not core._observed
    design, object_frames = echo_run("reference")
    injected = sum(port.flits_injected
                   for port in design.mesh.ports.values())
    assert flit_count[0] == injected > 20 * 24
    assert flat_frames == object_frames


@pytest.mark.parametrize("n_meta", [0, 1, 2])
@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 1458, 9000])
def test_every_message_shape_matches_the_object_mesh(length, n_meta):
    payload = bytes(i * 7 & 0xFF for i in range(length))

    def run(backend):
        sim, mesh, ports, tracer = raw_mesh(backend)
        sent = NocMessage(dst=(1, 0), src=(0, 0), metadata=("meta", 1),
                          data=payload, n_meta_flits=n_meta,
                          packet_id=99)
        ports[(0, 0)].send(sent)
        received = drain(sim, mesh, ports, length // 64 + 12)
        assert len(received) == 1
        cycle, coord, message = received[0]
        assert message is not sent and coord == (1, 0)
        assert len(tracer.link_flits) == 2 * sent.n_flits
        return cycle, fields(message), tracer.link_flits

    flat = run("flat")
    assert flat == run("object")
    assert flat[1][3] == payload and type(flat[1][3]) is bytes
    # A message without metadata flits delivers no metadata.
    assert flat[1][2] == (("meta", 1) if n_meta else None)


@pytest.mark.parametrize("backend", ["object", "flat"])
def test_one_message_object_sent_to_two_destinations(backend):
    """``msg_id`` is not unique among messages in flight — which is why
    the table is keyed by an injection sequence number."""
    sim, mesh, ports, _ = raw_mesh(backend, 3, [(0, 0), (1, 0), (2, 0)])
    message = NocMessage(dst=(2, 0), src=(0, 0), metadata="twice",
                         data=bytes(range(200)))
    source = ports[(0, 0)]
    source.send(message)

    def resend():
        message.dst = (1, 0)
        source.send(message)

    # Cycle 1: the first copy is mid-injection, bound for (2, 0).
    received = drain(sim, mesh, ports, 40, {1: resend})
    assert sorted((coord, m.dst) for _, coord, m in received) == [
        ((1, 0), (1, 0)), ((2, 0), (2, 0))]
    for _, _, copy in received:
        assert copy is not message
        assert (copy.msg_id, copy.metadata, copy.data) == (
            message.msg_id, "twice", bytes(range(200)))


@pytest.mark.parametrize("backend", ["object", "flat"])
def test_sender_mutations_after_injection_start_are_not_delivered(
        backend):
    sim, mesh, ports, _ = raw_mesh(backend, 3, [(0, 0), (1, 0), (2, 0)])
    payload = bytearray(range(200))
    message = NocMessage(dst=(1, 0), src=(0, 0), metadata="before",
                         data=payload)
    ports[(0, 0)].send(message)

    def mutate():
        payload[:] = bytes(200)
        message.dst = (2, 0)
        message.metadata = "after"

    received = drain(sim, mesh, ports, 40, {1: mutate})
    assert [(coord, m.dst, m.metadata, m.data)
            for _, coord, m in received] == [
        ((1, 0), (1, 0), "before", bytes(range(200)))]


def test_non_bytes_payload_is_refused_at_injection_start():
    for backend in ("object", "flat"):
        sim, mesh, ports, _ = raw_mesh(backend)
        ports[(0, 0)].send(NocMessage(dst=(1, 0), src=(0, 0),
                                      data="not bytes"))
        with pytest.raises(TypeError, match="bytes-like"):
            sim.run(2)


class _FaultLog:
    def __init__(self):
        self.log = []

    def record(self, kind, target=None, detail=None):
        self.log.append((kind, target, detail))


def test_flit_corruption_matches_the_object_mesh(flit_count):
    """A port with a fault filter is an observer: it decodes each
    handle to the message's ``Flit``, filters it, and reassembles from
    the (possibly corrupted) payloads as the object mesh does."""
    def run(backend):
        sim, mesh, ports, _ = raw_mesh(backend, traced=False)
        engine = _FaultLog()
        ports[(1, 0)]._fault_eject = _EjectFault(
            engine, (1, 0), 0.2, random.Random(1234))
        for i in range(6):
            ports[(0, 0)].send(NocMessage(
                dst=(1, 0), src=(0, 0), metadata=i,
                data=bytes([i]) * (300 + 64 * i)))
        received = drain(sim, mesh, ports, 120)
        assert len(received) == 6
        return ([(cycle, fields(m)) for cycle, _, m in received],
                engine.log)

    flat, flat_log = run("flat")
    built = flit_count[0]
    obj, obj_log = run("object")
    assert flat == obj and flat_log == obj_log
    assert len(flat_log) > 3
    assert any(data != bytes([meta]) * len(data)
               for _, (_, _, meta, data, *_) in flat)
    # Built once per message on both sides, never per hop.
    assert built == flit_count[0] - built


class OnCycleSink(Tile):
    """``on_cycle`` is overridden, so ``FlatTileCore`` runs this tile in
    object mode: ``Tile._pump_eject`` -> ``LocalPort.receive``."""

    def __init__(self, name, mesh, coord, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.received = []

    def on_cycle(self, cycle):
        pass

    def handle_message(self, message, cycle):
        self.received.append(message)
        return []


def test_object_mode_tile_receives_through_the_handle_branch(flit_count):
    reset_id_counters()
    sim = CycleSimulator()
    mesh = FlatMesh(2, 1)
    source = mesh.attach((0, 0))
    sink = OnCycleSink("sink", mesh, (1, 0))
    mesh.register(sim)
    core = register_tiles(sim, [sink])
    assert core.view("sink").mode == "object"
    sent = NocMessage(dst=(1, 0), src=(0, 0), metadata="m",
                      data=bytes(range(150)))
    source.send(sent)
    sim.run(30)
    assert flit_count[0] == 0
    # (The tile stamps a packet_id on what it services.)
    assert [fields(m)[:-1] for m in sink.received] == [fields(sent)[:-1]]
    assert sink.received[0] is not sent
    assert sink.port.messages_received == 1
    assert not mesh.core._inflight


def framing_cases():
    base = 5 << HANDLE_SEQ_SHIFT
    other = 6 << HANDLE_SEQ_SHIFT
    return [
        ([base | HANDLE_HEAD | 2, other | HANDLE_HEAD | 1],
         "header handle of injection #6 arrived mid-message"),
        ([base | HANDLE_HEAD | 2, other + 1],
         "interleaved handle of injection #6 inside injection #5"),
        ([base + 1], "body handle of injection #5 without a header"),
    ]


@pytest.mark.parametrize("handles, error", framing_cases())
def test_broken_wormhole_framing_raises_at_the_port(handles, error):
    _, _, ports, _ = raw_mesh("flat")
    port = ports[(1, 0)]
    port.eject_fifo._items.extend(handles)
    with pytest.raises(ValueError, match=error):
        for _ in handles:
            port.receive()


@pytest.mark.parametrize("handles, error", framing_cases())
def test_broken_wormhole_framing_raises_in_the_tile_core(handles, error):
    sim = CycleSimulator()
    mesh = FlatMesh(2, 1)
    sink = Tile("sink", mesh, (1, 0))
    mesh.register(sim)
    core = register_tiles(sim, [sink])
    assert core.view("sink").mode == "fast"
    sink.port.eject_fifo._items.extend(handles)
    with pytest.raises(ValueError, match=error):
        for cycle in range(len(handles)):
            core.step(cycle)


@pytest.mark.parametrize("backend", ["object", "flat"])
def test_reassembly_does_not_burn_a_msg_id(backend):
    sim, mesh, ports, _ = raw_mesh(backend, traced=False)
    count = 5
    for i in range(count):
        ports[(0, 0)].send(NocMessage(dst=(1, 0), src=(0, 0),
                                      data=bytes(100 + i)))
    received = drain(sim, mesh, ports, 60)
    assert [m.msg_id for _, _, m in received] == list(range(1, count + 1))
    assert next(message_module._msg_counter) == count + 1


def test_ring_view_peek_returns_the_flit():
    sim, mesh, ports, _ = raw_mesh("flat", 3, [(0, 0), (2, 0)],
                                   traced=False)
    sent = NocMessage(dst=(2, 0), src=(0, 0), metadata="m",
                      data=bytes(range(100)))
    ports[(0, 0)].send(sent)
    sim.run(2)
    west = mesh.routers[(1, 0)].inputs[Port.WEST]
    assert len(west) > 0
    flit = west.peek()
    assert isinstance(flit, Flit)
    assert flit.is_head and (flit.dst, flit.msg_id) == ((2, 0),
                                                        sent.msg_id)
    assert west.peek() is flit  # built once per message
    drain(sim, mesh, ports, 20)
    assert not mesh.core._inflight and not mesh.core._observed


def test_raw_flit_in_a_flat_local_input_names_the_way_in():
    sim, mesh, ports, _ = raw_mesh("flat", traced=False)
    ports[(0, 0)].send(NocMessage(dst=(1, 0), src=(0, 0)))  # 2 flits
    sim.run(2)
    local = mesh.routers[(0, 0)].inputs[Port.LOCAL]
    assert len(local) == 1  # the tail; a raw flit queues behind it
    local.push(Flit(FlitKind.HEADER, True, True, (1, 0), (0, 0), 77))
    local.commit()
    with pytest.raises(TypeError, match="LocalPort.send"):
        sim.run(3)


def test_check_invariants_audits_the_table():
    sim, mesh, ports, _ = raw_mesh("flat", 3, [(0, 0), (2, 0)])
    ports[(0, 0)].send(NocMessage(dst=(2, 0), src=(0, 0),
                                  data=bytes(640)))
    sim.run(5)
    core = mesh.core
    assert core.check_invariants(sim.cycle) == []
    (seq, message), = core._inflight.items()
    assert seq in core._observed  # the tracer looked

    del core._inflight[seq]
    problems = core.check_invariants(sim.cycle)
    assert len(problems) == 2
    assert "names no in-flight message" in problems[0]
    assert "observed flits" in problems[1]
    core._inflight[seq] = message

    core._inflight[seq + 1] = message
    assert core.check_invariants(sim.cycle) == [
        f"in-flight message #{seq + 1} is named by no handle (leaked)"]
    del core._inflight[seq + 1]

    pending = ports[(0, 0)]._pending_flits
    pending.rotate(1)
    assert any("out of sequence" in p for p in core.check_invariants(sim.cycle))
    pending.rotate(-1)
    assert core.check_invariants(sim.cycle) == []


def test_a_drained_traced_run_leaves_the_tables_empty():
    reset_id_counters()
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    tracer = attach_tracer(design, Tracer())
    frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                 CLIENT_IP, design.server_ip, 5555, 7,
                                 bytes(700))
    source = FrameSource(design.inject, lambda i: frame, rate=None,
                         count=8)
    sink = FrameSink(design.eth_tx)
    design.sim.add(source)
    design.sim.add(sink)
    design.sim.run(4000)
    assert sink.count == 8 and tracer.link_flits
    core = design.mesh.core
    assert not core._inflight and not core._observed
    assert core.check_invariants() == []
    assert core._seq
