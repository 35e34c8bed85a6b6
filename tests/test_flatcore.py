"""Unit tests for the flat tile engine (``repro.tiles.flatcore``).

The cross-backend bit-identity is pinned by
``test_kernel_equivalence``; these tests cover the core's own API —
adoption, fast/object mode classification, scheduling, wake plumbing,
``register_tiles`` — the structural-lint interplay (double-stepping an
adopted tile is a BHV106), and the tile<->mesh edge: the flat mesh
wakes a tile only when it ejects into an empty FIFO, so every way a
tile can sit on a non-empty FIFO (streaming, frozen, link-stalled,
object mode, pruned between frames) is run on the flat engines and
compared flit for flit with an object mesh and individually registered
tiles.  The raw chains here are built by hand (``MESHES[...]`` and
``register_tiles`` or ``sim.add``), the flat mesh under the scheduled
kernel and the object mesh under the naive one: with the design-level
runs on the two profiles they are what says whether a divergence is
the kernel's or the engines'.
"""

import gc
import inspect
import random
import sys
from array import array
from types import SimpleNamespace

import pytest

from repro.analysis.demo import BrokenWakeEchoTile, CountingSinkTile
from repro.analysis.structural import run as lint
from repro.analysis.wake import run as wake_lint
from repro.designs import (
    FrameSink,
    FrameSource,
    ScaledEchoDesign,
    attach_client,
    client_frame,
)
from repro.designs.udp_stack import UdpEchoDesign
from repro.designs.tcp_stack import TcpServerDesign
from repro.faults import FaultPlan
from repro.loadgen.flows import build_competing_flows
from repro.noc.flatmesh import FlatMesh, compiled
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage, reset_id_counters
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.sim.kernel import NEVER, CycleSimulator
from repro.telemetry.trace import Tracer, attach_tracer
from repro.tiles.base import Tile
from repro.tiles.flatcore import FlatTileCore, register_tiles
from repro.tiles.ip import IpRxTile

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")
MESHES = {"object": Mesh, "flat": FlatMesh}


def echo_design(**kwargs):
    design = UdpEchoDesign(udp_port=7, **kwargs)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    return design


def scheduling(core, tile):
    """``tile``'s scheduling state, read off the core's own arrays: on
    the inlined pumps (``fast``), its busy byte, its armed deadline (-1
    when unarmed)."""
    i = core.tiles.index(tile)
    return SimpleNamespace(fast=core._fabric[i][6], busy=core._busy[i],
                           deadline=core._deadlines[i])


def echo_frame(design, payload=b"ping"):
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                CLIENT_IP, design.server_ip,
                                5555, 7, payload)


class TestRegisterTiles:
    def test_flat_returns_core_object_returns_none(self):
        flat = echo_design(profile="fast")
        assert isinstance(flat.tile_core, FlatTileCore)
        assert len(flat.tile_core.tiles) == len(flat.tiles)

        obj = echo_design(profile="reference")
        assert obj.tile_core is None
        assert set(flat.tiles.values()) <= set(flat.tile_core.tiles)
        assert set(obj.tiles.values()) <= set(obj.sim.components)

    def test_unknown_backend_rejected(self):
        """There is no backend string left to get wrong: the old
        keywords are plain ``TypeError``s where they used to be taken
        (``test_flatmesh`` has the unknown *profile*)."""
        with pytest.raises(TypeError, match="kernel"):
            echo_design(kernel="naive")
        with pytest.raises(TypeError):
            register_tiles(CycleSimulator(), [], "flat")
        assert list(inspect.signature(CycleSimulator).parameters) == \
            ["kernel"]

    def test_dict_of_tiles_accepted(self):
        design = echo_design()
        sim = CycleSimulator()
        core = register_tiles(sim, design.tiles.values())
        assert [t.name for t in core.tiles] == list(design.tiles)

    def test_adopt_rejects_non_tiles(self):
        core = FlatTileCore()
        with pytest.raises(TypeError, match="adopt"):
            core.adopt(object())

    def test_adopt_rejects_a_tile_on_an_object_mesh(self):
        """The core inlines the handle branch of the port, which only a
        flat mesh feeds; a tile on an object ``Mesh`` used to take a
        slow path silently."""
        tile = Tile("lonely", Mesh(2, 1), (1, 0))
        with pytest.raises(TypeError, match="FlatMesh.*'lonely'"):
            FlatTileCore().adopt(tile)


class TestViews:

    def test_overriding_engine_hook_falls_back_to_object_mode(self):
        # The TCP TX engine overrides on_cycle (retransmit timers), so
        # the core must not inline it.
        design = TcpServerDesign()
        core = design.tile_core
        assert not scheduling(core, design.tcp_tx).fast
        assert scheduling(core, design.ip_tx).fast


class TestScheduling:
    def test_core_goes_idle_and_wakes_on_injection(self):
        design = echo_design()
        core = design.tile_core
        sim = design.sim
        sim.run(50)
        assert sim.wake_cycle(core) is None  # asleep until a wake
        assert not any(core._busy)
        design.inject(echo_frame(design), sim.cycle)
        # eth_rx's busy bit is set again, and the core is due now.
        assert core._busy.count(1) == 1
        assert sim.wake_cycle(core) == sim.cycle
        sim.run(500)
        assert len(design.eth_tx.frames_out) == 1
        assert not any(core._busy)

    def test_each_ejection_fifo_holds_one_hook_the_compiled_waker(self):
        """The tile's waker is its FIFO's only hook: the core declares
        no ``wake_sources`` for the kernel to hook a closure behind it."""
        design = echo_design()
        core = design.tile_core
        assert core.kernel_substeps() == list(design.tiles.values())
        assert not hasattr(core, "wake_sources")
        for tile in design.tiles.values():
            hook = tile._kernel_wake
            assert is_compiled_waker(hook)
            assert tile.port.eject_fifo._wakers == [hook]
            assert hook.component is core
        with pytest.raises(AttributeError):
            hook.component = None

    def test_a_member_hook_wakes_its_core_on_the_clear_to_set_edge_only(
            self):
        """A member hook sets its byte and calls the core's own hook
        only if the byte was clear: a set byte means the core is still
        due, so a second call would be a wasted wake."""
        calls = []
        core = SimpleNamespace(_kernel_wake=lambda: calls.append(1))
        busy = bytearray(2)
        hook = compiled().waker(core, busy, 1)
        hook()
        hook()
        assert (calls, busy) == ([1], bytearray([0, 1]))
        busy[1] = 0
        hook()
        assert len(calls) == 2

    def test_each_port_wakes_the_mesh_core_through_a_compiled_waker(self):
        design = echo_design()
        for port in design.mesh.ports.values():
            assert is_compiled_waker(port._kernel_wake)
            assert port._kernel_wake.component is design.mesh.core

    def test_one_ejection_into_a_sleeping_core_wakes_the_kernel_once(
            self, monkeypatch):
        calls = []
        make = CycleSimulator._waker_for

        def counted(sim, component, slot):
            wake = make(sim, component, slot)

            def counting():
                calls.append(component)
                wake()

            counting.component, counting.slot = component, slot
            return counting

        monkeypatch.setattr(CycleSimulator, "_waker_for", counted)
        sim, _mesh, source, sink, core, _tracer = raw_chain("flat", Sink)
        sim.run(20)
        assert sim.wake_cycle(core) is None
        source.send(NocMessage(dst=(1, 0), src=(0, 0), data=b"x"))
        fifo = sink.port.eject_fifo
        sim.run_until(lambda: len(fifo), max_cycles=50)
        assert calls.count(core) == 1
        sim.run(20)
        assert len(sink.received) == 1
        assert calls.count(core) == 1

    def test_a_tile_adopted_into_a_sleeping_core_is_stepped(self):
        """Adoption sets the tile's byte; unless it also wakes the core,
        a core asleep for good never steps again, and every later wake
        finds the byte already set."""
        sim = CycleSimulator()
        mesh = FlatMesh(3, 1)
        source = mesh.attach((0, 0))
        first = CountingSinkTile("first", mesh, (1, 0))
        mesh.register(sim)
        core = register_tiles(sim, [first])
        sim.run(20)
        assert sim.wake_cycle(core) is None
        late = CountingSinkTile("late", mesh, (2, 0))
        core.adopt(late)
        sim.run(20)
        source.send(NocMessage(dst=(2, 0), src=(0, 0), data=bytes(128)))
        sim.run(500)
        assert late.received == 1
        assert len(late.port.eject_fifo) == 0
        assert core.check_invariants() == []


class TestLintIntegration:
    def test_flat_design_lints_clean(self):
        for profile in ("reference", "fast"):
            design = echo_design(profile=profile)
            assert [f.code for f in lint(design)] == []

    def test_a_tile_whose_wake_sources_miss_its_fifo_is_flagged(self):
        """The core hooks a tile's waker onto what the tile's own
        ``wake_sources()`` names, so ``broken_wake``'s tile loses its
        wake-up inside the core as it does in a slot of its own."""
        sim = CycleSimulator()
        mesh = FlatMesh(2, 1)
        ingress = mesh.attach((0, 0))
        echo = BrokenWakeEchoTile("echo", mesh, (1, 0))
        mesh.register(sim)
        core = register_tiles(sim, [echo])
        design = SimpleNamespace(sim=sim, mesh=mesh, tiles={"echo": echo})
        assert [(f.code, f.location) for f in wake_lint(design)] == [
            ("BHV301", "flattiles"), ("BHV301", "flattiles/echo")]
        sim.run(20)
        ingress.send(NocMessage(dst=(1, 0), src=(0, 0), data=b"ping"))
        sim.run(200)
        assert echo.echoed == 0
        problems = core.check_invariants()
        assert len(problems) == 1
        assert "'echo' is not busy" in problems[0]

    def test_double_adoption_is_flagged(self):
        design = echo_design()
        second = FlatTileCore()
        second.adopt(design.eth_rx)
        design.sim.add(second)
        codes = [f.code for f in lint(design)
                 if f.code == "BHV106" and f.location == "eth_rx"]
        assert codes == ["BHV106"]

    def test_registered_and_adopted_is_flagged(self):
        design = echo_design()
        design.sim.add(design.udp_rx)
        codes = [f.code for f in lint(design)
                 if f.code == "BHV106" and f.location == "udp_rx"]
        assert codes == ["BHV106"]


# -- the tile<->mesh edge ------------------------------------------------------


class FlitTracer(Tracer):
    """Records which flit crossed each link, not just that one did."""

    def flit_forwarded(self, cycle, coord, port, flit):
        self.link_flits.append((cycle, coord, port, flit.msg_id,
                                flit.is_head, flit.is_tail))


def is_compiled_waker(hook):
    return type(hook) is type(compiled().waker(None, bytearray(), 0))


def counting_waker(fifo):
    """Append a waker that counts its calls; returns the tally list."""
    calls = []
    fifo.add_waker(lambda: calls.append(1))
    return calls


def observed(sim, mesh, tiles, tracer):
    """Everything the two backend pairs must agree on."""
    return {
        "cycle": sim.cycle,
        "flits": tracer.link_flits,
        "stalls": tracer.link_stalls,
        "spans": tracer.spans,
        "buffer_levels": tracer.buffer_levels,
        "input_high_water": {
            (coord, port.value): fifo.high_water
            for coord, router in mesh.routers.items()
            for port, fifo in router.inputs.items()},
        "eject_high_water": {
            coord: port.eject_fifo.high_water
            for coord, port in mesh.ports.items()},
        "tiles": {t.name: (t.messages_in, t.messages_out, t.bytes_in,
                           t.drops) for t in tiles},
    }


def faulted_echo(profile, plan, probe):
    """One MTU frame through a ``UdpEchoDesign`` under ``plan``; the
    ``fast`` run has both cores' invariants checked after every cycle
    and ``probe(design, wakes)`` called before each one."""
    reset_id_counters()
    design = echo_design(profile=profile, fault_plan=plan)
    tracer = attach_tracer(design, FlitTracer())
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    wakes = counting_waker(design.app.port.eject_fifo)
    design.inject(echo_frame(design, bytes(1400)), 1)
    for _ in range(600):
        probe(design, wakes)
        design.sim.run(1)
        if profile == "fast":
            assert design.mesh.core.check_invariants(
                design.sim.cycle) == []
            assert design.tile_core.check_invariants() == []
    assert sink.count == 1
    run = observed(design.sim, design.mesh, design.tiles.values(), tracer)
    run["frames"] = list(sink.frames)
    run["fault_log"] = list(design.fault_engine.log)
    return run, wakes


class Sink(Tile):
    def __init__(self, name, mesh, coord, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.received = []

    def handle_message(self, message, cycle):
        self.received.append((cycle, message))
        return []


class OnCycleSink(Sink):
    """Object mode: overriding ``on_cycle`` takes the tile off the
    inlined fast path (and makes the base ``step`` return None: due
    every cycle)."""

    def on_cycle(self, cycle):
        pass


class SloppySink(OnCycleSink):
    """... with a ``_due`` that forgets its ejection FIFO."""

    def _due(self):
        if self._rx_ready or self._in_service is not None:
            return None
        return NEVER


def add_tiles(sim, tiles, engine):
    """``"flat"``: one core for all of them; ``"object"``: a slot each."""
    if engine == "flat":
        return register_tiles(sim, tiles)
    sim.add_all(tiles)
    return None


def raw_chain(backend, sink_cls):
    """source port (0,0) -> ``sink_cls`` tile at (1,0), traced."""
    reset_id_counters()
    sim = CycleSimulator(kernel="naive" if backend == "object"
                         else "scheduled")
    mesh = MESHES[backend](2, 1)
    source = mesh.attach((0, 0))
    sink = sink_cls("sink", mesh, (1, 0), occupancy=1, parse_latency=1)
    mesh.register(sim)
    core = add_tiles(sim, [sink], backend)
    tracer = FlitTracer()
    for router in mesh.routers.values():
        router.tracer = tracer
    for port in mesh.ports.values():
        port.tracer = tracer
    sink.tracer = tracer
    return sim, mesh, source, sink, core, tracer


def mtu_message(data=bytes(22 * 64)):
    return NocMessage(dst=(1, 0), src=(0, 0), metadata="m", data=data)


class TestEjectionEdge:
    def streamed(self, backend, sink_cls=Sink, data=bytes(22 * 64)):
        sim, mesh, source, sink, core, tracer = raw_chain(backend,
                                                          sink_cls)
        fifo = sink.port.eject_fifo
        wakes = counting_waker(fifo)
        per_message = []
        for _ in range(2):
            source.send(mtu_message(data))
            before = len(sink.received)
            for _ in range(200):
                sim.run(1)
                if core is not None:
                    assert mesh.core.check_invariants(sim.cycle) == []
                    assert core.check_invariants() == []
                if len(sink.received) > before and not fifo.occupancy:
                    break
            per_message.append(len(wakes))
        run = observed(sim, mesh, [sink], tracer)
        run["received"] = [(cycle, bytes(m.data), type(m.data))
                           for cycle, m in sink.received]
        return run, per_message

    def test_one_wake_per_message_streamed_into_an_empty_fifo(self):
        """24 flits into an empty FIFO fire the hooks once; they fire
        again only for the first flit after the FIFO has drained."""
        flat, per_message = self.streamed("flat")
        assert per_message == [1, 2]
        obj, staged = self.streamed("object")
        assert staged == [0, 0]  # StagedFifo.push wakes nobody
        assert flat == obj
        assert len(flat["received"]) == 2

    def test_object_mode_tile_under_the_flat_core(self):
        flat, per_message = self.streamed("flat", OnCycleSink)
        assert per_message == [1, 2]
        assert flat == self.streamed("object", OnCycleSink)[0]
        assert len(flat["received"]) == 2

    def test_sloppy_object_mode_tile_keeps_its_busy_bit(self):
        """The core keeps a tile busy over a non-empty FIFO whatever
        the tile's own step returns — the flits behind the first
        bring no wake, so clearing the bit would strand them."""
        flat, per_message = self.streamed("flat", SloppySink)
        assert per_message == [1, 2]
        assert flat == self.streamed("flat", Sink)[0]
        assert len(flat["received"]) == 2

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_payloads_reassemble_to_bytes(self, wrap):
        """The fast path keeps the DATA chunks uncopied until the
        tail's join; any bytes-like a ``Flit`` admits must come out as
        equal ``bytes``."""
        payload = bytes(range(256)) * 5 + b"tail"
        flat, _ = self.streamed("flat", data=wrap(payload))
        assert flat["received"][0][1:] == (payload, bytes)
        assert flat == self.streamed("object", data=wrap(payload))[0]

    @staticmethod
    def app_backlog(window):
        """A probe asserting the app tile sits on a full ejection FIFO,
        mid-message, for the whole of ``window`` — and that nothing
        wakes it there."""
        seen = []

        def probe(design, wakes):
            if design.sim.cycle in window:
                fifo = design.app.port.eject_fifo
                assert len(fifo) == fifo.capacity
                assert design.app.port.mid_message
                assert len(wakes) == 1
                seen.append(design.sim.cycle)

        return probe, seen

    @pytest.mark.parametrize("fault", ["freeze", "stall"])
    def test_backed_up_fifo_drains_after_the_fault_window(self, fault):
        """The app tile is frozen (or its link stalled) three flits
        into a 24-flit message: its FIFO fills, the wormhole backs up,
        and after the window the tile drains all of it although no
        push ever finds the FIFO empty again."""
        def plan():
            if fault == "freeze":
                return FaultPlan(seed=1).freeze_tile("app", at=90,
                                                     duration=100)
            return FaultPlan(seed=1).stall_link((3, 0), at=90,
                                                duration=100)

        probe, seen = self.app_backlog(range(100, 190))
        flat, wakes = faulted_echo("fast", plan(), probe)
        assert len(seen) == 90
        assert len(wakes) == 1
        obj, _ = faulted_echo("reference", plan(),
                              lambda design, wakes: None)
        assert flat == obj
        assert flat["tiles"]["app"][0] == 1

    def test_core_pruned_between_paced_frames(self):
        """Twelve MTU frames at a tenth of line rate: the tile core
        sleeps between frames and the kernel skips the idle stretches,
        so every frame's first flit must wake it.  The counts are
        pinned: the run ends the cycle the naive kernel ends it (3752;
        the sink now counts a frame in the tick that emits it), 1652 of
        those cycles are skipped and the four components take 3867
        steps between them."""
        runs = {}
        for profile in ("fast", "reference"):
            reset_id_counters()
            design = echo_design(line_rate_bytes_per_cycle=50.0,
                                 profile=profile)
            tracer = attach_tracer(design, FlitTracer())
            frame = echo_frame(design, bytes(1400))
            source = FrameSource(design.inject, lambda i: frame,
                                 rate=5.0, count=12)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run_until(lambda: sink.count >= 12,
                                 max_cycles=20_000)
            runs[profile] = observed(design.sim, design.mesh,
                                     design.tiles.values(), tracer)
            runs[profile]["frames"] = list(sink.frames)
            if profile == "fast":
                assert not any(design.tile_core._busy)
                assert design.tile_core.check_invariants() == []
                assert (design.sim.cycle,
                        design.sim.idle_cycles_skipped,
                        design.sim.component_steps) == (3752, 1652, 3867)
        assert runs["fast"] == runs["reference"]


class PassThroughFilter:
    """An ejection fault filter that corrupts nothing: the port still
    has to hand it ``Flit`` objects, one per popped handle."""

    def __init__(self):
        self.flits = 0

    def filter(self, flit):
        self.flits += 1
        return flit


#: consumer kind -> (mesh, tile engine, sink class)
EDGE_CONSUMERS = {
    "fast tile": ("flat", "flat", Sink),
    "object-mode tile in the core": ("flat", "flat", OnCycleSink),
    "registered object tile": ("flat", "object", Sink),
    "fault-filtered port": ("flat", "flat", Sink),
    "stalled port": ("flat", "flat", Sink),
    "frozen tile": ("flat", "flat", Sink),
}


def edge_soak(kind, reference, occupancy, seed=0xED6E, cycles=2_000):
    """Seeded bursts from a source port into one sink tile.  At
    ``occupancy`` 30 the sink is slower than the link, so its 4-deep
    ejection FIFO fills, drains and sits empty by turns; at 1 it takes
    a flit a cycle and the FIFO never holds more than the flit in
    transit.  ``reference`` runs the same thing on the object mesh with
    object tiles.  Untraced: the flat run moves int handles.  Both flat
    cores' invariants are checked every cycle."""
    mesh_kind, tile_engine, sink_cls = EDGE_CONSUMERS[kind]
    if reference:
        mesh_kind = tile_engine = "object"
    reset_id_counters()
    rng = random.Random(seed)
    sim = CycleSimulator(kernel="naive" if mesh_kind == "object"
                         else "scheduled")
    mesh = MESHES[mesh_kind](2, 1)
    source = mesh.attach((0, 0))
    sink = sink_cls("sink", mesh, (1, 0), occupancy=occupancy,
                    parse_latency=2)
    sink.buffer_flits = 24
    mesh.register(sim)
    core = add_tiles(sim, [sink], tile_engine)
    port, fifo = sink.port, sink.port.eject_fifo
    if kind == "fault-filtered port":
        port._fault_eject = PassThroughFilter()
    blocked = set()
    start = 150
    while start < cycles - 300:
        length = rng.randrange(40, 120)
        blocked.update(range(start, start + length))
        start += length + rng.randrange(150, 350)
    ejected, consumed = [], []
    for cycle in range(cycles):
        burst = (cycle // 100) % 3 != 2 and cycle < cycles - 300
        if burst and rng.random() < 0.04:
            source.send(NocMessage(dst=(1, 0), src=(0, 0), metadata="m",
                                   data=bytes(rng.randrange(0, 700))))
        if kind == "stalled port":
            port.fault_stalled = cycle in blocked
        elif kind == "frozen tile":
            if sink._fault_frozen and cycle not in blocked:
                sink._fault_frozen = False
                sink._wake()        # as FaultEngine._thaw does
            elif cycle in blocked:
                sink._fault_frozen = True
        sim.run(1)
        if mesh_kind == "flat":
            assert mesh.core.check_invariants(sim.cycle) == []
        if core is not None:
            assert core.check_invariants() == []
        # Flits the router has pushed so far, and flits popped so far.
        ejected.append(fifo.occupancy + port.flits_ejected)
        consumed.append(port.flits_ejected)
    if kind == "fault-filtered port":
        assert port._fault_eject.flits == port.flits_ejected
    return {
        "ejected": ejected,
        "consumed": consumed,
        "received": [(cycle, len(m.data)) for cycle, m in sink.received],
        "eject_high_water": fifo.high_water,
        "input_high_water": {
            (coord, p.value): f.high_water
            for coord, router in mesh.routers.items()
            for p, f in router.inputs.items()},
        "tile": (sink.messages_in, sink.bytes_in, sink.drops),
        "in_flight": fifo.occupancy,
    }


def first_cycle_reaching(series):
    """``out[k]``: the first cycle whose cumulative count exceeds k."""
    out = []
    for cycle, count in enumerate(series):
        out.extend([cycle] * (count - len(out)))
    return out


class TestEjectionFifoVisibility:
    """The flat mesh pushes straight into the ejection FIFO's
    committed queue; a cycle stamp, not a commit, hides the flit from
    whoever consumes in that same cycle.  Every kind of consumer must
    see exactly what the object mesh's staging shows it."""

    @pytest.mark.parametrize("occupancy", [30, 1])
    @pytest.mark.parametrize("kind", list(EDGE_CONSUMERS))
    def test_soak_matches_the_object_mesh_cycle_for_cycle(self, kind,
                                                          occupancy):
        run = edge_soak(kind, False, occupancy)
        assert run == edge_soak(kind, True, occupancy)
        assert len(run["received"]) > 20 and run["in_flight"] == 0
        # End-of-cycle depth: a slow or held-up sink backs the FIFO up;
        # one that keeps pace never leaves more than one flit in it,
        # though the mesh pushes the next before it pops (the mark the
        # push raises is taken back by the pop).
        backs_up = occupancy == 30 or kind in ("stalled port",
                                               "frozen tile")
        assert run["eject_high_water"] == (4 if backs_up else 1)
        ejected_at = first_cycle_reaching(run["ejected"])
        consumed_at = first_cycle_reaching(run["consumed"])
        assert len(ejected_at) == len(consumed_at) > 200
        waits = [c - e for e, c in zip(ejected_at, consumed_at)]
        # Ejected at c: consumable at c + 1 at the earliest, and taken
        # then whenever nothing holds the consumer back.
        assert min(waits) == 1
        assert waits.count(1) > len(waits) // 4

    def test_between_ticks_a_reader_sees_everything(self):
        sim, mesh, source, sink, core, tracer = raw_chain("flat", Sink)
        sink._fault_frozen = True       # nobody consumes
        source.send(mtu_message(bytes(64)))
        port = sink.port
        sim.run_until(lambda: len(port.eject_fifo), max_cycles=50)
        pushed_at = sim.cycle - 1
        assert port.eject_ready(pushed_at) == 0     # the consumer's view
        assert port.eject_ready(pushed_at + 1) == 1
        assert port.eject_ready() == 1              # between ticks
        assert port.eject_fifo.high_water == 1
        assert port.pop_flit(pushed_at) is None
        assert port.pop_flit() is not None
        assert port.eject_fifo.high_water == 1      # it was there at c's end


class Relay(Sink):
    """Object mode with a contract of its own: asleep until someone
    ``poke``s it (a dedicated wire, like the TCP RX engine's into the
    TX engine), it notes the cycle it noticed and passes the token on,
    one smaller, to its peer."""

    def __init__(self, name, mesh, coord, **kwargs):
        super().__init__(name, mesh, coord, **kwargs)
        self.inbox = []
        self.noticed = []
        self.peer = None

    def poke(self, token):
        self.inbox.append(token)
        self._wake()

    def on_cycle(self, cycle):
        for token in self.inbox:
            self.noticed.append((cycle, token))
            if token and self.peer is not None:
                self.peer.poke(token - 1)
        self.inbox.clear()

    def _due(self):
        return None if self.inbox else self._engine_due()


class Knocker(Sink):
    """Inlined (fast) mode: pokes its peer from ``handle_message``."""

    peer = None

    def handle_message(self, message, cycle):
        self.peer.poke(0)
        return super().handle_message(message, cycle)


class TestInCoreWakeRule:
    """DESIGN.md 5c's wake rule holds between the tiles of one core as
    it does between kernel slots: woken by a tile earlier in the walk,
    a tile steps this cycle; by a later one, the next — what stepping
    every tile in order does, and what individually registered tiles
    get from the kernel."""

    def build(self, engine, kernel, classes):
        sim = CycleSimulator(kernel=kernel)
        mesh = FlatMesh(3, 1)
        source = mesh.attach((2, 0))
        tiles = [cls(f"t{x}", mesh, (x, 0), occupancy=1, parse_latency=1)
                 for x, cls in enumerate(classes)]
        tiles[0].peer, tiles[1].peer = tiles[1], tiles[0]
        mesh.register(sim)
        core = add_tiles(sim, tiles, engine)
        return sim, source, tiles, core

    ENGINES = [("flat", "scheduled"), ("object", "scheduled"),
               ("object", "naive")]

    def test_object_mode_tiles_pass_a_token_back_and_forth(self):
        runs = []
        for engine, kernel in self.ENGINES:
            sim, _, (first, second), core = self.build(
                engine, kernel, [Relay, Relay])
            sim.run(40)
            if core is not None:
                assert sim.wake_cycle(core) is None and not any(core._busy)
            first.poke(4)
            sim.run(40)
            runs.append((first.noticed, second.noticed))
        # first -> second: the same cycle; second -> first: the next.
        assert runs[0] == ([(40, 4), (41, 2), (42, 0)],
                           [(40, 3), (41, 1)])
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("classes", [(Knocker, Relay),
                                         (Relay, Knocker)])
    def test_a_handler_wakes_a_later_tile_this_cycle(self, classes):
        runs = []
        for engine, kernel in self.ENGINES:
            sim, source, tiles, core = self.build(engine, kernel,
                                                  classes)
            knocker = tiles[classes.index(Knocker)]
            relay = tiles[classes.index(Relay)]
            sim.run(40)
            source.send(NocMessage(dst=knocker.coord, src=(2, 0),
                                   metadata="knock"))
            for _ in range(40):
                sim.run(1)
                if core is not None:
                    assert core.check_invariants() == []
            (handled, _), = knocker.received
            (noticed, _), = relay.noticed
            assert noticed - handled == classes.index(Knocker)
            runs.append((handled, noticed))
        assert runs[1] == runs[0] and runs[2] == runs[0]


def shadow(design, hook, calls):
    """Replace ``hook`` on the built design's ``udp_rx`` instance with
    one that logs the cycle of each call: ``service_cycles`` then takes
    60 cycles a message, ``send`` forwards to the tile's own."""
    tile = design.tiles["udp_rx"]
    if hook == "service_cycles":
        def service_cycles(message):
            calls.append(design.sim.cycle)
            return 60
        tile.service_cycles = service_cycles
    else:
        send = tile.send

        def logged_send(message):
            calls.append(design.sim.cycle)
            send(message)
        tile.send = logged_send


class TestInlinedHooks:
    """The flat core inlines ``Tile``'s own hooks only when neither the
    class nor the instance replaces them; otherwise the instance's hook
    runs, as under ``reference``.  ``service_cycles`` is inlined and
    ``send`` is not: a patch on either counts from the next message."""

    @pytest.mark.parametrize("hook", ["service_cycles", "send"])
    def test_an_instance_hook_runs_under_both_profiles(self, hook):
        runs = {}
        for profile in ("reference", "fast"):
            reset_id_counters()
            design = echo_design(profile=profile)
            calls = []
            shadow(design, hook, calls)
            frames = [echo_frame(design, bytes(64)) for _ in range(20)]
            _source, sink = attach_client(design, frames, rate=None,
                                          count=20)
            design.sim.run_until(lambda: sink.count >= 20,
                                 max_cycles=20_000)
            runs[profile] = (sink.frames, calls)
        assert len(runs["reference"][1]) == 20
        assert runs["fast"] == runs["reference"]
        if hook == "service_cycles":
            emits = [cycle for _frame, cycle in runs["fast"][0]]
            assert {b - a for a, b in zip(emits, emits[1:])} == {60}

    def test_an_engine_hook_on_the_instance_means_object_mode(self):
        mesh = FlatMesh(2, 1)
        plain = Sink("plain", mesh, (0, 0))
        patched = Sink("patched", mesh, (1, 0))
        patched._due = patched._engine_due
        core = register_tiles(CycleSimulator(), [plain, patched])
        modes = [scheduling(core, tile).fast for tile in core.tiles]
        assert modes == [True, False]

    def test_handoff_counters_match_reference_at_64_bytes(self):
        """The counters the tile -> port hand-off writes, on the scaled
        echo design's 64 B saturation run (perflab's
        ``echo_sat_64b_7x4`` in small)."""
        runs = {}
        for profile in ("reference", "fast"):
            reset_id_counters()
            design = ScaledEchoDesign(profile=profile)
            frames = [client_frame(design, bytes(64), src_port=5000 + i)
                      for i in range(32)]
            _source, sink = attach_client(design, frames, rate=None,
                                          count=200)
            design.sim.run_until(lambda: sink.count >= 200,
                                 max_cycles=20_000)
            runs[profile] = {
                "frames": sink.frames,
                "ports": {coord: (port.tx_backlog_high_water,
                                  port.messages_sent)
                          for coord, port in design.mesh.ports.items()},
                "tiles": {name: (tile.messages_out, tile.bytes_out)
                          for name, tile in design.tiles.items()},
            }
        assert runs["fast"] == runs["reference"]
        assert len(runs["fast"]["frames"]) == 200


class TestCheckInvariants:
    def test_clear_bit_over_a_non_empty_fifo_is_reported(self):
        design = echo_design()
        core = design.tile_core
        fifo = design.app.port.eject_fifo
        design.inject(echo_frame(design, bytes(600)), 1)
        design.sim.run_until(lambda: len(fifo), max_cycles=400)
        core._busy[core.tiles.index(design.app)] = 0
        problems = core.check_invariants()
        assert len(problems) == 1
        assert "'app' is not busy" in problems[0]

    def test_clear_port_byte_over_a_queued_send_is_reported(self):
        design = echo_design()
        mesh_core = design.mesh.core
        port = design.app.port
        port.send(NocMessage(dst=design.eth_tx.coord, src=port.coord,
                             data=b"x"))
        assert mesh_core.check_invariants(design.sim.cycle) == []
        mesh_core._inj_busy[mesh_core._ports_list.index(port)] = 0
        problems = mesh_core.check_invariants(design.sim.cycle)
        assert len(problems) == 1
        assert f"port {port.coord} is not busy" in problems[0]


def slow_sink_row(parse_latency=40):
    """A 3x1 flat row: a port at (0, 0) and a ``Sink`` at (1, 0) that
    takes ``parse_latency`` cycles per message, adopted alone into a
    registered core; (2, 0) has a tile nobody adopted yet."""
    sim = CycleSimulator()
    mesh = FlatMesh(3, 1)
    source = mesh.attach((0, 0))
    sink = Sink("sink", mesh, (1, 0), parse_latency=parse_latency)
    late = Sink("late", mesh, (2, 0))
    mesh.register(sim)
    core = register_tiles(sim, [sink])
    return sim, core, source, sink, late


class TestNoFallback:
    """The step keeps each tile's one deadline in an ``array('q')``
    only; anything else is refused, never stepped through a slower
    path."""

    @pytest.mark.parametrize("convert", [list, lambda a: array("l", a)])
    def test_deadlines_that_are_not_an_array_q(self, convert):
        _sim, core, _source, _sink, _late = slow_sink_row()
        core._deadlines = convert(core._deadlines)
        with pytest.raises(TypeError,
                           match=r"_deadlines is not an array\('q'\)"):
            core.step(0)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_deadlines_of_the_wrong_length(self, change):
        _sim, core, _source, _sink, _late = slow_sink_row()
        core._deadlines = array("q", [-1] * (1 + change))
        with pytest.raises(ValueError, match="_deadlines does not hold one "
                                             r"entry per tile \(1\)"):
            core.step(0)

    def test_a_handler_cannot_adopt_into_its_own_core(self):
        """The step holds ``_deadlines``, and ``adopt`` grows it before
        anything else: an adoption from inside the step is refused and
        leaves the core as it was."""
        sim, core, source, sink, late = slow_sink_row(parse_latency=1)
        refused = []

        def handle_message(message, cycle):
            try:
                core.adopt(late)
            except BufferError as error:
                refused.append(error)
            return []

        sink.handle_message = handle_message
        source.send(NocMessage(dst=(1, 0), src=(0, 0), data=b"x"))
        sim.run(30)
        assert len(refused) == 1 and sink.messages_in == 1
        assert core.tiles == [sink]
        assert (len(core._fabric), len(core._busy),
                len(core._deadlines)) == (1, 1, 1)
        assert core.check_invariants() == []
        assert core.adopt(late) == 1  # between steps it is allowed
        assert len(core._deadlines) == 2


class TestDeadlines:
    def test_a_woken_tile_keeps_its_earlier_deadline_until_due(self):
        """A tile woken while armed for ``due`` steps, re-arms for the
        same cycle (an earlier-or-equal deadline stands), and is still
        disarmed by the pass at ``due``, woken again or not; then the
        core sleeps and the kernel skips every idle cycle."""
        sim, core, source, sink, _late = slow_sink_row()
        source.send(NocMessage(dst=(1, 0), src=(0, 0), data=b"x"))
        sim.run_until(lambda: core._deadlines[0] >= 0, max_cycles=50)
        due = core._deadlines[0]
        assert due > sim.cycle + 2 and not core._busy[0]
        sink._wake()
        sim.run(1)
        assert core._deadlines[0] == due and not core._busy[0]
        assert sim.wake_cycle(core) == due
        sim.run(due - sim.cycle)
        sink._wake()  # woken in the very cycle its deadline is due
        sim.run(1)
        assert [cycle for cycle, _ in sink.received] == [due]
        assert core._deadlines[0] == -1 and not core._busy[0]
        assert sim.wake_cycle(core) is None
        skipped, steps = sim.idle_cycles_skipped, sim.component_steps
        sim.run(500)
        assert sim.idle_cycles_skipped == skipped + 500
        assert sim.component_steps == steps

    def test_the_answer_is_the_smallest_armed_deadline(self):
        """Two tiles, the first armed later than the second: the core is
        next due at the second's deadline, and each fires on its own."""
        sim = CycleSimulator()
        mesh = FlatMesh(3, 1)
        source = mesh.attach((0, 0))
        slow = Sink("slow", mesh, (1, 0), parse_latency=60)
        quick = Sink("quick", mesh, (2, 0), parse_latency=20)
        mesh.register(sim)
        core = register_tiles(sim, [slow, quick])
        source.send(NocMessage(dst=(1, 0), src=(0, 0), data=b"x"))
        source.send(NocMessage(dst=(2, 0), src=(0, 0), data=b"y"))
        sim.run_until(lambda: min(core._deadlines) >= 0, max_cycles=50)
        first, second = core._deadlines
        assert first > second > sim.cycle and not any(core._busy)
        assert sim.wake_cycle(core) == second
        sim.run(200)
        assert [cycle for cycle, _ in slow.received] == [first]
        assert [cycle for cycle, _ in quick.received] == [second]
        assert list(core._deadlines) == [-1, -1]


class TestAdoptionJudgesTheClassAsItIs:
    def test_a_class_patched_after_an_adoption_runs_its_hook(
            self, monkeypatch):
        """A class adopted on the inlined pumps and then given an
        ``on_cycle`` of its own is object mode at every later adoption:
        no verdict outlives the class it was made for."""
        design = echo_design()
        assert scheduling(design.tile_core, design.ip_rx).fast
        calls = {}
        for profile in ("reference", "fast"):
            seen = calls[profile] = []

            def on_cycle(self, cycle, seen=seen):
                seen.append(cycle)

            monkeypatch.setattr(IpRxTile, "on_cycle", on_cycle)
            design = echo_design(profile=profile)
            design.sim.run(50)
            if design.tile_core is not None:
                assert not scheduling(design.tile_core, design.ip_rx).fast
        assert calls["fast"] == calls["reference"] == list(range(50))


class Boom(Exception):
    pass


def raise_on_call(tile, hook, nth):
    """Shadow ``tile``'s ``hook`` with one that raises ``Boom`` on its
    ``nth`` call and forwards every other call."""
    original = getattr(tile, hook)
    calls = []

    def hooked(*args):
        calls.append(args)
        if len(calls) == nth:
            raise Boom(f"{hook} call {nth}")
        return original(*args)

    setattr(tile, hook, hooked)


class TestAnExceptionInsideTheCore:
    """A handler or a ``send`` that raises inside the walk: the error
    leaves ``sim.run`` as it does under ``reference``, after the tile's
    service context is reset, and the core's scheduling state is still
    consistent."""

    @pytest.mark.parametrize("hook", ["handle_message", "send"])
    def test_it_propagates_with_the_core_consistent(self, hook):
        runs = {}
        for profile in ("reference", "fast"):
            reset_id_counters()
            design = echo_design(profile=profile)
            tile = design.tiles["udp_rx"]
            raise_on_call(tile, hook, 5)
            frames = [echo_frame(design, bytes(64)) for _ in range(20)]
            _source, sink = attach_client(design, frames, rate=None,
                                          count=20)
            with pytest.raises(Boom) as raised:
                design.sim.run_until(lambda: sink.count >= 20,
                                     max_cycles=20_000)
            assert tile._service_ctx is None
            if design.tile_core is not None:
                assert design.tile_core.check_invariants() == []
            runs[profile] = (str(raised.value), design.sim.cycle,
                             sink.count, tile.messages_in,
                             tile.messages_out)
        assert runs["fast"] == runs["reference"]
        assert runs["fast"][0] == f"{hook} call 5"


def singleton_counts():
    gc.collect()
    return [sys.getrefcount(value) for value in (None, True, False)]


def singleton_drift(build, progress, warm, more):
    """How far the reference counts of ``None``, ``True`` and ``False``
    move while a warm design built by ``build(profile)`` goes from
    ``warm`` to ``more`` units of ``progress(design)``, per profile."""
    drift = {}
    for profile in ("reference", "fast"):
        reset_id_counters()
        design, done = build(profile), None
        for target in (warm, more):
            design.sim.run_until(lambda: progress(design) >= target,
                                 max_cycles=200_000)
            assert progress(design) >= target
            done = singleton_counts() if done is None else [
                after - before
                for after, before in zip(singleton_counts(), done)]
        drift[profile] = done
    return drift


class TestReferenceCounts:
    """A C step that releases a reference it does not own (a borrowed
    ``None`` from a record, a ``True`` read off a flag) runs the
    singleton's count down to a fatal deallocation, and ``tracemalloc``
    cannot see it.  The counts wander with what a design holds (a
    closed-loop echo loses about one ``None`` a frame under either
    profile), so the ``fast`` drift is held against the ``reference``
    drift over the same frames: one lost reference per message or per
    visit would be thousands apart.  (From 3.12 on the three are
    immortal and the check holds trivially.)"""

    def test_a_warm_saturated_64_byte_echo(self):
        def build(profile):
            design = ScaledEchoDesign(profile=profile)
            frames = [client_frame(design, bytes(64), src_port=5000 + i)
                      for i in range(32)]
            _source, design.sink = attach_client(
                design, frames, rate=None, count=600, keep_frames=False)
            return design

        drift = singleton_drift(build, lambda design: design.sink.count,
                                300, 600)
        assert all(fast - reference > -100 for fast, reference
                   in zip(drift["fast"], drift["reference"])), drift

    def test_the_tcp_design_with_its_object_mode_engine(self):
        def build(profile):
            design, design.peers = build_competing_flows(
                n_flows=2, seed=1, stream_bytes=400 * 1024,
                profile=profile)
            if profile == "fast":
                assert not scheduling(design.tile_core,
                                      design.tcp_tx).fast
            return design

        def segments(design):
            return sum(peer.segments_sent for peer in design.peers)

        drift = singleton_drift(build, segments, 200, 500)
        assert all(fast - reference > -100 for fast, reference
                   in zip(drift["fast"], drift["reference"])), drift
