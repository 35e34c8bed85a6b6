"""Unit tests for the flat (array-of-struct) mesh.

The heavyweight correctness bar — bit-identity of the two profiles
across every shipped design and trace stream — lives in
``test_kernel_equivalence.py``; these tests pin the flat mesh's local
contracts: which mesh a profile builds, the view adapters, raw flit
traffic, the late-attach wake path, the ``CycleSimulator`` keywords,
and the output-centric step's state machine and commit-free rings.
Each scenario is built by hand, the flat mesh under either kernel —
under the naive one a pairing no profile has, which is what localises
a ``fast`` != ``reference`` divergence to the mesh — and compared flit
for flit, and high-water mark for high-water mark, with the object mesh
under the naive kernel (the only one that commits its routers), under
a tracer.
"""

from collections import deque

import pytest

from repro.designs.base import Design
from repro.noc.flatmesh import _NO_RING, FlatMesh, FlatRouterView
from repro.noc.flit import HANDLE_HEAD
from repro.noc.mesh import LocalPort, Mesh
from repro.noc.message import NocMessage, reset_id_counters
from repro.noc.router import _PORT_INDEX
from repro.noc.routing import Port
from repro.sim.kernel import CycleSimulator, StagedFifo
from repro.telemetry.trace import Tracer

MESHES = {"object": Mesh, "flat": FlatMesh}


def _sim(backend, kernel):
    """``kernel`` for the flat mesh; the object mesh always runs on
    the naive kernel, the one with a commit pass."""
    return CycleSimulator(kernel=kernel if backend == "flat" else "naive")


class TestBuildMesh:
    """The mesh a design gets is its profile's
    (``repro.designs.base.Design.__init__``)."""

    def test_object_backend(self):
        design = Design(3, 2, "reference")
        assert isinstance(design.mesh, Mesh)
        assert (design.mesh.width, design.mesh.height) == (3, 2)
        assert design.sim.kernel == "naive"

    def test_flat_backend(self):
        design = Design(3, 2)
        assert design.profile == "fast"
        assert isinstance(design.mesh, FlatMesh)
        assert (design.mesh.width, design.mesh.height) == (3, 2)
        assert design.sim.kernel == "scheduled"

    def test_unknown_backend(self):
        for profile in ("vapor", "flat", "scheduled", None):
            with pytest.raises(ValueError,
                               match="'reference' or 'fast'"):
                Design(3, 2, profile)

    def test_options_forwarded(self):
        mesh = FlatMesh(2, 2, fifo_depth=7, routing="yx")
        assert mesh.routing == "yx"
        view = mesh.routers[(0, 0)]
        assert view.inputs[Port.EAST].capacity == 7

    def test_bad_dimensions(self):
        for mesh_cls in MESHES.values():
            with pytest.raises(ValueError):
                mesh_cls(0, 2)

    def test_bad_routing(self):
        for mesh_cls in MESHES.values():
            with pytest.raises(ValueError):
                mesh_cls(2, 2, routing="zigzag")


class TestFlatMeshStructure:
    def test_router_grid_matches_object_mesh(self):
        flat = FlatMesh(4, 3)
        obj = Mesh(4, 3)
        assert set(flat.routers) == set(obj.routers)
        for coord, view in flat.routers.items():
            assert isinstance(view, FlatRouterView)
            assert view.coord == coord
            assert view.name == obj.routers[coord].name

    def test_local_input_is_a_real_fifo(self):
        mesh = FlatMesh(2, 2)
        local = mesh.routers[(1, 0)].inputs[Port.LOCAL]
        assert isinstance(local, StagedFifo)
        assert local.name == "router(1, 0).in.local"

    def test_direction_inputs_are_ring_views(self):
        mesh = FlatMesh(2, 2)
        east = mesh.routers[(0, 0)].inputs[Port.EAST]
        assert len(east) == 0
        assert east.occupancy == 0
        assert east.peek() is None
        assert east.name == "router(0, 0).in.east"

    def test_connect_output_rejects_directions(self):
        mesh = FlatMesh(2, 2)
        with pytest.raises(ValueError):
            mesh.routers[(0, 0)].connect_output(
                Port.EAST, StagedFifo(4, name="x"))

    def test_attach_is_idempotent(self):
        mesh = FlatMesh(2, 2)
        port = mesh.attach((1, 1))
        assert isinstance(port, LocalPort)
        assert mesh.attach((1, 1)) is port

    def test_attach_off_mesh_raises(self):
        mesh = FlatMesh(2, 2)
        with pytest.raises(KeyError):
            mesh.attach((5, 5))


def _run_raw_traffic(backend, kernel, cycles=200):
    """Send two multi-flit messages corner-to-corner and return every
    observable outcome."""
    reset_id_counters()
    sim = _sim(backend, kernel)
    mesh = MESHES[backend](3, 3)
    src = mesh.attach((0, 0))
    dst = mesh.attach((2, 2))
    mesh.register(sim)
    src.send(NocMessage(dst=(2, 2), src=(0, 0), metadata="hello",
                        data=bytes(range(130))))
    src.send(NocMessage(dst=(2, 2), src=(0, 0), metadata="again",
                        data=bytes(64)))
    received = []
    for _ in range(cycles):
        sim.run(1)
        message = dst.receive()
        if message is not None:
            received.append(
                (sim.cycle, message.metadata, bytes(message.data))
            )
    per_router = {coord: router.flits_forwarded
                  for coord, router in mesh.routers.items()}
    return {
        "received": received,
        "sent": src.messages_sent,
        "injected": src.flits_injected,
        "total_flits": mesh.total_flits_forwarded,
        "per_router": per_router,
    }


class TestRawTraffic:
    @pytest.mark.parametrize("kernel", ["naive", "scheduled"])
    def test_flat_matches_object(self, kernel):
        flat = _run_raw_traffic("flat", kernel)
        obj = _run_raw_traffic("object", kernel)
        assert flat == obj

    def test_messages_arrive_intact(self):
        out = _run_raw_traffic("flat", "scheduled")
        assert [m[1] for m in out["received"]] == ["hello", "again"]
        assert out["received"][0][2] == bytes(range(130))
        assert out["total_flits"] > 0


class TestLateAttach:
    @pytest.mark.parametrize("backend", ["object", "flat"])
    def test_port_attached_after_register_still_works(self, backend):
        """The managed design attaches its controller port after
        ``mesh.register``; the flat core must adopt (and wake for)
        such a port without it ever entering the simulator."""
        reset_id_counters()
        sim = _sim(backend, "scheduled")
        mesh = MESHES[backend](2, 2)
        early = mesh.attach((0, 0))
        mesh.register(sim)
        sim.run(50)  # everything idle: the kernel is asleep
        late = mesh.attach((1, 1))
        if not mesh.steps_ports:
            sim.add(late)
        early.send(NocMessage(dst=(1, 1), src=(0, 0),
                              metadata="late", data=bytes(16)))
        got = []
        for _ in range(50):
            sim.run(1)
            message = late.receive()
            if message is not None:
                got.append(message.metadata)
        assert got == ["late"]
        # And the reverse direction: traffic *from* the late port.
        late.send(NocMessage(dst=(0, 0), src=(1, 1),
                             metadata="reply", data=bytes(16)))
        back = []
        for _ in range(50):
            sim.run(1)
            message = early.receive()
            if message is not None:
                back.append(message.metadata)
        assert back == ["reply"]


class TestKernelKwargs:
    """The simulator knows its kernel and nothing of meshes or tiles."""

    def test_defaults(self):
        sim = CycleSimulator()
        assert sim.kernel == "scheduled"
        assert not [name for name in vars(sim) if "backend" in name]

    def test_validation(self):
        with pytest.raises(ValueError, match="'scheduled' or 'naive'"):
            CycleSimulator(kernel="fast")
        with pytest.raises(TypeError):
            CycleSimulator(None, "scheduled", "flat")


# -- the output-centric step's state machine --------------------------------

EAST = _PORT_INDEX[Port.EAST]  # fault_block_output takes the index


class FlitTracer(Tracer):
    """Records which flit crossed each link, not just that one did."""

    def flit_forwarded(self, cycle, coord, port, flit):
        self.link_flits.append((cycle, coord, port, flit.msg_id,
                                flit.is_head, flit.is_tail))


def _message(src, dst, flits):
    """A message of exactly ``flits`` flits (header + metadata)."""
    return NocMessage(dst=dst, src=src, n_meta_flits=flits - 1)


def _scenario(backend, kernel, size, attach, script, cycles,
              late=None):
    """Drive a raw mesh and return everything observable.

    ``script`` maps a cycle to ``fn(mesh, ports)``, run just before
    that cycle ticks; ``late`` is ``(cycle, coord)`` of a port attached
    after registration.  The flat backend additionally has its state
    machine checked after every cycle.
    """
    reset_id_counters()
    sim = _sim(backend, kernel)
    mesh = MESHES[backend](*size)
    ports = {coord: mesh.attach(coord) for coord in attach}
    mesh.register(sim)
    tracer = FlitTracer()
    for router in mesh.routers.values():
        router.tracer = tracer
    for port in ports.values():
        port.tracer = tracer
    received = []
    for cycle in range(cycles):
        if late is not None and cycle == late[0]:
            ports[late[1]] = port = mesh.attach(late[1])
            port.tracer = tracer
            if not mesh.steps_ports:
                sim.add(port)
        if cycle in script:
            script[cycle](mesh, ports)
        sim.run(1)
        if backend == "flat":
            assert mesh.core.check_invariants(sim.cycle) == []
        for coord, port in ports.items():
            message = port.receive()
            if message is not None:
                received.append((cycle, coord, message.msg_id,
                                 message.src))
    return {
        "flits": tracer.link_flits,
        "stalls": tracer.link_stalls,
        "injects": [(s.coord, s.msg_id, s.start, s.end)
                    for s in tracer.inject_spans],
        "received": received,
        "per_output": {coord: router.flits_per_output
                       for coord, router in mesh.routers.items()},
        "high_water": {(coord, port.value): fifo.high_water
                       for coord, router in mesh.routers.items()
                       for port, fifo in router.inputs.items()},
        # What the core's step answers: NEVER (idle) or every cycle.
        "idle": (not (mesh.core._ring_total or mesh.core._inj_mask)
                 if backend == "flat" else None),
        "mesh": mesh,
    }


def _both(kernel, *args, **kwargs):
    """Run a scenario on the flat mesh under ``kernel`` and on the
    object mesh; they must agree flit for flit.  Returns the flat run."""
    flat = _scenario("flat", kernel, *args, **kwargs)
    obj = _scenario("object", kernel, *args, **kwargs)
    for key in ("flits", "stalls", "injects", "received", "per_output",
                "high_water"):
        assert flat[key] == obj[key], key
    return flat


def _crossings(run, coord, port):
    """``(cycle, msg_id, is_head, is_tail)`` of flits through a link."""
    return [(c, m, h, t) for c, at, p, m, h, t in run["flits"]
            if at == coord and p == port]


@pytest.mark.parametrize("kernel", ["naive", "scheduled"])
class TestOutputCentricStateMachine:
    def test_head_behind_a_tail_waits_one_cycle(self, kernel):
        """Two messages back to back in router (1,0)'s west ring, bound
        for different outputs: the second head is exposed when the
        first tail leaves, and is arbitrated the cycle after — even
        though its output is visited later in that same cycle."""
        def send(mesh, ports):
            mesh.routers[(1, 0)].fault_block_output(EAST, True)
            ports[(0, 0)].send(_message((0, 0), (2, 0), 2))
            ports[(0, 0)].send(_message((0, 0), (1, 1), 2))

        def release(mesh, ports):
            mesh.routers[(1, 0)].fault_block_output(EAST, False)

        run = _both(kernel, (3, 2), [(0, 0), (2, 0), (1, 1)],
                    {0: send, 12: release}, 40)
        east = _crossings(run, (1, 0), "east")
        south = _crossings(run, (1, 0), "south")
        tail_cycle = next(c for c, _, _, tail in east if tail)
        head_cycle = next(c for c, _, head, _ in south if head)
        assert head_cycle == tail_cycle + 1
        assert len(run["received"]) == 2

    def test_single_flit_messages_keep_round_robin_order(self, kernel):
        """Head+tail flits from four inputs contend for one ejection
        port: the lock is taken and released within the move, and the
        round-robin pointer still rotates through every input."""
        sources = [(0, 1), (2, 1), (1, 0), (1, 2)]

        def send(mesh, ports):
            for _ in range(6):
                for src in sources:
                    ports[src].send(_message(src, (1, 1), 1))

        run = _both(kernel, (3, 3), sources + [(1, 1)], {0: send}, 80)
        order = [src for _, coord, _, src in run["received"]
                 if coord == (1, 1)]
        assert len(order) == 24
        for start in range(4, 20, 4):  # all four inputs backlogged
            assert set(order[start:start + 4]) == set(sources)

    def test_head_for_an_unconnected_edge_stalls_forever(self, kernel):
        def send(mesh, ports):
            ports[(0, 0)].send(_message((0, 0), (5, 0), 8))

        run = _both(kernel, (2, 1), [(0, 0), (1, 0)], {0: send}, 200)
        assert run["received"] == []
        assert run["idle"] is False
        # The head reached the edge router and stopped there.
        assert _crossings(run, (0, 0), "east")
        assert not _crossings(run, (1, 0), "east")

    @pytest.mark.parametrize("window", [False, True])
    def test_off_mesh_destination_routes_as_an_in_mesh_one(self, kernel,
                                                           window):
        """A destination past the east edge takes the route (and, in a
        misroute window at (1, 0), the deflection) an in-mesh one takes
        — but by a direct call at every hop: it is never memoised."""
        def send(mesh, ports):
            mesh.routers[(1, 0)].fault_misroute(window)
            ports[(0, 0)].send(_message((0, 0), (2, 0), 3))
            ports[(0, 0)].send(_message((0, 0), (5, 0), 3))

        run = _both(kernel, (3, 2), [(0, 0), (2, 0)], {0: send}, 80)
        detour, straight = ("south", "east") if window else ("east", "south")
        assert len(_crossings(run, (1, 0), detour)) == 6
        assert not _crossings(run, (1, 0), straight)
        # Both reached the east column; only one had somewhere to go.
        assert [r[1] for r in run["received"]] == [(2, 0)]
        assert not _crossings(run, (2, int(window)), "east")
        assert run["idle"] is False
        routes = run["mesh"].core._route_rows
        assert {d for row in routes if row for d in row} == {2}  # (2, 0)

    def test_misroute_reroutes_a_waiting_head(self, kernel):
        """A head routed east but not yet granted (its output is
        stuck) follows the new table when a misroute window opens."""
        def send(mesh, ports):
            mesh.routers[(1, 0)].fault_block_output(EAST, True)
            ports[(0, 0)].send(_message((0, 0), (2, 0), 3))

        def misroute(mesh, ports):
            mesh.routers[(1, 0)].fault_misroute(True)

        run = _both(kernel, (3, 2), [(0, 0), (2, 0)],
                    {0: send, 8: misroute}, 60)
        assert (7, (1, 0), "east", "credit_exhausted") in run["stalls"]
        assert not _crossings(run, (1, 0), "east")
        assert len(_crossings(run, (1, 0), "south")) == 3
        assert [r[1] for r in run["received"]] == [(2, 0)]

    def test_misroute_leaves_a_locked_wormhole_alone(self, kernel):
        def send(mesh, ports):
            ports[(0, 0)].send(_message((0, 0), (2, 0), 10))

        def misroute(mesh, ports):
            mesh.routers[(1, 0)].fault_misroute(True)
            ports[(0, 0)].send(_message((0, 0), (2, 0), 2))

        run = _both(kernel, (3, 2), [(0, 0), (2, 0)],
                    {0: send, 5: misroute}, 80)
        east = _crossings(run, (1, 0), "east")
        south = _crossings(run, (1, 0), "south")
        assert east[0][0] < 5 < east[-1][0]  # toggled mid-wormhole
        assert len(east) == 10 and len({m for _, m, _, _ in east}) == 1
        assert len(south) == 2               # the next message deflects
        assert len(run["received"]) == 2

    def test_stuck_locked_output_stalls_every_cycle(self, kernel):
        def send(mesh, ports):
            ports[(0, 0)].send(_message((0, 0), (2, 0), 12))

        def block(mesh, ports):
            mesh.routers[(1, 0)].fault_block_output(EAST, True)

        def release(mesh, ports):
            mesh.routers[(1, 0)].fault_block_output(EAST, False)

        run = _both(kernel, (3, 1), [(0, 0), (2, 0)],
                    {0: send, 5: block, 15: release}, 60)
        stalled = [c for c, at, port, kind in run["stalls"]
                   if (at, port, kind) ==
                   ((1, 0), "east", "wormhole_stall")]
        assert stalled == list(range(5, 15))
        assert len(_crossings(run, (1, 0), "east")) == 12
        assert len(run["received"]) == 1

    def test_late_port_first_message_activates_its_output(self, kernel):
        def send(mesh, ports):
            ports[(1, 1)].send(_message((1, 1), (0, 0), 3))

        run = _both(kernel, (2, 2), [(0, 0)], {60: send}, 100,
                    late=(50, (1, 1)))
        assert [r[1] for r in run["received"]] == [(0, 0)]
        assert len(_crossings(run, (1, 1), "west")) == 3


# -- commit-free rings: one push and one pop per ring per cycle -------------

# A 3x1 row streamed end to end, in both directions.  Eastbound, the
# upstream router's output (ofid 1) is walked before the middle
# router's (ofid 6), so the middle ring is pushed and then popped in
# one cycle; westbound (ofid 12 feeding ofid 7) it is popped and then
# pushed.  Each entry: source, destination, the link into the middle
# router, the link out of it, and the middle router's input port.
_ROWS = {
    "push_then_pop": ((0, 0), (2, 0), ((0, 0), "east"), ((1, 0), "east"),
                      "west"),
    "pop_then_push": ((2, 0), (0, 0), ((2, 0), "west"), ((1, 0), "west"),
                      "east"),
}


@pytest.mark.parametrize("kernel", ["naive", "scheduled"])
@pytest.mark.parametrize("order", sorted(_ROWS))
class TestSameCycleRingTraffic:
    def test_body_flits_cross_the_middle_ring_in_one_cycle(self, kernel,
                                                           order):
        src, dst, link_in, link_out, in_port = _ROWS[order]

        def send(mesh, ports):
            ports[src].send(_message(src, dst, 12))

        run = _both(kernel, (3, 1), [src, dst], {0: send}, 40)
        entered = [c for c, *_ in _crossings(run, *link_in)]
        left = [c for c, *_ in _crossings(run, *link_out)]
        assert len(entered) == 12
        # Every flit leaves the cycle after it entered: never the same
        # cycle (a push is not poppable yet), never later (no bubble).
        assert left == [c + 1 for c in entered]
        assert entered == list(range(entered[0], entered[0] + 12))
        # Depth is 1 at every cycle boundary although the ring held 2
        # flits mid-cycle in the push-then-pop order.
        assert run["high_water"][((1, 0), in_port)] == 1

    def test_body_flit_into_a_drained_locked_ring_waits_a_cycle(
            self, kernel, order):
        """The upstream output sticks mid-message, the middle ring
        runs dry under its lock, and the next body flit lands in an
        empty ring: it is the owner's next flit only a cycle later."""
        src, dst, link_in, link_out, _ = _ROWS[order]
        out_index = _PORT_INDEX[Port(link_in[1])]

        def send(mesh, ports):
            ports[src].send(_message(src, dst, 12))

        def block(mesh, ports):
            mesh.routers[src].fault_block_output(out_index, True)

        def release(mesh, ports):
            mesh.routers[src].fault_block_output(out_index, False)

        run = _both(kernel, (3, 1), [src, dst],
                    {0: send, 6: block, 10: release}, 50)
        entered = [c for c, *_ in _crossings(run, *link_in)]
        left = [c for c, *_ in _crossings(run, *link_out)]
        assert len(entered) == 12 and 10 in entered and 9 not in entered
        assert left == [c + 1 for c in entered]

    def test_new_head_follows_a_tail_without_a_bubble(self, kernel, order):
        """Tail popped and next head pushed in one cycle: the head is
        exposed exactly once and routed the cycle after."""
        src, dst, link_in, link_out, _ = _ROWS[order]

        def send(mesh, ports):
            for _ in range(3):
                ports[src].send(_message(src, dst, 3))

        run = _both(kernel, (3, 1), [src, dst], {0: send}, 40)
        entered = _crossings(run, *link_in)
        left = _crossings(run, *link_out)
        assert [f[1:] for f in left] == [f[1:] for f in entered]
        assert [f[0] for f in left] == [f[0] + 1 for f in entered]
        assert sum(1 for f in left if f[2]) == 3
        assert len(run["received"]) == 3

    def test_full_ring_pushed_and_popped_in_one_cycle(self, kernel, order):
        """The middle ring fills to its depth behind a stuck output and
        then streams at depth 4 (pop and push every cycle): the mark is
        the end-of-cycle depth, as ``StagedFifo.high_water``."""
        src, dst, link_in, link_out, in_port = _ROWS[order]
        out_index = _PORT_INDEX[Port(link_out[1])]

        def send(mesh, ports):
            mesh.routers[(1, 0)].fault_block_output(out_index, True)
            ports[src].send(_message(src, dst, 16))

        def release(mesh, ports):
            mesh.routers[(1, 0)].fault_block_output(out_index, False)

        run = _both(kernel, (3, 1), [src, dst], {0: send, 14: release},
                    60)
        assert run["high_water"][((1, 0), in_port)] == 4
        assert len(_crossings(run, *link_out)) == 16
        assert len(run["received"]) == 1


@pytest.mark.parametrize("kernel", ["naive", "scheduled"])
def test_sent_message_leaves_its_router_next_cycle_at_the_earliest(kernel):
    """Injection pushes straight into the LOCAL input's committed
    queue, after the router walk of that step: the head sent before
    cycle 5 ticks is forwarded in cycle 6, as with a staged push."""
    def send(mesh, ports):
        ports[(0, 0)].send(_message((0, 0), (1, 0), 2))

    run = _both(kernel, (2, 1), [(0, 0), (1, 0)], {5: send}, 20)
    assert [c for c, *_ in _crossings(run, (0, 0), "east")] == [6, 7]
    assert run["high_water"][((0, 0), "local")] == 1
    assert run["injects"][0][2:] == (5, 6)


class TestLazyRings:
    def test_idle_mesh_allocates_no_ring(self):
        core = FlatMesh(32, 32).core
        directional = [ring for fid, ring in enumerate(core._rings)
                       if fid % 5]
        assert len(directional) == 32 * 32 * 4
        assert all(ring is _NO_RING for ring in directional)
        # LOCAL slots are the adapter FIFOs' own queues.
        assert all(core._rings[r * 5] is fifo._items
                   for r, fifo in enumerate(core._local_in))

    def test_a_used_ring_is_private_and_kept(self):
        reset_id_counters()
        sim = CycleSimulator()
        mesh = FlatMesh(3, 2)
        ports = {c: mesh.attach(c) for c in [(0, 0), (2, 0), (2, 1)]}
        mesh.register(sim)
        ports[(0, 0)].send(_message((0, 0), (2, 0), 4))
        ports[(2, 1)].send(_message((2, 1), (2, 0), 4))
        for _ in range(40):
            sim.run(1)
            ports[(2, 0)].receive()
        core = mesh.core
        assert sim.wake_cycle(core) is None     # asleep until a wake
        assert core.check_invariants(sim.cycle) == []
        used = [ring for fid, ring in enumerate(core._rings)
                if fid % 5 and ring is not _NO_RING]
        # (1,0).west, (2,0).west and (2,0).south carried traffic.
        assert len(used) == 3
        assert all(isinstance(ring, deque) and not ring for ring in used)
        assert len({id(ring) for ring in used}) == 3
        assert _NO_RING == ()


class CountingRoute:
    """Wraps ``core.route_fn``; records every ``(here, dst)`` asked."""

    def __init__(self, core):
        self.calls = []
        self.route_fn = core.route_fn
        core.route_fn = self

    def __call__(self, here, dst):
        self.calls.append((here, dst))
        return self.route_fn(here, dst)


def _memo_size(core):
    return sum(len(row) for row in core._route_rows if row)


class TestLazyRoutes:
    """The mesh computes the routes its traffic takes: one ``route_fn``
    call per (router, destination) a head visits, nothing per router."""

    def test_idle_mesh_has_routed_nothing(self):
        core = FlatMesh(32, 32).core
        counter = CountingRoute(core)
        assert core._route_rows == [None] * (32 * 32)
        assert core.check_invariants() == []
        assert counter.calls == []

    def test_one_call_per_router_on_the_path(self):
        reset_id_counters()
        sim = CycleSimulator()
        mesh = FlatMesh(32, 32)
        ports = {c: mesh.attach(c) for c in [(0, 0), (3, 2)]}
        mesh.register(sim)
        counter = CountingRoute(mesh.core)

        def deliver():
            ports[(0, 0)].send(_message((0, 0), (3, 2), 4))
            sim.run_until(lambda: ports[(3, 2)].receive() is not None,
                          max_cycles=100)

        deliver()
        path = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
        assert counter.calls == [(here, (3, 2)) for here in path]
        rows = mesh.core._route_rows
        assert [mesh.core.coords[r] for r, row in enumerate(rows)
                if row is not None] == path
        assert _memo_size(mesh.core) == len(path)
        deliver()
        assert len(counter.calls) == len(path)

    def test_a_run_routes_at_most_routers_times_ports(self):
        """``tests/test_scaled_echo.py``'s far-east placement
        (perflab's 32x32 scaled to 8x4)."""
        from repro.designs import (
            ScaledEchoDesign,
            attach_client,
            client_frame,
        )

        reset_id_counters()
        coords = [(x, y) for x in (6, 7) for y in range(4)]
        design = ScaledEchoDesign(n_apps=len(coords), width=8, height=4,
                                  app_coords=coords)
        core = design.mesh.core
        counter = CountingRoute(core)
        frames = [client_frame(design, bytes(700), src_port=5000 + i)
                  for i in range(24)]
        _source, sink = attach_client(design, frames, rate=None, count=24)
        design.sim.run_until(lambda: sink.count >= 24, max_cycles=20_000)
        assert sum(1 for app in design.apps if app.requests) > 1
        assert 0 < len(counter.calls) <= 8 * 4 * len(design.mesh.ports)
        assert len(set(counter.calls)) == len(counter.calls)
        assert _memo_size(core) == len(counter.calls)
        assert core.check_invariants(design.sim.cycle) == []


def forwarding_counts(mesh):
    """Every router's per-output forwarding counts, and the mesh total."""
    return ({coord: router.flits_per_output
             for coord, router in mesh.routers.items()},
            mesh.total_flits_forwarded)


def forwarding_in_lockstep(build, payload_bytes, n_frames, cycles):
    """Step ``build(profile)`` under both profiles one cycle at a time,
    ``n_frames`` echo requests of ``payload_bytes`` offered back to
    back, and require the forwarding counts to agree after every cycle.

    Returns the cycles at whose end the flat mesh's raw per-grant
    credits ran ahead of its exact counts: a run with none could not
    tell a reader that skips the correction from one that applies it.
    """
    from repro.designs import attach_client, client_frame

    designs = []
    for profile in ("fast", "reference"):
        reset_id_counters()
        design = build(profile)
        frames = [client_frame(design, bytes([i]) * payload_bytes,
                               src_port=5000 + i)
                  for i in range(n_frames)]
        attach_client(design, frames, rate=None, count=n_frames)
        designs.append(design)
    fast, reference = designs
    core = fast.mesh.core
    ahead = 0
    for _ in range(cycles):
        fast.sim.run(1)
        reference.sim.run(1)
        counts = forwarding_counts(fast.mesh)
        assert counts == forwarding_counts(reference.mesh), fast.sim.cycle
        ahead += sum(core._fwd_out) != counts[1]
    assert core.check_invariants(fast.sim.cycle) == []
    return ahead


def _scaled_echo(**keywords):
    from repro.designs import ScaledEchoDesign
    return lambda profile: ScaledEchoDesign(profile=profile, **keywords)


# perflab's 32x32 placement at 8x8: replicas in the two far-east
# columns, so every request crosses the whole mesh and back.
_FAR_EAST = _scaled_echo(n_apps=16, width=8, height=8,
                         app_coords=[(x, y) for x in (6, 7)
                                     for y in range(8)])


class TestForwardingCountsEveryCycle:
    """A grant credits its whole message to the output at once; what
    every reader returns is still the count of flits moved, at every
    cycle, mid-message included."""

    @pytest.mark.parametrize("build, payload_bytes, n_frames, cycles", [
        (_scaled_echo(), 1458, 8, 700),
        (_scaled_echo(), 64, 24, 500),
        (_scaled_echo(), 700, 12, 600),
        (_FAR_EAST, 1458, 6, 700),
    ], ids=["7x4_mtu", "7x4_64b", "7x4_700b", "8x8_far_east_mtu"])
    def test_flat_matches_object_mesh(self, build, payload_bytes, n_frames,
                                      cycles):
        assert forwarding_in_lockstep(build, payload_bytes, n_frames,
                                      cycles)


def _row_until(stop):
    """A 3x1 row streaming one 6-flit message from (0, 0) to (2, 0),
    stepped until ``stop(core)``.  Output ofids: (0,0).east 1,
    (1,0).east 6, (2,0).local 10; input fids: (0,0).local 0,
    (1,0).west 7."""
    reset_id_counters()
    sim = CycleSimulator()
    mesh = FlatMesh(3, 1)
    ports = {c: mesh.attach(c) for c in [(0, 0), (2, 0)]}
    mesh.register(sim)
    ports[(0, 0)].send(_message((0, 0), (2, 0), 6))
    core = mesh.core
    while not stop(core):
        sim.run(1)
    assert core.check_invariants(sim.cycle) == []
    return sim, core, ports[(0, 0)]


class TestCreditChecks:
    """``check_invariants`` finds every lock's next flit the way the
    forwarding readers do, and reports a search that fails."""

    def test_a_drained_local_input_is_read_through_its_port(self):
        sim, core, port = _row_until(lambda core: core._grant[1] >= 0)
        before = core.forwarded(1), core.total_flits_forwarded
        # The flit a mid-step reader may find still queued at the port.
        port._pending_flits.appendleft(core._rings[0].popleft())
        core._ring_total -= 1
        assert not core._rings[0]
        assert (core.forwarded(1), core.total_flits_forwarded) == before
        assert core.check_invariants(sim.cycle) == []

    def test_a_search_that_reaches_an_unlocked_output(self):
        # The tail has left (0,0).east but not (1,0).east.
        sim, core, _port = _row_until(
            lambda core: core._grant[1] < 0 <= core._grant[6])
        flits = list(core._rings[7])
        core._rings[7].clear()
        # Bait: a search that followed the free output's -1 would find
        # these and report nothing.
        core._rings[-1] = deque(flits)
        problems = core.check_invariants(sim.cycle)
        assert ("locked output 6: input 7 ran dry and output 1 feeding "
                "it is unlocked") in problems
        with pytest.raises(LookupError):
            core.forwarded(6)

    def test_a_search_that_finds_no_flit(self):
        sim, core, port = _row_until(lambda core: core._grant[1] >= 0)
        core._rings[0].clear()
        port._pending_flits.clear()
        problems = core.check_invariants(sim.cycle)
        assert ("locked output 1: input 0 and its injection queue hold "
                "none of the message") in problems

    def test_a_head_where_the_next_flit_should_be(self):
        sim, core, _port = _row_until(
            lambda core: core._grant[6] >= 0 and core._rings[7])
        core._rings[7][0] |= HANDLE_HEAD
        problems = core.check_invariants(sim.cycle)
        assert any(p.startswith("locked output 6: ") and "head=True" in p
                   for p in problems)


def _walks(size, attach, script, cycles):
    """Step a flat mesh a cycle at a time: the active-output list
    before and after each step, checked sorted and consistent with the
    rest of the state machine after every one."""
    reset_id_counters()
    sim = CycleSimulator()
    mesh = FlatMesh(*size)
    ports = {coord: mesh.attach(coord) for coord in attach}
    mesh.register(sim)
    core = mesh.core
    walks = []
    for cycle in range(cycles):
        if cycle in script:
            script[cycle](ports)
        before = list(core._active)
        sim.run(1)
        assert core._active == sorted(core._active)
        assert core.check_invariants(sim.cycle) == []
        walks.append((before, list(core._active)))
        for port in ports.values():
            port.receive()
    return [walk for walk in walks if walk[0] != walk[1]]


class TestActiveListInPlace:
    """The active-output list is kept sorted in place and never
    rebuilt: an activation is inserted, and every output a walk retires
    is removed after the walk, in walk order."""

    def test_one_output_retires(self):
        def send(ports):
            ports[(0, 0)].send(_message((0, 0), (1, 0), 3))

        walks = _walks((2, 1), [(0, 0), (1, 0)], {0: send}, 20)
        # (0,0).east is ofid 1, (1,0).local ofid 5: each tail frees
        # one output in its own walk.
        assert walks == [([], [1]), ([1], [1, 5]), ([1, 5], [5]),
                         ([5], [])]

    def test_two_outputs_retire_in_one_walk(self):
        def send(ports):
            ports[(0, 0)].send(_message((0, 0), (1, 0), 3))
            ports[(0, 1)].send(_message((0, 1), (1, 1), 3))

        walks = _walks((2, 2), [(0, 0), (1, 0), (0, 1), (1, 1)],
                       {0: send}, 20)
        assert walks == [([], [1, 11]), ([1, 11], [1, 5, 11, 15]),
                         ([1, 5, 11, 15], [5, 15]), ([5, 15], [])]

    def test_an_output_below_every_active_one_activates_first(self):
        def long_message(ports):
            ports[(2, 0)].send(_message((2, 0), (1, 0), 12))

        def short_message(ports):
            ports[(0, 0)].send(_message((0, 0), (1, 0), 2))

        walks = _walks((3, 1), [(0, 0), (1, 0), (2, 0)],
                       {0: long_message, 4: short_message}, 40)
        # (0,0).east (ofid 1) joins below (1,0).local and (2,0).west.
        assert ([5, 12], [1, 5, 12]) in walks
        assert walks[-1] == ([5], [])


def test_check_invariants_follows_the_ring_representation():
    sim = CycleSimulator()
    mesh = FlatMesh(2, 1)
    ports = {c: mesh.attach(c) for c in [(0, 0), (1, 0)]}
    mesh.register(sim)
    ports[(0, 0)].send(_message((0, 0), (1, 0), 6))
    sim.run(4)
    core = mesh.core
    assert core._ring_total == sum(map(len, core._rings)) > 0
    assert core.check_invariants(sim.cycle) == []
    core._ring_total += 1
    core._pushc[7] = sim.cycle
    core._local_in[1]._staged.append("stray")
    problems = core.check_invariants(sim.cycle)
    assert len(problems) == 3
    assert "_ring_total" in problems[0]
    assert "_pushc" in problems[1]
    assert "router(1, 0).in.local" in problems[2]
    # Without the cycle the stamps cannot be judged.
    assert len(core.check_invariants()) == 2
