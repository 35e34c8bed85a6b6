"""Array-of-struct ("flat") mesh backend — the compiled fast path.

:class:`repro.noc.mesh.Mesh` builds one Python object per router and
five :class:`~repro.sim.kernel.StagedFifo` objects per router; stepping
a saturated mesh is then a cascade of method calls and attribute loads.
:class:`FlatMesh` keeps the same construction API and the same
*observable* behaviour but compiles the mesh into flat parallel arrays
(``array('q')`` per-output state, compiled int64 rings, and the lists
and dicts around them, held by one :class:`FlatMeshCore`).

Those arrays and rings are the mesh's state, and the only copy of it.
The walk that mutates them each cycle is C: ``mesh_step`` in
``_flatstep.c`` beside this module (which also holds
``repro.tiles.flatcore``'s step and the scheduled kernel's loop),
compiled by the first scheduled simulator or flat core an interpreter
builds (a C compiler and the Python headers, which
``profile="reference"`` does not need) and called by that loop, or as
``FlatMeshCore.step``.  It moves flits as C integers through the very
objects every reader below — ``forwarded``, ``check_invariants``, the
router and ring views, the fault hooks, the tracer — reads from Python
by the same names and indexing, and the description that follows is
the specification the C code implements:

- every queue of flit handles is a ``Ring`` (``_flatstep.Ring``, the
  module's ``compiled().Ring``): an int64 circular buffer that doubles
  when it fills, with the slice of the ``deque`` surface its readers
  use (``len``, truth, ``r[i]``, iteration, ``popleft``, ``append``,
  ``appendleft``, ``extend``, ``clear``).  Pushing anything but an int
  into one raises a ``TypeError`` naming ``LocalPort.send``, the one
  way in.  The core installs a ring wherever it creates or wires a
  queue: the router inputs, the ejection FIFOs' committed queues
  (``StagedFifo._items``) and each port's injection queue
  (``_pending_flits``);
- the five input FIFOs of every router are one list of rings
  indexed ``fid = router_index * 5 + port_index``, each ``depth``
  flits deep: the LOCAL slot is a ring from the start, a directional
  slot a ring allocated on its first push (until then it shares one
  empty sentinel, so an idle 32x32 mesh owns no directional ring at
  all).  Nothing is staged: what a router may see of a ring this
  cycle is decided by two per-ring *cycle stamps* (below), so each
  moved flit is touched once and the core has no ``commit`` at all;
- a routing decision is one ``route_fn`` call per (router, in-mesh
  destination), made when a head flit first needs it and kept in that
  router's memo: nothing is built per router, and a corrupted ``dst``
  off the mesh is routed afresh every time, so it cannot grow the memo;
- wormhole grants, round-robin pointers and pending-head requests
  are ``array('q')`` objects indexed by output,
  ``ofid = router_index * 5 + out_port_index``, as are the other
  per-input and per-output integers (stamps, high-water marks, wiring,
  forwarding counts); the C takes each through the buffer protocol
  once a step;
- the whole mesh steps in one loop per cycle inside a single
  :class:`FlatMeshCore` component, and that loop is *output-centric*:
  it walks one sorted list of **active outputs** — those locked by a
  wormhole or requested by a waiting head flit — and moves at most one
  flit through each.  Cost is per flit moved, not per router scanned.

Per-input head state (``_req[fid]``) is a three-state machine that
survives pops and cycle boundaries:

- ``-2``: the next flit to reach the front is a head not yet routed.
  When one does (a flit lands in the empty input, or a departing tail
  leaves flits behind) the input joins ``_unres``; the next step start
  routes it, sets its bit in the output's requester mask ``_rq[ofid]``
  and activates the output.
- ``>= 0``: a routed head waiting for that output port.  It pays for
  routing once and for round-robin only when the output is free.
- ``-1``: mid-message — the input owns a lock (``_grant[ofid]`` holds
  its fid) and whatever arrives is body.  A locked output moves its
  owner's next flit with no request resolution at all; the tail flit
  releases the lock and returns the input to ``-2``.

An output leaves the active list once it is neither locked nor
requested.  The list only changes between walks, and stays sorted in
place, never rebuilt: an activation at step start is one ``insort``,
each output the walk retired one ``remove`` after the loop.  So a head
exposed by a departing tail waits one cycle for arbitration, exactly as
in ``Router.step``.  A locked output is visited owner first: a walk
whose owner has no flit ready looks at nothing downstream.

Forwarding counts are credited per message, not per move: the grant
adds the whole message (the head handle's count + 1) to
``_fwd_out[ofid]``.  The readers — :meth:`FlatMeshCore.forwarded`,
``total_flits_forwarded``, ``FlatRouterView.flits_per_output`` — take
back, for each locked output, the flits of its message not yet through
it: the next flit's count + 1, found at the front of the owner's input
or, where that ran dry, further up the same wormhole.  So every count
is exact between steps, as the object mesh's per-move counters are;
raw ``_fwd_out`` runs ahead mid-message and nothing else reads it.

The *adapter boundary* sits at ejection: every attached port's
ejection FIFO stays a real ``StagedFifo``, woken for its consumer, and
tiles talk to :class:`~repro.noc.mesh.LocalPort`.  That keeps tiles,
the tracer, the linter's wake-contract checks, and ``run_record``
working unchanged.  A router's LOCAL input is a ring like the other
four: only this core's injection phase fills it and only its walk
drains it, so it has no wake hook to keep.  What those FIFOs, the
rings and a port's injection queue *hold* is an int handle, not a
``Flit`` (format: :mod:`repro.noc.flit`).
Body flits carry nothing the fabric reads, so injection start files a
copy of the message — the one ``to_flits()`` would capture, at the same
moment — in ``_inflight`` under a fresh sequence number and queues a
``range`` of handles; the walk moves ints (tail test ``handle < 0``,
``dst`` read from the table once per head) and the ejecting port counts
them and takes the message out on the tail.  The key is an injection
sequence number, not ``msg_id``, which nothing keeps unique among
messages in flight: a tile may send one message object twice, or
forward the message it received.  ``Flit`` objects are built, once per
message by ``to_flits()``, only for someone who looks at one — a
recording tracer, a port with an ejection fault filter
(:meth:`FlatMeshCore.flit_of`).

Ejection is stamped the same way.  The LOCAL output appends the handle
straight to the ejection FIFO's committed queue and stamps the cycle on
the FIFO (``StagedFifo._pushc``); a consumer stepping at cycle ``c``
may take ``len - (pushed at c)`` flits, so a flit ejected at ``c`` is
first consumable at ``c + 1`` whether its consumer steps before or
after this core — what staging and ``LocalPort.commit`` give the object
mesh.  Every consumer goes through ``LocalPort.pop_flit(cycle)`` /
``receive(cycle)`` (``FlatTileCore`` inlines it), which is also where
``high_water`` stays the exact end-of-cycle depth: the push raises the
mark and stamps the raise (``_hwc``), a pop later in the same cycle
takes it back — as ``_hw`` / ``_hwc`` do for the rings.  The room test
needs no stamp: ejection credit is same-cycle under the object mesh
too (``Router.step``), and an output pushes at most once a cycle.

An ejection fires its FIFO's wake hooks only on the *empty ->
non-empty edge* (in a streaming message the previous flit is still
there: 23 of 24 ejections at MTU call nothing).  That is enough because
nobody sleeps over a FIFO that holds flits: a consumer's step may not
return a later cycle while a FIFO it consumes holds items (DESIGN.md
5c) — ``FlatTileCore`` keeps the tile's busy byte set, ``Tile.step`` and
``ControlEndpoint.step`` return None.  (``StagedFifo.push`` wakes
nobody: the object mesh stages, and runs only under the naive kernel,
which steps everyone.)

Bit-identity with ``Router.step`` rests on two facts.  Ascending
``ofid`` is the object backend's visit order (routers row-major in
registration order, each router's outputs in port order, then ports in
attachment order), so counters, credits and trace events come out in
the same sequence.  And a ring sees at most one push and one pop per
cycle — it has exactly one upstream output, an output moves at most one
flit a cycle, and its front flit belongs to one lock or one request —
so "pushed this cycle" and "popped this cycle" are one stamp each
(``_pushc[fid] == cycle``, ``_popc[fid] == cycle``).  With ``n`` flits
physically in the ring, its router may take ``n - pushed`` of them and
the upstream output sees the lagged credit count ``n + popped`` (it
reads it before its own push): the two-phase view the object backend
gets from staging and commit, whichever of the two routers is visited
first.  The LOCAL input needs no push or pop stamp, because the
injection phase that fills it runs after the router walk of the same
``step``; its high-water mark is raised as the walk raises the others.
The differential suite in ``tests/test_kernel_equivalence.py`` pins it
against the object backend on every shipped design;
:meth:`FlatMeshCore.check_invariants` cross-checks the state machine
itself.

Scheduling: the core is one schedulable component with no ``commit``.
``kernel_substeps()`` (the attached ports) tells the linter who really
steps inside it.  Its ``step`` returns :data:`~repro.sim.kernel.NEVER`
when no router input holds a flit and no port has anything to inject —
the conjunction of the object backend's per-component contracts, read
off ``_ring_total`` and the ports' busy bytes ``_inj_busy`` — and None
(every cycle) otherwise.  A port's ``_kernel_wake`` is the compiled
waker ``FlatTileCore`` hands its tiles too: it sets the byte and wakes
the core only if the byte was clear.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import time
from array import array
from collections import deque

from repro.noc.flit import (
    _BYTES_LIKE,
    HANDLE_COUNT_MASK,
    HANDLE_HEAD,
    HANDLE_SEQ_SHIFT,
    Flit,
    decode_handle,
)
from repro.noc.mesh import LocalPort, handle_framing_error
from repro.noc.message import NocMessage, next_packet_id
from repro.noc.router import (
    _ALL_PORTS,
    _N_PORTS,
    _PORT_VALUES,
    misroute_index,
)
from repro.noc.routing import Port, xy_route
from repro.params import FLIT_BYTES, ROUTER_INPUT_FIFO_FLITS
from repro.sim.kernel import NEVER, CycleSimulator, StagedFifo, Wakeable
from repro.telemetry.trace import NULL_TRACER

# Port indices, identical to repro.noc.router's hot-path encoding.
_LOCAL = 0
_EAST = 1
_WEST = 2
_NORTH = 3
_SOUTH = 4

# What every directional input slot holds until its first push: empty,
# falsy and immutable, so a push that forgets to allocate fails loudly.
_NO_RING: tuple = ()

#: The C source of both flat cores' steps (this mesh's and
#: ``repro.tiles.flatcore``'s) and of the scheduled kernel's loop
#: (``repro.sim.kernel``), and where its build is cached: keyed by
#: the source's hash and the interpreter's extension suffix, so an edit
#: or another Python builds afresh and nothing stale is ever loaded.
_SOURCE = os.path.join(os.path.dirname(__file__), "_flatstep.c")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")

#: What every build failure ends with.
_NEEDS = ('profile="fast" needs a C compiler and the Python headers; '
          'profile="reference" needs no compiler.')

#: The compiled module, loaded by the first scheduled simulator or flat
#: core an interpreter builds (not at import: ``reference`` needs no
#: build).
_module = None


def compiled():
    """The compiled module (``mesh_step``, ``tile_step``, ``waker``, the
    kernel's ``tick``, ``run`` and ``kernel_waker``), built into the
    cache on first use and loaded once per interpreter; a failed build
    raises ``RuntimeError``."""
    global _module
    if _module is None:
        with open(_SOURCE, "rb") as file:
            digest = hashlib.sha256(file.read()).hexdigest()[:16]
        name = (f"_flatstep-{digest}"
                f"{importlib.machinery.EXTENSION_SUFFIXES[0]}")
        path = os.path.join(_CACHE, name)
        if not os.path.exists(path):
            try:
                os.makedirs(_CACHE, exist_ok=True)
                writable = os.access(_CACHE, os.W_OK)
            except OSError:
                writable = False
            if not writable:
                path = os.path.join(_private_cache(), name)
            if not os.path.exists(path):
                _build(path)
        spec = importlib.util.spec_from_file_location("_flatstep", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.bind(deque, NocMessage, _BYTES_LIKE, tuple(_PORT_VALUES),
                    _NO_RING, NEVER, FLIT_BYTES, HANDLE_SEQ_SHIFT,
                    HANDLE_HEAD, handle_framing_error, next_packet_id,
                    CycleSimulator.tick, time.monotonic)
        _module = module
    return _module


def _private_cache() -> str:
    """The cache used when the package's own is read-only: one
    directory per user under the temporary directory, made ``0o700``.
    What it holds is loaded as code, so it is refused unless this user
    owns it and nobody else may write to it."""
    import stat
    import tempfile

    uid = os.getuid()
    cache = os.path.join(tempfile.gettempdir(), f"repro-flatstep-{uid}")
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        info = os.lstat(cache)
    except OSError as error:
        problem = str(error)
    else:
        if not stat.S_ISDIR(info.st_mode):
            problem = "it is not a directory"
        elif info.st_uid != uid:
            problem = f"it is owned by uid {info.st_uid}, not {uid}"
        elif info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            problem = "others may write to it"
        else:
            return cache
    raise RuntimeError(
        f"cannot cache the flat cores' steps in {cache}: {problem}\n"
        f"{_NEEDS}")


def _build(path: str) -> None:
    """Compile ``_SOURCE`` into ``path``, atomically: a temporary name
    first, so a concurrent loader never sees half a file."""
    import shlex
    import subprocess
    import sysconfig

    partial = f"{path}.{os.getpid()}.tmp"
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"),
               "-O2", "-shared", "-fPIC",
               "-I", sysconfig.get_paths()["include"],
               _SOURCE, "-o", partial]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as error:
        complaint = str(error)
    else:
        if done.returncode == 0:
            os.replace(partial, path)
            return
        complaint = done.stderr.strip()
    if os.path.exists(partial):
        os.remove(partial)
    raise RuntimeError(
        f"cannot build the flat cores' steps from {_SOURCE}: "
        f"{' '.join(command)} failed:\n{complaint}\n{_NEEDS}")


class _RingView:
    """Read-only stand-in for a router input FIFO.

    Exposes the slice of the ``StagedFifo`` surface the linter and
    telemetry read (``capacity``, ``name``, occupancy); pushes go
    through the core's rings, never through this view.  Between
    cycles nothing is in flight, so occupancy is the ring's length.
    """

    __slots__ = ("_core", "_fid", "capacity", "name")

    def __init__(self, core: FlatMeshCore, fid: int, name: str):
        self._core = core
        self._fid = fid
        self.capacity = core.depth
        self.name = name

    def __len__(self) -> int:
        return len(self._core._rings[self._fid])

    @property
    def occupancy(self) -> int:
        return len(self)

    @property
    def high_water(self) -> int:
        return self._core._hw[self._fid]


class FlatRouterView:
    """Per-router facade over :class:`FlatMeshCore`'s arrays.

    Quacks like :class:`repro.noc.router.Router` for everything outside
    the hot loop: ``coord``/``name``, the ``inputs`` dict (one
    :class:`_RingView` per port, LOCAL included: like every queue of a
    flat mesh, the rings behind them hold int handles, not ``Flit``
    objects, and messages enter through ``LocalPort.send`` only),
    ``connect_output`` for the LOCAL ejection hookup, the forwarding
    counters, and a ``tracer`` property that forwards to the core so
    ``attach_tracer`` works untouched.
    """

    __slots__ = ("_core", "_index", "coord", "name", "inputs")

    def __init__(self, core: FlatMeshCore, index: int,
                 coord: tuple[int, int]):
        self._core = core
        self._index = index
        self.coord = coord
        self.name = f"router{coord}"
        base = index * _N_PORTS
        self.inputs: dict[Port, _RingView] = {
            port: _RingView(core, base + port_index,
                            f"{self.name}.in.{port.value}")
            for port_index, port in enumerate(_ALL_PORTS)}

    def fault_misroute(self, enabled: bool) -> None:
        """Enter/leave a misroute-one-hop window (see
        :meth:`repro.noc.router.Router.fault_misroute`)."""
        self._core.set_misroute(self._index, enabled)

    def fault_block_output(self, out_index: int, blocked: bool) -> None:
        """Stick/release this router's output ``out_index`` (see
        :meth:`repro.noc.router.Router.fault_block_output`)."""
        self._core.set_fault_block(self._index, out_index, blocked)

    def connect_output(self, port: Port, downstream: StagedFifo) -> None:
        if port is not Port.LOCAL:
            raise ValueError(
                "flat routers wire directional links internally; only "
                "the LOCAL ejection FIFO is connectable")
        self._core.set_eject(self._index, downstream)

    @property
    def flits_forwarded(self) -> int:
        return sum(self.flits_per_output.values())

    @property
    def flits_per_output(self) -> dict[Port, int]:
        base = self._index * _N_PORTS
        forwarded = self._core.forwarded
        return {port: forwarded(base + port_index)
                for port_index, port in enumerate(_ALL_PORTS)}

    def _set_tracer(self, value) -> None:
        self._core.tracer = value

    #: Write-only: ``attach_tracer`` sets every router's tracer, and
    #: the core holds the one the mesh reports to.
    tracer = property(fset=_set_tracer)


class FlatMeshCore(Wakeable):
    """The entire mesh as one clocked component.

    ``step`` (C, ``_flatstep.c``) resolves newly exposed head flits,
    walks the sorted list of active outputs moving at most one flit
    through each, then steps the attached local ports in attachment
    order.  Nothing is staged,
    so there is no ``commit``: rings and ejection FIFOs carry cycle
    stamps instead.  See the module docstring for the state machine
    and the equivalence argument.
    """

    name = "flatmesh.core"
    tracer = NULL_TRACER

    def __init__(self, width: int, height: int, depth: int):
        module = compiled()
        # The scheduled clock calls ``mesh_step`` itself, not ``step``,
        # unless ``step`` is shadowed on the instance.
        module.step_directly(FlatMeshCore, module.mesh_step)
        self._step = module.mesh_step
        Ring = module.Ring
        self.width = width
        self.height = height
        self.depth = depth
        self.route_fn = xy_route
        n = width * height
        self.n_routers = n
        n5 = n * _N_PORTS
        self.coords: list[tuple[int, int]] = [
            (x, y) for y in range(height) for x in range(width)
        ]
        # Router inputs, fid = r * 5 + port_index: a LOCAL ring, or a
        # directional one (_NO_RING until its first push; unwired
        # mesh-edge slots never allocate).
        self._rings: list = [_NO_RING] * n5
        for r in range(n):
            self._rings[r * _N_PORTS] = Ring()
        # The cycle of each ring's latest push and pop.  A flit pushed
        # this cycle is not yet poppable; a pop this cycle is not yet a
        # credit upstream (inter-router credit return lags one cycle,
        # see repro.noc.router's module docstring).
        self._pushc = array("q", [-1]) * n5
        self._popc = array("q", [-1]) * n5
        # Wormhole state per output ofid: the fid of the input owning
        # it (-1 = free), the round-robin pointer (an input port index,
        # as Router._rr) and the bitmask of input ports whose routed
        # head waits for it.
        self._grant = array("q", [-1]) * n5
        self._rr = array("q", [0]) * n5
        self._rq = array("q", [0]) * n5
        # Head state per input (-2 / -1 / out port, see the module
        # docstring; fid base+LOCAL tracks the LOCAL input), the
        # inputs whose front flit is an unrouted head, and the
        # ascending ofids that are locked or requested.
        self._req = array("q", [-2]) * n5
        self._unres: list[int] = []
        self._active: list[int] = []
        # Output wiring: fid of the downstream ring per output, -1 for
        # an unconnected mesh edge, -2 for LOCAL outputs, which eject
        # through _ejects.
        self._down = array("q", [-1]) * n5
        for r in range(n):
            x = r % width
            y = r // width
            base = r * _N_PORTS
            self._down[base] = -2
            if x + 1 < width:
                self._down[base + _EAST] = (r + 1) * _N_PORTS + _WEST
            if x > 0:
                self._down[base + _WEST] = (r - 1) * _N_PORTS + _EAST
            if y > 0:
                self._down[base + _NORTH] = (r - width) * _N_PORTS + _SOUTH
            if y + 1 < height:
                self._down[base + _SOUTH] = (r + width) * _N_PORTS + _NORTH
        self._ejects: list[StagedFifo | None] = [None] * n
        # Routes taken so far: _route_rows[r][dst_y * width + dst_x] is
        # the output port index for a head flit at router r, filed by
        # the first head that asked (None until a router routes one).
        self._route_rows: list[dict[int, int] | None] = [None] * n
        # Flits in all router inputs, sum(len(ring)), for step's answer.
        self._ring_total = 0
        # Byte i set iff port i (attachment order) may have injection
        # work; never replaced, since every port's waker holds it.
        self._inj_busy = bytearray()
        # Attached ports, in attachment order (= object-backend
        # registration order), batch-stepped after the router phase.
        self._ports_list: list[LocalPort] = []
        # Injection-phase companion: (port, LOCAL fid) so the hot loops
        # never re-derive the wiring.
        self._inj: list[tuple[LocalPort, int]] = []
        # Router-internal fault state: routers currently misrouting
        # (their _route_rows entry holds *deflected* routes), and
        # the set of stuck ofids (None when no stuck-grant window is
        # open, keeping the hot path one test).
        self._misrouted: set[int] = set()
        self._fault_blocked: set[int] | None = None
        # Flits credited per output: each grant adds its whole message,
        # so a locked output runs ahead of Router._flits_per_output
        # until its tail has passed.  Read through ``forwarded``.
        self._fwd_out = array("q", [0]) * n5
        # Ring high-water marks, mirroring StagedFifo.high_water: the
        # deepest end-of-cycle depth per router input.  Raised at
        # push time; _hwc stamps the cycle of the raise so a pop later
        # in that cycle can take it back.
        self._hw = array("q", [0]) * n5
        self._hwc = array("q", [-1]) * n5
        # Messages in flight by injection sequence number (module
        # docstring), and the ``Flit`` objects of those somebody looked
        # at; an ``_observed`` entry leaves with its ``_inflight`` one.
        # ``_seq`` pre-increments from 0, so no message is ever filed
        # under 0, which the negated-tail encoding could not tell apart.
        self._inflight: dict[int, NocMessage] = {}
        self._observed: dict[int, list[Flit]] = {}
        self._seq = 0

    # -- wiring -----------------------------------------------------------

    def set_eject(self, index: int, downstream: StagedFifo) -> None:
        # Before a tile core adopts the port and caches the queue.
        downstream._items = compiled().Ring(downstream._items)
        self._ejects[index] = downstream

    def add_port(self, port: LocalPort) -> None:
        self._ports_list.append(port)
        port._core = self
        port._pending_flits = compiled().Ring(port._pending_flits)
        r = port.router._index
        # A port starts clear: it has nothing to inject until a send,
        # whose _wake() sets its byte and wakes the core if it was.
        port._kernel_wake = compiled().waker(self, self._inj_busy,
                                             len(self._inj))
        self._inj_busy.append(0)
        self._inj.append((port, r * _N_PORTS))

    def _route(self, r: int, dst) -> int:
        """Output port index for a head at router ``r`` bound for
        ``dst``, deflected while ``r`` is in a misroute-one-hop window
        (so the window is baked into what head resolution memoises)."""
        want = _ALL_PORTS.index(self.route_fn(self.coords[r], dst))
        if r in self._misrouted:
            want = misroute_index(want, self._fault_connected_mask(r))
        return want

    # -- router-internal faults (see repro.faults) ------------------------

    def _fault_connected_mask(self, r: int) -> int:
        """Connected-output bitmask for router ``r``, matching the
        object backend's ``Router._connected_mask``."""
        base = r * _N_PORTS
        mask = 1 if self._ejects[r] is not None else 0
        for i in range(1, _N_PORTS):
            if self._down[base + i] >= 0:
                mask |= 1 << i
        return mask

    def set_misroute(self, r: int, enabled: bool) -> None:
        if enabled:
            if r in self._misrouted:
                return
            self._misrouted.add(r)
        else:
            if r not in self._misrouted:
                return
            self._misrouted.discard(r)
        # Forget this router's routes and send routed-but-ungranted
        # heads back for resolution: decisions made before the toggle
        # stand (a locked input already claimed its output), decisions
        # not yet made use the new table — the same boundary the object
        # backend gets from swapping route_fn between steps.
        self._route_rows[r] = None
        base = r * _N_PORTS
        req = self._req
        for i in range(_N_PORTS):
            want = req[base + i]
            if want < 0:
                continue
            ofid = base + want
            self._rq[ofid] &= ~(1 << i)
            if not self._rq[ofid] and self._grant[ofid] < 0:
                self._active.remove(ofid)
            req[base + i] = -2
            self._unres.append(base + i)

    def set_fault_block(self, r: int, out_index: int,
                        blocked: bool) -> None:
        ofid = r * _N_PORTS + out_index
        if blocked:
            if self._fault_blocked is None:
                self._fault_blocked = set()
            self._fault_blocked.add(ofid)
        elif self._fault_blocked is not None:
            self._fault_blocked.discard(ofid)
            if not self._fault_blocked:
                self._fault_blocked = None

    # -- scheduling contract ----------------------------------------------

    def kernel_substeps(self):
        """Components batch-stepped inside this one (for the linter)."""
        return list(self._ports_list)

    # -- per-cycle behaviour ----------------------------------------------

    def step(self, cycle: int) -> int | None:
        """One cycle of the whole mesh: resolve newly exposed heads,
        walk the active outputs, step the busy ports.  The body is C
        (``_flatstep.c`` beside this file) over this object's arrays,
        rings and lists.

        Due every cycle (None) while a flit is in a router input or a
        port has anything to inject (a port's busy byte is set by
        ``send`` and cleared only once its queues are empty): the
        conjunction of the object backend's per-component contracts.
        """
        return self._step(self, cycle)

    def flit_of(self, handle: int) -> Flit:
        """The ``Flit`` a handle stands for, for whoever looks at one
        (tracer, a port's ejection fault filter).

        A message's flits are built once, by ``to_flits()`` on its
        in-flight copy, so an observer sees the same object at every
        hop — as it does under the object mesh.
        """
        seq, _head, _tail, count = decode_handle(handle)
        flits = self._observed.get(seq)
        if flits is None:
            flits = self._observed[seq] = self._inflight[seq].to_flits()
        return flits[~count]

    def take(self, seq: int) -> NocMessage:
        """Remove and return the message injected as ``seq``: its tail
        handle has been ejected."""
        self._observed.pop(seq, None)
        return self._inflight.pop(seq)

    # -- statistics -------------------------------------------------------

    def forwarded(self, ofid: int) -> int:
        """Flits output ``ofid`` has moved so far, exact between steps.

        A grant credits ``_fwd_out`` with its whole message at once, so
        a locked output gives back the flits of that message that have
        not been through it: the next one's count + 1.
        """
        moved = self._fwd_out[ofid]
        if self._grant[ofid] >= 0:
            moved -= self._unmoved(ofid)
        return moved

    @property
    def total_flits_forwarded(self) -> int:
        grant = self._grant
        return sum(self._fwd_out) - sum(
            self._unmoved(ofid) for ofid in self._active if grant[ofid] >= 0)

    def _unmoved(self, ofid: int) -> int:
        """Flits of the message locking ``ofid`` not yet through it.
        (A tail handle is negated with a zero count, so its masked bits
        are 0 as well.)"""
        return (self._next_flit(ofid) & HANDLE_COUNT_MASK) + 1

    def _next_flit(self, ofid: int) -> int:
        """The handle of the next flit of the message locking ``ofid``.

        It is at the front of the owner's input or, where that has run
        dry, further up the same wormhole: a drained directional input
        is fed by an output the same message still locks, and behind a
        drained LOCAL input is its port's injection queue.  Raises
        ``LookupError`` when the state machine says otherwise.
        """
        grant = self._grant
        rings = self._rings
        fid = grant[ofid]
        for _hop in range(self.n_routers):
            ring = rings[fid]
            if ring:
                return ring[0]
            r, i = divmod(fid, _N_PORTS)
            if i == _LOCAL:
                for port, lfid in self._inj:
                    if lfid == fid and port._pending_flits:
                        return port._pending_flits[0]
                raise LookupError(f"input {fid} and its injection queue "
                                  "hold none of the message")
            # The output feeding input port i is the opposite port of
            # the neighbour in direction i.
            up = ((r + (0, 1, -1, -self.width, self.width)[i]) * _N_PORTS
                  + (0, _WEST, _EAST, _SOUTH, _NORTH)[i])
            if not 0 <= up < len(grant) or self._down[up] != fid:
                raise LookupError(f"input {fid} ran dry and is fed by "
                                  "no output")
            if grant[up] < 0:
                raise LookupError(f"input {fid} ran dry and output {up} "
                                  "feeding it is unlocked")
            fid = grant[up]
        raise LookupError("the wormhole is longer than the mesh")

    @property
    def busy_routers(self) -> int:
        """How many routers the next step will look at: those owning
        an active output or holding a head flit still to be routed
        (the probe's fabric-activity gauge)."""
        return len({fid // _N_PORTS
                    for fid in self._active + self._unres})

    def check_invariants(self, cycle: int | None = None) -> list[str]:
        """Cross-check the step state machine; returns the violations.

        A debugging aid for tests and ``lint --sanitize`` (never called
        from ``step``), valid at any point outside ``step``.  ``cycle``
        is the next cycle the simulator will step (``sim.cycle``); when
        given, no ring stamp may have reached it — a stamp from the
        future would hide a flit or a credit that is really there.
        """
        grant = self._grant
        rq = self._rq
        req = self._req
        problems: list[str] = []
        expected = [ofid for ofid in range(len(grant))
                    if grant[ofid] >= 0 or rq[ofid]]
        if self._active != expected:
            problems.append(f"active outputs {self._active} != locked-or-"
                            f"requested outputs {expected}")
        rings = self._rings
        in_rings = sum(map(len, rings))
        if self._ring_total != in_rings:
            problems.append(f"_ring_total {self._ring_total} != "
                            f"{in_rings} flits in the router inputs")
        # Credits (injection's room test, for LOCAL) bound an input by
        # the depth, and its high-water mark by what it holds at any
        # cycle boundary.
        for fid, ring in enumerate(rings):
            held = len(ring)
            if held > self.depth:
                problems.append(f"input {fid} holds {held} flits, more "
                                f"than its depth {self.depth}")
            if held > self._hw[fid]:
                problems.append(f"input {fid} holds {held} flits, above its "
                                f"high-water mark {self._hw[fid]}")
        if cycle is not None:
            ejects = [e for e in self._ejects if e is not None]
            stamps = {"_pushc": [*self._pushc, *(e._pushc for e in ejects)],
                      "_popc": self._popc,
                      "_hwc": [*self._hwc, *(e._hwc for e in ejects)]}
            for name, values in stamps.items():
                latest = max(values)
                if latest >= cycle:
                    problems.append(f"{name} holds cycle {latest}, which "
                                    f"has not been stepped (next: {cycle})")
        # The waker wakes the core only on a clear -> set edge, so a
        # port with anything to inject must keep its byte set.
        for index, (port, _lfid) in enumerate(self._inj):
            if (port._send_queue or port._pending_flits) and \
                    not self._inj_busy[index]:
                problems.append(f"port {port.coord} is not busy but has "
                                "messages or flits to inject")
        owners = {sfid for sfid in grant if sfid >= 0}
        for fid, want in enumerate(req):
            if (want == -1) != (fid in owners):
                problems.append(f"input {fid}: _req {want} but "
                                f"lock owner is {fid in owners}")
        for ofid, mask in enumerate(rq):
            base = ofid - ofid % _N_PORTS
            for i in range(_N_PORTS):
                if not (mask >> i) & 1:
                    continue
                fid = base + i
                if not rings[fid] or req[fid] != ofid - base:
                    problems.append(
                        f"output {ofid} requested by input {fid} "
                        f"(occupied={bool(rings[fid])}, _req={req[fid]})")
        # A grant credited its whole message (``forwarded``): the lock's
        # next flit must be found, must not be a head (that one went
        # through), and no more may be left than the output was
        # credited.  (Whether the message is in flight is the table's
        # business, below.)
        for ofid, owner in enumerate(grant):
            if owner < 0:
                continue
            try:
                handle = self._next_flit(ofid)
            except LookupError as error:
                problems.append(f"locked output {ofid}: {error}")
                continue
            seq, head, _tail, count = decode_handle(handle)
            if head or count + 1 > self._fwd_out[ofid]:
                problems.append(
                    f"locked output {ofid}: {count + 1} flits of injection "
                    f"#{seq} left (head={head}) against "
                    f"{self._fwd_out[ofid]} credited")
        # A memoised route that outlived its table (a deflected one past
        # its misroute window, a clean one into it) misroutes for good.
        for r, row in enumerate(self._route_rows):
            for d, want in (row or {}).items():
                dst = (d % self.width, d // self.width)
                now = self._route(r, dst)
                if want != now:
                    problems.append(f"router {self.coords[r]} memoises output "
                                    f"{want} for {dst}, not {now}")
        problems.extend(self._check_table())
        return problems

    def _check_table(self) -> list[str]:
        """The in-flight table against every queue that holds handles."""
        inflight = self._inflight
        queues = [(f"input {fid}", ring)
                  for fid, ring in enumerate(self._rings) if ring]
        for port in self._ports_list:
            eject = port.eject_fifo
            queues.append((f"injection queue {port.coord}",
                           port._pending_flits))
            queues.append((eject.name, eject.snapshot()))
        problems: list[str] = []
        named: set[int] = set()
        dangling: dict[int, str] = {}
        for where, queue in queues:
            seen: set[int] = set()
            last = (0, 0)
            for handle in queue:
                if handle.__class__ is not int:
                    problems.append(f"{where} holds {handle!r}, not a "
                                    "handle")
                    continue
                seq, _head, _tail, count = decode_handle(handle)
                if seq not in inflight:
                    dangling.setdefault(seq, where)
                # One message's handles: one run, counting down by one.
                if seq in seen and last != (seq, count + 1):
                    problems.append(f"{where}: handle {count} of injection "
                                    f"#{seq} is out of sequence")
                seen.add(seq)
                last = (seq, count)
            named |= seen
        problems.extend(f"{where}: a handle of injection #{seq} names no "
                        "in-flight message"
                        for seq, where in dangling.items())
        problems.extend(f"in-flight message #{seq} is named by no "
                        "handle (leaked)"
                        for seq in inflight.keys() - named)
        problems.extend(f"observed flits of injection #{seq}, which is "
                        "not in flight"
                        for seq in self._observed.keys() - inflight.keys())
        return problems


class FlatMesh:
    """Drop-in :class:`~repro.noc.mesh.Mesh` replacement over a
    :class:`FlatMeshCore`.

    Construction, ``attach``, ``ports``, ``register``, ``routers`` and
    the counters all match the object mesh; ``register`` adds the
    single core component instead of per-router/per-port objects and
    routes the ports' external wake hook at it.
    """

    #: The core steps every attached port itself (they are kernel
    #: substeps, not simulator components) — designs that attach a
    #: port after ``register`` must NOT add it to the simulator.
    steps_ports = True

    def __init__(self, width: int, height: int,
                 fifo_depth: int = ROUTER_INPUT_FIFO_FLITS):
        if width < 1 or height < 1:
            raise ValueError(f"bad mesh dimensions {width}x{height}")
        self.width = width
        self.height = height
        self.core = FlatMeshCore(width, height, fifo_depth)
        self.routers: dict[tuple[int, int], FlatRouterView] = {
            coord: FlatRouterView(self.core, index, coord)
            for index, coord in enumerate(self.core.coords)
        }
        self._ports: dict[tuple[int, int], LocalPort] = {}

    def attach(self, coord: tuple[int, int]) -> LocalPort:
        """Create (or return) the local port at ``coord``."""
        if coord not in self.routers:
            raise KeyError(f"no router at {coord} in "
                           f"{self.width}x{self.height} mesh")
        if coord in self._ports:
            return self._ports[coord]
        port = LocalPort(self.routers[coord])
        self._ports[coord] = port
        self.core.add_port(port)
        return port

    @property
    def ports(self) -> dict[tuple[int, int], LocalPort]:
        """All attached local ports, keyed by coordinate."""
        return self._ports

    def register(self, simulator: CycleSimulator) -> None:
        """Add the mesh to a simulator as one batch-stepped component.

        Each port's ``_kernel_wake`` hook, the compiled waker installed
        at attach (so a port attached *after* registration too), sets
        the port's busy byte for the core's injection loop and wakes
        the core through the ``_kernel_wake`` this call fills: the
        object backend leaves late-attached ports unregistered, which
        the linter flags; the flat backend has no such hole because the
        core steps every attached port.
        """
        simulator.add(self.core)

    @property
    def total_flits_forwarded(self) -> int:
        return self.core.total_flits_forwarded

