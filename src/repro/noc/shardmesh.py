"""Column-band partitioning of a mesh for sharded execution.

:class:`ShardedMesh` splits a ``width x height`` mesh into ``shards``
contiguous column bands, builds one ordinary band mesh per shard
(object or flat backend — the same code paths an unsharded run uses),
and stitches every cut east/west link with a *boundary link*: an
egress stub on the sender side and an ingress applicator on the
receiver side.

The cut exploits the link contract :mod:`repro.noc.router` documents:
every inter-router link carries exactly one cycle of lookahead in both
directions — flits staged this cycle become visible downstream next
cycle, and credits (pops) released this cycle become visible upstream
next cycle.  So a conservative exchange that runs once per cycle,
after every shard has ticked, preserves bit-identical behaviour:

1. ``collect`` — for every link, measure the receiver-side pops since
   the last exchange (committed occupancy is monotone during a tick:
   no in-band router pushes into a cut-edge ring) and drain the
   sender's staged flits;
2. ``apply`` — extend the receiver's edge FIFO with the flits (the
   exact effect an in-band commit would have had: items, high-water,
   visible occupancy, consumer wakes) and return the pops to the
   sender's egress as credits.

The sender's room check reads ``egress.visible + len(egress.staged)``,
which this protocol keeps equal, cycle for cycle, to the
``_visible + len(_staged)`` an unsharded downstream FIFO would show.
The equivalence suite (``tests/test_shard.py``) pins this against the
single-process reference on every kernel x mesh x tile combination.
"""

from __future__ import annotations

from repro.noc.flatmesh import FlatMesh, _FlatEgress
from repro.noc.mesh import LocalPort, Mesh
from repro.noc.router import _N_PORTS
from repro.noc.routing import Port
from repro.params import ROUTER_INPUT_FIFO_FLITS
from repro.sim.kernel import StagedFifo

_EAST = 1
_WEST = 2


def band_bounds(width: int, shards: int,
                widths: list[int] | None = None) -> list[tuple[int, int]]:
    """Partition ``width`` columns into ``shards`` contiguous bands.

    Returns ``(x_offset, band_width)`` per shard; remainders go to the
    leftmost bands, so e.g. 10 columns over 4 shards yields widths
    3, 3, 2, 2.

    ``widths`` overrides the even split with explicit per-shard column
    counts (summing to ``width``) — useful when the workload loads the
    bands unevenly and a narrower band should absorb a hotspot.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > width:
        raise ValueError(
            f"cannot cut a {width}-column mesh into {shards} column "
            "bands (at most one shard per column)")
    if widths is not None:
        if len(widths) != shards:
            raise ValueError(
                f"shard_bounds lists {len(widths)} band widths "
                f"for {shards} shards")
        if any(bw < 1 for bw in widths):
            raise ValueError("every shard band needs >= 1 column")
        if sum(widths) != width:
            raise ValueError(
                f"shard_bounds widths sum to {sum(widths)}, "
                f"not the mesh width {width}")
    else:
        base, rem = divmod(width, shards)
        widths = [base + (1 if k < rem else 0) for k in range(shards)]
    bounds = []
    x0 = 0
    for bw in widths:
        bounds.append((x0, bw))
        x0 += bw
    return bounds


class _ObjectEgress:
    """Sender half of a cut link, object backend.

    Wraps a plain :class:`StagedFifo` wired as the sender router's
    directional output.  The router's lagged-credit room check reads
    ``_visible + len(_staged)`` — exactly the unsharded check — and
    nobody commits the stub: the exchange drains ``_staged`` and
    maintains ``_visible`` as the credit count.
    """

    __slots__ = ("stub",)

    def __init__(self, stub: StagedFifo):
        self.stub = stub

    def drain(self) -> list:
        stub = self.stub
        staged = stub._staged
        if not staged:
            return ()
        flits = list(staged)
        staged.clear()
        stub._visible += len(flits)
        return flits

    def credit(self, pops: int) -> None:
        if pops:
            self.stub._visible -= pops


class _ObjectIngress:
    """Receiver half of a cut link, object backend.

    ``apply`` replays what the receiver router's own commit would have
    done had an in-band upstream staged these flits: extend the items,
    bump the high-water mark, publish the committed occupancy, fire
    the consumer wake hooks.
    """

    __slots__ = ("fifo", "_prev")

    def __init__(self, fifo: StagedFifo):
        self.fifo = fifo
        self._prev = len(fifo._items)

    def take_pops(self) -> int:
        fifo = self.fifo
        cur = len(fifo._items)
        pops = self._prev - cur
        self._prev = cur
        return pops

    def apply(self, flits) -> None:
        if not flits:
            return
        fifo = self.fifo
        items = fifo._items
        items.extend(flits)
        n = len(items)
        self._prev = n
        if n > fifo.high_water:
            fifo.high_water = n
        fifo._visible = n
        for waker in fifo._wakers:
            waker()


class _FlatEgressRef:
    """Sender half of a cut link, flat backend."""

    __slots__ = ("eg",)

    def __init__(self, eg: _FlatEgress):
        self.eg = eg

    def drain(self) -> list:
        eg = self.eg
        staged = eg.staged
        if not staged:
            return ()
        flits = list(staged)
        staged.clear()
        eg.visible += len(flits)
        return flits

    def credit(self, pops: int) -> None:
        if pops:
            self.eg.visible -= pops


class _FlatIngress:
    """Receiver half of a cut link, flat backend."""

    __slots__ = ("core", "fid", "_prev")

    def __init__(self, core, fid: int):
        self.core = core
        self.fid = fid
        self._prev = len(core._rings[fid])

    def take_pops(self) -> int:
        cur = len(self.core._rings[self.fid])
        pops = self._prev - cur
        self._prev = cur
        return pops

    def apply(self, flits) -> None:
        if not flits:
            return
        self.core.boundary_ingest(self.fid, flits)
        self._prev = len(self.core._rings[self.fid])


class BoundaryLink:
    """One cut directional link between two adjacent shards."""

    __slots__ = ("egress", "ingress", "sender", "receiver",
                 "_flits", "_pops", "flits_exchanged")

    def __init__(self, egress, ingress, sender: int, receiver: int):
        self.egress = egress
        self.ingress = ingress
        self.sender = sender
        self.receiver = receiver
        self._flits = ()
        self._pops = 0
        self.flits_exchanged = 0

    def collect(self) -> None:
        """Phase 1: measure pops, drain staged flits.  Must run for
        every link before any ``apply`` — applying extends the very
        item counts pops are measured against."""
        self._pops = self.ingress.take_pops()
        self._flits = self.egress.drain()

    def apply(self) -> None:
        """Phase 2: deliver flits to the receiver, credits to the
        sender."""
        flits = self._flits
        if flits:
            self.ingress.apply(flits)
            self.flits_exchanged += len(flits)
            self._flits = ()
        self.egress.credit(self._pops)
        self._pops = 0

    def exchange(self) -> None:
        """Fused collect+apply for the in-process transport.

        Boundary links share no state — each owns its egress stub and
        its ingress FIFO — so sequencing the two phases per link is
        equivalent to the global two-phase exchange, at half the loop
        overhead.  Pops are still measured before apply extends the
        very item counts they are measured against.  The mp workers
        keep the explicit phases: the pipe is their barrier.
        """
        pops = self.ingress.take_pops()
        flits = self.egress.drain()
        if flits:
            self.ingress.apply(flits)
            self.flits_exchanged += len(flits)
        if pops:
            self.egress.credit(pops)


class _ObjectBoundaryLink(BoundaryLink):
    """Object-backend link with an inlined, call-free idle check.

    A cut crosses every row, but most rows are quiet most cycles; the
    exchange loop's cost is dominated by Python call overhead on idle
    links.  This subclass caches the identity-stable containers (the
    egress stub's ``_staged`` list, the ingress FIFO's ``_items``
    deque) so the per-cycle idle check is two attribute loads — and
    the busy path is the same drain/credit/apply algebra, inlined.
    The loopback fill counter (``_prev_fill``) is the link's own; the
    mp workers keep using the two-phase halves and their counters.
    """

    __slots__ = ("_stub", "_fifo", "_items", "_prev_fill")

    def __init__(self, egress, ingress, sender: int, receiver: int):
        super().__init__(egress, ingress, sender, receiver)
        self._stub = egress.stub
        self._fifo = ingress.fifo
        self._items = ingress.fifo._items
        self._prev_fill = len(self._items)

    def exchange(self) -> None:
        items = self._items
        cur = len(items)
        stub = self._stub
        staged = stub._staged
        prev = self._prev_fill
        if cur == prev and not staged:
            return
        if cur != prev:
            # Receiver pops since last cycle: lagged credit return.
            stub._visible -= prev - cur
        if staged:
            flits = list(staged)
            staged.clear()
            n_new = len(flits)
            stub._visible += n_new
            items.extend(flits)
            cur = len(items)
            fifo = self._fifo
            if cur > fifo.high_water:
                fifo.high_water = cur
            fifo._visible = cur
            for waker in fifo._wakers:
                waker()
            self.flits_exchanged += n_new
        self._prev_fill = cur


class _FlatBoundaryLink(BoundaryLink):
    """Flat-backend link with an inlined, call-free idle check.

    Same shape as :class:`_ObjectBoundaryLink`: the receiver fill is
    the length of ``core._rings[fid]`` (the list is mutated in place,
    never reassigned; the ring itself is allocated on its first flit,
    so it is looked up each time), the egress staging list lives on
    the ``_FlatEgress``.
    """

    __slots__ = ("_eg", "_core", "_rings", "_fid", "_prev_fill")

    def __init__(self, egress, ingress, sender: int, receiver: int):
        super().__init__(egress, ingress, sender, receiver)
        self._eg = egress.eg
        self._core = ingress.core
        self._rings = ingress.core._rings
        self._fid = ingress.fid
        self._prev_fill = len(self._rings[self._fid])

    def exchange(self) -> None:
        rings = self._rings
        fid = self._fid
        cur = len(rings[fid])
        eg = self._eg
        staged = eg.staged
        prev = self._prev_fill
        if cur == prev and not staged:
            return
        if cur != prev:
            eg.visible -= prev - cur
        if staged:
            flits = list(staged)
            staged.clear()
            eg.visible += len(flits)
            self._core.boundary_ingest(fid, flits)
            self.flits_exchanged += len(flits)
            cur = len(rings[fid])
        self._prev_fill = cur


class _ShardCoreFacade:
    """Flat-backend core facade: the probe's fabric-activity gauge."""

    __slots__ = ("_bands",)

    def __init__(self, bands):
        self._bands = bands

    @property
    def busy_routers(self) -> int:
        return sum(band.core.busy_routers for band in self._bands)


class ShardedMesh:
    """``shards`` band meshes presenting the single-mesh surface.

    ``routers``/``ports``/``attach``/``total_flits_forwarded`` behave
    exactly like the unsharded mesh (routers merged in full row-major
    order), so designs and telemetry code need no changes;
    ``register`` expects a sharded simulator and distributes each band
    into its shard's inner simulator.
    """

    def __init__(self, width: int, height: int,
                 fifo_depth: int = ROUTER_INPUT_FIFO_FLITS,
                 routing: str = "xy", backend: str = "object",
                 shards: int = 2,
                 shard_bounds: list[int] | None = None):
        if backend not in ("object", "flat"):
            raise ValueError(f"unknown mesh backend {backend!r} "
                             "(choose 'object' or 'flat')")
        self.width = width
        self.height = height
        self.routing = routing
        self.backend = backend
        self.shards = shards
        self.fifo_depth = fifo_depth
        self.bounds = band_bounds(width, shards, shard_bounds)
        #: Column -> owning shard lookup.
        self.col_shard: list[int] = []
        for k, (_, bw) in enumerate(self.bounds):
            self.col_shard.extend([k] * bw)
        self.bands: list[Mesh | FlatMesh] = []
        for k, (x0, bw) in enumerate(self.bounds):
            if backend == "flat":
                band = FlatMesh(bw, height, fifo_depth=fifo_depth,
                                routing=routing, x_offset=x0,
                                full_width=width)
            else:
                band = Mesh(bw, height, fifo_depth=fifo_depth,
                            routing=routing, x_offset=x0)
            self.bands.append(band)
        #: Merged router map in full row-major order — identical
        #: iteration order to the unsharded mesh, which telemetry and
        #: the trace contract rely on.
        self.routers: dict[tuple[int, int], object] = {}
        for y in range(height):
            for x in range(width):
                coord = (x, y)
                self.routers[coord] = \
                    self.bands[self.col_shard[x]].routers[coord]
        self.links: list[BoundaryLink] = []
        self._wire_boundaries()
        if backend == "flat":
            self.core = _ShardCoreFacade(self.bands)

    @property
    def steps_ports(self) -> bool:
        return self.bands[0].steps_ports

    def shard_of(self, coord: tuple[int, int]) -> int:
        """The shard owning the component anchored at ``coord``."""
        x = coord[0]
        if not 0 <= x < self.width:
            raise KeyError(f"coordinate {coord} outside "
                           f"{self.width}x{self.height} mesh")
        return self.col_shard[x]

    def _wire_boundaries(self) -> None:
        depth = self.fifo_depth
        link_cls = (_ObjectBoundaryLink if self.backend == "object"
                    else _FlatBoundaryLink)
        for k in range(self.shards - 1):
            x0, bw = self.bounds[k]
            cut = x0 + bw  # first column of shard k + 1
            for y in range(self.height):
                west_r = self.routers[(cut - 1, y)]  # shard k side
                east_r = self.routers[(cut, y)]      # shard k+1 side
                # Eastward: shard k sends, shard k+1 receives.
                self.links.append(link_cls(
                    self._make_egress(k, west_r, Port.EAST, _EAST,
                                      depth),
                    self._make_ingress(k + 1, east_r, Port.WEST,
                                       _WEST),
                    sender=k, receiver=k + 1))
                # Westward: shard k+1 sends, shard k receives.
                self.links.append(link_cls(
                    self._make_egress(k + 1, east_r, Port.WEST, _WEST,
                                      depth),
                    self._make_ingress(k, west_r, Port.EAST, _EAST),
                    sender=k + 1, receiver=k))

    def _make_egress(self, shard: int, router, port: Port,
                     port_index: int, depth: int):
        if self.backend == "object":
            stub = StagedFifo(
                depth, name=f"shardcut.{router.coord}.{port.value}")
            router.connect_output(port, stub)
            return _ObjectEgress(stub)
        core = self.bands[shard].core
        ofid = router._index * _N_PORTS + port_index
        eg = _FlatEgress()
        core.set_boundary_egress(ofid, eg)
        return _FlatEgressRef(eg)

    def _make_ingress(self, shard: int, router, port: Port,
                      port_index: int):
        if self.backend == "object":
            return _ObjectIngress(router.inputs[port])
        core = self.bands[shard].core
        fid = router._index * _N_PORTS + port_index
        return _FlatIngress(core, fid)

    # -- attachment / registration ----------------------------------------

    def attach(self, coord: tuple[int, int],
               eject_depth: int = 4) -> LocalPort:
        """Create (or return) the local port at ``coord``."""
        if coord not in self.routers:
            raise KeyError(f"no router at {coord} in "
                           f"{self.width}x{self.height} mesh")
        return self.bands[self.shard_of(coord)].attach(
            coord, eject_depth)

    @property
    def ports(self) -> dict[tuple[int, int], LocalPort]:
        """All attached local ports, keyed by coordinate."""
        merged: dict[tuple[int, int], LocalPort] = {}
        for band in self.bands:
            merged.update(band.ports)
        return merged

    def register(self, simulator) -> None:
        """Distribute the bands into a sharded simulator.

        Each band registers with its shard's inner simulator exactly
        as an unsharded mesh would (routers in row-major order, then
        ports) — the per-shard registration order is the unsharded
        order restricted to that shard, which is what keeps per-shard
        stepping order reference-identical.
        """
        if getattr(simulator, "shards", 1) != self.shards:
            raise ValueError(
                f"mesh with {self.shards} shards registered with a "
                f"simulator of {getattr(simulator, 'shards', 1)} "
                "(build both through the same shards= setting)")
        simulator.bind_mesh(self)
        for k, band in enumerate(self.bands):
            band.register(simulator.sims[k])

    @property
    def total_flits_forwarded(self) -> int:
        return sum(band.total_flits_forwarded for band in self.bands)

    @property
    def boundary_flits_exchanged(self) -> int:
        """Flits shipped across shard cuts (telemetry)."""
        return sum(link.flits_exchanged for link in self.links)
