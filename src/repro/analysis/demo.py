"""Seeded-bug designs for demonstrating (and testing) the linter.

:func:`build_broken_wake_design` is the canonical lost-wakeup example:
an echo tile whose ``wake_sources()`` deliberately returns nothing.
Under the naive kernel the design works — every component is stepped
every cycle, so the missing hook is invisible.  Under the scheduled
kernel the tile idles out before traffic arrives and nothing ever
wakes it, so the same design stalls forever.  The wake-contract pass
flags exactly this divergence as BHV301 *before* anything runs.

Every builder takes ``profile`` as the shipped designs do and maps it
to a kernel and a mesh (:func:`_fixture`): the scheduled kernel over a
``FlatMesh`` under ``fast``, the naive one over an object ``Mesh``
under ``reference``.  What it does not take from the profile is the
tile engine: a fixture registers its hand-built tiles one by one, so
the kernel's wake rule — not the flat tile core's — is what schedules
the buggy tile.  Two fixtures keep the object ``Mesh`` on the naive
kernel whatever the profile: the leaky-eject tile (its bug is
bookkeeping, not scheduling; on a flat mesh its off-the-books pops
would also part ``fast`` from ``reference``, a BHV404 beside its
BHV403) and the Fig 5 relays (they push ``Flit`` objects into a
router's LOCAL FIFO).

The remaining builders each seed exactly one bug for one finding code,
so the linter's regression tests can assert "this pass catches this
bug, and no other pass misfires on it":

==============================  ======  ==================================
builder                         code    seeded bug
==============================  ======  ==================================
build_broken_wake_design        BHV301  wake_sources() misses the FIFO
build_idle_liar_design          BHV401  step() sleeps while work remains
build_leaky_eject_design        BHV403  pops the eject FIFO off the books
build_step_parity_design        BHV404  behaviour depends on step count
build_early_read_design         BHV405  reads its port without the cycle
build_phantom_dest_design       BHV501  declared domain coord unattached
build_stale_domain_design       BHV502  domain wider than the replicas
build_escaped_domain_design     BHV503  replicas outside the domain
build_blind_forwarder_design    BHV504  forwarding with no declarations
==============================  ======  ==================================

(BHV402 needs no dedicated fixture: the broken-wake design is also the
canonical *dynamic* lost wakeup — the ejection its consumer sleeps
through — and, stalling under ``fast`` while it works under
``reference``, a BHV404 as well.)

The module ends with the runtime reproduction of the paper's Fig 5
deadlock (BHV201's fixture): :class:`CutThroughTile` forwards flits as
they arrive (streaming, like the paper's protocol engines) with only a
couple of flits of internal buffering, so a blocked downstream transfer
back-pressures through the tile and holds the upstream wormhole open.
Chaining four of them in the Fig 5a placement wedges the NoC on a
sufficiently long packet; the Fig 5b placement streams the same packet
through cleanly.
"""

from __future__ import annotations

import itertools

from repro.noc.flatmesh import FlatMesh
from repro.noc.flit import Flit
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.noc.routing import Port
from repro.sim.kernel import NEVER, CycleSimulator, no_commit
from repro.sim.profiles import lookup
from repro.tiles.base import DestDomain, Tile
from repro.tiles.scheduler import RoundRobinSchedulerTile


def _fixture(profile: str) -> tuple[CycleSimulator, type]:
    """A fixture's simulator and mesh class under ``profile``."""
    kernel, flat = lookup(profile)
    return CycleSimulator(kernel=kernel), FlatMesh if flat else Mesh


class BrokenWakeEchoTile(Tile):
    """Counts messages; its FIFO wake hook is deliberately missing."""

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self.echoed = 0

    def wake_sources(self) -> tuple:
        return ()  # BUG: the ejection FIFO never wakes the tile

    def handle_message(self, message: NocMessage,
                       cycle: int) -> list[NocMessage]:
        self.echoed += 1
        return []


class BrokenWakeDesign:
    """A 2x1 mesh: an ingress port feeding one broken echo tile."""

    def __init__(self, profile: str = "fast") -> None:
        self.sim, mesh = _fixture(profile)
        self.mesh = mesh(2, 1)
        self.echo = BrokenWakeEchoTile("echo", self.mesh, (1, 0))
        self.ingress = self.mesh.attach((0, 0))
        self.tiles = [self.echo]
        self.mesh.register(self.sim)
        self.sim.add(self.echo)
        self.chains = [["ingress", "echo"]]
        self.tile_coords = {"ingress": (0, 0), "echo": (1, 0)}

    def send(self, data: bytes = b"ping") -> None:
        self.ingress.send(NocMessage(dst=self.echo.coord,
                                     src=self.ingress.coord,
                                     data=data))


def build_broken_wake_design(profile: str = "fast") -> BrokenWakeDesign:
    return BrokenWakeDesign(profile)


# -- shared fixture scaffolding ---------------------------------------------

class CountingSinkTile(Tile):
    """A well-behaved terminal tile: counts and discards messages."""

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self.received = 0

    def handle_message(self, message: NocMessage,
                       cycle: int) -> list[NocMessage]:
        self.received += 1
        return []


# -- BHV401: a step that lies about when it is next due ---------------------

class IdleLiarTile(Tile):
    """Holds a private work list its step's answer pretends not to have.

    The scheduled kernel prunes it after its first step; the idle-truth
    pass shadow-steps it and watches ``echoed`` advance — observable
    progress from a component that swore it was quiescent.
    """

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 work_items: int = 8, **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self._work = list(range(work_items))
        self.echoed = 0

    def on_cycle(self, cycle: int) -> None:
        if self._work:
            self._work.pop()
            self.echoed += 1

    def _due(self) -> int:
        # BUG: only a wake, says step, while _work remains.
        return NEVER


class IdleLiarDesign:
    """A 2x1 mesh holding one lying tile; no traffic needed."""

    def __init__(self, profile: str = "fast") -> None:
        self.sim, mesh = _fixture(profile)
        self.mesh = mesh(2, 1)
        self.liar = IdleLiarTile("liar", self.mesh, (1, 0))
        self.tiles = [self.liar]
        self.mesh.register(self.sim)
        self.sim.add(self.liar)
        self.chains: list[list[str]] = []
        self.tile_coords = {"liar": (1, 0)}


def build_idle_liar_design(profile: str = "fast") -> IdleLiarDesign:
    return IdleLiarDesign(profile)


# -- BHV403: flits popped off the books -------------------------------------

class LeakyEjectTile(Tile):
    """Drains its ejection FIFO directly, bypassing the port's
    ``receive()`` — so ``flits_ejected`` never learns about the flits
    and the conservation ledger shows unattributed loss.

    ``on_cycle`` is overridden, so the base ``step`` honestly returns
    None: the tile is stepped every cycle and the other dynamic passes
    stay silent.
    """

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self.leaked = 0

    def on_cycle(self, cycle: int) -> None:
        while self.port.eject_ready(cycle):
            self.port.eject_fifo.pop()  # BUG: not LocalPort.pop_flit()
            self.leaked += 1

    def handle_message(self, message: NocMessage,
                       cycle: int) -> list[NocMessage]:
        return []  # unreachable: on_cycle stole the flits


class LeakyEjectDesign:
    """A 2x1 object mesh on the naive kernel, whatever the profile: an
    ingress port feeding the leaky tile."""

    def __init__(self, profile: str = "fast") -> None:
        self.sim = CycleSimulator(kernel="naive")
        self.mesh = Mesh(2, 1)
        self.leaky = LeakyEjectTile("leaky", self.mesh, (1, 0))
        self.ingress = self.mesh.attach((0, 0))
        self.tiles = [self.leaky]
        self.mesh.register(self.sim)
        self.sim.add(self.leaky)
        self.chains = [["ingress", "leaky"]]
        self.tile_coords = {"ingress": (0, 0), "leaky": (1, 0)}

    def send(self, data: bytes = b"x" * 256) -> None:
        self.ingress.send(NocMessage(dst=self.leaky.coord,
                                     src=self.ingress.coord,
                                     data=data))


def build_leaky_eject_design(profile: str = "fast") -> LeakyEjectDesign:
    return LeakyEjectDesign(profile)


# -- BHV404: behaviour keyed to step count ----------------------------------

class StepParityTile(Tile):
    """Echoes or drops depending on how often it has been stepped.

    ``steps_seen`` advances once per ``step`` call — which is every
    cycle under the naive kernel but only on active cycles under the
    scheduled one, so identical traffic produces different echo/drop
    streams.  Its step's answer is *honest* (the message engine's, as
    ``on_cycle`` waits on nothing), so the idle-truth pass stays
    silent: this is the bug class only the determinism pass can see.
    """

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self.steps_seen = 0
        self.echoed = 0

    def on_cycle(self, cycle: int) -> None:
        self.steps_seen += 1  # BUG: observable state keyed to stepping

    def _due(self) -> int | None:
        return self._engine_due()

    def handle_message(self, message: NocMessage,
                       cycle: int) -> list[NocMessage]:
        # Under the naive kernel steps_seen tracks the cycle count, so
        # this echoes; under the scheduled kernel the tile slept most
        # of its life, so the same message is dropped.
        if self.steps_seen < cycle // 2:
            return self.drop(message, "stepped too rarely")
        self.echoed += 1
        return [self.make_message(message.src, data=message.data)]


class StepParityDesign:
    """A 2x1 mesh: an ingress port feeding the parity tile."""

    def __init__(self, profile: str = "fast") -> None:
        self.sim, mesh = _fixture(profile)
        self.mesh = mesh(2, 1)
        self.parity = StepParityTile("parity", self.mesh, (1, 0))
        self.ingress = self.mesh.attach((0, 0))
        self.tiles = [self.parity]
        self.mesh.register(self.sim)
        self.sim.add(self.parity)
        self.chains = [["ingress", "parity"]]
        self.tile_coords = {"ingress": (0, 0), "parity": (1, 0)}

    def send(self, data: bytes = b"ping") -> None:
        self.ingress.send(NocMessage(dst=self.parity.coord,
                                     src=self.ingress.coord,
                                     data=data))


def build_step_parity_design(profile: str = "fast") -> StepParityDesign:
    return StepParityDesign(profile)


# -- BHV405: a flat mesh's flit read in the cycle it lands --------------------

class EarlyReadTile(Tile):
    """Takes an extra flit per cycle through ``receive()`` without
    saying which cycle it is stepping, so it reads a flat mesh's flit
    in the cycle it lands, one before an object mesh would show it.
    It polls its port, so it asks for the next cycle every time (a
    FIFO it empties the cycle it is pushed would read as a lost wake
    if it slept), and every pop is counted: the other passes stay
    silent.
    """

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self.early = 0

    def on_cycle(self, cycle: int) -> None:
        if self.port.receive() is not None:  # BUG: not receive(cycle)
            self.early += 1

    def step(self, cycle: int) -> int:
        super().step(cycle)
        return cycle + 1

    def handle_message(self, message: NocMessage,
                       cycle: int) -> list[NocMessage]:
        return []


class EarlyReadDesign:
    """A flat 2x1 mesh: an ingress port feeding the early reader."""

    def __init__(self, profile: str = "fast") -> None:
        self.sim = _fixture(profile)[0]
        self.mesh = FlatMesh(2, 1)
        self.reader = EarlyReadTile("reader", self.mesh, (1, 0))
        self.ingress = self.mesh.attach((0, 0))
        self.tiles = [self.reader]
        self.mesh.register(self.sim)
        self.sim.add(self.reader)
        self.chains = [["ingress", "reader"]]
        self.tile_coords = {"ingress": (0, 0), "reader": (1, 0)}

    def send(self, data: bytes = b"x" * 256) -> None:
        self.ingress.send(NocMessage(dst=self.reader.coord,
                                     src=self.ingress.coord,
                                     data=data))


def build_early_read_design(profile: str = "fast") -> EarlyReadDesign:
    return EarlyReadDesign(profile)


# -- BHV501/502/503: destination-domain declarations vs reality --------------

class PhantomDomainTile(Tile):
    """Declares a data-dependent destination with no tile attached."""

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 phantom: tuple[int, int], **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self._phantom = phantom

    def dest_domain(self) -> DestDomain:
        # BUG: the coordinate never got a tile, so data-dependent
        # dispatch to it could never be routed.
        return DestDomain.of([self._phantom], data_dependent=True)

    def handle_message(self, message: NocMessage,
                       cycle: int) -> list[NocMessage]:
        return []


class StaleDomainScheduler(RoundRobinSchedulerTile):
    """Declares one more destination than the replica list registers."""

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 stale: tuple[int, int], **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self._stale = stale

    def dest_domain(self) -> DestDomain:
        # BUG: the domain kept a coordinate no runtime state emits.
        return DestDomain.of([*self.replicas, self._stale],
                             data_dependent=True)


class EscapedDomainScheduler(RoundRobinSchedulerTile):
    """Declares only the first replica; the rest escape the domain."""

    def dest_domain(self) -> DestDomain:
        # BUG: round-robin reaches every replica, not just replicas[0].
        return DestDomain.of(self.replicas[:1], data_dependent=True)


class _DomainFixtureDesign:
    """A 3x2 mesh: an ingress feeding one dispatcher plus two
    well-behaved sink tiles; (2, 1) stays unoccupied."""

    def __init__(self, dispatcher_cls: type,
                 profile: str = "fast",
                 **dispatcher_kwargs: object) -> None:
        self.sim, mesh = _fixture(profile)
        self.mesh = mesh(3, 2)
        self.dispatch = dispatcher_cls("dispatch", self.mesh, (1, 0),
                                       **dispatcher_kwargs)
        self.sink_a = CountingSinkTile("sink_a", self.mesh, (2, 0))
        self.sink_b = CountingSinkTile("sink_b", self.mesh, (1, 1))
        self.ingress = self.mesh.attach((0, 0))
        self.tiles = [self.dispatch, self.sink_a, self.sink_b]
        self.mesh.register(self.sim)
        for tile in self.tiles:
            self.sim.add(tile)
        self.chains = [["ingress", "dispatch"],
                       ["dispatch", "sink_a"], ["dispatch", "sink_b"]]
        self.tile_coords = {t.name: t.coord for t in self.tiles}
        self.tile_coords["ingress"] = (0, 0)

    def send(self, data: bytes = b"ping") -> None:
        self.ingress.send(NocMessage(dst=self.dispatch.coord,
                                     src=self.ingress.coord,
                                     data=data))


def build_phantom_dest_design(
        profile: str = "fast") -> _DomainFixtureDesign:
    """BHV501: the declared domain names the unoccupied (2, 1)."""
    return _DomainFixtureDesign(PhantomDomainTile, profile,
                                phantom=(2, 1))


def build_stale_domain_design(
        profile: str = "fast") -> _DomainFixtureDesign:
    """BHV502: sink_b is declared but only sink_a is a replica."""
    design = _DomainFixtureDesign(StaleDomainScheduler, profile,
                                  stale=(1, 1))
    design.dispatch.add_replica(design.sink_a.coord)
    return design


def build_escaped_domain_design(
        profile: str = "fast") -> _DomainFixtureDesign:
    """BHV503: both sinks are replicas but only sink_a is declared."""
    design = _DomainFixtureDesign(EscapedDomainScheduler, profile)
    design.dispatch.add_replica(design.sink_a.coord)
    design.dispatch.add_replica(design.sink_b.coord)
    return design


# -- BHV504: forwarding with no static footprint -----------------------------

class BlindForwarderTile(Tile):
    """Forwards everything to a hard-coded coordinate held in a plain
    attribute — no table entry, no hook, no declaration."""

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 forward_to: tuple[int, int], **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self._forward_to = forward_to

    def handle_message(self, message: NocMessage,
                       cycle: int) -> list[NocMessage]:
        return [self.make_message(self._forward_to,
                                  metadata=message.metadata,
                                  data=message.data)]


class BlindForwarderDesign:
    """A 3x1 mesh: the forwarder is non-terminal in a declared chain,
    so its statically-invisible routing is the linter's blind spot."""

    def __init__(self, profile: str = "fast") -> None:
        self.sim, mesh = _fixture(profile)
        self.mesh = mesh(3, 1)
        self.sink = CountingSinkTile("sink", self.mesh, (2, 0))
        self.fwd = BlindForwarderTile("fwd", self.mesh, (1, 0),
                                      forward_to=self.sink.coord)
        self.ingress = self.mesh.attach((0, 0))
        self.tiles = [self.fwd, self.sink]
        self.mesh.register(self.sim)
        for tile in self.tiles:
            self.sim.add(tile)
        self.chains = [["ingress", "fwd"], ["fwd", "sink"]]
        self.tile_coords = {t.name: t.coord for t in self.tiles}
        self.tile_coords["ingress"] = (0, 0)

    def send(self, data: bytes = b"ping") -> None:
        self.ingress.send(NocMessage(dst=self.fwd.coord,
                                     src=self.ingress.coord,
                                     data=data))


def build_blind_forwarder_design(
        profile: str = "fast") -> BlindForwarderDesign:
    return BlindForwarderDesign(profile)


# -- BHV201: the Fig 5 message-level deadlock, at run time -------------------

_msg_ids = itertools.count(1_000_000)


class CutThroughTile:
    """A streaming relay: each ejected flit is re-addressed to the next
    tile and injected immediately.  ``next_coord=None`` makes it a sink."""

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 next_coord: tuple[int, int] | None) -> None:
        self.name = name
        self.coord = coord
        self.next_coord = next_coord
        self.port = mesh.attach(coord)
        self._held: Flit | None = None
        self._out_msg_id = 0
        self.flits_through = 0
        self.messages_through = 0

    def step(self, cycle: int) -> None:
        local_in = self.port.router.inputs[Port.LOCAL]
        if self._held is not None:
            if not local_in.can_accept():
                return  # blocked: stop consuming, hold the wormhole open
            local_in.push(self._held)
            self.port.flits_injected += 1
            self._held = None
        flit = self.port.pop_flit(cycle)
        if flit is None:
            return
        self.flits_through += 1
        if self.next_coord is None:
            if flit.is_tail:
                self.messages_through += 1
            return
        if flit.is_head:
            self._out_msg_id = next(_msg_ids)
        if flit.is_tail:
            self.messages_through += 1
        forwarded = Flit(
            kind=flit.kind,
            is_head=flit.is_head,
            is_tail=flit.is_tail,
            dst=self.next_coord,
            src=self.coord,
            msg_id=self._out_msg_id,
            payload=flit.payload,
        )
        if local_in.can_accept():
            local_in.push(forwarded)
            self.port.flits_injected += 1
        else:
            self._held = forwarded

    commit = no_commit  # the mesh-registered LocalPort commits the FIFOs

    def lint_dest_coords(self) -> list[tuple[int, int]]:
        """Static destinations for the design linter's derived-chain
        analysis (this tile has no NextHopTable)."""
        return [] if self.next_coord is None else [self.next_coord]


class Fig5Design:
    """The Fig 5 receive chain eth -> ip -> udp -> app on a 4x1 object
    mesh under the naive kernel, in the deadlocking (``variant="a"``)
    or safe (``"b"``) placement.

    The Ethernet position is the injection point (its processing is the
    message entering the NoC); ip and udp are streaming relays; app is
    a sink.  Shaped like a design (``sim``/``mesh``/``tiles``/
    ``chains``/``tile_coords``) so ``python -m repro.tools.lint`` can
    analyze it directly.
    """

    def __init__(self, variant: str = "a") -> None:
        if variant == "a":
            coords = {"eth": (0, 0), "ip": (2, 0), "udp": (1, 0),
                      "app": (3, 0)}
        elif variant == "b":
            coords = {"eth": (0, 0), "ip": (1, 0), "udp": (2, 0),
                      "app": (3, 0)}
        else:
            raise ValueError(f"unknown Fig 5 variant {variant!r}")
        self.variant = variant
        self.sim = CycleSimulator(kernel="naive")
        self.mesh = Mesh(4, 1)
        self.tiles = {
            "ip": CutThroughTile("ip", self.mesh, coords["ip"],
                                 coords["udp"]),
            "udp": CutThroughTile("udp", self.mesh, coords["udp"],
                                  coords["app"]),
            "app": CutThroughTile("app", self.mesh, coords["app"], None),
        }
        self.ingress = self.mesh.attach(coords["eth"])
        self.mesh.register(self.sim)
        self.sim.add_all(self.tiles.values())
        self.chains = [["eth", "ip", "udp", "app"]]
        self.tile_coords = dict(coords)


def build_fig5a_design(profile: str = "ignored") -> Fig5Design:
    """The deadlocking placement.  The wedge is in the placement, so
    the design is the same hand-built one whatever the profile."""
    return Fig5Design("a")


def build_fig5b_design(profile: str = "ignored") -> Fig5Design:
    """The safe placement; ``profile`` ignored as for Fig 5a."""
    return Fig5Design("b")


def build_fig5_layout(variant: str) -> tuple:
    """Build a :class:`Fig5Design` and unpack it the historical way:
    ``(sim, ingress_port, tiles, chain, coords)``."""
    design = Fig5Design(variant)
    return (design.sim, design.ingress, design.tiles,
            design.chains[0], design.tile_coords)
