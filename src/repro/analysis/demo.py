"""Seeded-bug designs for demonstrating (and testing) the linter.

Each :data:`FIXTURES` entry builds one :class:`Fixture` under a
profile: a small hand-wired mesh around a tile that seeds exactly one
bug, so the linter's regression tests can assert "this pass catches
this bug, and no other pass misfires on it":

===============  ======  ===========================================
fixture          code    seeded bug
===============  ======  ===========================================
fig5a            BHV201  Fig 5a placement: a message-level deadlock
fig5b            none    Fig 5b placement of the same chain: safe
broken_wake      BHV301  wake_sources() misses the FIFO
idle_liar        BHV401  step() sleeps while work remains
leaky_eject      BHV403  pops the eject FIFO off the books
step_parity      BHV404  behaviour depends on step count
early_read       BHV405  reads its port without the cycle
phantom_dest     BHV501  declared domain coord unattached
stale_domain     BHV502  domain wider than the replicas
escaped_domain   BHV503  replicas outside the domain
blind_forwarder  BHV504  forwarding with no declarations
===============  ======  ===========================================

``broken_wake`` is the canonical lost-wakeup example: an echo tile
whose ``wake_sources()`` deliberately returns nothing.  Under the naive
kernel the design works — every component is stepped every cycle, so
the missing hook is invisible.  Under the scheduled kernel the tile
idles out before traffic arrives and nothing ever wakes it, so the
same design stalls forever.  The wake-contract pass flags exactly this
divergence as BHV301 *before* anything runs.  (BHV402 needs no
dedicated fixture: the same design is also the canonical *dynamic*
lost wakeup — the ejection its consumer sleeps through — and,
stalling under ``fast`` while it works under ``reference``, a BHV404
as well.)

``fig5a`` and ``fig5b`` are the runtime reproduction of the paper's
Fig 5 deadlock: :class:`CutThroughTile` forwards flits as they arrive
(streaming, like the paper's protocol engines) with only a couple of
flits of internal buffering, so a blocked downstream transfer
back-pressures through the tile and holds the upstream wormhole open.
Chaining them in the Fig 5a placement wedges the NoC on a sufficiently
long packet; the Fig 5b placement streams the same packet through
cleanly.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from functools import partial

from repro.noc.flatmesh import FlatMesh
from repro.noc.flit import Flit
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.noc.routing import Port
from repro.sim.kernel import NEVER, CycleSimulator, no_commit
from repro.sim.profiles import lookup
from repro.tiles.base import DestDomain, Tile
from repro.tiles.scheduler import RoundRobinSchedulerTile


# -- BHV301/402: a wake hook that is missing ----------------------------------

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


# -- a well-behaved sink the data-flow fixtures share ------------------------

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
                 **kwargs: object) -> None:
        super().__init__(name, mesh, coord, **kwargs)
        self._work = list(range(8))
        self.echoed = 0

    def on_cycle(self, cycle: int) -> None:
        if self._work:
            self._work.pop()
            self.echoed += 1

    def _due(self) -> int:
        # BUG: only a wake, says step, while _work remains.
        return NEVER


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


# -- the scaffold every fixture shares -----------------------------------------

class Fixture:
    """A seeded-bug design, shaped like a shipped one (``sim``, ``mesh``,
    ``tiles``, ``chains``, ``tile_coords``) so the linter and the
    sanitizer take it as they take those.

    ``tiles`` are ``(class, name, coord, keywords)`` rows, built in
    order and registered with the kernel one by one — never through
    ``register_tiles``: the kernel's wake rule, not the flat tile
    core's, must be what schedules the buggy tile, and a sanitizer
    finding must name the tile, not the core.  With ``chains``, an
    ingress port sits at (0, 0) under the first chain's first name;
    ``send()`` messages ``payload`` to that chain's second name, which
    also gets ``replicas`` once everything is registered.  With no
    ``payload`` there is no ``send``, so the sanitizer drives no
    traffic.

    ``backing`` picks the kernel and the mesh:

    - ``"profile"``: the profile's — the scheduled kernel over a
      ``FlatMesh`` under ``fast``, the naive one over an object
      ``Mesh`` under ``reference``;
    - ``"naive"``: the naive kernel over an object ``Mesh`` whatever
      the profile.  The leaky-eject bug is bookkeeping, not
      scheduling, and on a flat mesh its off-the-books pops would also
      part ``fast`` from ``reference`` (a BHV404 beside its BHV403);
      the Fig 5 relays push ``Flit`` objects into a router's LOCAL
      FIFO, and their wedge is in the placement, not the profile;
    - ``"flat"``: the profile's kernel over a ``FlatMesh``: reading a
      port without the cycle is a flat-mesh bug.
    """

    def __init__(self, profile: str = "fast", *, size: tuple[int, int],
                 tiles: list[tuple], chains: list[list[str]],
                 backing: str = "profile", payload: bytes | None = None,
                 replicas: Sequence[tuple[int, int]] = ()) -> None:
        kernel, flat = lookup(profile)
        if backing == "naive":
            kernel, flat = "naive", False
        elif backing == "flat":
            flat = True
        self.sim = CycleSimulator(kernel=kernel)
        self.mesh = (FlatMesh if flat else Mesh)(*size)
        self.tiles = {name: cls(name, self.mesh, coord, **keywords)
                      for cls, name, coord, keywords in tiles}
        self.chains = [list(chain) for chain in chains]
        self.tile_coords = {name: tile.coord
                            for name, tile in self.tiles.items()}
        if chains:
            self.ingress = self.mesh.attach((0, 0))
            self.tile_coords = {chains[0][0]: (0, 0), **self.tile_coords}
        self.mesh.register(self.sim)
        for tile in self.tiles.values():
            self.sim.add(tile)
        for coord in replicas:
            self.tiles[chains[0][1]].add_replica(coord)
        self._payload = payload
        if payload is None:
            self.send = None  # the sanitizer drives a callable send only

    def send(self) -> None:
        self.ingress.send(NocMessage(dst=self.tiles[self.chains[0][1]].coord,
                                     src=self.ingress.coord,
                                     data=self._payload))


# The data-flow fixtures: an ingress feeding a dispatcher at (1, 0) and
# two well-behaved sinks on a 3x2 mesh; (2, 1) stays unoccupied.
_SINKS = [(CountingSinkTile, "sink_a", (2, 0), {}),
          (CountingSinkTile, "sink_b", (1, 1), {})]
_DISPATCH = [["ingress", "dispatch"],
             ["dispatch", "sink_a"], ["dispatch", "sink_b"]]

#: name -> builder taking ``profile``: the linter's demo targets
#: (``python -m repro.tools.lint <name>``), the tests' negative cases.
FIXTURES: dict[str, Callable[[str], object]] = {
    # The Fig 5 receive chain eth -> ip -> udp -> app on a 4x1 mesh.  The
    # Ethernet position is the injection point (its processing is the
    # message entering the NoC); ip and udp are streaming relays, app a
    # sink.  Fig 5a swaps ip and udp, so the chain turns back on itself.
    "fig5a": partial(Fixture, size=(4, 1), backing="naive", tiles=[
        (CutThroughTile, "ip", (2, 0), {"next_coord": (1, 0)}),
        (CutThroughTile, "udp", (1, 0), {"next_coord": (3, 0)}),
        (CutThroughTile, "app", (3, 0), {"next_coord": None}),
    ], chains=[["eth", "ip", "udp", "app"]]),
    "fig5b": partial(Fixture, size=(4, 1), backing="naive", tiles=[
        (CutThroughTile, "ip", (1, 0), {"next_coord": (2, 0)}),
        (CutThroughTile, "udp", (2, 0), {"next_coord": (3, 0)}),
        (CutThroughTile, "app", (3, 0), {"next_coord": None}),
    ], chains=[["eth", "ip", "udp", "app"]]),
    "broken_wake": partial(
        Fixture, size=(2, 1), tiles=[(BrokenWakeEchoTile, "echo", (1, 0), {})],
        chains=[["ingress", "echo"]], payload=b"ping"),
    "idle_liar": partial(
        Fixture, size=(2, 1), tiles=[(IdleLiarTile, "liar", (1, 0), {})],
        chains=[]),
    "leaky_eject": partial(
        Fixture, size=(2, 1), backing="naive",
        tiles=[(LeakyEjectTile, "leaky", (1, 0), {})],
        chains=[["ingress", "leaky"]], payload=b"x" * 256),
    "step_parity": partial(
        Fixture, size=(2, 1), tiles=[(StepParityTile, "parity", (1, 0), {})],
        chains=[["ingress", "parity"]], payload=b"ping"),
    "early_read": partial(
        Fixture, size=(2, 1), backing="flat",
        tiles=[(EarlyReadTile, "reader", (1, 0), {})],
        chains=[["ingress", "reader"]], payload=b"x" * 256),
    "phantom_dest": partial(Fixture, size=(3, 2), tiles=[
        (PhantomDomainTile, "dispatch", (1, 0), {"phantom": (2, 1)}),
        *_SINKS], chains=_DISPATCH, payload=b"ping"),
    "stale_domain": partial(Fixture, size=(3, 2), tiles=[
        (StaleDomainScheduler, "dispatch", (1, 0), {"stale": (1, 1)}),
        *_SINKS], chains=_DISPATCH, payload=b"ping", replicas=[(2, 0)]),
    "escaped_domain": partial(Fixture, size=(3, 2), tiles=[
        (EscapedDomainScheduler, "dispatch", (1, 0), {}),
        *_SINKS], chains=_DISPATCH, payload=b"ping",
        replicas=[(2, 0), (1, 1)]),
    "blind_forwarder": partial(Fixture, size=(3, 1), tiles=[
        (BlindForwarderTile, "fwd", (1, 0), {"forward_to": (2, 0)}),
        (CountingSinkTile, "sink", (2, 0), {}),
    ], chains=[["ingress", "fwd"], ["fwd", "sink"]], payload=b"ping"),
}
