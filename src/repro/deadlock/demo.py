"""Runtime reproduction of the Fig 5 deadlock example.

:class:`CutThroughTile` forwards flits as they arrive (streaming, like
the paper's protocol engines) with only a couple of flits of internal
buffering, so a blocked downstream transfer back-pressures through the
tile and holds the upstream wormhole open.  Chaining four of them in
the Fig 5a placement wedges the NoC on a sufficiently long packet;
the Fig 5b placement streams the same packet through cleanly.
"""

from __future__ import annotations

import itertools

from repro.noc.flit import Flit
from repro.noc.mesh import Mesh
from repro.noc.routing import Port
from repro.sim.kernel import CycleSimulator, no_commit

_msg_ids = itertools.count(1_000_000)


class CutThroughTile:
    """A streaming relay: each ejected flit is re-addressed to the next
    tile and injected immediately.  ``next_coord=None`` makes it a sink."""

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 next_coord: tuple[int, int] | None):
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

    def lint_dest_coords(self):
        """Static destinations for the design linter's derived-chain
        analysis (this tile has no NextHopTable)."""
        return [] if self.next_coord is None else [self.next_coord]


class Fig5Design:
    """The Fig 5 receive chain eth -> ip -> udp -> app on a 4x1 mesh,
    in the deadlocking (``variant="a"``) or safe (``"b"``) placement.

    The Ethernet position is the injection point (its processing is the
    message entering the NoC); ip and udp are streaming relays; app is
    a sink.  Shaped like a design (``sim``/``mesh``/``tiles``/
    ``chains``/``tile_coords``) so ``python -m repro.tools.lint`` can
    analyze it directly.
    """

    def __init__(self, variant: str = "a"):
        if variant == "a":
            coords = {"eth": (0, 0), "ip": (2, 0), "udp": (1, 0),
                      "app": (3, 0)}
        elif variant == "b":
            coords = {"eth": (0, 0), "ip": (1, 0), "udp": (2, 0),
                      "app": (3, 0)}
        else:
            raise ValueError(f"unknown Fig 5 variant {variant!r}")
        self.variant = variant
        self.sim = CycleSimulator()
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


def build_fig5_layout(variant: str):
    """Build a :class:`Fig5Design` and unpack it the historical way:
    ``(sim, ingress_port, tiles, chain, coords)``."""
    design = Fig5Design(variant)
    return (design.sim, design.ingress, design.tiles,
            design.chains[0], design.tile_coords)
