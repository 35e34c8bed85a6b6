"""Normalized view of an *instantiated* design for the analysis passes.

The passes run over real objects — the mesh, the routers, the next-hop
tables, the simulator's component list — not the XML spec, so what is
analyzed is what actually executes.  Any object exposing the loose
design duck type (``sim``, ``mesh``, ``tiles``; optionally ``chains``,
``tile_coords``, ``control``) can be linted: every shipped design class
and :class:`repro.config.generate.GeneratedDesign` qualify.
"""

from __future__ import annotations


from repro.noc.mesh import LocalPort, Mesh
from repro.noc.router import Router
from repro.sim.kernel import CycleSimulator, StagedFifo

Coord = tuple


class DesignModel:
    """Everything the passes need, extracted once."""

    def __init__(self, design: object,
                 name: str | None = None) -> None:
        self.design = design
        self.name = name or type(design).__name__
        self.sim: CycleSimulator | None = getattr(design, "sim", None)
        self.mesh: Mesh | None = getattr(design, "mesh", None)
        self.control = getattr(design, "control", None)

        tiles = getattr(design, "tiles", None) or []
        if isinstance(tiles, dict):
            self.tiles: dict[str, object] = dict(tiles)
        else:
            self.tiles = {t.name: t for t in tiles}

        coords = getattr(design, "tile_coords", None)
        if coords is None:
            coords = {name: tile.coord
                      for name, tile in self.tiles.items()
                      if hasattr(tile, "coord")}
        self.coords: dict[str, Coord] = dict(coords)

        chains = getattr(design, "chains", None) or []
        self.declared_chains: list[list[str]] = [list(c) for c in chains]

        # Reverse map: coordinate -> tile names at that coordinate
        # (normally one; more than one is itself a finding).
        self.tiles_at: dict[Coord, list[str]] = {}
        for tile_name, tile in self.tiles.items():
            coord = getattr(tile, "coord", None)
            if coord is not None:
                self.tiles_at.setdefault(coord, []).append(tile_name)

    # -- next-hop extraction -----------------------------------------------

    def dest_coords(self, tile: object) -> list[Coord]:
        """Every *runtime-derivable* destination coordinate of ``tile``.

        Sources: an explicit ``lint_dest_coords()`` hook on the tile
        (the scheduler and load-balancer tiles provide one covering
        their replica / stack destination lists) and the
        :class:`~repro.tiles.base.NextHopTable` entry sets (including
        every member of a round-robin / flow-hash destination set).

        Deliberately *excludes* ``dest_domain()`` declarations: a
        domain covers request/reply and data-dependent traffic that is
        not a cut-through streaming path, so feeding it to the chain
        derivation would manufacture phantom streaming chains.  The
        declarations are checked by :mod:`repro.analysis.dataflow`.
        """
        coords: list[Coord] = []
        hook = getattr(tile, "lint_dest_coords", None)
        if callable(hook):
            coords.extend(hook())
        table = getattr(tile, "next_hop", None)
        if table is not None:
            for dests in getattr(table, "_entries", {}).values():
                coords.extend(dests)
        seen: set[Coord] = set()
        unique = []
        for coord in coords:
            if coord not in seen:
                seen.add(coord)
                unique.append(coord)
        return unique

    def forwarding_edges(self) -> list[tuple[str, str, Coord]]:
        """Tile-level edges ``(src_name, dst_name_or_None, dst_coord)``.

        ``dst_name`` is None when the destination coordinate has no
        tile attached (a dangling route — reported by the structural
        pass; the deadlock pass skips such edges).
        """
        edges = []
        for name, tile in self.tiles.items():
            for coord in self.dest_coords(tile):
                targets = self.tiles_at.get(coord)
                edges.append((name, targets[0] if targets else None,
                              coord))
        return edges

    # -- simulator components ----------------------------------------------

    def components(self) -> list:
        if self.sim is None:
            return []
        return list(self.sim.components)

    def substeps(self, component: object) -> list:
        """Sub-components ``component`` steps internally each cycle.

        A registered component may absorb the step/commit of objects
        that are not themselves in the simulator (the flat mesh core
        steps every local port, for example) and declares them through
        a ``kernel_substeps()`` hook.  The analysis passes treat a
        substep as registered-by-proxy: its parent's schedule entry is
        its schedule entry, and its parent's wake hooks are the ones
        that must cover its inputs.
        """
        hook = getattr(component, "kernel_substeps", None)
        if not callable(hook):
            return []
        return list(hook())

    def consumed_fifos(
            self, component: object) -> list[StagedFifo]:
        """The FIFOs ``component`` pops from during ``step``.

        Discovered structurally from the known component shapes; a
        component may also expose ``lint_consumed_fifos()`` to declare
        its own.  Anything the model cannot classify contributes no
        FIFOs (and therefore no wake-contract findings).
        """
        hook = getattr(component, "lint_consumed_fifos", None)
        if callable(hook):
            return list(hook())
        if isinstance(component, Router):
            return list(component._in_fifos)
        port = getattr(component, "port", None)
        if isinstance(port, LocalPort):
            # Tiles, control endpoints, controller tiles: they all pull
            # from their local port's ejection FIFO.
            return [port.eject_fifo]
        return []

    def attached_ports(self) -> list[LocalPort]:
        ports = []
        if self.mesh is not None:
            ports.extend(self.mesh.ports.values())
        control_mesh = getattr(self.control, "mesh", None)
        if control_mesh is not None:
            ports.extend(control_mesh.ports.values())
        return ports


def extract(design: object,
            name: str | None = None) -> DesignModel:
    """Build a :class:`DesignModel`; pass ``design`` through unchanged
    if it already is one."""
    if isinstance(design, DesignModel):
        return design
    return DesignModel(design, name=name)
