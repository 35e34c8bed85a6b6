"""Structural soundness checks (BHV1xx).

Two front ends share the finding vocabulary:

- :func:`lint_spec` checks a declarative :class:`DesignSpec` (the XML
  world) — it is the finding-pipeline form of the paper's section V-G
  checks, and :func:`repro.config.validate.validate` is now a thin
  wrapper over it;
- :func:`run` checks an *instantiated* design: coordinate collisions
  on the real mesh, dangling next-hop destinations, tiles nobody can
  reach, double- or never-registered components, and buffer/credit
  sizing sanity.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import DesignModel, extract
from repro.tiles.base import Tile


def lint_spec(spec: object) -> list[Finding]:
    """BHV1xx findings for a :class:`repro.config.schema.DesignSpec`."""
    findings: list[Finding] = []
    if spec.width < 1 or spec.height < 1:
        findings.append(Finding(
            "BHV120", f"bad dimensions {spec.width}x{spec.height}",
            location=spec.name))
    seen_names: set[str] = set()
    seen_coords: dict = {}
    all_names = {tile.name for tile in spec.tiles}
    for tile in spec.tiles:
        if tile.name in seen_names:
            findings.append(Finding(
                "BHV105", f"duplicate tile name {tile.name!r}",
                location=tile.name))
        seen_names.add(tile.name)
        if not (0 <= tile.x < spec.width and 0 <= tile.y < spec.height):
            findings.append(Finding(
                "BHV102",
                f"tile {tile.name!r} at {tile.coord} is outside the "
                f"{spec.width}x{spec.height} mesh",
                location=tile.name))
        elif tile.coord in seen_coords:
            findings.append(Finding(
                "BHV101",
                f"tiles {seen_coords[tile.coord]!r} and {tile.name!r} "
                f"share coordinates {tile.coord}",
                location=tile.name))
        else:
            seen_coords[tile.coord] = tile.name
        findings.extend(_type_findings(tile, all_names))
        for dest in tile.dests:
            for target in dest.targets:
                if target not in all_names:
                    findings.append(Finding(
                        "BHV124",
                        f"tile {tile.name!r} routes to unknown tile "
                        f"{target!r}",
                        location=tile.name))
            if not dest.targets:
                findings.append(Finding(
                    "BHV123",
                    f"tile {tile.name!r} has a destination with no "
                    "targets",
                    location=tile.name))
    for chain in spec.chains:
        for name in chain.tiles:
            if name not in seen_names:
                findings.append(Finding(
                    "BHV121",
                    f"chain references unknown tile {name!r}",
                    location=" -> ".join(chain.tiles)))
    if not findings and not spec.chains:
        findings.append(Finding(
            "BHV122",
            "no chains declared: deadlock analysis has nothing to "
            "check",
            location=spec.name))
    return findings


def _type_findings(tile: object, all_names: set[str]) -> list[Finding]:
    """What only a tile factory would otherwise find out: a type the
    registry does not know, a required ``<param>`` that is missing (or
    names no tile), a value its parser rejects — and what nothing would:
    a ``<param>`` the type does not take, which the build ignores."""
    # Imported here: ``repro.config``'s validator imports this module.
    from repro.config.registry import TILE_TYPES

    tile_type = TILE_TYPES.get(tile.type)
    if tile_type is None:
        return [Finding(
            "BHV125",
            f"tile {tile.name!r} has unknown type {tile.type!r} "
            f"(registered: {', '.join(sorted(TILE_TYPES))})",
            location=tile.name)]
    taken = {*tile_type.params, *tile_type.required}
    findings = [Finding(
        "BHV128",
        f"tile {tile.name!r} ({tile.type}) takes no {name!r} param "
        f"(takes: {', '.join(sorted(taken)) or 'none'})",
        location=tile.name) for name in tile.params if name not in taken]
    for name in tile_type.required:
        if name not in tile.params:
            findings.append(Finding(
                "BHV126",
                f"tile {tile.name!r} ({tile.type}) needs a {name!r} "
                "param", location=tile.name))
        elif name not in tile_type.params and \
                tile.params[name] not in all_names:
            findings.append(Finding(
                "BHV124",
                f"tile {tile.name!r} param {name!r} names unknown tile "
                f"{tile.params[name]!r}", location=tile.name))
    for name, parse in tile_type.params.items():
        if name in tile.params:
            try:
                parse(tile.params[name])
            except ValueError as error:
                findings.append(Finding(
                    "BHV127",
                    f"tile {tile.name!r} param {name!r}: {error}",
                    location=tile.name))
    return findings


def _mesh_findings(model: DesignModel) -> list[Finding]:
    findings: list[Finding] = []
    mesh = model.mesh
    if mesh is None:
        return findings
    for coord, names in sorted(model.tiles_at.items()):
        if len(names) > 1:
            findings.append(Finding(
                "BHV101",
                f"tiles {', '.join(repr(n) for n in names)} share "
                f"coordinates {coord} (one local port, interleaved "
                "traffic)",
                location=names[-1]))
        if coord not in mesh.routers:
            findings.append(Finding(
                "BHV102",
                f"tile {names[0]!r} at {coord} is outside the "
                f"{mesh.width}x{mesh.height} mesh",
                location=names[0]))
    return findings


def _routing_findings(model: DesignModel) -> list[Finding]:
    findings: list[Finding] = []
    reached: set[str] = set()
    for src, dst, coord in model.forwarding_edges():
        if dst is None:
            findings.append(Finding(
                "BHV104",
                f"tile {src!r} routes to {coord}, where no tile is "
                "attached — ejected flits would wedge the router",
                location=src,
                hint="attach a tile at that coordinate or fix the "
                     "next-hop entry"))
        else:
            reached.add(dst)
    for chain in model.declared_chains:
        reached.update(chain[1:])
    for name, tile in model.tiles.items():
        if name in reached:
            continue
        if hasattr(tile, "push_frame"):
            continue  # an ingress: frames enter from outside the NoC
        if isinstance(tile, Tile) and \
                type(tile).on_cycle is not Tile.on_cycle:
            continue  # originates its own traffic
        if not isinstance(tile, Tile):
            continue  # non-framework component; cannot reason about it
        findings.append(Finding(
            "BHV103",
            f"tile {name!r} has no ingress, no incoming route, and "
            "originates no traffic",
            location=name,
            hint="dead tile: remove it or wire a next-hop entry to it"))
    return findings


def _registration_findings(model: DesignModel) -> list[Finding]:
    findings: list[Finding] = []
    if model.sim is None:
        return findings
    counts: dict[int, int] = {}
    registered: set[int] = set()
    by_id: dict[int, object] = {}
    for component in model.components():
        key = id(component)
        counts[key] = counts.get(key, 0) + 1
        registered.add(key)
        by_id[key] = component
    for key, count in counts.items():
        if count > 1:
            findings.append(Finding(
                "BHV106",
                f"component {by_id[key]!r} registered {count} times — "
                "it steps (and commits) that many times per cycle",
                location=getattr(by_id[key], "name", "")))
    # A substep is stepped by its parent, so it counts as registered —
    # unless it is *also* in the simulator directly, in which case it
    # steps twice per cycle.  The same applies when two parents both
    # claim a substep (e.g. a tile adopted by two flat tile cores):
    # ``substep_parents`` dedupes on id, so count occurrences here.
    sub_claims: dict[int, dict[int, object]] = {}
    sub_by_id: dict[int, object] = {}
    for component in model.components():
        for sub in model.substeps(component):
            sub_claims.setdefault(id(sub), {})[id(component)] = component
            sub_by_id[id(sub)] = sub
    for key, parents in sub_claims.items():
        sub = sub_by_id[key]
        if key in registered:
            parent = next(iter(parents.values()))
            findings.append(Finding(
                "BHV106",
                f"component {sub!r} is registered with the simulator "
                f"and also stepped internally by "
                f"{getattr(parent, 'name', parent)!r} — it steps "
                "twice per cycle",
                location=getattr(sub, "name", "")))
        if len(parents) > 1:
            names = ", ".join(
                repr(getattr(p, "name", p)) for p in parents.values())
            findings.append(Finding(
                "BHV106",
                f"component {sub!r} is stepped internally by "
                f"{len(parents)} parents ({names}) — it steps that "
                "many times per cycle",
                location=getattr(sub, "name", "")))
    registered |= set(sub_claims)
    for port in model.attached_ports():
        if id(port) not in registered:
            findings.append(Finding(
                "BHV107",
                f"local port at {port.coord} is attached to the mesh "
                "but never added to the simulator",
                location=str(port.coord),
                hint="register it (Mesh.register does this for ports "
                     "attached before the call)"))
    for name, tile in model.tiles.items():
        if id(tile) not in registered:
            findings.append(Finding(
                "BHV107",
                f"tile {name!r} is part of the design but never added "
                "to the simulator",
                location=name))
    return findings


def _sizing_findings(model: DesignModel) -> list[Finding]:
    findings: list[Finding] = []
    for name, tile in model.tiles.items():
        if not isinstance(tile, Tile):
            continue
        if tile.max_tx_backlog < 1:
            findings.append(Finding(
                "BHV111",
                f"tile {name!r} has max_tx_backlog="
                f"{tile.max_tx_backlog}: its engine can never pick up "
                "a message",
                location=name))
        if tile.buffer_flits < 1:
            findings.append(Finding(
                "BHV111",
                f"tile {name!r} has buffer_flits={tile.buffer_flits}: "
                "it can never start receiving a message",
                location=name))
        eject = tile.port.eject_fifo
        if eject.capacity is None:
            findings.append(Finding(
                "BHV110",
                f"tile {name!r} has an unbounded ejection FIFO — "
                "credit backpressure (and the deadlock model) assumes "
                "bounded ejection",
                location=name))
    if model.mesh is not None:
        for coord, router in model.mesh.routers.items():
            for port_enum, fifo in router.inputs.items():
                if fifo.capacity is not None and fifo.capacity < 2:
                    findings.append(Finding(
                        "BHV110",
                        f"router {coord} input {port_enum.value!r} has "
                        f"a {fifo.capacity}-flit FIFO; depth < 2 "
                        "serialises every hop",
                        location=str(coord)))
                    break  # one finding per router is enough
    return findings


def run(design: object) -> list[Finding]:
    """The BHV1xx lint pass over an instantiated design."""
    model = extract(design)
    findings = _mesh_findings(model)
    findings.extend(_routing_findings(model))
    findings.extend(_registration_findings(model))
    findings.extend(_sizing_findings(model))
    return findings
