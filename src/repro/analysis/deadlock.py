"""Channel-dependency deadlock analysis (paper sections IV-E, V-G).

A *resource* is a directed NoC link ``((x, y), port)`` — the output
port of the router at (x, y), including the LOCAL ejection port into a
tile.  A *chain* is the tile sequence a packet class traverses.  Under
wormhole switching with streaming tiles, a packet flowing down a chain
can simultaneously hold every link from its current tail position back
upstream, so the chain acquires the concatenated link sequence of all
its hops in order; a cycle anywhere in the union graph over all chains
is a potential deadlock.

This module is the home of the analysis; the runtime counterpart —
cut-through relay tiles that make the Fig 5a deadlock actually happen
in the cycle simulator — is in :mod:`repro.analysis.demo`.  Two entry
points:

- the functional API (:func:`analyze_chains`,
  :func:`assert_deadlock_free`) over explicitly declared chains, used
  by :meth:`repro.designs.base.Design.register`; and
- :func:`run`, the lint *pass* over an instantiated design, which
  additionally derives the real traffic chains from the next-hop
  tables (round-robin/flow-hash destination sets included), splits
  them at decoupling tiles (``CHAIN_BOUNDARY``, e.g. the packet log's
  bounded dropping request buffer), and reports every independent
  cycle with its full edge path as a ``BHV2xx`` finding.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import DesignModel, extract
from repro.noc.routing import Port, route_path

Coord = tuple
Resource = tuple  # ((x, y), Port)
#: held -> wanted -> names of the chains that wait that way; insertion
#: ordered, and every resource is a key (one nothing waits on maps to {}).
Graph = dict[Resource, dict[Resource, set[str]]]

# Hard cap on derived-path enumeration; beyond this the pass reports
# BHV204 and analyzes the paths found so far.
MAX_DERIVED_PATHS = 4096


class DeadlockError(RuntimeError):
    """Raised when a design's chains admit a resource cycle."""

    def __init__(self, cycle: list,
                 chains_involved: list[str]) -> None:
        self.cycle = cycle
        self.chains_involved = chains_involved
        links = " -> ".join(f"{coord}:{port.value}"
                            for coord, port in cycle)
        super().__init__(
            f"message-level deadlock: resource cycle [{links}] "
            f"(chains: {', '.join(chains_involved) or 'unknown'}); "
            "re-place the tiles so each chain acquires links in order"
        )


def chain_link_sequence(chain: list[str],
                        coords: dict[str, Coord]) -> list[Resource]:
    """The ordered list of NoC links a chain can hold simultaneously.

    Each tile-to-tile hop contributes its full route, including the
    final LOCAL ejection into the destination tile.
    """
    missing = [name for name in chain if name not in coords]
    if missing:
        raise KeyError(f"chain references unknown tiles: {missing}")
    links: list[Resource] = []
    for src_name, dst_name in zip(chain, chain[1:]):
        src, dst = coords[src_name], coords[dst_name]
        if src == dst:
            raise ValueError(
                f"chain hop {src_name}->{dst_name} stays on one tile"
            )
        links.extend(route_path(src, dst))
    return links


def _add_edge(graph: Graph, held: Resource, wanted: Resource,
              chain_name: str) -> None:
    graph.setdefault(held, {}).setdefault(wanted, set()).add(chain_name)
    graph.setdefault(wanted, {})


def _add_chain(graph: Graph, chain: list[str],
               coords: dict[str, Coord]) -> None:
    """Add one chain's dependency edges; raises before touching
    ``graph`` if the chain names an unknown tile or stays on one."""
    name = "->".join(chain)
    sequence = chain_link_sequence(chain, coords)
    for held, wanted in zip(sequence, sequence[1:]):
        if held != wanted:
            _add_edge(graph, held, wanted, name)
    # A repeated resource inside one chain is an immediate self-wait.
    seen: set[Resource] = set()
    for resource in sequence:
        if resource in seen and resource[1] != Port.LOCAL:
            _add_edge(graph, resource, resource, name)
        seen.add(resource)


def build_dependency_graph(chains: list[list[str]],
                           coords: dict[str, Coord]) -> Graph:
    """Union of every chain's consecutive-resource dependency edges.

    A dict of dicts: ``graph[held][wanted]`` is the set of chain names
    that hold ``held`` while waiting for ``wanted``.  Resources enter
    it in the order the chains acquire them (held, then wanted).
    """
    graph: Graph = {}
    for chain in chains:
        _add_chain(graph, chain, coords)
    return graph


def _strong_components(graph: Graph) -> list[set[Resource]]:
    """Tarjan's strongly connected components, without recursion: the
    chains of a 32x32 design are thousands of links long."""
    index: dict[Resource, int] = {}
    low: dict[Resource, int] = {}
    stack: list[Resource] = []
    on_stack: set[Resource] = set()
    components: list[set[Resource]] = []
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            if node not in index:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            for successor in successors:
                if successor not in index:
                    work.append((successor, iter(graph[successor])))
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: set[Resource] = set()
                    while node not in component:
                        component.add(stack.pop())
                    on_stack -= component
                    components.append(component)
    return components


def witness_cycles(graph: Graph) -> list[list[Resource]]:
    """One witness cycle per independent cyclic region of the graph
    (the dict of dicts :func:`build_dependency_graph` returns).

    A region's witness starts at its earliest-inserted resource and
    follows each resource's earliest-inserted successor inside the
    region until one repeats, so it does not depend on the hash seed.

    LOCAL ejection ports are consumed by tiles (which always drain
    eventually in a correct design), so a cycle must involve at least
    one mesh link to count as a true NoC deadlock.
    """
    cycles: list[list[Resource]] = []
    inserted = {node: rank for rank, node in enumerate(graph)}
    for component in _strong_components(graph):
        node = min(component, key=inserted.__getitem__)
        if len(component) == 1 and node not in graph[node]:
            continue
        walk: dict[Resource, int] = {}
        while node not in walk:
            walk[node] = len(walk)
            node = next(n for n in graph[node] if n in component)
        cycle = list(walk)[walk[node]:]
        if all(resource[1] == Port.LOCAL for resource in cycle):
            continue
        cycles.append(cycle)
    return cycles


def chains_through(graph: Graph, cycle: list[Resource]) -> list[str]:
    """The chain names, sorted, on the edges of ``graph`` (the dict of
    dicts :func:`build_dependency_graph` returns) between two resources
    of ``cycle``."""
    involved: set[str] = set()
    cycle_set = set(cycle)
    for held in cycle_set:
        for wanted, names in graph[held].items():
            if wanted in cycle_set:
                involved.update(names)
    return sorted(involved)


def analyze_chains(chains: list[list[str]],
                   coords: dict[str, Coord]) -> list | None:
    """Returns a witness resource cycle, or None if deadlock-free."""
    graph = build_dependency_graph(chains, coords)
    cycles = witness_cycles(graph)
    return cycles[0] if cycles else None


def assert_deadlock_free(chains: list[list[str]],
                         coords: dict[str, Coord]) -> None:
    """Raise :class:`DeadlockError` if the chains admit a cycle."""
    graph = build_dependency_graph(chains, coords)
    cycles = witness_cycles(graph)
    if not cycles:
        return
    raise DeadlockError(cycles[0], chains_through(graph, cycles[0]))


# -- chain derivation from the instantiated routing state ---------------------


def _is_boundary(tile: object) -> bool:
    return bool(getattr(type(tile), "CHAIN_BOUNDARY", False))


def derive_streaming_chains(
    model: DesignModel,
) -> tuple[list[list[str]], list[Finding]]:
    """Maximal backpressure-coupled tile paths, from the real tables.

    A tile wired through a next-hop table consumes its input only while
    it can inject its output, so consecutive next-hop hops are coupled
    and the whole path is one chain.  Paths split at ``CHAIN_BOUNDARY``
    tiles (bounded *dropping* buffers decouple their upstream from
    their downstream) and terminate on a revisit (a forwarding loop,
    reported as BHV202).
    """
    findings: list[Finding] = []
    adjacency: dict[str, list[str]] = {name: [] for name in model.tiles}
    indegree: dict[str, int] = {name: 0 for name in model.tiles}
    for src, dst, coord in model.forwarding_edges():
        if dst is None:
            continue  # dangling route: the structural pass reports it
        if dst == src:
            findings.append(Finding(
                "BHV205",
                f"tile {src!r} routes traffic to its own "
                f"coordinates {coord}",
                location=src,
                hint="a self-route never leaves the local port and "
                     "wedges the ejection FIFO",
            ))
            continue
        adjacency[src].append(dst)
        indegree[dst] += 1

    starts = [name for name, tile in model.tiles.items()
              if adjacency[name]
              and (indegree[name] == 0 or _is_boundary(tile))]

    chains: list[list[str]] = []
    covered_edges: set[tuple[str, str]] = set()
    truncated = False

    def walk(path: list[str]) -> None:
        nonlocal truncated
        if len(chains) >= MAX_DERIVED_PATHS:
            truncated = True
            return
        head = path[-1]
        successors = adjacency[head]
        extended = False
        for nxt in successors:
            covered_edges.add((head, nxt))
            if _is_boundary(model.tiles[nxt]):
                # The hop *into* the boundary still holds links; the
                # boundary's own output starts a fresh chain.  A path
                # revisiting a boundary (e.g. the log readback loop
                # udp_rx -> log) is closed by the boundary's dropping
                # buffer, so it is not a forwarding-loop finding.
                chains.append(path + [nxt])
                extended = True
                continue
            if nxt in path:
                findings.append(Finding(
                    "BHV202",
                    "forwarding loop in the next-hop tables: "
                    + " -> ".join(path + [nxt]),
                    location=head,
                    hint="a packet revisiting a tile usually means a "
                         "mis-wired next-hop entry",
                ))
                chains.append(path + [nxt])
                continue
            extended = True
            walk(path + [nxt])
        if not extended and len(path) > 1:
            chains.append(path)

    for start in starts:
        walk([start])
    # Cover edges unreachable from any start (e.g. components that are
    # pure forwarding cycles with no external entry point).
    for src, dsts in adjacency.items():
        for dst in dsts:
            if (src, dst) not in covered_edges and \
                    len(chains) < MAX_DERIVED_PATHS:
                walk([src])
                break

    if truncated:
        findings.append(Finding(
            "BHV204",
            f"derived-path enumeration stopped at {MAX_DERIVED_PATHS} "
            "paths; analysis covers the enumerated prefix only",
            location=model.name,
        ))
    return chains, findings


def _is_covered(derived: list[str], declared: list[list[str]]) -> bool:
    """True if ``derived`` is a contiguous run of some declared chain."""
    n = len(derived)
    for chain in declared:
        for offset in range(len(chain) - n + 1):
            if chain[offset:offset + n] == derived:
                return True
    return False


def _drains_at_boundary(chain: list[str], model: DesignModel) -> bool:
    """True if the chain's terminal tile is a ``CHAIN_BOUNDARY``.

    Such a chain's head always advances — the boundary serves or
    *drops* instead of backpressuring — so none of its links can be
    held indefinitely and it cannot contribute to a sustained resource
    cycle (the paper's argument for the log readback loop).
    """
    tile = model.tiles.get(chain[-1])
    return tile is not None and _is_boundary(tile)


def run(design: object) -> list[Finding]:
    """The BHV2xx lint pass over an instantiated design."""
    model = extract(design)
    findings: list[Finding] = []
    derived, derive_findings = derive_streaming_chains(model)
    findings.extend(derive_findings)

    for chain in derived:
        if _drains_at_boundary(chain, model) and chain[-1] in chain[:-1]:
            continue  # a boundary-closed loop exists *by design*
        if not _is_covered(chain, model.declared_chains):
            findings.append(Finding(
                "BHV203",
                "derived traffic path not covered by any declared "
                "chain: " + " -> ".join(chain),
                location=model.name,
                hint="declare it (design.chains) so the build-time "
                     "analysis sees the same traffic the tables route",
            ))

    all_chains: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    for chain in model.declared_chains + derived:
        key = tuple(chain)
        if len(chain) >= 2 and key not in seen:
            seen.add(key)
            all_chains.append(chain)

    graph: Graph = {}
    for chain in all_chains:
        if _drains_at_boundary(chain, model):
            continue  # cannot sustain a wait; see _drains_at_boundary
        try:
            _add_chain(graph, chain, model.coords)
        except KeyError as error:
            findings.append(Finding(
                "BHV121", str(error), location=" -> ".join(chain)))
        except ValueError as error:
            findings.append(Finding(
                "BHV205", str(error), location=" -> ".join(chain)))

    for cycle in witness_cycles(graph):
        links = " -> ".join(f"{coord}:{port.value}"
                            for coord, port in cycle)
        involved = chains_through(graph, cycle)
        findings.append(Finding(
            "BHV201",
            f"resource cycle [{links} -> {cycle[0][0]}:"
            f"{cycle[0][1].value}] "
            f"(chains: {', '.join(involved) or 'unknown'})",
            location=model.name,
            hint="re-place the tiles so each chain acquires NoC links "
                 "in a consistent order (paper Fig 5b)",
            data={
                "cycle": [[list(coord), port.value]
                          for coord, port in cycle],
                "chains": involved,
            },
        ))
    return findings
