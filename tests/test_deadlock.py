"""Tests for the static deadlock analysis and its runtime counterpart."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.analysis.deadlock import (
    DeadlockError,
    analyze_chains,
    assert_deadlock_free,
    build_dependency_graph,
    chain_link_sequence,
    witness_cycles,
)
from repro.analysis.deadlock import _strong_components as strong_components
from repro.analysis.demo import Fig5Design, build_fig5_layout
from repro.noc import NocMessage, Port
from tests.test_import_graph import run_python


class TestChainLinkSequence:
    def test_straight_line(self):
        coords = {"a": (0, 0), "b": (1, 0), "c": (2, 0)}
        seq = chain_link_sequence(["a", "b", "c"], coords)
        assert seq == [
            ((0, 0), Port.EAST), ((1, 0), Port.LOCAL),
            ((1, 0), Port.EAST), ((2, 0), Port.LOCAL),
        ]

    def test_unknown_tile_rejected(self):
        with pytest.raises(KeyError):
            chain_link_sequence(["a", "zz"], {"a": (0, 0)})

    def test_self_hop_rejected(self):
        with pytest.raises(ValueError):
            chain_link_sequence(["a", "a"], {"a": (0, 0)})


class TestStaticAnalysis:
    def test_fig5a_detected(self):
        """The paper's Fig 5a placement deadlocks: UDP must route east
        through a link its own packet still holds."""
        coords = {"eth": (0, 0), "ip": (2, 0), "udp": (1, 0),
                  "app": (3, 0)}
        cycle = analyze_chains([["eth", "ip", "udp", "app"]], coords)
        assert cycle is not None
        assert ((1, 0), Port.EAST) in cycle

    def test_fig5b_clean(self):
        coords = {"eth": (0, 0), "ip": (1, 0), "udp": (2, 0),
                  "app": (3, 0)}
        assert analyze_chains([["eth", "ip", "udp", "app"]],
                              coords) is None

    def test_assert_raises_with_witness(self):
        coords = {"eth": (0, 0), "ip": (2, 0), "udp": (1, 0),
                  "app": (3, 0)}
        with pytest.raises(DeadlockError) as excinfo:
            assert_deadlock_free([["eth", "ip", "udp", "app"]], coords)
        assert "eth->ip->udp->app" in str(excinfo.value)
        assert excinfo.value.cycle

    def test_cross_chain_cycle(self):
        """Two individually-safe chains can deadlock each other."""
        # Chain 1 goes east along row 0 then south; chain 2 goes the
        # reverse direction; each holds what the other wants.
        coords = {"a": (0, 0), "b": (2, 0),
                  "c": (2, 1), "d": (0, 1)}
        chains = [["a", "b", "c", "d"],  # east then south then west
                  ["c", "b"]]            # needs the south link backwards
        # a->b: (0,0)E (1,0)E; b->c: (2,0)S; c->d: (2,1)W (1,1)W
        # c->b: (2,1)N -- no overlap; make an actually cyclic pair:
        chains = [["a", "b", "c"], ["c", "d", "a"]]
        result = analyze_chains(chains, coords)
        # This pair is safe (disjoint links); sanity-check that.
        assert result is None
        # Now force a shared-link cycle via a chain that doubles back.
        coords2 = {"w": (0, 0), "x": (3, 0), "y": (1, 0), "z": (2, 0)}
        bad = analyze_chains([["w", "x", "y", "z"]], coords2)
        assert bad is not None

    def test_multiple_chains_union(self):
        """The analyzer unions resources across all declared chains."""
        coords = {"rx": (0, 0), "p": (1, 0), "tx": (2, 0)}
        chains = [["rx", "p"], ["p", "tx"]]
        assert analyze_chains(chains, coords) is None

    def test_designs_ship_deadlock_free(self):
        from repro.designs import (
            IpInIpEchoDesign,
            NatEchoDesign,
            UdpEchoDesign,
        )
        from repro.designs.tcp_stack import TcpServerDesign

        for design_cls in (UdpEchoDesign, NatEchoDesign,
                           IpInIpEchoDesign, TcpServerDesign):
            design = design_cls()  # constructor runs the analyzer
            assert analyze_chains(design.chains,
                                  design.tile_coords) is None


class TestRuntimeDeadlock:
    def _run(self, variant, payload_bytes=8192, max_cycles=5000):
        sim, ingress, tiles, chain, coords = build_fig5_layout(variant)
        ingress.send(NocMessage(dst=coords["ip"], src=coords["eth"],
                                data=bytes(payload_bytes)))
        sim.run_until(lambda: tiles["app"].messages_through >= 1,
                      max_cycles=max_cycles)
        return sim, tiles

    def test_fig5a_wedges_the_noc(self):
        """The statically-detected layout really deadlocks at runtime."""
        with pytest.raises(TimeoutError):
            self._run("a")

    def test_fig5b_streams_cleanly(self):
        sim, tiles = self._run("b")
        # Cut-through streaming: total latency ~ message length + hops.
        assert sim.cycle < 8192 // 64 + 60

    def test_fig5a_ok_for_short_packets(self):
        """Short packets fit in the NoC buffering, so the bad layout
        *appears* to work — exactly why static analysis is needed."""
        sim, tiles = self._run("a", payload_bytes=128)
        assert tiles["app"].messages_through == 1

    def test_static_and_runtime_agree(self):
        for variant, expect_deadlock in (("a", True), ("b", False)):
            _, _, _, chain, coords = build_fig5_layout(variant)
            static = analyze_chains([chain], coords) is not None
            assert static == expect_deadlock


# -- the dict graph against networkx -----------------------------------------

PORTS = (Port.LOCAL, Port.EAST)


@st.composite
def digraphs(draw):
    """A dependency graph of at most 12 resources in the shape
    ``build_dependency_graph`` returns, self-loops included.  Half the
    resources are LOCAL ports, so LOCAL-only cycles do come up."""
    size = draw(st.integers(1, 12))
    order = draw(st.permutations(range(size)))
    nodes = [((rank, 0), PORTS[rank % 2]) for rank in order]
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                    st.sampled_from(nodes)),
                          max_size=3 * size))
    graph = {node: {} for node in nodes}
    for held, wanted in edges:
        graph[held].setdefault(wanted, set()).add("chain")
    return graph


class TestAgainstNetworkx:
    """The in-house SCC and witness code replaced three networkx
    calls; networkx (a dev dependency only) stays the reference."""

    @pytest.fixture(scope="class")
    def nx(self):
        """Imported once, outside every example's deadline."""
        return pytest.importorskip("networkx")

    @given(graph=digraphs())
    def test_same_partition_and_sound_witnesses(self, nx, graph):
        reference = nx.DiGraph()
        reference.add_nodes_from(graph)
        reference.add_edges_from((held, wanted) for held in graph
                                 for wanted in graph[held])
        components = strong_components(graph)
        assert sorted(map(sorted, components)) == sorted(
            map(sorted, nx.strongly_connected_components(reference)))

        cycles = witness_cycles(graph)
        regions = []
        for cycle in cycles:
            # A closed walk over real edges, inside one component.
            for held, wanted in zip(cycle, cycle[1:] + cycle[:1]):
                assert wanted in graph[held]
            assert len(set(cycle)) == len(cycle)
            assert any(port != Port.LOCAL for _, port in cycle)
            region = next(c for c in components if cycle[0] in c)
            assert set(cycle) <= region
            regions.append(region)
        # One witness per region.  A region goes without only when it
        # has no cycle (a lone resource that does not wait on itself)
        # or its witness was a cycle of LOCAL ports.
        assert len({id(region) for region in regions}) == len(regions)
        for region in components:
            if any(region is reported for reported in regions):
                continue
            if reference.subgraph(region).number_of_edges() == 0:
                assert len(region) == 1
                continue
            local = [n for n in region if n[1] == Port.LOCAL]
            assert not nx.is_directed_acyclic_graph(
                reference.subgraph(local))

    def test_a_long_chain_needs_no_recursion(self):
        coords = {f"t{i}": (i % 64, i // 64) for i in range(4096)}
        chain = [f"t{i}" for i in range(4096)]
        graph = build_dependency_graph([chain], coords)
        assert len(strong_components(graph)) == len(graph) > 8000
        assert witness_cycles(graph) == []


# -- the witness is a definition, not an accident of hashing -----------------

FIG5A_MESSAGE = (
    "resource cycle [(1, 0):east -> (2, 0):local -> (2, 0):west -> "
    "(1, 0):local -> (1, 0):east] "
    "(chains: eth->ip->udp->app, ip->udp->app)")
FIG5A_DATA = {
    "cycle": [[[1, 0], "east"], [[2, 0], "local"],
              [[2, 0], "west"], [[1, 0], "local"]],
    "chains": ["eth->ip->udp->app", "ip->udp->app"],
}
FIG5A_ERROR = (
    "message-level deadlock: resource cycle [(1, 0):east -> "
    "(2, 0):local -> (2, 0):west -> (1, 0):local] "
    "(chains: eth->ip->udp->app); "
    "re-place the tiles so each chain acquires links in order")

#: The cyclic region (b <-> c) is less than half of the graph, the case
#: in which networkx walked a ``set`` of ``(coord, Port)`` and the
#: witness came out in a rotation that depended on PYTHONHASHSEED.
SMALL_REGION = """
from repro.analysis.deadlock import build_dependency_graph, witness_cycles
coords = {name: (x, 0) for x, name in enumerate("abcdef")}
coords.update(g=(0, 1), h=(5, 1))
chains = [["g", "a", "f", "h"], ["b", "c", "b", "c"]]
for cycle in witness_cycles(build_dependency_graph(chains, coords)):
    print([(coord, port.value) for coord, port in cycle])
"""


class TestWitnessIsPinned:
    def test_fig5a_texts_are_those_of_the_networkx_analyzer(self):
        """Recorded at d425d27, the last commit on networkx."""
        [finding] = [f for f in analyze(Fig5Design("a"),
                                        name="fig5a").findings
                     if f.code == "BHV201"]
        assert finding.message == FIG5A_MESSAGE
        assert finding.data == FIG5A_DATA
        _, _, _, chain, coords = build_fig5_layout("a")
        with pytest.raises(DeadlockError) as excinfo:
            assert_deadlock_free([chain], coords)
        assert str(excinfo.value) == FIG5A_ERROR

    def test_same_witness_under_every_hash_seed(self):
        outputs = {run_python(SMALL_REGION, hash_seed=seed)
                   for seed in ("0", "1", "2")}
        assert outputs == {
            "[((1, 0), 'east'), ((2, 0), 'local'), "
            "((2, 0), 'west'), ((1, 0), 'local')]\n"}

    def test_lint_json_is_byte_identical_under_every_hash_seed(self):
        lint = ("import sys; from repro.tools.lint import main; "
                "assert main(['fig5a', '--json']) == 1")
        outputs = {run_python(lint, hash_seed=seed)
                   for seed in ("0", "1", "2")}
        assert len(outputs) == 1
        [finding] = [f for f in json.loads(outputs.pop())["findings"]
                     if f["code"] == "BHV201"]
        assert finding["message"] == FIG5A_MESSAGE
        assert finding["data"] == FIG5A_DATA
