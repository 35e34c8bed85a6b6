"""Tests for the pass-based design linter (repro.analysis)."""

import json

import pytest

from repro.analysis import (
    CODES,
    AnalysisReport,
    Finding,
    analyze,
    analyze_chains,
    analyze_dynamic,
    lint_spec,
)
from repro.analysis.demo import FIXTURES
from repro.designs import SHIPPED, load_design
from repro.noc.routing import Port
from repro.tools.lint import main as lint_main


class TestFindingPipeline:
    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            Finding("BHV999", "nope")

    def test_severity_defaults_from_registry(self):
        assert Finding("BHV201", "x").severity == "error"
        assert Finding("BHV122", "x").severity == "warning"
        assert Finding("BHV305", "x").severity == "info"

    def test_report_ok_tracks_errors_only(self):
        report = AnalysisReport(target="t")
        report.extend([Finding("BHV122", "w"), Finding("BHV305", "i")])
        assert report.ok
        report.extend([Finding("BHV101", "e")])
        assert not report.ok

    def test_sorted_findings_errors_first(self):
        report = AnalysisReport(target="t")
        report.extend([Finding("BHV305", "i"), Finding("BHV101", "e"),
                       Finding("BHV110", "w")])
        severities = [f.severity for f in report.sorted_findings()]
        assert severities == ["error", "warning", "info"]

    def test_every_code_has_severity_and_description(self):
        for code, (severity, description) in CODES.items():
            assert severity in ("error", "warning", "info"), code
            assert description, code

    def test_unknown_pass_rejected(self):
        with pytest.raises(KeyError, match="unknown pass"):
            analyze(FIXTURES["fig5b"](), passes=["quantum"])


class TestDeadlockPass:
    def test_fig5a_cycle_reported_with_edge_path(self):
        """The paper's Fig 5a placement must produce a BHV201 finding
        whose witness cycle includes the (1,0) east link."""
        report = analyze(FIXTURES["fig5a"](), name="fig5a")
        findings = report.by_code("BHV201")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity == "error"
        cycle = [(tuple(coord), port)
                 for coord, port in finding.data["cycle"]]
        assert ((1, 0), Port.EAST.value) in cycle
        # The message spells out the full edge path, closed on itself.
        assert "resource cycle [" in finding.message
        assert finding.message.count("->") >= len(cycle)
        assert finding.data["chains"]  # the chains holding the links

    def test_fig5b_clean(self):
        report = analyze(FIXTURES["fig5b"](), name="fig5b")
        assert report.by_code("BHV201") == []
        assert report.ok

    def test_functional_api_matches_pass(self):
        design = FIXTURES["fig5a"]()
        cycle = analyze_chains(design.chains, design.tile_coords)
        assert ((1, 0), Port.EAST) in cycle

    def test_derived_chains_catch_undeclared_routing(self):
        """A deadlocky placement is flagged even when the design
        *declares* nothing — the pass derives chains from the real
        next-hop state (here every hop is a tile-to-tile route, so the
        whole Fig 5a path is statically visible)."""
        from types import SimpleNamespace

        from repro.analysis.demo import CutThroughTile
        from repro.noc.mesh import Mesh
        from repro.sim.kernel import CycleSimulator

        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(4, 1)
        coords = {"eth": (0, 0), "ip": (2, 0), "udp": (1, 0),
                  "app": (3, 0)}
        order = ["eth", "ip", "udp", "app"]
        tiles = {}
        for name, nxt in zip(order, order[1:] + [None]):
            tiles[name] = CutThroughTile(
                name, mesh, coords[name],
                coords[nxt] if nxt else None)
        mesh.register(sim)
        sim.add_all(tiles.values())
        design = SimpleNamespace(sim=sim, mesh=mesh, tiles=tiles,
                                 chains=[], tile_coords=coords)
        report = analyze(design, name="fig5a-undeclared")
        assert report.by_code("BHV201"), \
            "derived chains alone must expose the Fig 5a cycle"


class TestWakeContractPass:
    def test_broken_wake_design_flagged(self):
        report = analyze(FIXTURES["broken_wake"](), name="broken_wake")
        findings = report.by_code("BHV301")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert findings[0].location == "echo"
        assert "wake_sources" in findings[0].hint

    def test_divergence_scheduled_stalls_naive_passes(self):
        """The lint finding corresponds to a real behavioural bug: the
        design works under the naive kernel and stalls forever under
        the scheduled one."""
        naive = FIXTURES["broken_wake"]("reference")
        naive.send()
        naive.sim.run(200)
        assert naive.tiles["echo"].echoed == 1

        sched = FIXTURES["broken_wake"]("fast")
        sched.send()
        sched.sim.run(200)
        echo = sched.tiles["echo"]
        assert echo.echoed == 0  # lost wakeup: message stranded
        assert len(echo.port.eject_fifo) > 0

    def test_fixed_design_passes_and_runs(self):
        """Restoring the wake hook clears the finding and the stall."""
        design = FIXTURES["broken_wake"]("fast")
        echo = design.tiles["echo"]
        echo.wake_sources = lambda: (echo.port.eject_fifo,)
        # Re-wire as the kernel would have at add() time: the kernel
        # filled _kernel_wake; attach it to the now-declared source.
        echo.port.eject_fifo.add_waker(echo._kernel_wake)
        report = analyze(design, name="fixed_wake")
        assert report.by_code("BHV301") == []
        design.send()
        design.sim.run(200)
        assert echo.echoed == 1


    def test_a_raising_wake_source_is_bhv304(self):
        """The static pass checks the components that declare
        ``wake_sources()``; what their step returns is only known by
        running it (BHV305 is the sanitizer's), so nothing asks a
        method BHV303 used to find missing."""
        assert "BHV303" not in CODES
        design = FIXTURES["broken_wake"]("fast")

        def raising():
            raise RuntimeError("no sources today")

        design.tiles["echo"].wake_sources = raising
        findings = analyze(design, name="raising").by_code("BHV304")
        assert len(findings) == 1
        assert "no sources today" in findings[0].message
        assert findings[0].location == "echo"

    @pytest.mark.parametrize("kernel", ["scheduled", "naive"])
    def test_a_sleeper_without_wake_sources_is_bhv301_when_scheduled(
            self, kernel):
        """Any component may return NEVER, so under a scheduled kernel
        one that consumes a FIFO no hook wires to it is flagged whether
        or not it declares ``wake_sources()``; the naive kernel steps it
        every cycle, so there it loses nothing."""
        from types import SimpleNamespace

        from repro.noc.flatmesh import FlatMesh
        from repro.sim.kernel import NEVER, CycleSimulator, Wakeable

        class PortDrainer(Wakeable):
            def __init__(self, port):
                self.port = port

            def step(self, cycle):
                while self.port.receive(cycle) is not None:
                    pass
                return NEVER

        sim = CycleSimulator(kernel=kernel)
        mesh = FlatMesh(2, 1)
        drainer = PortDrainer(mesh.attach((1, 0)))
        mesh.register(sim)
        sim.add(drainer)
        design = SimpleNamespace(sim=sim, mesh=mesh, tiles={})
        findings = analyze(design, name="drainer").by_code("BHV301")
        if kernel == "naive":
            assert findings == []
        else:
            assert len(findings) == 1
            assert findings[0].location == "PortDrainer"
            assert findings[0].data == {"fifo": drainer.port.eject_fifo.name}


class TestShippedDesignsLintClean:
    """Every shipped design lints with no finding of any severity,
    statically and under the sanitizer: the pin a change to what the
    lint model sees of a mesh (its inputs, its wake hooks) must keep."""

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_no_errors(self, name):
        spec, factory = load_design(name)
        assert lint_spec(spec) == []
        report = analyze(factory(), name=name)
        assert report.findings == [], report.render()

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_sanitizes_clean(self, name):
        _spec, factory = load_design(name)
        report = analyze_dynamic(factory, name=name)
        assert report.findings == [], report.render()


class TestLintCli:
    def test_clean_design_exits_zero(self, capsys):
        assert lint_main(["udp_echo"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_fig5a_exits_nonzero(self, capsys):
        assert lint_main(["fig5a"]) == 1
        out = capsys.readouterr().out
        assert "BHV201" in out
        assert "(1, 0):east" in out

    def test_broken_wake_exits_nonzero(self, capsys):
        assert lint_main(["broken_wake"]) == 1
        assert "BHV301" in capsys.readouterr().out

    def test_unknown_target_exits_two(self, capsys):
        assert lint_main(["no_such_design"]) == 2

    def test_json_output_is_machine_readable(self, capsys):
        assert lint_main(["fig5a", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        codes = {f["code"] for f in payload["findings"]}
        assert "BHV201" in codes

    def test_list_codes(self, capsys):
        assert lint_main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out

    def test_pass_selection(self, capsys):
        # Only the wake pass: fig5a's deadlock is not reported.
        assert lint_main(["fig5a", "--pass", "wake-contract"]) == 0
        assert "BHV201" not in capsys.readouterr().out

    def test_xml_target(self, tmp_path, capsys):
        from repro.config.examples import UDP_ECHO_XML
        path = tmp_path / "udp_echo.xml"
        path.write_text(UDP_ECHO_XML)
        assert lint_main([str(path)]) == 0

    def test_xml_spec_errors_exit_nonzero(self, tmp_path, capsys):
        xml = (
            '<design name="dup" width="2" height="1">'
            "<tile><name>a</name><type>ip_rx</type><x>0</x><y>0</y></tile>"
            "<tile><name>a</name><type>ip_tx</type><x>1</x><y>0</y></tile>"
            "</design>"
        )
        path = tmp_path / "dup.xml"
        path.write_text(xml)
        assert lint_main([str(path)]) == 1
        assert "BHV105" in capsys.readouterr().out

    def test_deadlocky_xml_reported_as_finding(self, tmp_path, capsys):
        """A spec whose placement deadlocks is rejected during build;
        the CLI folds that into a BHV201 finding instead of crashing."""
        from repro.config import design_from_xml, design_to_xml
        from repro.config.examples import UDP_ECHO_XML
        spec = design_from_xml(UDP_ECHO_XML)
        spec.tile("ip_rx").x, spec.tile("udp_rx").x = 2, 1
        path = tmp_path / "fig5a.xml"
        path.write_text(design_to_xml(spec))
        assert lint_main([str(path)]) == 1
        assert "BHV201" in capsys.readouterr().out
