"""Tests for the dynamic sanitizer passes (BHV4xx) and the data-flow
routing pass (BHV5xx), driven through their seeded-bug fixtures.

Two properties per seeded bug:

- *detection*: the fixture produces exactly its finding code;
- *isolation*: no other pass misfires on it — the static passes stay
  clean on dynamic bugs and vice versa.

Plus the clean-design property: every shipped design sanitizes with
zero findings, which is what the CI sanitizer-smoke job pins.
"""

import pytest

from repro.analysis import SANITIZE_PASSES, analyze, analyze_dynamic
from repro.analysis.demo import (
    build_blind_forwarder_design,
    build_broken_wake_design,
    build_early_read_design,
    build_escaped_domain_design,
    build_idle_liar_design,
    build_leaky_eject_design,
    build_phantom_dest_design,
    build_stale_domain_design,
    build_step_parity_design,
)
from repro.analysis.sanitize import (
    build_design,
    conservation_ledger,
    default_traffic,
)
from repro.designs import UdpEchoDesign
from repro.faults import FaultPlan
from repro.sim.kernel import NEVER


def codes_of(report):
    return sorted({f.code for f in report.findings})


class TestCleanDesigns:
    """Shipped designs carry no seeded bugs: the sanitizer must agree."""

    def test_udp_echo_sanitizes_clean(self):
        report = analyze_dynamic(UdpEchoDesign, name="udp_echo",
                                 cycles=600)
        assert report.findings == [], report.render()
        assert sorted(report.passes_run) == sorted(
            f"sanitize:{p}" for p in SANITIZE_PASSES)

    def test_udp_echo_clean_under_faults(self):
        plan = FaultPlan(seed=3).wire(drop=0.02, corrupt=0.02)
        report = analyze_dynamic(UdpEchoDesign, name="udp_echo",
                                 cycles=600, fault_plan=plan)
        assert report.findings == [], report.render()

    def test_tcp_server_sanitizes_clean(self):
        """Over real segments — handshake, a request the app echoes,
        three duplicate ACKs, the covering ACK — so every pass runs
        over a tile core whose TX engine goes to sleep and is woken by
        each of the RX engine's wires (``default_traffic`` finds no
        ``udp_port`` here and would send garbage ``eth_rx`` drops)."""
        from repro.designs import TcpServerDesign
        from tests.test_tcp import CLIENT_IP, CLIENT_MAC, scripted_session
        designs = []

        def traffic(design, cycles):
            designs.append(design)
            return [(0, lambda: design.add_client(CLIENT_IP, CLIENT_MAC)),
                    *scripted_session(design, gap=250)]

        report = analyze_dynamic(TcpServerDesign, name="tcp_server",
                                 cycles=2_200, traffic=traffic)
        assert report.findings == [], report.render()
        assert sorted(report.passes_run) == sorted(
            f"sanitize:{p}" for p in SANITIZE_PASSES)
        for design in designs:
            tx = design.flows.tx[0]
            assert design.tcp_tx.segments_out == 4
            assert (tx.fast_retransmits, tx.tx_written) == (1, 64)
            assert design.tcp_tx._due() == NEVER


class TestBrokenWake:
    """The canonical lost-wakeup design: static BHV301 plus dynamic
    BHV401/BHV402 — the sanitizer catching at runtime what the wake
    pass predicts at lint time."""

    def test_static_pass_predicts(self):
        report = analyze(build_broken_wake_design(), name="broken_wake")
        assert "BHV301" in codes_of(report)

    def test_sanitizer_confirms_dynamically(self):
        report = analyze_dynamic(build_broken_wake_design,
                                 name="broken_wake", cycles=400)
        codes = codes_of(report)
        assert "BHV401" in codes
        assert "BHV402" in codes


class TestIdleLiar:
    def test_bhv401_only(self):
        report = analyze_dynamic(build_idle_liar_design,
                                 name="idle_liar", cycles=400)
        assert codes_of(report) == ["BHV401"]
        finding = report.findings[0]
        assert "liar" in finding.location

    def test_static_passes_stay_silent(self):
        report = analyze(build_idle_liar_design(), name="idle_liar")
        assert report.findings == [], report.render()


class TestRestless:
    """BHV305 comes from what ``step`` returned during the run: a FIFO
    consumer that asked for every cycle, every time."""

    @pytest.fixture
    def restless(self, monkeypatch):
        from repro.analysis.demo import IdleLiarTile
        monkeypatch.setattr(IdleLiarTile, "_due", lambda self: None)

    def test_a_consumer_that_never_sleeps_is_bhv305(self, restless):
        report = analyze_dynamic(build_idle_liar_design,
                                 name="idle_liar", cycles=200)
        # Never asleep, so never shadow-stepped: no BHV401 either.
        assert codes_of(report) == ["BHV305"]
        finding, = report.findings
        assert (finding.location, finding.severity) == ("liar", "info")
        assert report.ok
        # Not from a missing method: the static passes see nothing.
        assert analyze(build_idle_liar_design(), name="idle_liar"
                       ).findings == []

    def test_belongs_to_the_idle_truth_pass(self, restless):
        report = analyze_dynamic(build_idle_liar_design,
                                 name="idle_liar", cycles=200,
                                 passes=["lost-wake", "conservation"])
        assert report.findings == [], report.render()


class TestLeakyEject:
    def test_bhv403_only(self):
        report = analyze_dynamic(build_leaky_eject_design,
                                 name="leaky_eject", cycles=400)
        assert codes_of(report) == ["BHV403"]
        data = report.findings[0].data
        assert data["injected"] > data["ejected"] + data["in_flight"]

    def test_static_passes_stay_silent(self):
        report = analyze(build_leaky_eject_design(), name="leaky_eject")
        assert report.findings == [], report.render()


class TestEarlyRead:
    def test_bhv405_only(self):
        report = analyze_dynamic(build_early_read_design,
                                 name="early_read", cycles=400)
        assert codes_of(report) == ["BHV405"]
        finding = report.findings[0]
        assert finding.location == "mesh(1, 0)"
        # The head flit reaches the reader's FIFO at cycle 22 and is
        # gone by the end of it; the honest fixtures above, one cycle
        # later, first touch theirs at 23.
        assert finding.data["cycle"] == 22

    def test_static_passes_stay_silent(self):
        report = analyze(build_early_read_design(), name="early_read")
        assert report.findings == [], report.render()

    def test_passing_the_cycle_is_the_whole_fix(self, monkeypatch):
        from repro.analysis.demo import EarlyReadTile

        def on_cycle(self, cycle):
            if self.port.receive(cycle) is not None:
                self.early += 1

        monkeypatch.setattr(EarlyReadTile, "on_cycle", on_cycle)
        report = analyze_dynamic(build_early_read_design,
                                 name="early_read", cycles=400)
        assert report.findings == [], report.render()

    def test_belongs_to_the_conservation_pass(self):
        report = analyze_dynamic(build_early_read_design,
                                 name="early_read", cycles=400,
                                 passes=["idle-truth", "lost-wake",
                                         "determinism"])
        assert report.findings == [], report.render()
        report = analyze_dynamic(build_early_read_design,
                                 name="early_read", cycles=400,
                                 passes=["conservation"])
        assert codes_of(report) == ["BHV405"]


class TestStepParity:
    def test_bhv404_under_kernel_divergence(self):
        # No flag, no second configuration to name: determinism always
        # has the naive kernel on its reference side.
        report = analyze_dynamic(build_step_parity_design,
                                 name="step_parity", cycles=400)
        assert codes_of(report) == ["BHV404"]
        finding = report.findings[0]
        assert finding.data["first_divergent_cycle"] >= 0
        assert "fast vs reference" in finding.message

    def test_static_passes_stay_silent(self):
        report = analyze(build_step_parity_design(), name="step_parity")
        assert report.findings == [], report.render()


class TestDataflowFixtures:
    """Each BHV5xx fixture produces exactly its code, statically, and
    stays clean under the dynamic passes."""

    CASES = [
        (build_phantom_dest_design, "BHV501"),
        (build_stale_domain_design, "BHV502"),
        (build_escaped_domain_design, "BHV503"),
        (build_blind_forwarder_design, "BHV504"),
    ]

    @pytest.mark.parametrize("builder,code", CASES,
                             ids=[code for _, code in CASES])
    def test_exactly_its_code(self, builder, code):
        report = analyze(builder(), name=code)
        assert codes_of(report) == [code], report.render()

    @pytest.mark.parametrize("builder,code", CASES,
                             ids=[code for _, code in CASES])
    def test_dynamically_clean(self, builder, code):
        report = analyze_dynamic(builder, name=code, cycles=400)
        assert report.findings == [], report.render()


class TestPassSelection:
    def test_single_pass_runs_alone(self):
        report = analyze_dynamic(build_idle_liar_design,
                                 name="idle_liar", cycles=400,
                                 passes=["idle-truth"])
        assert report.passes_run == ["sanitize:idle-truth"]
        assert codes_of(report) == ["BHV401"]

    def test_unselected_pass_cannot_fire(self):
        report = analyze_dynamic(build_leaky_eject_design,
                                 name="leaky_eject", cycles=400,
                                 passes=["idle-truth", "lost-wake",
                                         "determinism"])
        assert report.findings == [], report.render()

    def test_unknown_pass_raises(self):
        with pytest.raises(KeyError, match="unknown sanitize pass"):
            analyze_dynamic(build_idle_liar_design, passes=["bogus"])

    def test_bad_cycles_raises(self):
        with pytest.raises(ValueError, match="cycles"):
            analyze_dynamic(build_idle_liar_design, cycles=0)


class TestConservationLedger:
    def test_balances_on_a_clean_run(self):
        design = UdpEchoDesign()
        by_cycle = {}
        for at, fn in default_traffic(design, 400):
            by_cycle.setdefault(at, []).append(fn)
        for cycle in range(400):
            for fn in by_cycle.get(cycle, []):
                fn()
            design.sim.tick()
        ledger = conservation_ledger(design.mesh)
        assert ledger["injected"] == (ledger["ejected"]
                                      + ledger["in_flight"])
        assert ledger["injected"] > 0

    def test_detects_off_books_loss(self):
        design = build_design(build_leaky_eject_design)
        design.send()
        for _ in range(50):
            design.sim.tick()
        ledger = conservation_ledger(design.mesh)
        assert ledger["injected"] > (ledger["ejected"]
                                     + ledger["in_flight"])


class TestBuildDesign:
    def test_passes_profile_to_shipped_designs(self):
        design = build_design(UdpEchoDesign, "reference")
        assert design.profile == "reference"
        assert design.sim.kernel == "naive"
        plan = FaultPlan(seed=3).wire(drop=0.5)
        assert build_design(UdpEchoDesign, "fast", plan).fault_plan is plan

    def test_fixtures_map_the_profile_to_their_kernel(self):
        # ... and to the profile's mesh, but for the early reader (a
        # flat-mesh bug) and the leaky tile (object mesh, naive kernel).
        from repro.noc import FlatMesh, Mesh
        for builder, meshes in [
                (build_idle_liar_design, (FlatMesh, Mesh)),
                (build_early_read_design, (FlatMesh, FlatMesh))]:
            for profile, kernel, mesh_cls in zip(
                    ("fast", "reference"), ("scheduled", "naive"), meshes):
                design = build_design(builder, profile)
                assert design.sim.kernel == kernel
                assert type(design.mesh) is mesh_cls
        design = build_design(build_leaky_eject_design, "fast")
        assert design.sim.kernel == "naive"
        assert type(design.mesh) is Mesh

    def test_every_lintable_factory_takes_a_profile(self):
        from repro.designs import SHIPPED, load_design
        from repro.tools.lint import _demo_designs
        for name, factory in {
                **{name: load_design(name)[1] for name in SHIPPED},
                **_demo_designs()}.items():
            for profile in ("fast", "reference"):
                assert build_design(factory, profile).sim, name

    def test_unrelated_type_errors_still_raise(self):
        def bad_factory(**kwargs):
            raise TypeError("completely unrelated failure")
        with pytest.raises(TypeError, match="unrelated"):
            build_design(bad_factory)


class TestDefaultTraffic:
    def test_schedules_injections_for_frame_designs(self):
        design = UdpEchoDesign()
        actions = default_traffic(design, 1000)
        assert actions, "expected scheduled traffic"
        assert all(0 <= at < 1000 for at, _fn in actions)

    def test_xml_design_gets_frames_its_chain_processes(self):
        """A generated design names its own address and port, so the
        sanitizer's traffic is echoed instead of dropped at ingress."""
        from repro.config import design_from_xml
        from repro.config.examples import UDP_ECHO_XML
        from repro.config.generate import GeneratedDesign
        spec = design_from_xml(UDP_ECHO_XML)
        designs = []

        def traffic(design, cycles):
            designs.append(design)
            return default_traffic(design, cycles)

        report = analyze_dynamic(
            lambda **kw: GeneratedDesign(spec, **kw), name="udp_echo.xml",
            cycles=600, traffic=traffic)
        assert report.findings == [], report.render()
        assert designs
        assert all(d.eth_tx.messages_in > 0 for d in designs)

    def test_uses_send_hook_for_fixture_designs(self):
        design = build_idle_liar_design()
        # No inject, no send: an idle fixture gets an empty schedule.
        actions = default_traffic(design, 1000)
        assert actions == []
        leaky = build_leaky_eject_design()
        assert default_traffic(leaky, 1000), "send() hook not used"


class TestFlatMeshLedger:
    def test_broken_active_list_is_a_bhv403_finding(self):
        from repro.analysis.sanitize import _conservation_findings
        design = build_design(UdpEchoDesign)
        for _, fn in default_traffic(design, 200):
            fn()
        design.sim.run_until(lambda: design.mesh.core._active,
                             max_cycles=200)
        assert _conservation_findings(design) == []
        # Lose the active list: every wormhole in flight now stalls.
        design.mesh.core._active.clear()
        findings = _conservation_findings(design)
        assert [f.code for f in findings] == ["BHV403"]
        assert "active outputs" in findings[0].message

    def test_handle_without_its_message_is_a_bhv403_finding(self):
        from repro.analysis.sanitize import _conservation_findings
        design = build_design(UdpEchoDesign)
        for _, fn in default_traffic(design, 200):
            fn()
        core = design.mesh.core
        design.sim.run_until(lambda: core._inflight, max_cycles=200)
        assert _conservation_findings(design) == []
        # The handles of this message now reach a port that has no
        # message to hand its tile on the tail.
        del core._inflight[next(iter(core._inflight))]
        findings = _conservation_findings(design)
        assert [f.code for f in findings] == ["BHV403"]
        assert "names no in-flight message" in findings[0].message

    def test_ring_stamp_from_the_future_is_a_bhv403_finding(self):
        from repro.analysis.sanitize import _conservation_findings
        design = build_design(UdpEchoDesign)
        design.sim.run(10)
        core = design.mesh.core
        # A pop stamped with the cycle about to run would hand the
        # upstream router a credit one cycle late.
        core._popc[6] = design.sim.cycle
        findings = _conservation_findings(design)
        assert [f.code for f in findings] == ["BHV403"]
        assert "_popc" in findings[0].message


class TestFlatTileLedger:
    def test_clear_busy_bit_over_a_non_empty_fifo_is_a_bhv402_finding(self):
        from repro.analysis.sanitize import _tile_core_findings
        design = build_design(UdpEchoDesign)
        for _, fn in default_traffic(design, 200):
            fn()
        fifo = design.app.port.eject_fifo
        design.sim.run_until(lambda: len(fifo), max_cycles=400)
        assert _tile_core_findings(design) == []
        # The flat mesh will not wake the app tile for the flits behind
        # this one: a clear bit here is a tile that never drains.
        core = design.tile_core
        core._busy &= ~(1 << core.tiles.index(design.app))
        findings = _tile_core_findings(design)
        assert [f.code for f in findings] == ["BHV402"]
        assert "'app' is not busy" in findings[0].message

    def test_reference_has_no_tile_core_to_audit(self):
        from repro.analysis.sanitize import _tile_core_findings
        reference = build_design(UdpEchoDesign, "reference")
        assert reference.tile_core is None
        assert _tile_core_findings(reference) == []
