"""Tests for router-internal fault modes (misroute, stuck grant).

These faults live *inside* the mesh routers, below the link-level
stall/corrupt faults the suite already covers: a misroute window
deflects every routing decision one legal hop sideways, a stuck-grant
window wedges one output arbiter.  Both are seed-deterministic windows
from the :class:`repro.faults.FaultPlan` builder and must behave
bit-identically on the object-graph and the flat mesh — the whole
point of modelling them at the routing-function level.
"""

import json

import pytest

from repro.designs import FrameSink, UdpEchoDesign
from repro.faults import FaultPlan
from repro.noc.router import misroute_index
from repro.noc.routing import Port
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
)
from tests.test_flatmesh import forwarding_in_lockstep

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def echo_design(plan, **kwargs):
    design = UdpEchoDesign(udp_port=7, fault_plan=plan, **kwargs)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    return design, sink


def inject_echoes(design, count=20, gap=40, start=1):
    for i in range(count):
        frame = build_ipv4_udp_frame(
            CLIENT_MAC, design.server_mac, CLIENT_IP, design.server_ip,
            5555, 7, b"payload-%02d" % i)
        design.inject(frame, start + i * gap)


def run_echo(plan, count=20, **kwargs):
    design, sink = echo_design(plan, **kwargs)
    inject_echoes(design, count=count)
    design.sim.run_until(lambda: sink.count >= count,
                         max_cycles=60_000)
    return design, sink


class TestPlanValidation:
    def test_router_events_make_a_plan_non_null(self):
        assert not FaultPlan().misroute((1, 0), at=10,
                                        duration=50).is_null
        assert not FaultPlan().stuck_grant((1, 0), "east", at=10,
                                           duration=50).is_null

    def test_unknown_port_rejected(self):
        with pytest.raises(ValueError, match="router port"):
            FaultPlan().stuck_grant((1, 0), "upward", at=1, duration=1)

    def test_port_enum_accepted(self):
        plan = FaultPlan().stuck_grant((1, 0), Port.EAST, at=1,
                                       duration=1)
        assert plan.windows == \
            FaultPlan().stuck_grant((1, 0), "east", at=1,
                                    duration=1).windows

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultPlan().misroute((1, 0), at=10, duration=0)

    def test_overlapping_misroute_windows_rejected(self):
        with pytest.raises(ValueError, match=(
                r"misroute router \(1, 0\) cycles \(300, 700\] meets "
                r"misroute router \(1, 0\) cycles \(100, 500\]")):
            (FaultPlan().misroute((1, 0), at=100, duration=400)
             .misroute((1, 0), at=300, duration=400))

    def test_overlapping_stuck_grants_on_one_output_rejected(self):
        with pytest.raises(ValueError, match=(
                r"stuck_grant router \(1, 0\)\.east cycles \(150, 200\] "
                r"meets stuck_grant router \(1, 0\)\.east")):
            (FaultPlan().stuck_grant((1, 0), "east", at=100, duration=50)
             .stuck_grant((1, 0), Port.EAST, at=150, duration=50))

    def test_windows_on_other_routers_or_outputs_accepted(self):
        plan = (FaultPlan().misroute((1, 0), at=100, duration=400)
                .misroute((2, 0), at=100, duration=400)
                .stuck_grant((1, 0), "east", at=100, duration=400)
                .stuck_grant((1, 0), "west", at=100, duration=400))
        assert len(plan.windows) == 4

    def test_unknown_router_rejected_at_attach(self):
        with pytest.raises(KeyError):
            echo_design(FaultPlan().misroute((9, 9), at=1, duration=1))


class TestMisrouteIndex:
    def test_ejection_never_deflected(self):
        assert misroute_index(0, 0b11110) == 0

    def test_deflects_x_phase_sideways_only(self):
        # All four directions connected: east (1) deflects south (4),
        # never 180 degrees back west (a head-on wormhole deadlock).
        assert misroute_index(1, 0b11110) == 4
        assert misroute_index(2, 0b11110) == 3  # west -> north
        # Preferred Y port missing: east falls back to north.
        assert misroute_index(1, 0b01110) == 3

    def test_y_phase_never_deflected(self):
        # Deflecting the Y phase would bounce straight back through
        # the faulted router (see _DEFLECTIONS in repro.noc.router).
        assert misroute_index(3, 0b11110) == 3
        assert misroute_index(4, 0b11110) == 4

    def test_no_perpendicular_keeps_the_route(self):
        # Only east+west connected: an east route stays east.
        assert misroute_index(1, 0b00110) == 1


class TestMisrouteWindow:
    def test_traffic_detours_but_delivers(self):
        clean_design, clean_sink = run_echo(None)
        plan = FaultPlan().misroute((1, 0), at=100, duration=400)
        design, sink = run_echo(plan)
        assert sink.count == clean_sink.count == 20
        # The window really deflected traffic: emit timing shifted...
        clean_cycles = [c for _, c in clean_sink.frames]
        assert [c for _, c in sink.frames] != clean_cycles
        # ...and both edges of the window were recorded.
        counters = design.fault_engine.counters
        assert counters["noc.misroute_on"] == 1
        assert counters["noc.misroute_off"] == 1

    def test_routing_is_clean_after_the_window(self):
        plan = FaultPlan().misroute((1, 0), at=100, duration=200)
        design, sink = run_echo(plan)
        clean_design, clean_sink = run_echo(None)
        # Frames injected long after the window are delivered with the
        # same per-frame latency as a fault-free run.
        faulted = sorted(c for _, c in sink.frames)[-5:]
        clean = sorted(c for _, c in clean_sink.frames)[-5:]
        assert faulted == clean


class TestMemoisedRoutesFollowTheWindow:
    """The flat mesh keeps one route per (router, destination) a head
    asked for; both edges of a misroute window must forget them."""

    def frames(self, profile):
        # Echoes 40 cycles apart from cycle 1: before, inside and after
        # the window, all to the same few destinations through (1, 0).
        plan = FaultPlan().misroute((1, 0), at=100, duration=200)
        design, sink = echo_design(plan, profile=profile)
        inject_echoes(design, count=12)
        core = getattr(design.mesh, "core", None)
        while sink.count < 12:
            assert design.sim.cycle < 5_000
            design.sim.run(1)
            if core is not None:
                assert core.check_invariants(design.sim.cycle) == []
        assert design.fault_engine.counters["noc.misroute_off"] == 1
        return sink.frames

    def test_fast_matches_reference_with_invariants_clean(self):
        assert self.frames("fast") == self.frames("reference")

    @pytest.mark.parametrize("stale", ["deflected", "clean"])
    def test_a_route_that_outlives_its_table_is_a_violation(self, stale):
        design, _sink = echo_design(None)
        core = design.mesh.core
        r = core.coords.index((1, 0))
        core.set_misroute(r, stale == "deflected")
        inject_echoes(design, count=1)
        design.sim.run(400)
        assert core._route_rows[r]
        assert core.check_invariants(design.sim.cycle) == []
        # A toggle that forgot to forget: heads would follow the old
        # table for the rest of the run.
        core._misrouted ^= {r}
        problems = core.check_invariants(design.sim.cycle)
        assert problems and all("router (1, 0) memoises output"
                                in problem for problem in problems)
        core._route_rows[r] = None
        assert core.check_invariants(design.sim.cycle) == []


class TestStuckGrantWindow:
    def test_output_wedges_then_recovers(self):
        clean_design, clean_sink = run_echo(None)
        plan = FaultPlan().stuck_grant((1, 0), "east", at=100,
                                       duration=1500)
        design, sink = run_echo(plan)
        assert sink.count == 20  # everything still delivered
        counters = design.fault_engine.counters
        assert counters["noc.stuck_grant"] == 1
        assert counters["noc.grant_release"] == 1
        # The wedged window held the wormhole: the backlog drains
        # late, so some frame egresses later than any clean-run frame.
        assert max(c for _, c in sink.frames) > \
            max(c for _, c in clean_sink.frames)

    def test_unrelated_output_is_unaffected(self):
        """Wedging an output the echo path never crosses changes
        nothing downstream."""
        clean_design, clean_sink = run_echo(None)
        plan = FaultPlan().stuck_grant((1, 0), "west", at=100,
                                       duration=1500)
        design, sink = run_echo(plan)
        assert [c for _, c in sink.frames] == \
            [c for _, c in clean_sink.frames]


class TestForwardingCountsInWindows:
    """A grant credits its whole message to the output at once; stuck
    and deflected wormholes are where that credit could be misread.
    The stuck window opens mid-message on the first request's path, so
    the inputs downstream of it run dry under their locks and every
    reader has to find the message's next flit upstream."""

    @pytest.mark.parametrize("plan", [
        lambda: FaultPlan().stuck_grant((0, 0), "east", at=20,
                                        duration=100),
        lambda: FaultPlan().misroute((1, 0), at=100, duration=300),
    ], ids=["stuck_grant", "misroute"])
    def test_counts_match_the_object_mesh_every_cycle(self, plan):
        def build(profile):
            return UdpEchoDesign(udp_port=7, fault_plan=plan(),
                                 profile=profile)

        assert forwarding_in_lockstep(build, 1458, 10, 900)


class TestBackendBitIdentity:
    """The acceptance property: router faults are modelled at the
    routing-function level, so the object-graph mesh and the flat
    array mesh replay them bit-identically."""

    PLANS = {
        "misroute": lambda: FaultPlan().misroute((1, 0), at=100,
                                                 duration=400),
        "stuck_grant": lambda: FaultPlan().stuck_grant(
            (1, 0), "east", at=100, duration=1500),
        "combined": lambda: (FaultPlan()
                             .misroute((2, 0), at=50, duration=300)
                             .stuck_grant((1, 0), "east", at=500,
                                          duration=800)),
    }

    def signature(self, plan, profile):
        design, sink = run_echo(plan, profile=profile)
        return {
            "frames": [(frame.hex(), cycle)
                       for frame, cycle in sink.frames],
            "counters": dict(design.fault_engine.counters),
        }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_object_and_flat_mesh_agree(self, name):
        make_plan = self.PLANS[name]
        flat = self.signature(make_plan(), "fast")
        obj = self.signature(make_plan(), "reference")
        assert json.dumps(flat, sort_keys=True) == \
            json.dumps(obj, sort_keys=True)

    def test_window_replay_is_deterministic(self):
        make_plan = self.PLANS["combined"]
        first = self.signature(make_plan(), "fast")
        second = self.signature(make_plan(), "fast")
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
