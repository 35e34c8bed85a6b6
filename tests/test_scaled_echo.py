"""Tests for the section VII-I scaled design (28 tiles, 22 apps)."""

import itertools

import pytest

from repro import params
from repro.analysis import analyze_chains
from repro.designs import FrameSink, FrameSource, ScaledEchoDesign
from repro.noc.message import reset_id_counters
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro.resources import max_frequency_mhz
from repro.sim.kernel import no_commit
from repro.telemetry import design_counters, design_report

CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def saturating_run(design, n_flows=60, cycles=15_000):
    ips = [IPv4Address(f"10.0.2.{i}") for i in range(1, n_flows + 1)]
    for ip in ips:
        design.add_client(ip, CLIENT_MAC)
    frames = [
        build_ipv4_udp_frame(CLIENT_MAC, design.server_mac, ip,
                             design.server_ip, 5000 + j, 7, bytes(64))
        for j, ip in enumerate(ips)
    ]
    cycler = itertools.cycle(frames)

    class Source:
        def __init__(self):
            self._free = 0

        def step(self, cycle):
            if cycle >= self._free:
                design.inject(next(cycler), cycle)
                self._free = cycle + 2

        commit = no_commit

    sink = FrameSink(design.eth_tx, keep_frames=False)
    design.sim.add(Source())
    design.sim.add(sink)
    design.sim.run(cycles)
    return sink


class TestScaledEcho:
    def test_paper_configuration_builds(self):
        """22 app tiles + 6 stack tiles = the paper's 28-tile design."""
        design = ScaledEchoDesign(n_apps=22)
        assert design.total_tiles == params.MAX_PLACEABLE_TILES
        assert max_frequency_mhz(design.total_tiles) >= 250.0

    def test_all_chains_deadlock_free(self):
        design = ScaledEchoDesign(n_apps=22)
        assert len(design.chains) == 22
        assert analyze_chains(design.chains,
                              design.tile_coords) is None

    def test_apps_share_the_load(self):
        design = ScaledEchoDesign(n_apps=22)
        sink = saturating_run(design, n_flows=120)
        assert sink.count > 500
        served = [app.requests for app in design.apps]
        # Flow hashing spreads 120 flows across nearly every replica.
        assert sum(1 for count in served if count > 0) >= 20

    def test_flows_are_sticky(self):
        """A flow always lands on the same app tile (flow hashing)."""
        design = ScaledEchoDesign(n_apps=8)
        ip = IPv4Address("10.0.2.1")
        design.add_client(ip, CLIENT_MAC)
        frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                     ip, design.server_ip, 5555, 7,
                                     bytes(64))
        sink = FrameSink(design.eth_tx, keep_frames=False)
        design.sim.add(sink)
        for _ in range(12):
            design.inject(frame, design.sim.cycle)
        design.sim.run_until(lambda: sink.count >= 12,
                             max_cycles=10_000)
        served = sorted(app.requests for app in design.apps)
        assert served == [0] * 7 + [12]

    def test_replies_are_correct(self):
        design = ScaledEchoDesign(n_apps=5)
        ip = IPv4Address("10.0.2.9")
        design.add_client(ip, CLIENT_MAC)
        frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                     ip, design.server_ip, 4141, 7,
                                     b"scaled out")
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame, 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=5000)
        reply = parse_frame(sink.frames[0][0])
        assert reply.payload == b"scaled out"
        assert reply.udp.dst_port == 4141

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ScaledEchoDesign(n_apps=23)
        with pytest.raises(ValueError):
            ScaledEchoDesign(n_apps=0)

    def test_a_mesh_with_no_free_site_is_rejected_as_such(self):
        """3x2 holds exactly the six stack tiles: the size check says
        so, instead of the app-count check reporting "1-0 app tiles"."""
        with pytest.raises(ValueError, match="7 sites"):
            ScaledEchoDesign(n_apps=1, width=3, height=2)
        # The smallest meshes that do have a free site build.
        tall = ScaledEchoDesign(n_apps=1, width=3, height=3)
        assert tall.apps[0].coord == (0, 2)
        wide = ScaledEchoDesign(n_apps=2, width=4, height=2)
        assert [app.coord for app in wide.apps] == [(3, 0), (3, 1)]


class TestAppCoords:
    @pytest.mark.parametrize("n_apps, coords, message", [
        (2, [(3, 0), (3, 0)], "duplicates"),
        (1, [(1, 1)], "collides with a stack tile"),
        (1, [(7, 0)], "off-mesh"),
        (1, [(3, -1)], "off-mesh"),
        (2, [(3, 0)], "2 apps need 2 app_coords, got 1"),
        (1, [(1, 2, 3)], "not an \\(x, y\\) pair"),
    ])
    def test_bad_placements_are_rejected(self, n_apps, coords, message):
        with pytest.raises(ValueError, match=message):
            ScaledEchoDesign(n_apps=n_apps, app_coords=coords)

    def test_placement_is_honoured(self):
        coords = [(6, 3), (3, 0), (0, 2), (5, 1)]
        design = ScaledEchoDesign(n_apps=3, app_coords=coords)
        # In order, one replica per coordinate; the surplus is ignored.
        assert [app.coord for app in design.apps] == coords[:3]
        assert design.total_tiles == 9
        assert set(design.mesh.ports) == {
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), *coords[:3]}

    def test_far_east_placement_echoes_identically_on_every_backend(self):
        """perflab's ``echo_sat_mtu_32x32`` placement, scaled down:
        replicas in the two far-east columns, so every request crosses
        the whole mesh and back."""
        coords = [(x, y) for x in (6, 7) for y in range(4)]
        n_frames = 24

        def run(profile="fast"):
            reset_id_counters()
            design = ScaledEchoDesign(n_apps=len(coords), width=8,
                                      height=4, app_coords=coords,
                                      profile=profile)
            ip = IPv4Address("10.0.2.1")
            design.add_client(ip, CLIENT_MAC)
            requests = [
                build_ipv4_udp_frame(CLIENT_MAC, design.server_mac, ip,
                                     design.server_ip, 5000 + i, 7,
                                     bytes([i]) * 700)
                for i in range(n_frames)]
            source = FrameSource(design.inject, requests.__getitem__,
                                 rate=None, count=n_frames)
            sink = FrameSink(design.eth_tx)
            design.sim.add(source)
            design.sim.add(sink)
            design.sim.run_until(lambda: sink.count >= n_frames,
                                 max_cycles=20_000)
            return design, requests, sink

        design, requests, sink = run()
        replies = {}
        for frame, _cycle in sink.frames:
            reply = parse_frame(frame)
            replies[reply.udp.dst_port] = reply.payload
        assert replies == {5000 + i: bytes([i]) * 700
                           for i in range(n_frames)}
        assert sum(app.requests for app in design.apps) == n_frames
        assert sum(1 for app in design.apps if app.requests) > 1

        counters = design_counters(design)
        assert counters.pop("profile") == "fast"
        assert "profile: fast" in design_report(design)

        reference, _, reference_sink = run("reference")
        assert reference_sink.frames == sink.frames
        reference_counters = design_counters(reference)
        assert reference_counters.pop("profile") == "reference"
        assert reference_counters == counters
