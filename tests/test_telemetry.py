"""Tests for trace capture and cycle-accurate replay (section V-F)."""

from repro.designs import FrameSink, UdpEchoDesign
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.telemetry import FrameTraceRecorder, TraceReplayer
from repro.telemetry.replay import TraceEvent

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def make_design():
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    return design


def frame(design, payload):
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                CLIENT_IP, design.server_ip, 5555, 7,
                                payload)


class TestRecorder:
    def test_records_and_passes_through(self):
        design = make_design()
        recorder = FrameTraceRecorder(design)
        recorder.attach()
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame(design, b"one"), 3)
        design.inject(frame(design, b"two"), 9)
        design.sim.run_until(lambda: sink.count >= 2, max_cycles=2000)
        assert [e.cycle for e in recorder.events] == [3, 9]

    def test_detach_restores(self):
        design = make_design()
        recorder = FrameTraceRecorder(design)
        recorder.attach()
        recorder.detach()
        design.inject(frame(design, b"x"), 0)
        assert recorder.events == []


class TestReplay:
    def run_and_capture(self, design, until_count):
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.sim.run_until(lambda: sink.count >= until_count,
                             max_cycles=20000)
        return [(frame_bytes, cycle) for frame_bytes, cycle
                in sink.frames]

    def test_replay_reproduces_output_exactly(self):
        """A replayed trace produces byte- and cycle-identical output —
        the determinism the paper's debugging methodology relies on."""
        original = make_design()
        recorder = FrameTraceRecorder(original)
        recorder.attach()
        for index, offset in enumerate((0, 7, 40, 41, 100)):
            original.inject(frame(original, bytes([index]) * 32),
                            offset)
        original_out = self.run_and_capture(original, 5)

        replay_design = make_design()
        replayer = TraceReplayer(replay_design, recorder.events)
        replay_design.sim.add(replayer)
        replay_out = self.run_and_capture(replay_design, 5)
        assert replay_out == original_out

    def test_replay_offset_shifts_timing(self):
        design = make_design()
        events = [TraceEvent(cycle=10, frame=frame(design, b"a" * 16))]
        replayer = TraceReplayer(design, events, start_cycle=50)
        design.sim.add(replayer)
        out = self.run_and_capture(design, 1)
        original = make_design()
        original.inject(frame(original, b"a" * 16), 50)
        expected = self.run_and_capture(original, 1)
        assert out[0][1] == expected[0][1]

    def test_done_flag(self):
        design = make_design()
        replayer = TraceReplayer(design, [])
        assert replayer.done

    def test_replayer_sleeps_between_events(self):
        """The replayer's quiescence contract: stepped the cycle before
        each event is due (it injects one cycle ahead) and never again
        once done, so a replayed design skips its idle cycles — with
        the frames out on the cycles the recorded run emitted them."""
        original = make_design()
        recorder = FrameTraceRecorder(original)
        recorder.attach()
        offsets = (0, 3_000, 3_001, 9_000)
        for index, offset in enumerate(offsets):
            original.inject(frame(original, bytes([index]) * 32), offset)
        original_out = self.run_and_capture(original, 4)

        design = make_design()
        replayer = TraceReplayer(design, recorder.events)
        design.sim.add(replayer)
        stepped = []
        step = replayer.step
        replayer.step = lambda cycle: (stepped.append(cycle),
                                       step(cycle))[1]
        assert self.run_and_capture(design, 4) == original_out
        assert stepped == [0, 2_999, 3_000, 8_999]
        assert replayer.done and replayer.replayed == 4
        assert design.sim.wake_cycle(replayer) is None
        assert design.sim.idle_cycles_skipped > 8_000


class TestDesignStats:
    def test_counters_and_report(self):
        from repro.telemetry import design_counters, design_report

        design = make_design()
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame(design, b"count me"), 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)

        counters = design_counters(design)
        by_name = {tile.name: tile for tile in counters["tiles"]}
        assert by_name["udp_rx"].messages_in == 1
        assert by_name["app"].messages_out == 1
        assert counters["total_flits"] > 0

        report = design_report(design)
        assert "udp_rx" in report
        assert "NoC flits forwarded" in report
        assert f"cycle {design.sim.cycle}" in report

    def test_drops_visible_in_report(self):
        from repro.telemetry import design_counters

        design = make_design()
        bad = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                   CLIENT_IP, design.server_ip, 5555,
                                   9999, b"no such port")
        design.inject(bad, 0)
        design.sim.run(600)
        counters = design_counters(design)
        by_name = {tile.name: tile for tile in counters["tiles"]}
        assert by_name["udp_rx"].drops == 1


class TestDesignCountersEdgeCases:
    """The scrape surface must survive whatever a design gives it."""

    class _StubMesh:
        def __init__(self):
            self.routers = {}
            self.total_flits_forwarded = 0

    class _StubSim:
        cycle = 123

    def _design(self, tiles):
        stub = type("StubDesign", (), {})()
        stub.tiles = tiles
        stub.mesh = self._StubMesh()
        stub.sim = self._StubSim()
        return stub

    def _tile(self, name, **attrs):
        tile = type("StubTile", (), {})()
        tile.name = name
        tile.coord = attrs.pop("coord", (0, 0))
        for key, value in attrs.items():
            setattr(tile, key, value)
        return tile

    def test_tiles_as_dict_and_list_agree(self):
        from repro.telemetry import design_counters

        tile = self._tile("only", messages_in=7)
        as_list = design_counters(self._design([tile]))
        as_dict = design_counters(self._design({"only": tile}))
        assert as_list["tiles"] == as_dict["tiles"]
        assert as_list["tiles"][0].messages_in == 7

    def test_missing_attributes_report_zero(self):
        """A bare stub tile (no counters, no port) must scrape as
        zeros, never raise — monitoring cannot take the design down."""
        from repro.telemetry import design_counters

        counters = design_counters(self._design([self._tile("bare")]))
        tile = counters["tiles"][0]
        assert tile.messages_in == 0
        assert tile.drops == 0
        assert tile.drop_reasons == {}
        assert tile.eject_high_water == 0
        assert tile.tx_backlog_high_water == 0

    def test_drop_reasons_copied_not_aliased(self):
        from repro.telemetry import design_counters

        reasons = {"bad_csum": 2}
        tile = self._tile("t", drops=2, drop_reasons=reasons)
        counters = design_counters(self._design([tile]))
        counters["tiles"][0].drop_reasons["bad_csum"] = 99
        assert reasons["bad_csum"] == 2  # caller's dict untouched

    def test_none_drop_reasons_tolerated(self):
        from repro.telemetry import design_counters

        tile = self._tile("t", drop_reasons=None)
        counters = design_counters(self._design([tile]))
        assert counters["tiles"][0].drop_reasons == {}

    def test_flit_attribution_identical_across_backends(self):
        """Per-router flit counts (and their report rendering) must
        not depend on which profile ran the design."""
        from repro.designs import UdpEchoDesign
        from repro.telemetry import design_counters

        def flits(profile):
            design = UdpEchoDesign(udp_port=7,
                                   line_rate_bytes_per_cycle=None,
                                   profile=profile)
            design.add_client(CLIENT_IP, CLIENT_MAC)
            design.inject(frame(design, b"route me"), 0)
            design.sim.run(600)
            counters = design_counters(design)
            return counters["router_flits"], counters["total_flits"]

        assert flits("fast") == flits("reference")

    def test_report_includes_p999_column(self):
        from repro.telemetry import (
            MetricsWindow,
            Tracer,
            attach_tracer,
            design_report,
        )

        design = make_design()
        tracer = attach_tracer(design, Tracer())
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(frame(design, b"measure me"), 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)
        report = design_report(design, MetricsWindow(tracer, 500))
        assert "p999" in report
        assert "ej hwm" in report and "tx hwm" in report
