"""Tests for the cycle-level tracing subsystem.

Covers: the null tracer being the free default, per-packet span
reconstruction (including agreement with the section VII-C latency
microbenchmark's direct measurement), windowed metrics, drop-reason
surfacing, and the Perfetto/Chrome trace-event export.
"""

import json

from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.noc.mesh import Mesh
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.sim.kernel import CycleSimulator
from repro.telemetry import design_counters, design_report
from repro.telemetry.trace import (
    NULL_TRACER,
    MetricsWindow,
    attach_tracer,
    chrome_trace_events,
    percentile,
    write_chrome_trace,
)
from repro.tiles.base import Tile

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def make_design():
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    return design


def echo_frame(design, payload, port=7):
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                CLIENT_IP, design.server_ip, 5555, port,
                                payload)


class TestNullTracer:
    def test_null_tracer_is_the_default_everywhere(self):
        design = make_design()
        assert design.sim.tracer is NULL_TRACER
        assert design.mesh.core.tracer is NULL_TRACER
        for port in design.mesh.ports.values():
            assert port.tracer is NULL_TRACER
        for tile in design.tiles.values():
            assert tile.tracer is NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_null_tracer_stores_no_state(self):
        assert NULL_TRACER.__slots__ == ()
        assert not hasattr(NULL_TRACER, "__dict__")

    def test_tracing_does_not_perturb_timing(self):
        """A traced run is cycle-identical to an untraced one."""
        outputs = []
        for traced in (False, True):
            design = make_design()
            if traced:
                attach_tracer(design)
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            for index, offset in enumerate((0, 7, 40, 120)):
                design.inject(echo_frame(design, bytes([index]) * 16),
                              offset)
            design.sim.run_until(lambda: sink.count >= 4,
                                 max_cycles=5000)
            outputs.append(sink.frames)
        assert outputs[0] == outputs[1]


class _EchoBackTile(Tile):
    """Bounces every message straight back to its sender."""

    def handle_message(self, message, cycle):
        return [self.make_message(message.src, data=message.data)]


class _SinkTile(Tile):
    """Consumes every message (terminal)."""

    def handle_message(self, message, cycle):
        return []


class _SourceTile(_SinkTile):
    """Sends one message per entry in ``schedule`` to ``target``."""

    def __init__(self, *args, target, schedule, **kwargs):
        super().__init__(*args, **kwargs)
        self.target = target
        self.schedule = set(schedule)

    def on_cycle(self, cycle):
        if cycle in self.schedule:
            self.send(self.make_message(self.target, data=b"ping"))


class TestPacketSpans:
    def build_two_tile_echo(self, schedule=(0,)):
        sim = CycleSimulator(kernel="naive")
        mesh = Mesh(2, 1)
        echo = _EchoBackTile("echo", mesh, (1, 0))
        source = _SourceTile("source", mesh, (0, 0), target=(1, 0),
                             schedule=schedule)
        mesh.register(sim)
        sim.add_all([source, echo])

        class Design:
            pass

        design = Design()
        design.sim, design.mesh, design.tiles = sim, mesh, [source, echo]
        return design, source, echo

    def test_packet_id_spans_both_tiles(self):
        design, source, echo = self.build_two_tile_echo()
        tracer = attach_tracer(design)
        design.sim.run(300)
        spans_by_packet = tracer.packet_spans()
        assert len(spans_by_packet) == 1
        (spans,) = spans_by_packet.values()
        assert [span.tile for span in spans] == ["echo", "source"]
        # The reply processed at the source inherited the ping's id.
        assert len({span.packet_id for span in spans}) == 1

    def test_latencies_match_span_arithmetic(self):
        design, source, echo = self.build_two_tile_echo(
            schedule=(0, 50, 100))
        tracer = attach_tracer(design)
        design.sim.run(400)
        latencies = tracer.packet_latencies()
        spans_by_packet = tracer.packet_spans()
        assert len(latencies) == 3
        for packet_id, latency in latencies.items():
            spans = spans_by_packet[packet_id]
            assert latency == spans[-1].end - spans[0].end
            assert latency > 0

    def test_latency_agrees_with_direct_measurement(self):
        """Acceptance criterion: tracer-reconstructed per-packet latency
        matches ``eth_tx.last_transit_cycles`` (the section VII-C
        measurement) within 1 cycle."""
        for payload in (b"x", b"y" * 64, b"z" * 256):
            design = make_design()
            tracer = attach_tracer(design)
            sink = FrameSink(design.eth_tx)
            design.sim.add(sink)
            design.inject(echo_frame(design, payload), 0)
            design.sim.run_until(lambda: sink.count >= 1,
                                 max_cycles=2000)
            latencies = tracer.packet_latencies()
            assert len(latencies) == 1
            (latency,) = latencies.values()
            assert abs(latency - design.eth_tx.last_transit_cycles) <= 1

    def test_inflight_packets_excluded_by_default(self):
        design = make_design()
        tracer = attach_tracer(design)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(echo_frame(design, b"done"), 0)
        design.inject(echo_frame(design, b"in flight"), 60)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=2000)
        # The second packet has crossed several tiles but not egressed.
        assert len(tracer.packet_latencies()) == 1


class TestDropTracing:
    def run_with_bad_port(self):
        design = make_design()
        tracer = attach_tracer(design)
        design.inject(echo_frame(design, b"nope", port=9999), 0)
        design.sim.run(400)
        return design, tracer

    def test_drop_reason_recorded(self):
        design, tracer = self.run_with_bad_port()
        assert len(tracer.drops) == 1
        drop = tracer.drops[0]
        assert drop.tile == "udp_rx"
        assert "9999" in drop.reason
        assert drop.cycle is not None
        assert drop.packet_id is not None

    def test_drop_reasons_in_counters_and_report(self):
        design, tracer = self.run_with_bad_port()
        counters = design_counters(design)
        by_name = {tile.name: tile for tile in counters["tiles"]}
        assert by_name["udp_rx"].drops == 1
        assert by_name["udp_rx"].drop_reasons == {
            "no app on port 9999": 1}
        report = design_report(design)
        assert "drop reasons:" in report
        assert "no app on port 9999" in report


class TestMetricsWindow:
    def traced_run(self, cycles=2000, window=500):
        design = make_design()
        tracer = attach_tracer(design)
        frame = echo_frame(design, bytes(64))
        source = FrameSource(design.inject, lambda i: frame, rate=50.0)
        sink = FrameSink(design.eth_tx, keep_frames=False)
        design.sim.add(source)
        design.sim.add(sink)
        design.sim.run(cycles)
        return design, tracer, MetricsWindow(tracer, window), sink

    def test_window_count_covers_run(self):
        design, tracer, metrics, sink = self.traced_run(2000, 500)
        samples = metrics.samples()
        assert len(samples) >= 4
        assert samples[0].start == 0
        for prev, cur in zip(samples, samples[1:]):
            assert cur.start == prev.start + 500

    def test_utilization_bounded_and_nonzero(self):
        design, tracer, metrics, sink = self.traced_run()
        busy_windows = 0
        for sample in metrics.samples():
            for util in sample.link_util.values():
                assert 0.0 <= util <= 1.0
            if sample.link_util:
                busy_windows += 1
            for busy in sample.tile_busy.values():
                assert 0.0 <= busy <= 1.0
        assert busy_windows >= 3

    def test_latency_counts_match_egress(self):
        design, tracer, metrics, sink = self.traced_run()
        total = sum(len(sample.latencies)
                    for sample in metrics.samples())
        assert total == sink.count == len(tracer.packet_latencies())

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([], 50) is None
        assert percentile([7], 99) == 7

    def test_windowed_drops(self):
        design = make_design()
        tracer = attach_tracer(design)
        design.inject(echo_frame(design, b"x", port=9999), 0)
        design.inject(echo_frame(design, b"y", port=9999), 600)
        design.sim.run(1200)
        metrics = MetricsWindow(tracer, 500)
        per_window = [sum(sample.drops.values())
                      for sample in metrics.samples()]
        assert sum(per_window) == 2
        assert per_window[0] == 1  # one drop in each of two windows
        assert sum(1 for count in per_window if count) == 2


class TestPerfettoExport:
    def traced_run_with_drops(self):
        design = make_design()
        tracer = attach_tracer(design)
        frame = echo_frame(design, bytes(64))
        source = FrameSource(design.inject, lambda i: frame, rate=50.0)
        design.sim.add(source)
        design.sim.add(FrameSink(design.eth_tx, keep_frames=False))
        design.inject(echo_frame(design, b"bad", port=9999), 10)
        design.sim.run(1500)
        return tracer

    def test_event_schema_and_monotonic_ts(self, tmp_path):
        tracer = self.traced_run_with_drops()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path), window_cycles=500)
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events
        timestamps = []
        for event in events:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event, f"missing {key}: {event}"
            if event["ph"] == "X":
                assert "dur" in event and event["dur"] >= 1
            if event["ph"] == "i":
                assert event["s"] in ("t", "p", "g")
            timestamps.append(event["ts"])
        assert timestamps == sorted(timestamps)

    def test_three_track_types_present(self):
        tracer = self.traced_run_with_drops()
        events = chrome_trace_events(tracer, window_cycles=500)
        phases = {event["ph"] for event in events}
        # tile spans, counters (link util / buffers), drop instants
        assert {"X", "C", "i"} <= phases
        names = {event["name"] for event in events}
        assert any(name.startswith("link") for name in names)
        assert any(name.startswith("drop:") for name in names)
        assert any(name.startswith("pkt ") for name in names)


class TestTraceCli:
    def test_cli_writes_valid_trace_and_summary(self, tmp_path, capsys):
        from repro.tools.trace import main

        out = tmp_path / "echo.json"
        code = main(["udp_echo", "--cycles", "1200", "--window", "400",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "per-window metrics" in printed
        assert "packet latency" in printed
        document = json.loads(out.read_text())
        assert len(document["traceEvents"]) > 10

    def test_cli_rejects_missing_file(self, tmp_path, capsys):
        from repro.tools.trace import main

        code = main([str(tmp_path / "nope.xml")])
        assert code == 1

    def test_cli_wants_a_port_when_the_design_routes_none(self, tmp_path,
                                                          capsys):
        from repro.config.examples import UDP_ECHO_XML
        from repro.tools.trace import main

        path = tmp_path / "portless.xml"
        path.write_text(UDP_ECHO_XML.replace("port:7", "default"))
        out = tmp_path / "portless.json"
        assert main([str(path), "--out", str(out)]) == 1
        assert "routes no UDP port" in capsys.readouterr().err
        assert main([str(path), "--port", "7", "--cycles", "600",
                     "--quiet", "--out", str(out)]) == 0
