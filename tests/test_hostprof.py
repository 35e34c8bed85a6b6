"""Tests for the host-side wall-clock profiler."""

import pytest

from repro.designs import FrameSink, UdpEchoDesign
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.telemetry import HostProfiler, profile_run

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def make_design(**kwargs):
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None,
                           **kwargs)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    return design


def drive(design, payload=b"profile me"):
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                 CLIENT_IP, design.server_ip, 5555, 7,
                                 payload)
    design.inject(frame, 0)
    return sink


class TestInstallUninstall:
    def test_uninstall_restores_call_sites(self):
        design = make_design()
        sim_tick = design.sim.tick
        tile = next(iter(design.tiles))
        pump = tile._pump_process
        profiler = HostProfiler().install(design)
        assert design.sim.tick is not sim_tick
        profiler.uninstall()
        assert design.sim.tick == sim_tick
        assert tile._pump_process == pump
        assert not profiler.installed

    def test_double_install_raises(self):
        design = make_design()
        profiler = HostProfiler().install(design)
        try:
            with pytest.raises(RuntimeError):
                profiler.install(design)
        finally:
            profiler.uninstall()

    def test_codec_patches_are_process_wide_but_reverted(self):
        from repro.packet import builder
        original = builder.parse_frame
        design = make_design()
        profiler = HostProfiler().install(design)
        assert builder.parse_frame is not original
        profiler.uninstall()
        assert builder.parse_frame is original

    def test_behaviour_unchanged_under_profiler(self):
        design_plain = make_design()
        sink_plain = drive(design_plain)
        design_plain.sim.run(2000)

        design_prof = make_design()
        sink_prof = drive(design_prof)
        profiler, _ = profile_run(design_prof, 2000)
        assert sink_prof.count == sink_plain.count
        assert design_prof.sim.cycle == design_plain.sim.cycle


class TestAttribution:
    def test_buckets_cover_the_phases(self):
        design = make_design()
        drive(design)
        profiler, wall = profile_run(design, 2000)
        report = profiler.report()
        assert "kernel.tick" in report
        assert "tiles.pump_process" in report
        assert "packet.codec" in report
        # Flat backend is the default: the core's phases show up.
        assert "noc.flatmesh.step" in report
        assert wall > 0

    def test_object_backend_buckets(self):
        design = make_design(mesh_backend="object")
        drive(design)
        profiler, _ = profile_run(design, 2000)
        report = profiler.report()
        assert "noc.router.step" in report
        assert "noc.localport.step" in report

    def test_exclusive_time_accounting(self):
        """Self time never exceeds inclusive time, and the phase
        shares sum to ~100% — nested calls are charged once."""
        design = make_design()
        drive(design)
        profiler, _ = profile_run(design, 2000)
        report = profiler.report()
        for row in report.values():
            assert 0 <= row["self_s"] <= row["total_s"] + 1e-9
        assert sum(row["self_pct"] for row in report.values()) \
            == pytest.approx(100.0)
        # tick is the outermost phase: everything nests inside it.
        tick = report["kernel.tick"]
        assert tick["self_s"] < tick["total_s"]

    def test_format_report_renders(self):
        design = make_design()
        drive(design)
        profiler, _ = profile_run(design, 500)
        text = profiler.format_report()
        assert "phase" in text and "kernel.tick" in text
