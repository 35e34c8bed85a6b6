"""Tests for the periodic telemetry probe and its null fast path."""

from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.telemetry import (
    Tracer,
    attach_probe,
    attach_tracer,
    prometheus_text,
    run_record,
)

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def run_echo(cycles=3000, interval=500, trace=False, **design_kwargs):
    design = UdpEchoDesign(line_rate_bytes_per_cycle=None,
                           **design_kwargs)
    if trace:
        attach_tracer(design, Tracer())
    probe = attach_probe(design, interval=interval)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    frame = build_ipv4_udp_frame(
        CLIENT_MAC, design.server_mac, CLIENT_IP, design.server_ip,
        5555, design.udp_port, bytes(64))
    source = FrameSource(design.inject, lambda i: frame, rate=None)
    sink = FrameSink(design.eth_tx, keep_frames=False)
    design.sim.add(source)
    design.sim.add(sink)
    design.sim.run(cycles)
    return design, probe, sink


class TestNullFastPath:
    def test_interval_none_attaches_nothing(self):
        design = UdpEchoDesign()
        components_before = design.sim.stats()["components"]
        assert attach_probe(design, interval=None) is None
        assert design.sim.stats()["components"] == components_before

    def test_probe_does_not_change_behaviour(self):
        """Attached probes are read-only and timer-driven: frames out
        and every counter must be bit-identical with and without."""
        _, _, sink_off = run_echo(interval=None)
        design_on, probe, sink_on = run_echo(interval=500)
        assert sink_on.count == sink_off.count
        assert len(probe.series.snapshots) == 2999 // 500


class TestSampling:
    def test_cadence_and_cycles(self):
        _, probe, _ = run_echo(cycles=2600, interval=500)
        cycles = [s["cycle"] for s in probe.series.snapshots]
        assert cycles == [500, 1000, 1500, 2000, 2500]

    def test_snapshot_contents(self):
        design, probe, _ = run_echo()
        snapshot = probe.series.snapshots[-1]
        assert snapshot["total_flits"] > 0
        assert snapshot["busy_routers"] >= 1
        assert snapshot["links"]  # saturated echo moves flits
        tiles = snapshot["tiles"]
        assert set(tiles) == set(design.tiles)
        eth_rx = tiles["eth_rx"]
        assert eth_rx["msgs_out"] > 0
        assert eth_rx["tx_hwm"] >= eth_rx["tx_backlog"]
        kernel = snapshot["kernel"]
        assert kernel["kernel"] in ("scheduled", "naive")
        assert kernel["component_steps"] > 0

    def test_registry_counters_monotonic(self):
        """The scrape serves the latest snapshot's monotonic totals."""
        _, probe, _ = run_echo()
        assert f"repro_noc_flits_forwarded_total " \
            f"{probe.series.snapshots[-1]['total_flits']}" in \
            prometheus_text(probe).splitlines()

    def test_latency_with_tracer(self):
        """With a recording tracer the probe extracts exact per-packet
        latencies incrementally; without one, only the cheap transit
        gauge is populated."""
        _, probe, _ = run_echo(trace=True)
        latency = probe.series.snapshots[-1]["latency"]
        assert latency["completed"] > 0
        assert latency["p50"] is not None
        assert latency["p999"] >= latency["p50"]
        hist = probe.histograms["latency.e2e_cycles"]
        assert hist.count > 0

        _, probe_untraced, _ = run_echo(trace=False)
        latency = probe_untraced.series.snapshots[-1]["latency"]
        assert latency["completed"] == 0
        assert latency["last_transit"] > 0

    def test_faults_surface_when_attached(self):
        from repro.faults import FaultPlan
        plan = FaultPlan(seed=3).wire(drop=0.05)
        _, probe, _ = run_echo(fault_plan=plan)
        snapshot = probe.series.snapshots[-1]
        assert "faults" in snapshot
        assert sum(snapshot["faults"].values()) > 0

    def test_write_and_reload(self, tmp_path):
        from repro.telemetry import SnapshotSeries
        _, probe, _ = run_echo()
        path = tmp_path / "series.json"
        probe.series.write(str(path))
        loaded = SnapshotSeries.load(str(path))
        assert loaded.snapshots == probe.series.snapshots


class TestBackends:
    def test_high_water_identical_across_backends(self):
        """The flat mesh stamps where ``StagedFifo`` commits, so its
        high-water tracking must stay value-identical to it."""
        def water(profile):
            design, _, _ = run_echo(profile=profile)
            record = run_record(design)
            tiles = {name: (tile["eject_hwm"], tile["tx_hwm"])
                     for name, tile in record["tiles"].items()}
            return tiles, {coord: router["input_hwm"]
                           for coord, router in record["routers"].items()}

        assert water("fast") == water("reference")

    def test_probe_works_on_object_backend_and_naive_kernel(self):
        _, probe_fast, sink_fast = run_echo()
        _, probe_ref, sink_ref = run_echo(profile="reference")
        assert probe_ref.series.meta == {"profile": "reference"}
        assert sink_fast.count == sink_ref.count
        assert len(probe_fast.series.snapshots) == \
            len(probe_ref.series.snapshots)
        # Cross-profile totals agree: same design, same traffic.
        last_fast = probe_fast.series.snapshots[-1]
        last_ref = probe_ref.series.snapshots[-1]
        assert last_fast["total_flits"] == last_ref["total_flits"]
        assert last_ref["kernel"]["kernel"] == "naive"

    def test_reference_gauge_series_are_pinned(self):
        """Without a tile core the busy-tile gauge counts the tiles
        whose step would ask for the next cycle (the naive kernel,
        which steps everything, cannot say); both series are the ones
        the tiles' former ``is_idle()`` count gave, and busy tiles match
        the ``fast`` core's busy mask sample for sample."""
        runs = {profile: run_echo(profile=profile, interval=250)[1]
                for profile in ("reference", "fast")}
        series = {profile: [(s["busy_tiles"], s["kernel"]["active"])
                            for s in probe.series.snapshots]
                  for profile, probe in runs.items()}
        busy = [3, 2, 1, 1, 2, 1, 1, 2, 3, 2, 1]
        assert series["reference"] == [(b, 25) for b in busy]
        assert [b for b, _ in series["fast"]] == busy
        scrape = prometheus_text(runs["reference"]).splitlines()
        assert "repro_tiles_busy 1" in scrape
        assert "repro_kernel_active_components 25" in scrape

    def test_tiles_that_are_not_tiles_count_as_not_busy(self):
        """``attach_probe`` takes any design: the Fig 5 demo's
        cut-through tiles are no ``Tile`` subclass and are sampled as
        not busy rather than raising."""
        from repro.analysis.demo import FIXTURES

        design = FIXTURES["fig5b"]()
        probe = attach_probe(design, interval=10)
        design.sim.run(35)
        assert [s["busy_tiles"] for s in probe.series.snapshots] == \
            [0, 0, 0]


def test_snapshots_agree_across_profiles_on_every_shipped_design():
    """A sample is taken mid-tick, while the object mesh still stages
    this cycle's ejections; depths and marks count them, so every
    snapshot field but ``kernel`` is the same under both profiles."""
    from repro.designs import SHIPPED, attach_client, client_frame, load_design
    from repro.noc.message import reset_id_counters

    def snapshots(name, profile):
        reset_id_counters()
        design = load_design(name)[1](profile=profile)
        probe = attach_probe(design, interval=100)
        # The TCP servers route no UDP port: their RX path drops these.
        frame = client_frame(design, bytes(64),
                             dst_port=design.udp_port or 7)
        attach_client(design, [frame], keep_frames=False)
        design.sim.run(1500)
        return [{key: value for key, value in snapshot.items()
                 if key not in ("kernel", "profile")}
                for snapshot in probe.series.snapshots]

    for name in SHIPPED:
        fast = snapshots(name, "fast")
        assert len(fast) == 14
        assert fast == snapshots(name, "reference"), name
