"""Tests for the VR consensus system: witness protocol, hardware tile,
KV workload, and the event-level cluster."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.vr.cluster import VrExperiment
from repro.apps.vr.kv import KvOp, KvStore, KvWorkload
from repro.apps.vr.tile import (
    MSG_NACK,
    MSG_PREPARE,
    MSG_PREPARE_OK,
    PrepareWire,
)
from repro.apps.vr.witness import WitnessDecision, WitnessState
from repro.designs import FrameSink
from repro.designs.vr_design import VrWitnessDesign
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro.sim.rng import SeededStreams

LEADER_IP = IPv4Address("10.0.0.2")
LEADER_MAC = MacAddress("02:00:00:00:00:02")


class TestWitnessState:
    def test_in_order_accepts(self):
        state = WitnessState()
        for opnum in (1, 2, 3):
            assert state.handle_prepare(0, opnum, b"d") == \
                WitnessDecision.ACCEPT
        assert state.last_opnum == 3
        assert state.accepted == 3

    def test_duplicate_reacked(self):
        """Retransmissions get PrepareOK again (VR over UDP)."""
        state = WitnessState()
        state.handle_prepare(0, 1, b"d")
        assert state.handle_prepare(0, 1, b"d") == \
            WitnessDecision.DUPLICATE
        assert state.last_opnum == 1

    def test_gap_rejected(self):
        state = WitnessState()
        state.handle_prepare(0, 1, b"d")
        assert state.handle_prepare(0, 3, b"d") == WitnessDecision.GAP
        assert state.last_opnum == 1  # nothing was logged

    def test_stale_view_rejected(self):
        """A deposed leader cannot get its ops verified."""
        state = WitnessState()
        state.handle_prepare(5, 1, b"d")
        assert state.handle_prepare(4, 2, b"d") == \
            WitnessDecision.STALE_VIEW

    def test_new_view_adopted(self):
        state = WitnessState()
        state.handle_prepare(0, 1, b"d")
        assert state.handle_prepare(7, 2, b"d") == \
            WitnessDecision.ACCEPT
        assert state.view == 7

    @given(ops=st.lists(st.integers(1, 30), min_size=1, max_size=60))
    @settings(max_examples=30)
    def test_log_is_always_gapless(self, ops):
        """Property: whatever arrival order, the log stays contiguous."""
        state = WitnessState()
        for opnum in ops:
            state.handle_prepare(0, opnum, b"d")
        logged = [opnum for opnum, _ in state.log]
        assert logged == list(range(1, state.last_opnum + 1))


class TestWireFormat:
    def test_roundtrip(self):
        wire = PrepareWire(msg_type=MSG_PREPARE, view=3, opnum=12345,
                           shard=2, digest=b"12345678")
        assert PrepareWire.unpack(wire.pack()) == wire

    def test_short_message_rejected(self):
        with pytest.raises(ValueError):
            PrepareWire.unpack(b"\x01\x02")


class TestKv:
    def test_store_get_put(self):
        store = KvStore()
        assert store.execute(KvOp("get", b"k")) is None
        store.execute(KvOp("put", b"k", b"v"))
        assert store.execute(KvOp("get", b"k")) == b"v"
        assert store.reads == 2 and store.writes == 1

    def test_workload_read_fraction(self):
        rng = SeededStreams(1).stream("w")
        workload = KvWorkload(rng, shards=1)
        ops = [workload.next_op()[1] for _ in range(2000)]
        reads = sum(1 for op in ops if op.kind == "get")
        assert 0.85 <= reads / len(ops) <= 0.95

    def test_workload_shards_balanced(self):
        rng = SeededStreams(1).stream("w")
        workload = KvWorkload(rng, shards=4)
        counts = [0] * 4
        for _ in range(4000):
            shard, _ = workload.next_op()
            counts[shard] += 1
        assert min(counts) > 700  # roughly uniform

    def test_key_value_sizes(self):
        rng = SeededStreams(1).stream("w")
        workload = KvWorkload(rng, shards=1)
        while True:
            _, op = workload.next_op()
            if op.kind == "put":
                break
        assert len(op.key) == 64 and len(op.value) == 64


def witness_design(shards=2):
    design = VrWitnessDesign(shards=shards,
                             line_rate_bytes_per_cycle=None)
    design.add_client(LEADER_IP, LEADER_MAC)
    return design


def prepare_frame(design, shard, view, opnum):
    wire = PrepareWire(msg_type=MSG_PREPARE, view=view, opnum=opnum,
                       shard=shard, digest=b"deadbeef")
    return build_ipv4_udp_frame(
        LEADER_MAC, design.server_mac, LEADER_IP, design.server_ip,
        7777, design.shard_port(shard), wire.pack(),
    )


class TestVrWitnessTile:
    def run_one(self, design, frame, sink):
        before = sink.count
        design.inject(frame, design.sim.cycle)
        design.sim.run_until(lambda: sink.count > before,
                             max_cycles=5000)
        reply = parse_frame(sink.frames[-1][0])
        return PrepareWire.unpack(reply.payload)

    def test_prepare_gets_prepare_ok(self):
        design = witness_design()
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        reply = self.run_one(design, prepare_frame(design, 0, 0, 1),
                             sink)
        assert reply.msg_type == MSG_PREPARE_OK
        assert reply.opnum == 1

    def test_gap_gets_nack(self):
        design = witness_design()
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        self.run_one(design, prepare_frame(design, 0, 0, 1), sink)
        reply = self.run_one(design, prepare_frame(design, 0, 0, 5),
                             sink)
        assert reply.msg_type == MSG_NACK

    def test_shards_are_isolated(self):
        """Each shard's op sequence lives on its own tile."""
        design = witness_design(shards=2)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        self.run_one(design, prepare_frame(design, 0, 0, 1), sink)
        reply = self.run_one(design, prepare_frame(design, 1, 0, 1),
                             sink)
        assert reply.msg_type == MSG_PREPARE_OK
        witnesses = design.tiles_named("witness")
        assert witnesses[0].state.last_opnum == 1
        assert witnesses[1].state.last_opnum == 1

    def test_witness_latency_under_microsecond(self):
        """The hardware witness answers within ~0.5 us of frame entry —
        the determinism that drives Fig 11's improvement."""
        design = witness_design()
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        self.run_one(design, prepare_frame(design, 0, 0, 1), sink)
        assert design.eth_tx.last_transit_cycles is not None
        assert design.eth_tx.last_transit_cycles * 4e-9 < 0.6e-6


class TestVrCluster:
    def run_point(self, kind, shards=1, clients=4, duration=0.2):
        return VrExperiment(shards=shards, witness_kind=kind,
                            n_clients=clients).run(duration_s=duration)

    def test_operations_complete(self):
        result = self.run_point("cpu")
        assert result.throughput_kops > 5
        assert result.median_latency_us > 0
        assert result.p99_latency_us >= result.median_latency_us

    def test_replica_converges_to_leader(self):
        """The replica's KV must equal the leader's at quiesce — the
        consensus safety property of the reproduction."""
        experiment = VrExperiment(shards=2, witness_kind="cpu",
                                  n_clients=4)
        result = experiment.run(duration_s=0.1)
        # Let in-flight operations drain.
        experiment.sim.run_until(experiment.sim.now + 0.05)
        for leader, replica in zip(experiment.leaders,
                                   experiment.replicas):
            assert replica.kv.snapshot() == leader.kv.snapshot()

    def test_fpga_witness_beats_cpu_at_knee(self):
        cpu = self.run_point("cpu", clients=4)
        fpga = self.run_point("fpga", clients=4)
        assert fpga.median_latency_us < cpu.median_latency_us
        assert fpga.throughput_kops >= cpu.throughput_kops
        assert fpga.energy_mj_per_op < cpu.energy_mj_per_op / 1.5

    def test_energy_near_table4(self):
        cpu = self.run_point("cpu", clients=4, duration=0.3)
        fpga = self.run_point("fpga", clients=4, duration=0.3)
        assert cpu.energy_mj_per_op == pytest.approx(1.51, rel=0.2)
        assert fpga.energy_mj_per_op == pytest.approx(0.73, rel=0.2)

    def test_throughput_scales_with_shards(self):
        one = self.run_point("fpga", shards=1, clients=4)
        four = self.run_point("fpga", shards=4, clients=16)
        assert four.throughput_kops > 2.5 * one.throughput_kops

    def test_determinism(self):
        a = self.run_point("cpu", duration=0.05)
        b = self.run_point("cpu", duration=0.05)
        assert a.throughput_kops == b.throughput_kops
        assert a.median_latency_us == b.median_latency_us

    def test_bad_witness_kind_rejected(self):
        with pytest.raises(ValueError):
            VrExperiment(shards=1, witness_kind="tpu", n_clients=1)
