"""Tests for the Reed-Solomon substrate: field, matrices, codec, tile."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.reed_solomon.codec import ReedSolomonCodec
from repro.apps.reed_solomon.cpu import CpuReedSolomonBaseline
from repro.apps.reed_solomon.gf import GF
from repro.apps.reed_solomon.matrix import GFMatrix
from repro.designs import FrameSink, FrameSource
from repro.designs.rs_design import RsDesign
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
    parse_frame,
)
from repro import params

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


class TestGF256:
    def test_identity_elements(self):
        assert GF.mul(1, 77) == 77
        assert GF.add(0, 77) == 77
        assert GF.mul(0, 77) == 0

    def test_known_product(self):
        # In GF(2^8) with poly 0x11D: 2 * 128 = 0x11D without the x^8
        # term = 0b00011101 = 29.
        assert GF.mul(2, 128) == 29

    @given(a=st.integers(1, 255))
    def test_inverse(self, a):
        assert GF.mul(a, GF.inverse(a)) == 1

    @given(a=st.integers(0, 255), b=st.integers(1, 255))
    def test_div_inverts_mul(self, a, b):
        assert GF.div(GF.mul(a, b), b) == a

    @given(a=st.integers(0, 255), b=st.integers(0, 255),
           c=st.integers(0, 255))
    @settings(max_examples=50)
    def test_distributive(self, a, b, c):
        left = GF.mul(a, GF.add(b, c))
        right = GF.add(GF.mul(a, b), GF.mul(a, c))
        assert left == right

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF.div(5, 0)
        with pytest.raises(ZeroDivisionError):
            GF.inverse(0)

    def test_bulk_matches_scalar(self):
        data = np.arange(256, dtype=np.uint8)
        for coefficient in (0, 1, 2, 87, 255):
            bulk = GF.mul_slice(coefficient, data)
            scalar = [GF.mul(coefficient, int(x)) for x in data]
            assert bulk.tolist() == scalar

    def test_power(self):
        assert GF.power(2, 0) == 1
        assert GF.power(2, 1) == 2
        assert GF.power(2, 8) == 0x1D  # 2^8 = poly remainder


class TestGFMatrix:
    def test_identity_times_anything(self):
        m = GFMatrix(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert GFMatrix.identity(2).times(m).data.tolist() == \
            m.data.tolist()

    def test_invert_roundtrip(self):
        m = GFMatrix.vandermonde(3, 3)
        product = m.times(m.invert())
        assert product.data.tolist() == GFMatrix.identity(3).data.tolist()

    def test_singular_rejected(self):
        singular = GFMatrix(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        with pytest.raises(ValueError, match="singular"):
            singular.invert()

    def test_shape_mismatch_rejected(self):
        a = GFMatrix.identity(2)
        b = GFMatrix.identity(3)
        with pytest.raises(ValueError):
            a.times(b)

    def test_vandermonde_values(self):
        v = GFMatrix.vandermonde(3, 3)
        assert v.data[0].tolist() == [1, 0, 0]
        assert v.data[1].tolist() == [1, 1, 1]
        assert v.data[2].tolist() == [1, 2, 4]


class TestCodec:
    def test_systematic(self):
        """Encoding leaves data shards unchanged (identity top)."""
        codec = ReedSolomonCodec(4, 2)
        top = codec.matrix.select_rows(range(4))
        assert top.data.tolist() == GFMatrix.identity(4).data.tolist()

    def test_reconstruct_after_two_erasures(self):
        codec = ReedSolomonCodec(8, 2)
        blocks = [os.urandom(64) for _ in range(8)]
        parity = codec.encode(blocks)
        shards = {i: b for i, b in enumerate(blocks + parity)}
        del shards[0], shards[5]  # two failures, the code's design point
        assert codec.reconstruct(shards, 64) == blocks

    def test_too_few_shards_rejected(self):
        codec = ReedSolomonCodec(4, 2)
        with pytest.raises(ValueError, match="need 4"):
            codec.reconstruct({0: b"x"}, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.binary(min_size=8, max_size=512).filter(
            lambda b: len(b) % 8 == 0),
        drop=st.sets(st.integers(0, 9), min_size=2, max_size=2),
    )
    def test_any_two_erasures_recoverable(self, data, drop):
        """Property: any 8 of the 10 shards reconstruct the data."""
        codec = ReedSolomonCodec(8, 2)
        stripe = len(data) // 8
        blocks = [data[i * stripe:(i + 1) * stripe] for i in range(8)]
        parity = codec.encode(blocks)
        shards = {i: b for i, b in enumerate(blocks + parity)}
        for index in drop:
            del shards[index]
        assert codec.reconstruct(shards, stripe) == blocks

    def test_encode_request_shape(self):
        codec = ReedSolomonCodec(8, 2)
        parity = codec.encode_request(bytes(4096))
        assert len(parity) == 1024  # 2 shards x 512 B

    def test_misaligned_request_rejected(self):
        codec = ReedSolomonCodec(8, 2)
        with pytest.raises(ValueError):
            codec.encode_request(bytes(4095))

    def test_shard_count_limits(self):
        with pytest.raises(ValueError):
            ReedSolomonCodec(250, 20)
        with pytest.raises(ValueError):
            ReedSolomonCodec(0, 2)


def make_design(instances):
    design = RsDesign(instances=instances,
                      line_rate_bytes_per_cycle=None)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    return design


def request_frame(design, payload):
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                CLIENT_IP, design.server_ip, 5555,
                                7000, payload)


class TestRsDesign:
    def test_parity_reply_is_correct(self):
        design = make_design(1)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        request = os.urandom(4096)
        design.inject(request_frame(design, request), 0)
        design.sim.run_until(lambda: sink.count >= 1, max_cycles=5000)
        reply = parse_frame(sink.frames[0][0])
        codec = ReedSolomonCodec(8, 2)
        assert reply.payload == codec.encode_request(request)

    def test_round_robin_across_instances(self):
        design = make_design(4)
        sink = FrameSink(design.eth_tx, keep_frames=False)
        design.sim.add(sink)
        for _ in range(8):
            design.inject(request_frame(design, bytes(4096)),
                          design.sim.cycle)
        design.sim.run_until(lambda: sink.count >= 8, max_cycles=20000)
        assert [tile.requests for tile in design.rs_tiles] == [2, 2, 2, 2]

    def test_single_instance_rate_is_15gbps(self):
        design = make_design(1)
        source = FrameSource(design.inject,
                             lambda i: request_frame(design, bytes(4096)),
                             rate=None)
        sink = FrameSink(design.eth_tx, keep_frames=False)
        design.sim.add(source)
        design.sim.add(sink)
        design.sim.run(60_000)
        consumed = design.total_requests * 4096 * 8
        gbps = consumed / (design.sim.cycle * params.CYCLE_TIME_S) / 1e9
        assert 13.5 <= gbps <= 16.0  # paper: 15 Gbps/instance

    def test_four_instances_scale_out(self):
        design = make_design(4)
        source = FrameSource(design.inject,
                             lambda i: request_frame(design, bytes(4096)),
                             rate=None)
        sink = FrameSink(design.eth_tx, keep_frames=False)
        design.sim.add(source)
        design.sim.add(sink)
        design.sim.run(60_000)
        consumed = design.total_requests * 4096 * 8
        gbps = consumed / (design.sim.cycle * params.CYCLE_TIME_S) / 1e9
        assert 55.0 <= gbps <= 65.0  # paper: 62 Gbps with 4 instances

    def test_metadata_log_tracks_bandwidth(self):
        design = make_design(1)
        source = FrameSource(design.inject,
                             lambda i: request_frame(design, bytes(4096)),
                             rate=None, count=20)
        sink = FrameSink(design.eth_tx, keep_frames=False)
        design.sim.add(source)
        design.sim.add(sink)
        design.sim.run_until(lambda: sink.count >= 20, max_cycles=30000)
        tile = design.rs_tiles[0]
        assert len(tile.metadata_log) == 20

    def test_misaligned_request_dropped(self):
        design = make_design(1)
        sink = FrameSink(design.eth_tx)
        design.sim.add(sink)
        design.inject(request_frame(design, bytes(100)), 0)
        design.sim.run(3000)
        assert sink.count == 0
        assert design.rs_tiles[0].bad_requests == 1


class TestCpuBaseline:
    def test_same_output_as_tile(self):
        baseline = CpuReedSolomonBaseline()
        request = os.urandom(4096)
        codec = ReedSolomonCodec(8, 2)
        assert baseline.encode_request(request) == \
            codec.encode_request(request)

    def test_table3_columns(self):
        baseline = CpuReedSolomonBaseline()
        previous = None
        for instances in (1, 2, 3, 4):
            result = baseline.measure(instances)
            assert result.goodput_gbps == pytest.approx(2.0 * instances)
            if previous is not None:
                assert result.energy_mj_per_op < previous
            previous = result.energy_mj_per_op

    def test_energy_near_paper(self):
        """Table III: CPU 1.1 -> 0.32 mJ/op for 1 -> 4 instances."""
        baseline = CpuReedSolomonBaseline()
        assert baseline.measure(1).energy_mj_per_op == \
            pytest.approx(1.1, rel=0.1)
        assert baseline.measure(4).energy_mj_per_op == \
            pytest.approx(0.32, rel=0.15)
