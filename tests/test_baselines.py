"""Tests for the baseline stacks: pipelined (Fig 8b), CALM/PANIC,
host-stack models, and the multi-stack design (Fig 12)."""

import itertools

import pytest

from repro import params
from repro.baselines import (
    CalmUdpEcho,
    Crossbar,
    CrossbarEndpoint,
    PipelinedUdpEchoDesign,
    demikernel_udp_goodput_gbps,
    linux_tcp_goodput_gbps,
    table1_configs,
)
from repro.baselines.hoststacks import demikernel_udp_kreqs, linux_tcp_kreqs
from repro.designs import FrameSink
from repro.designs.multi_stack import MultiStackDesign
from repro.packet import (
    IPv4Address,
    MacAddress,
    build_ipv4_udp_frame,
)
from repro.sim.kernel import CycleSimulator, no_commit

CLIENT_MAC = MacAddress("02:00:00:00:00:01")
CLIENT_IP = IPv4Address("10.0.0.1")


def saturate(design, frame, cycles=20000):
    """Inject at NoC rate and return the design's echo goodput."""
    class Source:
        def __init__(self):
            self._free = 0

        def step(self, cycle):
            if cycle >= self._free:
                design.inject(frame, cycle)
                self._free = cycle + max(1, (len(frame) + 24) // 64)

        commit = no_commit

    design.sim.add(Source())
    design.sim.run(cycles)
    return design.goodput_gbps()


class TestPipelined:
    def make(self):
        design = PipelinedUdpEchoDesign(udp_port=7)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        return design

    def frame(self, design, size=64):
        return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                    CLIENT_IP, design.server_ip, 5555,
                                    7, bytes(size))

    def test_echo_works(self):
        design = self.make()
        design.inject(self.frame(design), 0)
        design.sim.run_until(lambda: design.frames_echoed >= 1,
                             max_cycles=2000)
        assert design.payload_bytes == 64

    def test_slightly_faster_than_beehive_at_small_sizes(self):
        """Fig 7: the pipelined design edges out Beehive at 64 B
        because it skips NoC message (de)construction."""
        from repro.designs import FrameSink as BeeSink, FrameSource
        from repro.designs import UdpEchoDesign

        pipelined = self.make()
        pipe_gbps = saturate(pipelined, self.frame(pipelined, 64))

        beehive = UdpEchoDesign(udp_port=7,
                                line_rate_bytes_per_cycle=None)
        beehive.add_client(CLIENT_IP, CLIENT_MAC)
        frame = build_ipv4_udp_frame(CLIENT_MAC, beehive.server_mac,
                                     CLIENT_IP, beehive.server_ip,
                                     5555, 7, bytes(64))
        source = FrameSource(beehive.inject, lambda i: frame, rate=None)
        sink = BeeSink(beehive.eth_tx, keep_frames=False)
        beehive.sim.add(source)
        beehive.sim.add(sink)
        beehive.sim.run(20000)
        bee_gbps = sink.payload_bytes * 8 / (
            beehive.sim.cycle * params.CYCLE_TIME_S) / 1e9
        assert pipe_gbps > bee_gbps
        assert pipe_gbps / bee_gbps < 1.5  # "slightly", not hugely

    def test_bad_checksum_dropped(self):
        design = self.make()
        frame = bytearray(self.frame(design))
        frame[-1] ^= 0xFF
        design.inject(bytes(frame), 0)
        design.sim.run(1000)
        assert design.frames_echoed == 0


class TestCalm:
    def make(self):
        design = CalmUdpEcho(udp_port=7)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        return design

    def frame(self, design, size=64):
        return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                    CLIENT_IP, design.server_ip, 5555,
                                    7, bytes(size))

    def test_echo_works(self):
        design = self.make()
        design.inject(self.frame(design), 0)
        design.sim.run_until(lambda: design.frames_echoed >= 1,
                             max_cycles=2000)

    def test_latency_close_to_beehive(self):
        """Section VII-C: CALM 362 ns vs Beehive 368 ns."""
        design = self.make()
        design.inject(self.frame(design, 1), 0)
        design.sim.run_until(lambda: design.frames_echoed >= 1,
                             max_cycles=2000)
        ns = design.last_transit_cycles * 4
        assert 320 <= ns <= 410

    def test_throughput_similar_to_beehive(self):
        """Fig 7: Beehive and CALM perform almost identically."""
        design = self.make()
        gbps = saturate(design, self.frame(design, 64))
        assert 8.0 <= gbps <= 11.5

    def test_endpoint_limit_enforced(self):
        """PANIC's crossbar: 8 endpoints, 4 for infrastructure."""
        sim = CycleSimulator()
        crossbar = Crossbar(sim)
        for index in range(MAX_USER := 4):
            crossbar.attach(CrossbarEndpoint(f"user{index}",
                                             lambda item, cycle: None))
        with pytest.raises(ValueError, match="8 endpoints"):
            crossbar.attach(CrossbarEndpoint("one_too_many",
                                             lambda item, cycle: None))

    def test_scheduler_drops_when_full(self):
        """PANIC avoids deadlock by dropping, not backpressure."""
        sim = CycleSimulator()
        crossbar = Crossbar(sim, buffer_packets=2)
        sink = CrossbarEndpoint("sink", lambda item, cycle: None)
        crossbar.attach(sink)
        for _ in range(5):
            crossbar.send("x", "sink", (bytes(64), 0), cycle=0)
        assert crossbar.scheduler_drops == 3


class TestHostStackModels:
    def test_table1_medians_and_tails(self):
        paper = {
            "linux_client/beehive": (11.6, 15.3),
            "linux_client/linux_accel": (17.6, 61.2),
            "dpdk_client/beehive": (4.08, 4.43),
            "dpdk_client/dpdk_accel": (6.22, 6.79),
        }
        for name, model in table1_configs().items():
            stats = model.run(n=40_000)
            median_target, p99_target = paper[name]
            assert stats.median_us == pytest.approx(median_target,
                                                    rel=0.12)
            assert stats.p99_us == pytest.approx(p99_target, rel=0.15)

    def test_direct_attach_always_wins(self):
        """The motivation claim: Beehive beats the CPU trampoline for
        both client stacks, at median and tail."""
        configs = table1_configs()
        for client in ("linux_client", "dpdk_client"):
            suffix = "linux_accel" if client == "linux_client" \
                else "dpdk_accel"
            direct = configs[f"{client}/beehive"].run(n=20_000)
            bounced = configs[f"{client}/{suffix}"].run(n=20_000)
            assert direct.median_us < bounced.median_us
            assert direct.p99_us < bounced.p99_us

    def test_linux_tail_amplification(self):
        """Linux p99/median >> DPDK p99/median (Table I's story)."""
        configs = table1_configs()
        linux = configs["linux_client/linux_accel"].run(n=40_000)
        dpdk = configs["dpdk_client/dpdk_accel"].run(n=40_000)
        assert linux.p99_us / linux.median_us > 2.5
        assert dpdk.p99_us / dpdk.median_us < 1.3

    def test_demikernel_anchor_points(self):
        assert demikernel_udp_kreqs(64) == pytest.approx(584, rel=0.01)
        assert demikernel_udp_goodput_gbps(64) == \
            pytest.approx(0.3, rel=0.05)
        # Far below line rate even at jumbo sizes (Fig 7).
        assert demikernel_udp_goodput_gbps(9000) < 15.0
        assert demikernel_udp_goodput_gbps(9000) > \
            demikernel_udp_goodput_gbps(64)

    def test_linux_tcp_anchor_points(self):
        assert linux_tcp_kreqs(64) == pytest.approx(843, rel=0.02)
        assert linux_tcp_goodput_gbps(64 * 1024) == pytest.approx(
            params.LINUX_TCP_PEAK_GBPS, rel=0.1)

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            demikernel_udp_goodput_gbps(0)
        with pytest.raises(ValueError):
            linux_tcp_goodput_gbps(-5)


class TestMultiStack:
    def run_design(self, stacks, size, cycles=25000):
        design = MultiStackDesign(stacks=stacks,
                                  line_rate_bytes_per_cycle=None)
        mac = CLIENT_MAC
        ips = [IPv4Address(f"10.0.1.{i}") for i in range(1, 40)]
        for ip in ips:
            design.add_client(ip, mac)
        frames = [
            build_ipv4_udp_frame(mac, design.server_mac, ip,
                                 design.server_ip, 5000 + j, 7,
                                 bytes(size))
            for j, ip in enumerate(ips)
        ]
        cycler = itertools.cycle(frames)

        class Source:
            def __init__(self):
                self._free = 0

            def step(self, cycle):
                if cycle >= self._free:
                    frame = next(cycler)
                    design.inject(frame, cycle)
                    self._free = cycle + max(1, (len(frame) + 24) // 64)

            commit = no_commit

        sinks = [FrameSink(s.eth_tx, keep_frames=False)
                 for s in design.stacks]
        design.sim.add(Source())
        design.sim.add_all(sinks)
        design.sim.run(cycles)
        payload = sum(s.payload_bytes for s in sinks)
        return payload * 8 / (design.sim.cycle
                              * params.CYCLE_TIME_S) / 1e9

    def test_two_stacks_double_small_packet_goodput(self):
        one = self.run_design(1, 64)
        two = self.run_design(2, 64)
        assert 1.8 <= two / one <= 2.2

    def test_stacks_converge_at_large_payloads(self):
        one = self.run_design(1, 1024)
        two = self.run_design(2, 1024)
        assert two / one < 1.15

    def test_flows_stay_on_one_stack(self):
        design = MultiStackDesign(stacks=2,
                                  line_rate_bytes_per_cycle=None)
        design.add_client(CLIENT_IP, CLIENT_MAC)
        frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                     CLIENT_IP, design.server_ip,
                                     5555, 7, bytes(64))
        for _ in range(10):
            design.inject(frame, design.sim.cycle)
        design.sim.run(5000)
        served = [stack.app.requests for stack in design.stacks]
        assert sorted(served) == [0, 10]  # one flow -> one stack
