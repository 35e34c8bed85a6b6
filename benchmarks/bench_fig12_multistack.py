"""Figure 12: UDP echo goodput with duplicated network stacks.

One versus two complete UDP stacks behind the front-end load-balancer
tile.  Expected shape: two stacks roughly double small-packet goodput;
the curves converge to the link maximum at large payloads; and the
load balancer itself serialises at 4 cycles per 64 B packet (3 NoC
flits + 1 recovery), its 32 Gbps ceiling.
"""

import itertools

import pytest

from repro import params
from repro.designs import CLIENT_IP, CLIENT_MAC, FrameSink
from repro.designs.multi_stack import MultiStackDesign
from repro.packet import IPv4Address, build_ipv4_udp_frame
from repro.sim.kernel import no_commit

SIZES = (64, 256, 1024, 4096)


def multistack_goodput(stacks: int, size: int,
                       cycles: int = 25_000) -> float:
    design = MultiStackDesign(stacks=stacks,
                              line_rate_bytes_per_cycle=None)
    ips = [IPv4Address(f"10.0.1.{i}") for i in range(1, 40)]
    for ip in ips:
        design.add_client(ip, CLIENT_MAC)
    frames = [
        build_ipv4_udp_frame(CLIENT_MAC, design.server_mac, ip,
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

    sinks = [FrameSink(stack.eth_tx, keep_frames=False)
             for stack in design.stacks]
    design.sim.add(Source())
    design.sim.add_all(sinks)
    design.sim.run(cycles)
    payload = sum(sink.payload_bytes for sink in sinks)
    return payload * 8 / (design.sim.cycle
                          * params.CYCLE_TIME_S) / 1e9


def lb_ceiling_gbps(cycles: int = 8_000) -> float:
    """The load balancer alone: 64 B packets straight to a sink."""
    from repro.sim.kernel import CycleSimulator
    from repro.noc.mesh import Mesh
    from repro.tiles.loadbalancer import FlowHashLoadBalancerTile
    from repro.tiles.base import Tile

    class Sink(Tile):
        def __init__(self, *args, **kwargs):
            kwargs.setdefault("occupancy", 1)
            kwargs.setdefault("parse_latency", 1)
            super().__init__(*args, **kwargs)
            self.count = 0

        def handle_message(self, message, cycle):
            self.count += 1
            return []

    sim = CycleSimulator(kernel="naive")   # routers commit
    mesh = Mesh(2, 1)
    lb = FlowHashLoadBalancerTile("lb", mesh, (0, 0))
    sink = Sink("sink", mesh, (1, 0))
    lb.add_stack(sink.coord)
    mesh.register(sim)
    sim.add_all([lb, sink])
    frame = build_ipv4_udp_frame(CLIENT_MAC, CLIENT_MAC, CLIENT_IP,
                                 IPv4Address("10.0.0.2"), 1, 7,
                                 bytes(64))
    for _ in range(cycles):
        if len(lb._rx_ready) < 4:
            lb.push_frame(frame, sim.cycle)
        sim.tick()
    return sink.count * 64 * 8 / (sim.cycle
                                  * params.CYCLE_TIME_S) / 1e9


def run_fig12():
    rows = []
    for size in SIZES:
        one = multistack_goodput(1, size)
        two = multistack_goodput(2, size)
        rows.append((size, one, two))
    return rows, lb_ceiling_gbps()


def bench_fig12_multistack(benchmark, report):
    rows, ceiling = benchmark.pedantic(run_fig12, rounds=1,
                                       iterations=1)

    report.table(
        ["payload B", "1 stack Gbps", "2 stacks Gbps", "ratio"],
        [[size, one, two, f"{two / one:.2f}x"]
         for size, one, two in rows],
    )
    report.row()
    report.row(f"load-balancer ceiling at 64 B: {ceiling:.1f} Gbps "
               "(paper: 4 cycles/packet -> 32 Gbps)")

    by_size = {size: (one, two) for size, one, two in rows}
    one64, two64 = by_size[64]
    assert two64 / one64 == pytest.approx(2.0, rel=0.15)  # doubles
    one_big, two_big = by_size[4096]
    assert two_big / one_big < 1.15          # converged at large sizes
    assert ceiling == pytest.approx(32.0, rel=0.15)
