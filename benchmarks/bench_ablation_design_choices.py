"""Ablations over the reproduction's design choices.

Not a paper table — sensitivity checks on the knobs DESIGN.md calls
out, so a reader can see *why* the calibrated defaults behave like the
paper:

1. tile buffering: jumbo-frame goodput vs per-tile buffer, showing the
   pipeline bubble when a tile cannot hold two max-size messages (the
   store-and-forward model's one artefact, and why the default is
   sized at ~2 jumbo messages);
2. router input FIFO depth: shallow FIFOs already sustain full
   throughput under credit backpressure (why OpenPiton-style small
   buffers are enough);
3. TCP engine occupancy: single-connection KReq/s tracks 250 MHz /
   occupancy (the Fig 9 calibration is structural, not a fit);
4. control-plane isolation: saturating the *separate* control NoC
   does not perturb data-plane goodput (the section IV-F rationale).
"""

import pytest

from repro import params
from repro.control.messages import CounterRead
from repro.designs import (
    CLIENT_IP,
    CLIENT_MAC,
    UdpEchoDesign,
    saturation_goodput,
)
from repro.designs.managed_stack import ManagedNatEchoDesign
from repro.noc import Mesh, NocMessage
from repro.packet import IPv4Address
from repro.sim.kernel import CycleSimulator, no_commit
from repro.tiles.base import Tile


def buffer_ablation():
    rows = []
    for buffer_flits in (64, 120, 320):
        design = UdpEchoDesign(udp_port=7,
                               line_rate_bytes_per_cycle=None)
        for tile in design.tiles.values():
            tile.buffer_flits = buffer_flits
        rows.append((buffer_flits, saturation_goodput(
            design, bytes(9000), 60_000, warmup_frames=20).gbps))
    return rows


class _Relay(Tile):
    def __init__(self, *args, dest, **kwargs):
        kwargs.setdefault("occupancy", 1)
        kwargs.setdefault("parse_latency", 1)
        super().__init__(*args, **kwargs)
        self.dest = dest

    def handle_message(self, message, cycle):
        if self.dest is None:
            return []
        return [self.make_message(self.dest, metadata=message.metadata,
                                  data=message.data)]


def fifo_depth_ablation():
    rows = []
    for depth in (1, 2, 4, 8):
        sim = CycleSimulator(kernel="naive")   # routers commit
        mesh = Mesh(3, 1, fifo_depth=depth)
        src = mesh.attach((0, 0))
        relay = _Relay("relay", mesh, (1, 0), dest=(2, 0))
        sink = _Relay("sink", mesh, (2, 0), dest=None)
        mesh.register(sim)
        sim.add_all([relay, sink])
        for i in range(60):
            src.send(NocMessage(dst=(1, 0), src=(0, 0), metadata=i,
                                data=bytes(512)))
        cycles = sim.run_until(lambda: sink.messages_in == 60,
                               max_cycles=10_000)
        flits = 60 * 10  # hdr + meta + 8 data each
        rows.append((depth, flits / cycles))
    return rows


def tcp_occupancy_ablation():
    from repro.designs.tcp_stack import TcpServerDesign
    from repro.tcp.app import TcpSourceAppTile
    from repro.tcp.peer import SoftTcpPeer

    rows = []
    for occupancy in (47, 94, 188):
        design = TcpServerDesign(
            tcp_port=5000, app_tile_cls=TcpSourceAppTile,
            request_size=64, mss=64, chunk_size=16384,
            line_rate_bytes_per_cycle=50.0,
        )
        design.tcp_tx.occupancy = occupancy
        design.add_client(CLIENT_IP, CLIENT_MAC)
        peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                           design.server_ip, 5000, wire_cycles=100,
                           service_cycles=2, window=60_000)
        design.sim.add(peer)
        peer.connect()
        design.sim.run(30_000)
        base = len(peer.received)
        start = design.sim.cycle
        design.sim.run(40_000)
        rate = (len(peer.received) - base) / 64 / (
            (design.sim.cycle - start) * params.CYCLE_TIME_S) / 1e3
        rows.append((occupancy, rate, 250e3 / occupancy))
    return rows


def control_plane_isolation():
    def run(with_control_storm: bool) -> float:
        design = ManagedNatEchoDesign(udp_port=7)
        design.map_client(IPv4Address("172.16.0.1"), CLIENT_IP,
                          CLIENT_MAC)
        if with_control_storm:
            # Saturate the control NoC with telemetry reads.
            nat_ep = design.endpoints["nat"]
            controller_ep = design.endpoints["controller"]

            class Storm:
                def step(self, cycle):
                    controller_ep.send(
                        nat_ep.coord,
                        CounterRead(name="translations",
                                    reply_to=controller_ep.coord),
                    )
                    controller_ep.pop_replies()

                commit = no_commit

            design.sim.add(Storm())
        design.eth_tx.line_rate = None
        return saturation_goodput(design, bytes(256), 20_000,
                                  warmup_frames=20).gbps

    return run(False), run(True)


def run_ablations():
    return {
        "buffer": buffer_ablation(),
        "fifo": fifo_depth_ablation(),
        "tcp": tcp_occupancy_ablation(),
        "control": control_plane_isolation(),
    }


def bench_ablation_design_choices(benchmark, report):
    results = benchmark.pedantic(run_ablations, rounds=1, iterations=1)

    report.row("1) per-tile buffering vs 9000 B goodput (a cap "
               "below one 143-flit jumbo message forces a "
               "drain-before-next-message bubble):")
    report.table(["buffer flits", "goodput Gbps"], results["buffer"])
    report.row("\n2) router input FIFO depth vs sustained flit rate:")
    report.table(["fifo depth", "flits/cycle"], results["fifo"])
    report.row("\n3) TCP engine occupancy vs measured KReq/s "
               "(model: 250e3/occupancy):")
    report.table(["occupancy cy", "measured KReq/s", "model KReq/s"],
                 results["tcp"])
    quiet, stormy = results["control"]
    report.row(f"\n4) data-plane goodput without/with a control-NoC "
               f"storm: {quiet:.1f} / {stormy:.1f} Gbps "
               "(separate NoC -> no contention, section IV-F)")

    buffers = dict(results["buffer"])
    assert buffers[320] > buffers[64] * 1.05   # the bubble is real
    fifo = dict(results["fifo"])
    assert fifo[4] > 0.9                        # shallow FIFOs suffice
    assert fifo[4] >= fifo[1]
    for occupancy, measured, model in results["tcp"]:
        assert measured == pytest.approx(model, rel=0.06)
    assert stormy == pytest.approx(quiet, rel=0.05)  # isolation holds
