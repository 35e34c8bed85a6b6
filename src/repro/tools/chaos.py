"""Chaos-testing CLI: seed-swept fault injection with invariants.

``python -m repro.tools.chaos`` builds the shipped designs under
hostile :class:`~repro.faults.plan.FaultPlan`\\ s and asserts the
recovery properties the reproduction claims:

- **udp**: the echo stack under wire drop/corrupt/duplicate/reorder/
  delay plus a tile freeze and a link stall never raises, never emits
  a malformed frame, and every echoed payload is one the client sent
  (corrupted traffic is dropped by checksums, not echoed).
- **tcp**: a client behind a lossy wire still delivers its full byte
  stream — the engines retransmit to completion.
- **vr**: a frozen leader triggers a view change and the promoted
  leader completes operations.
- **design:<name>**: any shipped design fed deterministic garbage
  (random bytes, truncated frames, flipped bits) must drop it without
  raising — the paper's "hostile traffic is dropped, never crashed
  on".

Every scenario is deterministic per seed; ``--seeds N`` sweeps N
consecutive seeds from ``--base-seed``.  Cycle-level runs are bounded
by ``--budget-s`` of wall clock via the kernel's
``wall_clock_budget_s`` hook, so a wedged design fails instead of
hanging CI.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.faults import FaultPlan, apply_vr_faults, attach_faults
from repro.sim.kernel import WallClockBudgetExceeded


def _run_cycles(design, end_cycle: int, budget_s: float) -> None:
    design.sim.run_until(lambda: design.sim.cycle >= end_cycle,
                         max_cycles=end_cycle + 10,
                         wall_clock_budget_s=budget_s)


def _udp_plan(seed: int, loss: float) -> FaultPlan:
    """The full hostile plan for the echo stack.

    Ejection corruption targets only the UDP RX tile's port — after
    it, payloads are checksum-validated, so corrupting later hops
    would legitimately alter egress and void the payload-set
    invariant.
    """
    return (FaultPlan(seed=seed)
            .wire(drop=loss, corrupt=0.05, duplicate=0.05,
                  reorder=0.1, delay=0.2)
            .freeze_tile("app", at=500, duration=400)
            .stall_link((3, 0), at=1500, duration=200)
            .corrupt_flits(0.05, coords=[(2, 0)]))


def run_udp_echo(seed: int, budget_s: float,
                 loss: float) -> tuple[list[str], str]:
    from repro.designs.harness import (
        CLIENT_IP,
        CLIENT_MAC,
        FrameSink,
        client_frame,
    )
    from repro.designs.udp_stack import UdpEchoDesign

    design = UdpEchoDesign(fault_plan=_udp_plan(seed, loss))
    design.add_client(CLIENT_IP, CLIENT_MAC)
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)

    sent_payloads = set()
    n_frames = 60
    for i in range(n_frames):
        payload = b"chaos-%03d-%d" % (i, seed)
        sent_payloads.add(payload)
        design.inject(client_frame(design, payload), 1 + i * 40)

    failures: list[str] = []
    try:
        _run_cycles(design, n_frames * 40 + 20_000, budget_s)
    except WallClockBudgetExceeded:
        failures.append(f"wall-clock budget {budget_s}s exceeded")
    except Exception as error:  # noqa: BLE001 - the invariant itself
        failures.append(f"raised {type(error).__name__}: {error}")

    if sink.malformed:
        failures.append(f"{sink.malformed} malformed egress frames")
    from repro.packet.builder import parse_frame
    for frame, _cycle in sink.frames:
        payload = parse_frame(frame).payload
        if payload not in sent_payloads:
            failures.append(f"echoed a payload never sent: {payload!r}")
            break
    engine = design.fault_engine
    counters = dict(engine.counters) if engine else {}
    return failures, (f"echoed {sink.count}/{n_frames}, "
                      f"faults={sum(counters.values())}")


def run_tcp_server(seed: int, budget_s: float,
                   loss: float) -> tuple[list[str], str]:
    from repro.designs.harness import CLIENT_IP, CLIENT_MAC
    from repro.designs.tcp_stack import TcpServerDesign
    from repro.tcp.peer import SoftTcpPeer

    plan = FaultPlan(seed=seed).wire(drop=loss)
    design = TcpServerDesign(tcp_port=5000, request_size=64,
                             fault_plan=plan)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    peer = SoftTcpPeer(design, CLIENT_IP, CLIENT_MAC,
                       design.server_ip, 5000, wire_cycles=50)
    design.sim.add(peer)

    payload = bytes(random.Random(seed).randrange(256)
                    for _ in range(1024))
    failures: list[str] = []
    try:
        peer.connect()
        design.sim.run_until(lambda: peer.established,
                             max_cycles=500_000,
                             wall_clock_budget_s=budget_s)
        peer.send(payload)
        design.sim.run_until(
            lambda: len(peer.received) >= len(payload),
            max_cycles=5_000_000, wall_clock_budget_s=budget_s)
    except WallClockBudgetExceeded:
        failures.append(f"wall-clock budget {budget_s}s exceeded")
    except TimeoutError:
        failures.append(
            f"stream incomplete: {len(peer.received)}/{len(payload)} "
            f"bytes after cycle budget")
    except Exception as error:  # noqa: BLE001 - the invariant itself
        failures.append(f"raised {type(error).__name__}: {error}")
    else:
        if bytes(peer.received[:len(payload)]) != payload:
            failures.append("echoed stream differs from sent stream")
    engine = design.fault_engine
    drops = engine.counters.get("wire.drop", 0) if engine else 0
    return failures, (f"{len(peer.received)}B echoed, "
                      f"{peer.retransmits} retransmits, "
                      f"{drops} frames dropped")


def run_vr_cluster(seed: int, budget_s: float) -> tuple[list[str], str]:
    from repro.apps.vr.cluster import VrExperiment

    plan = (FaultPlan(seed=seed)
            .vr_freeze("leader", shard=0, at_s=0.05, duration_s=1.0))
    experiment = VrExperiment(
        shards=2, witness_kind="fpga", n_clients=4, seed=seed,
        view_change_timeout_s=0.01, client_retry_s=0.01)
    apply_vr_faults(experiment, plan)

    failures: list[str] = []
    try:
        result = experiment.run(duration_s=0.3, warmup_s=0.02)
    except Exception as error:  # noqa: BLE001 - the invariant itself
        return [f"raised {type(error).__name__}: {error}"], ""
    if experiment.view_changes < 1:
        failures.append("frozen leader never triggered a view change")
    else:
        new_leader = experiment.leaders[0]
        if new_leader.view < 1:
            failures.append("shard 0 still on view 0 after fail-over")
        if new_leader.completed == 0:
            failures.append("promoted leader completed no operations")
    if result.throughput_kops <= 0:
        failures.append("cluster made no progress under the fault")
    return failures, (f"{result.throughput_kops:.1f} kops, "
                      f"{experiment.view_changes} view changes, "
                      f"{sum(c.retries for c in experiment.clients)} "
                      f"client retries")


def _hostile_frames(seed: int, count: int = 40):
    """Deterministic garbage: random bytes, runts, flipped-bit frames."""
    from repro.designs.base import SERVER_MAC
    from repro.designs.harness import CLIENT_MAC
    from repro.packet.ethernet import EthernetHeader

    header = EthernetHeader(dst=SERVER_MAC, src=CLIENT_MAC).pack()
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:  # pure noise
            yield bytes(rng.randrange(256)
                        for _ in range(rng.randrange(14, 200)))
        elif kind == 1:  # runt
            yield bytes(rng.randrange(256)
                        for _ in range(rng.randrange(0, 14)))
        else:  # plausible Ethernet/IPv4 header, garbage after
            yield header + bytes(rng.randrange(256)
                                 for _ in range(rng.randrange(10, 120)))


def run_design_hostile(name: str, seed: int,
                       budget_s: float) -> tuple[list[str], str]:
    from repro.designs import SHIPPED, FrameSink, load_design

    if name not in SHIPPED:
        return [f"unknown design {name!r} "
                f"(have {', '.join(sorted(SHIPPED))})"], ""
    design = load_design(name)[1]()
    attach_faults(design, FaultPlan(seed=seed).wire(
        drop=0.1, corrupt=0.2, duplicate=0.05, reorder=0.1, delay=0.1))
    sink = None
    if hasattr(design, "eth_tx"):
        sink = FrameSink(design.eth_tx, keep_frames=False)
        design.sim.add(sink)

    failures: list[str] = []
    frames = 0
    try:
        for i, frame in enumerate(_hostile_frames(seed)):
            design.inject(frame, 1 + i * 30)
            frames += 1
        _run_cycles(design, frames * 30 + 10_000, budget_s)
    except WallClockBudgetExceeded:
        failures.append(f"wall-clock budget {budget_s}s exceeded")
    except Exception as error:  # noqa: BLE001 - the invariant itself
        failures.append(f"raised {type(error).__name__}: {error}")
    if sink is not None and sink.malformed:
        failures.append(f"{sink.malformed} malformed egress frames")
    return failures, f"{frames} hostile frames survived"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.chaos",
        description="Seed-swept chaos tests over the shipped designs.")
    parser.add_argument(
        "targets", nargs="*", default=None,
        help="udp, tcp, vr, all, or design:<name> (hostile-traffic "
             "soak of any shipped design)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="seeds per target (default 3)")
    parser.add_argument("--base-seed", type=int, default=101,
                        help="first seed of the sweep (default 101)")
    parser.add_argument("--budget-s", type=float, default=60.0,
                        help="wall-clock budget per run (default 60)")
    parser.add_argument("--loss", type=float, default=0.01,
                        help="wire frame-loss probability (default 1%%)")
    args = parser.parse_args(argv)

    targets = list(args.targets) or ["all"]
    if "all" in targets:
        targets = [t for t in targets if t != "all"]
        for name in ("udp", "tcp", "vr"):
            if name not in targets:
                targets.append(name)

    failed = 0
    for target in targets:
        for seed in range(args.base_seed, args.base_seed + args.seeds):
            if target == "udp":
                failures, detail = run_udp_echo(seed, args.budget_s,
                                                args.loss)
            elif target == "tcp":
                failures, detail = run_tcp_server(seed, args.budget_s,
                                                  args.loss)
            elif target == "vr":
                failures, detail = run_vr_cluster(seed, args.budget_s)
            elif target.startswith("design:"):
                failures, detail = run_design_hostile(
                    target[len("design:"):], seed, args.budget_s)
            else:
                parser.error(f"unknown target {target!r} "
                             "(udp, tcp, vr, all, design:<name>)")
            status = "PASS" if not failures else "FAIL"
            print(f"chaos {target} seed={seed}: {status}"
                  + (f" ({detail})" if detail else ""))
            for failure in failures:
                failed += 1
                print(f"  - {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
