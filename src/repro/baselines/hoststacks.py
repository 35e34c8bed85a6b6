"""Analytic models of the software network stacks and the CPU-attached
accelerator path.

These regenerate the host-side rows/curves of Table I, Fig 7, and
Fig 9:

- RTT models for the four Table I configurations, built from per-side
  traversal costs (Linux client threads, hot Linux server loops, DPDK
  busy-polling, the Beehive datapath, the Enso PCIe trampoline);
- the Demikernel single-core UDP echo goodput curve (Fig 7's CPU line);
- the Linux single-connection TCP streaming curve (Fig 9's CPU lines).

Constants live in :mod:`repro.params` with their Table I back-fits.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from repro import params
from repro.sim.rng import SeededStreams


@dataclass(frozen=True)
class RttStats:
    median_us: float
    p99_us: float
    mean_us: float


class RttModel:
    """One Table I configuration: a sum of per-side cost samplers."""

    def __init__(self, name: str, components: list):
        self.name = name
        self.components = components  # callables rng -> seconds

    def sample(self, rng: random.Random) -> float:
        return sum(component(rng) for component in self.components)

    def run(self) -> RttStats:
        n = 100_000
        rng = SeededStreams(0xEC50).stream(self.name)
        samples = sorted(self.sample(rng) for _ in range(n))
        return RttStats(
            median_us=samples[n // 2] * 1e6,
            p99_us=samples[int(n * 0.99)] * 1e6,
            mean_us=statistics.fmean(samples) * 1e6,
        )


# -- per-side cost samplers ---------------------------------------------------


def wire(rng: random.Random) -> float:
    return params.WIRE_SWITCH_ONEWAY_S


def linux_client_side(rng: random.Random) -> float:
    """One traversal of the client's Linux stack (timing harness
    thread: syscall + skb + wakeup)."""
    return params.LINUX_CLIENT_ONEWAY_S + rng.expovariate(
        1.0 / params.LINUX_STACK_JITTER_S)


def linux_server_side(rng: random.Random) -> float:
    """One traversal of the hot server loop's Linux stack — cheaper at
    the median but exposed to scheduler contention (the paper's tail
    explanation for the Linux rows of Table I)."""
    cost = params.LINUX_SERVER_ONEWAY_S + rng.expovariate(
        1.0 / params.LINUX_STACK_JITTER_S)
    if rng.random() < params.LINUX_SERVER_TAIL_PROB:
        cost += rng.expovariate(1.0 / params.LINUX_SERVER_TAIL_S)
    return cost


def dpdk_side(rng: random.Random) -> float:
    """One traversal of a busy-polling DPDK/F-Stack path."""
    return params.DPDK_STACK_ONEWAY_S + rng.expovariate(
        1.0 / params.DPDK_STACK_JITTER_S)


def beehive_server(rng: random.Random) -> float:
    """The full hardware datapath: MAC + 92-cycle stack + MAC."""
    return params.BEEHIVE_SERVER_S


def pcie_trampoline(rng: random.Random) -> float:
    """One direction of the Enso PCIe bounce (doorbell/DMA/notify)."""
    return params.PCIE_TRAMPOLINE_ONEWAY_S


def table1_configs() -> dict[str, RttModel]:
    """The four measured configurations of Table I."""
    return {
        "linux_client/beehive": RttModel(
            "linux_client/beehive",
            [linux_client_side, wire, beehive_server, wire,
             linux_client_side],
        ),
        "linux_client/linux_accel": RttModel(
            "linux_client/linux_accel",
            [linux_client_side, wire, linux_server_side,
             pcie_trampoline, pcie_trampoline, linux_server_side,
             wire, linux_client_side],
        ),
        "dpdk_client/beehive": RttModel(
            "dpdk_client/beehive",
            [dpdk_side, wire, beehive_server, wire, dpdk_side],
        ),
        "dpdk_client/dpdk_accel": RttModel(
            "dpdk_client/dpdk_accel",
            [dpdk_side, wire, dpdk_side, pcie_trampoline,
             pcie_trampoline, dpdk_side, wire, dpdk_side],
        ),
    }


# -- throughput curves ----------------------------------------------------------


def demikernel_udp_goodput_gbps(payload_bytes: int) -> float:
    """Single-core Demikernel UDP echo goodput (Fig 7's CPU curve).

    Per-packet fixed cost anchored at the paper's 584 KReq/s for 64 B,
    plus a per-byte copy/checksum cost; far below line rate even with
    jumbo frames, as Fig 7 shows.
    """
    if payload_bytes < 1:
        raise ValueError("payload must be positive")
    fixed_s = 1.0 / (params.DEMIKERNEL_UDP_SMALL_KREQS * 1e3)
    per_byte_s = params.DEMIKERNEL_PER_BYTE_NS * 1e-9
    period = fixed_s + max(0, payload_bytes - 64) * per_byte_s
    return payload_bytes * 8 / period / 1e9


def demikernel_udp_kreqs(payload_bytes: int) -> float:
    gbps = demikernel_udp_goodput_gbps(payload_bytes)
    return gbps * 1e9 / 8 / payload_bytes / 1e3


def linux_tcp_goodput_gbps(payload_bytes: int) -> float:
    """Linux single-connection TCP send goodput (Fig 9's CPU curve).

    Anchored at 843 KReq/s for the smallest payload and at the jumbo-
    frame streaming peak (batching makes CPU TCP stream better than
    CPU UDP, as the paper notes).
    """
    if payload_bytes < 1:
        raise ValueError("payload must be positive")
    fixed_s = 1.0 / (params.LINUX_TCP_SMALL_KREQS * 1e3) - \
        64 * 8 / (params.LINUX_TCP_PEAK_GBPS * 1e9)
    per_byte_s = 8 / (params.LINUX_TCP_PEAK_GBPS * 1e9)
    period = fixed_s + payload_bytes * per_byte_s
    return payload_bytes * 8 / period / 1e9


def linux_tcp_kreqs(payload_bytes: int) -> float:
    gbps = linux_tcp_goodput_gbps(payload_bytes)
    return gbps * 1e9 / 8 / payload_bytes / 1e3
