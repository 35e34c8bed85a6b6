"""The CPU Reed-Solomon baseline (Table III's comparison).

The paper runs the open-source BackBlaze encoder on CPU cores and
duplicates it across cores; each core sustains ~2 Gbps.  The baseline
here is the same codec (:class:`ReedSolomonCodec` is that
construction) with a calibrated per-core throughput and a socket
energy model, so Table III's goodput and mJ/op columns can be
regenerated for 1-4 application instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import params
from repro.apps.reed_solomon.codec import ReedSolomonCodec


@dataclass(frozen=True)
class CpuRsResult:
    instances: int
    goodput_gbps: float
    ops_per_s: float
    power_w: float
    energy_mj_per_op: float


class CpuReedSolomonBaseline:
    """Models N copies of the BackBlaze encoder pinned to N cores."""

    def __init__(self):
        self.codec = ReedSolomonCodec(params.RS_DATA_SHARDS,
                                      params.RS_PARITY_SHARDS)

    def encode_request(self, request: bytes) -> bytes:
        """The actual computation (identical output to the tile)."""
        return self.codec.encode_request(request)

    def measure(self, instances: int) -> CpuRsResult:
        """Steady-state goodput and energy for N busy encoder cores."""
        if instances < 1:
            raise ValueError("need at least one instance")
        goodput = params.RS_CPU_CORE_GBPS * instances
        ops = goodput * 1e9 / 8 / params.RS_REQUEST_BYTES
        power = params.RS_CPU_IDLE_W + params.RS_CPU_CORE_W * instances
        return CpuRsResult(
            instances=instances,
            goodput_gbps=goodput,
            ops_per_s=ops,
            power_w=power,
            energy_mj_per_op=power / ops * 1e3,
        )
