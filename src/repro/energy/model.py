"""CPU (RAPL-like) and FPGA (CMS-like) power/energy models."""

from __future__ import annotations

from dataclasses import dataclass

from repro import params


class CpuEnergyModel:
    """Socket power = baseline + marginal power x core utilisation.

    ``utilisation`` is total busy-core equivalents (2.0 = two cores
    fully busy).  Busy-polling cores count as fully busy regardless of
    useful work, which is what makes kernel-bypass stacks power-hungry
    at low load.
    """

    def __init__(self, idle_w: float, core_w: float):
        self.idle_w = idle_w
        self.core_w = core_w

    def power_w(self, utilisation: float) -> float:
        if utilisation < 0:
            raise ValueError("utilisation must be >= 0")
        return self.idle_w + self.core_w * utilisation


@dataclass(frozen=True)
class TileActivity:
    """One tile's contribution to FPGA power: present + how busy."""

    name: str
    utilisation: float  # 0..1


class FpgaEnergyModel:
    """Board power = static + per-tile idle + utilisation-scaled
    dynamic power, mirroring what the CMS registers report."""

    def power_w(self, tiles: list[TileActivity]) -> float:
        power = params.FPGA_STATIC_W
        for tile in tiles:
            if not 0.0 <= tile.utilisation <= 1.0:
                raise ValueError(
                    f"tile {tile.name!r} utilisation "
                    f"{tile.utilisation} outside [0, 1]"
                )
            power += params.FPGA_TILE_IDLE_W
            power += params.FPGA_TILE_ACTIVE_W * tile.utilisation
        return power

    def mj_per_op(self, tiles: list[TileActivity],
                  ops_per_s: float) -> float:
        if ops_per_s <= 0:
            raise ValueError("ops_per_s must be positive")
        return self.power_w(tiles) / ops_per_s * 1e3


