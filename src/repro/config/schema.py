"""Design description objects, mirroring the paper's XML schema."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DestSpec:
    """A next-hop entry: traffic matching ``key`` goes to ``targets``.

    ``key`` is ``"<kind>:<value>"`` — e.g. ``ethertype:2048``,
    ``proto:17``, ``port:7000`` — or ``"default"``.  Multiple targets
    are load balanced with ``policy`` (``flow_hash`` keeps flows
    sticky, ``round_robin`` sprays).
    """

    key: str
    targets: list[str]
    policy: str = "flow_hash"

    def parsed_key(self):
        if self.key == "default":
            return "default"
        kind, _, value = self.key.partition(":")
        if kind in ("ethertype", "proto", "port"):
            return int(value, 0)
        return self.key


@dataclass
class TileSpec:
    """One NoC tile endpoint: name, type, coordinates, parameters."""

    name: str
    type: str
    x: int
    y: int
    params: dict = field(default_factory=dict)
    dests: list[DestSpec] = field(default_factory=list)

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass
class ChainSpec:
    """A declared message chain for the deadlock analysis."""

    tiles: list[str]


@dataclass
class DesignSpec:
    """A whole design: dimensions plus tiles plus chains."""

    name: str
    width: int
    height: int
    tiles: list[TileSpec] = field(default_factory=list)
    chains: list[ChainSpec] = field(default_factory=list)

    def tile(self, name: str) -> TileSpec:
        for tile in self.tiles:
            if tile.name == name:
                return tile
        raise KeyError(f"no tile named {name!r} in design {self.name!r}")

    def coords(self) -> dict[str, tuple[int, int]]:
        return {tile.name: tile.coord for tile in self.tiles}

    def occupied(self) -> set[tuple[int, int]]:
        return {tile.coord for tile in self.tiles}

    def empty_coords(self) -> list[tuple[int, int]]:
        """Unoccupied mesh positions — auto-filled with router-only
        (empty) tiles, like the bottom-right tile of Fig 8a."""
        occupied = self.occupied()
        return [(x, y) for y in range(self.height)
                for x in range(self.width) if (x, y) not in occupied]
