"""Design generation: from a validated spec to a runnable design,
plus the top-level wiring text (the paper's generated Verilog analog).

"Given the dimensions in the XML file, we generate declarations of all
the top-level wires between tiles [and] the subset of the port
connections for each tile that correspond to wires between NoC
routers" (section V-G).  Here the runnable artifact is the simulated
design; :func:`generate_top_level` emits the equivalent wiring text so
the Table VI lines-of-code accounting has the same meaning.
"""

from __future__ import annotations

from repro.config.registry import BuildContext
from repro.config.schema import DesignSpec, TileSpec
from repro.config.validate import validate
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address


class GeneratedDesign(Design):
    """The design a :class:`DesignSpec` describes: its tiles built by
    the registry and registered in spec order, each ``<dest>`` handed
    to its tile's ``connect``.  ``design.<tile name>`` is that tile."""

    def __init__(self, spec: DesignSpec, profile: str = "fast",
                 fault_plan=None):
        self.spec = spec
        validate(spec)
        super().__init__(spec.width, spec.height, profile)
        context = BuildContext(self.mesh, spec)
        tiles = {tile.name: context.tile(tile.name) for tile in spec.tiles}
        coords = spec.coords()
        for tile_spec in spec.tiles:
            for dest in tile_spec.dests:
                tiles[tile_spec.name].connect(
                    dest.parsed_key(),
                    [coords[name] for name in dest.targets], dest.policy)
        # The host-facing values are the design's own: what the spec
        # gave its RX tiles (one given no address accepts any, the
        # shared default included) and the first port its UDP RX tile
        # routes; a client's MAC is taught to every MAC-facing TX tile.
        self.server_mac = next(
            (MacAddress(tile.params["my_mac"]) for tile in spec.tiles
             if tile.type == "eth_rx" and "my_mac" in tile.params),
            SERVER_MAC)
        self.server_ip = next(
            (IPv4Address(tile.params["my_ip"]) for tile in spec.tiles
             if tile.type == "ip_rx" and "my_ip" in tile.params),
            SERVER_IP)
        self.udp_port = next(
            (dest.parsed_key() for tile in spec.tiles
             if tile.type == "udp_rx" for dest in tile.dests
             if dest.key.startswith("port:")), None)
        self.mac_tx = [tiles[tile.name] for tile in spec.tiles
                        if tile.type == "eth_tx" and not tile.dests]
        self.register(tiles, [chain.tiles for chain in spec.chains],
                      fault_plan)

    def __getattr__(self, name: str):
        try:
            return self.__dict__["tiles"][name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"or tile {name!r}") from None

    def tiles_named(self, prefix: str) -> list:
        """The tiles whose names start with ``prefix``, in spec order
        (``rs0 rs1 ...``: the replicas of one role)."""
        return [tile for name, tile in self.tiles.items()
                if name.startswith(prefix)]

    def add_client(self, ip: IPv4Address, mac: MacAddress) -> None:
        """Teach the TX path a client's MAC (static neighbour table)."""
        for eth_tx in self.mac_tx:
            eth_tx.add_neighbor(ip, mac)

    def inject(self, frame: bytes, cycle: int) -> None:
        self.eth_rx.push_frame(frame, cycle)


# -- top-level wiring text ------------------------------------------------------

_SIDES = (("n", 0, -1), ("s", 0, 1), ("e", 1, 0), ("w", -1, 0))


def _link_name(a, b) -> str:
    return f"noc_{a[0]}_{a[1]}__to__{b[0]}_{b[1]}"


def tile_block_lines(spec: DesignSpec, tile: TileSpec) -> list[str]:
    """The generated instantiation block for one tile.

    A plain tile is 13 lines (matching the per-instance top-level cost
    the paper reports for the Reed-Solomon tile); each next-hop entry
    adds one table-initialisation line.
    """
    lines = [f"// tile {tile.name} ({tile.type}) at "
             f"({tile.x}, {tile.y})",
             f"{tile.type}_tile #(",
             f"    .X_COORD({tile.x}),",
             f"    .Y_COORD({tile.y})",
             f") {tile.name}_inst ("]
    for side, dx, dy in _SIDES:
        neighbor = (tile.x + dx, tile.y + dy)
        if 0 <= neighbor[0] < spec.width and \
                0 <= neighbor[1] < spec.height:
            lines.append(f"    .noc_{side}_in"
                         f"({_link_name(neighbor, tile.coord)}),")
            lines.append(f"    .noc_{side}_out"
                         f"({_link_name(tile.coord, neighbor)}),")
        else:
            lines.append(f"    .noc_{side}_in(512'b0),")
            lines.append(f"    .noc_{side}_out(),")
    for index, dest in enumerate(tile.dests):
        lines.append(f"    .next_hop_init_{index}"
                     f"('{{{dest.key}: {' '.join(dest.targets)}}}),")
    lines[-1] = lines[-1].rstrip(",")
    lines.append(");")
    return lines


def generate_top_level(spec: DesignSpec) -> str:
    """Wire declarations plus one instantiation block per tile (with
    auto-generated empty tiles for unoccupied coordinates)."""
    validate(spec)
    lines = [f"// Auto-generated top level for design "
             f"'{spec.name}' ({spec.width}x{spec.height} mesh)"]
    for y in range(spec.height):
        for x in range(spec.width):
            for side, dx, dy in _SIDES:
                nx, ny = x + dx, y + dy
                if 0 <= nx < spec.width and 0 <= ny < spec.height:
                    lines.append(
                        f"wire [511:0] {_link_name((x, y), (nx, ny))};"
                    )
    for tile in spec.tiles:
        lines.append("")
        lines.extend(tile_block_lines(spec, tile))
    for x, y in spec.empty_coords():
        lines.append("")
        empty = TileSpec(name=f"empty_{x}_{y}", type="empty", x=x, y=y)
        lines.extend(tile_block_lines(spec, empty))
    return "\n".join(lines) + "\n"
