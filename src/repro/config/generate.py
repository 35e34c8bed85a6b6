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

from collections.abc import Callable

from repro.config.schema import DesignSpec, TileSpec
from repro.config.validate import validate
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address
from repro.tiles.buffer import BufferTile
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.ipinip import IpInIpDecapTile, IpInIpEncapTile
from repro.tiles.loadbalancer import FlowHashLoadBalancerTile
from repro.tiles.logger import PacketLogTile
from repro.tiles.nat import NatRxTile, NatTable, NatTxTile
from repro.tiles.scheduler import RoundRobinSchedulerTile
from repro.tiles.udp import UdpRxTile, UdpTxTile
from repro.apps.echo import UdpEchoAppTile


class BuildContext:
    """Shared state threaded through tile factories (e.g. the NAT
    table shared by a NAT RX/TX pair)."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.shared_tables: dict[str, NatTable] = {}

    def nat_table(self, name: str) -> NatTable:
        if name not in self.shared_tables:
            self.shared_tables[name] = NatTable()
        return self.shared_tables[name]


def _float_or_none(text: str):
    return None if text.lower() in ("none", "unlimited") else float(text)


def _make_eth_rx(spec, ctx):
    mac = spec.params.get("my_mac")
    return EthernetRxTile(spec.name, ctx.mesh, spec.coord,
                          my_mac=MacAddress(mac) if mac else None)


def _make_eth_tx(spec, ctx):
    return EthernetTxTile(
        spec.name, ctx.mesh, spec.coord,
        my_mac=MacAddress(spec.params["my_mac"]),
        line_rate_bytes_per_cycle=_float_or_none(
            spec.params.get("line_rate", "50.0")),
    )


def _make_ip_rx(spec, ctx):
    ip = spec.params.get("my_ip")
    return IpRxTile(spec.name, ctx.mesh, spec.coord,
                    my_ip=IPv4Address(ip) if ip else None)


def _make_nat(cls):
    def factory(spec, ctx):
        table = ctx.nat_table(spec.params.get("table", "default"))
        return cls(spec.name, ctx.mesh, spec.coord, table=table)
    return factory


TILE_TYPES: dict[str, Callable] = {
    "eth_rx": _make_eth_rx,
    "eth_tx": _make_eth_tx,
    "ip_rx": _make_ip_rx,
    "ip_tx": lambda s, c: IpTxTile(s.name, c.mesh, s.coord),
    "udp_rx": lambda s, c: UdpRxTile(s.name, c.mesh, s.coord),
    "udp_tx": lambda s, c: UdpTxTile(s.name, c.mesh, s.coord),
    "echo_app": lambda s, c: UdpEchoAppTile(s.name, c.mesh, s.coord),
    "buffer": lambda s, c: BufferTile(
        s.name, c.mesh, s.coord,
        size_bytes=int(s.params.get("size_bytes", 262144))),
    "nat_rx": _make_nat(NatRxTile),
    "nat_tx": _make_nat(NatTxTile),
    "ipinip_encap": lambda s, c: IpInIpEncapTile(
        s.name, c.mesh, s.coord,
        tunnel_src=IPv4Address(s.params["tunnel_src"])),
    "ipinip_decap": lambda s, c: IpInIpDecapTile(s.name, c.mesh, s.coord),
    "log": lambda s, c: PacketLogTile(
        s.name, c.mesh, s.coord,
        direction=s.params.get("direction", "rx"),
        capacity=int(s.params.get("capacity", 4096))),
    "load_balancer": lambda s, c: FlowHashLoadBalancerTile(
        s.name, c.mesh, s.coord),
    "rr_scheduler": lambda s, c: RoundRobinSchedulerTile(
        s.name, c.mesh, s.coord),
}


def _make_rs(spec, ctx):
    from repro.apps.reed_solomon.tile import RsEncoderTile
    return RsEncoderTile(
        spec.name, ctx.mesh, spec.coord,
        data_shards=int(spec.params.get("data_shards", 8)),
        parity_shards=int(spec.params.get("parity_shards", 2)),
        gbps=float(spec.params.get("gbps", 15.0)),
    )


def _make_vr_witness(spec, ctx):
    from repro.apps.vr.tile import VrWitnessTile
    return VrWitnessTile(spec.name, ctx.mesh, spec.coord,
                         shard=int(spec.params.get("shard", 0)))


def _make_vxlan_encap(spec, ctx):
    from repro.tiles.vxlan import VxlanEncapTile
    return VxlanEncapTile(spec.name, ctx.mesh, spec.coord,
                          vtep_ip=IPv4Address(spec.params["vtep_ip"]),
                          vni=int(spec.params["vni"]))


def _make_vxlan_decap(spec, ctx):
    from repro.tiles.vxlan import VxlanDecapTile
    tile = VxlanDecapTile(spec.name, ctx.mesh, spec.coord)
    if "vni" in spec.params:
        tile.allow_vni(int(spec.params["vni"]))
    return tile


TILE_TYPES["vxlan_encap"] = _make_vxlan_encap
TILE_TYPES["vxlan_decap"] = _make_vxlan_decap
TILE_TYPES["rs_encoder"] = _make_rs
TILE_TYPES["vr_witness"] = _make_vr_witness


def register_tile_type(type_name: str, factory: Callable) -> None:
    """Extend the registry (applications register their tiles here)."""
    TILE_TYPES[type_name] = factory


class GeneratedDesign(Design):
    """A design built from a :class:`DesignSpec`."""

    def __init__(self, spec: DesignSpec, profile: str = "fast"):
        self.spec = spec
        self.report = validate(spec)
        super().__init__(spec.width, spec.height, profile)
        context = BuildContext(self.mesh)
        self.tiles: dict[str, object] = {}
        for tile_spec in spec.tiles:
            factory = TILE_TYPES.get(tile_spec.type)
            if factory is None:
                raise KeyError(
                    f"unknown tile type {tile_spec.type!r} "
                    f"(registered: {sorted(TILE_TYPES)})"
                )
            self.tiles[tile_spec.name] = factory(tile_spec, context)
        self._wire_dests(spec)
        self.register(self.tiles,
                      [chain.tiles for chain in spec.chains])

    def _wire_dests(self, spec: DesignSpec) -> None:
        coords = spec.coords()
        for tile_spec in spec.tiles:
            tile = self.tiles[tile_spec.name]
            for dest in tile_spec.dests:
                targets = [coords[name] for name in dest.targets]
                if isinstance(tile, RoundRobinSchedulerTile):
                    for coord in targets:
                        tile.add_replica(coord)
                elif isinstance(tile, FlowHashLoadBalancerTile):
                    for coord in targets:
                        tile.add_stack(coord)
                elif isinstance(tile, PacketLogTile):
                    tile.next_hop.set_entry(PacketLogTile.FORWARD,
                                            targets)
                elif hasattr(tile, "next_hop"):
                    if len(targets) > 1:
                        tile.next_hop.policy = dest.policy
                    tile.next_hop.set_entry(dest.parsed_key(), targets)
                else:
                    raise ValueError(
                        f"tile {tile_spec.name!r} ({tile_spec.type}) "
                        "cannot take destinations"
                    )

    # -- conveniences ------------------------------------------------------

    def _find(self, cls):
        return [tile for tile in self.tiles.values()
                if isinstance(tile, cls)]

    @property
    def eth_rx(self) -> EthernetRxTile:
        return self._find(EthernetRxTile)[0]

    @property
    def eth_tx(self) -> EthernetTxTile:
        return self._find(EthernetTxTile)[0]

    # The host-facing values are the design's own: what the spec gave
    # its RX tiles (one given no address accepts any, the shared
    # default included) and the first port its UDP RX tile routes.

    @property
    def server_mac(self) -> MacAddress:
        return next((tile.my_mac for tile in self._find(EthernetRxTile)
                     if tile.my_mac is not None), SERVER_MAC)

    @property
    def server_ip(self) -> IPv4Address:
        return next((tile.my_ip for tile in self._find(IpRxTile)
                     if tile.my_ip is not None), SERVER_IP)

    @property
    def udp_port(self) -> int | None:
        return next((key for tile in self._find(UdpRxTile)
                     for key in tile.next_hop.keys()
                     if isinstance(key, int)), None)

    def add_client(self, ip: IPv4Address, mac: MacAddress) -> None:
        for eth_tx in self._find(EthernetTxTile):
            eth_tx.add_neighbor(ip, mac)


def build_design(spec: DesignSpec) -> GeneratedDesign:
    return GeneratedDesign(spec)


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
