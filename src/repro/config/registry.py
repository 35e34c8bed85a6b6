"""The tile-type registry: what a spec's ``<type>`` builds.

One entry per type says which class it is (imported when a spec first
names it, so a UDP echo loads no NAT, TCP or numpy), which ``<param>``s
it takes and how each parses, and which are required — what
:func:`repro.analysis.structural.lint_spec` checks before anything is
built and what :meth:`TileType.build` hands the constructor, so the two
cannot disagree.  Parameters that name another tile or shared state (a
NAT pair's table, the TCP engines' flow table, the control plane)
resolve through the :class:`BuildContext` in the entry's ``bind``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from importlib import import_module

from repro.config.schema import DesignSpec, TileSpec
from repro.packet.ethernet import MacAddress
from repro.packet.ipv4 import IPv4Address


class BuildContext:
    """What tile factories share while one design is built: the mesh,
    the tiles built so far, and state owned by no single tile."""

    def __init__(self, mesh, spec: DesignSpec):
        self.mesh = mesh
        self.specs = {tile.name: tile for tile in spec.tiles}
        self.tiles: dict[str, object] = {}
        self._shared: dict[str, object] = {}

    def tile(self, name: str):
        """The tile called ``name`` — built now if a factory names it
        (a TCP engine its buffer) before its turn in spec order."""
        if name not in self.tiles:
            spec = self.specs[name]
            self.tiles[name] = TILE_TYPES[spec.type].build(spec, self)
        return self.tiles[name]

    def shared(self, key: str, make: Callable[[], object]):
        """The one object called ``key``, made by whoever asks first."""
        if key not in self._shared:
            self._shared[key] = make()
        return self._shared[key]


@dataclass(frozen=True)
class TileType:
    """One registry entry.

    ``cls`` is the tile class or its ``module:Class`` path; ``params``
    maps a ``<param>`` name to the parser of its text (a ``ValueError``
    is a lint finding) and is passed to the constructor under that
    name; a ``required`` name that ``params`` does not parse names
    another tile.  ``bind(values, spec, context)`` edits the parsed
    ``values`` in place into constructor keywords: renames, and the
    tiles and shared objects the references stand for.  It reads no
    ``<param>`` but those two name: any other is a lint error.
    """

    cls: str | type
    params: dict[str, Callable[[str], object]] = field(default_factory=dict)
    required: tuple[str, ...] = ()
    bind: Callable[[dict, TileSpec, BuildContext], None] | None = None

    def tile_class(self) -> type:
        if isinstance(self.cls, type):
            return self.cls
        module, _, name = self.cls.partition(":")
        return getattr(import_module(module), name)

    def build(self, spec: TileSpec, context: BuildContext):
        values = {name: parse(spec.params[name])
                  for name, parse in self.params.items()
                  if name in spec.params}
        if self.bind is not None:
            self.bind(values, spec, context)
        return self.tile_class()(spec.name, context.mesh, spec.coord,
                                 **values)


def _float_or_none(text: str) -> float | None:
    return None if text.lower() in ("none", "unlimited") else float(text)


def _int(text: str) -> int:
    return int(text, 0)


def _eth_tx(values: dict, spec: TileSpec, context: BuildContext) -> None:
    if "line_rate" in values:
        values["line_rate_bytes_per_cycle"] = values.pop("line_rate")


def _nat_table(values: dict, spec: TileSpec, context: BuildContext) -> None:
    from repro.tiles.nat import NatTable
    name = values.get("table", "default")
    values["table"] = context.shared(f"nat_table:{name}", NatTable)


def _flow_table(values: dict, context: BuildContext):
    from repro.tcp.flow import FlowTable
    size = values.pop("max_flows", 16)
    return context.shared("flow_table", lambda: FlowTable(max_flows=size))


def _tcp_rx(values: dict, spec: TileSpec, context: BuildContext) -> None:
    values.update(flows=_flow_table(values, context),
                  rx_buffer=context.tile(spec.params["rx_buffer"]),
                  tx_engine=context.tile(spec.params["tx_engine"]))


def _tcp_tx(values: dict, spec: TileSpec, context: BuildContext) -> None:
    values.update(flows=_flow_table(values, context),
                  tx_buffer=context.tile(spec.params["tx_buffer"]))


_TCP_APP_ROLES = ("tcp_rx", "tcp_tx", "rx_buffer", "tx_buffer")


def _tcp_app(values: dict, spec: TileSpec, context: BuildContext) -> None:
    for role in _TCP_APP_ROLES:
        values[f"{role}_coord"] = context.specs[spec.params[role]].coord


def tcp_app_type(cls: str | type) -> TileType:
    """The entry for a TCP application class: it addresses its two
    engines and two buffers by coordinate."""
    return TileType(cls, {"request_size": _int, "chunk_size": _int,
                          "total_bytes": _int},
                    required=_TCP_APP_ROLES, bind=_tcp_app)


def _controller(values: dict, spec: TileSpec, context: BuildContext) -> None:
    from repro.control.plane import ControlPlane
    plane = context.shared("control_plane",
                           lambda: ControlPlane(context.mesh))
    values["endpoint"] = plane.attach(spec.coord, spec.name)


TILE_TYPES: dict[str, TileType] = {
    "eth_rx": TileType("repro.tiles.ethernet:EthernetRxTile",
                       {"my_mac": MacAddress}),
    "eth_tx": TileType("repro.tiles.ethernet:EthernetTxTile",
                       {"my_mac": MacAddress, "line_rate": _float_or_none},
                       required=("my_mac",), bind=_eth_tx),
    "ip_rx": TileType("repro.tiles.ip:IpRxTile", {"my_ip": IPv4Address}),
    "ip_tx": TileType("repro.tiles.ip:IpTxTile"),
    "udp_rx": TileType("repro.tiles.udp:UdpRxTile"),
    "udp_tx": TileType("repro.tiles.udp:UdpTxTile"),
    "echo_app": TileType("repro.apps.echo:UdpEchoAppTile"),
    "buffer": TileType("repro.tiles.buffer:BufferTile",
                       {"size_bytes": _int}),
    "nat_rx": TileType("repro.tiles.nat:NatRxTile", {"table": str},
                       bind=_nat_table),
    "nat_tx": TileType("repro.tiles.nat:NatTxTile", {"table": str},
                       bind=_nat_table),
    "ipinip_encap": TileType("repro.tiles.ipinip:IpInIpEncapTile",
                             {"tunnel_src": IPv4Address},
                             required=("tunnel_src",)),
    "ipinip_decap": TileType("repro.tiles.ipinip:IpInIpDecapTile"),
    "log": TileType("repro.tiles.logger:PacketLogTile",
                    {"direction": str, "capacity": _int,
                     "readback_port": _int}),
    "load_balancer": TileType(
        "repro.tiles.loadbalancer:FlowHashLoadBalancerTile"),
    "rr_scheduler": TileType(
        "repro.tiles.scheduler:RoundRobinSchedulerTile"),
    "vxlan_encap": TileType("repro.tiles.vxlan:VxlanEncapTile",
                            {"vtep_ip": IPv4Address, "vni": _int},
                            required=("vtep_ip", "vni")),
    "vxlan_decap": TileType("repro.tiles.vxlan:VxlanDecapTile",
                            {"vni": _int}),
    "rs_encoder": TileType("repro.apps.reed_solomon.tile:RsEncoderTile",
                           {"data_shards": _int, "parity_shards": _int,
                            "gbps": float}),
    "vr_witness": TileType("repro.apps.vr.tile:VrWitnessTile",
                           {"shard": _int}),
    "tcp_rx": TileType("repro.tcp.rx_engine:TcpRxEngineTile",
                       {"max_flows": _int},
                       required=("rx_buffer", "tx_engine"), bind=_tcp_rx),
    "tcp_tx": TileType("repro.tcp.tx_engine:TcpTxEngineTile",
                       {"max_flows": _int, "mss": _int,
                        "congestion_control": str},
                       required=("tx_buffer",), bind=_tcp_tx),
    "tcp_echo_app": tcp_app_type("repro.tcp.app:TcpEchoAppTile"),
    "tcp_sink_app": tcp_app_type("repro.tcp.app:TcpSinkAppTile"),
    "tcp_source_app": tcp_app_type("repro.tcp.app:TcpSourceAppTile"),
    "controller": TileType(
        "repro.control.controller:InternalControllerTile",
        bind=_controller),
}


def register_tile_type(type_name: str, tile_type: TileType) -> None:
    """Extend the registry (applications register their tiles here)."""
    TILE_TYPES[type_name] = tile_type
