"""The TCP server design (paper sections V-D, V-F).

Layout on a 6x2 mesh, with optional logging tiles between the IP and
TCP layers exactly where the paper inserted them for debugging:

    eth_rx  ip_rx  [log_rx]  tcp_rx  app  rx_buf
    eth_tx  ip_tx  [log_tx]  tcp_tx  tx_buf  empty

The TCP engines share flow state through the dual-store
:class:`repro.tcp.flow.FlowTable` and dedicated wires, and stage
payload in the two buffer tiles, which the application accesses over
the NoC.
"""

from __future__ import annotations

from repro import params
from repro.config.registry import (
    TILE_TYPES,
    register_tile_type,
    tcp_app_type,
)
from repro.config.schema import DesignSpec
from repro.designs.stack import (
    ShippedDesign,
    design_spec,
    path,
    stack_tiles,
    tile,
)
from repro.tcp.app import TcpEchoAppTile


def _app_type(cls: type) -> str:
    """The registry's name for a TCP application class; one it has not
    met (a test's subclass) is registered under its own name."""
    for name, entry in TILE_TYPES.items():
        if entry.cls in (cls, f"{cls.__module__}:{cls.__qualname__}"):
            return name
    register_tile_type(cls.__qualname__, tcp_app_type(cls))
    return cls.__qualname__


class TcpServerDesign(ShippedDesign):
    """Beehive with the server-side TCP engine and one application."""

    @staticmethod
    def spec(tcp_port: int = 5000, app_tile_cls: type = TcpEchoAppTile,
             request_size: int = 64, with_logging: bool = False,
             line_rate_bytes_per_cycle: float | None = 50.0,
             max_flows: int = 8, mss: int = params.TCP_MSS_BYTES,
             congestion_control: bool | str = False,
             **app_kwargs) -> DesignSpec:
        app_type = _app_type(app_tile_cls)
        unknown = sorted(set(app_kwargs) - set(TILE_TYPES[app_type].params))
        if unknown:
            raise TypeError(f"unexpected keyword argument(s) {unknown}")
        (eth_rx, ip_rx, _), (_, ip_tx, eth_tx) = stack_tiles(
            {}, line_rate_bytes_per_cycle)
        # The engines share the flow table and the dedicated wires of
        # section V-D; the app reaches all four over the NoC.
        tcp_rx = tile("tcp_rx", "tcp_rx", (3, 0),
                      {f"port:{tcp_port}": ["app"]}, max_flows=max_flows,
                      rx_buffer="rx_buf", tx_engine="tcp_tx")
        tcp_tx = tile("tcp_tx", "tcp_tx", (3, 1), tx_buffer="tx_buf",
                      mss=mss, congestion_control="reno"
                      if congestion_control is True
                      else congestion_control or None)
        app = tile("app", app_type, (4, 0), tcp_rx="tcp_rx",
                   tcp_tx="tcp_tx", rx_buffer="rx_buf", tx_buffer="tx_buf",
                   request_size=request_size, **app_kwargs)
        rx_buf = tile("rx_buf", "buffer", (5, 0),
                      size_bytes=max_flows * params.TCP_RX_BUFFER_BYTES)
        tx_buf = tile("tx_buf", "buffer", (4, 1),
                      size_bytes=max_flows * params.TCP_TX_BUFFER_BYTES)
        # Logging tiles sit between IP and TCP, where the paper put them.
        logs = [tile("log_rx", "log", (2, 0), direction="rx"),
                tile("log_tx", "log", (2, 1), direction="tx")
                ] if with_logging else []
        rx_chain = path(eth_rx, (ip_rx, "proto:6"), *logs[:1], tcp_rx)
        tx_chain = path(tcp_tx, *logs[1:], ip_tx, eth_tx)
        return design_spec(
            "tcp_server", 6, 2,
            [eth_rx, ip_rx, tcp_rx, app, tcp_tx, ip_tx, eth_tx,
             rx_buf, tx_buf, *logs],
            [rx_chain, tx_chain, *(
                chain for other in (tcp_rx, rx_buf, tcp_tx, tx_buf)
                for chain in ([app, other], [other, app]))])

    @property
    def flows(self):
        return self.tcp_rx.flows

    @property
    def tcp_port(self) -> int:
        return next(iter(self.tcp_rx.listen_ports))
