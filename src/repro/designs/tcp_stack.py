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
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import ETHERTYPE_IPV4
from repro.packet.ipv4 import IPPROTO_TCP
from repro.tcp.app import TcpEchoAppTile
from repro.tcp.flow import FlowTable
from repro.tcp.rx_engine import TcpRxEngineTile
from repro.tcp.tx_engine import TcpTxEngineTile
from repro.tiles.buffer import BufferTile
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.logger import PacketLogTile


class TcpServerDesign(Design):
    """Beehive with the server-side TCP engine and one application."""

    def __init__(self, tcp_port: int = 5000,
                 app_tile_cls=TcpEchoAppTile,
                 request_size: int = 64,
                 with_logging: bool = False,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 max_flows: int = 8,
                 mss: int = params.TCP_MSS_BYTES,
                 congestion_control: bool | str = False,
                 profile: str = "fast",
                 fault_plan=None,
                 **app_kwargs):
        super().__init__(6, 2, profile)
        self.tcp_port = tcp_port
        self.flows = FlowTable(max_flows=max_flows)

        self.rx_buf = BufferTile(
            "rx_buf", self.mesh, (5, 0),
            size_bytes=max_flows * params.TCP_RX_BUFFER_BYTES,
        )
        self.tx_buf = BufferTile(
            "tx_buf", self.mesh, (4, 1),
            size_bytes=max_flows * params.TCP_TX_BUFFER_BYTES,
        )

        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (1, 0), my_ip=SERVER_IP)
        self.tcp_rx = TcpRxEngineTile("tcp_rx", self.mesh, (3, 0),
                                      flows=self.flows,
                                      rx_buffer=self.rx_buf)
        self.tcp_tx = TcpTxEngineTile(
            "tcp_tx", self.mesh, (3, 1), flows=self.flows,
            tx_buffer=self.tx_buf, mss=mss,
            congestion_control=congestion_control,
        )
        self.app = app_tile_cls(
            "app", self.mesh, (4, 0),
            tcp_rx_coord=self.tcp_rx.coord,
            tcp_tx_coord=self.tcp_tx.coord,
            rx_buffer_coord=self.rx_buf.coord,
            tx_buffer_coord=self.tx_buf.coord,
            request_size=request_size,
            **app_kwargs,
        )
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )
        tiles = [self.eth_rx, self.ip_rx, self.tcp_rx, self.app,
                 self.tcp_tx, self.ip_tx, self.eth_tx,
                 self.rx_buf, self.tx_buf]

        self.log_rx = self.log_tx = None
        if with_logging:
            self.log_rx = PacketLogTile("log_rx", self.mesh, (2, 0),
                                        direction="rx")
            self.log_tx = PacketLogTile("log_tx", self.mesh, (2, 1),
                                        direction="tx")
            tiles.extend([self.log_rx, self.log_tx])

        # Dedicated wires between the engines (section V-D).
        self.tcp_rx.connect_tx(self.tcp_tx)
        self.tcp_rx.listen(tcp_port, self.app.coord)

        # Packet-level routing.
        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        if with_logging:
            self.ip_rx.next_hop.set_entry(IPPROTO_TCP, self.log_rx.coord)
            self.log_rx.next_hop.set_entry(PacketLogTile.FORWARD,
                                           self.tcp_rx.coord)
            self.tcp_tx.next_hop.set_entry(self.tcp_tx.DEFAULT,
                                           self.log_tx.coord)
            self.log_tx.next_hop.set_entry(PacketLogTile.FORWARD,
                                           self.ip_tx.coord)
        else:
            self.ip_rx.next_hop.set_entry(IPPROTO_TCP, self.tcp_rx.coord)
            self.tcp_tx.next_hop.set_entry(self.tcp_tx.DEFAULT,
                                           self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        rx_chain = ["eth_rx", "ip_rx"]
        if with_logging:
            rx_chain.append("log_rx")
        rx_chain.append("tcp_rx")
        tx_chain = ["tcp_tx"]
        if with_logging:
            tx_chain.append("log_tx")
        tx_chain.extend(["ip_tx", "eth_tx"])
        self.register(tiles,
                      [rx_chain, tx_chain,
                       ["tcp_rx", "app"], ["app", "tcp_rx"],
                       ["app", "rx_buf"], ["rx_buf", "app"],
                       ["app", "tcp_tx"], ["tcp_tx", "app"],
                       ["app", "tx_buf"], ["tx_buf", "app"]],
                      fault_plan)
