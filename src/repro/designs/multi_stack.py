"""The multi-stack scalability design (paper Fig 12 / section VII-I).

A front-end load-balancer tile splits flows across N duplicated UDP
echo stacks on one mesh.  The load balancer itself tops out at 32 Gbps
for 64 B packets (4 cycles each: 3 NoC flits + 1 recovery), and two
stacks roughly double small-packet goodput versus one, converging to
the link maximum at large payloads — the Fig 12 curves.

Layout (5 x 2N mesh), rows r = 2k, 2k+1 per stack k:

    lb(0,0)  eth_rx_k(1,2k)  ip_rx_k(2,2k)  udp_rx_k(3,2k)  app_k(4,2k)
             eth_tx_k(1,2k+1) ip_tx_k(2,2k+1) udp_tx_k(3,2k+1)
"""

from __future__ import annotations

from repro.apps.echo import UdpEchoAppTile
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import ETHERTYPE_IPV4, MacAddress
from repro.packet.ipv4 import IPPROTO_UDP, IPv4Address
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.loadbalancer import FlowHashLoadBalancerTile
from repro.tiles.udp import UdpRxTile, UdpTxTile


class _Stack:
    """One replicated UDP echo stack instance."""

    def __init__(self, index: int, mesh, udp_port: int, line_rate):
        top = 2 * index
        bottom = top + 1
        suffix = f"_{index}"
        self.eth_rx = EthernetRxTile(f"eth_rx{suffix}", mesh, (1, top),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile(f"ip_rx{suffix}", mesh, (2, top),
                              my_ip=SERVER_IP)
        self.udp_rx = UdpRxTile(f"udp_rx{suffix}", mesh, (3, top))
        self.app = UdpEchoAppTile(f"app{suffix}", mesh, (4, top))
        self.eth_tx = EthernetTxTile(
            f"eth_tx{suffix}", mesh, (1, bottom), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate,
        )
        self.ip_tx = IpTxTile(f"ip_tx{suffix}", mesh, (2, bottom))
        self.udp_tx = UdpTxTile(f"udp_tx{suffix}", mesh, (3, bottom))
        self.tiles = [self.eth_rx, self.ip_rx, self.udp_rx, self.app,
                      self.udp_tx, self.ip_tx, self.eth_tx]

        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        self.ip_rx.next_hop.set_entry(IPPROTO_UDP, self.udp_rx.coord)
        self.udp_rx.next_hop.set_entry(udp_port, self.app.coord)
        self.app.next_hop.set_entry(self.app.DEFAULT, self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        self.chain = [tile.name for tile in
                      (self.eth_rx, self.ip_rx, self.udp_rx, self.app,
                       self.udp_tx, self.ip_tx, self.eth_tx)]


class MultiStackDesign(Design):
    """N duplicated UDP stacks behind a flow-hash load balancer."""

    def __init__(self, stacks: int = 2, udp_port: int = 7,
                 line_rate_bytes_per_cycle: float | None = None,
                 profile: str = "fast",
                 fault_plan=None):
        if stacks < 1:
            raise ValueError("need at least one stack")
        super().__init__(5, 2 * stacks, profile)
        self.lb = FlowHashLoadBalancerTile("lb", self.mesh, (0, 0))
        self.stacks = [
            _Stack(index, self.mesh, udp_port,
                   line_rate_bytes_per_cycle)
            for index in range(stacks)
        ]
        tiles = [self.lb]
        chains = []
        for stack in self.stacks:
            self.lb.add_stack(stack.eth_rx.coord)
            tiles.extend(stack.tiles)
            chains.append(["lb"] + stack.chain)
        self.register(tiles, chains, fault_plan)

    def add_client(self, ip: IPv4Address, mac: MacAddress) -> None:
        for stack in self.stacks:
            stack.eth_tx.add_neighbor(ip, mac)

    def inject(self, frame: bytes, cycle: int) -> None:
        self.lb.push_frame(frame, cycle)

    def total_echoed(self) -> int:
        return sum(stack.app.requests for stack in self.stacks)
