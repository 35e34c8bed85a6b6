"""The Reed-Solomon accelerator design (paper section VI-A).

A UDP stack feeding a round-robin front-end scheduler that parcels
4 KB encode requests across 1-4 stateless RS encoder tiles:

    eth_rx  ip_rx  udp_rx  sched   rs0    rs1
    eth_tx  ip_tx  udp_tx  rs2     rs3    empty

The scheduler exists because the encoder is stateless — any request
can go to any copy — unlike the VR witness, which is distributed by
destination port instead.
"""

from __future__ import annotations

from repro import params
from repro.apps.reed_solomon.tile import RsEncoderTile
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import ETHERTYPE_IPV4
from repro.packet.ipv4 import IPPROTO_UDP
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.scheduler import RoundRobinSchedulerTile
from repro.tiles.udp import UdpRxTile, UdpTxTile

_RS_COORDS = [(4, 0), (5, 0), (3, 1), (4, 1)]


class RsDesign(Design):
    """Beehive hosting 1-4 Reed-Solomon encoder instances."""

    def __init__(self, instances: int = 4, udp_port: int = 7000,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 rs_gbps: float = params.RS_TILE_GBPS,
                 profile: str = "fast",
                 fault_plan=None):
        if not 1 <= instances <= 4:
            raise ValueError("this layout hosts 1-4 RS instances")
        super().__init__(6, 2, profile)
        self.instances = instances
        self.udp_port = udp_port

        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (1, 0),
                              my_ip=SERVER_IP)
        self.udp_rx = UdpRxTile("udp_rx", self.mesh, (2, 0))
        self.scheduler = RoundRobinSchedulerTile("sched", self.mesh,
                                                 (3, 0))
        self.rs_tiles = [
            RsEncoderTile(f"rs{i}", self.mesh, _RS_COORDS[i],
                          gbps=rs_gbps)
            for i in range(instances)
        ]
        self.udp_tx = UdpTxTile("udp_tx", self.mesh, (2, 1))
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )

        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        self.ip_rx.next_hop.set_entry(IPPROTO_UDP, self.udp_rx.coord)
        self.udp_rx.next_hop.set_entry(udp_port, self.scheduler.coord)
        for tile in self.rs_tiles:
            self.scheduler.add_replica(tile.coord)
            tile.next_hop.set_entry(tile.DEFAULT, self.udp_tx.coord)
        self.udp_tx.next_hop.set_entry(self.udp_tx.DEFAULT,
                                       self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        self.register(
            [self.eth_rx, self.ip_rx, self.udp_rx,
             self.scheduler, *self.rs_tiles, self.udp_tx,
             self.ip_tx, self.eth_tx],
            [["eth_rx", "ip_rx", "udp_rx", "sched", tile.name,
              "udp_tx", "ip_tx", "eth_tx"]
             for tile in self.rs_tiles],
            fault_plan)

    @property
    def total_requests(self) -> int:
        return sum(tile.requests for tile in self.rs_tiles)
