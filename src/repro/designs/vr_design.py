"""The consensus-witness design (paper Fig 6).

A UDP stack hosting one VR witness tile per shard.  The witness is
stateful, so requests for a shard must always reach the same tile:
distribution is by destination port (one port per shard) in the UDP RX
hash table — contrast with the stateless Reed-Solomon design's
round-robin scheduler.

With ``duplicate_udp=True`` the design also replicates the UDP RX and
TX *protocol* tiles — "we also duplicate protocol tiles to prevent
them from becoming a bottleneck" (section VII-F) — with the IP RX tile
spreading flows across the UDP RX replicas by flow hash.  This is the
differential-scaling feature the framework exists for: protocol
elements scale independently of application elements.
"""

from __future__ import annotations

from repro.apps.vr.tile import VrWitnessTile
from repro.designs.base import SERVER_IP, SERVER_MAC, Design
from repro.packet.ethernet import ETHERTYPE_IPV4
from repro.packet.ipv4 import IPPROTO_UDP
from repro.tiles.ethernet import EthernetRxTile, EthernetTxTile
from repro.tiles.ip import IpRxTile, IpTxTile
from repro.tiles.udp import UdpRxTile, UdpTxTile

VR_BASE_PORT = 9000

_WITNESS_COORDS = [(3, 0), (4, 0), (5, 0), (3, 1)]


class VrWitnessDesign(Design):
    """Beehive hosting witness tiles for 1-4 shards.

    ``duplicate_udp=True`` instantiates two UDP RX and two UDP TX
    tiles (7x2 mesh) with flow-hash distribution at the IP layer.
    """

    def __init__(self, shards: int = 4,
                 line_rate_bytes_per_cycle: float | None = 50.0,
                 duplicate_udp: bool = False,
                 profile: str = "fast",
                 fault_plan=None):
        if not 1 <= shards <= 4:
            raise ValueError("this layout hosts 1-4 witness shards")
        super().__init__(7 if duplicate_udp else 6, 2, profile)
        self.shards = shards
        self.duplicate_udp = duplicate_udp
        witness_coords = ([(4, 0), (5, 0), (6, 0), (4, 1)]
                          if duplicate_udp else _WITNESS_COORDS)

        self.eth_rx = EthernetRxTile("eth_rx", self.mesh, (0, 0),
                                     my_mac=SERVER_MAC)
        self.ip_rx = IpRxTile("ip_rx", self.mesh, (1, 0),
                              my_ip=SERVER_IP)
        if duplicate_udp:
            self.udp_rx_tiles = [
                UdpRxTile("udp_rx0", self.mesh, (2, 0)),
                UdpRxTile("udp_rx1", self.mesh, (3, 0)),
            ]
            self.udp_tx_tiles = [
                UdpTxTile("udp_tx0", self.mesh, (2, 1)),
                UdpTxTile("udp_tx1", self.mesh, (3, 1)),
            ]
        else:
            self.udp_rx_tiles = [UdpRxTile("udp_rx", self.mesh,
                                           (2, 0))]
            self.udp_tx_tiles = [UdpTxTile("udp_tx", self.mesh,
                                           (2, 1))]
        self.udp_rx = self.udp_rx_tiles[0]
        self.udp_tx = self.udp_tx_tiles[0]
        self.witnesses = [
            VrWitnessTile(f"witness{s}", self.mesh,
                          witness_coords[s], shard=s)
            for s in range(shards)
        ]
        self.ip_tx = IpTxTile("ip_tx", self.mesh, (1, 1))
        self.eth_tx = EthernetTxTile(
            "eth_tx", self.mesh, (0, 1), my_mac=SERVER_MAC,
            line_rate_bytes_per_cycle=line_rate_bytes_per_cycle,
        )

        self.eth_rx.next_hop.set_entry(ETHERTYPE_IPV4, self.ip_rx.coord)
        # Replicated UDP RX tiles: flows spread by hash at the IP layer.
        self.ip_rx.next_hop.set_entry(
            IPPROTO_UDP, [tile.coord for tile in self.udp_rx_tiles]
        )
        for shard, witness in enumerate(self.witnesses):
            # One UDP port per shard: stateful tiles need sticky routing.
            for udp_rx in self.udp_rx_tiles:
                udp_rx.next_hop.set_entry(VR_BASE_PORT + shard,
                                          witness.coord)
            # Witnesses spread replies across the UDP TX replicas.
            witness.next_hop.policy = "round_robin"
            witness.next_hop.set_entry(
                witness.DEFAULT,
                [tile.coord for tile in self.udp_tx_tiles],
            )
        for udp_tx in self.udp_tx_tiles:
            udp_tx.next_hop.set_entry(udp_tx.DEFAULT, self.ip_tx.coord)
        self.ip_tx.next_hop.set_entry(self.ip_tx.DEFAULT,
                                      self.eth_tx.coord)

        self.register(
            [self.eth_rx, self.ip_rx, *self.udp_rx_tiles,
             *self.witnesses, *self.udp_tx_tiles, self.ip_tx,
             self.eth_tx],
            [["eth_rx", "ip_rx", udp_rx.name, witness.name,
              udp_tx.name, "ip_tx", "eth_tx"]
             for witness in self.witnesses
             for udp_rx in self.udp_rx_tiles
             for udp_tx in self.udp_tx_tiles],
            fault_plan)

    def shard_port(self, shard: int) -> int:
        return VR_BASE_PORT + shard
