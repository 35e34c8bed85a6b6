"""The front-end load-balancer tile of the multi-stack design (Fig 12).

Splits incoming flows evenly across duplicated network stacks.  Its
service time is the paper's: 3 cycles of NoC message for a 64 B packet
plus 1 recovery cycle — 4 cycles/packet, capping it at 32 Gbps for 64 B
UDP packets (section VII-I).
"""

from __future__ import annotations

from repro import params
from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage, next_packet_id
from repro.packet.ethernet import EthernetHeader
from repro.packet.ipv4 import IPPROTO_TCP, IPPROTO_UDP, IPv4Header
from repro.packet.tcp import TcpHeader
from repro.packet.udp import UdpHeader
from repro.tiles.base import DestDomain, Tile, flow_hash


class FlowHashLoadBalancerTile(Tile):
    """Distributes raw frames across replicated stack ingress tiles.

    Frames enter through :meth:`push_frame` (it sits at the MAC) and are
    forwarded, untouched, to one of the registered ingress tiles chosen
    by 4-tuple flow hash (falling back to round-robin for non-IP
    traffic), so stateful flows always hit the same stack instance.
    """

    KIND = "load_balancer"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 **kwargs):
        kwargs.setdefault("parse_latency", 2)
        kwargs.setdefault("occupancy", 0)  # service time = flits + recovery
        super().__init__(name, mesh, coord, **kwargs)
        self.stacks: list[tuple[int, int]] = []
        self._rr = 0

    def add_stack(self, ingress_coord: tuple[int, int]) -> None:
        self.stacks.append(ingress_coord)

    def connect(self, key, targets, policy="flow_hash") -> None:
        """Every destination is one more stack, whatever its key."""
        self.stacks.extend(targets)

    def lint_dest_coords(self) -> list[tuple[int, int]]:
        """Static-lint hook: frames may go to any registered stack."""
        return list(self.stacks)

    def dest_domain(self) -> DestDomain:
        """Declared destination domain: the flow hash picks a stack per
        packet, but never anything outside the registered list."""
        return DestDomain.of(self.stacks, data_dependent=True)

    def push_frame(self, frame: bytes, cycle: int) -> None:
        pseudo = NocMessage(dst=self.coord, src=self.coord, metadata=None,
                            data=frame, n_meta_flits=0,
                            packet_id=next_packet_id())
        self._rx_ready.append((cycle, pseudo))
        self._wake()

    def service_cycles(self, message: NocMessage) -> int:
        """The paper's flits + 1 recovery cycle rather than
        max(flits, occupancy)."""
        return message.n_flits + params.LOAD_BALANCER_RECOVERY_CYCLES

    def _pick(self, frame: bytes) -> tuple[int, int] | None:
        if not self.stacks:
            return None
        try:
            eth, rest = EthernetHeader.unpack(frame)
            ip, l4 = IPv4Header.unpack(rest)
            if ip.protocol == IPPROTO_UDP:
                l4_hdr, _ = UdpHeader.unpack(l4)
            elif ip.protocol == IPPROTO_TCP:
                l4_hdr, _ = TcpHeader.unpack(l4)
            else:
                raise ValueError("no l4")
            key = (int(ip.src), int(ip.dst),
                   l4_hdr.src_port, l4_hdr.dst_port)
            return self.stacks[flow_hash(key) % len(self.stacks)]
        except ValueError:
            choice = self.stacks[self._rr % len(self.stacks)]
            self._rr += 1
            return choice

    def handle_message(self, message: NocMessage, cycle: int):
        dest = self._pick(message.data)
        if dest is None:
            return self.drop(message, "no stacks registered")
        # A raw frame is forwarded with no metadata flit: 3 flits for a
        # 64 B UDP packet, matching the paper's cycle accounting.
        out = NocMessage(dst=dest, src=self.coord, data=message.data,
                         n_meta_flits=0)
        return [out]
