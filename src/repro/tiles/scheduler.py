"""The round-robin front-end scheduler tile (section VI-A).

The Reed-Solomon accelerator is stateless, so any request can go to any
replica; this tile parcels requests round-robin across the registered
application tiles.  (Stateful applications like the VR witness are
instead distributed by destination port in the UDP RX table.)
"""

from __future__ import annotations

from repro.noc.mesh import Mesh
from repro.noc.message import NocMessage
from repro.tiles.base import DestDomain, Tile


class RoundRobinSchedulerTile(Tile):
    """Forwards each incoming message to the next replica in turn."""

    KIND = "load_balancer"

    def __init__(self, name: str, mesh: Mesh, coord: tuple[int, int],
                 **kwargs):
        kwargs.setdefault("parse_latency", 2)
        kwargs.setdefault("occupancy", 4)
        super().__init__(name, mesh, coord, **kwargs)
        self.replicas: list[tuple[int, int]] = []
        self._rr = 0

    def add_replica(self, coord: tuple[int, int]) -> None:
        self.replicas.append(coord)

    def connect(self, key, targets, policy="round_robin") -> None:
        """Every destination is one more replica, whatever its key."""
        self.replicas.extend(targets)

    def lint_dest_coords(self) -> list[tuple[int, int]]:
        """Static-lint hook: requests may go to any registered replica."""
        return list(self.replicas)

    def dest_domain(self) -> DestDomain:
        """Declared destination domain: round-robin walks the replica
        list and never leaves it."""
        return DestDomain.of(self.replicas, data_dependent=True)

    def handle_message(self, message: NocMessage, cycle: int):
        if not self.replicas:
            return self.drop(message, "no replicas registered")
        dest = self.replicas[self._rr % len(self.replicas)]
        self._rr += 1
        return [self.make_message(dest, metadata=message.metadata,
                                  data=message.data)]
