"""The control NoC and tile control endpoints.

The control plane is a physically separate mesh (the paper uses a
lower-width NoC; ours is the same flit-accurate model with shallower
buffering, since control messages are small and rare), of the data
mesh's type and size: a flat mesh under ``fast``, routers under
``reference``.  Keeping it separate means control traffic never shares
resources with the long data-plane chains in the deadlock dependency
graph, so endpoint placement is unconstrained.

Each participating tile gets a :class:`ControlEndpoint` at its own
coordinates.  The endpoint dispatches :class:`TableUpdate` and
:class:`CounterRead` messages to handler callables registered by the
design (e.g. ``lambda key, value: nat_table.set_mapping(key, value)``)
and returns ACKs to the sender.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.control.messages import (
    ControlAck,
    CounterRead,
    CounterValue,
    TableUpdate,
)
from repro.noc.mesh import LocalPort
from repro.noc.message import NocMessage
from repro.sim.kernel import NEVER, CycleSimulator, Wakeable


class ControlEndpoint(Wakeable):
    """A tile's attachment to the control NoC (a clocked component).

    Control messages are rare: the endpoint sleeps whenever its
    ejection FIFO is empty, and the FIFO wakes it.
    """

    def __init__(self, plane: ControlPlane, coord: tuple[int, int],
                 name: str):
        self.plane = plane
        self.coord = coord
        self.name = name
        self.port: LocalPort = plane.mesh.attach(coord)
        self.table_handlers: dict[str, Callable] = {}
        self.counters: dict[str, Callable] = {}
        self.updates_applied = 0
        self._replies: list = []  # completions for locally-sent requests
        #: Called when a completion is filed: the wake of whoever pops
        #: them (:class:`~repro.control.controller.InternalControllerTile`).
        self.on_reply: Callable[[], None] | None = None

    # -- registration --------------------------------------------------------

    def on_table(self, table: str, handler: Callable) -> None:
        """Register ``handler(key, value)`` for ``table`` updates."""
        self.table_handlers[table] = handler

    def on_counter(self, name: str, reader: Callable) -> None:
        """Register a zero-argument reader for telemetry ``name``."""
        self.counters[name] = reader

    # -- sending ----------------------------------------------------------------

    def send(self, dst: tuple[int, int], payload) -> None:
        self.port.send(NocMessage(dst=dst, src=self.coord,
                                  metadata=payload))

    @property
    def has_replies(self) -> bool:
        return bool(self._replies)

    def pop_replies(self) -> list:
        replies = self._replies
        self._replies = []
        return replies

    # -- clocked behaviour ----------------------------------------------------------

    def step(self, cycle: int) -> int | None:
        message = self.port.receive(cycle)
        if message is not None:
            payload = message.metadata
            if isinstance(payload, TableUpdate):
                self._apply_update(payload, message.src)
            elif isinstance(payload, CounterRead):
                self._read_counter(payload)
            else:
                self._replies.append(payload)
                if self.on_reply is not None:
                    self.on_reply()
        return None if self.port.eject_fifo.occupancy else NEVER

    def _apply_update(self, update: TableUpdate, src) -> None:
        handler = self.table_handlers.get(update.table)
        if handler is None:
            ack = ControlAck(ok=False, tag=update.tag,
                             detail=f"no table {update.table!r} at "
                                    f"{self.name}")
        else:
            handler(update.key, update.value)
            self.updates_applied += 1
            ack = ControlAck(ok=True, tag=update.tag)
        reply_to = update.reply_to if update.reply_to is not None else src
        self.send(reply_to, ack)

    def _read_counter(self, request: CounterRead) -> None:
        reader = self.counters.get(request.name)
        value = reader() if reader is not None else None
        self.send(request.reply_to,
                  CounterValue(name=request.name, value=value,
                               tag=request.tag))

    # -- quiescence contract (see repro.sim.kernel) ----------------------------

    def wake_sources(self):
        return (self.port.eject_fifo,)


class ControlPlane:
    """The separate control NoC beside ``data_mesh``, plus its
    endpoints."""

    def __init__(self, data_mesh):
        # Lower-width NoC: shallower router buffering (the 64-bit vs
        # 512-bit datapath width is immaterial to a functional model of
        # small control messages).
        self.mesh = type(data_mesh)(data_mesh.width, data_mesh.height,
                                    fifo_depth=2)
        self.endpoints: dict[tuple[int, int], ControlEndpoint] = {}

    def attach(self, coord: tuple[int, int],
               name: str) -> ControlEndpoint:
        if coord in self.endpoints:
            return self.endpoints[coord]
        endpoint = ControlEndpoint(self, coord, name)
        self.endpoints[coord] = endpoint
        return endpoint

    def register(self, sim: CycleSimulator) -> None:
        self.mesh.register(sim)
        sim.add_all(self.endpoints.values())
