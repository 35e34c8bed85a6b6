"""2D-mesh construction and tile attachment points.

``Mesh`` instantiates a width x height grid of routers and wires
neighbouring ports together.  ``LocalPort`` is the tile-side attachment:
an injection queue into the router's local input and an ejection FIFO
the router drains into, plus helpers that enforce wormhole contiguity
(a tile must finish injecting one message before starting another).
"""

from __future__ import annotations

from collections import deque

from repro.noc.flit import HANDLE_HEAD, HANDLE_SEQ_SHIFT, Flit
from repro.noc.message import MessageAssembler, NocMessage
from repro.noc.router import Router
from repro.noc.routing import Port
from repro.params import ROUTER_INPUT_FIFO_FLITS
from repro.sim.kernel import CycleSimulator, StagedFifo, Wakeable
from repro.telemetry.trace import NULL_TRACER

#: Flits a local port's ejection FIFO holds.
EJECT_FIFO_FLITS = 4


def handle_framing_error(bits: int, assembler: MessageAssembler
                          ) -> ValueError:
    """Which wormhole framing rule the handle ``bits`` (sign removed)
    broke at a port whose reassembly state is ``assembler`` — the three
    errors of ``MessageAssembler.push``, keyed on the injection
    sequence number instead of ``msg_id``."""
    seq = bits >> HANDLE_SEQ_SHIFT
    if bits & HANDLE_HEAD:
        return ValueError(
            f"header handle of injection #{seq} arrived mid-message")
    if not assembler._active:
        return ValueError(
            f"body handle of injection #{seq} without a header")
    return ValueError(f"interleaved handle of injection #{seq} inside "
                      f"injection #{assembler._seq}")


class LocalPort(Wakeable):
    """A tile's window onto its router.

    Injection: ``send(message)`` queues a whole message; each cycle the
    port streams one flit into the router's local input FIFO (the same
    one-flit-per-cycle discipline as a hardware injection port).

    Ejection: the router pushes flits into ``eject_fifo``; every
    consumer takes them through :meth:`receive` (or :meth:`pop_flit`
    for a raw flit), handing over the cycle it is stepping so a flit
    ejected this very cycle stays out of sight, whichever mesh backend
    filled the FIFO.

    ``LocalPort`` is a clocked component — add it to the simulator (the
    tile framework does this automatically).
    """

    tracer = NULL_TRACER

    # Fault-injection hooks (repro.faults).  Class-level defaults keep
    # the un-faulted hot path to one attribute test each; attaching a
    # plan shadows them with instance state on the targeted ports only.
    fault_stalled = False
    _fault_eject = None

    #: The :class:`~repro.noc.flatmesh.FlatMeshCore` stepping this
    #: port (None under the object mesh): its queues then hold int
    #: handles (``repro.noc.flit``), not ``Flit`` objects.
    _core = None

    def __init__(self, router: Router):
        self.router = router
        self.coord = router.coord
        self.eject_fifo = StagedFifo(
            EJECT_FIFO_FLITS, name=f"{router.name}.eject"
        )
        router.connect_output(Port.LOCAL, self.eject_fifo)
        self._local_in = router.inputs[Port.LOCAL]
        self._assembler = MessageAssembler()
        self._pending_flits: deque[Flit | int] = deque()
        self._send_queue: deque[NocMessage] = deque()
        self.messages_sent = 0
        self.messages_received = 0
        self.flits_injected = 0
        #: Flits popped off the ejection FIFO — the other side of the
        #: ``flits_injected`` ledger the conservation sanitizer
        #: (repro.analysis.sanitize, BHV403) balances; kept by
        #: :meth:`pop_flit`.
        self.flits_ejected = 0
        #: Deepest the unbounded tile-side injection queue has ever
        #: been (messages queued plus one mid-injection) — the telemetry
        #: plane's back-pressure indicator for this attachment point.
        self.tx_backlog_high_water = 0

    # -- transmit side ------------------------------------------------------

    def send(self, message: NocMessage) -> None:
        """Queue a message for injection (unbounded tile-side queue)."""
        if message.src != self.coord:
            message.src = self.coord
        self._send_queue.append(message)
        backlog = len(self._send_queue) + (1 if self._pending_flits else 0)
        if backlog > self.tx_backlog_high_water:
            self.tx_backlog_high_water = backlog
        self._wake()

    @property
    def tx_backlog(self) -> int:
        """Messages queued or in flight on the injection side."""
        return len(self._send_queue) + (1 if self._pending_flits else 0)

    def step(self, cycle: int) -> None:
        if not self._pending_flits and self._send_queue:
            message = self._send_queue.popleft()
            self._pending_flits.extend(message.to_flits())
            self.messages_sent += 1
        if self._pending_flits:
            local_in = self._local_in
            if local_in.can_accept():
                local_in.push_unchecked(self._pending_flits.popleft())
                self.flits_injected += 1

    def commit(self) -> None:
        self.eject_fifo.commit()

    # -- receive side -------------------------------------------------------

    @property
    def mid_message(self) -> bool:
        """True while the ejection side is partway through a message."""
        return self._assembler.mid_message

    def eject_ready(self, cycle: int | None = None) -> int:
        """Ejected flits a consumer stepping at ``cycle`` may take: the
        committed ones, less one a flat mesh pushed this very cycle
        (``StagedFifo._pushc``).  None is a reader between ticks, who
        sees them all."""
        fifo = self.eject_fifo
        return len(fifo._items) - (fifo._pushc == cycle)

    def pop_flit(self, cycle: int | None = None):
        """Take the oldest ejected flit visible at ``cycle``, or None.

        What comes out is a ``Flit`` under the object mesh and an int
        handle under the flat one.  This is the one place that pops the
        ejection FIFO, so it keeps the ``flits_ejected`` ledger and the
        FIFO's end-of-cycle high-water mark (a flat mesh raises the
        mark when it pushes; a pop later in that cycle takes it back).
        """
        fifo = self.eject_fifo
        items = fifo._items
        if len(items) <= (fifo._pushc == cycle):
            return None     # empty, or only this cycle's flit
        if fifo._hwc == cycle:
            fifo.high_water -= 1
            fifo._hwc = -1
        self.flits_ejected += 1
        return items.popleft()

    def receive(self, cycle: int | None = None) -> NocMessage | None:
        """Consume at most one ejected flit; a completed message or None.

        A tile that calls this once per cycle drains at one flit/cycle,
        matching the single router ejection port.  ``cycle`` is the
        cycle being stepped (see :meth:`pop_flit`); a consumer inside
        a tick that leaves it out takes a flat mesh's flit one cycle
        early and nothing raises (``lint --sanitize`` reports BHV405).

        Fault injection taps here — the staging both mesh backends
        share: a stalled port (``fault_stalled``) ejects nothing, so
        the FIFO fills and back-pressures the fabric, and an ejection
        fault filter may corrupt a popped DATA flit's payload.

        Under the flat mesh what pops is an int handle: the port checks
        the wormhole framing on it and on the tail takes the message
        out of the core's in-flight table.  A fault filter looks at
        flits, so for it each handle is turned into the message's
        ``Flit`` and reassembled from the (possibly corrupted) payloads.
        """
        if self.fault_stalled:
            return None
        flit = self.pop_flit(cycle)
        if flit is None:
            return None
        core = self._core
        if core is not None:
            bits = -flit if flit < 0 else flit
            seq = bits >> HANDLE_SEQ_SHIFT
            if self._fault_eject is None:
                assembler = self._assembler
                if bits & HANDLE_HEAD:
                    if assembler._active:
                        raise handle_framing_error(bits, assembler)
                    assembler._active = True
                    assembler._seq = seq
                elif not assembler._active or seq != assembler._seq:
                    raise handle_framing_error(bits, assembler)
                if flit > 0:
                    return None
                assembler._active = False
                self.messages_received += 1
                return core.take(seq)
            tail = flit < 0
            flit = core.flit_of(flit)
            if tail:
                core.take(seq)
        if self._fault_eject is not None:
            flit = self._fault_eject.filter(flit)
        message = self._assembler.push(flit)
        if message is not None:
            self.messages_received += 1
        return message


class Mesh:
    """A width x height 2D mesh of wormhole routers."""

    #: Ports are standalone simulator components here — one attached
    #: after ``register`` must be added to the simulator by the
    #: caller.  The flat backend overrides this.
    steps_ports = False

    def __init__(self, width: int, height: int,
                 fifo_depth: int = ROUTER_INPUT_FIFO_FLITS):
        if width < 1 or height < 1:
            raise ValueError(f"bad mesh dimensions {width}x{height}")
        self.width = width
        self.height = height
        self.routers: dict[tuple[int, int], Router] = {}
        for y in range(height):
            for x in range(width):
                self.routers[(x, y)] = Router((x, y), fifo_depth)
        self._wire()
        self._ports: dict[tuple[int, int], LocalPort] = {}

    def _wire(self) -> None:
        for (x, y), router in self.routers.items():
            east = self.routers.get((x + 1, y))
            if east is not None:
                router.connect_output(Port.EAST, east.inputs[Port.WEST])
                east.connect_output(Port.WEST, router.inputs[Port.EAST])
            south = self.routers.get((x, y + 1))
            if south is not None:
                router.connect_output(Port.SOUTH, south.inputs[Port.NORTH])
                south.connect_output(Port.NORTH, router.inputs[Port.SOUTH])

    def attach(self, coord: tuple[int, int]) -> LocalPort:
        """Create (or return) the local port at ``coord``."""
        if coord not in self.routers:
            raise KeyError(f"no router at {coord} in "
                           f"{self.width}x{self.height} mesh")
        if coord in self._ports:
            return self._ports[coord]
        port = LocalPort(self.routers[coord])
        self._ports[coord] = port
        return port

    @property
    def ports(self) -> dict[tuple[int, int], LocalPort]:
        """All attached local ports, keyed by coordinate."""
        return self._ports

    def register(self, simulator: CycleSimulator) -> None:
        """Add all routers and attached ports to a simulator."""
        for router in self.routers.values():
            simulator.add(router)
        for port in self._ports.values():
            simulator.add(port)

    @property
    def total_flits_forwarded(self) -> int:
        return sum(r.flits_forwarded for r in self.routers.values())
