"""A wormhole, dimension-order-routed NoC router.

Each router has five ports (N/S/E/W/local), a shallow FIFO per input
port, and per-output wormhole allocation: once a header flit wins an
output port, the port stays locked to that input until the tail flit
passes.  Backpressure is credit-like — a flit moves only if the
downstream input FIFO has space — so a blocked message holds its chain
of links, which is exactly the behaviour the deadlock analysis reasons
about (Fig. 5).

Transfers are staged through :class:`repro.sim.kernel.StagedFifo`, so a
flit moved this cycle is visible downstream next cycle: one cycle per
hop, one flit per link per cycle.  Credit return is symmetric: a pop
from a router input FIFO becomes visible to the upstream router only at
the next cycle boundary (``StagedFifo._visible``), so *every*
inter-router link — flits forward, credits backward — carries exactly
one cycle of lookahead.
"""

from __future__ import annotations

from repro.noc.routing import Port, xy_route
from repro.params import ROUTER_INPUT_FIFO_FLITS
from repro.sim.kernel import StagedFifo
from repro.telemetry.trace import NULL_TRACER

_DIRECTIONS = [Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH]
_ALL_PORTS = [Port.LOCAL] + _DIRECTIONS
_N_PORTS = len(_ALL_PORTS)
# The step loop works in integer port indices: enum dict lookups (each
# a Python-level __hash__ call) dominated router cost in profiles.
_PORT_INDEX = {port: index for index, port in enumerate(_ALL_PORTS)}
_PORT_VALUES = [port.value for port in _ALL_PORTS]


#: Deflection preference per output-port index: only X-phase routes
#: (east/west) deflect, and only sideways into a Y port.  Anything
#: else re-converges on the faulted router and wedges the wormhole
#: mesh: a 180-degree reversal is an immediate head-on deadlock (two
#: packets each holding the link the other needs), and deflecting a
#: Y-phase route into X lets the neighbour's XY re-route bounce the
#: packet straight back for the same head-on pair.  A sideways X
#: deflection instead drops the packet into the adjacent row, where XY
#: routing resumes in the same direction and never returns — one
#: forbidden turn at one corner, which cannot close a channel-
#: dependency cycle on its own (two simultaneously misrouting routers
#: could; a plan that wants that is asking for the deadlock).
_DEFLECTIONS = {1: (4, 3), 2: (3, 4)}


def misroute_index(orig_index: int, connected_mask: int) -> int:
    """The misroute-one-hop fault's deflection function.

    Maps a requested output-port *index* to a connected perpendicular
    port for X-phase (east/west) decisions, so a misrouting router
    deterministically deflects traffic one legal wrong turn sideways;
    the next hop re-routes.  Ejection (LOCAL, index 0) and Y-phase
    (north/south) decisions are never deflected, and a router with no
    connected Y port keeps the clean route (see ``_DEFLECTIONS`` for
    why).  Shared by the object and flat mesh backends so both compute
    bit-identical wrong turns.
    """
    for cand in _DEFLECTIONS.get(orig_index, ()):
        if (connected_mask >> cand) & 1:
            return cand
    return orig_index


class Router:
    """One mesh router.  Wired up by :class:`repro.noc.mesh.Mesh`."""

    # Tracing sink (shared no-op unless attach_tracer replaces it).
    tracer = NULL_TRACER

    # Router-internal fault state (class-level defaults keep the
    # no-fault hot path free of per-instance dict lookups).
    #: Bitmask of output-port indices whose grants are stuck (the
    #: output behaves as if it never has downstream credits).
    fault_blocked_outputs = 0
    #: The pre-misroute routing function, saved while a misroute
    #: window is active.
    _clean_route_fn = None

    def __init__(self, coord: tuple[int, int],
                 fifo_depth: int = ROUTER_INPUT_FIFO_FLITS):
        self.coord = coord
        self.name = f"router{coord}"
        self.route_fn = xy_route
        self.inputs: dict[Port, StagedFifo] = {
            port: StagedFifo(fifo_depth, name=f"{self.name}.in.{port.value}")
            for port in _ALL_PORTS
        }
        # Downstream FIFO per output port: a neighbour router's input
        # FIFO for mesh ports, the attached tile's ejection FIFO for
        # LOCAL.  Filled in by the mesh / attachment.
        self.outputs: dict[Port, StagedFifo | None] = {
            port: None for port in _ALL_PORTS
        }
        # Hot-path mirrors of inputs/outputs, indexed by port number.
        self._in_fifos: list[StagedFifo] = [
            self.inputs[port] for port in _ALL_PORTS
        ]
        self._out_fifos: list[StagedFifo | None] = [None] * _N_PORTS
        # Wormhole state: input index currently owning each output port
        # (-1 = free), and the round-robin arbitration pointer.
        self._grant: list[int] = [-1] * _N_PORTS
        self._rr: list[int] = [0] * _N_PORTS
        # Statistics.
        self.flits_forwarded = 0
        self._flits_per_output: list[int] = [0] * _N_PORTS

    @property
    def flits_per_output(self) -> dict[Port, int]:
        """Per-output flit counts, keyed by :class:`Port`."""
        return {port: self._flits_per_output[index]
                for index, port in enumerate(_ALL_PORTS)}

    # -- wiring -----------------------------------------------------------

    def connect_output(self, port: Port, downstream: StagedFifo) -> None:
        self.outputs[port] = downstream
        self._out_fifos[_PORT_INDEX[port]] = downstream

    # -- router-internal faults (see repro.faults) ------------------------

    def _connected_mask(self) -> int:
        mask = 0
        for index in range(_N_PORTS):
            if self._out_fifos[index] is not None:
                mask |= 1 << index
        return mask

    def fault_misroute(self, enabled: bool) -> None:
        """Enter/leave a misroute-one-hop window: every routing
        decision deflects to the next connected directional port."""
        if enabled:
            if self._clean_route_fn is not None:
                return  # already misrouting
            clean = self.route_fn
            self._clean_route_fn = clean
            mask = self._connected_mask()

            def deflected(coord, dst, _clean=clean, _mask=mask):
                index = _PORT_INDEX[_clean(coord, dst)]
                return _ALL_PORTS[misroute_index(index, _mask)]

            self.route_fn = deflected
        elif self._clean_route_fn is not None:
            self.route_fn = self._clean_route_fn
            self._clean_route_fn = None

    def fault_block_output(self, out_index: int, blocked: bool) -> None:
        """Stick (or release) the output port at ``out_index``: while
        stuck it reports no downstream room, so the owning wormhole —
        and everything arbitrating for the port — stalls in place."""
        if blocked:
            self.fault_blocked_outputs |= 1 << out_index
        else:
            self.fault_blocked_outputs &= ~(1 << out_index)
            if not self.fault_blocked_outputs:
                # Back to the class-level default (hot-path friendly).
                try:
                    del self.fault_blocked_outputs
                except AttributeError:
                    pass

    # -- per-cycle behaviour ------------------------------------------------

    def step(self, cycle: int) -> None:
        """One cycle of wormhole switching.

        Per output (fixed port order): a granted output advances its
        owner's next flit; a free output round-robin arbitrates among
        the inputs whose head flit routes to it.  At most one flit
        leaves each input per cycle (``moved`` bitmask), so an input's
        head is stable for the whole step and each head's requested
        output can be resolved once up front.
        """
        in_fifos = self._in_fifos
        route_fn = self.route_fn
        coord = self.coord
        # wants[i]: output index input i's head flit requests, else -1.
        wants = [-1] * _N_PORTS
        for index in range(_N_PORTS):
            items = in_fifos[index]._items
            if items:
                flit = items[0]
                if flit.is_head:
                    wants[index] = _PORT_INDEX[route_fn(coord, flit.dst)]
        grant = self._grant
        traced = self.tracer.enabled
        fault_blocked = self.fault_blocked_outputs
        moved = 0
        for out_index in range(_N_PORTS):
            downstream = self._out_fifos[out_index]
            if downstream is None:
                continue
            cap = downstream.capacity
            if out_index:
                # Directional link: credit release is lagged one cycle
                # (a pop becomes visible upstream at the next cycle
                # boundary, like a hardware credit return crossing the
                # link) — the sender sees last cycle's committed
                # occupancy plus its own staged pushes.
                room = (cap is None or
                        downstream._visible + len(downstream._staged) < cap)
            else:
                # Ejection to the attached tile stays same-cycle: port
                # and router live in the same clock domain.
                room = (cap is None or
                        len(downstream._items) + len(downstream._staged)
                        < cap)
            if fault_blocked and (fault_blocked >> out_index) & 1:
                # Stuck-grant fault: the output advances nothing while
                # the window is open, exactly as if credits never
                # returned.
                room = False
            owner = grant[out_index]
            if owner >= 0:
                # Locked wormhole: move the owner's next body flit.
                if moved & (1 << owner):
                    continue
                items = in_fifos[owner]._items
                if not items:
                    continue
                if not room:
                    # Out of downstream credits: the whole chain of
                    # links behind this wormhole stalls.
                    if traced:
                        self.tracer.link_stall(cycle, coord,
                                               _PORT_VALUES[out_index],
                                               "wormhole_stall")
                    continue
                flit = in_fifos[owner].pop()
                downstream.push_unchecked(flit)
                moved |= 1 << owner
                self.flits_forwarded += 1
                self._flits_per_output[out_index] += 1
                if traced:
                    self.tracer.flit_forwarded(cycle, coord,
                                               _PORT_VALUES[out_index],
                                               flit)
                if flit.is_tail:
                    grant[out_index] = -1
                continue
            # Free output: round-robin among requesting head flits.
            start = self._rr[out_index]
            for k in range(_N_PORTS):
                in_index = start + k
                if in_index >= _N_PORTS:
                    in_index -= _N_PORTS
                if wants[in_index] != out_index or moved & (1 << in_index):
                    continue
                if not room:
                    # A head flit lost to downstream credit exhaustion;
                    # the output stays free this cycle.
                    if traced:
                        self.tracer.link_stall(cycle, coord,
                                               _PORT_VALUES[out_index],
                                               "credit_exhausted")
                    break
                flit = in_fifos[in_index].pop()
                downstream.push_unchecked(flit)
                moved |= 1 << in_index
                self.flits_forwarded += 1
                self._flits_per_output[out_index] += 1
                if traced:
                    self.tracer.flit_forwarded(cycle, coord,
                                               _PORT_VALUES[out_index],
                                               flit)
                if not flit.is_tail:
                    grant[out_index] = in_index
                self._rr[out_index] = (in_index + 1) % _N_PORTS
                break

    def commit(self) -> None:
        for fifo in self._in_fifos:
            if fifo._staged:
                fifo.commit()
            elif fifo._visible != len(fifo._items):
                # Pop-only cycle: publish the credit release at the
                # cycle boundary so the upstream router sees it next
                # cycle (the lagged credit-return contract).
                fifo._visible = len(fifo._items)
