"""Declarative, seed-deterministic fault schedules.

A :class:`FaultPlan` describes *what goes wrong and when* — wire
impairments at the MAC boundary, NoC link stalls and ejection-flit
corruption, tile freezes and crashes, and (for the event-level VR
cluster) node freezes — without referencing any concrete design
object.  The same plan can therefore be attached to several
independently constructed designs (the ``fast`` / ``reference``
differential suite relies on this), and every random draw it implies
comes from :class:`repro.sim.rng.SeededStreams` derived from the
plan's single ``seed``, so a plan replays bit-identically.

Plans are builders: every mutator returns ``self`` so schedules read
as one chained expression::

    plan = (FaultPlan(seed=7)
            .wire(drop=0.01, duplicate=0.005)
            .freeze_tile("app", at=2_000, duration=1_500)
            .stall_link((3, 0), at=5_000, duration=400)
            .corrupt_flits(0.001, coords=[(2, 0)]))

Attachment to a design happens through
:func:`repro.faults.attach_faults` (or the ``fault_plan=`` kwarg every
shipped design constructor threads through to it).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Output-port name -> hot-path index (repro.noc.router's encoding).
_ROUTER_PORTS = {"local": 0, "east": 1, "west": 2, "north": 3,
                 "south": 4}


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], "
                         f"got {value!r}")
    return value


def _check_window(at: int, duration: int) -> tuple[int, int]:
    if at < 0:
        raise ValueError(f"fault start cycle must be >= 0, got {at}")
    if duration < 1:
        raise ValueError(f"fault duration must be >= 1 cycle, "
                         f"got {duration}")
    return int(at), int(duration)


@dataclass(frozen=True)
class WireFaultSpec:
    """Per-frame impairment probabilities at the MAC ingress.

    For each injected frame the draws happen in a fixed order — drop,
    corrupt, duplicate, reorder, delay — from one named stream, so the
    impairment sequence depends only on the plan seed and the order
    frames are offered to the wire (which the simulator keeps
    deterministic).
    """

    drop: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    corrupt_bytes: int = 1        # bytes XORed per corrupted frame
    dup_delay_cycles: int = 1     # copy arrives this long after the original
    reorder_cycles: int = 64      # a reordered frame is held back this long
    delay_range: tuple[int, int] = (1, 64)  # uniform extra latency

    @property
    def active(self) -> bool:
        return any((self.drop, self.corrupt, self.duplicate,
                    self.reorder, self.delay))


class FaultPlan:
    """A seed plus a schedule of injected faults.

    The plan itself is inert data; :func:`repro.faults.attach_faults`
    turns it into live machinery on one design.  Attaching never
    mutates the plan, so one plan may drive many designs.
    """

    def __init__(self, seed: int = 0xFA17):
        self.seed = seed
        self.wire_spec: WireFaultSpec | None = None
        #: (kind, tile name, start cycle, duration) with kind in
        #: {"freeze", "crash"}.
        self.tile_events: list[tuple[str, str, int, int]] = []
        #: (coord, start cycle, duration) ejection-stall windows.
        self.stall_windows: list[tuple[tuple[int, int], int, int]] = []
        #: (coords-or-None, probability) ejection flit corruption;
        #: ``None`` targets every attached port.
        self.eject_corrupt: list[tuple[list | None, float]] = []
        #: (role, shard, at_s, duration_s) for the event-level VR
        #: cluster (seconds, not cycles).
        self.vr_events: list[tuple[str, int, float, float]] = []
        #: (kind, coord, port index or None, start cycle, duration)
        #: router-internal fault windows, kind in {"misroute",
        #: "stuck_grant"}.
        self.router_events: list[
            tuple[str, tuple[int, int], int | None, int, int]] = []
        #: target -> (label, start cycle, duration) of its windows.
        self._windows: dict[tuple, list[tuple[str, int, int]]] = {}

    def _window(self, target: tuple, label: str, at: int,
                duration: int) -> tuple[int, int]:
        """Check a window and claim ``target`` for it.

        Every fault action sets a flag or a bit that the close of its
        window clears, so of two windows on one target that meet, the
        first to close would end both: such a plan is rejected.
        """
        at, duration = _check_window(at, duration)
        for other, start, length in self._windows.get(target, ()):
            if at <= start + length and start <= at + duration:
                raise ValueError(
                    f"{label} cycles ({at}, {at + duration}] meets "
                    f"{other} cycles ({start}, {start + length}] on "
                    "the same target")
        self._windows.setdefault(target, []).append((label, at, duration))
        return at, duration

    # -- wire impairments ---------------------------------------------------

    def wire(self, drop: float = 0.0, corrupt: float = 0.0,
             duplicate: float = 0.0, reorder: float = 0.0,
             delay: float = 0.0,
             delay_range: tuple[int, int] = (1, 64)) -> "FaultPlan":
        """Impair frames at the ``FrameSource``/``eth`` boundary."""
        lo, hi = delay_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad delay_range {delay_range!r}")
        self.wire_spec = WireFaultSpec(
            drop=_check_prob("drop", drop),
            corrupt=_check_prob("corrupt", corrupt),
            duplicate=_check_prob("duplicate", duplicate),
            reorder=_check_prob("reorder", reorder),
            delay=_check_prob("delay", delay),
            delay_range=(int(lo), int(hi)),
        )
        return self

    # -- tile faults --------------------------------------------------------

    def freeze_tile(self, name: str, at: int,
                    duration: int) -> "FaultPlan":
        """Stop a tile's clock for ``duration`` cycles starting the
        cycle after ``at``.  The tile's router and local port keep
        running (queued injections drain, ejections back-pressure), and
        the resume is kernel-wake-safe: a frozen tile is pinned in the
        scheduler's active set and explicitly re-woken at thaw."""
        at, duration = self._window(("tile", name), f"freeze tile {name!r}",
                                    at, duration)
        self.tile_events.append(("freeze", name, at, duration))
        return self

    def crash_tile(self, name: str, at: int,
                   duration: int) -> "FaultPlan":
        """Like :meth:`freeze_tile`, but the tile also loses its soft
        state at the crash point: buffered/ in-service messages are
        dropped (counted under the ``fault: crash`` drop reason).
        Flits already in the NoC still deliver after the reboot."""
        at, duration = self._window(("tile", name), f"crash tile {name!r}",
                                    at, duration)
        self.tile_events.append(("crash", name, at, duration))
        return self

    # -- NoC faults ---------------------------------------------------------

    def stall_link(self, coord: tuple[int, int], at: int,
                   duration: int) -> "FaultPlan":
        """Stall the ejection link of the local port at ``coord`` for
        ``duration`` cycles starting the cycle after ``at``.  The
        port's ejection FIFO fills and back-pressures the mesh — the
        same staging both backends share, so the stall is observed
        bit-identically by the object and flat cores."""
        coord = tuple(coord)
        at, duration = self._window(("stall", coord),
                                    f"stall link {coord}", at, duration)
        self.stall_windows.append((coord, at, duration))
        return self

    def corrupt_flits(self, prob: float,
                      coords: list | None = None) -> "FaultPlan":
        """Corrupt one payload byte of ejected DATA flits with
        probability ``prob`` per flit, at ``coords`` (or every
        attached port when ``None``).  Header and metadata flits are
        never touched — a corrupted header would misroute the wormhole
        rather than model payload bit-rot."""
        prob = _check_prob("corrupt_flits prob", prob)
        if coords is not None:
            coords = [tuple(c) for c in coords]
        self.eject_corrupt.append((coords, prob))
        return self

    def misroute(self, coord: tuple[int, int], at: int,
                 duration: int) -> "FaultPlan":
        """Misroute-one-hop window at the router at ``coord``: for
        ``duration`` cycles starting the cycle after ``at``, every
        routing decision the router makes deflects to the next
        connected directional port (ejection is never deflected).
        Deflected flits take a legal wrong turn and re-route at the
        next hop, so traffic detours — and may transiently contend —
        but still delivers once the window closes.  Deterministic and
        bit-identical across the object and flat mesh backends."""
        coord = tuple(coord)
        at, duration = self._window(("misroute", coord),
                                    f"misroute router {coord}", at, duration)
        self.router_events.append(("misroute", coord, None, at, duration))
        return self

    def stuck_grant(self, coord: tuple[int, int], port, at: int,
                    duration: int) -> "FaultPlan":
        """Stuck-output-grant window: the router at ``coord`` stops
        advancing its ``port`` output ("east"/"west"/"north"/"south"/
        "local", or a :class:`repro.noc.routing.Port`) for ``duration``
        cycles starting the cycle after ``at`` — as if the grant
        arbiter wedged and downstream credits never returned.  The
        owning wormhole holds its chain of links (the Fig. 5 stall
        shape) until the window closes."""
        port_name = str(getattr(port, "value", port)).lower()
        if port_name not in _ROUTER_PORTS:
            raise ValueError(
                f"unknown router port {port!r} "
                f"(choose from {sorted(_ROUTER_PORTS)})")
        coord, index = tuple(coord), _ROUTER_PORTS[port_name]
        at, duration = self._window(("stuck_grant", coord, index),
                                    f"stuck_grant router {coord}.{port_name}",
                                    at, duration)
        self.router_events.append(
            ("stuck_grant", coord, index, at, duration))
        return self

    # -- event-level VR faults ----------------------------------------------

    def vr_freeze(self, role: str, shard: int, at_s: float,
                  duration_s: float) -> "FaultPlan":
        """Freeze a VR node's server core (event-level cluster): the
        ``role`` ("leader", "witness", "replica") of ``shard`` stops
        serving for ``duration_s`` seconds starting at ``at_s``."""
        if role not in ("leader", "witness", "replica"):
            raise ValueError(f"unknown VR role {role!r}")
        if at_s < 0 or duration_s <= 0:
            raise ValueError("vr_freeze needs at_s >= 0 and "
                             "duration_s > 0")
        self.vr_events.append((role, int(shard), float(at_s),
                               float(duration_s)))
        return self

    # -- introspection ------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing — the fast path:
        attaching a null plan installs no machinery at all."""
        return (
            (self.wire_spec is None or not self.wire_spec.active)
            and not self.tile_events
            and not self.stall_windows
            and not any(prob for _, prob in self.eject_corrupt)
            and not self.vr_events
            and not self.router_events
        )

    def describe(self) -> str:
        """One line per scheduled fault, for logs and CLI output."""
        lines = [f"FaultPlan(seed={self.seed:#x})"]
        if self.wire_spec is not None and self.wire_spec.active:
            s = self.wire_spec
            lines.append(
                f"  wire: drop={s.drop} corrupt={s.corrupt} "
                f"duplicate={s.duplicate} reorder={s.reorder} "
                f"delay={s.delay}"
            )
        for kind, name, at, duration in self.tile_events:
            lines.append(f"  {kind} tile {name!r}: "
                         f"cycles ({at}, {at + duration}]")
        for coord, at, duration in self.stall_windows:
            lines.append(f"  stall link {coord}: "
                         f"cycles ({at}, {at + duration}]")
        for coords, prob in self.eject_corrupt:
            where = "all ports" if coords is None else str(coords)
            lines.append(f"  corrupt ejected flits p={prob} at {where}")
        for kind, coord, port_index, at, duration in self.router_events:
            where = f"router {coord}"
            if port_index is not None:
                names = {v: k for k, v in _ROUTER_PORTS.items()}
                where += f".{names[port_index]}"
            lines.append(f"  {kind} {where}: "
                         f"cycles ({at}, {at + duration}]")
        for role, shard, at_s, duration_s in self.vr_events:
            lines.append(f"  vr freeze {role}[{shard}]: "
                         f"[{at_s}s, {at_s + duration_s}s)")
        return "\n".join(lines)

