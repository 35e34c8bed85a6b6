"""Declarative, seed-deterministic fault schedules.

A :class:`FaultPlan` describes *what goes wrong and when* — wire
impairments at the MAC boundary, ejection-flit corruption, timed fault
windows (tile freezes and crashes, NoC link stalls, router misroutes
and stuck grants) and event-level VR node freezes — without
referencing any concrete design object.  One plan can therefore drive
several independently built designs (the ``fast`` / ``reference``
differential suite relies on this), and every random draw it implies
comes from :class:`repro.sim.rng.SeededStreams` derived from its one
``seed``, so a plan replays bit-identically.

Plans are builders: every mutator returns ``self`` so schedules read
as one chained expression::

    plan = (FaultPlan(seed=7)
            .wire(drop=0.01, duplicate=0.005)
            .freeze_tile("app", at=2_000, duration=1_500)
            .stall_link((3, 0), at=5_000, duration=400)
            .stuck_grant((2, 0), "south", at=6_000, duration=150)
            .corrupt_flits(0.001, coords=[(2, 0)]))

Every window is one ``(kind, target, at, duration)`` entry of
:attr:`FaultPlan.windows`, in plan order.  Two rules keep a plan
unambiguous, and a call that breaks either raises ``ValueError``:

- one window at a time per target — two windows on one target that
  meet are rejected (a freeze and a crash share their tile);
- one setting per port — a second :meth:`FaultPlan.wire`, or a
  :meth:`FaultPlan.corrupt_flits` whose ports meet an earlier call's,
  is rejected rather than silently replacing it.

Attachment to a design happens through
:func:`repro.faults.attach_faults` (or the ``fault_plan=`` kwarg every
shipped design constructor threads through to it).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Output-port name -> hot-path index (repro.noc.router's encoding).
_ROUTER_PORTS = {"local": 0, "east": 1, "west": 2, "north": 3,
                 "south": 4}

#: window kind -> how a window and its target read in an error.
_LABELS = {
    "freeze": "freeze tile {t!r}",
    "crash": "crash tile {t!r}",
    "stall": "stall link {t}",
    "misroute": "misroute router {t}",
    "stuck_grant": "stuck_grant router {t[0]}.{t[1]}",
}
#: Kinds that set the same flag of their target, so share it.
_SHARED = {"crash": "freeze"}


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], "
                         f"got {value!r}")
    return value


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
        #: (kind, target, start cycle, duration) in plan order; kind is
        #: a key of ``_LABELS``, the target a tile name, a port or
        #: router coord, or for a stuck grant (router coord, port).
        self.windows: list[tuple[str, object, int, int]] = []
        #: (coords-or-None, probability) ejection flit corruption;
        #: ``None`` targets every attached port.
        self.eject_corrupt: list[tuple[list | None, float]] = []
        #: (role, shard, at_s, duration_s) for the event-level VR
        #: cluster (seconds, not cycles).
        self.vr_events: list[tuple[str, int, float, float]] = []

    def _window(self, kind: str, target, at: int,
                duration: int) -> "FaultPlan":
        """Check a window and append it.

        Every window sets a flag or a bit that its close clears, so of
        two windows on one target that meet, the first to close would
        end both: such a plan is rejected.
        """
        if at < 0:
            raise ValueError(f"fault start cycle must be >= 0, got {at}")
        if duration < 1:
            raise ValueError(f"fault duration must be >= 1 cycle, "
                             f"got {duration}")
        at, duration = int(at), int(duration)
        share = _SHARED.get(kind, kind)
        for other, where, start, length in self.windows:
            if (_SHARED.get(other, other) == share and where == target
                    and at <= start + length and start <= at + duration):
                raise ValueError(
                    f"{_LABELS[kind].format(t=target)} cycles "
                    f"({at}, {at + duration}] meets "
                    f"{_LABELS[other].format(t=where)} cycles "
                    f"({start}, {start + length}] on the same target")
        self.windows.append((kind, target, at, duration))
        return self

    # -- wire impairments ---------------------------------------------------

    def wire(self, drop: float = 0.0, corrupt: float = 0.0,
             duplicate: float = 0.0, reorder: float = 0.0,
             delay: float = 0.0,
             delay_range: tuple[int, int] = (1, 64)) -> "FaultPlan":
        """Impair frames at the ``FrameSource``/``eth`` boundary.  A
        plan has one wire: a second call raises ``ValueError``."""
        if self.wire_spec is not None:
            raise ValueError("the plan already impairs the wire: set "
                             "every impairment in one wire() call")
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
        return self._window("freeze", name, at, duration)

    def crash_tile(self, name: str, at: int,
                   duration: int) -> "FaultPlan":
        """Like :meth:`freeze_tile`, but the tile also loses its soft
        state at the crash point: buffered/ in-service messages are
        dropped (counted under the ``fault: crash`` drop reason).
        Flits already in the NoC still deliver after the reboot."""
        return self._window("crash", name, at, duration)

    # -- NoC faults ---------------------------------------------------------

    def stall_link(self, coord: tuple[int, int], at: int,
                   duration: int) -> "FaultPlan":
        """Stall the ejection link of the local port at ``coord`` for
        ``duration`` cycles starting the cycle after ``at``.  The
        port's ejection FIFO fills and back-pressures the mesh — the
        same staging both backends share, so the stall is observed
        bit-identically by the object and flat cores."""
        return self._window("stall", tuple(coord), at, duration)

    def corrupt_flits(self, prob: float,
                      coords: list | None = None) -> "FaultPlan":
        """Corrupt one payload byte of ejected DATA flits with
        probability ``prob`` per flit, at ``coords`` (or every
        attached port when ``None``).  Header and metadata flits are
        never touched — a corrupted header would misroute the wormhole
        rather than model payload bit-rot.  A port has one setting: a
        call whose ports meet an earlier call's raises ``ValueError``."""
        prob = _check_prob("corrupt_flits prob", prob)
        if coords is not None:
            coords = [tuple(c) for c in coords]
        for other, other_prob in self.eject_corrupt:
            if coords is None or other is None or set(coords) & set(other):
                raise ValueError(
                    f"corrupt_flits({prob}, coords={coords}) meets "
                    f"corrupt_flits({other_prob}, coords={other}): set "
                    "each port's probability in one call")
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
        return self._window("misroute", tuple(coord), at, duration)

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
        return self._window("stuck_grant", (tuple(coord), port_name), at,
                            duration)

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
        return ((self.wire_spec is None or not self.wire_spec.active)
                and not self.windows
                and not any(prob for _, prob in self.eject_corrupt)
                and not self.vr_events)
