"""Pluggable congestion-control strategies for the TCP models.

One :class:`CongestionControl` interface serves both sides of the
reproduction's TCP world: the accelerator-side
:class:`~repro.tcp.tx_engine.TcpTxEngineTile` and the host-side
:class:`~repro.tcp.peer.SoftTcpPeer`.  A strategy mutates a *flow
object* — anything exposing ``cwnd`` and ``ssthresh`` attributes (the
engine's :class:`~repro.tcp.flow.TxFlowState`, or the peer itself) —
in response to four events:

``on_connect``
    handshake completed; install the initial window.
``on_ack``
    new data acknowledged; grow the window (slow start below
    ``ssthresh``, the algorithm's avoidance law above it).
``on_loss``
    loss inferred from triple duplicate ACKs (fast retransmit).
``on_timeout``
    retransmission timer fired; the heavy hammer.

Windows are in bytes; rates are derived by callers.  All arithmetic is
integer (or rounds to integer) so identically seeded runs are
bit-reproducible regardless of platform.

CUBIC's window growth is a function of *time* since the last loss
event.  Real CUBIC measures seconds; at the simulation's 4 ns cycle a
literal translation puts the concave/convex inflection ~700M cycles
out, far beyond any practical run.  ``cycles_per_unit`` scales
simulated cycles to CUBIC time units so the characteristic concave →
plateau → convex shape plays out within ordinary sweep horizons while
the closed form stays exactly :func:`cubic_window`.
"""

from __future__ import annotations

CUBIC_BETA = 0.7
CUBIC_C = 0.4


def cubic_window(t: float, w_max: float,
                 beta: float = CUBIC_BETA, c: float = CUBIC_C) -> float:
    """CUBIC's closed-form window at time ``t`` units after a loss.

    ``W(t) = C*(t - K)^3 + W_max`` with ``K = cbrt(W_max*(1-beta)/C)``,
    all in MSS units — the textbook RFC 8312 curve.  ``W(0)`` equals
    ``W_max * beta`` (the post-loss window) and the curve re-reaches
    ``W_max`` at ``t == K``.
    """
    k = (w_max * (1.0 - beta) / c) ** (1.0 / 3.0)
    return c * (t - k) ** 3 + w_max


class CongestionControl:
    """Base strategy: initial-window installation plus shared helpers.

    Subclasses implement ``on_ack`` / ``on_loss`` / ``on_timeout``.
    ``cycle`` arguments default to 0 so callers without a clock (unit
    tests poking flows directly) still work; only CUBIC reads them.
    """

    name = "none"
    #: The window a flow opens with, in MSS.
    initial_window_mss = 2

    def on_connect(self, flow, mss: int, cycle: int = 0) -> None:
        flow.cwnd = self.initial_window_mss * mss
        flow.ssthresh = 65535

    def on_ack(self, flow, acked: int, mss: int, cycle: int = 0) -> None:
        raise NotImplementedError

    def on_loss(self, flow, in_flight: int, mss: int,
                cycle: int = 0) -> None:
        raise NotImplementedError

    def on_timeout(self, flow, in_flight: int, mss: int,
                   cycle: int = 0) -> None:
        raise NotImplementedError

    def _slow_start_or_avoid(self, flow, acked: int, mss: int) -> None:
        """The classic AIMD growth law shared by Tahoe and Reno."""
        if flow.cwnd < flow.ssthresh:
            # Slow start: one MSS per MSS acked (doubles per RTT).
            flow.cwnd += min(acked, mss)
        else:
            # Congestion avoidance: ~one MSS per RTT.
            flow.cwnd += max(1, mss * mss // flow.cwnd)


class RenoCC(CongestionControl):
    """NewReno-style: halve into fast recovery on triple-dup-ACK."""

    name = "reno"

    def on_ack(self, flow, acked: int, mss: int, cycle: int = 0) -> None:
        if not flow.cwnd:
            return
        self._slow_start_or_avoid(flow, acked, mss)

    def on_loss(self, flow, in_flight: int, mss: int,
                cycle: int = 0) -> None:
        flow.ssthresh = max(in_flight // 2, 2 * mss)
        flow.cwnd = flow.ssthresh

    def on_timeout(self, flow, in_flight: int, mss: int,
                   cycle: int = 0) -> None:
        flow.ssthresh = max(in_flight // 2, 2 * mss)
        flow.cwnd = mss


class TahoeCC(RenoCC):
    """Original Tahoe: every loss signal collapses to one MSS."""

    name = "tahoe"

    def on_loss(self, flow, in_flight: int, mss: int,
                cycle: int = 0) -> None:
        flow.ssthresh = max(in_flight // 2, 2 * mss)
        flow.cwnd = mss


class CubicCC(CongestionControl):
    """RFC 8312 CUBIC with simulation-time scaling.

    Epoch state lives on the flow object itself (``cc_epoch``,
    ``cc_wmax``) so one strategy instance serves many flows, mirroring
    how a kernel shares one CC module across sockets.
    """

    name = "cubic"
    beta = CUBIC_BETA
    c = CUBIC_C
    #: Simulated cycles per unit of CUBIC's time axis.
    cycles_per_unit = 25_000

    def on_ack(self, flow, acked: int, mss: int, cycle: int = 0) -> None:
        if not flow.cwnd:
            return
        if flow.cwnd < flow.ssthresh:
            flow.cwnd += min(acked, mss)
            return
        epoch = getattr(flow, "cc_epoch", None)
        if epoch is None:
            # First avoidance ACK after a loss (or ever): anchor the
            # cubic epoch here, with W_max at least the current window
            # so growth starts from the plateau, never below it.
            epoch = cycle
            flow.cc_epoch = epoch
            flow.cc_wmax = max(getattr(flow, "cc_wmax", 0.0),
                               flow.cwnd / mss)
        t = (cycle - epoch) / self.cycles_per_unit
        target = int(cubic_window(t, flow.cc_wmax, self.beta, self.c)
                     * mss)
        # Monotone guard: the closed form dips below cwnd right after
        # the epoch anchors mid-plateau; never shrink on an ACK.
        flow.cwnd = max(flow.cwnd, target)

    def on_loss(self, flow, in_flight: int, mss: int,
                cycle: int = 0) -> None:
        flow.cc_wmax = flow.cwnd / mss
        flow.cwnd = max(int(flow.cwnd * self.beta), 2 * mss)
        flow.ssthresh = flow.cwnd
        flow.cc_epoch = None

    def on_timeout(self, flow, in_flight: int, mss: int,
                   cycle: int = 0) -> None:
        flow.cc_wmax = flow.cwnd / mss
        flow.ssthresh = max(int(flow.cwnd * self.beta), 2 * mss)
        flow.cwnd = mss
        flow.cc_epoch = None


_CC_REGISTRY = {
    "tahoe": TahoeCC,
    "reno": RenoCC,
    "cubic": CubicCC,
}


def make_cc(spec) -> CongestionControl | None:
    """Resolve a congestion-control spec to a strategy (or ``None``).

    ``None``/``False``/``""``/``"none"``/``"off"`` disable congestion
    control entirely (the pre-CC blast-at-will behaviour).  ``True``
    keeps the historical meaning — Reno, byte-for-byte what the inline
    engine code did before strategies existed.  A string picks an
    algorithm by name; an existing :class:`CongestionControl` instance
    passes through untouched.
    """
    if spec is None or spec is False:
        return None
    if isinstance(spec, CongestionControl):
        return spec
    if spec is True:
        return RenoCC()
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in ("", "none", "off"):
            return None
        try:
            cls = _CC_REGISTRY[key]
        except KeyError:
            raise ValueError(
                f"unknown congestion control {spec!r} "
                f"(choose from {sorted(_CC_REGISTRY)})") from None
        return cls()
    raise TypeError(
        f"congestion_control must be None, bool, str, or a "
        f"CongestionControl instance, not {type(spec).__name__}")
