"""The witness protocol core (paper section VI-B).

A witness validates the leader and tracks the operation order; it does
not execute client operations.  The logic is deliberately tiny — that
is the point of the case study: a small, latency-critical state
machine, perfect for hardware.  The same class backs both the CPU
witness node model and the Beehive witness tile, so protocol tests
cover both deployments.

Based on the modified Viewstamped Replication of the paper's reference
[63]: the leader's Prepare carries (view, op-number, digest); the
witness accepts in-order ops for the current view, re-acknowledges
duplicates (retransmissions), rejects stale views (a deposed leader),
and reports gaps so the leader can retransmit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class WitnessDecision(enum.Enum):
    ACCEPT = "accept"          # logged; PrepareOK
    DUPLICATE = "duplicate"    # already logged; PrepareOK again
    STALE_VIEW = "stale_view"  # leader is deposed; reject
    GAP = "gap"                # missing ops; ask for retransmission


@dataclass
class WitnessState:
    """One shard's witness state."""

    shard: int = 0
    view: int = 0
    last_opnum: int = 0
    log: list = field(default_factory=list)  # (opnum, digest)
    max_log: int = 1 << 20
    accepted: int = 0
    duplicates: int = 0
    rejected: int = 0

    def handle_prepare(self, view: int, opnum: int,
                       digest: bytes) -> WitnessDecision:
        if view < self.view:
            self.rejected += 1
            return WitnessDecision.STALE_VIEW
        if view > self.view:
            # A view change happened; adopt the new view.
            self.view = view
        if opnum == self.last_opnum + 1:
            self.log.append((opnum, digest))
            if len(self.log) > self.max_log:
                self.log.pop(0)
            self.last_opnum = opnum
            self.accepted += 1
            return WitnessDecision.ACCEPT
        if opnum <= self.last_opnum:
            self.duplicates += 1
            return WitnessDecision.DUPLICATE
        self.rejected += 1
        return WitnessDecision.GAP

