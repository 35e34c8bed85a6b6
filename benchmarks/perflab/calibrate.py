"""The frozen calibration loop: a host-speed yardstick.

FROZEN. ``test_perflab.py`` pins this file's sha256. Every recorded
host-time number is divided by this loop's rate, so editing it (even a
comment) silently rescales the whole trajectory. If the loop must
change, start a new baseline and say so in CHANGES.md.

The loop is a miniature of the simulator's hot path in pure Python: a
ring of sixteen ``__slots__`` nodes stepped and committed every cycle,
deques as FIFOs, lists as staging buffers, a small dict as a routing
table, a timer heap, a busy bitmask walked lowest-bit-first, and a
fresh ``__slots__`` object and ``bytes`` per injected item. It was
chosen over a tighter arithmetic loop because it slows down with the
host more nearly as the simulator does: in one slow phase of the
builder's container the simulator lost 18%, this loop 27% and the
tighter loop 40%.
"""

import heapq
from collections import deque
from time import perf_counter

#: Simulated cycles of the miniature per slice: about 8 ms.
SLICE_CYCLES = 2_300

#: Miniature cycles per second of a typical slice on the builder's
#: container (its slices ranged from 150 000 to 400 000 as the host's
#: speed drifted). Chosen once; a chunk measured between two slices that
#: ran at exactly this rate reports normalised == raw. Never edit.
REF_RATE = 350_000.0

_NODES = 16


class _Flit:
    __slots__ = ("dst", "kind", "payload", "msg")

    def __init__(self, dst, kind, payload, msg):
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.msg = msg


class _Node:
    __slots__ = ("index", "inbox", "staged", "ring", "forwarded", "table")

    def __init__(self, index):
        self.index = index
        self.inbox = deque()
        self.staged = []
        self.ring = None
        self.forwarded = 0
        self.table = {dst: (index + 1) % _NODES for dst in range(_NODES)}

    def step(self, cycle):
        inbox = self.inbox
        if not inbox:
            return
        flit = inbox[0]
        if flit.dst == self.index:
            inbox.popleft()
            self.forwarded += 1
            return
        downstream = self.ring[self.table[flit.dst]]
        if len(downstream.inbox) + len(downstream.staged) < 4:
            downstream.staged.append(inbox.popleft())
            self.forwarded += 1

    def commit(self):
        staged = self.staged
        if staged:
            self.inbox.extend(staged)
            staged.clear()


def run_slice(cycles: int = SLICE_CYCLES) -> float:
    """Run one slice; returns its rate in miniature cycles per second."""
    nodes = [_Node(index) for index in range(_NODES)]
    for node in nodes:
        node.ring = nodes
    timers = []
    woken = 0
    checksum = 0
    started = perf_counter()
    for cycle in range(cycles):
        if cycle & 1 == 0:
            src = cycle % _NODES
            nodes[src].staged.append(
                _Flit((src * 7 + 5) % _NODES, cycle & 3, bytes(8), cycle))
            heapq.heappush(timers, (cycle + 9, src))
        while timers and timers[0][0] <= cycle:
            woken |= 1 << heapq.heappop(timers)[1]
        for node in nodes:
            node.step(cycle)
        for node in nodes:
            node.commit()
        while woken:
            low = woken & -woken
            woken ^= low
            checksum += low.bit_length()
    elapsed = perf_counter() - started
    # Consume the results, so no part of the loop is dead code.
    if checksum + sum(node.forwarded for node in nodes) <= 0:
        raise AssertionError("calibration loop did no work")
    return cycles / elapsed
