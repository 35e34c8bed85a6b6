"""Flits — the unit the NoC moves.

A NoC message is one header flit followed by body flits (metadata flits
carrying parsed packet-header fields, then data flits carrying payload).
Only the header flit carries routing information; body flits follow the
wormhole path their header opened.  Flits are 512 bits (64 bytes) wide,
and the top 64 bits of the header flit are the original OpenPiton header
(destination, source, length), which is why the paper could reuse the
OpenPiton routers unmodified.

Flit handles
------------

Body flits carry nothing the fabric reads, so the flat mesh
(:mod:`repro.noc.flatmesh`) moves no :class:`Flit` objects: its rings,
injection queues and ejection FIFOs hold one ``int`` per flit, a
*handle*::

    seq << HANDLE_SEQ_SHIFT | HANDLE_HEAD (header only) | flits still to come

with the handle of a message's **last** flit negated, so the tail test
is ``handle < 0``.  ``seq`` (>= 1, so no handle is 0) is the injection
sequence number under which the injecting core filed its copy of the
message; the message travels once, by reference, in that table and the
ejecting port takes it out on the tail.  ``Flit`` objects exist there
only where someone looks at one (tracer, fault filter, ``peek()``),
built once per message by ``NocMessage.to_flits()``.  The object mesh
(:mod:`repro.noc.mesh`, the reference) moves ``Flit`` objects as ever.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.params import FLIT_BYTES


class FlitKind(enum.Enum):
    HEADER = "header"
    METADATA = "metadata"
    DATA = "data"


# What ``Flit.__init__`` validates against, resolved once: the
# constructor runs per flit per message encode.
_DATA = FlitKind.DATA
_BYTES_LIKE = (bytes, bytearray, memoryview)

# The handle format (module docstring).  32 bits of count cover
# NOC_MAX_PAYLOAD_BYTES many times over.
HANDLE_SEQ_SHIFT = 33
HANDLE_HEAD = 1 << 32
HANDLE_COUNT_MASK = HANDLE_HEAD - 1


def decode_handle(handle: int) -> tuple[int, bool, bool, int]:
    """``(seq, is_head, is_tail, flits_still_to_come)`` of a handle."""
    bits = -handle if handle < 0 else handle
    return (bits >> HANDLE_SEQ_SHIFT, bool(bits & HANDLE_HEAD),
            handle < 0, bits & HANDLE_COUNT_MASK)


@dataclass(slots=True, init=False)
class Flit:
    """One flit.  ``payload`` is bytes for DATA flits, an arbitrary
    metadata object for METADATA flits, and routing info for HEADER
    flits (already held in the dedicated fields)."""

    kind: FlitKind
    is_head: bool
    is_tail: bool
    dst: tuple[int, int]
    src: tuple[int, int]
    msg_id: int
    payload: object = None
    # End-to-end packet correlation id, carried on the header flit so
    # reassembled messages keep the identity tracing assigned upstream.
    packet_id: int | None = None

    # Hand-written so the saturated path (one construction per flit per
    # message encode) skips generated-init overhead and validates only
    # the one kind that needs it.
    def __init__(self, kind, is_head, is_tail, dst, src, msg_id,
                 payload=None, packet_id=None):
        if payload is not None and kind is _DATA:
            if not isinstance(payload, _BYTES_LIKE):
                raise TypeError("DATA flit payload must be bytes-like")
            if len(payload) > FLIT_BYTES:
                raise ValueError(
                    f"DATA flit payload exceeds {FLIT_BYTES} bytes"
                )
        self.kind = kind
        self.is_head = is_head
        self.is_tail = is_tail
        self.dst = dst
        self.src = src
        self.msg_id = msg_id
        self.payload = payload
        self.packet_id = packet_id

    def __repr__(self) -> str:
        marks = ("H" if self.is_head else "") + ("T" if self.is_tail else "")
        return (f"Flit({self.kind.value}{marks} msg={self.msg_id} "
                f"{self.src}->{self.dst})")
