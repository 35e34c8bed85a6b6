"""NoC messages and their flit-level encoding/decoding.

``NocMessage.to_flits`` performs what the paper calls NoC message
construction (one header flit, metadata flit(s) with parsed packet-header
fields, data flits with 64 B payload slices); ``MessageAssembler``
performs deconstruction at the receiving tile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.noc.flit import Flit, FlitKind
from repro.params import FLIT_BYTES, NOC_MAX_PAYLOAD_BYTES

_msg_counter = itertools.count(1)
_packet_counter = itertools.count(1)

_HEADER = FlitKind.HEADER
_METADATA = FlitKind.METADATA
_DATA = FlitKind.DATA


def reset_id_counters() -> None:
    """Restart the global message/packet id counters from 1.

    Ids are design-wide but allocated from module globals, so two runs
    built in the same process see different ids.  Differential tests
    (naive vs scheduled kernel) call this before each run so that id
    streams — and everything derived from them, like trace spans —
    compare equal.
    """
    global _msg_counter, _packet_counter
    _msg_counter = itertools.count(1)
    _packet_counter = itertools.count(1)


def next_packet_id() -> int:
    """Allocate a design-wide monotonically increasing packet id.

    Assigned when a packet first enters a design (MAC-side ingress or a
    source tile's first send) and propagated through every NoC message
    derived from it, so tracing can stitch per-tile spans into one
    end-to-end latency span.
    """
    return next(_packet_counter)


@dataclass
class NocMessage:
    """A message between two tiles.

    ``metadata`` is the parsed-header / control portion (an arbitrary
    object: protocol tiles pass header dataclasses, the control plane
    passes command objects).  ``data`` is the raw payload carried in
    64-byte data flits.
    """

    dst: tuple[int, int]
    src: tuple[int, int]
    metadata: object = None
    data: bytes = b""
    n_meta_flits: int = 1
    msg_id: int = field(default_factory=lambda: next(_msg_counter))
    # Which wire packet this message descends from (see next_packet_id).
    # None until the packet enters a design; the tile framework assigns
    # and propagates it.
    packet_id: int | None = None

    def __post_init__(self):
        if len(self.data) > NOC_MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"payload {len(self.data)} exceeds NoC max "
                f"{NOC_MAX_PAYLOAD_BYTES}"
            )
        if self.n_meta_flits < 0:
            raise ValueError("n_meta_flits must be >= 0")

    @property
    def n_flits(self) -> int:
        """Total flits on the wire: header + metadata + data (the
        length of :meth:`to_flits`, without building it)."""
        return (1 + self.n_meta_flits
                + (len(self.data) + FLIT_BYTES - 1) // FLIT_BYTES)

    def to_flits(self) -> list[Flit]:
        """Encode as a wormhole-ready flit sequence.

        Saturated-path note (object mesh; the flat mesh calls this
        only for a message somebody observes): one call per message
        send, ~24 Flit constructions at MTU — hence the hoisted locals,
        positional construction (`Flit.__init__`'s exact field order)
        and one comprehension for the full-width data flits.
        """
        dst = self.dst
        src = self.src
        msg_id = self.msg_id
        data = self.data
        n_meta = self.n_meta_flits
        n_data = (len(data) + FLIT_BYTES - 1) // FLIT_BYTES
        flits = [Flit(_HEADER, True, not (n_meta or n_data),
                      dst, src, msg_id, None, self.packet_id)]
        if n_meta:
            last_meta = n_meta - 1
            for i in range(n_meta):
                flits.append(Flit(_METADATA, False,
                                  i == last_meta and not n_data,
                                  dst, src, msg_id,
                                  self.metadata if i == 0 else None))
        if n_data:
            tail_at = (n_data - 1) * FLIT_BYTES
            flits += [Flit(_DATA, False, False, dst, src, msg_id,
                           data[at:at + FLIT_BYTES])
                      for at in range(0, tail_at, FLIT_BYTES)]
            flits.append(Flit(_DATA, False, True, dst, src, msg_id,
                              data[tail_at:]))
        return flits


class MessageAssembler:
    """Rebuilds :class:`NocMessage` objects from an in-order flit stream.

    Wormhole switching guarantees a tile's local ejection port delivers
    each message's flits contiguously, so a single in-flight assembly
    suffices per port.
    """

    __slots__ = ("_active", "_seq", "_dst", "_src", "_msg_id",
                 "_packet_id", "_metadata", "_meta_count", "_chunks")

    def __init__(self):
        self._active = False
        # Under the flat mesh the port counts int handles instead of
        # pushing flits (LocalPort.receive): ``_active`` is shared,
        # ``_seq`` names the message whose handles are arriving.
        self._seq = 0
        self._dst = self._src = None
        self._msg_id = self._packet_id = None
        self._metadata = None
        self._meta_count = 0
        self._chunks: list[bytes] = []

    @property
    def mid_message(self) -> bool:
        return self._active

    def push(self, flit: Flit) -> NocMessage | None:
        """Feed one flit; returns a completed message on the tail flit."""
        if flit.is_head:
            if self._active:
                raise ValueError(
                    f"header flit {flit!r} arrived mid-message"
                )
            self._active = True
            self._dst = flit.dst
            self._src = flit.src
            self._msg_id = flit.msg_id
            self._packet_id = flit.packet_id
            self._metadata = None
            self._meta_count = 0
            self._chunks = []
        else:
            if not self._active:
                raise ValueError(f"body flit {flit!r} without a header")
            if flit.msg_id != self._msg_id:
                raise ValueError(
                    f"interleaved flit {flit!r} inside msg "
                    f"{self._msg_id}"
                )
            kind = flit.kind
            if kind is _DATA:
                self._chunks.append(bytes(flit.payload or b""))
            elif kind is _METADATA:
                if self._meta_count == 0:
                    self._metadata = flit.payload
                self._meta_count += 1
        if flit.is_tail:
            self._active = False
            return NocMessage(
                dst=self._dst,
                src=self._src,
                metadata=self._metadata,
                data=b"".join(self._chunks),
                n_meta_flits=self._meta_count,
                msg_id=self._msg_id,
                packet_id=self._packet_id,
            )
        return None
