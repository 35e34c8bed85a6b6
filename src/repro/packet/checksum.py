"""The Internet checksum (RFC 1071), used by IPv4, UDP, and TCP.

The sum is one big-integer reduction.  One's-complement addition of
16-bit words is addition modulo ``0xFFFF`` (with ``0xFFFF`` standing
for a non-zero multiple), and ``2**16 == 1 (mod 0xFFFF)``, so the
buffer read as a single big-endian integer is congruent to the sum of
its 16-bit words: ``int.from_bytes(data) % 0xFFFF`` is the folded sum,
computed in C without a word loop.  Odd-length input is zero-padded,
which adds nothing to the sum.

``incremental_update`` implements RFC 1624 equation 3 (the -0-safe
form of RFC 1071's incremental update) so tiles that rewrite a few
header words — NAT address translation — can patch an existing
checksum without touching the payload.  ``IPv4Header.pack`` writes the
same sum out inline for its one 16-bit identification word.
"""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """One's-complement 16-bit checksum over ``data``.

    Bit-identical to the classic 16-bit byte-pair loop with end-around
    carry for every input (including odd lengths, which are zero-padded
    per RFC 1071): that loop folds a non-zero sum into ``1..0xFFFF``,
    so a non-zero buffer whose words sum to a multiple of ``0xFFFF``
    yields ``0xFFFF``, not 0.
    """
    if len(data) & 1:
        data = data + b"\x00"
    value = int.from_bytes(data, "big")
    total = value % 0xFFFF
    if not total and value:
        total = 0xFFFF
    return total ^ 0xFFFF


def incremental_update(checksum: int, old: bytes, new: bytes) -> int:
    """Patch ``checksum`` for a field change ``old`` -> ``new``.

    RFC 1624 equation 3: ``HC' = ~(~HC + ~m + m')``, summed 16 bits at
    a time in one's-complement.  For a buffer whose embedded checksum
    was valid, the result is bit-identical to recomputing from scratch
    over the modified buffer.  ``old`` and ``new`` need not be the same
    length (odd lengths are zero-padded), but they must describe
    16-bit-aligned regions of the checksummed buffer.
    """
    if len(old) & 1:
        old = old + b"\x00"
    if len(new) & 1:
        new = new + b"\x00"
    total = (~checksum) & 0xFFFF
    for i in range(0, len(old), 2):
        total += 0xFFFF - ((old[i] << 8) | old[i + 1])
    for i in range(0, len(new), 2):
        total += (new[i] << 8) | new[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (including its embedded checksum field) sums to 0.

    A correct RFC 1071 checksum makes the one's-complement sum of the
    whole buffer equal 0xFFFF, so the complemented sum is zero.
    """
    return internet_checksum(data) == 0
