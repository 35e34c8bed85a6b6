"""The Reed-Solomon codec (BackBlaze construction).

The encoding matrix is a Vandermonde matrix normalised so its top
square is the identity: encoding leaves the data shards unchanged and
appends parity rows, and any ``data_shards`` surviving rows suffice to
reconstruct (every square submatrix is invertible).
"""

from __future__ import annotations

import numpy as np

from repro.apps.reed_solomon.gf import GF
from repro.apps.reed_solomon.matrix import GFMatrix


class ReedSolomonCodec:
    """An (data_shards, parity_shards) erasure code over GF(256)."""

    def __init__(self, data_shards: int, parity_shards: int):
        if data_shards < 1 or parity_shards < 0:
            raise ValueError("need >= 1 data and >= 0 parity shards")
        if data_shards + parity_shards > 256:
            raise ValueError("at most 256 total shards in GF(256)")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards
        vandermonde = GFMatrix.vandermonde(self.total_shards,
                                           data_shards)
        top = vandermonde.select_rows(range(data_shards))
        self.matrix = vandermonde.times(top.invert())
        self.parity_rows = self.matrix.select_rows(
            range(data_shards, self.total_shards)
        )

    # -- encode -----------------------------------------------------------

    def encode(self, data_blocks: list[bytes]) -> list[bytes]:
        """Parity shards for ``data_shards`` equal-length blocks."""
        if len(data_blocks) != self.data_shards:
            raise ValueError(
                f"expected {self.data_shards} blocks, got "
                f"{len(data_blocks)}"
            )
        length = len(data_blocks[0])
        if any(len(block) != length for block in data_blocks):
            raise ValueError("data blocks must be equal length")
        data = [np.frombuffer(block, dtype=np.uint8)
                for block in data_blocks]
        parity = []
        for row in self.parity_rows.data:
            acc = np.zeros(length, dtype=np.uint8)
            for coefficient, block in zip(row, data):
                GF.addmul_slice(acc, int(coefficient), block)
            parity.append(acc.tobytes())
        return parity

    def encode_request(self, request: bytes) -> bytes:
        """The accelerator's interface: split a request into
        ``data_shards`` stripes, return the concatenated parity (the
        4 KB -> 1 KB transform of section VII-E)."""
        if len(request) % self.data_shards:
            raise ValueError(
                f"request length {len(request)} not divisible by "
                f"{self.data_shards}"
            )
        stripe = len(request) // self.data_shards
        blocks = [request[i * stripe:(i + 1) * stripe]
                  for i in range(self.data_shards)]
        return b"".join(self.encode(blocks))

    # -- decode -----------------------------------------------------------

    def reconstruct(self, shards: dict[int, bytes],
                    length: int) -> list[bytes]:
        """Rebuild all data shards from any ``data_shards`` survivors.

        ``shards`` maps shard index (0..total-1; parity shards follow
        data shards) to its bytes.
        """
        if len(shards) < self.data_shards:
            raise ValueError(
                f"need {self.data_shards} shards, have {len(shards)}"
            )
        indices = sorted(shards)[: self.data_shards]
        sub = self.matrix.select_rows(indices)
        decode = sub.invert()
        available = [np.frombuffer(shards[i], dtype=np.uint8)
                     for i in indices]
        out = []
        for row in decode.data:
            acc = np.zeros(length, dtype=np.uint8)
            for coefficient, block in zip(row, available):
                GF.addmul_slice(acc, int(coefficient), block)
            out.append(acc.tobytes())
        return out

