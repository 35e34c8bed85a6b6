"""Named, seeded random streams.

Each subsystem draws from its own stream so adding randomness to one
model never perturbs another — a property the reproduction's
deterministic regression tests rely on.
"""

from __future__ import annotations

import hashlib
import random


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SeededStreams:
    """A factory of independent ``random.Random`` streams."""

    def __init__(self, root_seed: int = 0xBEE):
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(
                _derive_seed(self.root_seed, name)
            )
        return self._streams[name]
