"""The replicated key-value store and its workload generator.

Workload per the paper (section VII-F): 64-byte keys and values, 90%
reads / 10% writes, uniform key distribution, key space sharded with a
leader + witness + replica set per slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import params


class KvStore:
    """The application state machine each replica group maintains."""

    def __init__(self):
        self._data: dict[bytes, bytes] = {}
        self.reads = 0
        self.writes = 0

    def execute(self, op: "KvOp") -> bytes | None:
        if op.kind == "get":
            self.reads += 1
            return self._data.get(op.key)
        if op.kind == "put":
            self.writes += 1
            self._data[op.key] = op.value
            return op.value
        raise ValueError(f"unknown op kind {op.kind!r}")

    def snapshot(self) -> dict[bytes, bytes]:
        return dict(self._data)


@dataclass(frozen=True)
class KvOp:
    kind: str  # "get" | "put"
    key: bytes
    value: bytes | None = None


class KvWorkload:
    """Uniform-key, read-mostly operation generator."""

    #: Distinct keys the workload draws from, uniformly.
    n_keys = 10_000

    def __init__(self, rng: random.Random, shards: int = 1):
        self.rng = rng
        self.shards = shards

    def _key(self, index: int) -> bytes:
        return str(index).encode().rjust(params.VR_KEY_BYTES, b"k")

    def shard_of(self, key: bytes) -> int:
        return int(key[-8:].strip(b"k") or b"0") % self.shards

    def next_op(self) -> tuple[int, KvOp]:
        """(shard, operation) for one client request."""
        index = self.rng.randrange(self.n_keys)
        key = self._key(index)
        shard = self.shard_of(key)
        if self.rng.random() < params.VR_READ_FRACTION:
            return shard, KvOp(kind="get", key=key)
        value = self.rng.randbytes(params.VR_VALUE_BYTES)
        return shard, KvOp(kind="put", key=key, value=value)
