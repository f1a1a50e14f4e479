"""Mergeable Count-Min sketch for approximate token counts at scale.

The reference has no sketches (SURVEY.md #2.5); this is a training-data-engine
extra built for the Ray partial/merge pattern (ray_guide "Aggregation at
scale"): one serialized sketch per batch inside ``map_batches``, merged in a
tiny second stage -- the shuffle moves KB-sized counter arrays, never rows.
Bucket hashes are md5 prefixes (deterministic -- no randomness in the data
path), so a DuckDB oracle replays every counter in SQL.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


class CountMinSketch:
    """Count-Min sketch: fixed ``depth x width`` int64 counters, point-query
    estimate = min over rows of the row's bucket counter (always an
    OVERESTIMATE; error <= 2N/width with prob 1-(1/2)^depth). Frequency
    estimation for UNBOUNDED token vocabularies: the exact ``top_tokens``
    path shuffles one (token, count) partial per distinct token — billions
    of keys at corpus scale — while this sketch is a constant 4x8192x8 B =
    256 KB per batch regardless.

    Deterministic md5-prefix bucket hashes (``md5('cms{r}:' || token)``,
    big-endian 16-hex prefix), so a DuckDB oracle replays every counter and
    every estimate bit-exactly."""

    def __init__(self, depth: int = 4, width: int = 8192) -> None:
        self.depth, self.width = depth, width
        self.table = np.zeros((depth, width), dtype=np.int64)

    def _buckets(self, tokens, r: int) -> np.ndarray:
        out = np.empty(len(tokens), dtype=np.int64)
        for i, t in enumerate(tokens):
            h = hashlib.md5(f"cms{r}:{t}".encode("utf-8")).digest()[:8]
            out[i] = int.from_bytes(h, "big") % self.width
        return out

    def add_counts(self, tokens, counts) -> "CountMinSketch":
        c = np.asarray(counts, dtype=np.int64)
        for r in range(self.depth):
            np.add.at(self.table[r], self._buckets(tokens, r), c)
        return self

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        self.table += other.table
        return self

    def estimate(self, tokens) -> np.ndarray:
        est = np.full(len(tokens), np.iinfo(np.int64).max, dtype=np.int64)
        for r in range(self.depth):
            est = np.minimum(est, self.table[r][self._buckets(tokens, r)])
        return est

    def to_bytes(self) -> bytes:
        return struct.pack("<II", self.depth, self.width) + self.table.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "CountMinSketch":
        depth, width = struct.unpack("<II", b[:8])
        s = cls(depth, width)
        s.table = np.frombuffer(b[8:], dtype=np.int64).reshape(depth, width).copy()
        return s

