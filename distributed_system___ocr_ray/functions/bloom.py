"""Deterministic Bloom filter for distributed semi/anti-joins.

The broadcast novelty/semi-filter paths ship full 64-char sha256 hex
strings (~70 B/key in Arrow); a Bloom filter at ``bits_per_key`` = 16 is
~35x smaller for the same broadcast, which moves the 256 MB broadcast
ceiling from ~3.5M keys to ~128M keys per GB. Bloom hits can be FALSE
positives, so an exact operator must re-verify hits (misses are
definitely-novel, hits join against the real key set, as in
``analytics.bloom_fp_audit``) — the filter only shrinks the expensive side.

Determinism: one md5 per key; the two 64-bit halves drive
Kirsch-Mitzenmacher double hashing (probe_i = (h1 + i*h2) | guarantee h2
odd) — no randomness, merge = bitwise OR, so per-batch partial filters
combine exactly like every other sketch in this engine.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


class BloomFilter:
    def __init__(self, m_bits: int, k: int = 7) -> None:
        if m_bits <= 0:
            raise ValueError("m_bits must be positive")
        self.m = int(m_bits)
        self.k = int(k)
        self.words = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    @classmethod
    def for_keys(cls, n_keys: int, bits_per_key: int = 16, k: int = 7) -> "BloomFilter":
        """~0.05% FP at 16 bits/key, k=7; FP cost here is re-verification
        volume, not correctness."""
        return cls(max(64, n_keys * bits_per_key), k)

    def _probes(self, key: str) -> np.ndarray:
        d = hashlib.md5(str(key).encode("utf-8")).digest()
        h1 = int.from_bytes(d[:8], "big")
        h2 = int.from_bytes(d[8:], "big") | 1
        return np.array([(h1 + i * h2) % self.m for i in range(self.k)], dtype=np.int64)

    def add_many(self, keys) -> "BloomFilter":
        for key in keys:
            p = self._probes(key)
            np.bitwise_or.at(self.words, p // 64, np.uint64(1) << (p % 64).astype(np.uint64))
        return self

    def contains_many(self, keys) -> np.ndarray:
        out = np.empty(len(keys), dtype=bool)
        one = np.uint64(1)
        for i, key in enumerate(keys):
            p = self._probes(key)
            out[i] = bool(
                np.all((self.words[p // 64] >> (p % 64).astype(np.uint64)) & one)
            )
        return out

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError("bloom shape mismatch")
        np.bitwise_or(self.words, other.words, out=self.words)
        return self

    def to_bytes(self) -> bytes:
        return struct.pack("<QI", self.m, self.k) + self.words.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "BloomFilter":
        m, k = struct.unpack("<QI", b[:12])
        f = cls(m, k)
        f.words = np.frombuffer(b[12:], dtype=np.uint64).copy()
        return f
