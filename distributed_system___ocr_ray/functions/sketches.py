"""Mergeable sketches for approximate aggregates at scale.

The reference has no sketches (SURVEY.md #2.5); these are training-data-engine
extras built for the Ray partial/merge pattern (ray_guide "Aggregation at
scale"): one serialized sketch per batch inside ``map_batches``, merged in a
tiny second stage -- the shuffle moves KB-sized register arrays, never rows.

HyperLogLog: dense, ``2^p`` uint8 registers, 64-bit hashes (md5-prefix,
deterministic -- no randomness in the data path; the same value DuckDB
computes as ``('0x' || substr(md5(v), 1, 16))::UBIGINT``, which is what lets
a DuckDB oracle replay the whole sketch -- registers,
estimator, linear-counting branch -- in SQL). Standard bias-corrected
estimator with linear counting for the small range.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


class HyperLogLog:
    def __init__(self, p: int = 12) -> None:
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    @staticmethod
    def _hash64(values) -> np.ndarray:
        out = np.empty(len(values), dtype=np.uint64)
        for i, v in enumerate(values):
            b = v if isinstance(v, bytes) else str(v).encode("utf-8")
            # big-endian md5 prefix == DuckDB ('0x'||substr(md5(v),1,16))
            out[i] = int.from_bytes(hashlib.md5(b).digest()[:8], "big")
        return out

    def add_many(self, values) -> "HyperLogLog":
        if len(values) == 0:
            return self
        h = self._hash64(values)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of the remaining bits + 1 (vectorized via bit length)
        # bit_length of rest: 64 - clz; leading zeros = 64 - bit_length
        bl = np.zeros(len(rest), dtype=np.int64)
        r = rest.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            mask = r >= (np.uint64(1) << np.uint64(shift))
            bl[mask] += shift
            r[mask] >>= np.uint64(shift)
        bl += 1  # bit_length
        rank = (64 - bl + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert other.p == self.p
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        # sum(2^-r) computed as an EXACT integer numerator / 2^64
        # (ranks are <= 64-p+1 <= 64): a float accumulation here would be
        # order-sensitive in the last ulp, so numpy's pairwise sum and the
        # DuckDB oracle's SUM() could disagree; the integer sum is
        # order-free and both sides round exactly once, at the final
        # HUGEINT/int -> double conversion
        counts = np.bincount(self.registers, minlength=65)
        numerator = sum(int(c) << (64 - r) for r, c in enumerate(counts) if c)
        est = alpha * m * m * 18446744073709551616.0 / float(numerator)
        zeros = int(np.count_nonzero(self.registers == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # linear counting
        return float(est)

    def to_bytes(self) -> bytes:
        return struct.pack("<B", self.p) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        p = struct.unpack("<B", b[:1])[0]
        hll = cls(p)
        hll.registers = np.frombuffer(b[1:], dtype=np.uint8).copy()
        return hll


def approx_distinct(ds, col: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT col): per-batch HLL -> merge (the sketch
    partial/final split; ~(1.04/sqrt(2^p)) relative error, ~1.6% at p=12)."""
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        hll = HyperLogLog(p).add_many(batch.column(col).to_pylist())
        return pa.table({"sketch": pa.array([hll.to_bytes()], pa.binary())})

    merged = HyperLogLog(p)
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        merged.merge(HyperLogLog.from_bytes(row["sketch"]))
    return merged.estimate()


class CountMinSketch:
    """Count-Min sketch: fixed ``depth x width`` int64 counters, point-query
    estimate = min over rows of the row's bucket counter (always an
    OVERESTIMATE; error <= 2N/width with prob 1-(1/2)^depth). The
    frequency-estimation complement to HyperLogLog for UNBOUNDED token
    vocabularies: the exact ``top_tokens`` path shuffles one (token, count)
    partial per distinct token — billions of keys at corpus scale — while
    this sketch is a constant 4x8192x8 B = 256 KB per batch regardless.

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


def approx_distinct_by_key(ds, key_col: str, col: str, p: int = 10):
    """Grouped approximate COUNT(DISTINCT col) per ``key_col``: one HLL per
    (batch, key) inside ``map_batches``, register-max merged per key, then
    the exact estimator -- the mergeable-sketch-per-group pattern. The
    exchange moves ``n_batches x n_keys`` register arrays (KB each), never
    rows, so cost is independent of per-key cardinality.

    BOUNDED key domains only (event types, languages, shards): the final
    merge collects every per-batch sketch on the driver (the same contract
    as ``approx_distinct``/``tiny_final_groupby``); an unbounded key domain
    needs a keyed shuffle of sketches instead (groupby(key) over the
    sketch rows -- same partials, bigger final).

    Returns a pandas DataFrame (key, approx_distinct) with the estimate
    rounded to integer (replayable exactly by the DuckDB oracle).
    """
    import pandas as pd
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        vals = batch.column(col).to_pylist()
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], [vals[i] for i in order]
        out_k, out_s = [], []
        first = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(first)
        ends = np.r_[starts[1:], len(keys)]
        for s, e in zip(starts, ends):
            out_k.append(keys[s])
            out_s.append(HyperLogLog(p).add_many(vals[s:e]).to_bytes())
        return pa.table({key_col: pa.array(out_k), "sketch": pa.array(out_s, pa.binary())})

    merged: dict = {}
    for row in ds.map_batches(partial, batch_format="pyarrow").take_all():
        k = row[key_col]
        hll = HyperLogLog.from_bytes(row["sketch"])
        if k in merged:
            merged[k].merge(hll)
        else:
            merged[k] = hll
    keys = sorted(merged)
    return pd.DataFrame(
        {
            key_col: keys,
            "approx_distinct": [int(np.floor(merged[k].estimate() + 0.5)) for k in keys],
        }
    )
