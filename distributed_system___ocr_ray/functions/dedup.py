"""Deduplication operators: exact, MinHash+LSH, embedding near-dup.

Driver-mandated training-data extras, built Ray-Data-first:

- **exact**: content-hash in a vectorized ``map_batches``, then ONE small
  ``groupby(hash)`` aggregate (Min keeper id + Count) -- the hash column is
  64 hex chars regardless of document size, so the shuffle moves hashes, not
  documents.
- **MinHash+LSH**: shingle -> 64-perm minhash signature per batch (numpy,
  no per-shingle Python hashing of permutations) -> explode to
  ``(band, band_hash, doc_id, sig)`` rows -> ``groupby(band, band_hash)``
  -> candidate pairs verified by signature-estimated Jaccard. The only
  all-to-all moves (band rows + 512-byte signatures), never the text.
- **embedding near-dup**: random-hyperplane LSH bucket (seeded, deterministic)
  -> groupby(bucket) -> within-bucket pairwise cosine >= threshold.

Group-size capping: a pathological bucket (e.g. the empty-document cluster)
would produce O(n^2) pairs; every pair emitter caps a group at
``max_group_size`` rows, emitting pairs against the group's representative
(min id) beyond the cap -- a documented skew guard.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MERSENNE = (1 << 61) - 1
_MAX_GROUP_SIZE = 64


def sha256_hex(texts: list[str]) -> list[str]:
    return [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]


def md5_u64(data: bytes) -> int:
    """First 8 md5 digest bytes, big-endian -> uint64.

    The one shingle hash used by the MinHash kernel: md5 is in C (hashlib)
    AND in DuckDB, and the big-endian prefix equals
    ``('0x' || substr(md5(s), 1, 16))::UBIGINT`` exactly, which is what lets
    an oracle replay the whole signature computation in SQL."""
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big")


def md5_u64_hashed(s: str, memo: dict[str, int] | None = None) -> int:
    """``md5_u64`` of a string with optional memoization. Batch kernels pass
    one dict per batch: natural-language vocab is Zipfian, so each distinct
    token/shingle is digested ONCE per batch and repeats cost a dict lookup
    (~20x cheaper than the Python md5 round trip) -- same values, same
    oracles, just fewer digests. The memo lives for one batch, so memory is
    bounded by per-batch vocabulary, not corpus vocabulary."""
    if memo is None:
        return md5_u64(s.encode("utf-8"))
    v = memo.get(s)
    if v is None:
        v = md5_u64(s.encode("utf-8"))
        memo[s] = v
    return v


def shingle_hashes(text: str, k: int = 3, memo: dict[str, int] | None = None) -> np.ndarray:
    """Word k-shingles -> uint64 hashes (md5 prefix: C-speed and
    DuckDB-replayable -- see ``md5_u64``). Tokenization uses the
    RE2-\\S-equivalent ASCII class (textstats._WS_TOKEN) so a SQL replay
    splits words identically on non-ASCII whitespace.
    ``memo``: per-batch distinct-shingle digest cache (md5_u64_hashed)."""
    from .textstats import _WS_TOKEN

    words = _WS_TOKEN.findall(text)
    if len(words) < k:
        shingles = [" ".join(words)] if words else [""]
    else:
        shingles = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    out = np.empty(len(shingles), dtype=np.uint64)
    if memo is None:
        for i, s in enumerate(shingles):
            out[i] = md5_u64(s.encode("utf-8"))
        return out
    get = memo.get  # inlined md5_u64_hashed: no per-shingle function call
    for i, s in enumerate(shingles):
        v = get(s)
        if v is None:
            v = md5_u64(s.encode("utf-8"))
            memo[s] = v
        out[i] = v
    return out


def minhasher_cached(num_perm: int = 64, seed: int = 7) -> "MinHasher":
    """Module-level per-process MinHasher cache. Construction is ~2 us, so
    callers could rebuild per batch -- the cache exists so map_batches
    stages can be plain TASK functions (no actor pool): after hundreds of
    actor-pool spin-ups in one long Ray session, a pool's first actor was
    twice observed (2026-08-19) to never get scheduled, wedging the stage
    forever; task-based stages are immune to that failure mode and carry no
    pool spin-up cost."""
    key = (num_perm, seed)
    mh = _MINHASHER_CACHE.get(key)
    if mh is None:
        mh = _MINHASHER_CACHE[key] = MinHasher(num_perm=num_perm, seed=seed)
    return mh


_MINHASHER_CACHE: dict[tuple[int, int], "MinHasher"] = {}


class MinHasher:
    """k-permutation MinHash; permutation params fixed by seed (build once
    per worker -- actor state or module cache, see minhasher_cached)."""

    def __init__(self, num_perm: int = 64, seed: int = 7) -> None:
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)

    def signature(self, text: str, k: int = 3, memo: dict[str, int] | None = None) -> np.ndarray:
        h = shingle_hashes(text, k, memo)
        # (num_perm, n_shingles) permuted values, min over shingles. NOTE:
        # a*h wraps mod 2^64 (numpy uint64) BEFORE the Mersenne mod, so this
        # is a deterministic well-mixed map, not a strict universal
        # (a*x+b) mod p family -- fine for near-dup estimation (validated on
        # planted dups), but est_jaccard carries mixing bias at the margin.
        vals = (self.a[:, None] * h[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return vals.min(axis=1).astype(np.uint64)

    def band_hashes(self, sig: np.ndarray, bands: int) -> list[int]:
        """63-bit md5 prefix of each band slice (int64-safe). A band-key
        collision merges two value-buckets, which can both ADD candidates
        and -- via the group cap -- DROP pairs, so keep the probability
        negligible: 2^-63 per bucket pair (the earlier crc32 key's 2^-32
        was already unobserved at test scales, but the margin is free)."""
        r = self.num_perm // bands
        return [
            md5_u64(sig[i * r : (i + 1) * r].tobytes()) >> 1 for i in range(bands)
        ]


def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.mean(sig_a == sig_b))


def group_pairs(ids: list, cap: int = _MAX_GROUP_SIZE):
    """All (a<b) pairs within a group, capped: beyond ``cap`` members, pair
    each member with the representative only (keeps output near-linear)."""
    ids = sorted(ids)
    if len(ids) <= 1:
        return
    if len(ids) <= cap:
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                yield ids[i], ids[j]
    else:
        rep = ids[0]
        for other in ids[1:]:
            yield rep, other


def hyperplane_bucket(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-bit LSH bucket ids for row vectors (planes: (n_planes, dim))."""
    bits = (vecs @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0])).astype(np.int64)
    return bits.astype(np.int64) @ weights


def make_planes(dim: int, n_planes: int = 10, seed: int = 7) -> np.ndarray:
    return np.random.RandomState(seed).randn(n_planes, dim)


def pairwise_cosine_pairs(
    ids: list, vecs: np.ndarray, threshold: float, cap: int = 256
) -> list[tuple]:
    """Exact cosine over one (small) bucket; emits (a, b, sim) with a<b."""
    n = len(ids)
    if n < 2:
        return []
    if n > cap:  # skew guard: truncate pathological buckets deterministically
        order = np.argsort(np.asarray(ids))[:cap]
        ids = [ids[i] for i in order]
        vecs = vecs[order]
        n = cap
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    unit = vecs / np.clip(norms, 1e-12, None)
    sims = unit @ unit.T
    out = []
    iu, ju = np.triu_indices(n, k=1)
    keep = sims[iu, ju] >= threshold
    for i, j, s in zip(iu[keep], ju[keep], sims[iu, ju][keep]):
        a, b = ids[i], ids[j]
        if a > b:
            a, b = b, a
        out.append((a, b, float(s)))
    return out
