"""Similarity search over an embedding column (list<float>).

- ``BatchTopK``: brute-force cosine top-k baseline -- numpy matmul per Arrow
  batch against a driver-broadcast query matrix (``ray.put`` once, ``ray.get``
  in actor ``__init__``); per-batch partial top-k rows are tiny
  (n_queries x k), so the final exact merge is a small groupby.
- IVF scale path: vectors are assigned to the nearest of C seeded centroids
  in one pass; a query probes only the ``n_probe`` nearest centroid
  partitions, cutting scanned rows by ~C/n_probe. Centroids are
  deterministic (seeded sample + a few Lloyd iterations on the driver-side
  sample), so results are replayable.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """list<float> (or tensor-extension) column -> (n, d) float64 matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_list(col.type) or pa.types.is_fixed_size_list(col.type) or pa.types.is_large_list(col.type):
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(col)
        return flat.reshape(n, -1) if n else flat.reshape(0, 0)
    # Ray's ArrowTensorArray (from_pandas of ndarray cells) and the like
    return np.stack(col.to_pylist()).astype(np.float64) if len(col) else np.zeros((0, 0))


def normalize(m: np.ndarray) -> np.ndarray:
    return m / np.clip(np.linalg.norm(m, axis=1, keepdims=True), 1e-12, None)


class BatchTopK:
    """Actor-pool stage: per-batch exact cosine top-k vs broadcast queries."""

    def __init__(self, queries_handle, k: int = 10, id_col: str = "vec_id", emb_col: str = "embedding"):
        import ray

        q = queries_handle[0]
        q = ray.get(q) if isinstance(q, ray.ObjectRef) else q
        self.q = normalize(np.asarray(q, dtype=np.float64))
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = normalize(to_matrix(batch.column(self.emb_col)))
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        sims = self.q @ x.T  # (n_queries, n_batch)
        k = min(self.k, sims.shape[1])
        out_q, out_id, out_sim = [], [], []
        for qi in range(sims.shape[0]):
            idx = np.argpartition(-sims[qi], k - 1)[:k] if k < sims.shape[1] else np.arange(sims.shape[1])
            out_q.extend([qi] * len(idx))
            out_id.extend(ids[idx].tolist())
            out_sim.extend(sims[qi, idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                self.id_col: pa.array(out_id, pa.int64()),
                "sim": pa.array(out_sim, pa.float64()),
            }
        )


def final_topk_group(group, k: int, id_col: str = "vec_id"):
    """map_groups reducer: exact top-k (sim desc, id asc tie-break)."""
    import pandas as pd

    g = group.sort_values(["sim", id_col], ascending=[False, True]).head(k)
    return pd.DataFrame(g)


LLOYD_ITERS = 5  # default Lloyd iterations of the seeded centroid fit


def seeded_centroids(sample: np.ndarray, n_centroids: int, iters: int = LLOYD_ITERS,
                     seed: int = 7) -> np.ndarray:
    """Deterministic centroids: seeded pick + a few Lloyd iterations over the
    (small, driver-side) sample. No randomness in the data path afterwards."""
    rng = np.random.RandomState(seed)
    sample = normalize(np.asarray(sample, dtype=np.float64))
    idx = rng.choice(len(sample), size=min(n_centroids, len(sample)), replace=False)
    cents = sample[np.sort(idx)].copy()
    for _ in range(iters):
        sims = sample @ cents.T
        assign = np.argmax(sims, axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = normalize(cents)
    return cents


class CentroidAssign:
    """Actor-pool stage: nearest-centroid id per vector (IVF list assign)."""

    def __init__(self, centroids_handle, emb_col: str = "embedding"):
        import ray

        c = centroids_handle[0]
        c = ray.get(c) if isinstance(c, ray.ObjectRef) else c
        self.cents = normalize(np.asarray(c, dtype=np.float64))
        self.emb_col = emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = normalize(to_matrix(batch.column(self.emb_col)))
        assign = np.argmax(x @ self.cents.T, axis=1).astype(np.int32)
        return batch.append_column("centroid", pa.array(assign, pa.int32()))
