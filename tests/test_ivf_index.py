"""Persisted IVF centroid index (VERDICT r4 #8): build-once/lookup-many
for the dense side, beside ``index.build_postings`` for the sparse side.
"""

import os

import numpy as np
import pytest

SF = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")


@pytest.mark.usefixtures("ray_session")
class TestIvfIndex:
    def _queries(self):
        import pyarrow.parquet as pq

        t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        return np.asarray(t.sort_by("vec_id").column("embedding").to_pylist()[:3],
                          dtype=np.float64)

    def test_build_then_lookup_matches_per_call_path(self, tmp_path):
        """Indexed lookup is VALUE-IDENTICAL to the per-call clustering
        path (same deterministic seeded fit), and the loaded matrix
        round-trips exactly."""
        import ray.data as rd

        from distributed_system___ocr_ray.functions import similarity as sk
        from distributed_system___ocr_ray.pipelines import analytics
        from distributed_system___ocr_ray.pipelines import index as idx

        ds = rd.read_parquet(f"{SF}/embeddings.parquet")
        tdir = str(tmp_path / "centroids")
        man = idx.build_ivf_centroids(ds, tdir, n_centroids=8)
        assert man["version"] == 1
        cents, params = idx.load_ivf_centroids(tdir)
        assert cents.shape == (8, cents.shape[1])
        assert params == {"n_centroids": 8, "sample_size": 2048,
                          "seed": 7, "iters": 5}
        sample = np.stack([r["embedding"] for r in ds.take(2048)])
        expect = sk.seeded_centroids(sample, 8, seed=7)
        assert np.allclose(cents, expect)

        q = self._queries()
        a = analytics.ivf_topk(ds, q, k=5, n_centroids=8, n_probe=8).to_pandas()
        b = analytics.ivf_topk(ds, q, k=5, n_centroids=8, n_probe=8,
                               centroids=tdir).to_pandas()
        key = ["query_id", "vec_id"]
        assert a.sort_values(key).reset_index(drop=True)[key].equals(
            b.sort_values(key).reset_index(drop=True)[key])

    def test_lookup_skips_reclustering(self, tmp_path, monkeypatch):
        """With a persisted index, ``ivf_topk`` never calls the clustering
        fit -- repeated query sets pay zero re-cluster cost."""
        import ray.data as rd

        from distributed_system___ocr_ray.functions import similarity as sk
        from distributed_system___ocr_ray.pipelines import analytics
        from distributed_system___ocr_ray.pipelines import index as idx

        ds = rd.read_parquet(f"{SF}/embeddings.parquet")
        tdir = str(tmp_path / "centroids")
        idx.build_ivf_centroids(ds, tdir, n_centroids=8)

        def boom(*a, **k):
            raise AssertionError("re-clustered despite persisted index")

        monkeypatch.setattr(sk, "seeded_centroids", boom)
        out = analytics.ivf_topk(ds, self._queries(), k=5, n_centroids=8,
                                 n_probe=8, centroids=tdir).to_pandas()
        assert len(out) > 0

    def test_param_mismatch_raises(self, tmp_path):
        """A stale/differently-built index refuses loudly instead of
        probing wrong lists."""
        import ray.data as rd

        from distributed_system___ocr_ray.pipelines import analytics
        from distributed_system___ocr_ray.pipelines import index as idx

        ds = rd.read_parquet(f"{SF}/embeddings.parquet")
        tdir = str(tmp_path / "centroids")
        idx.build_ivf_centroids(ds, tdir, n_centroids=8)
        with pytest.raises(ValueError) as ei:
            analytics.ivf_topk(ds, self._queries(), k=5, n_centroids=16,
                               n_probe=4, centroids=tdir)
        assert "build_ivf_centroids" in str(ei.value)

    @pytest.mark.parametrize("build_kw", [{"iters": 2}, {"sample_size": 512}])
    def test_build_param_mismatch_raises(self, tmp_path, build_kw):
        """An index built with other Lloyd iterations or another sample
        size holds other centroids, so lookup must refuse it even when
        ``n_centroids`` and ``seed`` agree."""
        import ray.data as rd

        from distributed_system___ocr_ray.pipelines import analytics
        from distributed_system___ocr_ray.pipelines import index as idx

        ds = rd.read_parquet(f"{SF}/embeddings.parquet")
        tdir = str(tmp_path / "centroids")
        idx.build_ivf_centroids(ds, tdir, n_centroids=8, **build_kw)
        with pytest.raises(ValueError, match="build_ivf_centroids"):
            analytics.ivf_topk(ds, self._queries(), k=5, n_centroids=8,
                               n_probe=4, centroids=tdir)
