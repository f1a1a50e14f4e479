"""End-to-end pipeline tests: Ray output == single-process oracle, per row.

The north-rule invariant is span-sequence equality on
``(kind, text, media_ref, order)`` per document.
"""

import pyarrow as pa
import pytest

from distributed_system___ocr_ray import corpus, oracle
from distributed_system___ocr_ray.pipelines import extract as pipeline
from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded


def _sorted_output(ds) -> pa.Table:
    tbl = pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)
    order = pa.compute.sort_indices(tbl.column("doc_id"))
    return tbl.take(order).select(["doc_id", "spans"])


def _assert_span_equality(got: pa.Table, expected: pa.Table):
    assert got.num_rows == expected.num_rows
    g_ids = got.column("doc_id").to_pylist()
    e_ids = expected.column("doc_id").to_pylist()
    assert g_ids == e_ids
    g_spans = got.column("spans").to_pylist()
    e_spans = expected.column("spans").to_pylist()
    for did, g, e in zip(g_ids, g_spans, e_spans):
        g_norm = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in g]
        e_norm = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in e]
        assert g_norm == e_norm, f"span mismatch in {did}"


@pytest.mark.usefixtures("ray_session")
class TestExtractionPipeline:
    def test_fused_matches_oracle(self, small_corpus):
        docs, store = small_corpus
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        out = pipeline.extract_dataset(docs, store)
        _assert_span_equality(_sorted_output(out), expected)

    def test_partitioning_invariance(self, small_corpus):
        """Output is identical whatever the input block layout (determinism
        across parallelism levels -- SURVEY.md #7.3)."""
        import ray.data as rd

        docs, store = small_corpus
        outs = [
            _sorted_output(pipeline.extract_dataset(rd.from_arrow(docs).repartition(k), store))
            for k in (1, 3, 16)
        ]
        for out in outs[1:]:
            _assert_span_equality(out, outs[0])

    def test_reference_shaped_doc(self):
        docs, store = corpus.build_reference_shaped_doc()
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        out = _sorted_output(pipeline.extract_dataset(docs, store))
        _assert_span_equality(out, expected)
        # exactly-once per input span: 24 spans, 1:1 with the golden's blocks
        assert len(out.column("spans")[0].as_py()) == 24

    def test_kind_imbalanced_corpus(self):
        """Bursty / kind-imbalanced load (SURVEY #4 skew row, the reference's
        30 s load-balance daemon analogue, Manager.java:169-201): a corpus
        that is ~90% image spans must not starve the text branch. The fused
        dispatch rebalances by construction (every actor serves every kind)
        and must equal the oracle exactly."""
        import random

        rng = random.Random(99)
        spans_col, ids = [], []
        for i in range(120):
            spans = []
            offset = 1
            # 10 image spans per doc, 1 text span on every 10th doc
            for k in range(10):
                spans.append({"kind": "image", "text": "",
                              "media_ref": corpus.media_ref_img(rng.randrange(50)),
                              "offset": offset})
                offset += rng.randint(1, 9)
            if i % 10 == 0:
                spans.append({"kind": "text", "text": f"tiny text {i}",
                              "media_ref": "", "offset": offset})
            ids.append(f"doc-imb-{i:05d}")
            spans_col.append(spans)
        docs = pa.table({"doc_id": ids, "spans": spans_col}, schema=corpus.DOC_SCHEMA)
        store = corpus.build_media_store(n_img=50, n_pdf=0, seed=99)
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        fused = _sorted_output(pipeline.extract_dataset(docs, store))
        _assert_span_equality(fused, expected)

    def test_explode_cardinality(self, small_corpus):
        docs, _ = small_corpus
        ds = pipeline.exploded_dataset(docs)
        n_in = sum(len(r) for r in docs.column("spans").to_pylist())
        n_empty = sum(
            1
            for r in docs.column("spans").to_pylist()
            for s in r
            if s["kind"] == "text" and not s["text"].strip()
        )
        assert ds.count() == n_in - n_empty

    def test_lance_source(self, small_corpus, tmp_path):
        """Same result when reading from the Lance-style on-disk table."""
        docs, store = small_corpus
        from distributed_system___ocr_ray.sources import lance_like

        lance_like.write_table(docs, str(tmp_path / "docs"), rows_per_fragment=17)
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        out = pipeline.extract_dataset(str(tmp_path / "docs"), store)
        _assert_span_equality(_sorted_output(out), expected)


def _written(docs, tmp_path) -> str:
    """``docs`` written as an 8-fragment Lance-style table."""
    from distributed_system___ocr_ray.sources import lance_like

    docs_dir = str(tmp_path / "docs")
    lance_like.write_table(docs, docs_dir, rows_per_fragment=-(-docs.num_rows // 8))
    return docs_dir


@pytest.mark.usefixtures("ray_session")
class TestCheckpoint:
    def test_run_commit_and_resume(self, small_corpus, tmp_path):
        docs, store = small_corpus
        docs_dir = _written(docs, tmp_path)
        out_dir = str(tmp_path / "out")
        m1 = run_extraction_sharded(docs_dir, store, out_dir)
        assert m1["partitions_skipped_prior"] == 0
        assert m1["docs_out"] == docs.num_rows
        # full resume: nothing recomputed
        m2 = run_extraction_sharded(docs_dir, store, out_dir)
        assert m2["partitions_run"] == 0
        assert m2["docs_out"] == docs.num_rows

    def test_partial_resume_identical_output(self, small_corpus, tmp_path):
        """Kill-after-K-partitions simulation: commit a subset, resume, and
        the final output equals an uninterrupted run byte-for-byte."""
        from distributed_system___ocr_ray.state.checkpoint import CheckpointManifest

        docs, store = small_corpus
        docs_dir = _written(docs, tmp_path)
        full_dir = str(tmp_path / "full")
        run_extraction_sharded(docs_dir, store, full_dir)

        part_dir = str(tmp_path / "partial")
        run_extraction_sharded(docs_dir, store, part_dir)
        # simulate a crash that lost half the partitions
        import os
        import shutil

        man = CheckpointManifest(part_dir)
        for p in list(man.committed())[::2]:
            os.remove(os.path.join(man.dir, f"part-{p}.json"))
            shutil.rmtree(os.path.join(part_dir, f"part={p}"))
        m = run_extraction_sharded(docs_dir, store, part_dir)
        assert m["partitions_skipped_prior"] == 4
        a = _sorted_output(pipeline.load_output(full_dir))
        b = _sorted_output(pipeline.load_output(part_dir))
        _assert_span_equality(a, b)

    def test_lineage_counts(self, small_corpus, tmp_path):
        docs, store = small_corpus
        out_dir = str(tmp_path / "out")
        m = run_extraction_sharded(_written(docs, tmp_path), store, out_dir)
        n_in = sum(len(r) for r in docs.column("spans").to_pylist())
        n_empty = sum(
            1
            for r in docs.column("spans").to_pylist()
            for s in r
            if s["kind"] == "text" and not s["text"].strip()
        )
        assert m["rows_in"] == n_in - n_empty
        assert sum(m["status_counts"].values()) == m["rows_in"]

    def test_one_manifest_scan_per_run(self, small_corpus, tmp_path, monkeypatch):
        """The driver reads the manifest entries once per run: the result
        folds the setup scan with the workers' lineage rows, and equals the
        manifest's own summary on a resumed run."""
        import os
        import shutil

        from distributed_system___ocr_ray.state.checkpoint import CheckpointManifest

        docs, store = small_corpus
        docs_dir = _written(docs, tmp_path)
        out_dir = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out_dir)
        man = CheckpointManifest(out_dir)
        for p in list(man.committed())[:3]:
            os.remove(os.path.join(man.dir, f"part-{p}.json"))
            shutil.rmtree(os.path.join(out_dir, f"part={p}"))
        scans = []
        real = CheckpointManifest.committed

        def counting(self):
            scans.append(self.out_dir)
            return real(self)

        monkeypatch.setattr(CheckpointManifest, "committed", counting)
        m = run_extraction_sharded(docs_dir, store, out_dir)
        assert scans == [out_dir]
        assert (m["partitions_run"], m["partitions_skipped_prior"]) == (3, 5)
        monkeypatch.undo()
        summary = man.summary()
        del summary["wall_sec_sum"]
        assert {k: v for k, v in m.items()
                if k not in ("partitions_run", "partitions_skipped_prior")} == summary


class TestCommitPartition:
    def test_writes_data_and_entry(self, tmp_path):
        import os
        import time

        import pyarrow.parquet as pq

        from distributed_system___ocr_ray.state.checkpoint import CheckpointManifest

        out_dir = str(tmp_path / "out")
        man = CheckpointManifest(out_dir)
        table = pa.table({"doc_id": ["a", "b"], "n": [1, 2]})
        entry = man.commit_partition(
            3, table, {"rows_in": 5, "status_counts": {"ok": 5}}, t0=time.monotonic())
        assert entry["rows_out"] == 2 and entry["wall_sec"] >= 0
        assert pq.read_table(man.partition_path(3)).equals(table)
        assert man.committed() == {3: {"part": 3, **entry}}
        leftovers = [f for _, _, files in os.walk(out_dir) for f in files if ".tmp-" in f]
        assert leftovers == []
        assert man.summary() == {"partitions_total": 1, "rows_in": 5, "docs_out": 2,
                                 "status_counts": {"ok": 5},
                                 "wall_sec_sum": round(entry["wall_sec"], 2)}


@pytest.mark.usefixtures("ray_session")
class TestSkew:
    def test_skewed_doc(self):
        """One 10k-span doc + a ~5 MB text span among 200 small docs."""
        docs = corpus.build_skew_documents(n_small=200, big_spans=2000)
        store = corpus.build_media_store(n_img=200, n_pdf=100, seed=42)
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        out = _sorted_output(pipeline.extract_dataset(docs, store))
        _assert_span_equality(out, expected)


@pytest.mark.usefixtures("ray_session")
class TestShardedMediaStore:
    def test_bucketed_media_path_matches_broadcast(self, small_corpus, tmp_path):
        """Extraction against a hash-bucketed media table (the 100 TB media
        routing: per-actor lazy bucket fetch + LRU) must be row-identical
        to the broadcast-dict run."""
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like

        docs, store = small_corpus
        media_dir = str(tmp_path / "media")
        lance_like.write_bucketed(rd.from_arrow(store), media_dir, "media_ref", 4)
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        out = pipeline.extract_dataset(docs, media_dir)
        _assert_span_equality(_sorted_output(out), expected)

    def test_lru_bound_and_misses(self, small_corpus, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like
        from distributed_system___ocr_ray.stages.extractors import ShardedMediaStore

        _, store = small_corpus
        media_dir = str(tmp_path / "media")
        lance_like.write_bucketed(rd.from_arrow(store), media_dir, "media_ref", 8)
        s = ShardedMediaStore(media_dir, max_buckets=2)
        refs = store.column("media_ref").to_pylist()
        payloads = store.column("payload").to_pylist()
        for r, p in zip(refs, payloads):
            assert s.get(r) == p
        assert len(s._cache) <= 2  # LRU bound held across all buckets
        assert s.get("no-such-ref") is None
        assert s.get("no-such-ref", b"dflt") == b"dflt"

    @staticmethod
    def _bucketed(store, tmp_path, n_buckets=8) -> str:
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like

        media_dir = str(tmp_path / "media")
        lance_like.write_bucketed(rd.from_arrow(store), media_dir, "media_ref", n_buckets)
        return media_dir

    @staticmethod
    def _media_batch(refs):
        kinds = ["pdf" if "/pdf/" in r else "image" for r in refs]
        n = len(refs)
        return pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "part": pa.array([0] * n, pa.int32()),
            "kind": pa.array(kinds),
            "text": pa.array([""] * n),
            "media_ref": pa.array(refs),
            "offset": pa.array(range(n), pa.int32()),
        })

    def test_lookup_equals_get(self, small_corpus, tmp_path):
        """The batch lookup answers exactly as per-ref ``get`` for hits,
        misses and repeats, over more buckets than the LRU holds -- and
        the LRU bound still holds afterwards."""
        from distributed_system___ocr_ray.sources.lance_like import bucket_of
        from distributed_system___ocr_ray.stages.extractors import ShardedMediaStore

        _, store = small_corpus
        media_dir = self._bucketed(store, tmp_path)
        hits = store.column("media_ref").to_pylist()
        refs = hits + ["no-such-ref", hits[3], "no-such-ref", hits[0]] + hits[::-1]
        assert len(set(bucket_of(pa.array(refs), 8).tolist())) > 2
        batched = ShardedMediaStore(media_dir, max_buckets=2)
        single = ShardedMediaStore(media_dir, max_buckets=2)
        got = batched.lookup(refs)
        assert got == [single.get(r) for r in refs]
        assert got[:len(hits)] == store.column("payload").to_pylist()
        assert got[len(hits)] is None
        assert len(batched._cache) <= 2
        assert batched.lookup([]) == []

    def test_dispatch_hashes_once_per_batch(self, small_corpus, tmp_path, monkeypatch):
        """One ExtractDispatch call over a bucketed store hashes its refs
        in ONE vectorized call, not once per span, and extracts exactly
        what the broadcast dict does."""
        import pandas as pd

        from distributed_system___ocr_ray.stages.extractors import ExtractDispatch

        _, store = small_corpus
        media_dir = self._bucketed(store, tmp_path)
        refs = store.column("media_ref").to_pylist() * 2 + ["mem://img/missing"]
        batch = self._media_batch(refs)
        expected = ExtractDispatch(corpus.media_dict(store))(batch)
        stage = ExtractDispatch(media_dir)
        calls = []
        real = pd.util.hash_array

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(pd.util, "hash_array", counting)
        out = stage(batch)
        assert calls == [len(set(refs))]
        assert out.equals(expected)

    def test_fetcher_once_per_distinct_missing_ref(self, small_corpus, tmp_path):
        """A store miss reaches the fetcher once per distinct ref of a
        batch, however often the ref repeats; a raising fetcher is still
        the download sentinel."""
        from collections import Counter

        from distributed_system___ocr_ray import SENTINEL_IMAGE_DOWNLOAD, STATUS_DOWNLOAD_ERROR
        from distributed_system___ocr_ray.stages.extractors import ExtractDispatch

        _, store = small_corpus
        media_dir = self._bucketed(store, tmp_path)
        hit = corpus.media_ref_img(0)
        refs = [hit, "gone-a", "gone-a", "gone-b", hit, "gone-b", "gone-a"]
        calls = Counter()

        def fetch(ref):
            calls[ref] += 1
            if ref == "gone-b":
                raise ConnectionError("refused")
            return None

        out = ExtractDispatch(media_dir, fetcher=fetch)(self._media_batch(refs))
        assert calls == {"gone-a": 1, "gone-b": 1}
        texts = out.column("out_text").to_pylist()
        status = out.column("status").to_pylist()
        for i, r in enumerate(refs):
            if r != hit:
                assert (texts[i], status[i]) == (SENTINEL_IMAGE_DOWNLOAD, STATUS_DOWNLOAD_ERROR)
        assert status[0] != STATUS_DOWNLOAD_ERROR and texts[0] == texts[4]

    def test_null_ref_is_download_sentinel(self, small_corpus, tmp_path):
        """An image or pdf span with a null ``media_ref`` is its kind's
        download sentinel, as in the oracle, on both stores: no store
        lookup of the null and no fetcher call, and the rest of the slice
        extracts as usual."""
        from distributed_system___ocr_ray.stages.extractors import ExtractDispatch

        _, store = small_corpus
        media = corpus.media_dict(store)
        img, pdf = corpus.media_ref_img(0), corpus.media_ref_pdf(0)
        kinds = ["image", "pdf", "image", "pdf", "text"]
        refs = [None, None, img, pdf, None]
        batch = pa.table({
            "doc_id": pa.array(range(5), pa.int64()),
            "part": pa.array([0] * 5, pa.int32()),
            "kind": pa.array(kinds),
            "text": pa.array(["", "", "", "", "<p>plain words here</p>"]),
            "media_ref": pa.array(refs, pa.string()),
            "offset": pa.array(range(5), pa.int32()),
        })
        want = [oracle.extract_span(k, t, r, media) for k, t, r in zip(
            kinds, batch.column("text").to_pylist(), refs)]
        for handle in (media, self._bucketed(store, tmp_path)):
            fetched, looked_up = [], []
            stage = ExtractDispatch(handle, fetcher=fetched.append)
            lookup = stage.ex.media.lookup
            stage.ex.media.lookup = lambda rs: looked_up.extend(rs) or lookup(rs)
            out = stage(batch)
            assert out.column("out_text").to_pylist() == want
            assert out.column("status").to_pylist() == [
                "download_error", "download_error", "ok", "ok", "ok"]
            assert None not in looked_up and fetched == []

    def test_non_media_bucketed_table_raises(self, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like
        from distributed_system___ocr_ray.stages.extractors import ShardedMediaStore

        t = pa.table({"other": pa.array([1, 2], pa.int64())})
        lance_like.write_bucketed(rd.from_arrow(t), str(tmp_path / "x"), "other", 2)
        with pytest.raises(ValueError, match="bucketed by media_ref"):
            ShardedMediaStore(str(tmp_path / "x"))


class TestDecodeMemo:
    """The per-run decode memo is keyed by ``(kind, ref)``: one ref used as
    an image span and as a pdf span extracts per kind, as the oracle
    does, in either order, within one slice and across slices."""

    @staticmethod
    def _batch(spans):
        n = len(spans)
        return pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "part": pa.array([0] * n, pa.int32()),
            "kind": pa.array([k for k, _ in spans]),
            "text": pa.array([""] * n),
            "media_ref": pa.array([r for _, r in spans]),
            "offset": pa.array(range(n), pa.int32()),
        })

    @pytest.mark.parametrize("first", ["image", "pdf"])
    @pytest.mark.parametrize("ref", ["glyph", "mpdf", "gone"])
    def test_ref_used_as_both_kinds(self, first, ref):
        from distributed_system___ocr_ray.functions import glyph, minipdf
        from distributed_system___ocr_ray.stages.extractors import ExtractDispatch

        media = {"glyph": glyph.GlyphFont().render("Hello"),
                 "mpdf": minipdf.encode([{"x": 0, "y": 0, "text": "Hi there"}])}
        second = "pdf" if first == "image" else "image"
        spans = [(first, ref), (second, ref)]
        want = [oracle.extract_span(k, "", r, media) for k, r in spans]
        assert want[0] != want[1]
        # one slice
        out = ExtractDispatch(media)(self._batch(spans))
        assert out.column("out_text").to_pylist() == want
        # two slices through one stage: the second is served by the memo
        stage = ExtractDispatch(media)
        got = [stage(self._batch([s])).column("out_text")[0].as_py() for s in spans * 2]
        assert got == want * 2


class TestDocCompleteness:
    def test_invariants_and_known_incomplete(self):
        from distributed_system___ocr_ray.pipelines import compose

        out = compose.doc_completeness_by_lang(
            "/root/testdata/sf0.001").to_pandas()
        # every sf0.001 doc lands in exactly one lang row
        assert int(out["n_docs"].sum()) == 500
        assert (out["n_complete"] <= out["n_docs"]).all()
        # broken refs exist by construction (doc_id % 20 == 0 download
        # errors), so completeness is strictly below 100% overall
        assert int(out["n_complete"].sum()) < 500
        for _, r in out.iterrows():
            assert int(r["complete_ppm"]) == (
                int(r["n_complete"]) * 1_000_000 // int(r["n_docs"]))


class TestSpanProfile:
    def test_kinds_and_mean_math(self):
        from distributed_system___ocr_ray.pipelines import compose

        out = compose.span_profile_by_kind(
            "/root/testdata/sf0.001").to_pandas()
        kinds = set(out["kind"])
        assert kinds == {"text", "image", "pdf"}
        # every doc has exactly one text span; image spans = 1 + (i % 2)
        n = out.set_index("kind")["n_spans"]
        assert int(n.loc["text"]) == 500
        assert int(n.loc["image"]) == 500 + 250  # 250 odd doc_ids get 2
        assert int(n.loc["pdf"]) == 250  # even doc_ids only
        for _, r in out.iterrows():
            assert int(r["mean_chars_milli"]) == (
                int(r["total_chars"]) * 1000 // int(r["n_spans"]))


class TestRetryPlan:
    def test_statuses_and_counts(self):
        from distributed_system___ocr_ray.pipelines import compose

        out = compose.retry_plan("/root/testdata/sf0.001").to_pandas()
        assert set(out["status"]) <= {"download_error", "ocr_error",
                                      "parse_error"}
        assert (out["n_spans"] >= 1).all()
        # every 20th doc's first image ref is broken by construction:
        # 25 download_error missing-img sentinels from the k=0 spans alone
        miss = out[out["media_ref"].str.startswith("mem://img/missing-")]
        assert (miss["status"] == "download_error").all()
        assert len(miss) >= 25
        # sentinels are per-doc, so each appears exactly once
        assert (miss["n_spans"] == 1).all()
