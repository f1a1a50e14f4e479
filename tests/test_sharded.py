"""Tests for the checkpointed shard-local extraction run: equality with the
oracle AND with the uncheckpointed ``extract_dataset``, plus resume
semantics."""

import os
import shutil

import pyarrow as pa
import pytest

from distributed_system___ocr_ray import corpus, oracle
from distributed_system___ocr_ray.pipelines import extract as pipeline
from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded
from distributed_system___ocr_ray.sources import lance_like
from distributed_system___ocr_ray.state.checkpoint import CheckpointManifest

from test_pipeline import _assert_span_equality, _sorted_output


@pytest.fixture(scope="module")
def corpus_dirs(tmp_path_factory, small_corpus):
    docs, store = small_corpus
    root = tmp_path_factory.mktemp("sharded")
    docs_dir = str(root / "docs")
    media_dir = str(root / "media")
    lance_like.write_table(docs, docs_dir, rows_per_fragment=7)  # 9 fragments
    lance_like.write_table(store, media_dir, rows_per_fragment=10**6)
    return docs_dir, media_dir


@pytest.mark.usefixtures("ray_session")
class TestSharded:
    def test_matches_oracle_and_extract_dataset(self, corpus_dirs, small_corpus, tmp_path):
        docs, store = small_corpus
        docs_dir, media_dir = corpus_dirs
        out_dir = str(tmp_path / "out")
        m = run_extraction_sharded(docs_dir, store, out_dir, concurrency=2)
        assert m["docs_out"] == docs.num_rows
        assert m["partitions_total"] == 9
        got = _sorted_output(pipeline.load_output(out_dir))
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        _assert_span_equality(got, expected)
        # cross-check the checkpointed run against the uncheckpointed one
        _assert_span_equality(got, _sorted_output(pipeline.extract_dataset(docs, store)))

    def test_resume_skips_committed_fragments(self, corpus_dirs, small_corpus, tmp_path):
        docs, store = small_corpus
        docs_dir, media_dir = corpus_dirs
        out_dir = str(tmp_path / "out2")
        run_extraction_sharded(docs_dir, store, out_dir, concurrency=2)
        man = CheckpointManifest(out_dir)
        # crash simulation: lose 3 fragments
        for p in list(man.committed())[:3]:
            os.remove(os.path.join(man.dir, f"part-{p}.json"))
            shutil.rmtree(os.path.join(out_dir, f"part={p}"))
        m = run_extraction_sharded(docs_dir, store, out_dir, concurrency=2)
        assert m["partitions_run"] == 3
        assert m["partitions_skipped_prior"] == 6
        assert m["docs_out"] == docs.num_rows
        got = _sorted_output(pipeline.load_output(out_dir))
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        _assert_span_equality(got, expected)

    def test_noop_resume(self, corpus_dirs, small_corpus, tmp_path):
        docs, store = small_corpus
        docs_dir, media_dir = corpus_dirs
        out_dir = str(tmp_path / "out3")
        run_extraction_sharded(docs_dir, store, out_dir, concurrency=2)
        m = run_extraction_sharded(docs_dir, store, out_dir, concurrency=2)
        assert m["partitions_run"] == 0
        assert m["docs_out"] == docs.num_rows


@pytest.mark.usefixtures("ray_session")
class TestResumeIdentity:
    def test_media_mismatch_raises_on_resume(self, corpus_dirs, small_corpus, tmp_path):
        """Resuming against a CHANGED media store must raise, not silently
        mix partitions extracted against different payloads (review r2)."""
        import pyarrow as pa

        docs, store = corpus_dirs[0], small_corpus[1]
        out_dir = str(tmp_path / "out")
        run_extraction_sharded(docs, store, out_dir, concurrency=2)
        # perturb one payload byte -> different fingerprint
        payloads = store.column("payload").to_pylist()
        payloads[0] = payloads[0] + b"\x00"
        changed = store.set_column(
            store.schema.get_field_index("payload"), "payload",
            pa.array(payloads, pa.binary()),
        )
        with pytest.raises(ValueError, match="resume parameter mismatch"):
            run_extraction_sharded(docs, changed, out_dir, concurrency=2)
        # identical media resumes cleanly (no-op)
        m = run_extraction_sharded(docs, store, out_dir, concurrency=2)
        assert m["partitions_run"] == 0

    def test_worker_skips_committed_fragment_in_run(self, corpus_dirs, small_corpus, tmp_path):
        """A retried worker block must not redo fragments it already durably
        committed: the in-run skip returns the prior entry untouched."""
        import pyarrow as pa

        from distributed_system___ocr_ray.pipelines.extract import _media_handle
        from distributed_system___ocr_ray.pipelines.sharded import ShardWorker
        from distributed_system___ocr_ray.sources import lance_like as ll

        docs_dir, _ = corpus_dirs
        store = small_corpus[1]
        out_dir = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out_dir, concurrency=2)
        man = ll.read_manifest(docs_dir)
        frag = man["fragments"][0]["path"]
        part_file = CheckpointManifest(out_dir).partition_path(0)
        mtime = os.path.getmtime(part_file)
        worker = ShardWorker(_media_handle(store), out_dir)
        batch = pa.table(
            {"part": [0], "path": [os.path.join(docs_dir, frag)], "frag": [frag]}
        )
        out = worker(batch)
        assert out.column("wall_sec").to_pylist() == [0.0], "must skip, not redo"
        assert os.path.getmtime(part_file) == mtime, "data file must be untouched"

    def test_media_append_resumes(self, small_corpus, tmp_path):
        """Incremental ingest appends new docs AND the new media they
        reference: a path-backed media table that GREW (append-only) must
        resume -- committed partitions referenced only refs that existed at
        commit time, all still present byte-identical (review r2)."""
        import pyarrow as pa

        docs, store = small_corpus
        docs_dir, media_dir = str(tmp_path / "docs"), str(tmp_path / "media")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=20)  # 3 frags
        lance_like.write_table(store, media_dir, rows_per_fragment=10**6)
        out_dir = str(tmp_path / "out")
        m1 = run_extraction_sharded(docs_dir, media_dir, out_dir, concurrency=2)

        extra_media = store.slice(0, 1).set_column(
            store.schema.get_field_index("media_ref"), "media_ref",
            pa.array(["img-extra-00001"]),
        )
        lance_like.write_table(extra_media, media_dir, mode="append", rows_per_fragment=10**6)
        extra_docs = corpus.build_documents(n_docs=20, seed=9)
        extra_docs = extra_docs.set_column(
            0, "doc_id", pa.array([f"docC-{i:06d}" for i in range(extra_docs.num_rows)])
        )
        lance_like.write_table(extra_docs, docs_dir, mode="append", rows_per_fragment=20)
        m2 = run_extraction_sharded(docs_dir, media_dir, out_dir, concurrency=2)
        assert m2["partitions_skipped_prior"] == m1["partitions_total"]
        assert m2["partitions_run"] == 1  # only the appended docs fragment

    def test_media_overwrite_rejected_on_resume(self, small_corpus, tmp_path):
        """An overwrite REWRITE of the media table (fresh fragment list, even
        with identical contents) must refuse to resume: fragment identity is
        the payload-bytes pin, and a rewrite voids it."""
        docs, store = small_corpus
        docs_dir, media_dir = str(tmp_path / "docs"), str(tmp_path / "media")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=30)
        lance_like.write_table(store, media_dir, rows_per_fragment=10**6)
        out_dir = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, media_dir, out_dir, concurrency=2)
        lance_like.write_table(store, media_dir, mode="overwrite", rows_per_fragment=10**6)
        with pytest.raises(ValueError, match="resume parameter mismatch"):
            run_extraction_sharded(docs_dir, media_dir, out_dir, concurrency=2)

    def test_batch_size_must_be_positive(self, small_corpus):
        from distributed_system___ocr_ray.pipelines.extract import _media_handle
        from distributed_system___ocr_ray.pipelines.sharded import ShardWorker

        with pytest.raises(ValueError, match="batch_size"):
            ShardWorker(_media_handle(small_corpus[1]), "/tmp/x", batch_size=0)


@pytest.mark.usefixtures("ray_session")
class TestShardedMorDeletes:
    def test_deleted_docs_excluded_and_resume_refuses_new_deletes(self, tmp_path):
        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like
        from distributed_system___ocr_ray.state.checkpoint import (
            CheckpointManifest,
        )

        docs_dir = str(tmp_path / "documents")
        corpus.write_corpus(str(tmp_path), n_docs=40, rows_per_fragment=10)
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        # merge-on-read delete of a doc range BEFORE extraction
        # (doc_id is a zero-padded string: lexicographic range == numeric)
        lance_like.delete_where_mor(
            docs_dir, [("doc_id", ">=", "doc-00000010"),
                       ("doc_id", "<", "doc-00000020")], "doc_id")
        out = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out, concurrency=2)
        got = CheckpointManifest(out)
        import pyarrow.parquet as pq
        import glob
        ids = set()
        for f in glob.glob(out + "/part=*/data.parquet"):
            ids.update(pq.read_table(f, columns=["doc_id"])
                       .column("doc_id").to_pylist())
        assert ids == {f"doc-{i:08d}" for i in range(40)
                       if not (10 <= i < 20)}
        # a NEW delete changes the job identity: resume must refuse
        lance_like.delete_where_mor(
            docs_dir, [("doc_id", "==", "doc-00000000")], "doc_id")
        with pytest.raises(Exception) as ei:
            run_extraction_sharded(docs_dir, store, out, concurrency=2)
        assert "mismatch" in str(ei.value).lower() or "deletes" in str(ei.value)

    def test_resume_succeeds_with_unchanged_delete_set(self, tmp_path):
        """Identity bug (ADVICE r3, high): job["deletes"] built as tuples
        compared against the JSON-round-tripped committed lists, so a
        resume over a MOR table spuriously refused even with an UNCHANGED
        delete set. A crashed 100TB run must be able to resume."""
        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=20, rows_per_fragment=5)
        docs_dir = str(tmp_path / "documents")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        lance_like.delete_where_mor(
            docs_dir, [("doc_id", "<", "doc-00000004")], "doc_id")
        out = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out, concurrency=2)
        # unchanged delete set: resume is a clean no-op, never a refusal
        m = run_extraction_sharded(docs_dir, store, out, concurrency=2)
        assert m["partitions_run"] == 0
        assert m["partitions_skipped_prior"] == m["partitions_total"] > 0

    def test_delete_keyed_on_non_projected_column(self, tmp_path):
        """A MOR delete keyed on a column OUTSIDE the worker's narrow
        (doc_id, spans) projection must still apply: the read widens to
        the delete key columns, then drops them (ADVICE r3, low)."""
        import glob

        import pyarrow.parquet as pq

        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=12, rows_per_fragment=4)
        docs = lance_like.read_arrow(str(tmp_path / "documents"))
        src = pa.array(
            ["keep" if i % 3 else "drop" for i in range(docs.num_rows)])
        docs = docs.append_column("src", src)
        docs_dir = str(tmp_path / "documents_src")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=4)
        lance_like.delete_where_mor(docs_dir, [("src", "==", "drop")], "src")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        out = str(tmp_path / "out_src")
        run_extraction_sharded(docs_dir, store, out, concurrency=2)
        ids = set()
        for f in glob.glob(out + "/part=*/data.parquet"):
            ids.update(pq.read_table(f, columns=["doc_id"])
                       .column("doc_id").to_pylist())
        expect = {d for d, s in zip(docs.column("doc_id").to_pylist(),
                                    src.to_pylist()) if s == "keep"}
        assert ids == expect

    def test_delete_keyed_on_evolved_column(self, tmp_path):
        """A MOR delete keyed on a METADATA-ONLY evolved column: old
        fragments physically lack the column (ADD COLUMN evolution), so
        the worker's widened projection must not raise -- absent columns
        match the evolution default instead (ADVICE r4, sharded.py)."""
        import glob

        import pyarrow.parquet as pq

        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=12, rows_per_fragment=4)
        docs = lance_like.read_arrow(str(tmp_path / "documents"))
        docs_dir = str(tmp_path / "documents_evo")
        # v1: fragments WITHOUT src; evolve src with default "keep";
        # append new fragments WITH src (2 marked "drop")
        old = docs.slice(0, 8)
        new = docs.slice(8, 4)
        lance_like.write_table(old, docs_dir, rows_per_fragment=4)
        lance_like.evolve_add_column(docs_dir, "src", "string", "keep")
        new = new.append_column("src", pa.array(
            ["drop", "keep", "drop", "keep"]))
        lance_like.write_table(new, docs_dir, rows_per_fragment=4,
                               mode="append")
        # the delete scan itself must survive old fragments lacking src
        lance_like.delete_where_mor(docs_dir, [("src", "==", "drop")], "src")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        out = str(tmp_path / "out_evo")
        run_extraction_sharded(docs_dir, store, out, concurrency=2)
        ids = set()
        for f in glob.glob(out + "/part=*/data.parquet"):
            ids.update(pq.read_table(f, columns=["doc_id"])
                       .column("doc_id").to_pylist())
        all_ids = docs.column("doc_id").to_pylist()
        dropped = {all_ids[8], all_ids[10]}
        # old fragments: default "keep" != "drop" -> all retained;
        # new fragment: the two "drop" rows excluded
        assert ids == set(all_ids) - dropped

    def test_delete_of_evolution_default_empties_old_fragments(self, tmp_path):
        """When the deleted key IS the evolution default, every row of the
        pre-evolution fragments matches and must be excluded."""
        import glob

        import pyarrow.parquet as pq

        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=12, rows_per_fragment=4)
        docs = lance_like.read_arrow(str(tmp_path / "documents"))
        docs_dir = str(tmp_path / "documents_evo2")
        lance_like.write_table(docs.slice(0, 8), docs_dir, rows_per_fragment=4)
        lance_like.evolve_add_column(docs_dir, "src", "string", "legacy")
        new = docs.slice(8, 4).append_column(
            "src", pa.array(["fresh"] * 4))
        lance_like.write_table(new, docs_dir, rows_per_fragment=4,
                               mode="append")
        lance_like.delete_where_mor(docs_dir, [("src", "==", "legacy")], "src")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        out = str(tmp_path / "out_evo2")
        run_extraction_sharded(docs_dir, store, out, concurrency=2)
        ids = set()
        for f in glob.glob(out + "/part=*/data.parquet"):
            ids.update(pq.read_table(f, columns=["doc_id"])
                       .column("doc_id").to_pylist())
        assert ids == set(docs.column("doc_id").to_pylist()[8:])


@pytest.mark.usefixtures("ray_session")
class TestRunIsolation:
    """Stage state lives in the worker processes for one run: two runs over
    media stores with the same refs and different payloads must each match
    the oracle against their own store, whether they run one after the
    other or concurrently. A decode memo or media store carried from one
    run into the next would serve the other store's texts."""

    @pytest.fixture(scope="class")
    def two_stores(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("isolation")
        docs = corpus.build_documents(n_docs=120, seed=5)
        docs_dir = str(root / "docs")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=15)  # 8 fragments
        stores = [corpus.build_media_store(seed=s) for s in (21, 22)]
        expected = [oracle.extract_table(docs, corpus.media_dict(s)) for s in stores]
        assert stores[0].column("media_ref").equals(stores[1].column("media_ref"))
        assert not expected[0].equals(expected[1]), "stores must change the output"
        return docs_dir, stores, expected

    def test_sequential_runs(self, two_stores, tmp_path):
        docs_dir, stores, expected = two_stores
        for i, store in enumerate(stores):
            out = str(tmp_path / f"out{i}")
            run_extraction_sharded(docs_dir, store, out, concurrency=2)
            _assert_span_equality(_sorted_output(pipeline.load_output(out)), expected[i])

    def test_concurrent_runs(self, two_stores, tmp_path):
        from distributed_system___ocr_ray.pipelines.jobs import run_jobs

        docs_dir, stores, expected = two_stores
        outs = [str(tmp_path / f"out{i}") for i in range(2)]
        run_jobs([{"docs_dir": docs_dir, "media": store, "out_dir": out, "concurrency": 2}
                  for store, out in zip(stores, outs)])
        for out, exp in zip(outs, expected):
            _assert_span_equality(_sorted_output(pipeline.load_output(out)), exp)

    def test_one_fragment_resume_warns_nothing(self, two_stores, tmp_path):
        """The task cap follows the work blocks: a resume with one pending
        fragment asks for one task, and Ray Data does not warn that the
        pool is larger than its input."""
        import warnings

        docs_dir, stores, _ = two_stores
        out = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, stores[0], out, concurrency=2)
        os.remove(os.path.join(CheckpointManifest(out).dir, "part-0.json"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = run_extraction_sharded(docs_dir, stores[0], out, concurrency=2)
        assert m["partitions_run"] == 1
        assert not [w for w in caught if "concurrent tasks" in str(w.message)]


class TestRunState:
    """``extract.run_state``, the per-process holder of a run's stage state."""

    @pytest.fixture(autouse=True)
    def fresh_holder(self, monkeypatch):
        from collections import OrderedDict

        monkeypatch.setattr(pipeline, "_run_states", OrderedDict())

    class Built:
        def __init__(self, **kwargs):
            self.kwargs = kwargs

    def state(self, run, **kwargs):
        return pipeline.run_state(run, self.Built, kwargs)

    def test_same_token_same_object(self):
        a = self.state("run-a", x=1)
        assert self.state("run-a", x=1) is a

    def test_new_token_builds_from_new_kwargs(self):
        a = self.state("run-a", x=1)
        b = self.state("run-b", x=2)
        assert b is not a and b.kwargs == {"x": 2} and a.kwargs == {"x": 1}

    def test_keeps_only_the_most_recent_runs(self):
        runs = [f"run-{i}" for i in range(pipeline.RUNS_KEPT + 1)]
        first, second = self.state(runs[0]), self.state(runs[1])
        self.state(runs[0])  # in use again: now run-1 is the least recent
        for run in runs[2:]:
            self.state(run)
        assert len(pipeline._run_states) == pipeline.RUNS_KEPT
        assert self.state(runs[0]) is first
        assert self.state(runs[1]) is not second, "least recent run dropped"
