"""Tests for the checkpointed shard-local extraction run: equality with the
oracle AND with the uncheckpointed ``extract_dataset``, plus resume
semantics."""

import glob
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq
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


def _exit_once_fetcher(marker: str):
    """A fetcher that ends its worker process on its first call anywhere
    (creating ``marker`` first, atomically) and misses on every later one.
    Built as a closure: cloudpickle ships closures by value, so the workers
    need not import this test module."""

    def fetch(ref):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return None
        os._exit(1)

    return fetch


def _overlap_fetcher(log_dir: str, wait_s: float = 10.0):
    """A fetcher that misses and, once ``log_dir/armed`` exists, logs its
    process id with the call's start and end times. An armed call holds
    until calls of two processes have started (at most ``wait_s``), so two
    tasks that run one after the other never overlap."""

    def fetch(ref):
        if not os.path.exists(os.path.join(log_dir, "armed")):
            return None
        t0 = time.time()
        open(os.path.join(log_dir, f"start-{os.getpid()}"), "w").close()
        while (len(glob.glob(os.path.join(log_dir, "start-*"))) < 2
               and time.time() - t0 < wait_s):
            time.sleep(0.01)
        with open(os.path.join(log_dir, f"calls-{os.getpid()}.jsonl"), "a") as f:
            f.write(json.dumps({"pid": os.getpid(), "t0": t0, "t1": time.time()}) + "\n")
        return None

    return fetch


def _slow_fetcher(delay_s: float):
    """A fetcher that misses after ``delay_s``."""

    def fetch(ref):
        time.sleep(delay_s)

    return fetch


def _fragments_with_misses(docs_dir: str, store: pa.Table) -> list[int]:
    """Indices of the fragments holding a media ref the store lacks."""
    refs = set(store.column("media_ref").to_pylist())
    hits = []
    for i, frag in enumerate(lance_like.read_manifest(docs_dir)["fragments"]):
        spans = pq.read_table(os.path.join(docs_dir, frag["path"])).column("spans")
        if any(s["media_ref"] and s["media_ref"] not in refs
               for doc in spans.to_pylist() for s in doc):
            hits.append(i)
    return hits


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
        """A retried fragment task must not redo a fragment it already durably
        committed: the in-run skip returns the prior entry untouched."""
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
        out = worker({"part": 0, "path": os.path.join(docs_dir, frag), "frag": frag})
        assert out["wall_sec"] == 0.0, "must skip, not redo"
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
        """A resume with one pending fragment runs one task and warns
        nothing about a pool larger than its input."""
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

    @pytest.mark.usefixtures("ray_session")
    def test_drops_finished_runs_before_building(self):
        import uuid

        a, b, c = (uuid.uuid4().hex for _ in range(3))
        first, second = self.state(a), self.state(b)
        pipeline.end_run(a)
        assert self.state(a) is first, "a kept run is reused without a lookup"
        self.state(c)
        assert list(pipeline._run_states) == [b, c], "finished run dropped first"
        assert self.state(b) is second

    def test_keeps_only_the_most_recent_runs(self):
        runs = [f"run-{i}" for i in range(pipeline.RUNS_KEPT + 1)]
        first, second = self.state(runs[0]), self.state(runs[1])
        self.state(runs[0])  # in use again: now run-1 is the least recent
        for run in runs[2:]:
            self.state(run)
        assert len(pipeline._run_states) == pipeline.RUNS_KEPT
        assert self.state(runs[0]) is first
        assert self.state(runs[1]) is not second, "least recent run dropped"


@pytest.mark.usefixtures("ray_session")
class TestFragmentTasks:
    """The run is one Ray task per fragment with ``concurrency`` in flight;
    Ray re-runs the task of a worker process that died."""

    def test_worker_death_loses_and_duplicates_nothing(self, corpus_dirs, small_corpus, tmp_path):
        docs, store = small_corpus
        docs_dir, _ = corpus_dirs
        assert len(_fragments_with_misses(docs_dir, store)) >= 2
        marker, out_dir = str(tmp_path / "died"), str(tmp_path / "out")
        m = run_extraction_sharded(docs_dir, store, out_dir, concurrency=2,
                                   fetcher=_exit_once_fetcher(marker))
        assert os.path.exists(marker), "a worker process must have died"
        assert m["partitions_run"] == m["partitions_total"] == 9
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        _assert_span_equality(_sorted_output(pipeline.load_output(out_dir)), expected)
        man = CheckpointManifest(out_dir)
        frags = [f["path"] for f in lance_like.read_manifest(docs_dir)["fragments"]]
        assert sorted(f for f in os.listdir(man.dir) if f.startswith("part-")) == sorted(
            f"part-{i}.json" for i in range(9))
        assert {p: e["fragment"] for p, e in man.committed().items()} == dict(enumerate(frags))
        assert [f for _, _, fs in os.walk(out_dir) for f in fs if ".tmp" in f] == []

    def test_two_pending_fragments_run_in_two_processes_at_once(
            self, corpus_dirs, small_corpus, tmp_path):
        docs, store = small_corpus
        docs_dir, _ = corpus_dirs
        log_dir, out_dir = tmp_path / "log", str(tmp_path / "out")
        log_dir.mkdir()
        fetcher = _overlap_fetcher(str(log_dir))
        run_extraction_sharded(docs_dir, store, out_dir, concurrency=2, fetcher=fetcher)
        man = CheckpointManifest(out_dir)
        for p in _fragments_with_misses(docs_dir, store)[:2]:  # lose two fragments
            os.remove(os.path.join(man.dir, f"part-{p}.json"))
            shutil.rmtree(os.path.join(out_dir, f"part={p}"))
        (log_dir / "armed").touch()
        m = run_extraction_sharded(docs_dir, store, out_dir, concurrency=2, fetcher=fetcher)
        assert m["partitions_run"] == 2
        calls = [json.loads(line) for path in glob.glob(str(log_dir / "calls-*.jsonl"))
                 for line in open(path)]
        spans = {}
        for c in calls:
            t0, t1 = spans.get(c["pid"], (c["t0"], c["t1"]))
            spans[c["pid"]] = (min(t0, c["t0"]), max(t1, c["t1"]))
        assert len(spans) == 2, f"two worker processes, got {sorted(spans)}"
        (a0, a1), (b0, b1) = spans.values()
        assert max(a0, b0) < min(a1, b1), "the two fragments must run at overlapping times"
        expected = oracle.extract_table(docs, corpus.media_dict(store))
        _assert_span_equality(_sorted_output(pipeline.load_output(out_dir)), expected)

    def test_failed_run_returns_after_its_tasks_stop_writing(self, small_corpus, tmp_path):
        """A task error ends the run only once the tasks still in flight
        have finished: nothing of the failed run writes after it returns,
        and a resume completes the run."""
        docs, store = small_corpus
        docs_dir, out_dir = str(tmp_path / "docs"), str(tmp_path / "out")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=7)
        last = os.path.join(docs_dir, lance_like.read_manifest(docs_dir)["fragments"][-1]["path"])
        os.rename(last, last + ".away")  # the last fragment's read fails
        no_media = store.slice(0, 0)  # every media span calls the slow fetcher
        fetcher = _slow_fetcher(0.05)

        def files():
            return sorted((d, f, os.path.getmtime(os.path.join(d, f)))
                          for d, _, fs in os.walk(out_dir) for f in fs)

        with pytest.raises(FileNotFoundError):
            run_extraction_sharded(docs_dir, no_media, out_dir, concurrency=2, fetcher=fetcher)
        at_return = files()
        time.sleep(1.5)
        assert files() == at_return, "a task of the failed run wrote after it returned"
        os.rename(last + ".away", last)
        m = run_extraction_sharded(docs_dir, no_media, out_dir, concurrency=2, fetcher=fetcher)
        assert m["partitions_total"] == 9 and m["partitions_run"] >= 1
        expected = oracle.extract_table(docs, corpus.media_dict(no_media))
        _assert_span_equality(_sorted_output(pipeline.load_output(out_dir)), expected)
