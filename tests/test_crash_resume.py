"""Hard fault injection: SIGKILL a running extraction subprocess mid-flight,
resume, and require byte-identical output vs an uninterrupted run -- the
checkpoint contract the reference cannot honor (manager RAM-only state,
Manager.java:49-60). Also: incremental ingest via Lance-style append."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from distributed_system___ocr_ray import corpus
from distributed_system___ocr_ray.sources import lance_like

from test_pipeline import _assert_span_equality, _sorted_output

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "distributed_system___ocr_ray", *args],
        cwd=REPO, capture_output=True, text=True, **kw,
    )


@pytest.fixture(scope="module")
def crash_corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("crash"))
    docs = corpus.build_documents(n_docs=1200, n_img=100, n_pdf=50, seed=11)
    store = corpus.build_media_store(n_img=100, n_pdf=50, seed=11)
    lance_like.write_table(docs, f"{root}/docs", rows_per_fragment=100)  # 12 fragments
    lance_like.write_table(store, f"{root}/media", rows_per_fragment=10**6)
    return root


class TestCrashResume:
    def test_sigkill_mid_run_then_resume(self, crash_corpus, ray_session):
        root = crash_corpus
        # uninterrupted run (in-process, shares the session fixture)
        from distributed_system___ocr_ray.pipelines.extract import load_output
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded

        store = lance_like.read_arrow(f"{root}/media")
        m0 = run_extraction_sharded(f"{root}/docs", store, f"{root}/clean", concurrency=2)

        # crashed run: separate process, SIGKILL while extracting
        proc = subprocess.Popen(
            [sys.executable, "-m", "distributed_system___ocr_ray", "extract",
             "--input", f"{root}/docs", "--media", f"{root}/media",
             "--output", f"{root}/crashed", "--num-cpus", "2"],
            cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.time() + 120
        committed_at_kill = 0
        while time.time() < deadline:
            committed = len(
                [f for f in os.listdir(f"{root}/crashed/_checkpoint")]
                if os.path.isdir(f"{root}/crashed/_checkpoint") else []
            )
            if committed >= 2:  # mid-flight: some but (likely) not all committed
                committed_at_kill = committed
                proc.send_signal(signal.SIGKILL)
                break
            if proc.poll() is not None:  # finished before we could kill: still fine
                committed_at_kill = 12
                break
            time.sleep(0.2)
        proc.wait(timeout=60)

        # resume via CLI and require completion + equality with the clean run
        out = _cli(["extract", "--input", f"{root}/docs", "--media", f"{root}/media",
                    "--output", f"{root}/crashed", "--num-cpus", "2"], timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        metrics = json.loads(out.stdout.strip().splitlines()[-1])
        assert metrics["partitions_total"] == 12
        # docs whose spans are ALL empty text vanish at the explode filter
        # (Manager.java:332-334 semantics) -- compare to the clean run
        assert metrics["docs_out"] == m0["docs_out"]
        if committed_at_kill < 12:
            assert metrics["partitions_skipped_prior"] >= 1
        a = _sorted_output(load_output(f"{root}/clean"))
        b = _sorted_output(load_output(f"{root}/crashed"))
        _assert_span_equality(b, a)


class TestResumeValidation:
    def test_sharded_input_path_mismatch_raises(self, tmp_path, ray_session):
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded

        docs = corpus.build_documents(n_docs=40, seed=6)
        store = corpus.build_media_store(seed=6)
        lance_like.write_table(docs, str(tmp_path / "docsA"), rows_per_fragment=20)
        lance_like.write_table(docs, str(tmp_path / "docsB"), rows_per_fragment=20)
        out = str(tmp_path / "out")
        run_extraction_sharded(str(tmp_path / "docsA"), store, out, concurrency=2)
        with pytest.raises(ValueError, match="resume parameter mismatch"):
            run_extraction_sharded(str(tmp_path / "docsB"), store, out, concurrency=2)

    def test_sharded_overwrite_rewrite_reprocesses(self, tmp_path, ray_session):
        """An 'overwrite' table rewrite reuses fragment INDICES; resume must
        reprocess them (fragment-file identity check), not skip-as-done."""
        from distributed_system___ocr_ray.pipelines.extract import load_output
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded

        store = corpus.build_media_store(seed=7)
        docs_dir = str(tmp_path / "docs")
        v1 = corpus.build_documents(n_docs=60, seed=7)
        lance_like.write_table(v1, docs_dir, rows_per_fragment=20)  # 3 frags
        out = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out, concurrency=2)

        v2 = corpus.build_documents(n_docs=60, seed=8)  # different content
        lance_like.write_table(v2, docs_dir, rows_per_fragment=20, mode="overwrite")
        m = run_extraction_sharded(docs_dir, store, out, concurrency=2)
        assert m["partitions_run"] == 3  # nothing skipped-as-done

        clean = str(tmp_path / "clean")
        run_extraction_sharded(docs_dir, store, clean, concurrency=2)
        a = _sorted_output(load_output(out))
        b = _sorted_output(load_output(clean))
        _assert_span_equality(a, b)


class TestStalePartitionRetirement:
    def test_sharded_shrinking_overwrite_retires_stale(self, tmp_path, ray_session):
        """Overwrite rewrite with FEWER fragments: committed indices beyond
        the new fragment list must be retired, not mixed into the output."""
        from distributed_system___ocr_ray.pipelines.extract import load_output
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded

        store = corpus.build_media_store(seed=15)
        docs_dir = str(tmp_path / "docs")
        lance_like.write_table(corpus.build_documents(n_docs=60, seed=15), docs_dir,
                               rows_per_fragment=20)  # 3 frags
        out = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out, concurrency=2)

        v2 = corpus.build_documents(n_docs=40, seed=16)  # 2 frags only
        lance_like.write_table(v2, docs_dir, rows_per_fragment=20, mode="overwrite")
        m = run_extraction_sharded(docs_dir, store, out, concurrency=2)
        assert m["partitions_total"] == 2

        clean = str(tmp_path / "clean")
        run_extraction_sharded(docs_dir, store, clean, concurrency=2)
        a = _sorted_output(load_output(out))
        b = _sorted_output(load_output(clean))
        _assert_span_equality(a, b)

    def test_fresh_run_purges_stale_parts(self, tmp_path, ray_session):
        """resume=False into an out_dir committed under a different fragment
        layout must purge the old parts -- otherwise documents double in the
        output."""
        from distributed_system___ocr_ray.pipelines.extract import load_output
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded

        docs = corpus.build_documents(n_docs=40, seed=17)
        store = corpus.build_media_store(seed=17)
        docs_dir = str(tmp_path / "docs")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=5)  # 8 frags
        out = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out, concurrency=2)
        lance_like.write_table(docs, docs_dir, rows_per_fragment=10, mode="overwrite")
        m = run_extraction_sharded(docs_dir, store, out, resume=False, concurrency=2)
        got = load_output(out)
        assert got.count() == m["docs_out"]  # no doubled documents

        clean = str(tmp_path / "clean")
        run_extraction_sharded(docs_dir, store, clean, concurrency=2)
        _assert_span_equality(_sorted_output(got), _sorted_output(load_output(clean)))


class TestConcurrentJobs:
    def test_two_jobs_kill_then_resume(self, tmp_path, ray_session):
        """Two extraction jobs (distinct output roots) share one Ray session
        (Manager.java:111-167 multi-client analogue); the process is
        SIGKILLed mid-flight and both jobs resume to byte-identical output."""
        from distributed_system___ocr_ray.pipelines.extract import load_output
        from distributed_system___ocr_ray.pipelines.jobs import run_jobs

        root = str(tmp_path)
        store = corpus.build_media_store(seed=21)
        lance_like.write_table(store, f"{root}/media", rows_per_fragment=10**6)
        for tag, seed in (("A", 21), ("B", 22)):
            docs = corpus.build_documents(n_docs=600, seed=seed)
            lance_like.write_table(docs, f"{root}/docs{tag}", rows_per_fragment=50)  # 12 frags

        # clean single-job runs for the expected outputs
        clean = {}
        for tag in ("A", "B"):
            run_jobs([{"docs_dir": f"{root}/docs{tag}", "media": f"{root}/media",
                       "out_dir": f"{root}/clean{tag}", "concurrency": 2}])
            clean[tag] = _sorted_output(load_output(f"{root}/clean{tag}"))

        # concurrent run in a subprocess, SIGKILLed once both jobs committed
        script = tmp_path / "two_jobs.py"
        script.write_text(
            "import ray\n"
            "ray.init(address='local', num_cpus=4, include_dashboard=False,\n"
            "         logging_level='ERROR')\n"
            "from distributed_system___ocr_ray.pipelines.jobs import run_jobs\n"
            f"run_jobs([{{'docs_dir': '{root}/docsA', 'media': '{root}/media',\n"
            f"           'out_dir': '{root}/outA', 'concurrency': 2}},\n"
            f"          {{'docs_dir': '{root}/docsB', 'media': '{root}/media',\n"
            f"           'out_dir': '{root}/outB', 'concurrency': 2}}])\n"
            "ray.shutdown()\n"
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)], cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

        def _n_committed(tag):
            d = f"{root}/out{tag}/_checkpoint"
            if not os.path.isdir(d):
                return 0
            return len([f for f in os.listdir(d) if f.startswith("part-")])

        deadline = time.time() + 180
        while time.time() < deadline:
            if proc.poll() is not None:  # finished before the kill: still fine
                break
            if _n_committed("A") >= 1 and _n_committed("B") >= 1:
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.2)
        proc.wait(timeout=60)

        # resume BOTH jobs concurrently in this session; manifests isolated
        metrics = run_jobs(
            [{"docs_dir": f"{root}/docsA", "media": f"{root}/media",
              "out_dir": f"{root}/outA", "concurrency": 2},
             {"docs_dir": f"{root}/docsB", "media": f"{root}/media",
              "out_dir": f"{root}/outB", "concurrency": 2}]
        )
        for m, tag in zip(metrics, ("A", "B")):
            assert m["partitions_total"] == 12, tag
            got = _sorted_output(load_output(f"{root}/out{tag}"))
            _assert_span_equality(got, clean[tag])


class TestIncrementalAppend:
    def test_append_processes_only_new_fragments(self, tmp_path, ray_session):
        from distributed_system___ocr_ray.pipelines.extract import load_output
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded

        root = str(tmp_path)
        docs_v1 = corpus.build_documents(n_docs=60, seed=3)
        store = corpus.build_media_store(seed=3)
        lance_like.write_table(docs_v1, f"{root}/docs", rows_per_fragment=20)  # 3 frags
        m1 = run_extraction_sharded(f"{root}/docs", store, f"{root}/out", concurrency=2)
        assert m1["partitions_total"] == 3

        # incremental ingest: append 2 more fragments (new docs), re-run
        import pyarrow as pa

        extra = corpus.build_documents(n_docs=40, seed=4)
        extra = extra.set_column(
            0, "doc_id",
            pa.array([f"docB-{i:06d}" for i in range(extra.num_rows)]),
        )
        lance_like.write_table(extra, f"{root}/docs", rows_per_fragment=20, mode="append")
        m2 = run_extraction_sharded(f"{root}/docs", store, f"{root}/out", concurrency=2)
        assert m2["partitions_skipped_prior"] == 3  # v1 fragments untouched
        assert m2["partitions_run"] == 2
        assert m2["docs_out"] > m1["docs_out"]
        out = load_output(f"{root}/out")
        assert out.count() == m2["docs_out"]
