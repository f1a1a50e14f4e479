"""Output publishing, CLI status, strip fuzzing."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distributed_system___ocr_ray import corpus
from distributed_system___ocr_ray.functions.html_strip import strip_boilerplate


@pytest.mark.usefixtures("ray_session")
class TestPublishAndStatus:
    def test_publish_then_read_as_table(self, small_corpus, tmp_path):
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded
        from distributed_system___ocr_ray.sources import lance_like

        docs, store = small_corpus
        docs_dir = str(tmp_path / "docs")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=20)
        out_dir = str(tmp_path / "out")
        m = run_extraction_sharded(docs_dir, store, out_dir, concurrency=2)

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        pub = subprocess.run(
            [sys.executable, "-m", "distributed_system___ocr_ray", "publish", "--output", out_dir],
            cwd=repo, capture_output=True, text=True,
        )
        assert pub.returncode == 0, pub.stderr
        # the published table reads back with the standard reader
        tbl = lance_like.read_arrow(out_dir)
        assert tbl.num_rows == m["docs_out"]

        stat = subprocess.run(
            [sys.executable, "-m", "distributed_system___ocr_ray", "status", "--output", out_dir],
            cwd=repo, capture_output=True, text=True,
        )
        info = json.loads(stat.stdout.strip().splitlines()[-1])
        assert info["docs_out"] == m["docs_out"]
        assert sum(info["status_counts"].values()) == info["rows_in"]


@pytest.mark.usefixtures("ray_session")
class TestStreamingWriter:
    def test_write_dataset_roundtrip_and_append(self, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like

        docs = corpus.build_documents(n_docs=90, seed=13)
        tdir = str(tmp_path / "tbl")
        man = lance_like.write_dataset(rd.from_arrow(docs), tdir, rows_per_fragment=25)
        assert sum(f["rows"] for f in man["fragments"]) == 90
        back = lance_like.read_arrow(tdir)
        assert back.num_rows == 90
        assert sorted(back.column("doc_id").to_pylist()) == sorted(
            docs.column("doc_id").to_pylist()
        )
        # append a second dataset: prior fragments stay listed
        more = corpus.build_documents(n_docs=30, seed=14)
        man2 = lance_like.write_dataset(
            rd.from_arrow(more), tdir, rows_per_fragment=25, mode="append"
        )
        assert sum(f["rows"] for f in man2["fragments"]) == 120
        assert lance_like.read_arrow(tdir).num_rows == 120


@pytest.mark.usefixtures("ray_session")
class TestCompaction:
    def test_compact_merges_preserving_rows_and_versions(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        tdir = str(tmp_path / "tbl")
        # incremental-ingest shape: 50 small appends -> 50 fragments
        for i in range(50):
            t = pa.table({"doc_id": [f"d{i:03d}-{j}" for j in range(10)],
                          "v": list(range(10))})
            lance_like.write_table(t, tdir, rows_per_fragment=10, mode="append")
        man0 = lance_like.read_manifest(tdir)
        assert len(man0["fragments"]) == 50
        before = lance_like.read_arrow(tdir)

        man1 = lance_like.compact(tdir, target_rows_per_fragment=100)
        assert man1["version"] == man0["version"] + 1
        assert man1["compacted_from"] == man0["version"]
        assert len(man1["fragments"]) == 5  # 500 rows / 100-target
        # content and ROW ORDER identical through compaction
        assert lance_like.read_arrow(tdir).equals(before)
        # prior version still pinned and readable (immutable fragments)
        assert lance_like.read_arrow(tdir, version=man0["version"]).equals(before)

    def test_compact_carries_large_fragments_untouched(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        tdir = str(tmp_path / "tbl")
        big = pa.table({"doc_id": [f"big-{j}" for j in range(200)]})
        lance_like.write_table(big, tdir, rows_per_fragment=200)
        for i in range(4):
            small = pa.table({"doc_id": [f"s{i}-{j}" for j in range(5)]})
            lance_like.write_table(small, tdir, rows_per_fragment=5, mode="append")
        before = lance_like.read_arrow(tdir)
        big_path = lance_like.read_manifest(tdir)["fragments"][0]["path"]
        man = lance_like.compact(tdir, target_rows_per_fragment=100)
        # the healthy fragment is referenced in place, not rewritten
        assert man["fragments"][0]["path"] == big_path
        assert len(man["fragments"]) == 2  # big + one merged run of smalls
        assert lance_like.read_arrow(tdir).equals(before)

    def test_media_compaction_blocks_resume_loudly(self, tmp_path):
        """Fragment-list fingerprints are partitioning identity: compacting
        the media store between runs must raise, never silently mix."""
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded
        from distributed_system___ocr_ray.sources import lance_like

        root = str(tmp_path)
        docs = corpus.build_documents(n_docs=30, seed=23)
        store = corpus.build_media_store(n_img=20, n_pdf=10, seed=23)
        lance_like.write_table(docs, f"{root}/docs", rows_per_fragment=10)
        # media as a path-backed table with several small fragments
        lance_like.write_table(store.slice(0, 15), f"{root}/media", rows_per_fragment=5)
        lance_like.write_table(store.slice(15), f"{root}/media", rows_per_fragment=5,
                               mode="append")
        run_extraction_sharded(f"{root}/docs", f"{root}/media", f"{root}/out", concurrency=2)
        lance_like.compact(f"{root}/media", target_rows_per_fragment=100)
        with pytest.raises(ValueError, match="media"):
            run_extraction_sharded(f"{root}/docs", f"{root}/media", f"{root}/out",
                                   concurrency=2)

    def test_docs_compaction_triggers_full_safe_rerun(self, tmp_path):
        """Compacting the DOCS table rewrites fragment paths, so committed
        partitions fail the per-fragment identity check and re-run -- a
        correct full reprocess, never a silent skip of renamed inputs."""
        from distributed_system___ocr_ray.pipelines.extract import load_output
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded
        from distributed_system___ocr_ray.sources import lance_like

        root = str(tmp_path)
        docs = corpus.build_documents(n_docs=40, seed=29)
        store = corpus.build_media_store(seed=29)
        for s in range(0, 40, 10):
            lance_like.write_table(
                docs.slice(s, 10), f"{root}/docs", rows_per_fragment=10, mode="append"
            )
        m1 = run_extraction_sharded(f"{root}/docs", store, f"{root}/out", concurrency=2)
        assert m1["partitions_total"] == 4
        lance_like.compact(f"{root}/docs", target_rows_per_fragment=40)
        m2 = run_extraction_sharded(f"{root}/docs", store, f"{root}/out", concurrency=2)
        assert m2["partitions_skipped_prior"] == 0  # identity miss -> re-run
        assert m2["docs_out"] == m1["docs_out"]
        out = load_output(f"{root}/out")
        assert out.count() == m1["docs_out"]

    def test_publish_compact_cli(self, small_corpus, tmp_path):
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded
        from distributed_system___ocr_ray.sources import lance_like

        docs, store = small_corpus
        docs_dir = str(tmp_path / "docs")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=10)
        out_dir = str(tmp_path / "out")
        m = run_extraction_sharded(docs_dir, store, out_dir, concurrency=2)
        pub = subprocess.run(
            [sys.executable, "-m", "distributed_system___ocr_ray", "publish",
             "--output", out_dir, "--compact", "--target-rows", "1000"],
            cwd="/root/repo", capture_output=True, text=True,
        )
        assert pub.returncode == 0, pub.stderr
        info = json.loads(pub.stdout.strip().splitlines()[-1])
        assert info["fragments"] == 1  # all small partitions merged
        assert lance_like.read_arrow(out_dir).num_rows == m["docs_out"]


class TestStripFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=300))
    def test_strip_never_raises(self, text):
        out = strip_boilerplate(text)
        assert isinstance(out, str)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="<>/abp di&;#'\"=\n ", max_size=200))
    def test_strip_taggy_soup_never_raises(self, text):
        assert isinstance(strip_boilerplate(text), str)


@pytest.mark.usefixtures("ray_session")
class TestGcAndSchemaGuard:
    def test_gc_reclaims_old_versions(self, tmp_path):
        import os

        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "t")
        t = pa.table({"x": list(range(10))})
        lance_like.write_table(t, d, rows_per_fragment=2)  # v1: 5 fragments
        lance_like.write_table(t, d, rows_per_fragment=2, mode="append")  # v2
        lance_like.compact(d, target_rows_per_fragment=100)  # v3: 1 big fragment
        n_files_before = len(os.listdir(os.path.join(d, "data")))

        stats = lance_like.gc(d, keep_versions=1)
        assert stats["kept_versions"] == [3]
        assert stats["deleted_manifests"] == [1, 2]
        # v3 references only the compacted fragment; the 10 small ones go
        assert stats["deleted_fragments"] == n_files_before - stats["kept_fragments"]
        assert lance_like.read_arrow(d).num_rows == 20  # latest still reads
        # old version is gone — pinning it now raises
        with pytest.raises(FileNotFoundError):
            lance_like.read_manifest(d, 1)
        # idempotent
        again = lance_like.gc(d, keep_versions=1)
        assert again["deleted_fragments"] == 0 and again["deleted_manifests"] == []

    def test_append_schema_mismatch_raises(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "t")
        lance_like.write_table(pa.table({"a": [1], "b": ["x"]}), d)
        with pytest.raises(ValueError, match="append schema mismatch"):
            lance_like.write_table(pa.table({"a": [2], "c": ["y"]}), d, mode="append")
        # matching schema still appends fine
        man = lance_like.write_table(pa.table({"a": [2], "b": ["y"]}), d, mode="append")
        assert man["version"] == 2

    def test_append_schema_mismatch_raises_streaming(self, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "t")
        lance_like.write_table(pa.table({"a": [1], "b": ["x"]}), d)
        bad = rd.from_arrow(pa.table({"a": [2], "zzz": ["y"]}))
        with pytest.raises(ValueError, match="append schema mismatch"):
            lance_like.write_dataset(bad, d, mode="append")

    def test_append_dtype_mismatch_raises(self, tmp_path):
        """Same column names but different dtypes is the silent-poison case
        the guard exists for (review finding, round 3)."""
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "t")
        lance_like.write_table(pa.table({"a": [1], "b": [2]}), d)
        with pytest.raises(ValueError, match="append schema mismatch"):
            lance_like.write_table(pa.table({"a": ["x"], "b": ["y"]}), d, mode="append")

    def test_empty_append_skips_schema_guard(self, tmp_path):
        """An all-filtered (schema-less) streaming append is a harmless
        zero-fragment version, not a mismatch error."""
        import pyarrow as pa
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "t")
        lance_like.write_table(pa.table({"a": [1], "b": [2]}), d)
        empty = rd.from_arrow(pa.table({"a": [1], "b": [2]})).filter(lambda r: False)
        man = lance_like.write_dataset(empty, d, mode="append")
        assert man["version"] == 2
        assert lance_like.read_arrow(d).num_rows == 1

    def test_gc_spares_inflight_append_fragments(self, tmp_path):
        """Fragments with a version above the latest committed manifest are
        a racing writer's in-flight files — gc must not reclaim them."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq_mod

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "t")
        lance_like.write_table(pa.table({"x": [1, 2]}), d)  # v1
        lance_like.write_table(pa.table({"x": [3]}), d, mode="append")  # v2
        # simulate an in-flight v3 append: fragment written, manifest not yet
        inflight = os.path.join(d, "data", "fragment-3-00000.parquet")
        pq_mod.write_table(pa.table({"x": [9]}), inflight)

        stats = lance_like.gc(d, keep_versions=1)
        assert os.path.exists(inflight), "gc reclaimed a racing writer's fragment"
        assert stats["deleted_manifests"] == [1]


@pytest.mark.usefixtures("ray_session")
class TestVersionDiff:
    def test_append_and_compact_diffs(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        tdir = str(tmp_path / "tbl")
        for i in range(4):
            t = pa.table({"doc_id": [f"d{i}-{j}" for j in range(10)], "v": list(range(10))})
            lance_like.write_table(t, tdir, rows_per_fragment=10, mode="append")
        # pure append: v1 -> v4 added 30 rows, removed none
        d = lance_like.diff(tdir, 1, 4)
        assert (d["rows_added"], d["rows_removed"], d["row_delta"]) == (30, 0, 30)
        assert not d["removed"] and len(d["added"]) == 3

        v_before = lance_like.latest_version(tdir)
        lance_like.compact(tdir, target_rows_per_fragment=40)
        d2 = lance_like.diff(tdir, v_before)  # v_new defaults to latest
        # compaction rewrites: adds + removes balance to zero row delta
        assert d2["row_delta"] == 0
        assert d2["rows_removed"] == 40 and d2["rows_added"] == 40
        assert len(d2["removed"]) == 4 and len(d2["added"]) == 1


@pytest.mark.usefixtures("ray_session")
class TestZoneMapPruning:
    def _sorted_table(self, n=100):
        import pyarrow as pa

        return pa.table(
            {
                "doc_id": list(range(n)),
                "lang": [f"l{i % 3}" for i in range(n)],
                "score": [i / 10 for i in range(n)],
            }
        )

    def test_stats_recorded_and_range_pruned(self, tmp_path):
        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        lance_like.write_table(self._sorted_table(), d, rows_per_fragment=10)
        man = lance_like.read_manifest(d)
        assert all("stats" in f for f in man["fragments"])
        assert man["fragments"][0]["stats"]["doc_id"] == [0, 9]
        assert man["fragments"][0]["stats"]["lang"] == ["l0", "l2"]

        # range over doc_id: only 3 of 10 fragments may match 25..47
        paths, total = lance_like.pruned_fragment_paths(d, [("doc_id", "between", (25, 47))])
        assert total == 10 and len(paths) == 3

        ds = lance_like.read_dataset(d, predicates=[("doc_id", "between", (25, 47))])
        rows = [r for r in ds.take_all() if 25 <= r["doc_id"] <= 47]  # exact filter after prune
        assert sorted(r["doc_id"] for r in rows) == list(range(25, 48))

    def test_prune_ops_and_conservatism(self, tmp_path):
        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        lance_like.write_table(self._sorted_table(), d, rows_per_fragment=10)
        cases = [
            ([("doc_id", "==", 55)], 1),
            ([("doc_id", "<", 10)], 1),
            ([("doc_id", "<=", 10)], 2),
            ([("doc_id", ">", 89)], 1),
            ([("doc_id", ">=", 89)], 2),
            ([("score", ">=", 9.5)], 1),  # float stats
            ([("doc_id", ">=", 60), ("doc_id", "<", 70)], 1),  # ANDed
            ([("lang", "==", "l1")], 10),  # every fragment spans l0..l2: no pruning
        ]
        for preds, expect in cases:
            paths, total = lance_like.pruned_fragment_paths(d, preds)
            assert (len(paths), total) == (expect, 10), preds

    def test_all_pruned_returns_empty_with_schema(self, tmp_path):
        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        lance_like.write_table(self._sorted_table(), d, rows_per_fragment=10)
        ds = lance_like.read_dataset(d, predicates=[("doc_id", ">", 10**6)])
        assert ds.count() == 0
        assert set(ds.schema().names) == {"doc_id", "lang", "score"}
        ds2 = lance_like.read_dataset(
            d, predicates=[("doc_id", ">", 10**6)], columns=["doc_id", "lang"]
        )
        assert ds2.schema().names == ["doc_id", "lang"]

    def test_statless_manifest_never_prunes(self, tmp_path):
        import pyarrow.parquet as pq_mod

        from distributed_system___ocr_ray.sources import lance_like

        # manifest_over_files publishes external parquet without stats
        p = str(tmp_path / "ext.parquet")
        pq_mod.write_table(self._sorted_table(), p)
        d = str(tmp_path / "tbl")
        lance_like.manifest_over_files([p], d)
        paths, total = lance_like.pruned_fragment_paths(d, [("doc_id", "==", -1)])
        assert (len(paths), total) == (1, 1)  # kept: no stats, prune must not filter

    def test_streaming_writer_and_compact_carry_stats(self, tmp_path):
        import ray.data as rd

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        lance_like.write_dataset(
            rd.from_arrow(self._sorted_table()).repartition(10), d, rows_per_fragment=10
        )
        man = lance_like.read_manifest(d)
        assert all("stats" in f and "doc_id" in f["stats"] for f in man["fragments"])
        lo = min(f["stats"]["doc_id"][0] for f in man["fragments"])
        hi = max(f["stats"]["doc_id"][1] for f in man["fragments"])
        assert (lo, hi) == (0, 99)

        lance_like.compact(d, target_rows_per_fragment=50)
        man2 = lance_like.read_manifest(d)
        assert all("stats" in f for f in man2["fragments"])
        # compacted zone maps still cover the full domain
        lo2 = min(f["stats"]["doc_id"][0] for f in man2["fragments"])
        hi2 = max(f["stats"]["doc_id"][1] for f in man2["fragments"])
        assert (lo2, hi2) == (0, 99)


@pytest.mark.usefixtures("ray_session")
class TestInvertedIndex:
    def test_build_lookup_counts_and_pruning(self, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        from distributed_system___ocr_ray.pipelines import index as idx
        from distributed_system___ocr_ray.sources import lance_like

        docs = pa.table(
            {
                "doc_id": [1, 2, 3, 4],
                "text": [
                    "alpha beta alpha",   # 'alpha' twice in one doc: 1 posting
                    "beta gamma",
                    "alpha zulu",
                    "zulu zulu zulu",
                ],
            }
        )
        d = str(tmp_path / "postings")
        idx.build_postings(rd.from_arrow(docs), d, rows_per_fragment=2)
        man = lance_like.read_manifest(d)
        assert len(man["fragments"]) >= 3  # small fragments -> prunable
        assert all("stats" in f and "term" in f["stats"] for f in man["fragments"])

        got = dict(
            (r["term"], r["n_docs"])
            for r in idx.lookup_terms(d, ["alpha", "zulu", "absent"]).take_all()
        )
        assert got == {"alpha": 2, "zulu": 2}

    def test_require_pruning_guard(self, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        from distributed_system___ocr_ray.pipelines import index as idx

        docs = pa.table({"doc_id": [1], "text": ["only one tiny doc"]})
        d = str(tmp_path / "postings")
        idx.build_postings(rd.from_arrow(docs), d, rows_per_fragment=10**6)
        # one fragment: nothing can be pruned -> the guard must trip
        with pytest.raises(AssertionError, match="pruning ineffective"):
            idx.lookup_terms(d, ["one"], require_pruning=True).take_all()


@pytest.mark.usefixtures("ray_session")
class TestDeleteWhere:
    def _tbl(self, tmp_path, n=100, frag=10):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        t = pa.table(
            {"doc_id": list(range(n)), "lang": [f"l{i % 3}" for i in range(n)]}
        )
        lance_like.write_table(t, d, rows_per_fragment=frag)
        return d

    def test_range_delete_prunes_rewrites(self, tmp_path):
        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        man = lance_like.delete_where(d, [("doc_id", "between", (25, 44))])
        # 25..44 spans fragments [20,30) partially, [30,40) fully, [40,50) partially
        assert man["rows_deleted"] == 20
        assert man["fragments_rewritten"] == 2  # the two partial fragments
        assert man["fragments_carried"] == 7    # untouched, zone-map skipped
        assert len(man["fragments"]) == 9       # the fully-deleted one dropped
        ids = sorted(lance_like.read_arrow(d).column("doc_id").to_pylist())
        assert ids == [i for i in range(100) if not (25 <= i <= 44)]
        # version pinning: the PREVIOUS version still reads all 100 rows
        assert lance_like.read_arrow(d, version=man["version"] - 1).num_rows == 100
        # carried fragments kept their original paths (no rewrite amplification)
        carried = [f["path"] for f in man["fragments"] if "-d" not in f["path"]]
        assert len(carried) == 7

    def test_no_match_delete_is_metadata_only(self, tmp_path):
        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        before = lance_like.read_manifest(d)["fragments"]
        man = lance_like.delete_where(d, [("doc_id", ">", 10**6)])
        assert man["rows_deleted"] == 0 and man["fragments_rewritten"] == 0
        assert man["fragments"] == before

    def test_stats_refresh_on_rewrite(self, tmp_path):
        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        lance_like.delete_where(d, [("doc_id", "==", 5)])
        man = lance_like.read_manifest(d)
        frag0 = [f for f in man["fragments"] if f["stats"]["doc_id"][0] in (0, 4)][0]
        # rewritten first fragment: min/max still 0..9 minus nothing at the
        # edges, but row 5 gone -> rows == 9 and stats present
        assert frag0["rows"] == 9 and "stats" in frag0


class TestMergeUpsert:
    def _tbl(self, tmp_path, n=100, frag=10):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        t = pa.table(
            {"doc_id": list(range(n)), "lang": [f"l{i % 3}" for i in range(n)]}
        )
        lance_like.write_table(t, d, rows_per_fragment=frag)
        return d

    def test_update_and_insert(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        upd = pa.table(
            {
                "doc_id": [25, 26, 27, 28, 29, 100, 101, 102],
                "lang": ["up"] * 5 + ["new"] * 3,
            }
        )
        man = lance_like.merge_upsert(d, upd, "doc_id")
        assert man["rows_updated"] == 5 and man["rows_inserted"] == 3
        # keys 25-29 live only in fragment [20,30): one rewrite, nine carried
        assert man["fragments_rewritten"] == 1 and man["fragments_carried"] == 9
        t = lance_like.read_arrow(d)
        assert sorted(t.column("doc_id").to_pylist()) == list(range(103))
        langs = dict(
            zip(t.column("doc_id").to_pylist(), t.column("lang").to_pylist())
        )
        assert all(langs[i] == "up" for i in range(25, 30))
        assert all(langs[i] == "new" for i in (100, 101, 102))
        assert langs[24] == f"l{24 % 3}"  # untouched neighbor
        # version pinning: the previous version is the pre-merge table
        old = lance_like.read_arrow(d, version=man["version"] - 1)
        assert old.num_rows == 100
        old_langs = dict(
            zip(old.column("doc_id").to_pylist(), old.column("lang").to_pylist())
        )
        assert old_langs[25] == f"l{25 % 3}"

    def test_insert_only_is_append_shaped(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        man = lance_like.merge_upsert(
            d, pa.table({"doc_id": [500, 501], "lang": ["x", "x"]}), "doc_id"
        )
        assert man["rows_updated"] == 0 and man["rows_inserted"] == 2
        assert man["fragments_rewritten"] == 0 and man["fragments_carried"] == 10
        assert lance_like.read_arrow(d).num_rows == 102

    def test_duplicate_or_null_keys_raise(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        with pytest.raises(ValueError, match="duplicate"):
            lance_like.merge_upsert(
                d, pa.table({"doc_id": [1, 1], "lang": ["a", "b"]}), "doc_id"
            )
        with pytest.raises(ValueError, match="null"):
            lance_like.merge_upsert(
                d,
                pa.table(
                    {
                        "doc_id": pa.array([1, None], pa.int64()),
                        "lang": ["a", "b"],
                    }
                ),
                "doc_id",
            )

    def test_schema_drift_raises(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        with pytest.raises(ValueError, match="schema mismatch"):
            lance_like.merge_upsert(
                d,
                pa.table(
                    {
                        "doc_id": pa.array(["1"], pa.string()),  # dtype drift
                        "lang": ["a"],
                    }
                ),
                "doc_id",
            )

    def test_column_order_normalized(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        # updates arrive (lang, doc_id): merge must reorder to the committed
        # physical schema so mixed-version reads concat cleanly
        man = lance_like.merge_upsert(
            d, pa.table({"lang": ["z"], "doc_id": [7]}), "doc_id"
        )
        assert man["rows_updated"] == 1
        t = lance_like.read_arrow(d)
        assert t.schema.names == ["doc_id", "lang"]
        langs = dict(
            zip(t.column("doc_id").to_pylist(), t.column("lang").to_pylist())
        )
        assert langs[7] == "z" and t.num_rows == 100


@pytest.mark.usefixtures("ray_session")
class TestChangedRows:
    def _tbl(self, tmp_path, n=100, frag=10):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        t = pa.table(
            {"doc_id": list(range(n)), "lang": [f"l{i % 3}" for i in range(n)]}
        )
        lance_like.write_table(t, d, rows_per_fragment=frag)
        return d

    def _feed(self, d, v_old, v_new=None):
        from distributed_system___ocr_ray.pipelines import compose

        df = compose.changed_rows(d, v_old, v_new).to_pandas()
        if df.empty:  # all-groups-empty output loses its column names
            return {}
        return dict(zip(df["doc_id"], df["change"]))

    def test_merge_delete_feed(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        v1 = lance_like.latest_version(d)
        lance_like.merge_upsert(
            d,
            pa.table({"doc_id": [25, 26, 200], "lang": ["up", "up", "new"]}),
            "doc_id",
        )
        man = lance_like.delete_where(d, [("doc_id", "between", (40, 44))])
        got = self._feed(d, v1, man["version"])
        exp = {25: "updated", 26: "updated", 200: "inserted"}
        exp.update({i: "deleted" for i in range(40, 45)})
        # carried neighbors inside the rewritten fragments (20-24, 27-29,
        # 45-49) must NOT appear
        assert got == exp

    def test_compaction_is_silent(self, tmp_path):
        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        v1 = lance_like.latest_version(d)
        man = lance_like.compact(d, target_rows_per_fragment=100)
        assert self._feed(d, v1, man["version"]) == {}

    def test_same_version_empty_with_schema(self, tmp_path):
        from distributed_system___ocr_ray.pipelines import compose
        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        v1 = lance_like.latest_version(d)
        ds = compose.changed_rows(d, v1, v1)
        assert ds.count() == 0
        assert set(ds.schema().names) == {"doc_id", "change"}

    def test_value_revert_is_carried(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = self._tbl(tmp_path)
        v1 = lance_like.latest_version(d)
        orig = f"l{7 % 3}"
        lance_like.merge_upsert(
            d, pa.table({"doc_id": [7], "lang": ["tmp"]}), "doc_id"
        )
        # second merge restores the original value: net content identical,
        # so the v1 -> v3 feed reports NOTHING for key 7
        lance_like.merge_upsert(
            d, pa.table({"doc_id": [7], "lang": [orig]}), "doc_id"
        )
        assert self._feed(d, v1) == {}


@pytest.mark.usefixtures("ray_session")
class TestVerifyAudit:
    def test_clean_and_corrupted_table(self, tmp_path):
        import json
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq_mod

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        t = pa.table({"doc_id": list(range(50)), "lang": ["x"] * 50})
        lance_like.write_table(t, d, rows_per_fragment=10)
        rep = lance_like.verify(d)
        assert rep["ok"] and rep["fragments"] == 5 and rep["rows"] == 50

        # corrupt: delete one fragment, lie about another's stats
        man = lance_like.read_manifest(d)
        os.remove(os.path.join(d, man["fragments"][0]["path"]))
        man["fragments"][1]["stats"]["doc_id"] = [0, 999]
        mpath = os.path.join(d, "_manifest", f"v{man['version']}.json")
        with open(mpath, "w") as f:
            json.dump(man, f)
        rep = lance_like.verify(d)
        assert not rep["ok"]
        assert any("missing fragment" in e for e in rep["errors"])
        assert any("stats mismatch" in e for e in rep["errors"])

        # footer-only audit skips the stats read but still catches missing
        rep2 = lance_like.verify(d, check_stats=False)
        assert not rep2["ok"] and all("stats" not in e for e in rep2["errors"])


@pytest.mark.usefixtures("ray_session")
class TestTableLifecycle:
    def test_write_append_delete_compact_gc_verify(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        # 5 small appends of 20 rows each
        for i in range(5):
            t = pa.table(
                {
                    "doc_id": list(range(i * 20, i * 20 + 20)),
                    "lang": [f"l{j % 2}" for j in range(20)],
                }
            )
            lance_like.write_table(t, d, rows_per_fragment=10, mode="append")
        assert lance_like.verify(d)["ok"]

        # delete a range spanning append boundaries
        man = lance_like.delete_where(d, [("doc_id", "between", (15, 34))])
        assert man["rows_deleted"] == 20

        # compact the accumulated small fragments
        lance_like.compact(d, target_rows_per_fragment=40)
        assert lance_like.verify(d)["ok"]

        # gc old versions; the surviving table still reads correctly
        stats = lance_like.gc(d, keep_versions=1)
        assert stats["deleted_manifests"]
        rep = lance_like.verify(d)
        assert rep["ok"], rep["errors"]
        ids = sorted(lance_like.read_arrow(d).column("doc_id").to_pylist())
        assert ids == [i for i in range(100) if not (15 <= i <= 34)]

        # zone maps survive the whole lifecycle: a range read still prunes
        paths, total = lance_like.pruned_fragment_paths(d, [("doc_id", ">=", 90)])
        assert 0 < len(paths) < total


@pytest.mark.usefixtures("ray_session")
class TestPredicatePushdown:
    def test_predicate_read_returns_exact_rows(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        t = pa.table({"doc_id": list(range(100)), "lang": [f"l{i % 3}" for i in range(100)]})
        lance_like.write_table(t, d, rows_per_fragment=10)
        # rows come back exactly matching (pushdown), not just fragment-level
        rows = lance_like.read_dataset(
            d, predicates=[("doc_id", "between", (25, 47)), ("lang", "==", "l0")]
        ).take_all()
        ids = sorted(r["doc_id"] for r in rows)
        assert ids == [i for i in range(25, 48) if i % 3 == 0]


@pytest.mark.usefixtures("ray_session")
class TestEmptyManifestRead:
    def test_delete_all_then_read(self, tmp_path):
        import pyarrow as pa

        from distributed_system___ocr_ray.sources import lance_like

        d = str(tmp_path / "tbl")
        lance_like.write_table(
            pa.table({"doc_id": [1, 2], "lang": ["a", "b"]}), d, rows_per_fragment=1
        )
        man = lance_like.delete_where(d, [("doc_id", ">=", 0)])
        assert man["fragments"] == [] and man["rows_deleted"] == 2
        # zero-fragment manifest must read as an empty Dataset, not crash —
        # schema recovered from the prior version's fragments
        ds = lance_like.read_dataset(d, predicates=[("doc_id", "==", 1)])
        assert ds.count() == 0 and set(ds.schema().names) == {"doc_id", "lang"}
        ds2 = lance_like.read_dataset(d)
        assert ds2.count() == 0
