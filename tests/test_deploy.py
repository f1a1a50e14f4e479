"""Cluster packaging artifact (VERDICT r4 #4): the N / 4N cluster YAMLs
and the ray-job-submit dry-run plan validation.

The dry run must build the real plan (manifest reads, committed-partition
pruning, delete sets, hook identity) WITHOUT a Ray session and WITHOUT
mutating the output directory.
"""

import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEPLOY = os.path.join(REPO, "deploy")


class TestClusterYamls:
    def _load(self, name):
        import yaml

        with open(os.path.join(DEPLOY, name)) as f:
            return yaml.safe_load(f)

    def test_both_shapes_parse_and_differ_only_in_worker_count(self):
        n = self._load("cluster_n.yaml")
        n4 = self._load("cluster_4n.yaml")
        for cfg in (n, n4):
            assert cfg["head_node_type"] == "head"
            assert cfg["available_node_types"]["head"]["resources"] == {"CPU": 0}
        wn = n["available_node_types"]["worker_32cpu"]
        w4 = n4["available_node_types"]["worker_32cpu"]
        # FIXED sizes, 4N exactly four times N, identical node shape
        assert wn["min_workers"] == wn["max_workers"] == 4
        assert w4["min_workers"] == w4["max_workers"] == 16
        assert w4["min_workers"] == 4 * wn["min_workers"]
        assert wn["node_config"] == w4["node_config"]
        assert (n["available_node_types"]["head"]["node_config"]
                == n4["available_node_types"]["head"]["node_config"])

    def test_static_clusters_no_autoscaling_headroom(self):
        n = self._load("cluster_n.yaml")
        n4 = self._load("cluster_4n.yaml")
        assert n["max_workers"] == 4
        assert n4["max_workers"] == 16


class TestDryRun:
    @pytest.fixture()
    def corpus_dirs(self, tmp_path):
        from distributed_system___ocr_ray import corpus

        corpus.write_corpus(str(tmp_path), n_docs=12, rows_per_fragment=4)
        return (str(tmp_path / "documents"), str(tmp_path / "media_store"),
                str(tmp_path / "out"))

    def test_dry_run_builds_plan_without_ray_or_writes(self, corpus_dirs, capsys):
        """CLI --dry-run: full plan JSON, no Ray init, no output dir."""
        import ray

        from distributed_system___ocr_ray.__main__ import main

        docs, media, out = corpus_dirs
        # order-independent in the full suite (the session fixture may
        # already hold a Ray session): assert the dry run never STARTS one
        was_init = ray.is_initialized()
        rc = main(["extract", "--input", docs, "--media", media,
                   "--output", out, "--dry-run"])
        assert rc == 0
        assert ray.is_initialized() == was_init  # plan-only: no new session
        plan = json.loads(capsys.readouterr().out.strip())
        assert plan["dry_run"] is True and plan["plan"] == "sharded"
        assert plan["fragments_total"] == 3  # 12 docs / 4 per fragment
        assert plan["partitions_pending"] == 3
        assert plan["partitions_skipped_prior"] == 0
        assert plan["rows_total"] == 12
        assert plan["hooks"] == ["none", "none"]  # no tesseract here
        # nothing written: neither checkpoint dir nor job entry exist
        assert not os.path.exists(out)


@pytest.mark.usefixtures("ray_session")
class TestInvalidate:
    def test_invalidate_then_resume_reprocesses_only_those(self, tmp_path, capsys):
        """The selective-reprocess loop: run -> invalidate 1 of 3
        partitions -> dry-run shows exactly it pending -> resume
        reprocesses it alone and the output is whole again."""
        import json as _json

        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.__main__ import main
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=12, rows_per_fragment=4)
        docs = str(tmp_path / "documents")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        out = str(tmp_path / "out")
        run_extraction_sharded(docs, store, out, concurrency=2)

        rc = main(["invalidate", "--output", out, "--parts", "1"])
        assert rc == 0
        rep = _json.loads(capsys.readouterr().out.strip())
        assert rep == {"retired": [1], "still_committed": 2}

        plan = run_extraction_sharded(docs, store, out, dry_run=True)
        assert plan["partitions_pending"] == 1
        m = run_extraction_sharded(docs, store, out, concurrency=2)
        assert m["partitions_run"] == 1
        assert m["partitions_skipped_prior"] == 2
        assert m["docs_out"] == 12

    def test_invalidate_unknown_part_refuses_without_force(self, tmp_path, capsys):
        from distributed_system___ocr_ray.__main__ import main
        from distributed_system___ocr_ray.state.checkpoint import (
            CheckpointManifest,
        )

        out = str(tmp_path / "out")
        CheckpointManifest(out).ensure()
        assert main(["invalidate", "--output", out, "--parts", "5"]) == 2
        capsys.readouterr()
        assert main(["invalidate", "--output", out, "--parts", "5",
                     "--force"]) == 0


@pytest.mark.usefixtures("ray_session")
class TestDryRunAfterRealRun:
    def test_resume_plan_shows_zero_pending(self, tmp_path):
        """After a completed run, the dry-run resume plan prunes every
        partition -- the pre-submit answer to 'how much work remains'."""
        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=12, rows_per_fragment=4)
        docs = str(tmp_path / "documents")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        out = str(tmp_path / "out")
        run_extraction_sharded(docs, store, out, concurrency=2)
        plan = run_extraction_sharded(docs, store, out, dry_run=True)
        assert plan["partitions_pending"] == 0
        assert plan["partitions_skipped_prior"] == 3

    def test_dry_run_refuses_job_mismatch_read_only(self, tmp_path):
        """A dry run validates job identity like the real run: after a run,
        a dry run against a changed media store raises the real run's error
        and leaves the checkpoint byte-identical."""
        import pyarrow as pa

        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=12, rows_per_fragment=4)
        docs = str(tmp_path / "documents")
        media = str(tmp_path / "media_store")
        out = str(tmp_path / "out")
        run_extraction_sharded(docs, media, out, concurrency=2)
        store = lance_like.read_arrow(media)
        payloads = store.column("payload").to_pylist()
        payloads[0] = payloads[0] + b"\x00"
        changed = store.set_column(store.schema.get_field_index("payload"), "payload",
                                   pa.array(payloads, pa.binary()))

        def snapshot():
            files = {}
            for dirpath, _, names in os.walk(out):
                for n in names:
                    with open(os.path.join(dirpath, n), "rb") as f:
                        files[os.path.join(dirpath, n)] = f.read()
            return files

        before = snapshot()
        with pytest.raises(ValueError, match="resume parameter mismatch"):
            run_extraction_sharded(docs, changed, out, dry_run=True)
        assert snapshot() == before
        with pytest.raises(ValueError, match="resume parameter mismatch"):
            run_extraction_sharded(docs, changed, out, concurrency=2)
