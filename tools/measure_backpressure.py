"""Object-store evidence: the flagship pipeline stays CORRECT when the
object store is far smaller than the corpus it extracts.

The sharded run never moves documents through the object store: each
fragment task reads its fragment from the table and commits its partition
itself, so only the broadcast media store, the task arguments and the
small lineage entries live there. This tool runs the sharded extraction
over a corpus several times larger than a deliberately tiny object store
and checks

1. the run completes (no OOM),
2. output row counts equal the input span counts (nothing dropped under
   pressure),
3. how much the object store actually spilled (evidence the bound bit).

Prints one JSON line. Usage::

    PYTHONPATH=/root/repo python tools/measure_backpressure.py

Reading inside the tasks keeps the sharded run's object-store footprint
bounded by construction -- expected result: completes with little or no
spill however large the corpus (that bound IS the evidence).

Env: ``BP_STORE_MB`` (default 512), ``BP_REPLICATE`` (default 800 over
sf0.1 -- the 4M-doc scaling corpus, whose exploded spans are well past the
store), ``BP_CPUS`` (default 16).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
STORE_MB = int(os.environ.get("BP_STORE_MB", "512"))
REPLICATE = int(os.environ.get("BP_REPLICATE", "800"))
NUM_CPUS = int(os.environ.get("BP_CPUS", "16"))
ROOT = "/tmp/graft_backpressure"


def main() -> int:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        object_store_memory=STORE_MB * 1024 * 1024,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from distributed_system___ocr_ray.corpus import generator_content_id
    from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded
    from distributed_system___ocr_ray.sources import lance_like, wrap

    # reuse the content-keyed bench corpus when present (same generator)
    tag = f"{os.path.basename(os.path.normpath(SF_DIR))}_r{REPLICATE}_f1000_{generator_content_id()}"
    bench_docs = os.path.join("/tmp/graft_bench", tag, "documents")
    bench_media = os.path.join("/tmp/graft_bench", tag, "media_store")
    if lance_like.latest_version(bench_docs) and lance_like.latest_version(bench_media):
        docs_dir, media_dir = bench_docs, bench_media
    else:
        cid = generator_content_id()
        docs_dir = os.path.join(ROOT, f"docs_r{REPLICATE}_{cid}")
        media_dir = os.path.join(ROOT, f"media_r{REPLICATE}_{cid}")
        if not (
            lance_like.latest_version(docs_dir) and lance_like.latest_version(media_dir)
        ):
            ds, store = wrap.interleaved_from_documents(SF_DIR, replicate=REPLICATE)
            lance_like.write_dataset(ds, docs_dir, rows_per_fragment=1000)
            lance_like.write_table(store, media_dir, rows_per_fragment=10**6)
    store = lance_like.read_arrow(media_dir)
    n_docs = sum(f["rows"] for f in lance_like.read_manifest(docs_dir)["fragments"])
    corpus_bytes = sum(
        os.path.getsize(p) for p in lance_like.fragment_paths(docs_dir)
    ) + store.nbytes

    def spilled() -> str | None:
        try:
            from ray._private.internal_api import memory_summary

            for line in memory_summary(stats_only=True).splitlines():
                if "Spilled" in line:
                    return line.strip()
        except Exception:
            pass
        # fallback: the raylet's own spill counter (the memory_summary API
        # returned nothing for a run that raylet.out showed spilling 11.5
        # GiB -- trust the raylet)
        try:
            import glob

            out = None
            for path in sorted(glob.glob("/tmp/ray/ray/session_*/logs/raylet.out")):
                with open(path, errors="ignore") as fh:
                    for line in fh:
                        if "Spilled" in line:
                            out = line.rsplit(":info_message:", 1)[-1].strip()
            return out
        except Exception:
            return None

    out_dir = os.path.join(ROOT, f"out_sharded_{STORE_MB}mb")
    shutil.rmtree(out_dir, ignore_errors=True)
    metrics = run_extraction_sharded(
        docs_dir, store, out_dir, concurrency=NUM_CPUS, batch_size=512)
    ok = metrics.get("docs_out") == n_docs
    print(
        json.dumps(
            {
                "metric": "backpressure_correctness",
                "object_store_mb": STORE_MB,
                "corpus_bytes_on_disk": corpus_bytes,
                "docs_in": n_docs,
                "docs_out": metrics.get("docs_out"),
                "rows_in": metrics.get("rows_in"),
                "spilled_after": spilled(),
                "ok": ok,
            }
        )
    )
    ray.shutdown()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
