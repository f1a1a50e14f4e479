"""Benchmark driver: headline extraction throughput + representative queries.

Prints ONE JSON line::

    {"metric": "extraction_headline_sec", "value": <sec>, "unit": "sec",
     "queries": {...}, "sf": <dir>, "num_cpus": N, "docs": D,
     "docs_per_sec": R}

Headline: the flagship checkpointed pipeline -- read interleaved corpus
(Lance-style table on disk, derived deterministically from
``$GRAFT_SF_DIR/documents.parquet``, replicated x$RAY_GRAFT_REPLICATE) ->
explode -> task-pool extraction -> partitioned reassembly -> committed
parquet + manifest. Corpus generation is cached in /tmp and untimed; one
untimed warm read precedes timing so the page cache is hot.

``--scaling``: runs this script in fresh processes at ``num_cpus=N`` and
``num_cpus=4N`` (default N=4; override GRAFT_SCALE_LO/HI) on the same input,
best of 2 runs per level (single-box run-to-run noise is +-20%), and reports
both throughputs plus efficiency = (t_lo/t_hi)/4 -- the sandbox evidence for
the north rule's N-vs-4N-nodes criterion (see BASELINE.md). N=4 -> 4N=16 is
used rather than 8 -> 32 because at 32 the single box saturates memory
bandwidth/turbo headroom, which misrepresents a 4x-node cluster where those
resources scale with nodes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count()))
REPLICATE = int(os.environ.get("RAY_GRAFT_REPLICATE", "200"))
BENCH_ROOT = os.environ.get("GRAFT_BENCH_ROOT", "/tmp/graft_bench")


def _corpus_content_id() -> str:
    """Content key for the /tmp corpus cache -- shared with every tool that
    caches a generated corpus (corpus.generator_content_id probes one even
    and one odd doc so both parities' span plans are fingerprinted)."""
    from distributed_system___ocr_ray.corpus import generator_content_id

    return generator_content_id()


def _prepare_corpus() -> tuple[str, str, int]:
    """Materialize the interleaved corpus as a Lance-style table (cached,
    content-keyed via _corpus_content_id).

    Streams wrapped batches straight to fragments (lance_like.write_dataset):
    driver RSS stays flat however large REPLICATE grows."""
    from distributed_system___ocr_ray.sources import lance_like, wrap

    tag = (
        f"{os.path.basename(os.path.normpath(SF_DIR))}_r{REPLICATE}"
        f"_f1000_{_corpus_content_id()}"
    )
    docs_dir = os.path.join(BENCH_ROOT, tag, "documents")
    media_dir = os.path.join(BENCH_ROOT, tag, "media_store")
    if lance_like.latest_version(docs_dir) and lance_like.latest_version(media_dir):
        man = lance_like.read_manifest(docs_dir)
        return docs_dir, media_dir, sum(f["rows"] for f in man["fragments"])
    ds, store = wrap.interleaved_from_documents(SF_DIR, replicate=REPLICATE)
    man = lance_like.write_dataset(ds, docs_dir, rows_per_fragment=1000)
    lance_like.write_table(store, media_dir, rows_per_fragment=10**6)
    return docs_dir, media_dir, sum(f["rows"] for f in man["fragments"])


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return round(time.perf_counter() - t0, 3)


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from distributed_system___ocr_ray.pipelines import extract as pipeline

    docs_dir, media_dir, n_docs = _prepare_corpus()

    from distributed_system___ocr_ray.sources import lance_like

    store = lance_like.read_arrow(media_dir)

    # warm the page cache (untimed)
    lance_like.read_dataset(docs_dir).count()

    out_dir = os.path.join(BENCH_ROOT, f"out_{NUM_CPUS}")
    # headline = the checkpointed shard-local run (pipelines/sharded.py)
    from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded

    # one untimed warm extraction first: a fresh process's FIRST run pays
    # worker-import I/O (32 workers reading site-packages through a cold page
    # cache: measured 13.8 s cold vs 8.1 s warm for the identical job on
    # this box). The headline metric is steady-state docs/sec -- the regime
    # that matters at 100 TB, where spin-up amortizes to zero.
    shutil.rmtree(out_dir, ignore_errors=True)
    run_extraction_sharded(docs_dir, store, out_dir, concurrency=NUM_CPUS, batch_size=1024)
    shutil.rmtree(out_dir, ignore_errors=True)
    headline_sec = _timed(
        lambda: run_extraction_sharded(
            docs_dir, store, out_dir, concurrency=NUM_CPUS, batch_size=1024
        )
    )

    query_times: dict[str, float] = {}
    if os.environ.get("GRAFT_HEADLINE_ONLY"):
        return {
            "metric": "extraction_headline_sec",
            "value": headline_sec,
            "unit": "sec",
            "queries": query_times,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "docs": n_docs,
            "docs_per_sec": round(n_docs / headline_sec, 2),
        }

    query_times.update(run_sweep())

    return {
        "metric": "extraction_headline_sec",
        "value": headline_sec,
        "unit": "sec",
        "queries": query_times,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs": n_docs,
        "docs_per_sec": round(n_docs / headline_sec, 2),
    }


# the full query sweep; chunked into fresh-cluster subprocesses by
# run_sweep (see its docstring for why)
SWEEP_QUERIES = [
    "token_count_by_lang", "ann_topk", "extract_flat_identity",
    "embedding_neardup", "fingerprints", "quality_by_lang", "bm25_topk",
    "contamination_flags", "pack_sequences", "redact_pii", "repetition_stats",
    "budget_select", "mixture_sample", "cms_top_tokens", "epoch_shuffle",
    "sample_exact_n", "robust_outliers", "collocations", "pruned_range_read",
    "kmeans_clusters", "pagerank_top", "hybrid_topk", "semdedup_keepers",
    "label_centroids", "evolved_schema_counts", "pps_sample", "bfs_levels",
    "profile_documents", "rnn_pairs", "kmeans_inertia", "in_degree_histogram",
    "table_checksum", "phrase_doc_counts", "docs_cube", "oov_rate_by_lang",
    "bloom_fp_audit", "cms_error_audit", "langid_confusion", "k_anonymity",
    "split_skew_audit", "vocab_growth", "link_prediction_topk",
    "encoding_audit", "quality_length_corr", "shuffle_mix_audit",
    "lang_source_chi2", "source_vocab_overlap", "token_diversity_by_lang",
    "doc_surprisal_topk", "sentence_stats_by_lang", "zipf_bits_audit",
    "hapax_rate_by_source", "source_tv_distance", "token_burstiness",
    "graph_reciprocity", "compaction_bins", "bigram_surprisal_by_source",
    "doclen_deciles_by_source", "completeness_audit",
    "doc_bigram_surprisal_topk", "span_corruption_plan", "two_hop_reach",
    "bpe_merge_candidates", "dp_geometric_counts", "padding_waste_by_bucket",
    "vocab_pruning_plan", "max_coverage_select", "blocklist_screen",
    "code_switch_rate_by_source", "token_budget_waterfill", "random_walks",
    "kwic_snippets", "matryoshka_recall_audit", "mmr_diverse_topk",
    "centroid_separation_audit", "readability_by_lang",
    "nearest_centroid_confusion", "doc_completeness_by_lang",
    "span_profile_by_kind", "retry_plan", "kcenter_coreset",
    "pca_top_component", "rendezvous_routing_balance",
    "dsir_importance_weights", "lpa_communities", "degree_assortativity",
    "bitext_mining_topk", "hits_scores", "langid_kappa", "kcore_nodes",
    "encoding_advisor", "local_clustering_topk", "lpa_modularity", "ppr_top",
    "nb_source_classifier", "ccnet_bucket_counts", "binary_hamming_topk",
    "mor_delete_counts", "filter_impact_audit", "texttiling_boundaries",
    "anf_effective_diameter", "bm25_prf_topk", "wap_publish_counts",
    "cluster_balanced_sample", "ams_f2_audit", "unigram_power_sample_plan",
    "chao1_vocab_estimate", "real_pdf_roundtrip", "corpus_datacard",
    "gopher_quality_flags", "mattr_by_lang", "real_png_roundtrip",
    "ivf_indexed_topk", "media_dedup_groups", "sq8_recall_audit",
    "dangling_ref_audit", "orphan_media_audit",
]


def _sweep_chunk_inproc(names: list[str]) -> dict[str, float]:
    """Time the given queries in THIS process (child-side of run_sweep).

    Best-of-N per query (default 2): single cold runs on this
    cache-reclaiming VM carry +-20-30% noise -- the r01->r02 sweep flagged
    phantom regressions on UNCHANGED code (exact_dedup_groups 1.7->3.6 s).
    min over N runs is the same steady-state estimator the headline's
    untimed warm pass implements."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_auto_log_stats = False

    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    query_runs = int(os.environ.get("GRAFT_QUERY_RUNS", "2"))
    times: dict[str, float] = {}
    for name in names:
        def _run(n=name):
            res = qs[n](SF_DIR)
            if hasattr(res, "to_pandas"):
                res.to_pandas()

        times[name] = min(_timed(_run) for _ in range(query_runs))
    return times


def run_sweep() -> dict[str, float]:
    """Run SWEEP_QUERIES in CHUNKED SUBPROCESSES, each a fresh Ray cluster.

    One long session executing 146 queries x best-of-2 creates thousands of
    datasets and hundreds of actor-pool spin-ups; that regime was observed
    (2026-08-19, pytest session) to wedge Ray's actor scheduling outright --
    a stage's first task hung 30 minutes on an idle box. Chunking bounds the
    per-session churn, converts any recurrence into a LOUD per-chunk timeout
    (with one retry), and costs ~8 s of Ray startup per chunk -- noise
    against the sweep's minutes. Set GRAFT_SWEEP_INPROC=1 to force the old
    single-session path (used by the chunks themselves)."""
    import subprocess

    if os.environ.get("GRAFT_SWEEP_INPROC"):
        return _sweep_chunk_inproc(SWEEP_QUERIES)

    chunk_size = int(os.environ.get("GRAFT_SWEEP_CHUNK", "24"))
    timeout_s = int(os.environ.get("GRAFT_SWEEP_TIMEOUT", "1800"))
    times: dict[str, float] = {}
    for lo in range(0, len(SWEEP_QUERIES), chunk_size):
        names = SWEEP_QUERIES[lo:lo + chunk_size]
        env = dict(os.environ, GRAFT_SWEEP_NAMES=",".join(names))

        def one_chunk():
            return subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--sweep-chunk"],
                env=env, capture_output=True, text=True, timeout=timeout_s,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )

        try:
            r = one_chunk()
        except subprocess.TimeoutExpired:
            r = None
        if r is None or r.returncode != 0:
            tail = "" if r is None else (r.stdout[-2000:] + r.stderr[-2000:])
            print(f"sweep chunk {names[0]}.. retrying ({tail[-300:]!r})",
                  file=sys.stderr)
            try:
                r = one_chunk()
            except subprocess.TimeoutExpired:
                r = None
        if r is None or r.returncode != 0:
            print(f"sweep chunk {names[0]}.. FAILED twice; skipping its "
                  f"{len(names)} queries", file=sys.stderr)
            continue
        times.update(json.loads(r.stdout.strip().splitlines()[-1]))
    return times


def run_scaling() -> dict:
    import subprocess

    n_lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    n_hi = int(os.environ.get("GRAFT_SCALE_HI", str(n_lo * 4)))
    # the scaling corpus is 4x the plain-bench corpus: per-doc compute must
    # dominate the fixed per-execution costs (worker start-up,
    # driver dispatch) for the N-vs-4N ratio to reflect the compute's
    # scaling rather than the constants' -- at 100 TB per-node work dwarfs
    # spin-up by construction; the bigger corpus models that regime (the
    # round-2 media-decode memo cut per-doc cost ~30%, which at 2x left the
    # 16-cpu run at ~16 s where the ~2 s constants depressed the ratio)
    scale_rep = os.environ.get("GRAFT_SCALE_REPLICATE", str(REPLICATE * 4))

    def one(ncpu: int) -> dict:
        env = dict(
            os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_HEADLINE_ONLY="1",
            RAY_GRAFT_REPLICATE=scale_rep,
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    runs: dict[int, dict] = {}
    for ncpu in (n_hi, n_lo, n_hi, n_lo):  # alternate; best of 2 per level
        os.system("sync")
        time.sleep(3)
        r = one(ncpu)
        if ncpu not in runs or r["value"] < runs[ncpu]["value"]:
            runs[ncpu] = r
    lo, hi = runs[n_lo], runs[n_hi]
    eff = (lo["value"] / hi["value"]) / (n_hi / n_lo)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "num_cpus_lo": n_lo,
        "num_cpus_hi": n_hi,
        f"sec_{n_lo}": lo["value"],
        f"sec_{n_hi}": hi["value"],
        f"docs_per_sec_{n_lo}": lo["docs_per_sec"],
        f"docs_per_sec_{n_hi}": hi["docs_per_sec"],
        "docs": lo["docs"],
        "sf": SF_DIR,
    }


if __name__ == "__main__":
    if "--sweep-chunk" in sys.argv:
        result = _sweep_chunk_inproc(os.environ["GRAFT_SWEEP_NAMES"].split(","))
        import ray

        ray.shutdown()
        print(json.dumps(result))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        result = run_bench()
        import ray

        ray.shutdown()
        print(json.dumps(result))
