"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship interleaved extraction pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline
(SURVEY.md #2 + the training-data extras); ``oracle_sql()`` provides DuckDB
oracles for every SQL-expressible one (extraction itself is checked by the
pytest oracle in tests/, and the SQL-expressible shadow of it --
``extract_flat_identity`` / ``span_kind_counts`` -- is checked here).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa


def _flagship(sf_dir: str):
    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.sources import wrap

    ds, store = wrap.interleaved_from_documents(sf_dir)
    return pipeline.extract_dataset(ds, store)


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 -> (doc_id, spans) Dataset."""
    return _flagship("/root/testdata/sf0.001")


# --------------------------------------------------------------------------
# queries: each callable takes sf_dir and returns Dataset / DataFrame / Table
# --------------------------------------------------------------------------


def _docs(sf_dir: str, columns):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _encode_spans_column(doc_ids, spans_rows):
    """Canonical per-doc span serialization: ``order US kind US media_ref US
    text`` joined by RS (0x1e). The nested ``list<struct>`` flagship output
    hash-compares as ONE deterministic string per document -- covering span
    order, kinds, refs and extracted text byte-for-byte -- without relying
    on how the driver's compare stringifies nested Arrow values."""
    enc = [
        "\x1e".join(
            f"{s['order']}\x1f{s['kind']}\x1f{s['media_ref']}\x1f{s['text']}" for s in row
        )
        for row in spans_rows
    ]
    return pa.table({"doc_id": pa.array(list(doc_ids), pa.string()),
                     "spans_enc": pa.array(enc, pa.string())})


def _q_extract_interleaved(sf_dir: str):
    """Flagship interleaved extraction, serialized per-doc for the exact
    DuckDB oracle (_interleaved_sql): the wrap and media store are md5
    arithmetic on doc_id/ref-index (sources/wrap.py, corpus.py), so the SQL
    recomputes boilerplate stripping, glyph-OCR truths, pdf reading order
    and the error sentinels independently from documents.parquet alone.
    entry() still returns the raw nested (doc_id, spans) Dataset."""
    out = _flagship(sf_dir)

    def encode(batch: pa.Table) -> pa.Table:
        return _encode_spans_column(
            batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
        )

    return out.map_batches(encode, batch_format="pyarrow")


def _q_extract_flat_identity(sf_dir: str):
    """Full explode->extract->reassemble over flat-wrapped docs; on plain text
    extraction is the identity, so DuckDB can check the whole round trip."""
    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.sources import wrap

    out = pipeline.extract_dataset(wrap.flat_as_spans(sf_dir), {})

    def flatten(batch: pa.Table) -> pa.Table:
        ids = [int(d.split("-")[1]) for d in batch.column("doc_id").to_pylist()]
        texts = [s[0]["text"] for s in batch.column("spans").to_pylist()]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "extracted_text": pa.array(texts, pa.string())}
        )

    return out.map_batches(flatten, batch_format="pyarrow")


def _q_span_kind_counts(sf_dir: str):
    """Exploded span cardinality per kind over the interleaved corpus; the
    wrap is deterministic arithmetic on doc_id, so DuckDB can predict it."""
    from ray.data.aggregate import Count

    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.sources import wrap

    ds, _ = wrap.interleaved_from_documents(sf_dir)
    exploded = pipeline.exploded_dataset(ds)
    out = exploded.groupby("kind").aggregate(Count(alias_name="n_spans"))
    return out.select_columns(["kind", "n_spans"])


def _q_extract_status_counts(sf_dir: str):
    """Flagship extraction per-status span counts (ok / download-error / decode-error sentinels)."""
    from ray.data.aggregate import Count

    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.sources import wrap

    ds, store = wrap.interleaved_from_documents(sf_dir)
    extracted = pipeline.extracted_dataset(ds, store)
    return extracted.groupby("status").aggregate(Count(alias_name="n_spans"))


def _q_retry_plan(sf_dir: str):
    """Failed-span retry work-list (compose.retry_plan): every not-ok
    (status, media_ref) with its span count; the oracle independently
    recomputes the failure set from doc_id + md5 arithmetic (broken-ref
    sentinels and corruption rolls), so the redelivery surface is
    end-to-end checked."""
    from distributed_system___ocr_ray.pipelines import compose

    return compose.retry_plan(sf_dir)


def _q_span_profile_by_kind(sf_dir: str):
    """Extracted-output length profile per span kind over the REAL flagship
    pipeline (compose.span_profile_by_kind); the oracle aggregates the same
    closed-form allspans table as extract_interleaved, so routing AND
    output text lengths are end-to-end checked."""
    from distributed_system___ocr_ray.pipelines import compose

    return compose.span_profile_by_kind(sf_dir)


def _q_doc_completeness_by_lang(sf_dir: str):
    """Per-language fully-extracted-document share over the REAL flagship
    pipeline (compose.doc_completeness_by_lang); the oracle independently
    recomputes every span's status from doc_id + md5 arithmetic, so this
    end-to-end checks the engine's error routing per corpus slice."""
    from distributed_system___ocr_ray.pipelines import compose

    return compose.doc_completeness_by_lang(sf_dir)


def _q_media_ref_counts(sf_dir: str):
    """Per-media_ref multiplicity over the exploded interleaved corpus -- the
    engine analogue of the reference's urlCounters (Manager.java:50,216);
    SQL-checkable because the wrap's ref assignment is doc_id arithmetic."""
    from ray.data.aggregate import Count

    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.sources import wrap

    ds, _ = wrap.interleaved_from_documents(sf_dir)
    exploded = pipeline.exploded_dataset(ds)

    def image_refs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pa.compute.and_(
            pc.equal(batch.column("kind"), "image"),
            pc.invert(pc.match_substring(batch.column("media_ref"), "missing")),
        )
        return pa.table({"media_ref": batch.column("media_ref").filter(mask)})

    return (
        exploded.map_batches(image_refs, batch_format="pyarrow")
        .groupby("media_ref")
        .aggregate(Count(alias_name="n_refs"))
    )


def _q_render_html(sf_dir: str):
    """Reference-style HTML render sink (S7) over the FLAT-wrapped corpus:
    extraction is the identity on tag-free text, so the rendered page is a
    deterministic string assembly DuckDB reproduces exactly (escape ->
    newline-to-<br/> -> block wrap, LocalApplication.java:180-207). The
    interleaved render stays exercised by tests/test_render_html.py."""
    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.sources import wrap
    from distributed_system___ocr_ray.stages.render_html import render_html

    out = pipeline.extract_dataset(wrap.flat_as_spans(sf_dir), {})
    return render_html(out)


def _q_extract_sharded(sf_dir: str):
    """The checkpointed shard-local run over a written fragment table;
    returns the committed output (cross-checked vs extract_dataset in
    tests)."""
    import shutil
    import tempfile

    from distributed_system___ocr_ray.pipelines.extract import load_output
    from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded
    from distributed_system___ocr_ray.sources import lance_like, wrap

    work = tempfile.mkdtemp(prefix="graft_sharded_q_")
    try:
        ds, store = wrap.interleaved_from_documents(sf_dir)
        docs_dir = f"{work}/docs"
        # streaming fragment writer: no driver-side corpus materialization
        lance_like.write_dataset(ds, docs_dir, rows_per_fragment=500)
        run_extraction_sharded(docs_dir, store, f"{work}/out")
        out = load_output(f"{work}/out").to_pandas()
        # same canonical serialization as extract_interleaved: the
        # checkpointed run must reproduce the same closed-form span table
        # (_interleaved_sql)
        return _encode_spans_column(out["doc_id"], out["spans"]).to_pandas()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _q_docs_by_lang(sf_dir: str):
    """Grouped document count per language (partial-aggregate then tiny final groupby)."""
    from distributed_system___ocr_ray.pipelines import relational

    return relational.docs_by_lang(sf_dir)


def _q_doc_stats_by_source(sf_dir: str):
    """Per-source document count and length moments."""
    from distributed_system___ocr_ray.pipelines import relational

    return relational.doc_stats_by_source(sf_dir)


def _q_filter_project(sf_dir: str):
    """Predicate filter + column projection over documents (read-pruned)."""
    from distributed_system___ocr_ray.pipelines import relational

    return relational.filter_project_documents(sf_dir)


def _q_token_count_by_lang(sf_dir: str):
    """Whitespace/regex token counts aggregated per language."""
    from distributed_system___ocr_ray.pipelines import analytics

    ds = _docs(sf_dir, ["lang", "text"])
    return analytics.token_count_by_key(ds, key="lang").select_columns(["lang", "n_ws_tokens"])


def _novelty_split(sf_dir: str):
    """(new_ds, corpus_ds) for ``bloom_fp_audit``: 'new batch' = every 5th
    doc, 'committed corpus' = the rest. Its oracle SQL assumes this exact
    split rule (``doc_id % 5 = 0``)."""

    def mod5(want_zero: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            mask = (ids % 5 == 0) if want_zero else (ids % 5 != 0)
            return batch.filter(pa.array(mask))

        return fn

    new_ds = _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        mod5(True), batch_format="pyarrow"
    )
    corpus_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        mod5(False), batch_format="pyarrow"
    )
    return new_ds, corpus_ds


def _pairs_df(ds, columns: dict[str, str]):
    """Small pair results -> pandas with a guaranteed schema (an all-empty
    map_groups output otherwise loses its column names)."""
    import pandas as pd

    df = ds.to_pandas()
    if len(df.columns) == 0:
        df = pd.DataFrame({c: pd.Series(dtype=t) for c, t in columns.items()})
    return df[list(columns)]


def _q_embedding_neardup(sf_dir: str):
    """Embedding cosine near-duplicate pairs above threshold (bucketed block matmul)."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = analytics.embedding_neardup_pairs(ds, threshold=0.95)
    # pair identities only: cosine floats stay out of the hash compare. The
    # oracle is the exact >=0.95 pair set; LSH recall on it is probabilistic
    # by design (~0.999 at this threshold), so the compare is honest but can
    # in principle flag a recall miss -- planted-dup recall is pytest-held.
    return _pairs_df(out, {"vec_a": "int64", "vec_b": "int64"})


def _q_extract_embed_neardup(sf_dir: str):
    """Composed flow: extraction -> hash-embedding -> cosine near-dup, one
    streaming plan over the interleaved corpus. Pair ids only (floats stay
    out of the hash compare); the oracle replays extraction + the md5
    feature-hash embedding + the exact >= threshold cosine pair set in SQL
    (_extract_embed_neardup_sql). replicate=2 stamps an exact twin of every
    doc so the pair set is NON-EMPTY and deterministic: identical vectors
    hash to identical LSH buckets in every table (recall exactly 1), while
    the closest non-twin pair sits at cosine ~0.97 -- far from the 0.999
    threshold, so no float-margin pair can flip the compare."""
    from distributed_system___ocr_ray.pipelines.compose import extract_embed_neardup
    from distributed_system___ocr_ray.sources import wrap

    ds, store = wrap.interleaved_from_documents(sf_dir, replicate=2)
    out = extract_embed_neardup(ds, store, threshold=0.999)
    return _pairs_df(out, {"vec_a": "object", "vec_b": "object"})


def _q_sample_docs(sf_dir: str):
    """Deterministic md5-threshold sampling (reproducible across cluster
    sizes; DuckDB md5 matches byte-for-byte)."""
    from distributed_system___ocr_ray.pipelines import analytics

    ds = _docs(sf_dir, ["doc_id", "lang"])
    return analytics.deterministic_sample(ds, rate=0.25)


def _q_dataset_split_counts(sf_dir: str):
    """Deterministic md5 train/val/test split assignment with per-split counts."""
    from ray.data.aggregate import Count

    from distributed_system___ocr_ray.pipelines import analytics

    ds = _docs(sf_dir, ["doc_id"])
    return (
        analytics.train_val_test_split(ds)
        .groupby("split")
        .aggregate(Count(alias_name="n_docs"))
    )


def _q_stratified_sample(sf_dir: str):
    """Per-stratum deterministic sampling: 50% of 'en', 25% of 'de', 10%
    elsewhere -- entirely map-side (per-key md5 thresholds), no shuffle."""
    from distributed_system___ocr_ray.pipelines import analytics

    ds = _docs(sf_dir, ["doc_id", "lang"])
    return analytics.stratified_sample(ds, key="lang", fractions={"en": 0.5, "de": 0.25}, default=0.1)


def _q_redact_pii(sf_dir: str):
    """PII scrub over a corpus with deterministically PLANTED pii (the
    synthetic documents carry none): each doc gets a URL, an email and a
    phone derived from its doc_id via string arithmetic the SQL oracle
    reproduces, then functions.scrub.redact_pii replaces them with
    placeholder tokens. Pattern strings and replace order are shared
    verbatim with the oracle's nested regexp_replace chain."""
    import pandas as pd

    from distributed_system___ocr_ray.pipelines import analytics

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["text"] = (
            b["text"]
            + " visit https://ex.org/p" + b["doc_id"].astype(str)
            + " mail user" + b["doc_id"].astype(str) + "@mail.example.com call +1-555-"
            + (b["doc_id"] % 10000).map(lambda d: f"{d:04d}")
        )
        return b

    planted = _docs(sf_dir, ["doc_id", "text"]).map_batches(plant, batch_format="pandas")
    return analytics.redact_pii_docs(planted)


# eval set for the decontamination query: a 4% md5-threshold sample of the
# corpus itself (self-contained; a real pipeline would pass the benchmark
# dataset). Shared between the engine query and the SQL oracle.
_CONTAM_EVAL_RATE = 0.04
_CONTAM_K = 8


def _q_contamination_flags(sf_dir: str):
    """Benchmark decontamination: n_hits = how many distinct eval-set
    first-8-token probes each doc contains (GPT-3-style n-gram overlap).
    Eval probes are collected once (bounded) and broadcast; the corpus pass
    is map-side substring scans, zero shuffle."""
    from distributed_system___ocr_ray.pipelines import analytics

    docs = _docs(sf_dir, ["doc_id", "text"])
    eval_ds = analytics.deterministic_sample(
        _docs(sf_dir, ["doc_id", "text"]), rate=_CONTAM_EVAL_RATE
    )
    return analytics.contamination_flags(docs, eval_ds, k=_CONTAM_K)


_BUDGET_TOKENS = 10_000
_MIX_SHARES = {"src0": 500_000, "src1": 300_000, "src2": 200_000}
_MIX_TARGET = 40


def _q_sample_by_quality(sf_dir: str):
    """Importance sampling proportional to the quality score: each doc
    keeps with probability quality_ppm/1e6 via a deterministic md5 roll —
    soft curation instead of a hard threshold. Map-side only; the oracle
    recomputes the quality expression and the same roll."""
    import pandas as pd

    from distributed_system___ocr_ray.functions import textstats as ts
    from distributed_system___ocr_ray.pipelines import analytics

    def wq(batch: pd.DataFrame) -> pd.DataFrame:
        f = ts.quality_features(batch["text"])
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].values, "quality_ppm": f["quality_ppm"].values}
        )

    slim = _docs(sf_dir, ["doc_id", "text"]).map_batches(wq, batch_format="pandas")
    return analytics.sample_by_weight(slim, "quality_ppm")


def _q_robust_outliers(sf_dir: str):
    """Per-lang median/MAD outlier flags on n_chars (dev > 2 * MAD), both
    medians exact via histogram bisection — no global sort. All-integer
    compare; the oracle replays the ceil-rank median convention with
    row_number windows. k_mad=2 (not the textbook 3) because the synthetic
    n_chars distribution is tight enough that 3*MAD flags nothing at the
    driver's sf0.01 — an empty result would gate nothing."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.robust_outliers(
        lambda: _docs(sf_dir, ["doc_id", "lang", "n_chars"]), k_mad=2
    )


def _q_collocations(sf_dir: str):
    """Top-50 bigram collocations by integer-exact PMI ordering
    (floor(1e6 * n_xy * N / (n_x * n_y)), min_count 5). One shuffle for
    unigram+bigram+total counts; HUGEINT division in the oracle."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.collocations(_docs(sf_dir, ["text"]), k=50, min_count=5)


_POSTINGS_TERMS = ["batch", "data", "stream"]


def _q_postings_lookup(sf_dir: str):
    """Inverted-index build + zone-map-pruned term lookup end-to-end:
    documents -> distinct (term, doc_id) postings -> sort by term (the one
    all-to-all, the index's build cost) -> Lance-style commit -> per-term
    manifest-only fragment pruning -> exact IN filter -> per-term doc
    counts. require_pruning=True makes the green row certify the string
    zone maps actually skipped fragments."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from distributed_system___ocr_ray.pipelines import index as idx

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    tdir = tempfile.mkdtemp(prefix="graft_postings_") + "/postings"
    try:
        idx.build_postings(
            _docs(sf_dir, ["doc_id", "text"]), tdir,
            rows_per_fragment=max(2000, n_docs * 10),
        )
        out = idx.lookup_terms(tdir, _POSTINGS_TERMS, require_pruning=True)
        return out.to_pandas()
    finally:
        import os

        shutil.rmtree(os.path.dirname(tdir), ignore_errors=True)


def _q_percent_rank_by_lang(sf_dir: str):
    """Per-lang percentile rank of n_chars in integer ppm (RANK tie-min,
    (rank-1)*1e6 // (n-1), single-row groups 0); hash-bucketed one-pass
    vectorized ranking. Oracle: the same integer window arithmetic."""
    from distributed_system___ocr_ray.pipelines import relational

    return relational.percent_rank_by_group(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
    )


def _q_zipf_bits_audit(sf_dir: str):
    """Zipf rank-frequency shape audit (analytics.zipf_bits_audit): token
    frequency and its floor(log2) bit-length at power-of-two ranks over
    the shared '[a-z0-9]+' lowered tokenization; drop_bits per octave is
    the local Zipf slope, float-log-free on both sides. Oracle replays
    via row_number() (n DESC, tk ASC) + length(bin(n))-1."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return analytics.zipf_bits_audit(ds, max_rank=4096)


def _q_hapax_rate_by_source(sf_dir: str):
    """Per-source hapax-legomena rate (analytics.hapax_rate_by_source):
    ppm of each source's vocabulary occurring exactly once within the
    source -- OCR-noise / template-corpus health audit. Oracle replays
    the (source, token) count table and the floor-div ppm."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    return analytics.hapax_rate_by_source(ds)


def _q_source_tv_distance(sf_dir: str):
    """Pairwise total-variation distance between per-source unigram
    distributions in integer ppm (analytics.source_tv_distance) -- the
    shared-generator provenance audit. Oracle replays the floor-div ppm
    table and the pair grid with two LEFT JOINs + //2."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    return analytics.source_tv_distance(ds)


def _q_token_burstiness(sf_dir: str):
    """Church-Gale burstiness profile of the top-20 tokens
    (analytics.token_burstiness): corpus frequency, document frequency,
    and mean occurrences per containing doc (milli floor-div). Oracle
    replays cf/df via COUNT(*) / COUNT(DISTINCT doc_id) per token."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return analytics.token_burstiness(ds, k=20)


def _q_graph_reciprocity(sf_dir: str):
    """Edge reciprocity ppm of the md5-derived citation graph
    (analytics.graph_reciprocity): distinct directed edges whose reverse
    is also present. Oracle replays the shared edge CTEs + a self-join
    EXISTS over the DISTINCT edge set."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return analytics.graph_reciprocity(ds)


def _q_docs_rollup(sf_dir: str):
    """OLAP ROLLUP counts over (lang, source) in one shuffle: coarser
    levels fold from the finest inside the single final block; rolled
    columns carry 'ALL'. Oracle: GROUP BY ROLLUP + COALESCE."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.rollup_counts(
        _docs(sf_dir, ["lang", "source"]), ["lang", "source"]
    )


def _q_docs_cube(sf_dir: str):
    """OLAP CUBE counts over (lang, source): all four grouping sets fold
    from the finest level inside the single final block — one shuffle,
    not 2^k scans. Oracle: GROUP BY CUBE + COALESCE."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.cube_counts(
        _docs(sf_dir, ["lang", "source"]), ["lang", "source"]
    )


def _range_bounds(sf_dir: str) -> tuple[int, int]:
    """[3N/10, 11N/20) — the ONE definition of the doc_id range the two
    storage-layer range queries and their oracle SQL share (the _RANGE_CTE
    twin; a drift between copies would silently break the
    shares-the-oracle-verbatim contract — review finding, round 3)."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return 3 * n // 10, 11 * n // 20


# SQL twin of _range_bounds: same integer arithmetic, computed by DuckDB
_RANGE_CTE = (
    "b AS (SELECT 3 * COUNT(*) // 10 AS lo, 11 * COUNT(*) // 20 AS hi "
    "FROM documents)"
)


def _lang_agg(ds):
    """(lang, n_docs, sum_chars) over a (doc_id, lang, n_chars) Dataset —
    the shared aggregation tail of the two range queries."""
    from distributed_system___ocr_ray.pipelines.relational import tiny_final_groupby

    def agg(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_chars": batch.column("n_chars").cast(pa.int64()),
            }
        )

    return tiny_final_groupby(
        ds.map_batches(agg, batch_format="pyarrow"),
        ["lang"],
        [("n_docs", "sum"), ("sum_chars", "sum")],
        ["lang", "n_docs", "sum_chars"],
    )


def _q_cow_delete_counts(sf_dir: str):
    """Copy-on-write delete end-to-end: stream documents into a Lance-style
    table (contiguous fragments + zone maps), DELETE the shared doc_id
    range — write amplification bounded by the zone maps (untouched
    fragments carry over by reference; the guard raises unless some
    fragments were carried AND some rows were deleted) — then aggregate
    the surviving rows per lang. The oracle is the complement WHERE clause
    over the source table."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from distributed_system___ocr_ray.sources import lance_like

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    lo, hi = _range_bounds(sf_dir)
    tdir = tempfile.mkdtemp(prefix="graft_cow_") + "/docs"
    try:
        lance_like.write_dataset(
            _docs(sf_dir, ["doc_id", "lang", "n_chars"]),
            tdir,
            rows_per_fragment=max(50, n // 10),
        )
        man = lance_like.delete_where(
            tdir, [("doc_id", ">=", lo), ("doc_id", "<", hi)]
        )
        if not (man["rows_deleted"] > 0 and man["fragments_carried"] > 0):
            raise AssertionError(
                f"copy-on-write delete shape wrong: {man['rows_deleted']} rows, "
                f"{man['fragments_carried']} carried"
            )
        return _lang_agg(lance_like.read_dataset(tdir)).to_pandas()
    finally:
        shutil.rmtree(os.path.dirname(tdir), ignore_errors=True)


def _merge_updates(sf_dir: str) -> "pa.Table":
    """The deterministic MERGE updates batch the two lakehouse-mutation
    queries share: every 5th doc_id inside the shared range becomes
    lang='xx' with n_chars+1000 (UPDATE); every 97th doc_id re-keyed past
    the table's max id arrives as lang='new' (INSERT). The updates batch
    is the SMALL side of a MERGE by construction -- building it
    driver-side is the operator's contract, not a scale compromise."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    lo, hi = _range_bounds(sf_dir)
    src = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    ids = src.column("doc_id").to_numpy()
    upd = src.filter(pa.array((ids >= lo) & (ids < hi) & (ids % 5 == 0)))
    upd = pa.table(
        {
            "doc_id": upd.column("doc_id"),
            "lang": pa.array(["xx"] * upd.num_rows, pa.string()),
            "n_chars": pc.add(upd.column("n_chars"), 1000),
        }
    )
    ins = src.filter(pa.array(ids % 97 == 0))
    ins = pa.table(
        {
            "doc_id": pc.add(ins.column("doc_id"), n),
            "lang": pa.array(["new"] * ins.num_rows, pa.string()),
            "n_chars": ins.column("n_chars"),
        }
    )
    return pa.concat_tables([upd, ins])


def _q_merge_upsert_counts(sf_dir: str):
    """Keyed MERGE (upsert) end-to-end: stream documents into a Lance-style
    table (contiguous fragments + zone maps), MERGE a deterministic updates
    batch — every 5th doc_id inside the shared range becomes lang='xx' with
    n_chars+1000 (UPDATE), every 97th doc_id re-keyed past the table's max
    id arrives as lang='new' (INSERT) — then aggregate the merged table per
    lang. Write amplification is zone-map-bounded (the guard raises unless
    fragments were carried untouched AND both update and insert rows
    landed). The oracle replays the merge as target-minus-matched UNION ALL
    updates in SQL. Delta/Iceberg MERGE INTO semantics
    (sources/lance_like.merge_upsert)."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from distributed_system___ocr_ray.sources import lance_like

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    tdir = tempfile.mkdtemp(prefix="graft_merge_") + "/docs"
    try:
        lance_like.write_dataset(
            _docs(sf_dir, ["doc_id", "lang", "n_chars"]),
            tdir,
            rows_per_fragment=max(50, n // 10),
        )
        man = lance_like.merge_upsert(tdir, _merge_updates(sf_dir), "doc_id")
        if not (
            man["rows_updated"] > 0
            and man["rows_inserted"] > 0
            and man["fragments_carried"] > 0
        ):
            raise AssertionError(
                f"merge shape wrong: {man['rows_updated']} updated, "
                f"{man['rows_inserted']} inserted, "
                f"{man['fragments_carried']} carried"
            )
        return _lang_agg(lance_like.read_dataset(tdir)).to_pandas()
    finally:
        shutil.rmtree(os.path.dirname(tdir), ignore_errors=True)


def _q_change_feed_counts(sf_dir: str):
    """Row-level change data feed (Delta CDF / Iceberg changelog): build a
    Lance-style docs table (v1), MERGE the shared deterministic updates
    batch (v2), COW-DELETE the half-range just above the merge window
    (v3), then COMPACT (v4). ``changed_rows(v3, v4)`` must be EMPTY
    (compaction carries every row -- asserted), and the returned
    per-change key counts of ``changed_rows(v1, v3)`` must equal the three
    mutation rules replayed in SQL. Only rewritten fragments are ever
    read; carried rows (the untouched neighbors inside rewritten
    fragments) cancel by content hash (pipelines/compose.changed_rows)."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from distributed_system___ocr_ray.pipelines import compose
    from distributed_system___ocr_ray.pipelines.relational import tiny_final_groupby
    from distributed_system___ocr_ray.sources import lance_like

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    lo, hi = _range_bounds(sf_dir)
    tdir = tempfile.mkdtemp(prefix="graft_cdf_") + "/docs"
    try:
        lance_like.write_dataset(
            _docs(sf_dir, ["doc_id", "lang", "n_chars"]),
            tdir,
            rows_per_fragment=max(50, n // 10),
        )
        v1 = lance_like.latest_version(tdir)
        lance_like.merge_upsert(tdir, _merge_updates(sf_dir), "doc_id")
        man3 = lance_like.delete_where(
            tdir, [("doc_id", ">=", hi), ("doc_id", "<", hi + (hi - lo) // 2)]
        )
        v3 = man3["version"]
        lance_like.compact(tdir, target_rows_per_fragment=n)
        if compose.changed_rows(tdir, v3).count() != 0:
            raise AssertionError("compaction must produce an empty change feed")
        feed = compose.changed_rows(tdir, v1, v3)

        def one(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "change": batch.column("change"),
                    "n_keys": pa.array([1] * batch.num_rows, pa.int64()),
                }
            )

        return tiny_final_groupby(
            feed.map_batches(one, batch_format="pyarrow"),
            ["change"],
            [("n_keys", "sum")],
            ["change", "n_keys"],
        ).to_pandas()
    finally:
        shutil.rmtree(os.path.dirname(tdir), ignore_errors=True)


def _q_pruned_range_read(sf_dir: str):
    """Zone-map pruned range read end-to-end: stream documents into a
    Lance-style table (~10 contiguous fragments, per-fragment min/max
    recorded in the manifest), then answer the shared doc_id range query
    by pruning fragments from the MANIFEST ALONE before the read is
    planned (exact filter pushed down into the surviving fragments'
    read), and aggregating per lang. Raises unless pruning actually
    skipped fragments, so the green CORRECTNESS row certifies both the
    zone maps' correctness (vs the full-scan SQL) and their
    effectiveness. At 100 TB this is the O(matching-fragments) range-scan
    path (Lance/Iceberg zone-map semantics)."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from distributed_system___ocr_ray.sources import lance_like

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    lo, hi = _range_bounds(sf_dir)
    tdir = tempfile.mkdtemp(prefix="graft_prune_") + "/docs"
    try:
        lance_like.write_dataset(
            _docs(sf_dir, ["doc_id", "lang", "n_chars"]),
            tdir,
            rows_per_fragment=max(50, n // 10),
        )
        preds = [("doc_id", ">=", lo), ("doc_id", "<", hi)]
        paths, total = lance_like.pruned_fragment_paths(tdir, preds)
        if not (0 < len(paths) < total):
            raise AssertionError(
                f"zone-map pruning ineffective: {len(paths)}/{total} fragments kept"
            )
        return _lang_agg(lance_like.read_dataset(tdir, predicates=preds)).to_pandas()
    finally:
        shutil.rmtree(os.path.dirname(tdir), ignore_errors=True)


def _q_domain_counts(sf_dir: str):
    """Per-domain URL counts over a deterministically URL-planted corpus
    (every doc links d{doc_id%7}.example.org; doc_id%3==0 docs add a
    second link on d0) — the crawl-curation domain ranking. Unbounded-key
    partial counts + distributed sum + partial top-k merge; the oracle
    replays planting, extraction, hostname reduction and ranking."""
    import pandas as pd

    from distributed_system___ocr_ray.pipelines import analytics

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        extra = (" see https://d0.example.org/x" + b["doc_id"].astype(str)).where(
            b["doc_id"] % 3 == 0, ""
        )
        b["text"] = (
            b["text"]
            + " via https://d" + (b["doc_id"] % 7).astype(str)
            + ".example.org:8080/page" + b["doc_id"].astype(str)
            + extra
        )
        return b

    planted = _docs(sf_dir, ["doc_id", "text"]).map_batches(plant, batch_format="pandas")
    return analytics.domain_counts(planted, k=10)


def _q_zscore_by_lang(sf_dir: str):
    """Per-language z-scored quality (integer ppm): exact int sums ->
    float64 mean/std -> the same IEEE floor both sides — the feature
    normalization before cross-language thresholding."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.zscore_by_group(_docs(sf_dir, ["doc_id", "lang", "text"]))


def _q_sample_n_per_group(sf_dir: str):
    """Balanced eval subset: the 15 smallest-md5-key docs per language —
    exact per-group sizes, deterministic, append-stable. Oracle: QUALIFY
    ROW_NUMBER over PARTITION BY lang in the same md5 order."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.sample_n_per_group(_docs(sf_dir, ["doc_id", "lang"]), 15)


def _q_chunk_documents(sf_dir: str):
    """Sliding-window chunking (64-token chunks, 16-token overlap) — the
    embedding/RAG indexing fan-out. Pure map-side; the oracle replays
    tokenization, stride windows and the space-join via list_slice."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.chunk_documents(_docs(sf_dir, ["doc_id", "text"]), 64, 16)


def _q_sample_exact_n(sf_dir: str):
    """Exact-size deterministic sample (the 60 docs with the smallest
    md5('samplen:'||doc_id) keys): per-batch partial top-n + one tiny
    merge, stable across runs/cluster sizes/appends. Oracle: QUALIFY
    ROW_NUMBER over the same md5 order."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.sample_n(_docs(sf_dir, ["doc_id", "lang"]), 60)


def _q_epoch_shuffle(sf_dir: str):
    """Deterministic epoch-3 training shuffle: dense positions 0..n-1 in
    md5('epoch3:' || doc_id) order — the same permutation at any cluster
    size / block layout (what random_shuffle cannot guarantee), resumable
    mid-epoch. Engine: uniform-key fixed-width range partition + prefix-sum
    ranks, no global sort barrier. Oracle: one ROW_NUMBER window."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.epoch_shuffle(_docs(sf_dir, ["doc_id"]), epoch=3)


def _q_cms_top_tokens(sf_dir: str):
    """Count-Min-sketch frequency estimates for the exact top-20 tokens:
    the sketch (4x8192 md5-bucketed counters, per-batch partials, tree
    merge) is point-queried at a deterministic candidate set — the exact
    heavy hitters — so the whole query is SQL-replayable counter-for-
    counter. Estimates are >= truth by construction; the oracle recomputes
    every bucket count and min-over-rows estimate independently."""
    from distributed_system___ocr_ray.pipelines import analytics

    cands = analytics.top_tokens(_docs(sf_dir, ["text"]), k=20).to_pandas()["token"].tolist()
    return analytics.cms_token_counts(_docs(sf_dir, ["text"]), candidates=cands, k=20)


def _q_mixture_sample(sf_dir: str):
    """Data mixing to target proportions (50/30/20 across three sources,
    ~40 docs): per-source counts calibrate integer keep-rates, then a pure
    map-side deterministic md5 filter samples — reproducible across runs
    and cluster sizes, rates self-adjusting to observed source sizes. The
    oracle recomputes counts, rates and the md5 roll in SQL."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.mixture_sample(
        _docs(sf_dir, ["doc_id", "source"]), _MIX_SHARES, _MIX_TARGET
    )


def _q_budget_select(sf_dir: str):
    """Token-budget corpus selection: the highest-quality documents whose
    running token sum fits a 10k-token budget — greedy prefix of
    (quality_ppm DESC, doc_id ASC). Engine: two bounded histogram passes
    over the integer ppm domain find the exact quality threshold, the
    above-threshold set is a map-side filter, and the tie group resolves
    via the distributed prefix-sum (no global sort anywhere). The oracle
    replays it with one SQL window function."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.budget_select(_docs(sf_dir, ["doc_id", "text"]), _BUDGET_TOKENS)


def _q_pack_sequences(sf_dir: str):
    """Streaming greedy sequence packing (seq_len=512) in global doc_id
    order via the distributed prefix-sum pattern (range partition ->
    per-range sums -> driver exclusive scan -> per-range ordered cumsum).
    The oracle replays it with one SQL window function."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.pack_sequences(_docs(sf_dir, ["doc_id", "text"]), seq_len=512)


def _q_quantize_embeddings(sf_dir: str):
    """int8 embedding quantization, compared via per-vector integer
    checksums (sum / L1 / max of the quantized values) -- exact compare
    without list-column stringification differences; the list itself is
    pytest-held (dtype, dequantization error bound)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = analytics.quantize_embeddings(ds)

    def checksums(batch: pa.Table) -> pa.Table:
        q = [np.asarray(v, dtype=np.int64) for v in batch.column("q_embedding").to_pylist()]
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "q_sum": pa.array([int(v.sum()) for v in q], pa.int64()),
                "q_l1": pa.array([int(np.abs(v).sum()) for v in q], pa.int64()),
                "q_max": pa.array([int(v.max()) for v in q], pa.int64()),
            }
        )

    return out.map_batches(checksums, batch_format="pyarrow")


def _query_matrix(sf_dir: str, n: int = 3) -> np.ndarray:
    import pyarrow.parquet as pq

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    order = np.argsort(tbl.column("vec_id").to_numpy())[:n]
    return np.stack([tbl.column("embedding")[int(i)].as_py() for i in order]).astype(np.float64)


def _q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k ANN: per-batch numpy matmul against the broadcast query matrix."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = analytics.ann_topk(ds, _query_matrix(sf_dir), k=10)
    return out.select_columns(["query_id", "vec_id"])


def _q_ivf_topk(sf_dir: str):
    """IVF approximate top-k: coarse k-means routing, probe nearest cells only."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    # n_probe == n_centroids: exhaustive probing makes the result exact BY
    # CONSTRUCTION (every centroid list is scanned), so the brute-force SQL
    # oracle (same as ann_topk) is valid at any scale while still driving the
    # complete IVF plan end-to-end: centroid sampling -> CentroidAssign ->
    # probe filter -> per-cluster partial top-k -> merge. Approximate probing
    # (n_probe < n_centroids) is a recall/latency trade-off with no exact
    # oracle -- its recall floor is pytest-held (test_ivf_topk_recall).
    out = analytics.ivf_topk(ds, _query_matrix(sf_dir), k=10, n_centroids=16, n_probe=16)
    # id pairs only (floats stay out of the hash compare)
    return out.select_columns(["query_id", "vec_id"])


def _q_ivf_indexed_topk(sf_dir: str):
    """IVF top-k through a PERSISTED centroid index: build the centroid
    table once (pipelines.index.build_ivf_centroids -- the dense-side
    build-once/lookup-many artifact beside build_postings), then the
    lookup probes it WITHOUT re-clustering. Same exhaustive-probe
    construction as ivf_topk (n_probe == n_centroids), so the brute-force
    SQL oracle stays exact; the persisted centroids are the deterministic
    seeded fit, so indexed and per-call paths are value-identical
    (pytest-held equality in tests/test_ivf_index.py)."""
    import tempfile

    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics
    from distributed_system___ocr_ray.pipelines import index as idx

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    tdir = tempfile.mkdtemp(prefix="graft_ivf_") + "/centroids"
    idx.build_ivf_centroids(ds, tdir, n_centroids=16)
    out = analytics.ivf_topk(ds, _query_matrix(sf_dir), k=10, n_centroids=16,
                             n_probe=16, centroids=tdir)
    return out.select_columns(["query_id", "vec_id"])


def _q_triangle_count(sf_dir: str):
    """Exact triangle count of the derived link graph (wedge-check with two
    bucketed joins); the oracle replays the edge CTEs plus the classic
    three-way self-join."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return analytics.triangle_count(ds)


def _q_in_degree_histogram(sf_dir: str):
    """In-degree distribution of the derived citation graph (0-degree row
    included closed-form); the oracle replays the shared edge CTEs plus a
    LEFT JOIN COALESCE(0) double GROUP BY."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return analytics.in_degree_histogram(ds)


def _q_table_checksum(sf_dir: str):
    """Order-independent uint64 content fingerprint of the documents table
    (anti-entropy verification); oracle replays the chr(31) serialization +
    md5-prefix UBIGINT + HUGEINT wrap-sum mod 2^64."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)
    return analytics.table_checksum(ds, cols)


def _q_phrase_doc_counts(sf_dir: str):
    """Docs per language containing the token bigram 'order fast' (phrase
    search over the shared '[a-z0-9]+' tokenization); oracle replays via
    shifted list_zip equality on regexp_extract_all."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    return analytics.phrase_doc_counts(ds, "order", "fast")


def _q_oov_rate_by_lang(sf_dir: str):
    """Per-language out-of-vocabulary token rate against the corpus top-512
    vocabulary (CCNet-style coverage quality filter); oracle rebuilds the
    identical vocabulary (count DESC, token ASC LIMIT 512) and the integer
    ppm on the shared '[a-z0-9]+' lowered tokenization."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    return analytics.oov_rate_by_lang(ds, vocab_k=512)


def _q_compaction_bins(sf_dir: str):
    """Deterministic cumulative bin-packing of (source, lang) partition
    sizes into capacity-100 compaction bins (table-maintenance plan;
    analytics.compaction_bins); oracle replays the exclusive window
    prefix-sum // capacity."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "lang"])
    return analytics.compaction_bins(ds)


def _q_bigram_surprisal_by_source(sf_dir: str):
    """Char-bigram conditional surprisal per source in integer millibits
    (encoding-health distribution audit; analytics.bigram_surprisal_by_source);
    oracle pairs chars with a lead window over '(?s).' extraction and
    replays the bit_length identity via length(bin(m//n))-1."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    return analytics.bigram_surprisal_by_source(ds)


def _q_doclen_deciles_by_source(sf_dir: str):
    """Per-source document-length deciles with the integer rank convention
    (n-1)*k//10 + 1 (analytics.doclen_deciles_by_source)."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])
    return analytics.doclen_deciles_by_source(ds)


def _q_completeness_audit(sf_dir: str):
    """Per-column null/empty completeness audit over documents
    (analytics.completeness_audit)."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )
    return analytics.completeness_audit(ds)


def _q_doc_bigram_surprisal_topk(sf_dir: str):
    """Token-bigram LM surprisal top-k (rare TRANSITIONS: word salad that
    passes the unigram screen; analytics.doc_bigram_surprisal_topk);
    oracle pairs tokens with a lead window and replays the bit identity."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    return analytics.doc_bigram_surprisal_topk(ds)


def _q_span_corruption_plan(sf_dir: str):
    """T5-style deterministic span-corruption plan over the token stream
    (analytics.span_corruption_plan); md5-arithmetic starts replay in SQL."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return analytics.span_corruption_plan(ds)


def _q_two_hop_reach(sf_dir: str):
    """2-hop in-neighborhood size for the top-20 most-cited nodes of the
    shared md5 citation graph (analytics.two_hop_reach); oracle composes
    the shared edge CTE with a double join + COUNT DISTINCT."""
    from distributed_system___ocr_ray.pipelines import analytics

    docs = _docs(sf_dir, ["doc_id"])
    return analytics.two_hop_reach(docs)


def _q_token_diversity_by_lang(sf_dir: str):
    """Gini-Simpson token diversity per language in exact integer ppm
    (float-free diversity statistic; analytics.token_simpson_by_lang);
    oracle replays the floor-div ppm over HUGEINT sum-of-squares on the
    shared '[a-z0-9]+' lowered tokenization."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    return analytics.token_simpson_by_lang(ds)


def _q_doc_surprisal_topk(sf_dir: str):
    """Top-50 docs by integer-bit unigram surprisal (CCNet-style rarity
    scoring with the corpus as its own LM; analytics.doc_surprisal_topk);
    per-token bits are floor(log2(N/c)) computed exactly as
    bit_length(N//c)-1, which the oracle replays via length(bin(N//c))-1
    -- no float log on either side."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    return analytics.doc_surprisal_topk(ds, k=50)


def _q_sentence_stats_by_lang(sf_dir: str):
    """Gopher-style sentence-shape profile per language (mean words per
    sentence, milli floor-div; analytics.sentence_stats_by_lang); both
    sides count non-overlapping '[.!?]+' runs and '[a-z0-9]+' words."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    return analytics.sentence_stats_by_lang(ds)


def _q_readability_by_lang(sf_dir: str):
    """Flesch-Kincaid grade per language in integer milli
    (analytics.readability_by_lang); both sides count '[.!?]+' sentences,
    '[a-z0-9]+' words and '[aeiouy]+' vowel-group syllables on the lowered
    text, with per-term floor division as the published convention."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    return analytics.readability_by_lang(ds)


def _q_bloom_fp_audit(sf_dir: str):
    """Bloom-prefilter FP audit on the shared novelty split; the oracle
    replays the ENTIRE filter in SQL: md5(sha256-hex) halves,
    Kirsch-Mitzenmacher double hashing (h2 forced odd), k=7 probes,
    m = GREATEST(64, 16 * n_distinct_corpus_keys), all-bits-set test."""
    from distributed_system___ocr_ray.pipelines import analytics

    new_ds, corpus_ds = _novelty_split(sf_dir)
    return analytics.bloom_fp_audit(new_ds, corpus_ds)


def _q_cms_error_audit(sf_dir: str):
    """CMS estimate vs exact count for the exact top-20 tokens, with the
    overestimate in ppm; oracle shares the CMS CTE body counter-for-counter
    and adds the exact column."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.cms_error_audit(_docs(sf_dir, ["text"]), _docs(sf_dir, ["text"]))


def _q_langid_confusion(sf_dir: str):
    """Language-ID confusion matrix (labeled lang vs heuristic prediction);
    oracle wraps the char-for-char language_id replay and joins the label."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.langid_confusion(_docs(sf_dir, ["lang", "text"]))


def _q_k_anonymity(sf_dir: str):
    """k-anonymity risk over the (lang, source) quasi-identifier pair at
    k=10; oracle is the two-level GROUP BY with FILTER counters."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.k_anonymity_audit(_docs(sf_dir, ["lang", "source"]), ["lang", "source"], k=10)


def _q_source_vocab_overlap(sf_dir: str):
    """Exact vocabulary Jaccard between every source pair (shared distinct
    [a-z0-9]+ tokens) -- the lexical-register similarity matrix;
    cooccurrence triu kernel over token md5s + hash-disjoint size fold
    (analytics.source_vocab_overlap)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.source_vocab_overlap(sf_dir)


def _q_lang_source_chi2(sf_dir: str):
    """Exact-integer chi-squared independence audit between lang and
    source -- the stratification check; all cells (empty included) folded
    with Python ints (analytics.categorical_independence_chi2)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.categorical_independence_chi2(sf_dir)


def _q_shuffle_mix_audit(sf_dir: str):
    """Adjacent same-source rate of the engine's epoch_shuffle order vs the
    exact exchangeability expectation -- "is my shuffle actually mixing";
    range-bucketed adjacency with boundary-row duplication, Python-int ppm
    folds (analytics.shuffle_mix_audit)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.shuffle_mix_audit(sf_dir, epoch=0)


def _q_quality_length_corr(sf_dir: str):
    """Per-lang signed r^2 ppm between n_chars and quality_ppm -- the
    "is my quality filter just a length filter" audit; five-sufficient-
    statistics parallel correlation, Python-int final fold
    (analytics.quality_length_corr)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.quality_length_corr(_docs(sf_dir, ["lang", "text"]))


def _q_encoding_audit(sf_dir: str):
    """Per-source encoding hygiene over the planted corpus (U+FFFD /
    control / non-ASCII plants by doc_id arithmetic, redact_pii's
    discipline); patterns shared char-for-char with the RE2 replay
    (analytics.encoding_audit)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.encoding_audit(sf_dir)


def _q_link_prediction_topk(sf_dir: str):
    """Top-20 NON-adjacent pairs of the derived citation graph by
    common-neighbor count (Liben-Nowell/Kleinberg link prediction); wedge
    self-join on the center vertex, packed-pair count exchange, null-test
    anti-join vs the edge set (analytics.common_neighbor_pairs)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.common_neighbor_pairs(_docs(sf_dir, ["doc_id"]), k=20)


def _q_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth: distinct whitespace tokens first seen
    in the first 25/50/75/100% of the corpus by doc_id, with the doc count
    at each checkpoint; ONE token-domain min-exchange serves every
    checkpoint (analytics.vocab_growth)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.vocab_growth(sf_dir)


def _q_split_skew_audit(sf_dir: str):
    """Exact TVD ppm between the train and test splits' n_chars
    distributions (256-wide buckets); oracle replays the md5 split and the
    cross-multiplied HUGEINT fold."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.split_skew_audit(_docs(sf_dir, ["doc_id", "n_chars"]))


def _q_hybrid_topk(sf_dir: str):
    """Dense+sparse hybrid retrieval fused by integer reciprocal-rank
    fusion; the oracle composes the BM25 replay and the brute-force cosine
    ranking as CTEs and applies the identical ``1e6 // (60 + rank)`` sum
    (_hybrid_sql). Only each system's ordering feeds the fused score."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = analytics.hybrid_topk(
        _docs(sf_dir, ["doc_id", "text"]),
        emb,
        _BM25_QUERIES,
        _query_matrix(sf_dir),
        k=10,
    )
    return _pairs_df(out, {"query_id": "int64", "doc_id": "int64", "rrf_score": "int64"})


def _q_pagerank_top(sf_dir: str):
    """Distributed integer PageRank over the md5-derived citation graph;
    the oracle unrolls the identical edge derivation + rank recurrence as
    CTEs (_pagerank_sql). Top-20 by (rank desc, id asc)."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return analytics.pagerank_top(ds, iters=4, damping_pct=85, topn=20)


def _q_ccnet_bucket_counts(sf_dir: str):
    """CCNet head/middle/tail split per language: exact integer mean-
    millibit unigram surprisal per doc, per-lang tertile order-statistic
    thresholds, bucket counts (analytics.ccnet_bucket_counts -- Wenzek
    et al. 2020 with the corpus unigram LM standing in for KenLM);
    oracle replays bits, scores, row_number tertiles and the bucket CASE
    digit-for-digit."""
    from distributed_system___ocr_ray.pipelines import analytics

    ds = _docs(sf_dir, ["doc_id", "lang", "text"])
    return analytics.ccnet_bucket_counts(ds)


def _q_filter_impact_audit(sf_dir: str):
    """Disparate-impact audit of the composed pipeline's quality gate:
    per-lang pass rates at the 400k-ppm threshold, impact ratio vs the
    best-passing lang, four-fifths-rule flag (analytics.
    filter_impact_audit); oracle shares the quality CTEs char-for-char
    and replays the floor-div ratio ladder."""
    from distributed_system___ocr_ray.pipelines import analytics

    ds = _docs(sf_dir, ["lang", "text"])
    return analytics.filter_impact_audit(ds)


def _q_texttiling_boundaries(sf_dir: str):
    """TextTiling topic-shift audit: fixed 20-token blocks, integer
    squared-cosine gap scores in ppm, boundaries below 250k
    (analytics.texttiling_boundaries -- Hearst 1997 integerized, purely
    map-side); oracle replays block ids, token-count dots, norms and
    the floor-div cos^2 with the same no-gap/1e6 degenerate pins."""
    from distributed_system___ocr_ray.pipelines import analytics

    ds = _docs(sf_dir, ["doc_id", "text"])
    return analytics.texttiling_boundaries(ds)


def _q_nb_source_classifier(sf_dir: str):
    """Classifier-based domain filtering stand-in: multinomial Naive
    Bayes over source labels, trained on the md5-split 80% train slice
    and scored on the rest, all in whole bits (bit_length floor-log2
    identity) so the oracle replays train counts, smoothing, priors,
    argmin and tie-breaks digit-for-digit (analytics.nb_source_classifier
    -- the fastText-style quality/domain scorer of CCNet/fineweb
    pipelines, self-contained on the corpus's own labels)."""
    from distributed_system___ocr_ray.pipelines import analytics

    ds = _docs(sf_dir, ["doc_id", "source", "text"])
    return analytics.nb_source_classifier(ds)


def _q_ppr_top(sf_dir: str):
    """Personalized PageRank with the teleport landing on the lang='en'
    slice (analytics.ppr_top -- topic-sensitive authority); oracle is
    the pagerank replay with a per-node CASE teleport, unrolled CTEs."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.ppr_top(sf_dir)


def _q_anf_effective_diameter(sf_dir: str):
    """HyperANF neighbourhood function / effective diameter of the
    citation graph: per-node HLL ball sketches, register-max propagation
    per hop, N(h) and the 90% knee (analytics.anf_effective_diameter --
    Palmer et al. ANF / Boldi et al. HyperANF, the all-pairs-distances-
    in-linear-passes trick); oracle derives the SAME registers from
    first principles (recursive min-hop reachability + grouped HLL with
    the pinned estimator ladder), so the equality proves the
    propagation."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return analytics.anf_effective_diameter(ds)


def _q_bfs_levels(sf_dir: str):
    """Min-hop BFS levels from doc 0 over the md5-derived citation graph
    (analytics.bfs_levels): per round a capped broadcast-frontier map-side
    probe (edges never re-shuffle; falls back to the bucketed join past
    the cap) + one bucketed groupby-MIN fold (idempotent -- no visited-set
    broadcast); the oracle unrolls the identical rounds as CTEs."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return analytics.bfs_levels(ds, source=0, max_rounds=8)


def _bfs_levels_sql(max_rounds: int = 8) -> str:
    """Unrolled-CTE replay of ``analytics.bfs_levels``: the shared edge
    derivation, then per round a frontier join + UNION ALL + MIN fold --
    identical to the engine's groupby-MIN (an exhausted frontier makes
    later rounds no-ops on both sides)."""
    parts = [
        f"WITH {_edges_ctes()}, ",
        "l0 AS (SELECT CAST(0 AS BIGINT) AS node, CAST(0 AS BIGINT) AS level), ",
    ]
    for r in range(max_rounds):
        parts.append(
            f"c{r + 1} AS (SELECT e.dst AS node, CAST({r + 1} AS BIGINT) AS level "
            f"FROM edges e JOIN l{r} f ON f.node = e.src AND f.level = {r}), "
        )
        parts.append(
            f"l{r + 1} AS (SELECT node, MIN(level) AS level FROM "
            f"(SELECT * FROM l{r} UNION ALL SELECT * FROM c{r + 1}) GROUP BY node), "
        )
    body = "".join(parts).rstrip().rstrip(",")
    return f"{body} SELECT node AS doc_id, level FROM l{max_rounds}"


def _q_cluster_balanced_sample(sf_dir: str):
    """Cluster-balanced diversity sample: shared integer Lloyd fit, then
    a deterministic md5-roll quota of 8 from every cluster
    (analytics.cluster_balanced_sample -- coverage-first sampling, the
    opposite lever of density-proportional stratified_sample); oracle =
    the shared assignment CTEs + per-cluster QUALIFY over the same
    md5 roll."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    out = analytics.cluster_balanced_sample(ds)
    return _pairs_df(out, {"cluster_id": "int64", "vec_id": "int64"})


def _q_kmeans_inertia(sf_dir: str):
    """Per-cluster size + exact integer inertia for the shared Lloyd fit
    (analytics.kmeans_inertia); the oracle folds the winning distance from
    the existing assignment CTEs' dF."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return analytics.kmeans_inertia(ds, k=8, iters=3)


def _kmeans_inertia_sql(k: int = 8, iters: int = 3, scale: int = 1000) -> str:
    """Inertia on top of the shared assignment CTEs: the per-vector winning
    (d, cid) row from dF, folded per cluster."""
    return _kmeans_assign_ctes(k=k, iters=iters, scale=scale) + (
        "SELECT cid AS cluster_id, CAST(COUNT(*) AS BIGINT) AS n_vecs, "
        "CAST(SUM(d) AS BIGINT) AS inertia FROM "
        "(SELECT vec_id, cid, d, row_number() OVER (PARTITION BY vec_id "
        "ORDER BY d, cid) AS rn FROM dF) WHERE rn = 1 GROUP BY cid"
    )


def _q_rnn_pairs(sf_dir: str):
    """Reciprocal nearest neighbors: mutual cosine top-5 pairs over the
    embeddings table (analytics.rnn_pairs) -- blocked matmul knn against
    the bounded broadcast, then one pair-domain mutuality exchange."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return analytics.rnn_pairs(ds, k=5)


_RNN_PAIRS_SQL = (
    "WITH knn AS (SELECT a.vec_id AS src, b.vec_id AS nbr "
    "FROM embeddings a CROSS JOIN embeddings b WHERE a.vec_id <> b.vec_id "
    "QUALIFY row_number() OVER (PARTITION BY a.vec_id "
    "ORDER BY list_cosine_similarity(a.embedding, b.embedding) DESC, "
    "b.vec_id) <= 5) "
    "SELECT k1.src AS vec_id_a, k1.nbr AS vec_id_b FROM knn k1 "
    "JOIN knn k2 ON k2.src = k1.nbr AND k2.nbr = k1.src "
    "WHERE k1.src < k1.nbr"
)


def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd k-means (integer arithmetic end-to-end); the oracle
    unrolls the identical quantize -> md5-seed -> assign -> floor-mean loop
    as CTEs (_kmeans_sql). Output is the float-free cluster fingerprint
    (cluster_id, n_vecs, sum_vec_id)."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return analytics.kmeans_clusters(ds, k=8, iters=3, scale=1000)


def _q_language_id(sf_dir: str):
    """N-gram-heuristic language identification per document."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.language_id(_docs(sf_dir, ["doc_id", "text"]))


def _q_quality_scores(sf_dir: str):
    """Per-doc quality scoring: length, punctuation, stopword-ratio features (ppm integers)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.quality_scores(_docs(sf_dir, ["doc_id", "text"]))


def _q_fingerprints(sf_dir: str):
    """Per-doc rolling-hash document fingerprint."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.fingerprints(_docs(sf_dir, ["doc_id", "text"]))


def _q_repetition_stats(sf_dir: str):
    """Gopher-style per-doc repetition signals (top-token / dup-bigram ppm);
    map-side explode + C groupby, replayed in SQL with unnest +
    generate_subscripts + a self-join on adjacent ordinals."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.repetition_stats(_docs(sf_dir, ["doc_id", "text"]))


# canonical BM25 query set (terms drawn from the corpus vocabulary); shared
# verbatim by the engine query and the SQL oracle so idf/tf constants align
_BM25_QUERIES = ["hash join table", "window agg stream", "fast merge sort scan"]
_BM25_K = 10


def _q_bm25_prf_topk(sf_dir: str):
    """Pseudo-relevance-feedback retrieval: round-1 BM25 top-3 feedback
    docs, whole-bit-idf-weighted expansion terms (top-3 new terms per
    query), round-2 BM25 over the expanded set
    (analytics.bm25_prf_topk -- Rocchio-lite two-stage search); the
    oracle replays BOTH rounds and the expansion rule relationally over
    a dynamic (query_id, term) table."""
    from distributed_system___ocr_ray.pipelines import analytics

    out = analytics.bm25_prf_topk(_docs(sf_dir, ["doc_id", "text"]), _BM25_QUERIES)
    return _pairs_df(out, {"query_id": "int64", "doc_id": "int64", "score_ppm": "int64"})


def _q_bm25_topk(sf_dir: str):
    """BM25 top-k docs per query (broadcast query set, one corpus pass,
    integer-ppm scores -- see analytics.bm25_topk). The DuckDB oracle
    replays tokenization, df/idf, the per-term ppm floor and the ranked
    QUALIFY top-k exactly."""
    from distributed_system___ocr_ray.pipelines import analytics

    out = analytics.bm25_topk(_docs(sf_dir, ["doc_id", "text"]), _BM25_QUERIES, k=_BM25_K)
    return _pairs_df(out, {"query_id": "int64", "doc_id": "int64", "score_ppm": "int64"})


def _q_top_tokens(sf_dir: str):
    """Exact corpus heavy hitters (top-20 whitespace tokens)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.top_tokens(_docs(sf_dir, ["text"]), k=20)


def _q_quality_by_lang(sf_dir: str):
    """Mean quality score per language from map-side quality features."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.quality_by_lang(_docs(sf_dir, ["lang", "text"]))


def _q_profile_documents(sf_dir: str):
    """Table profiling: per-column row/null/EXACT-distinct counts over
    documents (analytics.profile_table) -- every column shares ONE
    md5-token-domain exchange instead of a COUNT(DISTINCT) shuffle each."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    return analytics.profile_table(
        ds, ["doc_id", "text", "lang", "source", "n_chars"])


_PROFILE_DOCUMENTS_SQL = " UNION ALL ".join(
    f"SELECT '{c}' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows, "
    f"CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_nulls, "
    f"CAST(COUNT(DISTINCT {c}) AS BIGINT) AS n_distinct FROM documents"
    for c in ["doc_id", "text", "lang", "source", "n_chars"]
)


def _q_pps_sample(sf_dir: str):
    """Systematic PPS sample: exactly 500 documents drawn with probability
    proportional to n_chars (analytics.pps_systematic_sample) -- a
    distributed integer prefix sum over the id domain; the draw is pure
    integer arithmetic, replayed verbatim by the SQL window below."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])
    return analytics.pps_systematic_sample(ds, "doc_id", "n_chars", k=500)


_PPS_SAMPLE_SQL = (
    "WITH c AS (SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars, "
    "SUM(CAST(n_chars AS BIGINT)) OVER (ORDER BY doc_id) AS cw FROM documents), "
    "tot AS (SELECT SUM(CAST(n_chars AS BIGINT)) AS w FROM documents), "
    "h AS (SELECT doc_id, n_chars, CAST((cw * 500) // w - "
    "((cw - n_chars) * 500) // w AS BIGINT) AS n_hits FROM c, tot) "
    "SELECT doc_id, n_chars, n_hits FROM h WHERE n_hits > 0"
)


def _q_training_corpus_counts(sf_dir: str):
    """The COMPOSED training-data prep pipeline end-to-end through the
    engine: extract (flat wrap: identity on tag-free text) -> quality filter
    (quality_ppm >= 400000) -> exact dedup keep-first -> deterministic
    md5 train/val/test split -> per-split counts. Every stage is the real
    operator other queries use individually; the flat wrap keeps the whole
    composition exactly SQL-checkable."""
    import pandas as pd

    from distributed_system___ocr_ray.functions import textstats as ts
    from distributed_system___ocr_ray.pipelines import analytics
    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.pipelines.relational import tiny_final_groupby
    from distributed_system___ocr_ray.sources import wrap

    out = pipeline.extract_dataset(wrap.flat_as_spans(sf_dir), {})

    def flatten(batch: pa.Table) -> pa.Table:
        ids = [int(d.split("-")[1]) for d in batch.column("doc_id").to_pylist()]
        texts = [s[0]["text"] for s in batch.column("spans").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())})

    def quality_filter(batch: pd.DataFrame) -> pd.DataFrame:
        ppm = ts.quality_features(batch["text"])["quality_ppm"]
        return batch[ppm.to_numpy() >= 400_000]

    filt = out.map_batches(flatten, batch_format="pyarrow").map_batches(
        quality_filter, batch_format="pandas"
    )
    # dedup via the GROUPS plan, not full-row exact_dedup: the split only
    # needs the surviving ids, and exact_dedup's groupby would shuffle the
    # entire text column on the duplicate-cluster key -- precisely the
    # skewed-key exchange the engine's semifilter exists to avoid (VERDICT
    # r3 "what's wrong" #1). Here only (64-char hash, id) pairs move.
    keepers = (
        analytics.exact_dedup_groups(filt, id_col="doc_id", text_col="text")
        .select_columns(["keeper_doc_id"])
        .rename_columns({"keeper_doc_id": "doc_id"})
    )
    split = analytics.train_val_test_split(keepers)

    def partial_counts(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["split"].value_counts()
        return pd.DataFrame({"split": vc.index.astype(str), "n": vc.to_numpy(np.int64)})

    return tiny_final_groupby(
        split.map_batches(partial_counts, batch_format="pandas"),
        ["split"], [("n", "sum")], ["split", "n_docs"],
    )


def _q_tfidf_keywords(sf_dir: str):
    """Top-3 tf-idf keywords per document (integer ppm, term-ascending tie
    break); df pass + broadcast idf + batch-local per-doc top-k."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.tfidf_keywords(_docs(sf_dir, ["doc_id", "text"]), k=3)


_TFIDF_SQL = (
    "WITH tok AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
    "AS term FROM documents), "
    "tf AS (SELECT doc_id, term, COUNT(*) tf FROM tok GROUP BY 1, 2), "
    "df AS (SELECT term, COUNT(DISTINCT doc_id) df FROM tok GROUP BY 1), "
    "n AS (SELECT COUNT(*) n FROM documents), "
    "sc AS (SELECT tf.doc_id, tf.term, CAST(FLOOR(tf.tf * ln((n.n + 1.0) / (df.df + 1.0)) "
    "* 1000000.0 + 0.5) AS BIGINT) AS score_ppm FROM tf JOIN df USING(term), n) "
    "SELECT doc_id, term, score_ppm FROM sc "
    "QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY score_ppm DESC, term) <= 3"
)


def _q_corpus_report(sf_dir: str):
    """Dataset-card summary in one row: doc/distinct counts, exact dup rate,
    whitespace-token quantiles (p50/p90/p99 via the histogram-bisection
    exact_quantile -- no global sort), and mean quality ppm. Ratio math is
    pure integer (``(2s+n)//(2n)`` == floor(s/n+0.5)) so the compare stays
    exact at any corpus size (a float64 mean would lose integer exactness
    past 2^53 total ppm)."""
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    from distributed_system___ocr_ray.functions import textstats as ts
    from distributed_system___ocr_ray.pipelines import analytics

    def slim(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_ws_tokens": ts.token_counts(batch["text"])["n_ws_tokens"].values,
                "quality_ppm": ts.quality_features(batch["text"])["quality_ppm"].values,
            }
        )

    # slim 2-int-column projection, materialized once and reused by the
    # three quantile runs + the aggregate (at true scale you would skip the
    # materialize and pay re-reads; at report scale this is the cheaper and
    # still bounded choice -- 16 B/row, object-store spillable)
    s = (
        _docs(sf_dir, ["text"])
        .map_batches(slim, batch_format="pandas")
        .materialize()
    )
    agg = s.aggregate(Count(alias_name="n"), Sum("quality_ppm", alias_name="sq"))
    n, sq = int(agg["n"]), int(agg["sq"])
    quantiles = {
        f"tok_p{int(q * 100)}": int(analytics.exact_quantile(s, "n_ws_tokens", q=q))
        for q in (0.5, 0.9, 0.99)
    }

    groups = analytics.exact_dedup_groups(_docs(sf_dir, ["doc_id", "text"]))
    n_distinct = groups.count()

    return pd.DataFrame(
        [
            {
                "n_docs": n,
                "n_distinct": n_distinct,
                "dup_ppm": (2 * (n - n_distinct) * 1_000_000 + n) // (2 * n),
                **quantiles,
                "mean_quality_ppm": (2 * sq + n) // (2 * n),
            }
        ]
    ).astype("int64")


def _corpus_report_sql() -> str:
    return (
        f"WITH {_quality_ctes()}, "
        f"base AS (SELECT n_ws_tokens, {_QPPM_EXPR} AS qppm FROM r), "
        "tq AS (SELECT n_ws_tokens AS v, row_number() OVER (ORDER BY n_ws_tokens) rn, "
        "COUNT(*) OVER () n FROM base), "
        "c AS (SELECT COUNT(*) AS n, COUNT(DISTINCT text) AS d FROM documents), "
        "qa AS (SELECT SUM(qppm) AS sq, COUNT(*) AS n FROM base) "
        "SELECT c.n AS n_docs, c.d AS n_distinct, "
        "CAST((2 * (c.n - c.d) * 1000000 + c.n) // (2 * c.n) AS BIGINT) AS dup_ppm, "
        "(SELECT v FROM tq WHERE rn = CAST(CEIL(0.50 * n) AS BIGINT)) AS tok_p50, "
        "(SELECT v FROM tq WHERE rn = CAST(CEIL(0.90 * n) AS BIGINT)) AS tok_p90, "
        "(SELECT v FROM tq WHERE rn = CAST(CEIL(0.99 * n) AS BIGINT)) AS tok_p99, "
        "CAST((2 * qa.sq + qa.n) // (2 * qa.n) AS BIGINT) AS mean_quality_ppm "
        "FROM c, qa"
    )


def _q_ingest_increment_counts(sf_dir: str):
    """The daily-ingest COMPOSITION end-to-end through the engine
    (compose.ingest_increment): two increments (doc_id % 3 == 1, then == 2)
    flow through hygiene (quality + repetition gates) -> in-batch exact
    dedup -> novelty vs the corpus grown by day 1 -> versioned append.
    Returns the per-day stage counts; the oracle replays every gate and the
    cross-day NOT IN with the shared SQL builders."""
    import shutil
    import tempfile

    import pandas as pd
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import compose

    corpus_dir = tempfile.mkdtemp(prefix="graft_ingest_") + "/corpus"
    try:
        rows = []
        for day in (1, 2):
            def pick(batch: pa.Table, d=day) -> pa.Table:
                ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
                return batch.filter(pa.array(ids % 3 == d))

            inc = _docs(sf_dir, ["doc_id", "text"]).map_batches(pick, batch_format="pyarrow")
            s = compose.ingest_increment(inc, corpus_dir)
            rows.append(
                {
                    "day": day,
                    "rows_in": s["rows_in"],
                    "after_hygiene": s["after_hygiene"],
                    "after_dedup": s["after_dedup"],
                    "after_novelty": s["after_novelty"],
                    "corpus_rows": s["corpus_rows"],
                }
            )
        return pd.DataFrame(rows).astype("int64")
    finally:
        shutil.rmtree(corpus_dir.rsplit("/", 1)[0], ignore_errors=True)


def _ingest_increment_sql(min_q: int = 400_000, max_top: int = 600_000) -> str:
    """SQL replay of _q_ingest_increment_counts: the hygiene gates reuse the
    quality CTE builder + the repetition top-token CTE, dedup is COUNT
    (DISTINCT text), and day-2 novelty is NOT IN day-1's kept texts."""
    return (
        f"WITH {_quality_ctes()}, "
        "tok AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[^ \t\n\f\r]+')) "
        "AS tok FROM documents), "
        "cnt AS (SELECT doc_id, tok, COUNT(*) c FROM tok GROUP BY 1, 2), "
        "top AS (SELECT doc_id, CAST(FLOOR(MAX(c) * 1e6 / SUM(c) + 0.5) AS BIGINT) "
        "top_token_ppm FROM cnt GROUP BY 1), "
        "hyg AS (SELECT r.doc_id, d.text FROM r JOIN documents d USING(doc_id) "
        f"LEFT JOIN top USING(doc_id) WHERE {_QPPM_EXPR} >= {min_q} "
        f"AND COALESCE(top.top_token_ppm, 0) <= {max_top}), "
        "d1 AS (SELECT * FROM hyg WHERE doc_id % 3 = 1), "
        "d2 AS (SELECT * FROM hyg WHERE doc_id % 3 = 2), "
        "n1 AS (SELECT COUNT(DISTINCT text) AS novel FROM d1), "
        "n2 AS (SELECT COUNT(DISTINCT text) AS novel FROM d2 "
        "WHERE text NOT IN (SELECT text FROM d1)) "
        "SELECT 1 AS day, "
        "(SELECT COUNT(*) FROM documents WHERE doc_id % 3 = 1) AS rows_in, "
        "(SELECT COUNT(*) FROM d1) AS after_hygiene, "
        "(SELECT COUNT(DISTINCT text) FROM d1) AS after_dedup, "
        "(SELECT novel FROM n1) AS after_novelty, "
        "(SELECT novel FROM n1) AS corpus_rows "
        "UNION ALL SELECT 2, "
        "(SELECT COUNT(*) FROM documents WHERE doc_id % 3 = 2), "
        "(SELECT COUNT(*) FROM d2), "
        "(SELECT COUNT(DISTINCT text) FROM d2), "
        "(SELECT novel FROM n2), "
        "(SELECT novel FROM n1) + (SELECT novel FROM n2)"
    )


def _q_media_metadata(sf_dir: str):
    """Typed metadata over the flagship media store. The store is md5
    arithmetic (corpus.build_media_store), so the DuckDB oracle recomputes
    every payload's size/dims/blocks independently: GLY1 width = 6 * len
    (truth sentence), byte size = 8 + ceil(42n/8) (minus the 3-byte corrupt
    truncation), MPDF1 byte size = 5 + len of the sorted-keys JSON body,
    corrupt pdfs parse as 'unknown'. Nullable metadata is canonicalized to
    -1 so the string compare is representation-stable."""
    import pyarrow.compute as pc
    import ray.data as rd

    from distributed_system___ocr_ray import corpus
    from distributed_system___ocr_ray.sources import wrap
    from distributed_system___ocr_ray.stages import multimodal

    store = corpus.build_media_store(n_img=wrap.DEFAULT_N_IMG, n_pdf=wrap.DEFAULT_N_PDF, seed=42)
    out = multimodal.media_metadata(rd.from_arrow(store))

    def canon(batch: pa.Table) -> pa.Table:
        cols = {"media_ref": batch.column("media_ref"), "media_kind": batch.column("media_kind"),
                "n_bytes": batch.column("n_bytes")}
        for c in ("width", "height", "n_blocks"):
            cols[c] = pc.fill_null(pc.cast(batch.column(c), pa.int64()), -1)
        return pa.table(cols)

    return out.map_batches(canon, batch_format="pyarrow")


def _q_dangling_ref_audit(sf_dir: str):
    """Pre-run media-ref integrity audit over the interleaved corpus: a
    broadcast anti-join of every image/pdf span ref against the store's
    ref set, per-kind totals + distinct counts (analytics.
    dangling_ref_audit). The wrap's ~5% broken-ref plan is doc_id
    arithmetic, so the oracle replays exactly which refs dangle from
    documents.parquet alone."""
    from distributed_system___ocr_ray.pipelines import analytics
    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.sources import wrap

    ds, store = wrap.interleaved_from_documents(sf_dir)
    exploded = pipeline.exploded_dataset(ds)
    return analytics.dangling_ref_audit(
        exploded, store.column("media_ref").to_pylist())


def _q_orphan_media_audit(sf_dir: str):
    """Inverse integrity audit: store payloads never referenced by any
    span (GC candidates before a store rewrite). Oracle replays the
    wrap's non-broken ref arithmetic as a distinct-index set per kind and
    subtracts from the full store ranges."""
    from distributed_system___ocr_ray.pipelines import analytics
    from distributed_system___ocr_ray.pipelines import extract as pipeline
    from distributed_system___ocr_ray.sources import wrap

    ds, store = wrap.interleaved_from_documents(sf_dir)
    exploded = pipeline.exploded_dataset(ds)
    return analytics.orphan_media_audit(exploded, store)


def _q_media_dedup_groups(sf_dir: str):
    """Exact media dedup over the flagship payload store plus a CDN-mirror
    replica of every 3rd payload (same bytes under a second ref scheme --
    the standard web-corpus shape: re-hosted logos/figures). Engine hashes
    payloads map-side and ships only digest+ref (analytics.
    media_dedup_groups); the oracle replays payload CONTENT symbolically
    from the md5-deterministic store construction and groups on it."""
    import ray.data as rd

    from distributed_system___ocr_ray import corpus
    from distributed_system___ocr_ray.sources import wrap

    store = corpus.build_media_store(
        n_img=wrap.DEFAULT_N_IMG, n_pdf=wrap.DEFAULT_N_PDF, seed=42)
    refs = store.column("media_ref").to_pylist()
    payloads = store.column("payload").to_pylist()
    m_refs, m_payloads = [], []
    for r, p in zip(refs, payloads):
        if int(r[-6:]) % 3 == 0:
            m_refs.append("mirror://" + r[len("mem://"):])
            m_payloads.append(p)
    full = pa.table({
        "media_ref": pa.array(refs + m_refs, pa.string()),
        "payload": pa.array(payloads + m_payloads, pa.binary()),
    })
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.media_dedup_groups(rd.from_arrow(full))


def _read_narrow(path: str, columns, filter=None, rows_per_block: int = 4_000_000):
    """Size-derived read for NARROW projections (key/audit scans): Ray's
    default parallelism heuristic splits by cpu count, which turns a
    few-MB key column into 64 kilobyte blocks and makes every downstream
    stage task-scheduling-bound (measured: the 3-relation fk audit fell
    from 13.8s to 2.7s at sf0.1 on this change alone). Deriving block
    count from the row count keeps blocks ~tens of MB at any scale --
    the same rows-per-partition rule as relational.derive_buckets."""
    import pyarrow.parquet as _pq
    import ray.data as rd

    n = _pq.ParquetFile(path).metadata.num_rows
    nb = max(1, min(512, n // rows_per_block + 1))
    return rd.read_parquet(path, columns=columns, filter=filter, override_num_blocks=nb)


def _q_label_centroids(sf_dir: str):
    """Grouped vector aggregation: per label, exact integer component sums
    (micros) of the embedding column in long (label, dim) format
    (analytics.label_centroid_sums) -- the distributed-centroid partial as
    a standalone, SQL-replayable operator."""
    from distributed_system___ocr_ray.pipelines import analytics

    ds = _read_narrow(f"{sf_dir}/embeddings.parquet", ["label", "embedding"])
    return analytics.label_centroid_sums(ds)


_LABEL_CENTROIDS_SQL = (
    "WITH u AS (SELECT label, g.k AS k1, "
    "CAST(FLOOR(CAST(embedding[g.k] AS DOUBLE) * 1000000.0 + 0.5) AS BIGINT) AS v "
    "FROM embeddings CROSS JOIN generate_series(1, 64) g(k)) "
    "SELECT CAST(label AS BIGINT) AS label, CAST(k1 - 1 AS BIGINT) AS dim, "
    "CAST(SUM(v) AS BIGINT) AS sum_micros, CAST(COUNT(*) AS BIGINT) AS n_vecs "
    "FROM u GROUP BY 1, 2"
)


def _q_mor_delete_counts(sf_dir: str):
    """Merge-on-read delete end-to-end (the CDC-writer flavor beside
    _q_cow_delete_counts's copy-on-write): stream documents into a
    Lance-style table, EQUALITY-delete the shared doc_id range as a
    small delete file -- the guard asserts every fragment carried by
    reference (zero rewrites) and a positive deleted-key count -- then
    aggregate surviving rows per lang THROUGH the delete-applying
    reader (sources/lance_like.delete_where_mor + read_dataset's
    anti-filter stage). The oracle is the complement WHERE clause over
    the source table, shared with the COW twin."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from distributed_system___ocr_ray.sources import lance_like

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    lo, hi = _range_bounds(sf_dir)
    tdir = tempfile.mkdtemp(prefix="graft_mor_") + "/docs"
    try:
        lance_like.write_dataset(
            _docs(sf_dir, ["doc_id", "lang", "n_chars"]),
            tdir,
            rows_per_fragment=max(50, n // 10),
        )
        before = len(lance_like.read_manifest(tdir)["fragments"])
        man = lance_like.delete_where_mor(
            tdir, [("doc_id", ">=", lo), ("doc_id", "<", hi)], key_col="doc_id"
        )
        if not (man["keys_deleted"] > 0 and man["fragments_carried"] == before
                and man["fragments_scanned"] < before):
            raise AssertionError(
                f"merge-on-read delete shape wrong: {man['keys_deleted']} keys, "
                f"{man['fragments_carried']}/{before} carried, "
                f"{man['fragments_scanned']} scanned"
            )
        return _lang_agg(lance_like.read_dataset(tdir)).to_pandas()
    finally:
        shutil.rmtree(os.path.dirname(tdir), ignore_errors=True)


def _q_wap_publish_counts(sf_dir: str):
    """Write-Audit-Publish end-to-end: stage the in-range slice of
    documents as its own table, AUDIT it (verify fsck + exact row-count
    contract computed independently), publish into a fresh target as a
    metadata-only snapshot (sources/lance_like.wap_publish), then
    aggregate the TARGET per lang -- plus an in-query negative check
    that a tampered staging fails its audit and leaves the target
    untouched. Oracle is the range-filter aggregate over the source."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from distributed_system___ocr_ray.sources import lance_like

    lo, hi = _range_bounds(sf_dir)
    root = tempfile.mkdtemp(prefix="graft_wap_")
    stage, target = root + "/stage", root + "/target"
    try:
        ds = lance_like.write_dataset(  # noqa: F841 -- manifest unused
            _docs(sf_dir, ["doc_id", "lang", "n_chars"]).filter(
                expr=f"doc_id >= {lo} and doc_id < {hi}"),
            stage,
        )
        import duckdb

        expected = duckdb.sql(
            f"SELECT COUNT(*) FROM read_parquet('{sf_dir}/documents.parquet') "
            f"WHERE doc_id >= {lo} AND doc_id < {hi}"
        ).fetchone()[0]
        man = lance_like.wap_publish(stage, target, expected_rows=expected)
        if man["audited_rows"] != expected:
            raise AssertionError("audit accounting mismatch")
        # negative path: a wrong contract must fail and not touch the target
        v_before = lance_like.latest_version(target)
        try:
            lance_like.wap_publish(stage, target, expected_rows=expected + 1)
            raise AssertionError("audit should have failed")
        except lance_like.WapAuditError:
            pass
        if lance_like.latest_version(target) != v_before:
            raise AssertionError("failed audit must not publish")
        return _lang_agg(lance_like.read_dataset(target)).to_pandas()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _q_evolved_schema_counts(sf_dir: str):
    """Schema evolution end-to-end: write docs (doc_id % 4 != 0) without a
    quality_tier column, ADD COLUMN quality_tier default 0 (metadata-only,
    lance_like.evolve_add_column), append the doc_id % 4 == 0 cohort WITH
    quality_tier = 1, then read the evolved table (old fragments filled
    with the default, new read physically) and count per (lang, tier).
    The oracle replays the cohort rule in SQL."""
    import os
    import shutil
    import tempfile

    import pyarrow.compute as pc

    import ray.data as rd

    from distributed_system___ocr_ray.pipelines.relational import tiny_final_groupby
    from distributed_system___ocr_ray.sources import lance_like

    root = tempfile.mkdtemp(prefix="graft_evo_") + "/docs"
    try:
        base = _read_narrow(f"{sf_dir}/documents.parquet", ["doc_id", "lang"])

        def cohort(new: bool):
            def f(batch: "pa.Table") -> "pa.Table":
                m = pc.equal(pc.bit_wise_and(batch.column("doc_id"), 3), 0)
                out = batch.filter(m if new else pc.invert(m))
                if new:
                    out = out.append_column(
                        "quality_tier", pa.array([1] * out.num_rows, pa.int64())
                    )
                return out
            return f

        lance_like.write_dataset(base.map_batches(cohort(False), batch_format="pyarrow"), root)
        lance_like.evolve_add_column(root, "quality_tier", "int64", 0)
        lance_like.write_dataset(
            base.map_batches(cohort(True), batch_format="pyarrow"), root, mode="append"
        )
        ds = lance_like.read_evolved(root)

        def partial(batch: "pa.Table") -> "pa.Table":
            return batch.select(["lang", "quality_tier"]).group_by(
                ["lang", "quality_tier"]
            ).aggregate([([], "count_all")])

        out = tiny_final_groupby(
            ds.map_batches(partial, batch_format="pyarrow"),
            keys=["lang", "quality_tier"],
            aggs=[("count_all", "sum")],
            out_names=["lang", "quality_tier", "n_docs"],
        )
        return out.to_pandas()
    finally:
        shutil.rmtree(os.path.dirname(root), ignore_errors=True)


_EVOLVED_SCHEMA_COUNTS_SQL = (
    "SELECT lang, CAST(CASE WHEN doc_id % 4 = 0 THEN 1 ELSE 0 END AS BIGINT) "
    "AS quality_tier, CAST(COUNT(*) AS BIGINT) AS n_docs "
    "FROM documents GROUP BY 1, 2"
)


def _q_encoding_advisor(sf_dir: str):
    """Dictionary-encoding advisor over documents (lang: 5-distinct win,
    source: 20-distinct win, text: near-unique lose)
    (analytics.encoding_advisor); oracle shares the exact byte formula
    via length(bin()) index-width arithmetic."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.encoding_advisor(
        _docs(sf_dir, ["lang", "source", "text"]),
        ["lang", "source", "text"])


def _q_lpa_modularity(sf_dir: str):
    """Newman modularity of the LPA partition over the md5-derived
    citation graph (analytics.lpa_modularity); oracle reuses the shared
    LPA voting chain and replays the per-community degree-mass /
    within-edge fold and the exact 4m-scaled quotient."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.lpa_modularity(_docs(sf_dir, ["doc_id"]))


def _q_semdedup_keepers(sf_dir: str):
    """SemDeDup: kmeans the embedding space (the integer-exact Lloyd fit
    kmeans_clusters uses), then within each cluster drop vectors that have
    a smaller-id near-dup at cosine >= 0.4 (the testdata is near-orthogonal;
    see analytics.semdedup_keepers for the threshold rationale)."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # k is THE SemDeDup scale knob (k ~ N / target_cluster_size): derive it
    # so clusters stay inside the per-worker n^2 budget at any corpus size
    # (the 100x sweep fired the max_cluster guard at fixed k=8). At the
    # oracle scales (<=20k vectors) this still resolves to k=8, so the
    # unrolled SQL replay is unchanged.
    k = max(8, ds.count() // 2500)
    return analytics.semdedup_keepers(ds, k=k, iters=3, threshold=0.4)


def _q_bpe_merge_candidates(sf_dir: str):
    """BPE round-1 merge statistics: corpus-wide adjacent-char-pair counts
    within [a-z0-9]+ tokens of the lowered text, weighted by occurrence,
    top-50 by (n DESC, pair ASC) (analytics.bpe_merge_candidates). Oracle
    replays tokenize -> word-freq -> unnest(range) char pairs -> sum."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.bpe_merge_candidates(_docs(sf_dir, ["text"]))


def _q_dp_geometric_counts(sf_dir: str):
    """Differentially-private per-lang doc counts under the two-sided
    geometric mechanism (eps = ln 2), noise derandomized from
    md5('dp1:'||lang) leading-ones draws (analytics.dp_geometric_counts);
    oracle replays the mechanism with 16 monotone threshold indicators."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.dp_geometric_counts(_docs(sf_dir, ["lang"]))


def _q_padding_waste_by_bucket(sf_dir: str):
    """Length-bucketed batching padding audit: power-of-two token buckets,
    exact ppm of padded slots per bucket (analytics.padding_waste_by_bucket);
    oracle replays the bucket ladder as a CASE chain (no log2 floats)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.padding_waste_by_bucket(_docs(sf_dir, ["text"]))


def _q_chao1_vocab_estimate(sf_dir: str):
    """Chao1 unseen-vocabulary estimate + Good-Turing coverage from the
    singleton/doubleton counts (analytics.chao1_vocab_estimate); oracle
    replays the word-frequency CTE and the integer-exact bias-corrected
    Chao1 / coverage arithmetic."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.chao1_vocab_estimate(_docs(sf_dir, ["text"]))


def _q_real_pdf_roundtrip(sf_dir: str):
    """End-to-end exercise of the REAL PDF codec on every English doc:
    write each text through functions/pdftext.make_pdf as two runs
    emitted in REVERSED stream order (second half at a lower y first),
    FlateDecode-compressed, then extract with the vendored ISO-32000
    parser -- geometric reading-order reconstruction must reassemble the
    original word order for every doc. Identity oracle: the roundtrip is
    exact on the single-space ASCII en corpus, so the SQL twin is a plain
    projection. Actor-pool map_batches; only (doc_id, text_out) rows move."""
    import ray.data as rd

    class PdfRoundtrip:
        def __init__(self):
            from distributed_system___ocr_ray.functions import pdftext

            self.pdftext = pdftext

        def __call__(self, batch: pa.Table) -> pa.Table:
            pt = self.pdftext
            outs = []
            for text in batch.column("text").to_pylist():
                words = text.split()
                k = len(words) // 2
                first, second = " ".join(words[:k]), " ".join(words[k:])
                pdf = pt.make_pdf(
                    [[(72.0, 650.0, second), (72.0, 700.0, first)]])
                outs.append(pt.extract_text(pdf).replace("\n", " "))
            return pa.table({"doc_id": batch.column("doc_id"),
                             "text_out": pa.array(outs, pa.string())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    ds = ds.filter(expr="lang == 'en'").drop_columns(["lang"])
    return ds.map_batches(PdfRoundtrip, batch_format="pyarrow",
                          batch_size=256, concurrency=(1, 8))


def _q_mattr_by_lang(sf_dir: str):
    """MATTR moving-average type-token ratio per language, window 25
    (analytics.mattr_by_lang); oracle replays every window's distinct
    count via generate_series + list_slice + list_distinct."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.mattr_by_lang(_docs(sf_dir, ["text", "lang"]))


def _q_gopher_quality_flags(sf_dir: str):
    """Gopher-rule quality flags per doc (word-count window, mean word
    length, symbol ratio, stopword floor, composite keep) --
    analytics.gopher_quality_flags; oracle replays every count with the
    shared stopword list."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.gopher_quality_flags(_docs(sf_dir, ["doc_id", "text"]))


def _q_real_png_roundtrip(sf_dir: str):
    """End-to-end exercise of the vendored PNG codec on every English
    doc: the text's byte prefix (truncated to a whole number of 32-wide
    rows) becomes a grayscale PNG via png.encode, decodes back through
    the full filter/CRC path, and the recovered bytes are re-read as
    text. Identity oracle: substr(text, 1, floor(len/32)*32). Docs
    shorter than one row fall back to a 1-wide column image so nothing
    is skipped."""
    import ray.data as rd

    class PngRoundtrip:
        WIDTH = 32

        def __init__(self):
            from distributed_system___ocr_ray.functions import png

            self.png = png

        def __call__(self, batch: pa.Table) -> pa.Table:
            outs = []
            for text in batch.column("text").to_pylist():
                data = text.encode("ascii")
                w = self.WIDTH if len(data) >= self.WIDTH else max(len(data), 1)
                k = (len(data) // w) * w
                img = np.frombuffer(data[:k], dtype=np.uint8).reshape(-1, w)
                if img.size == 0:
                    outs.append("")
                    continue
                back = self.png.decode(self.png.encode(img))
                outs.append(back.reshape(-1).tobytes().decode("ascii"))
            return pa.table({"doc_id": batch.column("doc_id"),
                             "text_out": pa.array(outs, pa.string())})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    ds = ds.filter(expr="lang == 'en'").drop_columns(["lang"])
    return ds.map_batches(PngRoundtrip, batch_format="pyarrow",
                          batch_size=256, concurrency=(1, 8))


def _q_corpus_datacard(sf_dir: str):
    """One-row corpus data card: the summary a curation pipeline publishes
    with a release -- doc/lang/source counts, exact-dup rows, total chars
    and tokens, mean quality. ONE pass over (text, lang, source): every
    field folds from per-block scalar partials except the dup count, whose
    hash-only exchange is the exact_dedup_groups plan; no row-domain
    shuffle anywhere. SQL twin composes the same folds."""
    import pandas as pd
    import ray.data as rd

    from distributed_system___ocr_ray.functions import dedup as dk
    from distributed_system___ocr_ray.functions import textstats as ts

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["text", "lang", "source"])

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        q = ts.quality_features(batch["text"])["quality_ppm"].to_numpy(np.int64)
        toks = batch["text"].fillna("").str.count(r"[a-z0-9]+").to_numpy(np.int64)
        return pd.DataFrame({
            "n_docs": pd.Series([len(batch)], dtype=np.int64),
            "langs": [",".join(sorted(set(batch["lang"])))],
            "sources": [",".join(sorted(set(batch["source"])))],
            "total_chars": pd.Series([int(batch["text"].fillna("").str.len().sum())], dtype=np.int64),
            "total_tokens": pd.Series([int(toks.sum())], dtype=np.int64),
            "quality_sum": pd.Series([int(q.sum())], dtype=np.int64),
        })

    p = ds.map_batches(partials, batch_format="pandas").to_pandas()

    def hash_batch(batch: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array(dk.sha256_hex(batch.column("text").to_pylist()))})

    from ray.data.aggregate import Count

    distinct = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        .map_batches(hash_batch, batch_format="pyarrow")
        .groupby("h").aggregate(Count(alias_name="c")).count()
    )
    n_docs = int(p["n_docs"].sum())
    langs = set()
    sources = set()
    for ls in p["langs"]:
        langs.update(x for x in ls.split(",") if x)
    for ss in p["sources"]:
        sources.update(x for x in ss.split(",") if x)
    return pd.DataFrame({
        "n_docs": pd.Series([n_docs], dtype=np.int64),
        "n_langs": pd.Series([len(langs)], dtype=np.int64),
        "n_sources": pd.Series([len(sources)], dtype=np.int64),
        "dup_rows": pd.Series([n_docs - int(distinct)], dtype=np.int64),
        "total_chars": pd.Series([int(p["total_chars"].sum())], dtype=np.int64),
        "total_tokens": pd.Series([int(p["total_tokens"].sum())], dtype=np.int64),
        "mean_quality_ppm": pd.Series(
            [int(p["quality_sum"].sum()) // max(n_docs, 1)], dtype=np.int64),
    })


def _q_vocab_pruning_plan(sf_dir: str):
    """Tokenizer min-count pruning table: surviving types and OOV
    occurrence ppm per threshold, folded from the vocabulary's frequency
    histogram (analytics.vocab_pruning_plan); oracle replays via a
    threshold CROSS JOIN over the word-frequency CTE."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.vocab_pruning_plan(_docs(sf_dir, ["text"]))


def _q_unigram_power_sample_plan(sf_dir: str):
    """Word2vec negative-sampling distribution: token weights ~ n^(3/4)
    via the nested floor-sqrt identity, vocabulary-wide floor-div shares,
    top-30 by (weight DESC, token) (analytics.unigram_power_sample_plan
    -- the token-level analog of lang_temperature_plan); oracle replays
    counts, both sqrt floors, the share division and the ranked cut."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.unigram_power_sample_plan(_docs(sf_dir, ["text"]))


def _q_ams_f2_audit(sf_dir: str):
    """AMS second-moment sketch audit: 17 md5-signed linear estimators,
    median of squares vs exact F2 of the token counts
    (analytics.ams_f2_audit -- completing the sketch-accuracy ladder
    beside HLL/CMS/KMV/Bloom); oracle replays signs, sums, the median
    row pick and the floor-div error ppm."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.ams_f2_audit(_docs(sf_dir, ["text"]))


def _q_max_coverage_select(sf_dir: str):
    """Greedy max-coverage selection of 5 docs by uncovered word-bigram
    gain (analytics.max_coverage_select); oracle unrolls the k rounds as
    chained CTEs (argmax with (g DESC, doc_id) LIMIT 1 per round)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.max_coverage_select(_docs(sf_dir, ["doc_id", "text"]))


def _q_blocklist_screen(sf_dir: str):
    """Lexicon content screen: per (category, lang) docs-with-hits and
    total whole-token hits over the default category lists
    (analytics.blocklist_screen); oracle replays each category with the
    proven tokenize + list_contains construction."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.blocklist_screen(_docs(sf_dir, ["text", "lang"]))


def _q_code_switch_rate_by_source(sf_dir: str):
    """Mixed-language doc rate per source: >= 2 languages with >= 2
    whole-token stopword hits (analytics.code_switch_rate_by_source);
    oracle replays the per-language stopword membership counts."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.code_switch_rate_by_source(_docs(sf_dir, ["text", "source"]))


def _q_token_budget_waterfill(sf_dir: str):
    """Water-filling token allocation: per-source supply capped at the
    max level whose allocation fits 2/5 of the corpus
    (analytics.token_budget_waterfill); oracle replays the prefix-sum
    closed form with one window cumsum."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.token_budget_waterfill(_docs(sf_dir, ["text", "source"]))


def _q_random_walks(sf_dir: str):
    """Deterministic DeepWalk-style walk corpus over the shared md5
    citation graph (analytics.random_walks); oracle unrolls the hops as
    step CTEs over the sorted-adjacency list table."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.random_walks(_docs(sf_dir, ["doc_id"]))


def _q_kwic_snippets(sf_dir: str):
    """Keyword-in-context concordance: first 20 occurrences per query
    term with a +-3-token snippet (analytics.kwic_snippets); oracle
    replays positions + list_slice + QUALIFY row_number."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.kwic_snippets(_docs(sf_dir, ["doc_id", "text"]))


def _q_matryoshka_recall_audit(sf_dir: str):
    """Truncated-dims (first 16) vs full-width cosine top-10 overlap per
    query (analytics.matryoshka_recall_audit); oracle runs both rankings
    with list_slice + list_cosine_similarity and counts the overlap."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return analytics.matryoshka_recall_audit(ds, _query_matrix(sf_dir))


def _q_mmr_diverse_topk(sf_dir: str):
    """MMR diversity re-ranking of each query's cosine top-50 pool
    (analytics.mmr_diverse_topk); oracle unrolls the greedy steps with
    GREATEST-penalty scoring over list_cosine_similarity."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return analytics.mmr_diverse_topk(ds, _query_matrix(sf_dir))


def _q_embedding_covariance_topk(sf_dir: str):
    """Top-20 |covariance| embedding dimension pairs from one Gram-matrix
    partial pass (analytics.embedding_covariance_topk -- the PCA/whitening
    preprocessing primitive); oracle quantizes to the same integer
    milli-units, self-joins the unnested (row, dim, value) triples, and
    replays cov_num = n*S_ab - s_a*s_b exactly."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    return analytics.embedding_covariance_topk(ds)


def _q_embedding_outliers_topk(sf_dir: str):
    """Top-20 vectors farthest (exact integer L2) from their own label's
    floor-div integer centroid (analytics.embedding_outliers_topk -- the
    mislabel screen); oracle replays quantization, centroid floor
    division and the (dist DESC, vec_id) rank."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return analytics.embedding_outliers_topk(ds)


def _q_centroid_separation_audit(sf_dir: str):
    """Per-label within-cluster mean squared distance vs nearest-other-
    centroid distance (analytics.centroid_separation_audit -- the
    Davies-Bouldin-style separability screen); oracle replays quantization,
    truncating-div centroids, exact integer SSDs and the (dist, label)
    nearest tie-break."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding", "label"])
    return analytics.centroid_separation_audit(ds)


def _q_source_centroid_geometry(sf_dir: str):
    """Per-source embedding-centroid pairwise geometry (exact integer dot
    products + squared norms; analytics.source_centroid_geometry -- the
    domain-shift audit across corpus slices). Cosine left rational: the
    three integers determine it exactly on both sides."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.source_centroid_geometry(sf_dir)


def _q_bitext_mining_topk(sf_dir: str):
    """Margin-based bitext mining en->de over the embeddings table
    (analytics.bitext_mining_topk, the CCMatrix/LASER recipe with the
    all-integer absolute margin); oracle replays the cross-slice dot
    grid, the (dot DESC, id) top-2 and the (margin DESC, src) top-20."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.bitext_mining_topk(sf_dir)


def _q_kcenter_coreset(sf_dir: str):
    """Gonzalez farthest-first k-center coreset over the embeddings table
    (analytics.kcenter_coreset -- geometry-aware seed/coreset selection);
    oracle replays the milli quantization, the min-id seed, and every
    round's exact-integer argmax with the (distsq DESC, vec_id) tie-break
    as an unrolled CTE chain."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return analytics.kcenter_coreset(ds, k=8)


def _q_pca_top_component(sf_dir: str):
    """Top principal component of the embedding cloud by fixed-round
    power iteration on the exact integer covariance numerator
    (analytics.pca_top_component -- the anisotropy/rank-collapse audit);
    oracle replays the one-pass moment fold and all 12 rounds of
    sign-split truncating rescale as unrolled MATERIALIZED CTEs."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    return analytics.pca_top_component(ds)


def _q_rendezvous_routing_balance(sf_dir: str):
    """Highest-random-weight (rendezvous) doc->worker routing balance
    over 16 workers (analytics.rendezvous_routing_balance -- the elastic
    affinity router audit); oracle replays the md5 score grid and the
    (score DESC, worker) argmax with QUALIFY row_number."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return analytics.rendezvous_routing_balance(ds, n_workers=16)


def _q_lpa_communities(sf_dir: str):
    """Synchronous label-propagation communities with self-vote and
    smallest-label tie-break over the md5-derived citation graph, 4 fixed
    rounds (analytics.lpa_communities); oracle replays the undirected
    edge symmetrization and every voting round as MATERIALIZED CTEs."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.lpa_communities(_docs(sf_dir, ["doc_id"]))


def _q_kcore_nodes(sf_dir: str):
    """4-round 2-core peel of the md5-derived citation graph
    (analytics.kcore_nodes -- the dense-region prefilter); oracle
    replays every peel round as MATERIALIZED CTEs (surviving-subgraph
    degree, threshold filter)."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.kcore_nodes(_docs(sf_dir, ["doc_id"]))


def _q_langid_kappa(sf_dir: str):
    """Cohen's kappa between labeled lang and the n-gram heuristic
    (analytics.langid_kappa -- the chance-corrected routing-trust
    scalar); oracle wraps the char-for-char language_id replay and the
    HUGEINT marginal arithmetic."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.langid_kappa(_docs(sf_dir, ["doc_id", "lang", "text"]))


def _q_hits_scores(sf_dir: str):
    """HITS hubs/authorities over the md5-derived citation graph, 3
    fixed rounds of exact integer max-renormalized mutual recursion
    (analytics.hits_scores); oracle unrolls every half-step as
    MATERIALIZED CTEs and replays the (auth DESC, id) top-20."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.hits_scores(_docs(sf_dir, ["doc_id"]))


def _q_local_clustering_topk(sf_dir: str):
    """Top-20 nodes by local clustering coefficient over the md5-derived
    citation graph (analytics.local_clustering_topk -- per-node
    refinement of triangle_count); oracle replays the apex-carrying
    wedge probe, the 3-way triangle credit, and the exact truncating
    ppm with the (lcc DESC, doc_id) rank."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.local_clustering_topk(_docs(sf_dir, ["doc_id"]))


def _q_degree_assortativity(sf_dir: str):
    """Newman degree assortativity of the md5-derived citation graph
    (analytics.degree_assortativity): exact-integer endpoint-degree
    Pearson over the symmetrized undirected edge list, shipped as
    sign-split truncating r_ppm; oracle replays edges, degrees and the
    HUGEINT moment arithmetic."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.degree_assortativity(_docs(sf_dir, ["doc_id"]))


def _q_dsir_importance_weights(sf_dir: str):
    """DSIR-style hashed-unigram importance weights, target slice
    lang='en' (analytics.dsir_importance_weights -- the data-selection
    scorer); oracle replays the md5 bucket grid, the bits-resolution
    per-bucket log-ratio via length(bin(n+1))-1, and the sign-split
    truncating milli mean."""
    from distributed_system___ocr_ray.pipelines import analytics

    return analytics.dsir_importance_weights(sf_dir)


def _q_nearest_centroid_confusion(sf_dir: str):
    """Nearest-centroid confusion matrix over the embeddings table
    (analytics.nearest_centroid_confusion -- the label-noise estimator);
    oracle replays quantization, truncating-div centroids, exact integer
    distances and the (dist, label) argmin tie-break."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding", "label"])
    return analytics.nearest_centroid_confusion(ds)


def _q_lang_temperature_plan(sf_dir: str):
    """alpha=0.5 temperature-sampling plan per language: sqrt weights,
    target share and resample factor in exact floor-divided ppm
    (analytics.lang_temperature_plan -- the mC4/XLM-R low-resource
    rebalance); oracle replays FLOOR(SQRT(n)) and the integer share
    arithmetic."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    return analytics.lang_temperature_plan(ds)


def _q_binary_hamming_topk(sf_dir: str):
    """Binary (sign-bit) quantization recall audit: Hamming top-10 vs
    exact integer-L2 top-10 per query (analytics.binary_hamming_topk --
    the 1-bit rung of the compression ladder beside pq/matryoshka);
    oracle replays sign bits, per-dim mismatch counts, milli-int L2 and
    both (dist, vec_id) rankings."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return analytics.binary_hamming_topk(ds, _query_matrix(sf_dir))


def _q_sq8_recall_audit(sf_dir: str):
    """Scalar-quantization (SQ8, FAISS-style per-dim 8-bit grid) recall
    audit: code-space L2 top-k vs exact milli-int L2 top-k, recall@10 per
    query -- completes the ANN-compression ladder beside PQ / binary /
    Matryoshka. Integer end-to-end (milli-int grid, non-negative floor
    division), so the oracle replays the grid fit, encoding, both
    rankings and the overlap exactly."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return analytics.sq8_recall_audit(ds, _query_matrix(sf_dir), k=10)


def _q_pq_recall_audit(sf_dir: str):
    """Product-quantization ADC recall@10 vs exact integer L2 per query
    (analytics.pq_recall_audit: md5-elected seeds, one Lloyd step,
    truncating-div integer codebook -- the FAISS-style compression audit
    beside ivf_topk's pruning audit); oracle replays seed election,
    assignment, centroids, encoding, the ADC lookup sum and both top-10
    rankings step for step (_pq_sql)."""
    import ray.data as rd

    from distributed_system___ocr_ray.pipelines import analytics

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return analytics.pq_recall_audit(ds, _query_matrix(sf_dir))


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # extraction engine (flagship + SQL-checkable shadows)
        "extract_interleaved": _q_extract_interleaved,
        "extract_flat_identity": _q_extract_flat_identity,
        "span_kind_counts": _q_span_kind_counts,
        "extract_status_counts": _q_extract_status_counts,
        "doc_completeness_by_lang": _q_doc_completeness_by_lang,
        "span_profile_by_kind": _q_span_profile_by_kind,
        "retry_plan": _q_retry_plan,
        "media_ref_counts": _q_media_ref_counts,
        "render_html": _q_render_html,
        "extract_sharded": _q_extract_sharded,
        # relational toolbox
        "docs_by_lang": _q_docs_by_lang,
        "doc_stats_by_source": _q_doc_stats_by_source,
        "filter_project_documents": _q_filter_project,
        # text analysis
        "token_count_by_lang": _q_token_count_by_lang,
        "quality_by_lang": _q_quality_by_lang,
        "pps_sample": _q_pps_sample,
        "profile_documents": _q_profile_documents,
        "top_tokens": _q_top_tokens,
        "language_id": _q_language_id,
        "quality_scores": _q_quality_scores,
        "fingerprints": _q_fingerprints,
        "repetition_stats": _q_repetition_stats,
        # dedup family
        "embedding_neardup": _q_embedding_neardup,
        "extract_embed_neardup": _q_extract_embed_neardup,
        "sample_docs": _q_sample_docs,
        "stratified_sample": _q_stratified_sample,
        "dataset_split_counts": _q_dataset_split_counts,
        "training_corpus_counts": _q_training_corpus_counts,
        "ingest_increment_counts": _q_ingest_increment_counts,
        "corpus_report": _q_corpus_report,
        "tfidf_keywords": _q_tfidf_keywords,
        # corpus hygiene (round 3)
        "redact_pii": _q_redact_pii,
        "contamination_flags": _q_contamination_flags,
        "pack_sequences": _q_pack_sequences,
        "budget_select": _q_budget_select,
        "mixture_sample": _q_mixture_sample,
        "cms_top_tokens": _q_cms_top_tokens,
        "epoch_shuffle": _q_epoch_shuffle,
        "sample_exact_n": _q_sample_exact_n,
        "chunk_documents": _q_chunk_documents,
        "sample_n_per_group": _q_sample_n_per_group,
        "zscore_by_lang": _q_zscore_by_lang,
        "domain_counts": _q_domain_counts,
        "sample_by_quality": _q_sample_by_quality,
        "pruned_range_read": _q_pruned_range_read,
        "postings_lookup": _q_postings_lookup,
        "percent_rank_by_lang": _q_percent_rank_by_lang,
        "cow_delete_counts": _q_cow_delete_counts,
        "merge_upsert_counts": _q_merge_upsert_counts,
        "change_feed_counts": _q_change_feed_counts,
        "docs_rollup": _q_docs_rollup,
        "docs_cube": _q_docs_cube,
        "zipf_bits_audit": _q_zipf_bits_audit,
        "hapax_rate_by_source": _q_hapax_rate_by_source,
        "source_tv_distance": _q_source_tv_distance,
        "token_burstiness": _q_token_burstiness,
        "graph_reciprocity": _q_graph_reciprocity,
        "robust_outliers": _q_robust_outliers,
        "collocations": _q_collocations,
        # similarity search / retrieval
        "ann_topk": _q_ann_topk,
        "ivf_topk": _q_ivf_topk,
        "ivf_indexed_topk": _q_ivf_indexed_topk,
        "kmeans_clusters": _q_kmeans_clusters,
        "semdedup_keepers": _q_semdedup_keepers,
        "pagerank_top": _q_pagerank_top,
        "ppr_top": _q_ppr_top,
        "bfs_levels": _q_bfs_levels,
        "anf_effective_diameter": _q_anf_effective_diameter,
        "rnn_pairs": _q_rnn_pairs,
        "kmeans_inertia": _q_kmeans_inertia,
        "cluster_balanced_sample": _q_cluster_balanced_sample,
        "hybrid_topk": _q_hybrid_topk,
        "triangle_count": _q_triangle_count,
        "in_degree_histogram": _q_in_degree_histogram,
        "table_checksum": _q_table_checksum,
        "phrase_doc_counts": _q_phrase_doc_counts,
        "oov_rate_by_lang": _q_oov_rate_by_lang,
        "compaction_bins": _q_compaction_bins,
        "bigram_surprisal_by_source": _q_bigram_surprisal_by_source,
        "doclen_deciles_by_source": _q_doclen_deciles_by_source,
        "completeness_audit": _q_completeness_audit,
        "doc_bigram_surprisal_topk": _q_doc_bigram_surprisal_topk,
        "span_corruption_plan": _q_span_corruption_plan,
        "two_hop_reach": _q_two_hop_reach,
        "token_diversity_by_lang": _q_token_diversity_by_lang,
        "doc_surprisal_topk": _q_doc_surprisal_topk,
        "sentence_stats_by_lang": _q_sentence_stats_by_lang,
        "readability_by_lang": _q_readability_by_lang,
        "bloom_fp_audit": _q_bloom_fp_audit,
        "cms_error_audit": _q_cms_error_audit,
        "langid_confusion": _q_langid_confusion,
        "k_anonymity": _q_k_anonymity,
        "split_skew_audit": _q_split_skew_audit,
        "vocab_growth": _q_vocab_growth,
        "link_prediction_topk": _q_link_prediction_topk,
        "encoding_audit": _q_encoding_audit,
        "quality_length_corr": _q_quality_length_corr,
        "shuffle_mix_audit": _q_shuffle_mix_audit,
        "lang_source_chi2": _q_lang_source_chi2,
        "source_vocab_overlap": _q_source_vocab_overlap,
        "label_centroids": _q_label_centroids,
        "evolved_schema_counts": _q_evolved_schema_counts,
        "encoding_advisor": _q_encoding_advisor,
        "lpa_modularity": _q_lpa_modularity,
        "quantize_embeddings": _q_quantize_embeddings,
        "bm25_topk": _q_bm25_topk,
        "bm25_prf_topk": _q_bm25_prf_topk,
        "bpe_merge_candidates": _q_bpe_merge_candidates,
        "dp_geometric_counts": _q_dp_geometric_counts,
        "padding_waste_by_bucket": _q_padding_waste_by_bucket,
        "chao1_vocab_estimate": _q_chao1_vocab_estimate,
        "real_pdf_roundtrip": _q_real_pdf_roundtrip,
        "real_png_roundtrip": _q_real_png_roundtrip,
        "corpus_datacard": _q_corpus_datacard,
        "gopher_quality_flags": _q_gopher_quality_flags,
        "mattr_by_lang": _q_mattr_by_lang,
        "vocab_pruning_plan": _q_vocab_pruning_plan,
        "ams_f2_audit": _q_ams_f2_audit,
        "unigram_power_sample_plan": _q_unigram_power_sample_plan,
        "max_coverage_select": _q_max_coverage_select,
        "blocklist_screen": _q_blocklist_screen,
        "code_switch_rate_by_source": _q_code_switch_rate_by_source,
        "token_budget_waterfill": _q_token_budget_waterfill,
        "random_walks": _q_random_walks,
        "kwic_snippets": _q_kwic_snippets,
        "matryoshka_recall_audit": _q_matryoshka_recall_audit,
        "mmr_diverse_topk": _q_mmr_diverse_topk,
        "embedding_covariance_topk": _q_embedding_covariance_topk,
        "pq_recall_audit": _q_pq_recall_audit,
        "sq8_recall_audit": _q_sq8_recall_audit,
        "lang_temperature_plan": _q_lang_temperature_plan,
        "embedding_outliers_topk": _q_embedding_outliers_topk,
        "centroid_separation_audit": _q_centroid_separation_audit,
        "nearest_centroid_confusion": _q_nearest_centroid_confusion,
        "source_centroid_geometry": _q_source_centroid_geometry,
        "kcenter_coreset": _q_kcenter_coreset,
        "bitext_mining_topk": _q_bitext_mining_topk,
        "pca_top_component": _q_pca_top_component,
        "rendezvous_routing_balance": _q_rendezvous_routing_balance,
        "dsir_importance_weights": _q_dsir_importance_weights,
        "lpa_communities": _q_lpa_communities,
        "degree_assortativity": _q_degree_assortativity,
        "local_clustering_topk": _q_local_clustering_topk,
        "hits_scores": _q_hits_scores,
        "langid_kappa": _q_langid_kappa,
        "nb_source_classifier": _q_nb_source_classifier,
        "texttiling_boundaries": _q_texttiling_boundaries,
        "filter_impact_audit": _q_filter_impact_audit,
        "mor_delete_counts": _q_mor_delete_counts,
        "wap_publish_counts": _q_wap_publish_counts,
        "binary_hamming_topk": _q_binary_hamming_topk,
        "ccnet_bucket_counts": _q_ccnet_bucket_counts,
        "kcore_nodes": _q_kcore_nodes,
        # multimodal
        "media_metadata": _q_media_metadata,
        "media_dedup_groups": _q_media_dedup_groups,
        "dangling_ref_audit": _q_dangling_ref_audit,
        "orphan_media_audit": _q_orphan_media_audit,
    }


# --------------------------------------------------------------------------
# programmatic oracle SQL builders (shared pattern strings with the kernels
# in functions/textstats.py so Python and RE2 stay character-for-character
# identical; ratios compare as integer ppm so nothing is float-fuzzy)
# --------------------------------------------------------------------------


def _sql_stop_hits(words) -> str:
    from distributed_system___ocr_ray.functions import textstats as ts  # noqa: F401

    lst = ", ".join(f"'{w}'" for w in sorted(words))
    return (
        "len(list_filter(regexp_extract_all(lower(text), '[a-z]+'), "
        f"x -> list_contains([{lst}], x)))"
    )


def _lang_id_sql() -> str:
    from distributed_system___ocr_ray.functions.textstats import LANG_ORDER, STOPWORDS

    hits = {lang: f"h_{lang}" for lang in LANG_ORDER}
    sub = ", ".join(f"{_sql_stop_hits(STOPWORDS[lang])} AS {hits[lang]}" for lang in LANG_ORDER)
    cjk = "len(regexp_extract_all(text, '[一-鿿぀-ヿ]'))"
    # cascaded CASE = numpy argmax-first (ties keep the earlier language)
    e, d, f, s = (hits[lang] for lang in LANG_ORDER)
    return (
        f"WITH f AS (SELECT doc_id, text, {sub} FROM documents) "
        "SELECT doc_id, CASE "
        f"WHEN {cjk} > 0 AND CAST({cjk} AS DOUBLE) / greatest(length(text), 1) > 0.05 THEN 'zh' "
        f"WHEN {e} = 0 AND {d} = 0 AND {f} = 0 AND {s} = 0 THEN 'unknown' "
        f"WHEN {e} >= {d} AND {e} >= {f} AND {e} >= {s} THEN 'en' "
        f"WHEN {d} >= {f} AND {d} >= {s} THEN 'de' "
        f"WHEN {f} >= {s} THEN 'fr' ELSE 'es' END AS pred_lang FROM f"
    )


# quality_ppm expression over the r-CTE's ratio columns (shared between the
# per-doc and the per-lang oracle)
_QPPM_EXPR = (
    "CAST(FLOOR(((len_score * (1.0 - least(greatest(punct_ratio, 0.0), 1.0))) * "
    "(0.5 + 0.5 * least(greatest(stop_ratio * 5, 0.0), 1.0))) * 1000000.0 + 0.5) AS BIGINT)"
)


def _quality_ctes(extra: str = "") -> str:
    from distributed_system___ocr_ray.functions.textstats import PUNCT_PATTERN, STOPWORDS

    all_stop = set().union(*STOPWORDS.values())
    e = f", {extra}" if extra else ""
    return (
        f"f AS (SELECT doc_id{e}, length(text) AS n_chars, "
        "len(regexp_extract_all(text, '\\S+')) AS n_ws_tokens, "
        f"len(regexp_extract_all(text, '{PUNCT_PATTERN}')) AS n_punct, "
        "len(regexp_extract_all(lower(text), '[a-z]+')) AS n_words, "
        f"{_sql_stop_hits(all_stop)} AS stop_hits FROM documents), "
        f"r AS (SELECT doc_id{e}, n_chars, n_ws_tokens, "
        "CAST(n_punct AS DOUBLE) / greatest(n_chars, 1) AS punct_ratio, "
        "CASE WHEN n_words > 0 THEN CAST(stop_hits AS DOUBLE) / n_words ELSE 0.0 END AS stop_ratio, "
        "least(greatest(CAST(n_chars AS DOUBLE) / 500.0, 0.0), 1.0) AS len_score FROM f)"
    )


_MATTR_SQL = (
    # replay of analytics.mattr_by_lang (W=25): per-doc windows via
    # generate_series unnest, list_slice distinct counts, integer ppm
    "WITH toks AS (SELECT doc_id, lang, "
    "regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents), "
    "base AS (SELECT doc_id, lang, t, len(t) AS n FROM toks WHERE len(t) > 0), "
    "small AS (SELECT lang, len(list_distinct(t)) * 1000000 // n AS ppm "
    "FROM base WHERE n < 25), "
    "win AS (SELECT doc_id, lang, t, n, "
    "unnest(generate_series(1, n - 24)) AS i FROM base WHERE n >= 25), "
    "big AS (SELECT lang, SUM(len(list_distinct(list_slice(t, i, i + 24)))) "
    "* 1000000 // (25 * (n - 24)) AS ppm FROM win GROUP BY doc_id, lang, n), "
    "allp AS (SELECT * FROM small UNION ALL SELECT * FROM big) "
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(ppm) // COUNT(*) AS BIGINT) AS mean_mattr_ppm "
    "FROM allp GROUP BY lang ORDER BY lang"
)


def _gopher_flags_sql() -> str:
    """Replays analytics.gopher_quality_flags: same counts, same
    fixed-point mean word length, same stopword list."""
    from distributed_system___ocr_ray.functions.textstats import STOPWORDS

    all_stop = set().union(*STOPWORDS.values())
    return (
        "WITH f AS (SELECT doc_id, "
        "len(regexp_extract_all(text, '\\S+')) AS n_words, "
        "length(regexp_replace(text, '\\s+', '', 'g')) AS wchars, "
        "len(regexp_extract_all(text, '#')) + "
        "len(regexp_extract_all(text, '\\.\\.\\.')) AS n_sym, "
        f"{_sql_stop_hits(all_stop)} AS stop_hits FROM documents), "
        "r AS (SELECT doc_id, n_words, wchars * 100 // GREATEST(n_words, 1) "
        "AS mwl100, n_sym, stop_hits FROM f) "
        "SELECT doc_id, "
        "CAST(n_words BETWEEN 50 AND 100000 AS BIGINT) AS f_word_count, "
        "CAST(mwl100 BETWEEN 300 AND 1000 AS BIGINT) AS f_mean_word_len, "
        "CAST(10 * n_sym <= n_words AS BIGINT) AS f_symbol_ratio, "
        "CAST(stop_hits >= 2 AS BIGINT) AS f_stopwords, "
        "CAST((n_words BETWEEN 50 AND 100000) AND (mwl100 BETWEEN 300 AND 1000) "
        "AND 10 * n_sym <= n_words AND stop_hits >= 2 AS BIGINT) AS keep "
        "FROM r"
    )


def _corpus_datacard_sql() -> str:
    """Replays _q_corpus_datacard: the quality CTEs (shared with the
    per-doc oracle), raw-text token runs, distinct-text dup count, floored
    mean quality."""
    return (
        f"WITH {_quality_ctes('text, lang, source')}, "
        "agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs, "
        "CAST(COUNT(DISTINCT source) AS BIGINT) AS n_sources, "
        "CAST(SUM(n_chars) AS BIGINT) AS total_chars, "
        "CAST(SUM(len(regexp_extract_all(text, '[a-z0-9]+'))) AS BIGINT) "
        "AS total_tokens, "
        f"CAST(SUM({_QPPM_EXPR}) AS BIGINT) AS qsum FROM r), "
        "d AS (SELECT CAST(COUNT(DISTINCT text) AS BIGINT) AS nd FROM documents) "
        "SELECT n_docs, n_langs, n_sources, n_docs - d.nd AS dup_rows, "
        "total_chars, total_tokens, "
        "CAST(qsum // GREATEST(n_docs, 1) AS BIGINT) AS mean_quality_ppm "
        "FROM agg, d"
    )


def _quality_sql() -> str:
    return (
        f"WITH {_quality_ctes()} "
        "SELECT doc_id, n_chars, n_ws_tokens, "
        "CAST(FLOOR(punct_ratio * 1000000.0 + 0.5) AS BIGINT) AS punct_ppm, "
        "CAST(FLOOR(stop_ratio * 1000000.0 + 0.5) AS BIGINT) AS stop_ppm, "
        f"{_QPPM_EXPR} AS quality_ppm FROM r"
    )


def _training_corpus_sql() -> str:
    """End-to-end composed-pipeline oracle: quality CTE (same expressions as
    the per-doc oracle) -> ppm filter -> keep-first dedup -> md5 split ->
    counts."""
    return (
        f"WITH {_quality_ctes('text')}, "
        "filt AS (SELECT doc_id, text FROM r "
        f"WHERE trim(text) <> '' AND {_QPPM_EXPR} >= 400000), "
        "ded AS (SELECT MIN(doc_id) AS doc_id FROM filt GROUP BY text), "
        "s AS (SELECT CASE WHEN h < '19999999' THEN 'val' "
        "WHEN h < '33333333' THEN 'test' ELSE 'train' END AS split FROM "
        "(SELECT substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS h FROM ded)) "
        "SELECT split, COUNT(*) AS n_docs FROM s GROUP BY split"
    )


def _quality_by_lang_sql() -> str:
    return (
        f"WITH {_quality_ctes('lang')} "
        "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
        f"CAST(SUM({_QPPM_EXPR}) AS BIGINT) AS sum_quality_ppm FROM r GROUP BY lang"
    )


def _fingerprint_sql() -> str:
    from distributed_system___ocr_ray.functions.textstats import WS_PATTERN

    return (
        "SELECT doc_id, substr(md5(trim(regexp_replace(text, "
        f"'{WS_PATTERN}', ' ', 'g'), ' ')), 1, 16) AS fingerprint FROM documents"
    )


def _redact_pii_sql() -> str:
    """Replays _q_redact_pii exactly: identical planted-PII string
    arithmetic, then the same three regexp_replace patterns in the same
    order (pattern strings imported from functions.scrub, so engine and
    oracle can never drift)."""
    from distributed_system___ocr_ray.functions.scrub import (
        EMAIL_PATTERN,
        EMAIL_TOKEN,
        PHONE_PATTERN,
        PHONE_TOKEN,
        URL_PATTERN,
        URL_TOKEN,
    )

    planted = (
        "text || ' visit https://ex.org/p' || doc_id || ' mail user' || doc_id || "
        "'@mail.example.com call +1-555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')"
    )
    return (
        "SELECT doc_id, regexp_replace(regexp_replace(regexp_replace("
        f"{planted}, '{URL_PATTERN}', '{URL_TOKEN}', 'g'), "
        f"'{EMAIL_PATTERN}', '{EMAIL_TOKEN}', 'g'), "
        f"'{PHONE_PATTERN}', '{PHONE_TOKEN}', 'g') AS clean_text FROM documents"
    )


def _contamination_sql(rate: float, k: int) -> str:
    """Replays _q_contamination_flags: same normalization (scrub
    NORM_WS_PATTERN + lower), same md5-threshold eval pick, same
    first-k-token probe, same distinct-probe substring count."""
    from distributed_system___ocr_ray.functions.scrub import (
        NORM_TOKEN_PATTERN,
        NORM_WS_PATTERN,
    )

    threshold = format(int(rate * 0xFFFFFFFF), "08x")
    return (
        "WITH norm AS (SELECT doc_id, lower(regexp_replace(text, "
        f"'{NORM_WS_PATTERN}', ' ', 'g')) AS ntext FROM documents), "
        "ev AS (SELECT array_to_string(list_slice(regexp_extract_all(ntext, "
        f"'{NORM_TOKEN_PATTERN}'), 1, {k}), ' ') AS sh FROM norm "
        f"WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < '{threshold}' "
        f"AND len(regexp_extract_all(ntext, '{NORM_TOKEN_PATTERN}')) >= {k}), "
        "sh AS (SELECT DISTINCT sh FROM ev) "
        "SELECT n.doc_id, CAST(COALESCE(SUM(CASE WHEN strpos(n.ntext, s.sh) > 0 "
        "THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_hits "
        "FROM norm n LEFT JOIN sh s ON strpos(n.ntext, s.sh) > 0 GROUP BY n.doc_id"
    )


def _sample_by_quality_sql() -> str:
    h = _MD5U64.format(v="'samplew:' || CAST(doc_id AS VARCHAR)")
    return (
        f"WITH {_quality_ctes()}, "
        f"q AS (SELECT doc_id, {_QPPM_EXPR} AS quality_ppm FROM r) "
        "SELECT doc_id, quality_ppm FROM q "
        f"WHERE {h} % 1000000 < CAST(quality_ppm AS UBIGINT)"
    )


def _domain_counts_sql(k: int = 10) -> str:
    """Replays _q_domain_counts: same planting expressions, the shared
    URL_PATTERN extraction, hostname = lowercase(first ':'-segment of the
    first '/'-segment after the scheme), count, top-k by (n DESC, domain)."""
    from distributed_system___ocr_ray.functions.scrub import URL_PATTERN

    return (
        "WITH src AS (SELECT doc_id, text || ' via https://d' || "
        "CAST(doc_id % 7 AS VARCHAR) || '.example.org:8080/page' || "
        "CAST(doc_id AS VARCHAR) || CASE WHEN doc_id % 3 = 0 THEN "
        "' see https://d0.example.org/x' || CAST(doc_id AS VARCHAR) ELSE '' END "
        "AS text FROM documents), "
        f"u AS (SELECT unnest(regexp_extract_all(text, '{URL_PATTERN}')) AS url FROM src), "
        "d AS (SELECT lower(string_split(string_split("
        "regexp_replace(url, '^https?://', ''), '/')[1], ':')[1]) AS domain FROM u) "
        "SELECT domain, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY domain "
        f"ORDER BY n DESC, domain LIMIT {k}"
    )


def _zscore_by_lang_sql() -> str:
    """Replays _q_zscore_by_lang: per-lang exact integer (n, sum, sum2)
    over the shared quality expression, then the identical float64
    mean/var/sqrt/floor chain (integer sums first, so no float-summation-
    order divergence); std == 0 groups get z_ppm = 0."""
    return (
        f"WITH {_quality_ctes(extra='lang')}, "
        f"q AS (SELECT doc_id, lang, {_QPPM_EXPR} AS qp FROM r), "
        "s AS (SELECT lang, COUNT(*) AS n, SUM(qp) AS sm, SUM(qp * qp) AS s2 "
        "FROM q GROUP BY lang) "
        "SELECT q.doc_id, q.lang, CASE WHEN "
        "(CAST(s.s2 AS DOUBLE) / s.n - (CAST(s.sm AS DOUBLE) / s.n) * (CAST(s.sm AS DOUBLE) / s.n)) > 0 "
        "THEN CAST(FLOOR((CAST(q.qp AS DOUBLE) - CAST(s.sm AS DOUBLE) / s.n) / "
        "sqrt(CAST(s.s2 AS DOUBLE) / s.n - (CAST(s.sm AS DOUBLE) / s.n) * (CAST(s.sm AS DOUBLE) / s.n)) "
        "* 1000000.0 + 0.5) AS BIGINT) ELSE 0 END AS z_ppm "
        "FROM q JOIN s USING (lang)"
    )


def _sample_n_per_group_sql(n: int, group_col: str = "lang") -> str:
    h = _MD5U64.format(v="'samplen:' || CAST(doc_id AS VARCHAR)")
    return (
        f"SELECT doc_id, {group_col} FROM documents "
        f"QUALIFY ROW_NUMBER() OVER (PARTITION BY {group_col} ORDER BY {h}, doc_id) <= {n}"
    )


def _chunk_documents_sql(chunk: int, overlap: int) -> str:
    """Replays _q_chunk_documents: k in [0, ceil(n/stride)) windows of the
    whitespace-token array, 1-based inclusive list_slice."""
    stride = chunk - overlap
    return (
        "WITH t AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS toks FROM documents), "
        "n AS (SELECT doc_id, toks, len(toks) AS n FROM t), "
        "c AS (SELECT doc_id, toks, n, CAST(unnest(range(0, "
        f"CAST(CEIL(CAST(n AS DOUBLE) / {stride}) AS BIGINT))) AS BIGINT) AS chunk_id FROM n) "
        "SELECT doc_id, chunk_id, "
        f"array_to_string(list_slice(toks, chunk_id * {stride} + 1, "
        f"LEAST(chunk_id * {stride} + {chunk}, n)), ' ') AS text, "
        f"CAST(LEAST(chunk_id * {stride} + {chunk}, n) - chunk_id * {stride} AS BIGINT) "
        "AS n_tokens FROM c"
    )


def _sample_exact_n_sql(n: int) -> str:
    """Replays _q_sample_exact_n: the n smallest md5_u64('samplen:'||id)
    keys, ties by id."""
    h = _MD5U64.format(v="'samplen:' || CAST(doc_id AS VARCHAR)")
    return (
        "SELECT doc_id, lang FROM documents "
        f"QUALIFY ROW_NUMBER() OVER (ORDER BY {h}, doc_id) <= {n}"
    )


def _epoch_shuffle_sql(epoch: int) -> str:
    """Replays _q_epoch_shuffle with one window function over the same
    md5-prefix sort key (dedup.md5_u64 == the _MD5U64 macro)."""
    h = _MD5U64.format(v=f"'epoch{epoch}:' || CAST(doc_id AS VARCHAR)")
    return (
        f"SELECT doc_id, CAST(ROW_NUMBER() OVER (ORDER BY {h}, doc_id) - 1 AS BIGINT) AS pos "
        "FROM documents"
    )


def _cms_ctes(k: int = 20, depth: int = 4, width: int = 8192) -> str:
    """Shared CTE body of the CMS replays: every CMS bucket counter is
    COUNT(*) of tokens hashing to (row, md5_u64('cms{r}:'||tok) % width),
    and each candidate's estimate is the MIN over rows of its bucket's
    counter — identical md5-prefix arithmetic to sketches.CountMinSketch."""
    h_tok = _MD5U64.format(v="'cms' || CAST(r AS VARCHAR) || ':' || tk")
    h_cand = _MD5U64.format(v="'cms' || CAST(r2.r AS VARCHAR) || ':' || cand.tk")
    return (
        "tok AS (SELECT unnest(regexp_extract_all(text, '\\S+')) AS tk FROM documents), "
        f"cand AS (SELECT tk, COUNT(*) AS n FROM tok GROUP BY tk ORDER BY n DESC, tk LIMIT {k}), "
        f"rows_ AS (SELECT CAST(r AS INTEGER) AS r FROM range({depth}) t(r)), "
        f"sk AS (SELECT r, {h_tok} % {width} AS b, COUNT(*) AS c "
        "FROM tok CROSS JOIN rows_ GROUP BY 1, 2), "
        "est AS (SELECT cand.tk, MIN(sk.c) AS n_cms FROM cand CROSS JOIN rows_ r2 "
        f"JOIN sk ON sk.r = r2.r AND sk.b = {h_cand} % {width} GROUP BY cand.tk)"
    )


def _cms_top_tokens_sql(k: int = 20, depth: int = 4, width: int = 8192) -> str:
    return (
        f"WITH {_cms_ctes(k, depth, width)} "
        "SELECT cand.tk AS token, CAST(est.n_cms AS BIGINT) AS n_cms "
        "FROM cand JOIN est ON cand.tk = est.tk"
    )


def _cms_error_audit_sql(k: int = 20, depth: int = 4, width: int = 8192) -> str:
    """cms_top_tokens' CTE body plus the exact count and the CMS
    overestimate in ppm (CMS >= truth by construction, so the floor-div
    is on non-negative ints on both sides)."""
    return (
        f"WITH {_cms_ctes(k, depth, width)} "
        "SELECT cand.tk AS token, CAST(cand.n AS BIGINT) AS n_exact, "
        "CAST(est.n_cms AS BIGINT) AS n_cms, "
        "CAST((est.n_cms - cand.n) * 1000000 // cand.n AS BIGINT) AS over_ppm "
        "FROM cand JOIN est ON cand.tk = est.tk"
    )


def _mixture_sample_sql(shares: dict[str, int], target: int) -> str:
    """Replays _q_mixture_sample: per-source counts CTE -> the same integer
    rate arithmetic (want = target*share//1e6; rate = min(1e6, 1e6*want//n))
    -> the same md5_u64(doc_id) % 1e6 roll (dedup.md5_u64 == big-endian
    16-hex md5 prefix, the _MD5U64 macro)."""
    share_case = (
        "CASE source " + " ".join(f"WHEN '{s}' THEN {p}" for s, p in shares.items()) + " ELSE 0 END"
    )
    h = _MD5U64.format(v="CAST(d.doc_id AS VARCHAR)")
    return (
        "WITH c AS (SELECT source, COUNT(*) AS n FROM documents GROUP BY source), "
        f"r AS (SELECT source, LEAST(1000000, 1000000 * (({target} * {share_case}) // 1000000) // n) "
        "AS rate FROM c) "
        "SELECT d.doc_id, d.source FROM documents d JOIN r USING(source) "
        f"WHERE {h} % 1000000 < CAST(r.rate AS UBIGINT)"
    )


def _budget_select_sql(budget: int) -> str:
    """Replays _q_budget_select with one window function: keep rows while
    the running token sum over (quality_ppm DESC, doc_id ASC) stays within
    the budget (monotone running sum => WHERE cum <= budget IS the greedy
    prefix). quality_ppm reuses the shared _QPPM_EXPR expression tree."""
    return (
        f"WITH {_quality_ctes()}, "
        f"q AS (SELECT doc_id, n_ws_tokens, {_QPPM_EXPR} AS quality_ppm FROM r), "
        "o AS (SELECT *, SUM(n_ws_tokens) OVER (ORDER BY quality_ppm DESC, doc_id ASC "
        "ROWS UNBOUNDED PRECEDING) AS cum FROM q) "
        "SELECT doc_id, CAST(n_ws_tokens AS BIGINT) AS n_tokens, quality_ppm FROM o "
        f"WHERE cum <= {budget}"
    )


def _pack_sequences_sql(seq_len: int) -> str:
    """Replays _q_pack_sequences with one window function: pack_id =
    floor(cum_tokens_before / seq_len) over global doc_id order (RE2 \\S ==
    the textstats whitespace-token class)."""
    return (
        "SELECT doc_id, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens, "
        "CAST(FLOOR((SUM(len(regexp_extract_all(text, '\\S+'))) OVER (ORDER BY doc_id) "
        f"- len(regexp_extract_all(text, '\\S+'))) / {seq_len}) AS BIGINT) AS pack_id "
        "FROM documents"
    )


def _status_counts_sql(seed: int = 42, corrupt_frac: float = 0.02) -> str:
    """Span statuses over the interleaved wrap: which spans exist and which
    refs are broken are doc_id arithmetic (sources/wrap.py), and since round
    3 the media store's corruption roll is md5 arithmetic too
    (``md5(tag || ':c') < corrupt_frac * 2^64``), so the whole status table
    is recomputed INDEPENDENTLY in SQL -- no constants enumerated from the
    engine's own generator."""
    from distributed_system___ocr_ray.sources import wrap

    n_img, n_pdf = wrap.DEFAULT_N_IMG, wrap.DEFAULT_N_PDF
    th = int(corrupt_frac * 2**64)

    def bad_img(idx_expr: str) -> str:
        tag = f"'{seed}:img:' || ({idx_expr}) || ':c'"
        return f"{_MD5U64.format(v=tag)} < {th}"

    def bad_pdf(idx_expr: str) -> str:
        tag = f"'{seed}:pdf:' || ({idx_expr}) || ':c'"
        return f"{_MD5U64.format(v=tag)} < {th}"

    return (
        "WITH spans AS ("
        "SELECT 'ok' AS status FROM documents "
        "UNION ALL SELECT CASE WHEN doc_id % 20 = 0 THEN 'download_error' "
        f"WHEN {bad_img(f'(doc_id*7) % {n_img}')} THEN 'ocr_error' ELSE 'ok' END "
        "FROM documents "
        "UNION ALL SELECT CASE WHEN (doc_id+1) % 20 = 0 THEN 'download_error' "
        f"WHEN {bad_img(f'(doc_id*7+3) % {n_img}')} THEN 'ocr_error' ELSE 'ok' END "
        "FROM documents WHERE doc_id % 2 = 1 "
        "UNION ALL SELECT CASE WHEN doc_id % 40 = 10 THEN 'download_error' "
        f"WHEN {bad_pdf(f'(doc_id*11) % {n_pdf}')} THEN 'parse_error' ELSE 'ok' END "
        "FROM documents WHERE doc_id % 2 = 0) "
        "SELECT status, COUNT(*) AS n_spans FROM spans GROUP BY status"
    )


def _doc_completeness_sql(seed: int = 42, corrupt_frac: float = 0.02) -> str:
    """Per-language completeness over the interleaved wrap: independently
    recomputes each span's ok/error status from doc_id + md5 arithmetic
    (same expressions as _status_counts_sql, doc_id carried), folds to a
    per-doc bad count, joins lang, floor-div ppm."""
    from distributed_system___ocr_ray.sources import wrap

    n_img, n_pdf = wrap.DEFAULT_N_IMG, wrap.DEFAULT_N_PDF
    th = int(corrupt_frac * 2**64)

    def bad_img(idx_expr: str) -> str:
        tag = f"'{seed}:img:' || ({idx_expr}) || ':c'"
        return f"{_MD5U64.format(v=tag)} < {th}"

    def bad_pdf(idx_expr: str) -> str:
        tag = f"'{seed}:pdf:' || ({idx_expr}) || ':c'"
        return f"{_MD5U64.format(v=tag)} < {th}"

    return (
        "WITH spans AS ("
        "SELECT doc_id, 0 AS bad FROM documents "
        "UNION ALL SELECT doc_id, CASE WHEN doc_id % 20 = 0 THEN 1 "
        f"WHEN {bad_img(f'(doc_id*7) % {n_img}')} THEN 1 ELSE 0 END "
        "FROM documents "
        "UNION ALL SELECT doc_id, CASE WHEN (doc_id+1) % 20 = 0 THEN 1 "
        f"WHEN {bad_img(f'(doc_id*7+3) % {n_img}')} THEN 1 ELSE 0 END "
        "FROM documents WHERE doc_id % 2 = 1 "
        "UNION ALL SELECT doc_id, CASE WHEN doc_id % 40 = 10 THEN 1 "
        f"WHEN {bad_pdf(f'(doc_id*11) % {n_pdf}')} THEN 1 ELSE 0 END "
        "FROM documents WHERE doc_id % 2 = 0), "
        "pd AS (SELECT doc_id, SUM(bad) AS n_bad FROM spans GROUP BY 1) "
        "SELECT d.lang AS lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(CASE WHEN p.n_bad = 0 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_complete, "
        "CAST(SUM(CASE WHEN p.n_bad = 0 THEN 1 ELSE 0 END) * 1000000 "
        "// COUNT(*) AS BIGINT) AS complete_ppm "
        "FROM pd p JOIN documents d USING (doc_id) GROUP BY d.lang"
    )


def _retry_plan_sql(seed: int = 42, corrupt_frac: float = 0.02) -> str:
    """Retry work-list: independently recomputes every FAILED span's
    (status, media_ref) from doc_id + md5 arithmetic -- broken refs get the
    per-doc missing-sentinel, corrupt media the ocr/parse error -- and
    counts spans per pair (same failure expressions as _status_counts_sql,
    refs carried)."""
    from distributed_system___ocr_ray.sources import wrap

    n_img, n_pdf = wrap.DEFAULT_N_IMG, wrap.DEFAULT_N_PDF
    th = int(corrupt_frac * 2**64)

    def bad_img(idx_expr: str) -> str:
        tag = f"'{seed}:img:' || ({idx_expr}) || ':c'"
        return f"{_MD5U64.format(v=tag)} < {th}"

    def bad_pdf(idx_expr: str) -> str:
        tag = f"'{seed}:pdf:' || ({idx_expr}) || ':c'"
        return f"{_MD5U64.format(v=tag)} < {th}"

    return (
        "WITH fails AS ("
        "SELECT CASE WHEN doc_id % 20 = 0 THEN 'download_error' "
        "ELSE 'ocr_error' END AS status, "
        "CASE WHEN doc_id % 20 = 0 THEN "
        "printf('mem://img/missing-%06d', doc_id) "
        f"ELSE printf('mem://img/%06d', (doc_id*7) % {n_img}) END AS media_ref "
        f"FROM documents WHERE doc_id % 20 = 0 OR {bad_img(f'(doc_id*7) % {n_img}')} "
        "UNION ALL "
        "SELECT CASE WHEN (doc_id+1) % 20 = 0 THEN 'download_error' "
        "ELSE 'ocr_error' END, "
        "CASE WHEN (doc_id+1) % 20 = 0 THEN "
        "printf('mem://img/missing-%06d', doc_id) "
        f"ELSE printf('mem://img/%06d', (doc_id*7+3) % {n_img}) END "
        "FROM documents WHERE doc_id % 2 = 1 "
        f"AND ((doc_id+1) % 20 = 0 OR {bad_img(f'(doc_id*7+3) % {n_img}')}) "
        "UNION ALL "
        "SELECT CASE WHEN doc_id % 40 = 10 THEN 'download_error' "
        "ELSE 'parse_error' END, "
        "CASE WHEN doc_id % 40 = 10 THEN "
        "printf('mem://pdf/missing-%06d', doc_id) "
        f"ELSE printf('mem://pdf/%06d', (doc_id*11) % {n_pdf}) END "
        "FROM documents WHERE doc_id % 2 = 0 "
        f"AND (doc_id % 40 = 10 OR {bad_pdf(f'(doc_id*11) % {n_pdf}')})) "
        "SELECT status, media_ref, CAST(COUNT(*) AS BIGINT) AS n_spans "
        "FROM fails GROUP BY status, media_ref"
    )


def _render_html_sql() -> str:
    """Mirror of stages/render_html.render_doc on identity-extracted flat
    docs: html.escape (&, <, >, \", ') then newline -> <br/>, one <p> block
    inside the doc <div> (LocalApplication.java:180-207 shape)."""
    esc = (
        "replace(replace(replace(replace(replace(text, '&', '&amp;'), '<', '&lt;'), "
        "'>', '&gt;'), '\"', '&quot;'), chr(39), '&#x27;')"
    )
    return (
        "SELECT printf('doc-%010d', doc_id) AS doc_id, "
        "'<div id=\"' || printf('doc-%010d', doc_id) || '\">' || chr(10) || '<p>' || "
        f"replace({esc}, chr(10), '<br/>') || '</p>' || chr(10) || '</div>' AS html "
        "FROM documents WHERE trim(text) <> ''"
    )


# replay of analytics.token_simpson_by_lang: exact HUGEINT sum-of-squares
# over global (lang, token) counts, floor-div ppm
_TOKEN_DIVERSITY_SQL = (
    "WITH t AS (SELECT lang, unnest(regexp_extract_all(lower(text), "
    "'[a-z0-9]+')) AS tok FROM documents), "
    "c AS (SELECT lang, tok, CAST(COUNT(*) AS HUGEINT) AS n FROM t GROUP BY 1, 2), "
    "a AS (SELECT lang, SUM(n) AS nt, SUM(n * n) AS ssq, COUNT(*) AS nd "
    "FROM c GROUP BY lang) "
    "SELECT lang, CAST(nt AS BIGINT) AS n_tokens, CAST(nd AS BIGINT) AS n_distinct, "
    "CAST(1000000 - (ssq * 1000000) // (nt * nt) AS BIGINT) AS simpson_ppm FROM a"
)

# replay of analytics.doc_surprisal_topk: per-token whole-bit surprisal
# floor(log2(N/c)) == length(bin(N//c)) - 1 (floor-div monotonicity), milli
# mean floor-div, (mean DESC, doc_id ASC) LIMIT 50
_DOC_SURPRISAL_SQL = (
    "WITH t AS (SELECT doc_id, lang, unnest(regexp_extract_all(lower(text), "
    "'[a-z0-9]+')) AS tok FROM documents), "
    "c AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS n FROM t GROUP BY tok), "
    "nn AS (SELECT CAST(SUM(n) AS BIGINT) AS ntot FROM c), "
    "b AS (SELECT tok, CAST(length(bin((SELECT ntot FROM nn) // n)) - 1 "
    "AS BIGINT) AS bits FROM c), "
    "d AS (SELECT t.doc_id, any_value(t.lang) AS lang, "
    "CAST(COUNT(*) AS BIGINT) AS n_tokens, "
    "CAST(SUM(b.bits) AS BIGINT) AS total_bits "
    "FROM t JOIN b USING (tok) GROUP BY t.doc_id) "
    "SELECT doc_id, lang, n_tokens, total_bits, "
    "CAST(total_bits * 1000 // n_tokens AS BIGINT) AS mean_millibits "
    "FROM d ORDER BY mean_millibits DESC, doc_id ASC LIMIT 50"
)

# replay of analytics.sentence_stats_by_lang: non-overlapping '[.!?]+' run
# counts, shared word tokenization, guarded milli floor-div
_SENTENCE_STATS_SQL = (
    "WITH s AS (SELECT lang, len(regexp_extract_all(text, '[.!?]+')) AS ns, "
    "len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS nw FROM documents) "
    "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(ns) AS BIGINT) AS n_sentences, CAST(SUM(nw) AS BIGINT) AS n_words, "
    "CAST(CASE WHEN SUM(ns) > 0 THEN SUM(nw) * 1000 // SUM(ns) ELSE 0 END "
    "AS BIGINT) AS mean_words_per_sentence_milli FROM s GROUP BY lang"
)

_TOP_TOKENS_SQL = (
    "SELECT tk AS token, CAST(COUNT(*) AS BIGINT) AS n FROM "
    "(SELECT unnest(regexp_extract_all(text, '\\S+')) AS tk FROM documents) "
    "GROUP BY tk ORDER BY n DESC, tk LIMIT 20"
)

_EMBEDDING_NEARDUP_SQL = (
    "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b FROM embeddings a "
    "JOIN embeddings b ON a.vec_id < b.vec_id "
    "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.95"
)

# uint64 from the first 8 md5 digest bytes -- the exact value
# functions/dedup.md5_u64 computes (big-endian prefix)
_MD5U64 = "CAST(('0x' || substr(md5({v}), 1, 16)) AS UBIGINT)"


def _anf_sql(p: int = 6, max_h: int = 6) -> str:
    """First-principles replay of ``analytics.anf_effective_diameter``:
    exact min-hop reachability (recursive UNION on (v, u, h), capped at
    max_h) -> per-(node, h) HLL registers over the EXACT ball members ->
    the pinned estimator ladder (exact HUGEINT register sum, alpha bias,
    linear-counting branch, FLOOR(x+0.5)) -> N(h), frac, 90% knee.
    Register-wise MAX over members equals the engine's per-hop max
    propagation -- that identity is what the equality certifies."""
    m = 1 << p
    hh = _MD5U64.format(v="CAST(u AS VARCHAR)")
    deg_h = _MD5U64.format(v="CAST(doc_id AS VARCHAR) || ':deg'")
    lnk_h = _MD5U64.format(v="CAST(src AS VARCHAR) || ':link:' || CAST(j AS VARCHAR)")
    alpha = repr(0.7213 / (1 + 1.079 / m))
    return (
        "WITH RECURSIVE "
        "nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents), "
        f"degs AS (SELECT doc_id AS src, CAST(1 + {deg_h} % 3 AS BIGINT) AS deg "
        "FROM documents), "
        "lnk AS (SELECT src, deg, unnest(range(deg)) AS j FROM degs), "
        f"edges AS (SELECT src, dst FROM (SELECT src, CAST({lnk_h} % nn.n AS BIGINT) "
        "AS dst FROM lnk, nn) WHERE dst <> src), "
        "reach AS (SELECT doc_id AS v, doc_id AS u, 0 AS h FROM documents "
        "UNION SELECT r.v, e.dst AS u, r.h + 1 AS h FROM reach r "
        f"JOIN edges e ON e.src = r.u WHERE r.h < {max_h}), "
        "md AS (SELECT v, u, MIN(h) AS minh FROM reach GROUP BY 1, 2), "
        f"urank AS (SELECT u, CAST(h >> {64 - p} AS BIGINT) AS idx, "
        "64 - length(bin(CAST((CAST(h AS HUGEINT) % "
        f"CAST({1 << (64 - p)} AS HUGEINT)) * {1 << p} + {(1 << p) - 1} "
        "AS UBIGINT))) + 1 AS rank "
        f"FROM (SELECT DISTINCT u, {hh} AS h FROM (SELECT u FROM md))), "
        "mh AS (SELECT md.v, md.u, g.h FROM md "
        f"CROSS JOIN generate_series(0, {max_h}) g(h) WHERE md.minh <= g.h), "
        "reg AS (SELECT mh.v, mh.h, ur.idx, MAX(ur.rank) AS r FROM mh "
        "JOIN urank ur ON ur.u = mh.u GROUP BY 1, 2, 3), "
        "agg AS (SELECT v, h, SUM(CAST(power(2.0, CAST(64 - r AS DOUBLE)) "
        "AS HUGEINT)) AS pnum, CAST(COUNT(*) AS BIGINT) AS cnt "
        "FROM reg GROUP BY 1, 2), "
        f"e AS (SELECT v, h, CAST({alpha} AS DOUBLE) * {m} * {m} "
        "* 18446744073709551616.0 / CAST(pnum + "
        f"(CAST({m} AS HUGEINT) - cnt) * CAST(18446744073709551616.0 AS HUGEINT) "
        f"AS DOUBLE) AS est0, {m} - cnt AS zeros FROM agg), "
        f"pe AS (SELECT v, h, CAST(FLOOR((CASE WHEN est0 <= {m} * 2.5 "
        f"AND zeros > 0 THEN {m} * ln(CAST({m} AS DOUBLE) / zeros) "
        "ELSE est0 END) + 0.5) AS BIGINT) AS pairs FROM e), "
        "nh AS (SELECT h, CAST(SUM(pairs) AS BIGINT) AS pairs_est FROM pe "
        "GROUP BY h), "
        f"fin AS (SELECT pairs_est AS f FROM nh WHERE h = {max_h}), "
        "fr AS (SELECT h, pairs_est, pairs_est * 1000000 // "
        "(SELECT f FROM fin) AS frac_ppm FROM nh), "
        "d90 AS (SELECT MIN(h) AS d FROM fr WHERE frac_ppm >= 900000) "
        "SELECT h, pairs_est, frac_ppm, "
        "CAST(CASE WHEN h = (SELECT d FROM d90) THEN 1 ELSE 0 END AS BIGINT) "
        "AS is_effective_diameter FROM fr ORDER BY h"
    )


def _bm25_prf_sql(queries: list[str] | None = None, k: int | None = None,
                  fb_docs: int = 3, fb_terms: int = 3,
                  k1: float = 1.2, b: float = 0.75) -> str:
    """Replay of ``analytics.bm25_prf_topk``: the _bm25_sql scoring body
    factored over a PLUGGABLE (query_id, term) source, run once with the
    literal round-1 terms, once with the expansion-augmented q2 CTE;
    expansion = per-query top-``fb_terms`` candidates by occurrences x
    ``length(bin(N // df)) - 1`` whole-bit idf, (wgt DESC, term) ties,
    candidates = feedback-doc tokens minus that query's own terms."""
    import re

    queries = _BM25_QUERIES if queries is None else queries
    k = _BM25_K if k is None else k
    qt = sorted({(qi, w) for qi, q in enumerate(queries)
                 for w in re.findall(r"[a-z0-9]+", q.lower())})
    qvals = ", ".join(f"({qi}, '{w}')" for qi, w in qt)
    k1p1, omb = repr(k1 + 1.0), repr(1.0 - b)
    k1r, br = repr(k1), repr(b)
    ts_expr = (
        f"(idf * (tf * CAST({k1p1} AS DOUBLE))) / "
        f"(tf + CAST({k1r} AS DOUBLE) * (CAST({omb} AS DOUBLE) "
        f"+ CAST({br} AS DOUBLE) * (dl / avgdl)))"
    )

    def bm25_round(qsrc: str, suffix: str, kk: int) -> str:
        return (
            f"tf{suffix} AS (SELECT q.query_id, q.term, t.doc_id, "
            f"CAST(COUNT(*) AS DOUBLE) AS tf FROM tok t JOIN {qsrc} q ON t.tk = q.term "
            "GROUP BY q.query_id, q.term, t.doc_id), "
            f"df{suffix} AS (SELECT tk AS term, COUNT(DISTINCT doc_id) AS df FROM tok "
            f"WHERE tk IN (SELECT term FROM {qsrc}) GROUP BY tk), "
            f"idf{suffix} AS (SELECT term, ln(1.0 + (CAST((SELECT n FROM g) - df "
            f"AS DOUBLE) + 0.5) / (df + 0.5)) AS idf FROM df{suffix}), "
            f"ts{suffix} AS (SELECT tf.query_id, tf.doc_id, "
            f"CAST(FLOOR({ts_expr} * 1000000.0 + 0.5) AS BIGINT) AS ppm "
            f"FROM tf{suffix} tf JOIN idf{suffix} idf ON idf.term = tf.term "
            "JOIN d ON d.doc_id = tf.doc_id CROSS JOIN g), "
            f"sc{suffix} AS (SELECT query_id, doc_id, CAST(SUM(ppm) AS BIGINT) "
            f"AS score_ppm FROM ts{suffix} GROUP BY query_id, doc_id), "
            f"top{suffix} AS (SELECT query_id, doc_id, score_ppm FROM sc{suffix} "
            f"QUALIFY row_number() OVER (PARTITION BY query_id "
            f"ORDER BY score_ppm DESC, doc_id) <= {kk})"
        )

    return (
        "WITH w AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w "
        "FROM documents), "
        "d AS (SELECT doc_id, len(w) AS dl FROM w), "
        "g AS (SELECT COUNT(*) AS n, CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl "
        "FROM d), "
        "tok AS (SELECT doc_id, unnest(w) AS tk FROM w), "
        f"q1(query_id, term) AS (VALUES {qvals}), "
        + bm25_round("q1", "1", fb_docs) + ", "
        "cand AS (SELECT r.query_id, t.tk AS term, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM top1 r JOIN tok t ON t.doc_id = r.doc_id "
        "LEFT JOIN q1 qq ON qq.query_id = r.query_id AND qq.term = t.tk "
        "WHERE qq.term IS NULL GROUP BY 1, 2), "
        "dfall AS (SELECT tk AS term, COUNT(DISTINCT doc_id) AS df FROM tok "
        "WHERE tk IN (SELECT term FROM cand) GROUP BY 1), "
        "wt AS (SELECT c.query_id, c.term, "
        "c.c * (length(bin((SELECT n FROM g) // da.df)) - 1) AS wgt "
        "FROM cand c JOIN dfall da ON da.term = c.term), "
        "exp AS (SELECT query_id, term FROM wt "
        "QUALIFY row_number() OVER (PARTITION BY query_id "
        f"ORDER BY wgt DESC, term) <= {fb_terms}), "
        "q2 AS (SELECT query_id, term FROM q1 UNION SELECT query_id, term FROM exp), "
        + bm25_round("q2", "2", k)
        + " SELECT query_id, doc_id, score_ppm FROM top2"
    )


def _bm25_sql(queries: list[str] | None = None, k: int | None = None,
              k1: float = 1.2, b: float = 0.75) -> str:
    """Replay of pipelines/analytics.bm25_topk: same [a-z0-9]+ lowercase
    tokenization, same Lucene idf ln(1 + (N-df+0.5)/(df+0.5)), the same
    double arithmetic written with the engine's evaluation order and
    repr()-exact constant literals, per-TERM ppm floor then INTEGER sum
    (order-independent on both sides), ranked top-k with the (score desc,
    doc_id asc) tie-break."""
    import re

    queries = _BM25_QUERIES if queries is None else queries
    k = _BM25_K if k is None else k
    qt = sorted(
        {(qi, w) for qi, q in enumerate(queries) for w in re.findall(r"[a-z0-9]+", q.lower())}
    )
    if not qt:  # no query yields a token: typed-empty result, not VALUES ()
        return (
            "SELECT CAST(NULL AS BIGINT) AS query_id, CAST(NULL AS BIGINT) AS doc_id, "
            "CAST(NULL AS BIGINT) AS score_ppm WHERE 1 = 0"
        )
    qvals = ", ".join(f"({qi}, '{w}')" for qi, w in qt)
    k1p1, omb = repr(k1 + 1.0), repr(1.0 - b)
    k1r, br = repr(k1), repr(b)
    ts_expr = (
        f"(idf * (tf * CAST({k1p1} AS DOUBLE))) / "
        f"(tf + CAST({k1r} AS DOUBLE) * (CAST({omb} AS DOUBLE) "
        f"+ CAST({br} AS DOUBLE) * (dl / avgdl)))"
    )
    return (
        "WITH w AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w "
        "FROM documents), "
        "d AS (SELECT doc_id, len(w) AS dl FROM w), "
        "g AS (SELECT COUNT(*) AS n, CAST(SUM(dl) AS BIGINT) AS sdl, "
        "CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl FROM d), "
        "tok AS (SELECT doc_id, unnest(w) AS tk FROM w), "
        f"q(query_id, term) AS (VALUES {qvals}), "
        "tf AS (SELECT q.query_id, q.term, t.doc_id, "
        "CAST(COUNT(*) AS DOUBLE) AS tf FROM tok t JOIN q ON t.tk = q.term "
        "GROUP BY q.query_id, q.term, t.doc_id), "
        "df AS (SELECT tk AS term, COUNT(DISTINCT doc_id) AS df FROM tok "
        "WHERE tk IN (SELECT term FROM q) GROUP BY tk), "
        "idf AS (SELECT term, ln(1.0 + (CAST((SELECT n FROM g) - df AS DOUBLE) + 0.5) "
        "/ (df + 0.5)) AS idf FROM df), "
        "ts AS (SELECT tf.query_id, tf.doc_id, "
        f"CAST(FLOOR({ts_expr} * 1000000.0 + 0.5) AS BIGINT) AS ppm "
        "FROM tf JOIN idf ON idf.term = tf.term JOIN d ON d.doc_id = tf.doc_id "
        "CROSS JOIN g), "
        "sc AS (SELECT query_id, doc_id, CAST(SUM(ppm) AS BIGINT) AS score_ppm "
        "FROM ts GROUP BY query_id, doc_id) "
        "SELECT query_id, doc_id, score_ppm FROM sc "
        f"QUALIFY row_number() OVER (PARTITION BY query_id "
        f"ORDER BY score_ppm DESC, doc_id) <= {k}"
    )


def _kcenter_sql(k: int = 8, quant: int = 1000) -> str:
    """Replay of analytics.kcenter_coreset: the same milli quantization
    (FLOOR(x*quant+0.5)), min-id seed, and k-1 unrolled Gonzalez rounds --
    each round's running-min distance d{r} = LEAST(d{r-1}, distsq to the
    round-r center) and its argmax with the exact (d DESC, vec_id)
    tie-break, selected ids excluded like the engine's in-stage mask.
    SUMs stay HUGEINT mid-query; the projection CASTs to BIGINT.
    Every chained CTE is MATERIALIZED: DuckDB inlines plain CTEs, and the
    d{r} -> c{r} -> d{r+1} recurrence would otherwise expand into an
    exponentially nested plan (observed: the k=8 chain never finished)."""
    parts = [
        "WITH q AS MATERIALIZED (SELECT vec_id, list_transform(embedding, "
        f"x -> CAST(FLOOR(CAST(x AS DOUBLE) * {quant} + 0.5) AS BIGINT)) AS v "
        "FROM embeddings), "
        "dims AS (SELECT unnest(generate_series(1, 64)) AS i), "
        "u AS MATERIALIZED (SELECT vec_id, i, v[i] AS x FROM q, dims "
        "WHERE v[i] IS NOT NULL), "
        "c1 AS MATERIALIZED (SELECT MIN(vec_id) AS id FROM q), "
        "d1 AS MATERIALIZED (SELECT u.vec_id, "
        "SUM((u.x - c.x) * (u.x - c.x)) AS d FROM u "
        "JOIN u c ON c.i = u.i AND c.vec_id = (SELECT id FROM c1) GROUP BY 1)"
    ]
    for r in range(2, k + 1):
        sel = ", ".join(f"(SELECT id FROM c{j})" for j in range(1, r))
        parts.append(
            f"c{r} AS MATERIALIZED (SELECT vec_id AS id, d FROM d{r - 1} "
            f"WHERE vec_id NOT IN ({sel}) ORDER BY d DESC, vec_id LIMIT 1)"
        )
        if r < k:
            parts.append(
                f"d{r} AS MATERIALIZED (SELECT p.vec_id, LEAST(p.d, n.d) AS d "
                f"FROM d{r - 1} p "
                "JOIN (SELECT u.vec_id, SUM((u.x - c.x) * (u.x - c.x)) AS d FROM u "
                f"JOIN u c ON c.i = u.i AND c.vec_id = (SELECT id FROM c{r}) "
                "GROUP BY 1) n ON n.vec_id = p.vec_id)"
            )
    rows = [
        "SELECT CAST(1 AS BIGINT) AS sel_order, (SELECT id FROM c1) AS vec_id, "
        "CAST(0 AS BIGINT) AS distsq"
    ] + [
        f"SELECT CAST({r} AS BIGINT), (SELECT id FROM c{r}), "
        f"CAST((SELECT d FROM c{r}) AS BIGINT)"
        for r in range(2, k + 1)
    ]
    return (
        ", ".join(parts)
        + " SELECT * FROM (" + " UNION ALL ".join(rows) + ") "
        "WHERE vec_id IS NOT NULL ORDER BY sel_order"
    )


def _pca_sql(iters: int = 12, quant: int = 1000, scale: int = 1_000_000) -> str:
    """Replay of analytics.pca_top_component: the same one-pass moment
    fold (n, per-dim sums, full second-moment grid -> the n^2-scaled
    integer covariance), then ``iters`` unrolled power-iteration rounds --
    w = C v in HUGEINT, rescale by sign-split truncating division exactly
    as the engine spells it, max|w| = 0 keeps v. Rayleigh quotient
    lambda_micro = (v'Cv * 1e6) // (v'v * n^2), nonneg both sides (C is
    PSD) so plain floor-div. All chained CTEs MATERIALIZED (same
    exponential-inlining hazard as _kcenter_sql)."""
    parts = [
        "WITH q AS MATERIALIZED (SELECT list_transform(embedding, "
        f"x -> CAST(FLOOR(CAST(x AS DOUBLE) * {quant} + 0.5) AS BIGINT)) AS v, "
        "row_number() OVER () AS rid FROM embeddings), "
        "dims AS (SELECT unnest(generate_series(1, 64)) AS i), "
        "u AS MATERIALIZED (SELECT rid, i, v[i] AS x FROM q, dims "
        "WHERE v[i] IS NOT NULL), "
        "nn AS MATERIALIZED (SELECT COUNT(*) AS n FROM q), "
        "st AS MATERIALIZED (SELECT i, SUM(CAST(x AS HUGEINT)) AS s FROM u "
        "GROUP BY 1), "
        "g AS MATERIALIZED (SELECT a.i AS i, b.i AS j, "
        "SUM(CAST(a.x AS HUGEINT) * b.x) AS sij FROM u a "
        "JOIN u b ON a.rid = b.rid GROUP BY 1, 2), "
        "c AS MATERIALIZED (SELECT g.i, g.j, "
        "(SELECT n FROM nn) * g.sij - sa.s * sb.s AS cv FROM g "
        "JOIN st sa ON sa.i = g.i JOIN st sb ON sb.i = g.j), "
        "v0 AS MATERIALIZED (SELECT i, CAST(CASE WHEN i = "
        f"(SELECT MIN(i) FROM st) THEN {scale} ELSE 0 END AS HUGEINT) AS v "
        "FROM st)"
    ]
    for t in range(1, iters + 1):
        parts.append(
            f"w{t} AS MATERIALIZED (SELECT c.i, SUM(c.cv * v.v) AS w "
            f"FROM c JOIN v{t - 1} v ON v.i = c.j GROUP BY 1)"
        )
        parts.append(f"m{t} AS MATERIALIZED (SELECT MAX(ABS(w)) AS m FROM w{t})")
        parts.append(
            f"v{t} AS MATERIALIZED (SELECT p.i, "
            f"CASE WHEN (SELECT m FROM m{t}) = 0 THEN p.v "
            f"WHEN w.w >= 0 THEN (w.w * {scale}) // (SELECT m FROM m{t}) "
            f"ELSE -(((-w.w) * {scale}) // (SELECT m FROM m{t})) END AS v "
            f"FROM v{t - 1} p JOIN w{t} w ON w.i = p.i)"
        )
    last = f"v{iters}"
    parts.append(
        "ray AS MATERIALIZED (SELECT SUM(va.v * c.cv * vb.v) AS r FROM c "
        f"JOIN {last} va ON va.i = c.i JOIN {last} vb ON vb.i = c.j)"
    )
    parts.append(f"vv AS MATERIALIZED (SELECT SUM(v * v) AS q2 FROM {last})")
    return (
        ", ".join(parts)
        + " SELECT CAST(i AS BIGINT) AS dim, CAST(v AS BIGINT) AS v_scaled, "
        "CAST(((SELECT r FROM ray) * 1000000) // ((SELECT q2 FROM vv) * "
        "(SELECT n FROM nn) * (SELECT n FROM nn)) AS BIGINT) AS lambda_micro "
        f"FROM {last} ORDER BY dim"
    )


# python str.strip() / \s whitespace set (ASCII subset; the corpus is ASCII)
_WS_SQL = "(' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12))"


def _sent_sql(tag_sql: str, lo: int = 4, hi: int = 10) -> str:
    """SQL expression replaying corpus.det_sentence(tag): word count and word
    indices are div/mod slices of the 64-bit md5 prefix of the tag, with the
    word list and exact integer divisors (span * N_WORDS^j) as literals."""
    from distributed_system___ocr_ray.corpus import _WORDS, N_WORDS

    span = hi - lo + 1
    hu = _MD5U64.format(v=tag_sql)
    words = ", ".join(f"'{w}'" for w in _WORDS)
    divs = ", ".join(str(span * N_WORDS**j) for j in range(hi))
    body = (
        f"array_to_string(list_transform("
        f"generate_series(0, CAST({hu} % {span} AS INT) + {lo - 1}), "
        f"j -> ([{words}])[CAST(({hu} // (CAST([{divs}] AS UBIGINT[]))[j + 1]) "
        f"% {N_WORDS} AS INT) + 1]), ' ')"
    )
    return f"(upper(substr({body}, 1, 1)) || substr({body}, 2) || '.')"


def _interleaved_ctes(seed: int = 42, corrupt_frac: float = 0.02) -> str:
    """CTE body producing ``allspans(doc_id, ord, kind, ref, out)`` -- the
    closed-form replay of the ENTIRE flagship pipeline (wrap -> explode ->
    kind-routed extraction -> offset-ordered reassembly) from the documents
    table alone. Per doc_id: span structure/refs are doc_id arithmetic
    (sources/wrap.py), the stripped text span is h1 + the doc's normalized
    sentences (functions/html_strip semantics on the det page template), the
    image span replays the glyph-OCR truth sentence (corpus.det_sentence md5
    arithmetic) or its corruption/missing sentinels, and the pdf span
    replays mini-PDF block layout + pdfminer-style reading order
    (sort by x//200 column, then y, then x) in SQL. Shared by the flagship
    pair of oracles and the composed extract->embed->neardup oracle."""
    from distributed_system___ocr_ray.sources import wrap as _wrap

    n_img, n_pdf = _wrap.DEFAULT_N_IMG, _wrap.DEFAULT_N_PDF
    th = int(corrupt_frac * 2**64)
    img_tag = f"'{seed}:img:' || g.i"
    img_c_tag = img_tag + " || ':c'"
    pdfj_tag = f"'{seed}:pdf:' || g.i || ':' || gj.j"
    pdfj_s_tag = pdfj_tag + " || ':s'"
    pdf_nb_tag = f"'{seed}:pdf:' || g.i || ':nb'"
    pdf_c_tag = f"'{seed}:pdf:' || a.i || ':c'"
    h1_tag = f"'{seed}:wrap:' || doc_id || ':h1'"
    ws = _WS_SQL
    return (
        "imgt AS ("
        "SELECT g.i AS i, "
        f"CASE WHEN {_MD5U64.format(v=img_c_tag)} < {th} "
        "THEN 'OCR operation error' "
        f"ELSE {_sent_sql(img_tag)} END AS t "
        f"FROM generate_series(0, {n_img - 1}) g(i)), "
        "pdfb AS ("
        "SELECT g.i AS i, gj.j AS j, "
        f"CAST(([10,30,230,250,450])[CAST({_MD5U64.format(v=pdfj_tag)} % 5 AS INT) + 1] AS INT) AS x, "
        f"CAST(40 * gj.j + CAST(({_MD5U64.format(v=pdfj_tag)} // 5) % 21 AS INT) AS INT) AS y, "
        f"{_sent_sql(pdfj_s_tag)} AS s "
        f"FROM generate_series(0, {n_pdf - 1}) g(i) "
        "CROSS JOIN generate_series(0, 3) gj(j) "
        f"WHERE gj.j <= CAST({_MD5U64.format(v=pdf_nb_tag)} % 4 AS INT)), "
        "pdfagg AS ("
        "SELECT i, string_agg(s, chr(10) ORDER BY x // 200, y, x) AS t FROM pdfb GROUP BY i), "
        "pdft AS ("
        "SELECT a.i AS i, "
        f"CASE WHEN {_MD5U64.format(v=pdf_c_tag)} < {th} "
        "THEN 'PDF parse error' ELSE a.t END AS t FROM pdfagg a), "
        "txt AS ("
        f"SELECT doc_id, {_sent_sql(h1_tag, 2, 4)} AS h1, "
        "list_transform("
        f"list_filter(string_split(text, '.'), p -> trim(p, {ws}) <> ''), "
        f"p -> regexp_replace(trim(p, {ws}), '\\s+', ' ', 'g') || '.')[1:3] AS sents, "
        "text FROM documents), "
        "txt2 AS ("
        "SELECT doc_id, array_to_string(list_filter(list_prepend(h1, "
        "CASE WHEN len(sents) = 0 "
        f"THEN [trim(regexp_replace(substr(text, 1, 200), '\\s+', ' ', 'g'), {ws})] "
        "ELSE sents END), x -> x <> ''), chr(10)) AS stripped FROM txt), "
        "allspans AS ("
        "SELECT doc_id, 0 AS ord, 'text' AS kind, '' AS ref, stripped AS out FROM txt2 "
        "UNION ALL "
        "SELECT d.doc_id, 1 + gk.k AS ord, 'image' AS kind, "
        "CASE WHEN (d.doc_id + gk.k) % 20 = 0 THEN printf('mem://img/missing-%06d', d.doc_id) "
        f"ELSE printf('mem://img/%06d', (d.doc_id*7 + gk.k*3) % {n_img}) END AS ref, "
        "CASE WHEN (d.doc_id + gk.k) % 20 = 0 THEN 'Image download error' ELSE it.t END AS out "
        "FROM documents d CROSS JOIN generate_series(0, 1) gk(k) "
        f"LEFT JOIN imgt it ON it.i = (d.doc_id*7 + gk.k*3) % {n_img} "
        "WHERE gk.k <= d.doc_id % 2 "
        "UNION ALL "
        "SELECT d.doc_id, 2 AS ord, 'pdf' AS kind, "
        "CASE WHEN d.doc_id % 40 = 10 THEN printf('mem://pdf/missing-%06d', d.doc_id) "
        f"ELSE printf('mem://pdf/%06d', (d.doc_id*11) % {n_pdf}) END AS ref, "
        "CASE WHEN d.doc_id % 40 = 10 THEN 'PDF download error' ELSE pt.t END AS out "
        f"FROM documents d LEFT JOIN pdft pt ON pt.i = (d.doc_id*11) % {n_pdf} "
        "WHERE d.doc_id % 2 = 0)"
    )


def _interleaved_sql(seed: int = 42, corrupt_frac: float = 0.02) -> str:
    """Flagship oracle: canonical per-doc serialization (matching
    _encode_spans_column) of the closed-form span table."""
    return (
        f"WITH {_interleaved_ctes(seed, corrupt_frac)} "
        "SELECT printf('doc-%010d', doc_id) AS doc_id, "
        "string_agg(CAST(ord AS VARCHAR) || chr(31) || kind || chr(31) || ref || chr(31) || out, "
        "chr(30) ORDER BY ord) AS spans_enc "
        "FROM allspans GROUP BY doc_id"
    )


def _extract_embed_neardup_sql(threshold: float = 0.999, dim: int = 64) -> str:
    """Composed-pipeline oracle: the closed-form extracted span table ->
    HashEmbedder replay (lowercased whitespace tokens -> md5-prefix % dim
    bucket counts, cosine on the count vectors -- normalization cancels in
    the cosine ratio) -> the EXACT >= threshold pair set. As with
    embedding_neardup, LSH recall on it is probabilistic by design (~0.999
    at this threshold; planted-dup recall is pytest-held), so the compare is
    honest but strict."""
    bucket = _MD5U64.format(v="tok")
    return (
        f"WITH {_interleaved_ctes()}, "
        "doctext AS (SELECT printf('doc-%010d', doc_id) AS doc, "
        "string_agg(out, chr(10) ORDER BY ord) AS text FROM allspans GROUP BY doc_id), "
        # the query's replicate=2 twin: same spans under the '-r001' id
        "doctext2 AS (SELECT doc, text FROM doctext "
        "UNION ALL SELECT doc || '-r001', text FROM doctext), "
        "toks AS (SELECT doc, unnest(regexp_extract_all(lower(text), '\\S+')) AS tok FROM doctext2), "
        f"vec AS (SELECT doc, CAST({bucket} % {dim} AS INT) AS bucket, "
        "CAST(COUNT(*) AS DOUBLE) AS c FROM toks GROUP BY 1, 2), "
        "nrm AS (SELECT doc, sqrt(SUM(c * c)) AS n FROM vec GROUP BY doc) "
        "SELECT a.doc AS vec_a, b.doc AS vec_b "
        "FROM vec a JOIN vec b ON a.bucket = b.bucket AND a.doc < b.doc "
        "JOIN nrm na ON na.doc = a.doc JOIN nrm nb ON nb.doc = b.doc "
        "GROUP BY a.doc, b.doc, na.n, nb.n "
        f"HAVING SUM(a.c * b.c) / (na.n * nb.n) >= {threshold}"
    )


def _media_metadata_sql(seed: int = 42, corrupt_frac: float = 0.02) -> str:
    """Independent replay of MediaMetadata over the md5-deterministic store:
    payload sizes are recomputed from the wire formats themselves -- GLY1 =
    4B magic + 4B dims + packbits(7 rows x 6n cols), minus 3 truncated bytes
    when corrupt; MPDF1 = 5B magic + the exact ``json.dumps(sort_keys=True)``
    body length (rebuilt character-for-character via string_agg). Needs no
    driver view: everything derives from generate_series + md5."""
    from distributed_system___ocr_ray.sources import wrap as _wrap

    n_img, n_pdf = _wrap.DEFAULT_N_IMG, _wrap.DEFAULT_N_PDF
    th = int(corrupt_frac * 2**64)
    img_tag = f"'{seed}:img:' || g.i"
    img_c_tag = img_tag + " || ':c'"
    pdfj_tag = f"'{seed}:pdf:' || g.i || ':' || gj.j"
    pdfj_s_tag = pdfj_tag + " || ':s'"
    pdf_nb_tag = f"'{seed}:pdf:' || g.i || ':nb'"
    pdf_c_tag = f"'{seed}:pdf:' || p.i || ':c'"
    return (
        "WITH imgs AS ("
        f"SELECT g.i AS i, length({_sent_sql(img_tag)}) AS n, "
        f"{_MD5U64.format(v=img_c_tag)} < {th} AS corrupt "
        f"FROM generate_series(0, {n_img - 1}) g(i)), "
        "imgm AS ("
        "SELECT printf('mem://img/%06d', i) AS media_ref, 'gly1' AS media_kind, "
        "CAST(8 + (42 * n + 7) // 8 - CASE WHEN corrupt THEN 3 ELSE 0 END AS BIGINT) AS n_bytes, "
        "CAST(6 * n AS BIGINT) AS width, CAST(7 AS BIGINT) AS height, "
        "CAST(-1 AS BIGINT) AS n_blocks FROM imgs), "
        "pdfb AS ("
        "SELECT g.i AS i, gj.j AS j, "
        f"CAST(([10,30,230,250,450])[CAST({_MD5U64.format(v=pdfj_tag)} % 5 AS INT) + 1] AS INT) AS x, "
        f"CAST(40 * gj.j + CAST(({_MD5U64.format(v=pdfj_tag)} // 5) % 21 AS INT) AS INT) AS y, "
        f"{_sent_sql(pdfj_s_tag)} AS s "
        f"FROM generate_series(0, {n_pdf - 1}) g(i) "
        "CROSS JOIN generate_series(0, 3) gj(j) "
        f"WHERE gj.j <= CAST({_MD5U64.format(v=pdf_nb_tag)} % 4 AS INT)), "
        "pdfj AS ("
        "SELECT i, CAST(COUNT(*) AS BIGINT) AS nb, "
        "CAST(5 + length('{\"blocks\": [' || "
        "string_agg('{\"text\": \"' || s || '\", \"x\": ' || x || ', \"y\": ' || y || '}', "
        "', ' ORDER BY j) || ']}') AS BIGINT) AS n_bytes "
        "FROM pdfb GROUP BY i), "
        "pdfm AS ("
        "SELECT printf('mem://pdf/%06d', p.i) AS media_ref, "
        f"CASE WHEN {_MD5U64.format(v=pdf_c_tag)} < {th} THEN 'unknown' ELSE 'mpdf1' END AS media_kind, "
        "p.n_bytes AS n_bytes, CAST(-1 AS BIGINT) AS width, CAST(-1 AS BIGINT) AS height, "
        f"CASE WHEN {_MD5U64.format(v=pdf_c_tag)} < {th} THEN CAST(-1 AS BIGINT) ELSE p.nb END AS n_blocks "
        "FROM pdfj p) "
        "SELECT * FROM imgm UNION ALL SELECT * FROM pdfm"
    )


def _media_dedup_sql(seed: int = 42, corrupt_frac: float = 0.02) -> str:
    """Replay of ``analytics.media_dedup_groups`` over the mirrored store:
    payload CONTENT is replayed symbolically (payloads are md5-arithmetic
    functions of their tag: GLY1 <-> truth sentence + corrupt flag, MPDF1
    <-> exact sorted-keys JSON body + corrupt flag -- both corruptions are
    deterministic, so content-key equality <-> payload-byte equality on
    this fixture), every i%3==0 payload gains a mirror:// ref, and groups
    fold to (min ref, ref count)."""
    from distributed_system___ocr_ray.sources import wrap as _wrap

    n_img, n_pdf = _wrap.DEFAULT_N_IMG, _wrap.DEFAULT_N_PDF
    th = int(corrupt_frac * 2**64)
    img_tag = f"'{seed}:img:' || g.i"
    img_c_tag = img_tag + " || ':c'"
    pdfj_tag = f"'{seed}:pdf:' || g.i || ':' || gj.j"
    pdfj_s_tag = pdfj_tag + " || ':s'"
    pdf_nb_tag = f"'{seed}:pdf:' || g.i || ':nb'"
    pdf_c_tag = f"'{seed}:pdf:' || p.i || ':c'"
    return (
        "WITH imgs AS ("
        f"SELECT g.i AS i, {_sent_sql(img_tag)} AS content, "
        f"{_MD5U64.format(v=img_c_tag)} < {th} AS corrupt "
        f"FROM generate_series(0, {n_img - 1}) g(i)), "
        "imgk AS (SELECT i, 'img:' || content || "
        "CASE WHEN corrupt THEN ':C' ELSE '' END AS key FROM imgs), "
        "imgr AS ("
        "SELECT printf('mem://img/%06d', i) AS ref, key FROM imgk "
        "UNION ALL "
        "SELECT printf('mirror://img/%06d', i), key FROM imgk WHERE i % 3 = 0), "
        "pdfb AS ("
        "SELECT g.i AS i, gj.j AS j, "
        f"CAST(([10,30,230,250,450])[CAST({_MD5U64.format(v=pdfj_tag)} % 5 AS INT) + 1] AS INT) AS x, "
        f"CAST(40 * gj.j + CAST(({_MD5U64.format(v=pdfj_tag)} // 5) % 21 AS INT) AS INT) AS y, "
        f"{_sent_sql(pdfj_s_tag)} AS s "
        f"FROM generate_series(0, {n_pdf - 1}) g(i) "
        "CROSS JOIN generate_series(0, 3) gj(j) "
        f"WHERE gj.j <= CAST({_MD5U64.format(v=pdf_nb_tag)} % 4 AS INT)), "
        "pdfj AS ("
        "SELECT i, '{\"blocks\": [' || "
        "string_agg('{\"text\": \"' || s || '\", \"x\": ' || x || ', \"y\": ' || y || '}', "
        "', ' ORDER BY j) || ']}' AS body FROM pdfb GROUP BY i), "
        "pdfk AS (SELECT p.i AS i, 'pdf:' || p.body || "
        f"CASE WHEN {_MD5U64.format(v=pdf_c_tag)} < {th} THEN ':C' ELSE '' END "
        "AS key FROM pdfj p), "
        "pdfr AS ("
        "SELECT printf('mem://pdf/%06d', i) AS ref, key FROM pdfk "
        "UNION ALL "
        "SELECT printf('mirror://pdf/%06d', i), key FROM pdfk WHERE i % 3 = 0), "
        "allr AS (SELECT * FROM imgr UNION ALL SELECT * FROM pdfr) "
        "SELECT MIN(ref) AS keeper_ref, CAST(COUNT(*) AS BIGINT) AS n_refs "
        "FROM allr GROUP BY key ORDER BY keeper_ref"
    )


_ANN_TOPK_SQL = (
    "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
    "ORDER BY vec_id LIMIT 3) "
    "SELECT q.query_id AS query_id, e.vec_id AS vec_id FROM q CROSS JOIN embeddings e "
    "QUALIFY row_number() OVER (PARTITION BY q.query_id "
    "ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) <= 10"
)


_CCNET_BUCKET_SQL = (
    # replay of analytics.ccnet_bucket_counts: shared tokenizer, per-token
    # whole bits via the bit_length identity, mean-millibit floor-div
    # score, per-lang ceil(n/3)/ceil(2n/3) order-statistic thresholds via
    # row_number, bucket CASE, zero-count buckets kept by the base frame
    "WITH tok AS (SELECT doc_id, lang, "
    "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS token "
    "FROM documents), "
    "c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS c FROM tok GROUP BY 1), "
    "nt AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM tok), "
    "d AS (SELECT t.doc_id, t.lang, "
    "SUM(length(bin((SELECT n FROM nt) // c.c)) - 1) AS total_bits, "
    "CAST(COUNT(*) AS BIGINT) AS n_tokens "
    "FROM tok t JOIN c ON c.token = t.token GROUP BY 1, 2), "
    "s AS (SELECT doc_id, lang, total_bits * 1000 // n_tokens AS score FROM d), "
    "r AS (SELECT lang, score, "
    "row_number() OVER (PARTITION BY lang ORDER BY score) AS rn, "
    "COUNT(*) OVER (PARTITION BY lang) AS n FROM s), "
    "th AS (SELECT lang, "
    "MAX(CASE WHEN rn = (n + 2) // 3 THEN score END) AS t1, "
    "MAX(CASE WHEN rn = (2 * n + 2) // 3 THEN score END) AS t2 "
    "FROM r GROUP BY lang), "
    "b AS (SELECT s.lang, CASE WHEN s.score <= th.t1 THEN 'head' "
    "WHEN s.score <= th.t2 THEN 'middle' ELSE 'tail' END AS bucket "
    "FROM s JOIN th ON th.lang = s.lang), "
    "base AS (SELECT lang, unnest(['head', 'middle', 'tail']) AS bucket FROM th) "
    "SELECT base.lang, base.bucket, "
    "CAST(COALESCE(COUNT(b.lang), 0) AS BIGINT) AS n_docs "
    "FROM base LEFT JOIN b ON b.lang = base.lang AND b.bucket = base.bucket "
    "GROUP BY 1, 2 ORDER BY 1, 2"
)


def _filter_impact_sql(threshold_ppm: int = 400_000,
                       four_fifths_ppm: int = 800_000) -> str:
    """Replay of ``analytics.filter_impact_audit``: the shared quality
    CTEs, the >= threshold gate, per-lang floor-div pass rates, the
    max-rate impact ratio and the four-fifths flag (uniform-rejection
    degenerate case pinned to ratio 1e6 / flag 0 on both sides)."""
    return (
        f"WITH {_quality_ctes('lang')}, "
        f"q AS (SELECT lang, {_QPPM_EXPR} AS qp FROM r), "
        "g AS (SELECT lang, COUNT(*) AS n_docs, "
        f"SUM(CASE WHEN qp >= {threshold_ppm} THEN 1 ELSE 0 END) AS n_pass "
        "FROM q GROUP BY 1), "
        "g2 AS (SELECT lang, n_docs, n_pass, "
        "n_pass * 1000000 // n_docs AS pass_rate_ppm FROM g), "
        "m AS (SELECT MAX(pass_rate_ppm) AS mr FROM g2) "
        "SELECT lang, CAST(n_docs AS BIGINT) AS n_docs, "
        "CAST(n_pass AS BIGINT) AS n_pass, "
        "CAST(pass_rate_ppm AS BIGINT) AS pass_rate_ppm, "
        "CAST(CASE WHEN (SELECT mr FROM m) = 0 THEN 1000000 "
        "ELSE pass_rate_ppm * 1000000 // (SELECT mr FROM m) END AS BIGINT) "
        "AS impact_ratio_ppm, "
        "CAST(CASE WHEN (SELECT mr FROM m) = 0 THEN 0 "
        f"WHEN pass_rate_ppm * 1000000 // (SELECT mr FROM m) < {four_fifths_ppm} "
        "THEN 1 ELSE 0 END AS BIGINT) AS flag_disparate "
        "FROM g2 ORDER BY lang"
    )


_TEXTTILING_SQL = (
    # replay of analytics.texttiling_boundaries: shared tokenizer,
    # position -> 20-token block fold, adjacent-block integer dot/norms,
    # squared-cosine ppm (squaring removes the sqrt), < 250k boundary
    # rule, one-block docs pinned to (0 gaps, 0 boundaries, 1e6)
    "WITH d0 AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') "
    "AS ts FROM documents), "
    "d1 AS (SELECT doc_id, ts FROM d0 WHERE len(ts) > 0), "
    "mx AS (SELECT MAX(len(ts)) AS m FROM d1), "
    "dims AS (SELECT unnest(generate_series(1, (SELECT m FROM mx))) AS i), "
    "tok AS (SELECT doc_id, ts[i] AS token, (i - 1) // 20 AS block "
    "FROM d1, dims WHERE i <= len(ts)), "
    "cnt AS (SELECT doc_id, block, token, CAST(COUNT(*) AS BIGINT) AS c "
    "FROM tok GROUP BY 1, 2, 3), "
    "norms AS (SELECT doc_id, block, SUM(c * c) AS norm FROM cnt GROUP BY 1, 2), "
    "nb AS (SELECT doc_id, MAX(block) + 1 AS n_blocks FROM norms GROUP BY 1), "
    "dots AS (SELECT a.doc_id, a.block, SUM(a.c * b.c) AS dot FROM cnt a "
    "JOIN cnt b ON b.doc_id = a.doc_id AND b.block = a.block + 1 "
    "AND b.token = a.token GROUP BY 1, 2), "
    "gaps AS (SELECT n1.doc_id, n1.block, COALESCE(d.dot, 0) AS dot, "
    "n1.norm AS na, n2.norm AS nbm FROM norms n1 "
    "JOIN norms n2 ON n2.doc_id = n1.doc_id AND n2.block = n1.block + 1 "
    "LEFT JOIN dots d ON d.doc_id = n1.doc_id AND d.block = n1.block), "
    "sc AS (SELECT doc_id, dot * dot * 1000000 // (na * nbm) AS cos2 FROM gaps), "
    "per AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_gaps, "
    "CAST(MIN(cos2) AS BIGINT) AS min_c, "
    "CAST(SUM(CASE WHEN cos2 < 250000 THEN 1 ELSE 0 END) AS BIGINT) AS n_b "
    "FROM sc GROUP BY 1) "
    "SELECT nb.doc_id, CAST(nb.n_blocks AS BIGINT) AS n_blocks, "
    "CAST(COALESCE(per.n_gaps, 0) AS BIGINT) AS n_gaps, "
    "CAST(COALESCE(per.n_b, 0) AS BIGINT) AS n_boundaries, "
    "CAST(COALESCE(per.min_c, 1000000) AS BIGINT) AS min_cos2_ppm "
    "FROM nb LEFT JOIN per ON per.doc_id = nb.doc_id ORDER BY 1"
)


def _nb_source_classifier_sql(train_mod: int = 10, train_lt: int = 8) -> str:
    """Replay of ``analytics.nb_source_classifier``: the md5-prefix
    train/test split, (source, token) train counts under the shared
    ``[a-z0-9]+`` lowered tokenizer, add-one-smoothed whole-bit token
    costs via ``length(bin((N_s + V) // (c + 1))) - 1``, whole-bit
    priors, argmin prediction with the (score, source) tie-break, and
    the (actual, predicted) confusion fold. Candidate labels are
    sources with >= 1 train token (ns), matching the engine."""
    split = _MD5U64.format(v="CAST(doc_id AS VARCHAR) || ':nbsplit'")
    return (
        "WITH tr AS (SELECT doc_id, source, lower(text) AS txt FROM documents "
        f"WHERE {split} % {train_mod} < {train_lt}), "
        "te AS (SELECT doc_id, source, lower(text) AS txt FROM documents "
        f"WHERE {split} % {train_mod} >= {train_lt}), "
        "trtok AS (SELECT source, unnest(regexp_extract_all(txt, '[a-z0-9]+')) "
        "AS token FROM tr), "
        "ct AS (SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c "
        "FROM trtok GROUP BY 1, 2), "
        "ns AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS nt FROM trtok GROUP BY 1), "
        "vocab AS (SELECT CAST(COUNT(DISTINCT token) AS BIGINT) AS v FROM trtok), "
        "prior AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS nd FROM tr GROUP BY 1), "
        "ndt AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM tr), "
        "tetok AS (SELECT doc_id, token, CAST(COUNT(*) AS BIGINT) AS cnt FROM "
        "(SELECT doc_id, unnest(regexp_extract_all(txt, '[a-z0-9]+')) AS token "
        "FROM te) GROUP BY 1, 2), "
        "sc AS (SELECT t.doc_id, s.source, SUM(t.cnt * "
        "(length(bin((s.nt + (SELECT v FROM vocab)) // (COALESCE(c.c, 0) + 1))) - 1)) "
        "AS tokbits FROM tetok t CROSS JOIN ns s "
        "LEFT JOIN ct c ON c.source = s.source AND c.token = t.token GROUP BY 1, 2), "
        "fl AS (SELECT sc.doc_id, sc.source, sc.tokbits + "
        "(length(bin((SELECT n FROM ndt) // p.nd)) - 1) AS score "
        "FROM sc JOIN prior p ON p.source = sc.source), "
        "pred AS (SELECT doc_id, source AS predicted FROM fl "
        "QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY score, source) = 1) "
        "SELECT te.source AS actual, p.predicted AS predicted, "
        "CAST(COUNT(*) AS BIGINT) AS n_docs "
        "FROM pred p JOIN te ON te.doc_id = p.doc_id GROUP BY 1, 2 ORDER BY 1, 2"
    )


def _hybrid_sql(k: int = 10, rrf_k: int = 60) -> str:
    """Replay of ``analytics.hybrid_topk``: the BM25 oracle and the
    brute-force cosine ranking as CTEs, per-system 1-based ranks with the
    engine's tie-breaks, integer ``1_000_000 // (rrf_k + rank)`` points,
    union + grouped sum, per-query top-k on (rrf_score desc, doc_id asc)."""
    return (
        f"WITH sparse AS ({_bm25_sql()}), "
        "spts AS (SELECT query_id, doc_id, 1000000 // (" + str(rrf_k) + " + "
        "CAST(row_number() OVER (PARTITION BY query_id ORDER BY score_ppm DESC, doc_id) "
        "AS BIGINT)) AS pts FROM sparse), "
        "dq AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
        "ORDER BY vec_id LIMIT 3), "
        "dense AS (SELECT dq.query_id AS query_id, e.vec_id AS doc_id, "
        "CAST(row_number() OVER (PARTITION BY dq.query_id "
        "ORDER BY list_cosine_similarity(dq.qe, e.embedding) DESC, e.vec_id) AS BIGINT) AS rnk "
        f"FROM dq CROSS JOIN embeddings e QUALIFY rnk <= {k}), "
        f"dpts AS (SELECT query_id, doc_id, 1000000 // ({rrf_k} + rnk) AS pts FROM dense), "
        "fused AS (SELECT query_id, doc_id, CAST(SUM(pts) AS BIGINT) AS rrf_score FROM "
        "(SELECT * FROM spts UNION ALL SELECT * FROM dpts) GROUP BY query_id, doc_id) "
        "SELECT query_id, doc_id, rrf_score FROM fused "
        f"QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY rrf_score DESC, doc_id) <= {k}"
    )


def _edges_ctes() -> str:
    """Shared CTE prefix replaying ``analytics.derived_link_edges`` (the
    md5-derived citation graph; deg fixed BEFORE the self-loop drop)."""
    deg_h = _MD5U64.format(v="CAST(doc_id AS VARCHAR) || ':deg'")
    lnk_h = _MD5U64.format(v="CAST(src AS VARCHAR) || ':link:' || CAST(j AS VARCHAR)")
    return (
        "nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents), "
        f"degs AS (SELECT doc_id AS src, CAST(1 + {deg_h} % 3 AS BIGINT) AS deg FROM documents), "
        "lnk AS (SELECT src, deg, unnest(range(deg)) AS j FROM degs), "
        f"edges AS (SELECT src, deg, dst FROM (SELECT src, deg, CAST({lnk_h} % nn.n AS BIGINT) "
        "AS dst FROM lnk, nn) WHERE dst <> src)"
    )


def _lpa_cte_parts(rounds: int = 4) -> list:
    """Shared CTE chain for the LPA replays (communities + modularity):
    distinct undirected edges from the citation-graph CTEs, then
    ``rounds`` synchronous voting rounds -- self-vote unioned with
    neighbor labels, modal vote with QUALIFY (n DESC, lab) = 1. Chained
    CTEs MATERIALIZED (same exponential-inlining hazard as
    _kcenter_sql)."""
    parts = [
        f"WITH {_edges_ctes()}, "
        "und AS MATERIALIZED (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM edges), "
        "sym AS MATERIALIZED (SELECT a AS node, b AS nbr FROM und "
        "UNION ALL SELECT b, a FROM und), "
        "l0 AS MATERIALIZED (SELECT doc_id AS node, "
        "CAST(doc_id AS BIGINT) AS lab FROM documents)"
    ]
    for t in range(1, rounds + 1):
        parts.append(
            f"v{t} AS MATERIALIZED (SELECT s.node, l.lab FROM sym s "
            f"JOIN l{t - 1} l ON l.node = s.nbr "
            f"UNION ALL SELECT node, lab FROM l{t - 1})"
        )
        parts.append(
            f"l{t} AS MATERIALIZED (SELECT node, lab FROM "
            f"(SELECT node, lab, COUNT(*) AS n FROM v{t} GROUP BY 1, 2) "
            "QUALIFY row_number() OVER (PARTITION BY node "
            "ORDER BY n DESC, lab) = 1)"
        )
    return parts


def _lpa_sql(rounds: int = 4) -> str:
    """Replay of ``analytics.lpa_communities`` (chain: _lpa_cte_parts)."""
    return (
        ", ".join(_lpa_cte_parts(rounds))
        + f" SELECT node AS doc_id, lab AS community FROM l{rounds} "
        "ORDER BY doc_id"
    )


def _lpa_modularity_sql(rounds: int = 4) -> str:
    """Replay of ``analytics.lpa_modularity``: the shared LPA chain, both
    endpoint communities joined onto the distinct undirected edges, the
    per-community (degree mass, within-edges) fold, and
    Q = sum(4*m*e_c - d_c^2) / (4*m^2) in HUGEINT with the sign-split
    truncating ppm."""
    parts = _lpa_cte_parts(rounds)
    parts.append(
        f"la AS MATERIALIZED (SELECT fa.lab AS ca, fb.lab AS cb FROM und u "
        f"JOIN l{rounds} fa ON fa.node = u.a "
        f"JOIN l{rounds} fb ON fb.node = u.b)"
    )
    parts.append("mm AS (SELECT CAST(COUNT(*) AS HUGEINT) AS m FROM la)")
    parts.append(
        "pc AS MATERIALIZED (SELECT c, SUM(deg) AS d_c, SUM(w) AS e_c FROM "
        "(SELECT ca AS c, 1 AS deg, CASE WHEN ca = cb THEN 1 ELSE 0 END AS w "
        "FROM la UNION ALL SELECT cb, 1, 0 FROM la) GROUP BY 1)"
    )
    parts.append(
        "ag AS (SELECT SUM(4 * (SELECT m FROM mm) * CAST(e_c AS HUGEINT) - "
        "CAST(d_c AS HUGEINT) * d_c) AS num, COUNT(*) AS nc FROM pc)"
    )
    return (
        ", ".join(parts)
        + " SELECT CAST((SELECT m FROM mm) AS BIGINT) AS m_edges, "
        "CAST((SELECT nc FROM ag) AS BIGINT) AS n_communities, "
        "CAST(CASE WHEN (SELECT m FROM mm) = 0 THEN 0 "
        "WHEN (SELECT num FROM ag) >= 0 THEN ((SELECT num FROM ag) * 1000000) "
        "// (4 * (SELECT m FROM mm) * (SELECT m FROM mm)) "
        "ELSE -((-(SELECT num FROM ag) * 1000000) "
        "// (4 * (SELECT m FROM mm) * (SELECT m FROM mm))) END AS BIGINT) "
        "AS modularity_ppm"
    )


def _kcore_sql(k: int = 2, rounds: int = 4) -> str:
    """Replay of ``analytics.kcore_nodes``: distinct undirected edges,
    then ``rounds`` unrolled peel iterations -- surviving-subgraph degree
    via a double semi-join, threshold >= k. Chained CTEs MATERIALIZED."""
    parts = [
        f"WITH {_edges_ctes()}, "
        "und AS MATERIALIZED (SELECT DISTINCT LEAST(src, dst) AS a, "
        "GREATEST(src, dst) AS b FROM edges), "
        "sym AS MATERIALIZED (SELECT a AS node, b AS nbr FROM und "
        "UNION ALL SELECT b, a FROM und), "
        "s0 AS MATERIALIZED (SELECT doc_id AS node FROM documents)"
    ]
    for t in range(1, rounds + 1):
        parts.append(
            f"d{t} AS MATERIALIZED (SELECT e.node, COUNT(*) AS dg FROM sym e "
            f"JOIN s{t - 1} x ON x.node = e.node "
            f"JOIN s{t - 1} y ON y.node = e.nbr GROUP BY 1)"
        )
        parts.append(
            f"s{t} AS MATERIALIZED (SELECT node FROM d{t} WHERE dg >= {k})"
        )
    return (
        ", ".join(parts)
        + f" SELECT CAST(node AS BIGINT) AS doc_id FROM s{rounds} "
        "ORDER BY doc_id"
    )


def _hits_sql(rounds: int = 3, topn: int = 20, scale: int = 1_000_000) -> str:
    """Replay of ``analytics.hits_scores``: the shared edge CTEs, then
    ``rounds`` unrolled half-step pairs -- authority = grouped HUGEINT sum
    of hub over in-edges then ``(s * scale) // MAX(s)``, hub likewise over
    out-edges -- and the (auth DESC, id) top-n with hub attached by LEFT
    JOIN (absent hub = 0). All chained CTEs MATERIALIZED."""
    parts = [
        f"WITH {_edges_ctes()}, "
        "e AS MATERIALIZED (SELECT src, dst FROM edges), "
        "h0 AS MATERIALIZED (SELECT doc_id AS node, "
        f"CAST({scale} AS BIGINT) AS v FROM documents)"
    ]
    for t in range(1, rounds + 1):
        parts.append(
            f"ar{t} AS MATERIALIZED (SELECT e.dst AS node, SUM(h.v) AS s "
            f"FROM e JOIN h{t - 1} h ON h.node = e.src GROUP BY 1)"
        )
        parts.append(
            f"a{t} AS MATERIALIZED (SELECT node, (s * {scale}) // "
            f"(SELECT MAX(s) FROM ar{t}) AS v FROM ar{t})"
        )
        parts.append(
            f"hr{t} AS MATERIALIZED (SELECT e.src AS node, SUM(a.v) AS s "
            f"FROM e JOIN a{t} a ON a.node = e.dst GROUP BY 1)"
        )
        parts.append(
            f"h{t} AS MATERIALIZED (SELECT node, (s * {scale}) // "
            f"(SELECT MAX(s) FROM hr{t}) AS v FROM hr{t})"
        )
    return (
        ", ".join(parts)
        + f" SELECT CAST(t.node AS BIGINT) AS doc_id, "
        "CAST(t.v AS BIGINT) AS auth_scaled, "
        "CAST(COALESCE(hh.v, 0) AS BIGINT) AS hub_scaled "
        f"FROM (SELECT node, v FROM a{rounds} ORDER BY v DESC, node "
        f"LIMIT {topn}) t LEFT JOIN h{rounds} hh ON hh.node = t.node "
        "ORDER BY t.v DESC, t.node"
    )


def _triangle_sql() -> str:
    """Replay of ``analytics.triangle_count``: canonical a<b distinct edges,
    wedge at the smallest vertex, closing-edge probe."""
    return (
        f"WITH {_edges_ctes()}, "
        "und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b FROM edges) "
        "SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles FROM und e1 "
        "JOIN und e2 ON e1.a = e2.a AND e1.b < e2.b "
        "JOIN und e3 ON e3.a = e1.b AND e3.b = e2.b"
    )


def _pagerank_sql(iters: int = 4, damping_pct: int = 85, topn: int = 20) -> str:
    """Unrolled-CTE replay of ``analytics.pagerank_top``: md5-derived edges
    (deg fixed BEFORE self-loop drop), integer rank recurrence
    ``r' = BASE + (damping * SUM(r//deg)) // 100``. Every quantity is a
    non-negative integer, so DuckDB's truncating ``//`` == Python floor
    division throughout."""
    parts = [
        f"WITH {_edges_ctes()}, ",
        "consts AS (SELECT n, 1000000000000 // n AS r0, "
        f"((100 - {damping_pct}) * (1000000000000 // n)) // 100 AS base FROM nn), ",
        "r0 AS (SELECT doc_id AS node, (SELECT r0 FROM consts) AS rank FROM documents), ",
    ]
    for t in range(iters):
        parts.append(
            f"r{t + 1} AS (SELECT d.doc_id AS node, CAST((SELECT base FROM consts) + "
            f"({damping_pct} * COALESCE(i.inc, 0)) // 100 AS BIGINT) AS rank "
            "FROM documents d LEFT JOIN ("
            "SELECT e.dst AS node, SUM(r.rank // e.deg) AS inc "
            f"FROM edges e JOIN r{t} r ON r.node = e.src GROUP BY e.dst"
            ") i ON i.node = d.doc_id), "
        )
    body = "".join(parts).rstrip().rstrip(",")
    return (
        f"{body} SELECT node AS doc_id, rank AS rank_scaled FROM r{iters} "
        f"ORDER BY rank DESC, node LIMIT {topn}"
    )


def _ppr_sql(iters: int = 4, damping_pct: int = 85, topn: int = 20,
             topic_lang: str = "en") -> str:
    """Replay of ``analytics.ppr_top``: the pagerank recurrence with the
    teleport concentrated on the topic slice -- r0 and the per-node base
    are CASE-gated on lang, mass S // nT; all quantities non-negative
    ints so ``//`` parity holds throughout."""
    s = 1_000_000_000_000
    parts = [
        f"WITH {_edges_ctes()}, ",
        f"tt AS (SELECT COUNT(*) AS nt FROM documents WHERE lang = '{topic_lang}'), ",
        f"cc AS (SELECT nt, {s} // nt AS r0, "
        f"((100 - {damping_pct}) * ({s} // nt)) // 100 AS bt FROM tt), ",
        f"bt AS (SELECT doc_id AS node, CASE WHEN lang = '{topic_lang}' "
        "THEN (SELECT bt FROM cc) ELSE 0 END AS base FROM documents), ",
        f"r0 AS (SELECT doc_id AS node, CAST(CASE WHEN lang = '{topic_lang}' "
        "THEN (SELECT r0 FROM cc) ELSE 0 END AS BIGINT) AS rank "
        "FROM documents), ",
    ]
    for t in range(iters):
        parts.append(
            f"r{t + 1} AS (SELECT b.node, CAST(b.base + "
            f"({damping_pct} * COALESCE(i.inc, 0)) // 100 AS BIGINT) AS rank "
            "FROM bt b LEFT JOIN ("
            "SELECT e.dst AS node, SUM(r.rank // e.deg) AS inc "
            f"FROM edges e JOIN r{t} r ON r.node = e.src GROUP BY e.dst"
            ") i ON i.node = b.node), "
        )
    body = "".join(parts).rstrip().rstrip(",")
    return (
        f"{body} SELECT node AS doc_id, rank AS rank_scaled FROM r{iters} "
        f"ORDER BY rank DESC, node LIMIT {topn}"
    )


def _kmeans_assign_ctes(k: int = 8, iters: int = 3, scale: int = 1000) -> str:
    """Unrolled-CTE replay of the shared Lloyd fit (``analytics._kmeans_fit``
    + final assignment): long-form integer-quantized vectors, md5-key
    seeding, then per iteration the (exact-int distance -> argmin assign
    with (d, cid) tie-break -> floor-rounded integer mean with
    empty-cluster carry) CTE triple, ending at the per-vector ``aF``
    assignment CTE. Integer and identically-rounded float64 ops only --
    bit-exact vs the numpy engine (quantization parity verified on the
    testdata). Consumed by _kmeans_sql and _semdedup_sql."""
    hkey = "('0x' || substr(md5(CAST(vec_id AS VARCHAR)),1,16))::UBIGINT"
    parts = [
        "WITH vlong AS (SELECT vec_id, "
        "unnest(range(len(embedding))) AS dim, "
        f"CAST(floor(CAST(unnest(embedding) AS DOUBLE)*{scale} + 0.5) AS BIGINT) AS val "
        "FROM embeddings), ",
        "seeds AS (SELECT vec_id, "
        f"CAST(row_number() OVER (ORDER BY {hkey}, vec_id) - 1 AS BIGINT) AS cid "
        f"FROM embeddings QUALIFY row_number() OVER (ORDER BY {hkey}, vec_id) <= {k}), ",
        "c0 AS (SELECT s.cid, v.dim, v.val FROM seeds s JOIN vlong v USING (vec_id)), ",
    ]
    for t in range(iters):
        parts += [
            f"d{t} AS (SELECT v.vec_id, c.cid, SUM((v.val - c.val)*(v.val - c.val)) AS d "
            f"FROM vlong v JOIN c{t} c USING (dim) GROUP BY v.vec_id, c.cid), ",
            f"a{t} AS (SELECT vec_id, cid FROM (SELECT vec_id, cid, "
            f"row_number() OVER (PARTITION BY vec_id ORDER BY d, cid) AS rn FROM d{t}) "
            "WHERE rn = 1), ",
            f"n{t} AS (SELECT a.cid, v.dim, "
            "CAST(floor(CAST(SUM(v.val) AS DOUBLE)/COUNT(*) + 0.5) AS BIGINT) AS val "
            f"FROM a{t} a JOIN vlong v USING (vec_id) GROUP BY a.cid, v.dim), ",
            f"c{t + 1} AS (SELECT c.cid, c.dim, COALESCE(n.val, c.val) AS val "
            f"FROM c{t} c LEFT JOIN n{t} n ON n.cid = c.cid AND n.dim = c.dim), ",
        ]
    parts += [
        f"dF AS (SELECT v.vec_id, c.cid, SUM((v.val - c.val)*(v.val - c.val)) AS d "
        f"FROM vlong v JOIN c{iters} c USING (dim) GROUP BY v.vec_id, c.cid), ",
        "aF AS (SELECT vec_id, cid FROM (SELECT vec_id, cid, "
        "row_number() OVER (PARTITION BY vec_id ORDER BY d, cid) AS rn FROM dF) "
        "WHERE rn = 1) ",
    ]
    return "".join(parts)


def _cluster_balanced_sample_sql(k: int = 8, iters: int = 3,
                                per_cluster: int = 8,
                                scale: int = 1000) -> str:
    """Replay of ``analytics.cluster_balanced_sample``: the shared Lloyd
    assignment CTEs ending at aF, then a per-cluster QUALIFY over the
    sampling family's md5-prefix roll with (roll, vec_id) ties."""
    roll = "('0x' || substr(md5('cbs:' || CAST(vec_id AS VARCHAR)), 1, 16))::UBIGINT"
    return _kmeans_assign_ctes(k=k, iters=iters, scale=scale) + (
        "SELECT cid AS cluster_id, vec_id FROM aF "
        f"QUALIFY row_number() OVER (PARTITION BY cid ORDER BY {roll}, vec_id) "
        f"<= {per_cluster} ORDER BY cluster_id, vec_id"
    )


def _kmeans_sql(k: int = 8, iters: int = 3, scale: int = 1000) -> str:
    """Cluster fingerprint on top of the shared assignment CTEs."""
    return _kmeans_assign_ctes(k=k, iters=iters, scale=scale) + (
        "SELECT cid AS cluster_id, CAST(COUNT(*) AS BIGINT) AS n_vecs, "
        "CAST(SUM(vec_id) AS BIGINT) AS sum_vec_id FROM aF GROUP BY cid ORDER BY cluster_id"
    )


def _semdedup_sql(k: int = 8, iters: int = 3, scale: int = 1000,
                  threshold: float = 0.4) -> str:
    """Replay of analytics.semdedup_keepers: the shared kmeans assignment
    CTEs, then the dominance rule — a vector survives iff NO smaller-id
    vector in its cluster has cosine >= threshold. The engine computes
    cosine on float64 copies of the float32 lists; DuckDB's
    list_cosine_similarity agrees far inside the 1.3e-4 pair-to-threshold
    margin measured on the testdata."""
    return _kmeans_assign_ctes(k=k, iters=iters, scale=scale) + (
        "SELECT a.vec_id, a.cid AS cluster_id FROM aF a "
        "WHERE NOT EXISTS (SELECT 1 FROM aF b "
        "JOIN embeddings ea ON ea.vec_id = a.vec_id "
        "JOIN embeddings eb ON eb.vec_id = b.vec_id "
        "WHERE b.cid = a.cid AND b.vec_id < a.vec_id "
        f"AND list_cosine_similarity(ea.embedding, eb.embedding) >= {threshold}) "
        "ORDER BY vec_id"
    )


_BPE_MERGE_SQL = (
    # replay of analytics.bpe_merge_candidates: [a-z0-9]+ tokens of the
    # lowered text -> word frequencies -> adjacent char pairs via
    # unnest(range) -> weighted sum -> top-50 (n DESC, pair ASC)
    "WITH toks AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w "
    "FROM documents), "
    "wf AS (SELECT w, COUNT(*) AS f FROM toks GROUP BY w), "
    "ex AS (SELECT w, f, unnest(range(1, length(w))) AS g FROM wf), "
    "pc AS (SELECT substr(w, CAST(g AS INT), 2) AS pair, SUM(f) AS n "
    "FROM ex GROUP BY 1) "
    "SELECT pair, CAST(n AS BIGINT) AS n FROM pc ORDER BY n DESC, pair LIMIT 50"
)


def _leading_ones16(u: str) -> str:
    """SQL for the leading-ones count of a 16-bit integer expression: a
    sum of 16 monotone threshold indicators (>= j leading ones iff
    u >= 2^16 - 2^(16-j)) -- mirrors analytics._md5_leading_ones16."""
    terms = " + ".join(
        f"(CASE WHEN {u} >= {65536 - (1 << (16 - j))} THEN 1 ELSE 0 END)"
        for j in range(1, 17)
    )
    return f"({terms})"


def _dp_geometric_sql() -> str:
    u1 = "CAST(('0x' || substr(md5('dp1:' || lang), 1, 4)) AS INTEGER)"
    u2 = "CAST(('0x' || substr(md5('dp1:' || lang), 5, 4)) AS INTEGER)"
    return (
        # replay of analytics.dp_geometric_counts: noise = G1 - G2, each a
        # geometric(1/2) draw as the leading-ones count of 16 md5 bits
        "WITH c AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n "
        "FROM documents GROUP BY lang), "
        f"h AS (SELECT lang, n, {u1} AS u1, {u2} AS u2 FROM c) "
        f"SELECT lang, n, CAST({_leading_ones16('u1')} - {_leading_ones16('u2')} "
        "AS BIGINT) AS noise, "
        f"CAST(n + {_leading_ones16('u1')} - {_leading_ones16('u2')} AS BIGINT) "
        "AS dp_count FROM h ORDER BY lang"
    )


_PADDING_WASTE_SQL = (
    # replay of analytics.padding_waste_by_bucket: RE2 \\S token count,
    # power-of-two CASE ladder (16..8192, long docs clamp into the top),
    # GREATEST-0 bucket waste, truncating ppm over all-positive ints
    "WITH n AS (SELECT len(regexp_extract_all(text, '[^ \\t\\n\\f\\r]+')) AS nt "
    "FROM documents), "
    "b AS (SELECT CASE WHEN nt <= 16 THEN 16 WHEN nt <= 32 THEN 32 WHEN nt <= 64 THEN 64 WHEN nt <= 128 THEN 128 WHEN nt <= 256 THEN 256 WHEN nt <= 512 THEN 512 WHEN nt <= 1024 THEN 1024 WHEN nt <= 2048 THEN 2048 WHEN nt <= 4096 THEN 4096 ELSE 8192 END AS bucket, nt FROM n), "
    "g AS (SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n_docs, "
    "CAST(SUM(nt) AS BIGINT) AS sum_tokens FROM b GROUP BY 1) "
    "SELECT CAST(bucket AS BIGINT) AS bucket, n_docs, sum_tokens, "
    "CAST(GREATEST(bucket*n_docs - sum_tokens, 0) AS BIGINT) AS waste_tokens, "
    "CAST(GREATEST(bucket*n_docs - sum_tokens, 0) * 1000000 "
    "// GREATEST(bucket*n_docs, 1) AS BIGINT) AS waste_ppm "
    "FROM g ORDER BY bucket"
)


_CHAO1_SQL = (
    # replay of analytics.chao1_vocab_estimate: word-frequency CTE ->
    # singleton/doubleton folds, bias-corrected Chao1 and Good-Turing
    # coverage in pure BIGINT floor arithmetic
    "WITH toks AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w "
    "FROM documents), "
    "wf AS (SELECT w, COUNT(*) AS f FROM toks GROUP BY w) "
    "SELECT CAST(COUNT(*) AS BIGINT) AS v_obs, "
    "CAST(COUNT(*) FILTER (f = 1) AS BIGINT) AS f1, "
    "CAST(COUNT(*) FILTER (f = 2) AS BIGINT) AS f2, "
    "CAST(COUNT(*) + (COUNT(*) FILTER (f = 1)) * (COUNT(*) FILTER (f = 1) - 1) "
    "// (2 * (COUNT(*) FILTER (f = 2) + 1)) AS BIGINT) AS v_chao1, "
    "CAST((COALESCE(SUM(f), 0) - COUNT(*) FILTER (f = 1)) * 1000000 "
    "// GREATEST(COALESCE(SUM(f), 0), 1) AS BIGINT) AS coverage_ppm "
    "FROM wf"
)


_VOCAB_PRUNING_SQL = (
    # replay of analytics.vocab_pruning_plan: word-frequency CTE x the
    # threshold list, FILTER folds, truncating ppm on all-positive ints
    "WITH toks AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w "
    "FROM documents), "
    "wf AS (SELECT w, COUNT(*) AS f FROM toks GROUP BY w), "
    "tot AS (SELECT CAST(SUM(f) AS BIGINT) AS t_occ, "
    "CAST(COUNT(*) AS BIGINT) AS t_types FROM wf), "
    "th AS (SELECT unnest([1, 2, 5, 10, 100]) AS min_count) "
    "SELECT CAST(th.min_count AS BIGINT) AS min_count, "
    "CAST(COUNT(*) FILTER (wf.f >= th.min_count) AS BIGINT) AS kept_types, "
    "CAST(tot.t_types - COUNT(*) FILTER (wf.f >= th.min_count) AS BIGINT) AS oov_types, "
    "CAST(COALESCE(SUM(wf.f) FILTER (wf.f >= th.min_count), 0) AS BIGINT) "
    "AS kept_occurrences, "
    "CAST((tot.t_occ - COALESCE(SUM(wf.f) FILTER (wf.f >= th.min_count), 0)) "
    "* 1000000 // GREATEST(tot.t_occ, 1) AS BIGINT) AS oov_ppm "
    "FROM th CROSS JOIN wf CROSS JOIN tot "
    "GROUP BY th.min_count, tot.t_occ, tot.t_types ORDER BY min_count"
)


_UNIGRAM_POWER_SQL = (
    # replay of analytics.unigram_power_sample_plan: shared tokenizer,
    # grouped counts, w = FLOOR(SQRT(n * FLOOR(SQRT(n)))) (ieee-correctly-
    # rounded on both sides), whole-vocab share ppm, top-30 ranked cut
    "WITH tok AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
    "AS token FROM documents), "
    "c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY 1), "
    "w AS (SELECT token, n, CAST(FLOOR(SQRT(n * FLOOR(SQRT(CAST(n AS DOUBLE))))) "
    "AS BIGINT) AS weight FROM c), "
    "t AS (SELECT SUM(weight) AS sw FROM w) "
    "SELECT token, n, weight, "
    "CAST(weight * 1000000 // (SELECT sw FROM t) AS BIGINT) AS target_share_ppm "
    "FROM w QUALIFY row_number() OVER (ORDER BY weight DESC, token) <= 30 "
    "ORDER BY weight DESC, token"
)


def _ams_f2_sql(k_est: int = 17) -> str:
    """Replay of ``analytics.ams_f2_audit``: shared tokenizer, grouped
    counts, md5-parity signs per (estimator, token), per-estimator sums,
    ordered squares with the single-row median pick (odd k), exact F2
    and floor-div err ppm."""
    h = _MD5U64.format(v="'ams:' || CAST(j AS VARCHAR) || ':' || token")
    return (
        "WITH tok AS (SELECT unnest(regexp_extract_all(lower(text), "
        "'[a-z0-9]+')) AS token FROM documents), "
        "c AS (SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY 1), "
        "ex AS (SELECT CAST(SUM(n * n) AS BIGINT) AS f2 FROM c), "
        f"seeds AS (SELECT unnest(generate_series(0, {k_est - 1})) AS j), "
        f"sj AS (SELECT s.j, SUM(CASE WHEN {h} % 2 = 1 THEN c.n ELSE -c.n END) "
        "AS sv FROM c CROSS JOIN seeds s GROUP BY s.j), "
        "sq AS (SELECT sv * sv AS s2 FROM sj), "
        "med AS (SELECT s2 FROM sq QUALIFY row_number() OVER (ORDER BY s2) "
        f"= {k_est // 2 + 1}) "
        "SELECT CAST(ex.f2 AS BIGINT) AS f2_exact, "
        "CAST(med.s2 AS BIGINT) AS f2_est, "
        "CAST(CASE WHEN ex.f2 = 0 THEN 0 ELSE "
        "CAST(abs(med.s2 - ex.f2) AS HUGEINT) * 1000000 // ex.f2 END "
        "AS BIGINT) AS err_ppm FROM ex, med"
    )


def _max_coverage_sql(k: int = 5) -> str:
    # replay of analytics.max_coverage_select: distinct (doc, bigram)
    # table, k unrolled greedy rounds -- each picks argmax uncovered
    # count (g DESC, doc_id LIMIT 1) and folds its bigrams into c{r}
    parts = [
        "WITH toks AS (SELECT doc_id, "
        "regexp_extract_all(lower(text), '[a-z0-9]+') AS arr FROM documents), "
        "ex AS (SELECT doc_id, arr, unnest(range(1, len(arr))) AS i FROM toks), "
        "dt AS (SELECT DISTINCT doc_id, arr[CAST(i AS INT)] || ' ' || "
        "arr[CAST(i AS INT) + 1] AS w FROM ex)"
    ]
    for r in range(1, k + 1):
        if r == 1:
            parts.append("w1 AS (SELECT doc_id, COUNT(*) AS g FROM dt GROUP BY doc_id)")
        else:
            parts.append(
                f"w{r} AS (SELECT doc_id, COUNT(*) AS g FROM dt "
                f"WHERE w NOT IN (SELECT w FROM c{r - 1}) GROUP BY doc_id)"
            )
        parts.append(f"p{r} AS (SELECT doc_id, g FROM w{r} ORDER BY g DESC, doc_id LIMIT 1)")
        if r == 1:
            parts.append(
                "c1 AS (SELECT DISTINCT w FROM dt "
                "WHERE doc_id IN (SELECT doc_id FROM p1))"
            )
        else:
            parts.append(
                f"c{r} AS (SELECT w FROM c{r - 1} UNION SELECT w FROM dt "
                f"WHERE doc_id IN (SELECT doc_id FROM p{r}))"
            )
    rounds = " UNION ALL ".join(
        f"SELECT CAST({r} AS BIGINT) AS round, doc_id, CAST(g AS BIGINT) AS gain, "
        f"(SELECT CAST(COUNT(*) AS BIGINT) FROM c{r}) AS covered_total FROM p{r}"
        for r in range(1, k + 1)
    )
    return ", ".join(parts) + " " + rounds + " ORDER BY round"


def _blocklist_sql() -> str:
    from distributed_system___ocr_ray.pipelines.analytics import SCREEN_CATEGORIES

    # replay of analytics.blocklist_screen: per category, whole-token
    # hits via tokenize + list_contains (the stopword-kernel parity
    # construction), zero cells preserved by grouping over ALL docs
    parts = []
    for cat, words in SCREEN_CATEGORIES.items():
        lst = ", ".join(f"'{w}'" for w in sorted(words))
        hits = (
            "len(list_filter(regexp_extract_all(lower(text), '[a-z]+'), "
            f"x -> list_contains([{lst}], x)))"
        )
        parts.append(
            f"SELECT '{cat}' AS category, lang, "
            "CAST(COUNT(*) FILTER (h > 0) AS BIGINT) AS n_docs, "
            "CAST(SUM(h) AS BIGINT) AS n_hits "
            f"FROM (SELECT lang, {hits} AS h FROM documents) GROUP BY lang"
        )
    return " UNION ALL ".join(parts) + " ORDER BY category, lang"


def _code_switch_sql(min_hits: int = 2) -> str:
    from distributed_system___ocr_ray.functions.textstats import LANG_ORDER, STOPWORDS

    # replay of analytics.code_switch_rate_by_source over the proven
    # per-language stopword membership construction
    flags = " + ".join(
        f"(CASE WHEN {_sql_stop_hits(STOPWORDS[lang])} >= {min_hits} "
        "THEN 1 ELSE 0 END)"
        for lang in LANG_ORDER
    )
    return (
        f"WITH d AS (SELECT source, CASE WHEN ({flags}) >= 2 THEN 1 ELSE 0 END AS f "
        "FROM documents) "
        "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
        "CAST(SUM(f) AS BIGINT) AS n_code_switch, "
        "CAST(SUM(f) * 1000000 // GREATEST(COUNT(*), 1) AS BIGINT) "
        "AS code_switch_ppm FROM d GROUP BY source ORDER BY source"
    )


_WATERFILL_SQL = (
    # replay of analytics.token_budget_waterfill: supply-ascending window
    # cumsum, per-row level candidate (B - s_{i-1}) // (n-i+1), valid
    # where cand >= previous supply (a_0 = 0), L = MAX(valid), allot =
    # LEAST(a, L). B = total * 2 // 5, all integer.
    "WITH s AS (SELECT source, "
    "CAST(SUM(len(regexp_extract_all(text, '[^ \\t\\n\\f\\r]+'))) AS BIGINT) AS a "
    "FROM documents GROUP BY source), "
    "t AS (SELECT CAST(SUM(a) AS BIGINT) AS total, COUNT(*) AS n FROM s), "
    "b AS (SELECT total * 2 // 5 AS B, n FROM t), "
    "o AS (SELECT source, a, ROW_NUMBER() OVER (ORDER BY a, source) AS i, "
    "SUM(a) OVER (ORDER BY a, source ROWS UNBOUNDED PRECEDING) AS s_i, "
    "COALESCE(LAG(a) OVER (ORDER BY a, source), 0) AS prev FROM s), "
    "cand AS (SELECT (b.B - (o.s_i - o.a)) // (b.n - o.i + 1) AS c, o.prev "
    "FROM o, b), "
    "lvl AS (SELECT MAX(c) AS L FROM cand WHERE c >= prev) "
    "SELECT s.source, s.a AS available_tokens, "
    "CAST(LEAST(s.a, lvl.L) AS BIGINT) AS allotted_tokens, "
    "CAST(CASE WHEN s.a > lvl.L THEN 1 ELSE 0 END AS BIGINT) AS capped "
    "FROM s, lvl ORDER BY s.source"
)


def _random_walks_sql(n_seeds: int = 16, walks_per_seed: int = 4,
                      walk_len: int = 3) -> str:
    seed_h = _MD5U64.format(v="'rwseed:' || CAST(doc_id AS VARCHAR)")
    # replay of analytics.random_walks over the shared edge CTEs:
    # sorted-adjacency lists, md5-arithmetic hop picks, walks end at
    # sink nodes via the step JOIN
    parts = [
        f"{_edges_ctes()}, "
        "de AS (SELECT DISTINCT src, dst FROM edges), "
        "adj AS (SELECT src, list(dst ORDER BY dst) AS arr FROM de GROUP BY src), "
        f"sh AS (SELECT doc_id AS v, {seed_h} AS h FROM documents), "
        f"seeds AS (SELECT v FROM sh ORDER BY h, v LIMIT {n_seeds}), "
        "s0 AS (SELECT v AS seed, CAST(unnest(range("
        f"{walks_per_seed})) AS BIGINT) AS w, v FROM seeds)"
    ]
    for t in range(walk_len):
        hop_h = _MD5U64.format(
            v="'walk:' || CAST(s.seed AS VARCHAR) || ':' || CAST(s.w AS VARCHAR) "
            f"|| ':{t}:' || CAST(s.v AS VARCHAR)"
        )
        parts.append(
            f"s{t + 1} AS (SELECT s.seed, s.w, "
            f"adj.arr[CAST(1 + {hop_h} % len(adj.arr) AS INT)] AS v "
            f"FROM s{t} s JOIN adj ON adj.src = s.v)"
        )
    union = " UNION ALL ".join(
        f"SELECT seed, w AS walk_id, CAST({t} AS BIGINT) AS step, v AS node FROM s{t}"
        for t in range(walk_len + 1)
    )
    return (
        "WITH " + ", ".join(parts) + " "
        + "SELECT seed, walk_id, step, CAST(node AS BIGINT) AS node FROM ("
        + union + ") ORDER BY seed, walk_id, step"
    )


def _kwic_sql(terms=("merge", "vector", "stream"), window: int = 3, k: int = 20) -> str:
    lst = ", ".join(f"'{t}'" for t in terms)
    return (
        # replay of analytics.kwic_snippets: 1-based token positions,
        # +-window list_slice snippet, first k per term by (doc_id, pos)
        "WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') "
        "AS arr FROM documents), "
        "e AS (SELECT doc_id, arr, unnest(range(1, len(arr) + 1)) AS i FROM t), "
        "h AS (SELECT arr[CAST(i AS INT)] AS term, doc_id, CAST(i AS BIGINT) AS pos, "
        f"array_to_string(list_slice(arr, greatest(CAST(i AS INT) - {window}, 1), "
        f"least(CAST(i AS INT) + {window}, len(arr))), ' ') AS snippet "
        f"FROM e WHERE arr[CAST(i AS INT)] IN ({lst})) "
        "SELECT term, doc_id, pos, snippet FROM h "
        f"QUALIFY row_number() OVER (PARTITION BY term ORDER BY doc_id, pos) <= {k} "
        "ORDER BY term, doc_id, pos"
    )


def _matryoshka_sql(trunc_dim: int = 16, k: int = 10) -> str:
    return (
        # replay of analytics.matryoshka_recall_audit: both rankings via
        # list_cosine_similarity (full and list_slice prefix), overlap
        "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
        "ORDER BY vec_id LIMIT 3), "
        "full_r AS (SELECT q.query_id, e.vec_id FROM q CROSS JOIN embeddings e "
        "QUALIFY row_number() OVER (PARTITION BY q.query_id "
        f"ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id) <= {k}), "
        "tr AS (SELECT q.query_id, e.vec_id FROM q CROSS JOIN embeddings e "
        "QUALIFY row_number() OVER (PARTITION BY q.query_id "
        f"ORDER BY list_cosine_similarity(list_slice(q.qe, 1, {trunc_dim}), "
        f"list_slice(e.embedding, 1, {trunc_dim})) DESC, e.vec_id) <= {k}), "
        "ov AS (SELECT f.query_id, CAST(COUNT(*) AS BIGINT) AS n_overlap "
        "FROM full_r f JOIN tr USING (query_id, vec_id) GROUP BY f.query_id) "
        "SELECT q.query_id, COALESCE(ov.n_overlap, 0) AS n_overlap, "
        f"CAST(COALESCE(ov.n_overlap, 0) * 1000000 // {k} AS BIGINT) AS recall_ppm "
        "FROM q LEFT JOIN ov USING (query_id) ORDER BY q.query_id"
    )


def _mmr_sql(k: int = 5, pool: int = 50, lam: float = 0.7) -> str:
    # replay of analytics.mmr_diverse_topk: top-pool candidates with
    # embeddings, k unrolled greedy steps, penalty = GREATEST cosine to
    # the already-selected set, ties to smallest vec_id
    parts = [
        "q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
        "ORDER BY vec_id LIMIT 3), "
        "pool AS (SELECT q.query_id, e.vec_id, e.embedding AS emb, "
        "list_cosine_similarity(q.qe, e.embedding) AS cq "
        "FROM q CROSS JOIN embeddings e "
        "QUALIFY row_number() OVER (PARTITION BY q.query_id "
        f"ORDER BY cq DESC, e.vec_id) <= {pool})"
    ]
    for r in range(1, k + 1):
        joins = " ".join(
            f"JOIN s{i} ON s{i}.query_id = p.query_id AND s{i}.vec_id <> p.vec_id"
            for i in range(1, r)
        )
        if r == 1:
            score = f"{lam} * p.cq"
        else:
            pens = ", ".join(
                f"list_cosine_similarity(p.emb, s{i}.emb)" for i in range(1, r)
            )
            pen = pens if r == 2 else f"GREATEST({pens})"
            score = f"{lam} * p.cq - {1 - lam} * ({pen})"
        parts.append(
            f"s{r} AS (SELECT p.query_id, p.vec_id, p.emb FROM pool p {joins} "
            "QUALIFY row_number() OVER (PARTITION BY p.query_id "
            f"ORDER BY {score} DESC, p.vec_id) = 1)"
        )
    union = " UNION ALL ".join(
        f"SELECT query_id, CAST({r} AS BIGINT) AS rank, vec_id FROM s{r}"
        for r in range(1, k + 1)
    )
    return (
        "WITH " + ", ".join(parts) + " SELECT * FROM (" + union
        + ") ORDER BY query_id, rank"
    )


_BINARY_HAMMING_SQL = (
    # replay of analytics.binary_hamming_topk: sign bits on RAW floats,
    # per-dim mismatch Hamming, milli-int exact L2 (pq convention,
    # unit-norm inputs so L2 order is cosine order), both rankings at
    # (dist, vec_id), overlap in ppm
    "WITH q0 AS (SELECT vec_id, embedding AS e, list_transform(embedding, "
    "x -> CAST(FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)) AS qv "
    "FROM embeddings), "
    "qry AS (SELECT vec_id AS query_id, e AS qe, qv AS qm FROM q0 "
    "ORDER BY vec_id LIMIT 3), "
    "dims AS (SELECT unnest(generate_series(1, 64)) AS i), "
    "ham AS (SELECT qry.query_id, q0.vec_id, "
    "SUM(CASE WHEN (qry.qe[i] > 0) <> (q0.e[i] > 0) THEN 1 ELSE 0 END) AS h "
    "FROM qry, q0, dims GROUP BY 1, 2), "
    "bink AS (SELECT query_id, vec_id FROM ham "
    "QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY h, vec_id) <= 10), "
    "l2 AS (SELECT qry.query_id, q0.vec_id, "
    "SUM((qry.qm[i] - q0.qv[i]) * (qry.qm[i] - q0.qv[i])) AS d "
    "FROM qry, q0, dims GROUP BY 1, 2), "
    "exk AS (SELECT query_id, vec_id FROM l2 "
    "QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY d, vec_id) <= 10) "
    "SELECT b.query_id, CAST(COUNT(e.vec_id) AS BIGINT) AS n_overlap, "
    "CAST(COUNT(e.vec_id) * 1000000 // 10 AS BIGINT) AS recall_ppm "
    "FROM bink b LEFT JOIN exk e ON e.query_id = b.query_id "
    "AND e.vec_id = b.vec_id GROUP BY 1 ORDER BY 1"
)


def _sq8_sql(k: int = 10, quant: int = 1000, levels: int = 255) -> str:
    """Replay of ``analytics.sq8_recall_audit``: milli-int embeddings,
    per-dim (min, span) grid, non-negative integer floor-division codes,
    squared-L2 rankings in BOTH spaces with (dist, vec_id) ties, and the
    top-k overlap fold. Queries are the first 3 vectors by vec_id."""
    return (
        "WITH mi AS (SELECT vec_id, list_transform(embedding, "
        f"x -> CAST(FLOOR(x * {quant} + 0.5) AS BIGINT)) AS v FROM embeddings), "
        "ex AS (SELECT vec_id, generate_subscripts(v, 1) AS d, unnest(v) AS x "
        "FROM mi), "
        "dims AS (SELECT d, MIN(x) AS mn, GREATEST(MAX(x) - MIN(x), 1) AS span "
        "FROM ex GROUP BY d), "
        "code AS (SELECT e.vec_id, e.d, e.x, "
        f"(e.x - m.mn) * {levels} // m.span AS c "
        "FROM ex e JOIN dims m USING (d)), "
        "q AS (SELECT vec_id AS qid, "
        "CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS query_id "
        "FROM embeddings ORDER BY vec_id LIMIT 3), "
        "dsq AS (SELECT q.query_id, a.vec_id, "
        "SUM((a.c - b.c) * (a.c - b.c)) AS dist "
        "FROM code a CROSS JOIN q "
        "JOIN code b ON b.vec_id = q.qid AND b.d = a.d GROUP BY 1, 2), "
        "dex AS (SELECT q.query_id, a.vec_id, "
        "SUM((a.x - b.x) * (a.x - b.x)) AS dist "
        "FROM code a CROSS JOIN q "
        "JOIN code b ON b.vec_id = q.qid AND b.d = a.d GROUP BY 1, 2), "
        "tsq AS (SELECT query_id, vec_id FROM dsq "
        f"QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY dist, vec_id) <= {k}), "
        "tex AS (SELECT query_id, vec_id FROM dex "
        f"QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY dist, vec_id) <= {k}) "
        "SELECT t.query_id AS query_id, "
        "CAST(COUNT(x.vec_id) AS BIGINT) AS n_overlap, "
        f"CAST(COUNT(x.vec_id) * 1000000 // {k} AS BIGINT) AS recall_ppm "
        "FROM tsq t LEFT JOIN tex x USING (query_id, vec_id) "
        "GROUP BY 1 ORDER BY 1"
    )


def _pq_sql(n_sub: int = 8, n_codes: int = 16, k: int = 10,
            quant: int = 1000, dim: int = 64) -> str:
    """Replay of analytics.pq_recall_audit, step for step: milli-int
    quantization, md5-elected seeds (ORDER BY h, vec_id LIMIT n_codes),
    one assignment step with (d, c) tie order, truncating-div integer
    centroids with empty clusters keeping their seed, encode, the ADC
    sum over per-subspace lookup distances, exact integer L2, both
    top-k at (dist, vec_id) order, overlap in ppm."""
    h = _MD5U64.format(v="'pqseed:' || CAST(vec_id AS VARCHAR)")
    dsub = dim // n_sub
    return (
        "WITH q0 AS (SELECT vec_id, list_transform(embedding, x -> "
        f"CAST(FLOOR(CAST(x AS DOUBLE) * {quant} + 0.5) AS BIGINT)) AS qv "
        "FROM embeddings), "
        f"dims AS (SELECT unnest(generate_series(1, {dim})) AS i), "
        f"u AS (SELECT vec_id, i, qv[i] AS x, (i - 1) // {dsub} AS s "
        "FROM q0, dims), "
        f"hsh AS (SELECT vec_id, qv, {h} AS hv FROM q0), "
        "seeds AS (SELECT vec_id, qv, "
        "ROW_NUMBER() OVER (ORDER BY hv, vec_id) - 1 AS c FROM hsh "
        f"QUALIFY ROW_NUMBER() OVER (ORDER BY hv, vec_id) <= {n_codes}), "
        f"su AS (SELECT c, i, qv[i] AS x, (i - 1) // {dsub} AS s "
        "FROM seeds, dims), "
        "ad AS (SELECT u.vec_id, u.s, su.c, "
        "SUM((u.x - su.x) * (u.x - su.x)) AS d "
        "FROM u JOIN su ON su.i = u.i GROUP BY 1, 2, 3), "
        "asg AS (SELECT vec_id, s, c FROM ad "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id, s ORDER BY d, c) = 1), "
        "csum AS (SELECT a.s, a.c, u.i, SUM(u.x) AS sx, COUNT(*) AS n "
        "FROM asg a JOIN u ON u.vec_id = a.vec_id AND u.s = a.s "
        "GROUP BY 1, 2, 3), "
        "cent AS (SELECT su.s, su.c, su.i, "
        "COALESCE(cs.sx // cs.n, su.x) AS cx FROM su "
        "LEFT JOIN csum cs ON cs.s = su.s AND cs.c = su.c AND cs.i = su.i), "
        "ed2 AS (SELECT u.vec_id, u.s, ct.c, "
        "SUM((u.x - ct.cx) * (u.x - ct.cx)) AS d "
        "FROM u JOIN cent ct ON ct.i = u.i GROUP BY 1, 2, 3), "
        "code AS (SELECT vec_id, s, c FROM ed2 "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id, s ORDER BY d, c) = 1), "
        "qry AS (SELECT vec_id AS query_id, qv FROM q0 ORDER BY vec_id LIMIT 3), "
        f"qu AS (SELECT query_id, i, qv[i] AS x, (i - 1) // {dsub} AS s "
        "FROM qry, dims), "
        "lut AS (SELECT qu.query_id, qu.s, ct.c, "
        "SUM((qu.x - ct.cx) * (qu.x - ct.cx)) AS d "
        "FROM qu JOIN cent ct ON ct.i = qu.i GROUP BY 1, 2, 3), "
        "appx AS (SELECT l.query_id, cd.vec_id, SUM(l.d) AS adist "
        "FROM code cd JOIN lut l ON l.s = cd.s AND l.c = cd.c GROUP BY 1, 2), "
        "atop AS (SELECT query_id, vec_id FROM appx "
        f"QUALIFY ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY adist, vec_id) <= {k}), "
        "exd AS (SELECT qu.query_id, u.vec_id, "
        "SUM((qu.x - u.x) * (qu.x - u.x)) AS edist "
        "FROM qu JOIN u ON u.i = qu.i GROUP BY 1, 2), "
        "etop AS (SELECT query_id, vec_id FROM exd "
        f"QUALIFY ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY edist, vec_id) <= {k}), "
        "ov AS (SELECT a.query_id, CAST(COUNT(*) AS BIGINT) AS n_overlap "
        "FROM atop a JOIN etop USING (query_id, vec_id) GROUP BY 1) "
        "SELECT qry.query_id, COALESCE(ov.n_overlap, 0) AS n_overlap, "
        f"CAST(COALESCE(ov.n_overlap, 0) * 1000000 // {k} AS BIGINT) AS recall_ppm "
        "FROM qry LEFT JOIN ov USING (query_id) ORDER BY qry.query_id"
    )


def oracle_sql() -> dict[str, str]:
    from distributed_system___ocr_ray.pipelines.analytics import (
        ENC_CTRL_PATTERN as _ENC_CTRL,
        ENC_MOJIBAKE_PATTERN as _ENC_MOJI,
        ENC_NONASCII_PATTERN as _ENC_NONASCII,
    )

    return {
        "extract_interleaved": _interleaved_sql(),
        # the checkpointed run must produce the SAME closed-form span table
        # as extract_dataset
        "extract_sharded": _interleaved_sql(),
        "extract_flat_identity": (
            "SELECT doc_id, text AS extracted_text FROM documents WHERE trim(text) <> ''"
        ),
        "span_kind_counts": (
            "SELECT * FROM ("
            "SELECT 'text' AS kind, CAST(COUNT(*) AS BIGINT) AS n_spans FROM documents "
            "UNION ALL "
            "SELECT 'image' AS kind, CAST(SUM(1 + doc_id % 2) AS BIGINT) AS n_spans FROM documents "
            "UNION ALL "
            "SELECT 'pdf' AS kind, CAST(SUM(CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_spans FROM documents)"
        ),
        "media_ref_counts": (
            "SELECT media_ref, COUNT(*) AS n_refs FROM ("
            "SELECT printf('mem://img/%06d', (doc_id*7) % 500) AS media_ref "
            "FROM documents WHERE doc_id % 20 <> 0 "
            "UNION ALL "
            "SELECT printf('mem://img/%06d', (doc_id*7+3) % 500) AS media_ref "
            "FROM documents WHERE doc_id % 2 = 1 AND (doc_id+1) % 20 <> 0"
            ") GROUP BY media_ref"
        ),
        "extract_status_counts": _status_counts_sql(),
        "doc_completeness_by_lang": _doc_completeness_sql(),
        "retry_plan": _retry_plan_sql(),
        "span_profile_by_kind": (
            # aggregate over the same closed-form allspans replay that backs
            # extract_interleaved: per-kind span counts + character totals
            f"WITH {_interleaved_ctes()} "
            "SELECT kind, CAST(COUNT(*) AS BIGINT) AS n_spans, "
            "CAST(SUM(length(out)) AS BIGINT) AS total_chars, "
            "CAST(SUM(length(out)) * 1000 // COUNT(*) AS BIGINT) "
            "AS mean_chars_milli FROM allspans GROUP BY kind"
        ),
        "media_metadata": _media_metadata_sql(),
        "media_dedup_groups": _media_dedup_sql(),
        "orphan_media_audit": (
            # non-broken referenced indices per kind (wrap.py:76-93), as
            # DISTINCT sets; orphans = full store range minus them. The
            # store's kind labels are 'image'/'pdf' (corpus.MEDIA_SCHEMA).
            "WITH refimg AS ("
            "SELECT DISTINCT (doc_id * 7) % 500 AS s FROM documents "
            "WHERE doc_id % 20 <> 0 "
            "UNION "
            "SELECT DISTINCT (doc_id * 7 + 3) % 500 FROM documents "
            "WHERE doc_id % 2 = 1 AND (doc_id + 1) % 20 <> 0), "
            "refpdf AS ("
            "SELECT DISTINCT (doc_id * 11) % 250 AS s FROM documents "
            "WHERE doc_id % 2 = 0 AND doc_id % 40 <> 10) "
            "SELECT 'image' AS kind, CAST(500 AS BIGINT) AS n_store, "
            "CAST((SELECT COUNT(*) FROM refimg) AS BIGINT) AS n_referenced, "
            "CAST(500 - (SELECT COUNT(*) FROM refimg) AS BIGINT) AS n_orphans "
            "UNION ALL "
            "SELECT 'pdf', CAST(250 AS BIGINT), "
            "CAST((SELECT COUNT(*) FROM refpdf) AS BIGINT), "
            "CAST(250 - (SELECT COUNT(*) FROM refpdf) AS BIGINT) "
            "ORDER BY kind"
        ),
        "dangling_ref_audit": (
            # replay of the wrap's ref plan (sources/wrap.py:76-93): image
            # span k=0 for every doc + k=1 for odd docs, broken iff
            # (i+k)%20==0; pdf span for even docs, broken iff i%40==10;
            # non-broken refs always resolve (modulo the full store range)
            "WITH img AS ("
            "SELECT doc_id AS i, 0 AS k FROM documents "
            "UNION ALL SELECT doc_id, 1 FROM documents WHERE doc_id % 2 = 1), "
            "imgr AS (SELECT CASE WHEN (i + k) % 20 = 0 "
            "THEN printf('mem://img/missing-%06d', i) "
            "ELSE printf('mem://img/%06d', (i * 7 + k * 3) % 500) END AS ref, "
            "(i + k) % 20 = 0 AS dangling, 'image' AS kind FROM img), "
            "pdfr AS (SELECT CASE WHEN doc_id % 40 = 10 "
            "THEN printf('mem://pdf/missing-%06d', doc_id) "
            "ELSE printf('mem://pdf/%06d', (doc_id * 11) % 250) END AS ref, "
            "doc_id % 40 = 10 AS dangling, 'pdf' AS kind FROM documents "
            "WHERE doc_id % 2 = 0), "
            "allr AS (SELECT * FROM imgr UNION ALL SELECT * FROM pdfr) "
            "SELECT kind, CAST(COUNT(*) AS BIGINT) AS n_refs, "
            "CAST(COUNT(DISTINCT ref) AS BIGINT) AS n_distinct_refs, "
            "CAST(SUM(CASE WHEN dangling THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_dangling, "
            "CAST(COUNT(DISTINCT CASE WHEN dangling THEN ref END) AS BIGINT) "
            "AS n_dangling_distinct "
            "FROM allr GROUP BY kind ORDER BY kind"
        ),
        "render_html": _render_html_sql(),
        "quality_by_lang": _quality_by_lang_sql(),
        "pps_sample": _PPS_SAMPLE_SQL,
        "profile_documents": _PROFILE_DOCUMENTS_SQL,
        "top_tokens": _TOP_TOKENS_SQL,
        "training_corpus_counts": _training_corpus_sql(),
        "ingest_increment_counts": _ingest_increment_sql(),
        "corpus_report": _corpus_report_sql(),
        "tfidf_keywords": _TFIDF_SQL,
        "embedding_neardup": _EMBEDDING_NEARDUP_SQL,
        "extract_embed_neardup": _extract_embed_neardup_sql(),
        "bm25_topk": _bm25_sql(),
        "bm25_prf_topk": _bm25_prf_sql(),
        "docs_by_lang": "SELECT lang, COUNT(*) AS n_docs FROM documents GROUP BY lang",
        "doc_stats_by_source": (
            "SELECT source, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars "
            "FROM documents GROUP BY source"
        ),
        "filter_project_documents": (
            "SELECT doc_id, lang FROM documents WHERE n_chars >= 100 AND n_chars <= 20000"
        ),
        "language_id": _lang_id_sql(),
        "langid_confusion": (
            # wraps the char-for-char language_id replay; the label joins in
            f"WITH pred AS ({_lang_id_sql()}) "
            "SELECT d.lang, p.pred_lang, CAST(COUNT(*) AS BIGINT) AS n_docs "
            "FROM pred p JOIN documents d USING (doc_id) GROUP BY 1, 2"
        ),
        "langid_kappa": (
            # replay of analytics.langid_kappa: the shared language_id
            # replay -> confusion cells -> Cohen's kappa on HUGEINT
            # marginals, sign-split truncating ppm
            f"WITH pred AS ({_lang_id_sql()}), "
            "cm AS (SELECT d.lang, p.pred_lang, COUNT(*) AS n FROM pred p "
            "JOIN documents d USING (doc_id) GROUP BY 1, 2), "
            "tot AS (SELECT SUM(CAST(n AS HUGEINT)) AS nn FROM cm), "
            "ag AS (SELECT COALESCE(SUM(CAST(n AS HUGEINT)), 0) AS a "
            "FROM cm WHERE lang = pred_lang), "
            "rm AS (SELECT lang, SUM(CAST(n AS HUGEINT)) AS r FROM cm "
            "GROUP BY 1), "
            "cg AS (SELECT pred_lang, SUM(CAST(n AS HUGEINT)) AS c FROM cm "
            "GROUP BY 1), "
            "pe AS (SELECT COALESCE(SUM(rm.r * cg.c), 0) AS e FROM rm "
            "JOIN cg ON cg.pred_lang = rm.lang), "
            "nd AS (SELECT (SELECT nn FROM tot) * (SELECT a FROM ag) - "
            "(SELECT e FROM pe) AS num, (SELECT nn FROM tot) * "
            "(SELECT nn FROM tot) - (SELECT e FROM pe) AS den) "
            "SELECT CAST((SELECT nn FROM tot) AS BIGINT) AS n_docs, "
            "CAST((SELECT a FROM ag) AS BIGINT) AS agree, "
            "CAST(CASE WHEN den = 0 THEN 0 WHEN num >= 0 THEN "
            "(num * 1000000) // den ELSE -(((-num) * 1000000) // den) END "
            "AS BIGINT) AS kappa_ppm FROM nd"
        ),
        "quality_scores": _quality_sql(),
        "fingerprints": _fingerprint_sql(),
        "token_count_by_lang": (
            "SELECT lang, CAST(SUM(length(regexp_extract_all(text, '\\S+'))) AS BIGINT) "
            "AS n_ws_tokens FROM documents GROUP BY lang"
        ),
        # full SQL replay of functions/bloom.BloomFilter: one md5 over the
        # sha256-hex key, h1/h2 = big-endian digest halves (h2 | 1),
        # Kirsch-Mitzenmacher probes (h1 + i*h2) % m for i in 0..6,
        # m = GREATEST(64, 16 * n_distinct_corpus_keys); a row is a bloom
        # hit iff all 7 probe positions are set by some corpus key
        "bloom_fp_audit": (
            "WITH newb AS (SELECT doc_id, sha256(text) AS h FROM documents "
            "WHERE doc_id % 5 = 0), "
            "corp AS (SELECT DISTINCT sha256(text) AS h FROM documents "
            "WHERE doc_id % 5 != 0), "
            "mm AS (SELECT GREATEST(64, 16 * COUNT(*)) AS m FROM corp), "
            "ch AS (SELECT CAST(('0x' || substr(md5(h), 1, 16)) AS UBIGINT) AS h1, "
            "(CAST(('0x' || substr(md5(h), 17, 16)) AS UBIGINT) | 1) AS h2 FROM corp), "
            "bits AS (SELECT DISTINCT CAST((CAST(h1 AS HUGEINT) + g.i * CAST(h2 AS HUGEINT)) "
            "% (SELECT m FROM mm) AS BIGINT) AS pos "
            "FROM ch CROSS JOIN generate_series(0, 6) g(i)), "
            "nh AS (SELECT doc_id, h, CAST(('0x' || substr(md5(h), 1, 16)) AS UBIGINT) AS h1, "
            "(CAST(('0x' || substr(md5(h), 17, 16)) AS UBIGINT) | 1) AS h2 FROM newb), "
            "npp AS (SELECT doc_id, h, CAST((CAST(h1 AS HUGEINT) + g.i * CAST(h2 AS HUGEINT)) "
            "% (SELECT m FROM mm) AS BIGINT) AS pos "
            "FROM nh CROSS JOIN generate_series(0, 6) g(i)), "
            "hitrows AS (SELECT doc_id, h, "
            "SUM(CASE WHEN b.pos IS NOT NULL THEN 1 ELSE 0 END) AS kset "
            "FROM npp LEFT JOIN bits b USING (pos) GROUP BY doc_id, h), "
            "agg AS (SELECT COUNT(*) AS n_new, "
            "SUM(CASE WHEN kset = 7 THEN 1 ELSE 0 END) AS n_hits, "
            "SUM(CASE WHEN h IN (SELECT h FROM corp) THEN 1 ELSE 0 END) AS n_true "
            "FROM hitrows) "
            "SELECT CAST(n_new AS BIGINT) AS n_new, "
            "CAST(n_hits AS BIGINT) AS n_bloom_hits, "
            "CAST(n_true AS BIGINT) AS n_true_dups, "
            "CAST(n_hits - n_true AS BIGINT) AS n_false_pos, "
            "CAST(CASE WHEN n_new - n_true = 0 THEN 0 ELSE "
            "(n_hits - n_true) * 1000000 // (n_new - n_true) END AS BIGINT) AS fp_ppm "
            "FROM agg"
        ),
        "sample_docs": (
            # threshold = format(int(0.25 * 0xFFFFFFFF), '08x') = '3fffffff'
            "SELECT doc_id, lang FROM documents "
            "WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < '3fffffff'"
        ),
        "dataset_split_counts": (
            "SELECT CASE WHEN h < '19999999' THEN 'val' "
            "WHEN h < '33333333' THEN 'test' ELSE 'train' END AS split, "
            "COUNT(*) AS n_docs FROM "
            "(SELECT substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS h FROM documents) "
            "GROUP BY 1"
        ),
        "stratified_sample": (
            # thresholds = format(int(f * 0xFFFFFFFF), '08x') for 0.5/0.25/0.1
            "SELECT doc_id, lang FROM documents "
            "WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) < "
            "CASE lang WHEN 'en' THEN '7fffffff' WHEN 'de' THEN '3fffffff' "
            "ELSE '19999999' END"
        ),
        "repetition_stats": (
            "WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), "
            "'[^ \t\n\f\r]+') AS toks FROM documents), "
            "tok AS (SELECT doc_id, unnest(toks) AS tok, "
            "generate_subscripts(toks, 1) AS i FROM t), "
            "cnt AS (SELECT doc_id, tok, COUNT(*) c FROM tok GROUP BY 1, 2), "
            "top AS (SELECT doc_id, CAST(FLOOR(MAX(c) * 1e6 / SUM(c) + 0.5) AS BIGINT) "
            "top_token_ppm FROM cnt GROUP BY 1), "
            "bg AS (SELECT a.doc_id, a.tok || ' ' || b.tok AS bigram FROM tok a "
            "JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1), "
            "dup AS (SELECT doc_id, CAST(FLOOR((COUNT(*) - COUNT(DISTINCT bigram)) "
            "* 1e6 / COUNT(*) + 0.5) AS BIGINT) dup_2gram_ppm FROM bg GROUP BY 1) "
            "SELECT t.doc_id, COALESCE(top.top_token_ppm, 0) AS top_token_ppm, "
            "COALESCE(dup.dup_2gram_ppm, 0) AS dup_2gram_ppm "
            "FROM t LEFT JOIN top USING(doc_id) LEFT JOIN dup USING(doc_id)"
        ),
        "redact_pii": _redact_pii_sql(),
        "contamination_flags": _contamination_sql(_CONTAM_EVAL_RATE, _CONTAM_K),
        "pack_sequences": _pack_sequences_sql(512),
        "budget_select": _budget_select_sql(_BUDGET_TOKENS),
        "mixture_sample": _mixture_sample_sql(_MIX_SHARES, _MIX_TARGET),
        "cms_top_tokens": _cms_top_tokens_sql(20),
        "cms_error_audit": _cms_error_audit_sql(20),
        "epoch_shuffle": _epoch_shuffle_sql(3),
        "sample_exact_n": _sample_exact_n_sql(60),
        "chunk_documents": _chunk_documents_sql(64, 16),
        "sample_n_per_group": _sample_n_per_group_sql(15),
        "zscore_by_lang": _zscore_by_lang_sql(),
        "domain_counts": _domain_counts_sql(10),
        "sample_by_quality": _sample_by_quality_sql(),
        # replays _q_pruned_range_read's [3N/10, 11N/20) doc_id range with the
        # same integer arithmetic; the engine's zone-map pruning must be
        # invisible in the result (pruning changes cost, never rows)
        "pruned_range_read": (
            f"WITH {_RANGE_CTE} "
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
            "FROM documents, b WHERE doc_id >= b.lo AND doc_id < b.hi GROUP BY lang"
        ),
        # replays _q_robust_outliers: ceil-rank median (the engine's
        # exact_quantile convention), then ceil-rank median of |dev|, then
        # the all-integer dev > 2*MAD flag
        "robust_outliers": (
            "WITH s AS (SELECT lang, n_chars, "
            "row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn, "
            "COUNT(*) OVER (PARTITION BY lang) AS n FROM documents), "
            "med AS (SELECT lang, n_chars AS med FROM s "
            "WHERE rn = CAST(CEIL(0.5 * n) AS BIGINT)), "
            "d AS (SELECT doc_id, d0.lang, ABS(d0.n_chars - med.med) AS dev "
            "FROM documents d0 JOIN med ON d0.lang = med.lang), "
            "s2 AS (SELECT lang, dev, "
            "row_number() OVER (PARTITION BY lang ORDER BY dev) AS rn, "
            "COUNT(*) OVER (PARTITION BY lang) AS n FROM d), "
            "mad AS (SELECT lang, dev AS mad FROM s2 "
            "WHERE rn = CAST(CEIL(0.5 * n) AS BIGINT)) "
            "SELECT d.doc_id, d.lang, CAST(d.dev AS BIGINT) AS dev, "
            "CAST(2 * mad.mad AS BIGINT) AS cutoff "
            "FROM d JOIN mad ON d.lang = mad.lang WHERE d.dev > 2 * mad.mad"
        ),
        # replays _q_collocations: shared [a-z0-9]+ tokenizer, consecutive
        # in-doc pairs, HUGEINT-exact score, (score DESC, bigram) top-50
        "collocations": (
            "WITH toks AS (SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS t "
            "FROM documents), "
            "uni AS (SELECT unnest(t) AS w FROM toks), "
            "nx AS (SELECT w, COUNT(*) AS n FROM uni GROUP BY w), "
            "nn AS (SELECT COUNT(*) AS n FROM uni), "
            "big AS (SELECT t[i] AS x, t[i+1] AS y FROM toks, "
            "UNNEST(generate_series(1, len(t) - 1)) AS u(i)), "
            "nxy AS (SELECT x, y, COUNT(*) AS n_xy FROM big GROUP BY x, y "
            "HAVING COUNT(*) >= 5), "
            "sc AS (SELECT x || ' ' || y AS bigram, n_xy, "
            "CAST((1000000::HUGEINT * n_xy * nn.n) // (a.n * b.n) AS BIGINT) AS score_ppm "
            "FROM nxy JOIN nx a ON a.w = x JOIN nx b ON b.w = y, nn) "
            "SELECT bigram, CAST(n_xy AS BIGINT) AS n_xy, score_ppm FROM sc "
            "ORDER BY score_ppm DESC, bigram LIMIT 50"
        ),
        # replays _q_postings_lookup: the shared [a-z0-9]+ tokenizer,
        # per-doc distinct terms, counts for the fixed query terms — the
        # engine's sort/commit/prune path must be invisible in the result
        "postings_lookup": (
            "WITH toks AS (SELECT DISTINCT doc_id, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term "
            "FROM documents) "
            "SELECT term, CAST(COUNT(*) AS BIGINT) AS n_docs FROM toks "
            f"WHERE term IN ({', '.join(repr(t) for t in _POSTINGS_TERMS)}) "
            "GROUP BY term"
        ),
        # replays _q_zipf_bits_audit: identical ranking (n DESC, tk ASC),
        # floor(log2) via length(bin(n))-1, octave drop via lag()
        "zipf_bits_audit": (
            "WITH tok AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
            "AS tk FROM documents), "
            "c AS (SELECT tk, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY tk), "
            "r AS (SELECT n, row_number() OVER (ORDER BY n DESC, tk ASC) AS rnk FROM c), "
            "p AS (SELECT rnk, n AS freq, CAST(length(bin(n)) - 1 AS BIGINT) AS freq_bits "
            "FROM r WHERE rnk IN (1,2,4,8,16,32,64,128,256,512,1024,2048,4096)) "
            "SELECT CAST(rnk AS BIGINT) AS rank, freq, freq_bits, "
            "CAST(COALESCE(lag(freq_bits) OVER (ORDER BY rnk) - freq_bits, 0) AS BIGINT) "
            "AS drop_bits FROM p"
        ),
        # replays _q_hapax_rate_by_source: per-source (token, n) counts,
        # vocab = distinct tokens, hapax = n==1 tokens, floor-div ppm
        "hapax_rate_by_source": (
            "WITH tok AS (SELECT source, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tk FROM documents), "
            "c AS (SELECT source, tk, COUNT(*) AS n FROM tok GROUP BY source, tk) "
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS vocab, "
            "CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS hapax, "
            "CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1000000 // COUNT(*) AS BIGINT) "
            "AS hapax_ppm FROM c GROUP BY source"
        ),
        # replays _q_source_tv_distance: floor-div ppm per (source, token),
        # pair x token grid with two LEFT JOINs, SUM(ABS(diff)) // 2
        "source_tv_distance": (
            "WITH tok AS (SELECT source, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tk FROM documents), "
            "c AS (SELECT source, tk, COUNT(*) AS n FROM tok GROUP BY source, tk), "
            "t AS (SELECT source, SUM(n) AS total FROM c GROUP BY source), "
            "p AS (SELECT c.source, c.tk, CAST(c.n * 1000000 // t.total AS BIGINT) AS ppm "
            "FROM c JOIN t USING (source)), "
            "s AS (SELECT DISTINCT source FROM c), "
            "d AS (SELECT DISTINCT tk FROM c), "
            "grid AS (SELECT a.source AS sa, b.source AS sb, d.tk "
            "FROM s a JOIN s b ON a.source < b.source CROSS JOIN d), "
            "j AS (SELECT g.sa, g.sb, "
            "COALESCE(pa.ppm, 0) - COALESCE(pb.ppm, 0) AS diff FROM grid g "
            "LEFT JOIN p pa ON pa.source = g.sa AND pa.tk = g.tk "
            "LEFT JOIN p pb ON pb.source = g.sb AND pb.tk = g.tk) "
            "SELECT sa AS source_a, sb AS source_b, "
            "CAST(SUM(ABS(diff)) // 2 AS BIGINT) AS tv_ppm FROM j GROUP BY sa, sb"
        ),
        # replays _q_token_burstiness: cf = COUNT(*), df = COUNT(DISTINCT
        # doc) per token, top-k (cf DESC, tk ASC), milli floor-div
        "token_burstiness": (
            "WITH tok AS (SELECT doc_id, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tk FROM documents), "
            "c AS (SELECT tk, CAST(COUNT(*) AS BIGINT) AS cf, "
            "CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df FROM tok GROUP BY tk), "
            "top AS (SELECT * FROM c ORDER BY cf DESC, tk ASC LIMIT 20) "
            "SELECT tk AS token, cf, df, CAST(cf * 1000 // df AS BIGINT) "
            "AS per_doc_milli FROM top"
        ),
        # replays _q_graph_reciprocity: shared edge CTEs, DISTINCT directed
        # edges, EXISTS probe for the reverse edge, floor-div ppm
        "graph_reciprocity": (
            f"WITH {_edges_ctes()}, "
            "e AS (SELECT DISTINCT src, dst FROM edges), "
            "t AS (SELECT CAST(COUNT(*) AS BIGINT) AS total, "
            "CAST(SUM(CASE WHEN EXISTS (SELECT 1 FROM e x "
            "WHERE x.src = e.dst AND x.dst = e.src) THEN 1 ELSE 0 END) AS BIGINT) "
            "AS recip FROM e) "
            "SELECT total AS directed_edges, recip AS reciprocal_edges, "
            "CAST(CASE WHEN total = 0 THEN 0 ELSE recip * 1000000 // total END "
            "AS BIGINT) AS reciprocity_ppm FROM t"
        ),
        # replays _q_docs_rollup: ROLLUP levels with 'ALL' sentinels
        "docs_rollup": (
            "SELECT COALESCE(lang, 'ALL') AS lang, "
            "COALESCE(source, 'ALL') AS source, "
            "CAST(COUNT(*) AS BIGINT) AS n FROM documents "
            "GROUP BY ROLLUP(lang, source)"
        ),
        # replays _q_docs_cube: every grouping set with 'ALL' sentinels
        "docs_cube": (
            "SELECT COALESCE(lang, 'ALL') AS lang, "
            "COALESCE(source, 'ALL') AS source, "
            "CAST(COUNT(*) AS BIGINT) AS n FROM documents "
            "GROUP BY CUBE(lang, source)"
        ),
        # replays _q_cow_delete_counts: the complement of the deleted range
        "cow_delete_counts": (
            f"WITH {_RANGE_CTE} "
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
            "FROM documents, b WHERE doc_id < b.lo OR doc_id >= b.hi GROUP BY lang"
        ),
        "mor_delete_counts": (
            # same complement as the COW twin: MOR changes the WRITE
            # amplification, not the visible rows
            f"WITH {_RANGE_CTE} "
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
            "FROM documents, b WHERE doc_id < b.lo OR doc_id >= b.hi GROUP BY lang"
        ),
        "wap_publish_counts": (
            # the audited-and-published snapshot is exactly the in-range
            # slice: WAP changes WHO can observe the rows, not the rows
            f"WITH {_RANGE_CTE} "
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
            "FROM documents, b WHERE doc_id >= b.lo AND doc_id < b.hi GROUP BY lang"
        ),
        # replays _q_merge_upsert_counts: MERGE == target-minus-matched
        # UNION ALL updated UNION ALL inserted, then the lang aggregate
        "merge_upsert_counts": (
            f"WITH {_RANGE_CTE}, nn AS (SELECT COUNT(*) AS n FROM documents), "
            "upd AS (SELECT doc_id, 'xx' AS lang, n_chars + 1000 AS n_chars "
            "FROM documents, b WHERE doc_id >= b.lo AND doc_id < b.hi "
            "AND doc_id % 5 = 0), "
            "merged AS ("
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE doc_id NOT IN (SELECT doc_id FROM upd) "
            "UNION ALL SELECT doc_id, lang, n_chars FROM upd "
            "UNION ALL SELECT doc_id + nn.n AS doc_id, 'new' AS lang, n_chars "
            "FROM documents, nn WHERE doc_id % 97 = 0) "
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars FROM merged GROUP BY lang"
        ),
        # replays _q_change_feed_counts: the three mutation rules' key sets
        "change_feed_counts": (
            f"WITH {_RANGE_CTE} "
            "SELECT 'deleted' AS change, CAST(COUNT(*) AS BIGINT) AS n_keys "
            "FROM documents, b "
            "WHERE doc_id >= b.hi AND doc_id < b.hi + (b.hi - b.lo) // 2 "
            "UNION ALL SELECT 'inserted', CAST(COUNT(*) AS BIGINT) "
            "FROM documents WHERE doc_id % 97 = 0 "
            "UNION ALL SELECT 'updated', CAST(COUNT(*) AS BIGINT) "
            "FROM documents, b "
            "WHERE doc_id >= b.lo AND doc_id < b.hi AND doc_id % 5 = 0"
        ),
        # replays _q_percent_rank_by_lang: RANK tie-min + integer ppm scale
        "percent_rank_by_lang": (
            "WITH s AS (SELECT doc_id, lang, "
            "RANK() OVER (PARTITION BY lang ORDER BY n_chars) AS rn, "
            "COUNT(*) OVER (PARTITION BY lang) AS n FROM documents) "
            "SELECT doc_id, lang, CAST(CASE WHEN n = 1 THEN 0 "
            "ELSE (rn - 1) * 1000000 // (n - 1) END AS BIGINT) AS rank_ppm FROM s"
        ),
        "quantize_embeddings": (
            "WITH s AS (SELECT vec_id, embedding, CASE WHEN "
            "list_max(list_transform(embedding, x -> abs(CAST(x AS DOUBLE)))) > 0 THEN "
            "list_max(list_transform(embedding, x -> abs(CAST(x AS DOUBLE)))) / 127.0 "
            "ELSE 1.0 END AS scale FROM embeddings), "
            "q AS (SELECT vec_id, list_transform(embedding, x -> "
            "CAST(FLOOR(CAST(x AS DOUBLE) / scale + 0.5) AS BIGINT)) AS qv FROM s) "
            "SELECT vec_id, CAST(list_sum(qv) AS BIGINT) AS q_sum, "
            "CAST(list_sum(list_transform(qv, x -> abs(x))) AS BIGINT) AS q_l1, "
            "CAST(list_max(qv) AS BIGINT) AS q_max FROM q"
        ),
        "ann_topk": _ANN_TOPK_SQL,
        # same exact brute-force oracle: IVF probing achieves exact recall on
        # this dataset (pytest-held recall test; see _q_ivf_topk docstring)
        "ivf_topk": _ANN_TOPK_SQL,
        # same exhaustive-probe construction through the PERSISTED index
        "ivf_indexed_topk": _ANN_TOPK_SQL,
        "kmeans_clusters": _kmeans_sql(k=8, iters=3, scale=1000),
        "semdedup_keepers": _semdedup_sql(k=8, iters=3, scale=1000, threshold=0.4),
        "pagerank_top": _pagerank_sql(iters=4, damping_pct=85, topn=20),
        "ppr_top": _ppr_sql(iters=4, damping_pct=85, topn=20),
        "nb_source_classifier": _nb_source_classifier_sql(),
        "texttiling_boundaries": _TEXTTILING_SQL,
        "filter_impact_audit": _filter_impact_sql(),
        "binary_hamming_topk": _BINARY_HAMMING_SQL,
        "ccnet_bucket_counts": _CCNET_BUCKET_SQL,
        "bfs_levels": _bfs_levels_sql(max_rounds=8),
        "anf_effective_diameter": _anf_sql(),
        "rnn_pairs": _RNN_PAIRS_SQL,
        "kmeans_inertia": _kmeans_inertia_sql(k=8, iters=3),
        "cluster_balanced_sample": _cluster_balanced_sample_sql(),
        "hybrid_topk": _hybrid_sql(k=10, rrf_k=60),
        "triangle_count": _triangle_sql(),
        "lpa_communities": _lpa_sql(rounds=4),
        "hits_scores": _hits_sql(rounds=3),
        "kcore_nodes": _kcore_sql(k=2, rounds=4),
        "local_clustering_topk": (
            # replay of analytics.local_clustering_topk: distinct
            # undirected edges, apex-carrying wedge probe, 3-way triangle
            # credit, degree over the symmetrized list, exact truncating
            # ppm, (lcc DESC, doc_id) top-20
            f"WITH {_edges_ctes()}, "
            "und AS (SELECT DISTINCT LEAST(src, dst) AS a, "
            "GREATEST(src, dst) AS b FROM edges), "
            "wed AS (SELECT e1.a AS a, e1.b AS b1, e2.b AS b2 FROM und e1 "
            "JOIN und e2 ON e1.a = e2.a AND e1.b < e2.b), "
            "tri AS (SELECT w.a, w.b1, w.b2 FROM wed w "
            "JOIN und u ON u.a = w.b1 AND u.b = w.b2), "
            "tv AS (SELECT a AS v FROM tri UNION ALL SELECT b1 FROM tri "
            "UNION ALL SELECT b2 FROM tri), "
            "tc AS (SELECT v, COUNT(*) AS n_tri FROM tv GROUP BY 1), "
            "sym AS (SELECT a AS node, b AS nbr FROM und "
            "UNION ALL SELECT b, a FROM und), "
            "dg AS (SELECT node, COUNT(*) AS deg FROM sym GROUP BY 1), "
            "x AS (SELECT dg.node AS doc_id, dg.deg, "
            "COALESCE(tc.n_tri, 0) AS n_tri FROM dg "
            "LEFT JOIN tc ON tc.v = dg.node WHERE dg.deg >= 2) "
            "SELECT CAST(doc_id AS BIGINT) AS doc_id, "
            "CAST(deg AS BIGINT) AS deg, CAST(n_tri AS BIGINT) AS n_tri, "
            "CAST((2 * n_tri * 1000000) // (deg * (deg - 1)) AS BIGINT) "
            "AS lcc_ppm FROM x "
            "QUALIFY row_number() OVER (ORDER BY lcc_ppm DESC, doc_id) <= 20"
        ),
        "degree_assortativity": (
            # replay of analytics.degree_assortativity: distinct undirected
            # edges, symmetrized votes, degree join both ends, HUGEINT
            # moments, sign-split truncating ppm
            f"WITH {_edges_ctes()}, "
            "und AS (SELECT DISTINCT LEAST(src, dst) AS a, "
            "GREATEST(src, dst) AS b FROM edges), "
            "sym AS (SELECT a AS node, b AS nbr FROM und "
            "UNION ALL SELECT b, a FROM und), "
            "dg AS (SELECT node, COUNT(*) AS deg FROM sym GROUP BY 1), "
            "ed AS (SELECT dx.deg AS x, dy.deg AS y FROM sym s "
            "JOIN dg dx ON dx.node = s.node JOIN dg dy ON dy.node = s.nbr), "
            "mo AS (SELECT COUNT(*) AS m, SUM(CAST(x AS HUGEINT)) AS sx, "
            "SUM(CAST(x AS HUGEINT) * x) AS sxx, "
            "SUM(CAST(x AS HUGEINT) * y) AS sxy FROM ed), "
            "nd AS (SELECT m, m * sxy - sx * sx AS num, "
            "m * sxx - sx * sx AS den FROM mo) "
            "SELECT CAST(m AS BIGINT) AS m_votes, "
            "CAST(CASE WHEN den = 0 THEN 0 WHEN num >= 0 THEN "
            "(num * 1000000) // den ELSE -(((-num) * 1000000) // den) END "
            "AS BIGINT) AS r_ppm FROM nd"
        ),
        "in_degree_histogram": (
            # replay of analytics.in_degree_histogram: shared edge CTEs,
            # multi-edges counted, LEFT JOIN puts never-cited nodes at 0
            f"WITH {_edges_ctes()}, "
            "ind AS (SELECT dst, CAST(COUNT(*) AS BIGINT) AS in_degree "
            "FROM edges GROUP BY dst), "
            "alln AS (SELECT COALESCE(i.in_degree, 0) AS in_degree "
            "FROM documents d LEFT JOIN ind i ON i.dst = d.doc_id) "
            "SELECT in_degree, CAST(COUNT(*) AS BIGINT) AS n_nodes "
            "FROM alln GROUP BY in_degree"
        ),
        "table_checksum": (
            # replay of analytics.table_checksum: identical chr(31)-joined
            # CAST serialization (NULL -> chr(0)), md5-prefix UBIGINT row
            # hash, commutative wrap-sum mod 2^64 via HUGEINT
            "WITH s AS (SELECT "
            "COALESCE(CAST(doc_id AS VARCHAR), chr(0)) || chr(31) || "
            "COALESCE(text, chr(0)) || chr(31) || "
            "COALESCE(lang, chr(0)) || chr(31) || "
            "COALESCE(source, chr(0)) || chr(31) || "
            "COALESCE(CAST(n_chars AS VARCHAR), chr(0)) AS row_s "
            "FROM documents), "
            f"h AS (SELECT {_MD5U64.format(v='row_s')} AS h64 FROM s) "
            "SELECT CAST(COUNT(*) AS BIGINT) AS n_rows, "
            "CAST(CAST(SUM(CAST(h64 AS HUGEINT)) % 18446744073709551616 "
            "AS UBIGINT) AS VARCHAR) AS checksum FROM h"
        ),
        "phrase_doc_counts": (
            # replay of analytics.phrase_doc_counts: same '[a-z0-9]+'
            # lowered tokenization, shifted-index bigram containment
            "WITH t AS (SELECT lang, regexp_extract_all(lower(text), "
            "'[a-z0-9]+') AS toks FROM documents) "
            "SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs FROM t "
            "WHERE len(toks) >= 2 AND len(list_filter(range(1, len(toks)), "
            "i -> toks[i] = 'order' AND toks[i+1] = 'fast')) > 0 "
            "GROUP BY lang"
        ),
        "two_hop_reach": (
            # replay of analytics.two_hop_reach over the shared edge CTE:
            # distinct edges, top-20 by (in_deg DESC, dst), double join +
            # COUNT DISTINCT, COALESCE 0 for citer-less citers
            f"WITH {_edges_ctes()}, "
            "de AS (SELECT DISTINCT src, dst FROM edges), "
            "ind AS (SELECT dst, COUNT(*) AS in_deg FROM de GROUP BY dst), "
            "seeds AS (SELECT dst AS seed, in_deg FROM ind "
            "ORDER BY in_deg DESC, dst LIMIT 20), "
            "r2 AS (SELECT s.seed, COUNT(DISTINCT e2.src) AS reach2 "
            "FROM seeds s JOIN de e1 ON e1.dst = s.seed "
            "JOIN de e2 ON e2.dst = e1.src GROUP BY s.seed) "
            "SELECT s.seed, CAST(s.in_deg AS BIGINT) AS in_deg, "
            "CAST(COALESCE(r2.reach2, 0) AS BIGINT) AS reach2 "
            "FROM seeds s LEFT JOIN r2 USING (seed)"
        ),
        "span_corruption_plan": (
            # replay of analytics.span_corruption_plan: nw = \S+ count,
            # nw//20 spans of 3, md5-u64 start % (nw-2) + 1
            "WITH d AS (SELECT doc_id, "
            "len(regexp_extract_all(text, '\\S+')) AS nw FROM documents), "
            "s AS (SELECT doc_id, nw, "
            "unnest(generate_series(1, nw // 20)) AS i FROM d "
            "WHERE nw // 20 >= 1 AND nw >= 3) "
            "SELECT doc_id, CAST(i AS BIGINT) AS span_idx, "
            "CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':' || "
            "CAST(i AS VARCHAR)), 1, 16))::UBIGINT % (nw - 2) AS BIGINT) + 1 "
            "AS start_tok, CAST(3 AS BIGINT) AS span_len FROM s"
        ),
        "doc_bigram_surprisal_topk": (
            # replay of analytics.doc_bigram_surprisal_topk: token pairs
            # via lead window over the shared [a-z0-9]+ tokenization,
            # whole-bit surprisal via length(bin(N//c))-1
            "WITH t AS (SELECT doc_id, lang, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok, "
            "unnest(generate_series(1, len(regexp_extract_all(lower(text), "
            "'[a-z0-9]+')))) AS i FROM documents), "
            "pairs AS (SELECT doc_id, lang, tok || ' ' || "
            "lead(tok, 1) OVER win AS bg FROM t "
            "WINDOW win AS (PARTITION BY doc_id ORDER BY i) "
            "QUALIFY lead(tok, 1) OVER win IS NOT NULL), "
            "c AS (SELECT bg, CAST(COUNT(*) AS BIGINT) AS n FROM pairs GROUP BY bg), "
            "nn AS (SELECT CAST(SUM(n) AS BIGINT) AS ntot FROM c), "
            "b AS (SELECT bg, CAST(length(bin((SELECT ntot FROM nn) // n)) - 1 "
            "AS BIGINT) AS bits FROM c), "
            "d AS (SELECT p.doc_id, any_value(p.lang) AS lang, "
            "CAST(COUNT(*) AS BIGINT) AS n_bigrams, "
            "CAST(SUM(b.bits) AS BIGINT) AS total_bits "
            "FROM pairs p JOIN b USING (bg) GROUP BY p.doc_id) "
            "SELECT doc_id, lang, n_bigrams, total_bits, "
            "CAST(total_bits * 1000 // n_bigrams AS BIGINT) AS mean_millibits "
            "FROM d ORDER BY mean_millibits DESC, doc_id ASC LIMIT 50"
        ),
        "completeness_audit": (
            "WITH a AS ("
            "SELECT 'text' AS col, COUNT(*) AS nr, "
            "COUNT(*) - COUNT(text) AS nn, "
            "COUNT(*) FILTER (text = '') AS ne FROM documents "
            "UNION ALL SELECT 'lang', COUNT(*), COUNT(*) - COUNT(lang), "
            "COUNT(*) FILTER (lang = '') FROM documents "
            "UNION ALL SELECT 'source', COUNT(*), COUNT(*) - COUNT(source), "
            "COUNT(*) FILTER (source = '') FROM documents) "
            "SELECT col AS \"column\", CAST(nr AS BIGINT) AS n_rows, "
            "CAST(nn AS BIGINT) AS n_null, CAST(ne AS BIGINT) AS n_empty, "
            "CAST((nn + ne) * 1000000 // nr AS BIGINT) AS missing_ppm FROM a"
        ),
        "doclen_deciles_by_source": (
            # replay of analytics.doclen_deciles_by_source: ROW_NUMBER per
            # source, integer rank (n-1)*k//10 + 1 (= quantile_disc)
            "WITH n AS (SELECT source, COUNT(*) AS n FROM documents "
            "GROUP BY source), "
            "r AS (SELECT source, n_chars, ROW_NUMBER() OVER "
            "(PARTITION BY source ORDER BY n_chars) AS rn FROM documents), "
            "q AS (SELECT unnest(generate_series(1, 9)) AS decile) "
            "SELECT r.source, CAST(q.decile AS BIGINT) AS decile, "
            "CAST(r.n_chars AS BIGINT) AS n_chars "
            "FROM q CROSS JOIN n JOIN r ON r.source = n.source "
            "AND r.rn = (n.n - 1) * q.decile // 10 + 1"
        ),
        "bigram_surprisal_by_source": (
            # replay of analytics.bigram_surprisal_by_source: chars via
            # (?s)-dotall extraction, adjacent pairs via a lead window,
            # whole-bit surprisal via the length(bin(m//n))-1 identity
            "WITH ch AS (SELECT doc_id, source, "
            "unnest(regexp_extract_all(text, '(?s).')) AS c, "
            "unnest(generate_series(1, length(text))) AS i "
            "FROM documents WHERE length(text) >= 2), "
            "g AS (SELECT source, c AS c1, c || lead(c, 1) OVER win AS bg "
            "FROM ch WINDOW win AS (PARTITION BY doc_id ORDER BY i) "
            "QUALIFY lead(c, 1) OVER win IS NOT NULL), "
            "n12 AS (SELECT source, c1, bg, COUNT(*) AS n FROM g GROUP BY 1, 2, 3), "
            "n1 AS (SELECT source, c1, SUM(n) AS m FROM n12 GROUP BY 1, 2), "
            "b AS (SELECT n12.source, n12.n, "
            "CAST(length(bin(n1.m // n12.n)) - 1 AS BIGINT) AS bits "
            "FROM n12 JOIN n1 ON n12.source = n1.source AND n12.c1 = n1.c1), "
            "a AS (SELECT source, SUM(n) AS nb, SUM(n * bits) AS tb "
            "FROM b GROUP BY source) "
            "SELECT source, CAST(nb AS BIGINT) AS n_bigrams, "
            "CAST(tb AS BIGINT) AS total_bits, "
            "CAST(tb * 1000 // nb AS BIGINT) AS mean_millibits FROM a"
        ),
        "compaction_bins": (
            # replay of analytics.compaction_bins: exclusive window
            # prefix-sum over (rows DESC, key) order, floor-div capacity 100
            "WITH p AS (SELECT source, lang, COUNT(*) AS n_rows "
            "FROM documents GROUP BY 1, 2), "
            "w AS (SELECT source, lang, n_rows, "
            "COALESCE(SUM(n_rows) OVER (ORDER BY n_rows DESC, source, lang "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS bf FROM p) "
            "SELECT source, lang, CAST(n_rows AS BIGINT) AS n_rows, "
            "CAST(bf // 100 AS BIGINT) AS bin FROM w"
        ),
        "token_diversity_by_lang": _TOKEN_DIVERSITY_SQL,
        "doc_surprisal_topk": _DOC_SURPRISAL_SQL,
        "sentence_stats_by_lang": _SENTENCE_STATS_SQL,
        "readability_by_lang": (
            # replay of analytics.readability_by_lang: shared regex counts
            # on lower(text), per-term floor-div FK milli grade
            "WITH s AS (SELECT lang, "
            "len(regexp_extract_all(lower(text), '[.!?]+')) AS ns, "
            "len(regexp_extract_all(lower(text), '[a-z0-9]+')) AS nw, "
            "len(regexp_extract_all(lower(text), '[aeiouy]+')) AS sy "
            "FROM documents), "
            "a AS (SELECT lang, COUNT(*) AS n_docs, SUM(nw) AS n_words, "
            "SUM(ns) AS n_sentences, SUM(sy) AS n_syllables FROM s "
            "GROUP BY lang) "
            "SELECT lang, CAST(n_docs AS BIGINT) AS n_docs, "
            "CAST(n_words AS BIGINT) AS n_words, "
            "CAST(n_sentences AS BIGINT) AS n_sentences, "
            "CAST(n_syllables AS BIGINT) AS n_syllables, "
            "CAST(390 * n_words // GREATEST(n_sentences, 1) "
            "+ 11800 * n_syllables // GREATEST(n_words, 1) - 15590 "
            "AS BIGINT) AS fk_grade_milli FROM a"
        ),
        "oov_rate_by_lang": (
            # replay of analytics.oov_rate_by_lang: identical vocabulary
            # selection (count DESC, token ASC LIMIT 512) and floor-div ppm
            "WITH t AS (SELECT lang, unnest(regexp_extract_all(lower(text), "
            "'[a-z0-9]+')) AS tok FROM documents), "
            "c AS (SELECT tok, COUNT(*) AS n FROM t GROUP BY tok), "
            "v AS (SELECT tok FROM c ORDER BY n DESC, tok ASC LIMIT 512), "
            "s AS (SELECT lang, COUNT(*) AS n_tokens, "
            "SUM(CASE WHEN tok IN (SELECT tok FROM v) THEN 0 ELSE 1 END) AS n_oov "
            "FROM t GROUP BY lang) "
            "SELECT lang, CAST(n_tokens AS BIGINT) AS n_tokens, "
            "CAST(n_oov AS BIGINT) AS n_oov, "
            "CAST(n_oov * 1000000 // n_tokens AS BIGINT) AS oov_ppm FROM s"
        ),
        "source_vocab_overlap": (
            # replay of analytics.source_vocab_overlap: distinct token-md5
            # per source, equi-join intersections, exact Jaccard ppm
            "WITH tokexp AS (SELECT source, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tk FROM documents), "
            f"tok AS (SELECT DISTINCT source, {_MD5U64.format(v='tk')} AS h FROM tokexp), "
            "sz AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY 1), "
            "inter AS (SELECT a.source AS source_a, b.source AS source_b, "
            "CAST(COUNT(*) AS BIGINT) AS n_common FROM tok a "
            "JOIN tok b ON a.h = b.h AND a.source < b.source GROUP BY 1, 2) "
            "SELECT i.source_a, i.source_b, i.n_common, "
            "CAST(CAST(i.n_common AS HUGEINT) * 1000000 // "
            "(sa.n + sb.n - i.n_common) AS BIGINT) AS jaccard_ppm "
            "FROM inter i JOIN sz sa ON sa.source = i.source_a "
            "JOIN sz sb ON sb.source = i.source_b"
        ),
        "lang_source_chi2": (
            # replay of analytics.categorical_independence_chi2: per-cell
            # floored HUGEINT terms over the FULL cross product
            "WITH o AS (SELECT lang, source, CAST(COUNT(*) AS HUGEINT) AS o "
            "FROM documents GROUP BY 1, 2), "
            "l AS (SELECT lang, CAST(COUNT(*) AS HUGEINT) AS r FROM documents GROUP BY 1), "
            "s AS (SELECT source, CAST(COUNT(*) AS HUGEINT) AS c FROM documents GROUP BY 1), "
            "nn AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n FROM documents), "
            "cells AS (SELECT l.lang, s.source, l.r, s.c, COALESCE(o.o, 0) AS o "
            "FROM l CROSS JOIN s LEFT JOIN o ON o.lang = l.lang AND o.source = s.source) "
            "SELECT CAST(MAX(n) AS BIGINT) AS n_rows, "
            "CAST((SELECT COUNT(*) FROM l) AS BIGINT) AS n_a, "
            "CAST((SELECT COUNT(*) FROM s) AS BIGINT) AS n_b, "
            "CAST(((SELECT COUNT(*) FROM l) - 1) * ((SELECT COUNT(*) FROM s) - 1) AS BIGINT) AS dof, "
            "CAST(SUM(((n*o - r*c)*(n*o - r*c) * 1000000) // (n*r*c)) AS BIGINT) AS chi2_ppm "
            "FROM cells, nn"
        ),
        "shuffle_mix_audit": (
            # replay of analytics.shuffle_mix_audit: the epoch_shuffle md5
            # rank, LAG adjacency, exact exchangeability expectation
            "WITH p AS (SELECT doc_id, CAST(ROW_NUMBER() OVER (ORDER BY "
            + _MD5U64.format(v="'epoch0:' || CAST(doc_id AS VARCHAR)")
            + ", doc_id) - 1 AS BIGINT) AS pos FROM documents), "
            "j AS (SELECT p.pos, d.source FROM p JOIN documents d USING (doc_id)), "
            "adj AS (SELECT source, LAG(source) OVER (ORDER BY pos) AS prev FROM j), "
            "obs AS (SELECT CAST(SUM(CASE WHEN source = prev THEN 1 ELSE 0 END) "
            "AS HUGEINT) AS same FROM adj), "
            "nn AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n FROM documents), "
            "cs AS (SELECT SUM(CAST(c AS HUGEINT) * (CAST(c AS HUGEINT) - 1)) AS num "
            "FROM (SELECT COUNT(*) AS c FROM documents GROUP BY source)) "
            "SELECT CAST(n AS BIGINT) AS n_rows, CAST(same AS BIGINT) AS n_adjacent_same, "
            "CAST(same * 1000000 // (n - 1) AS BIGINT) AS obs_same_ppm, "
            "CAST(num * 1000000 // (n * (n - 1)) AS BIGINT) AS expected_same_ppm "
            "FROM obs, nn, cs"
        ),
        "quality_length_corr": (
            # replay of analytics.quality_length_corr: shared quality CTEs,
            # HUGEINT sufficient statistics, the engine's exact
            # sign * cov^2 // max((vx*vy)//1e6, 1) scoring
            f"WITH {_quality_ctes('lang')}, "
            f"q AS (SELECT lang, CAST(n_chars AS HUGEINT) AS x, "
            f"CAST({_QPPM_EXPR} AS HUGEINT) AS y FROM r), "
            "s AS (SELECT lang, CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx, "
            "SUM(y) AS sy, SUM(x*x) AS sxx, SUM(y*y) AS syy, SUM(x*y) AS sxy "
            "FROM q GROUP BY 1), "
            "c AS (SELECT lang, n, n*sxy - sx*sy AS cov, n*sxx - sx*sx AS vx, "
            "n*syy - sy*sy AS vy FROM s) "
            "SELECT lang, CAST(n AS BIGINT) AS n_docs, "
            "CAST(CASE WHEN vx = 0 OR vy = 0 THEN 0 ELSE "
            "(CASE WHEN cov < 0 THEN -1 ELSE 1 END) * "
            "((cov*cov) // greatest((vx*vy) // 1000000, 1)) END AS BIGINT) "
            "AS r2_signed_ppm FROM c"
        ),
        "encoding_audit": (
            # replay of analytics.encoding_audit: identical plants (chr
            # codepoints match the engine's literal chars) and identical
            # RE2/Python-re pattern strings
            "WITH planted AS (SELECT source, "
            "text || CASE WHEN doc_id % 17 = 3 THEN chr(65533) ELSE '' END "
            "|| CASE WHEN doc_id % 23 = 5 THEN chr(7) ELSE '' END "
            "|| CASE WHEN doc_id % 29 = 7 THEN chr(233) ELSE '' END AS t "
            "FROM documents) "
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            f"CAST(SUM(CASE WHEN regexp_matches(t, '{_ENC_MOJI}') THEN 1 ELSE 0 END) AS BIGINT) AS n_mojibake, "
            f"CAST(SUM(CASE WHEN regexp_matches(t, '{_ENC_CTRL}') THEN 1 ELSE 0 END) AS BIGINT) AS n_ctrl, "
            f"CAST(SUM(CASE WHEN regexp_matches(t, '{_ENC_NONASCII}') THEN 1 ELSE 0 END) AS BIGINT) AS n_nonascii "
            "FROM planted GROUP BY 1"
        ),
        "link_prediction_topk": (
            # replay of analytics.common_neighbor_pairs: shared edge CTEs,
            # canonical undirected dedup, center-vertex wedge join,
            # null-test anti-join vs edges, deterministic (n desc, a, b) cut
            f"WITH {_edges_ctes()}, "
            "und AS (SELECT DISTINCT LEAST(src,dst) AS a, GREATEST(src,dst) AS b FROM edges), "
            "dir AS (SELECT a AS w, b AS v FROM und UNION ALL SELECT b, a FROM und), "
            "wed AS (SELECT e1.v AS a, e2.v AS b FROM dir e1 "
            "JOIN dir e2 ON e1.w = e2.w AND e1.v < e2.v), "
            "cn AS (SELECT a, b, CAST(COUNT(*) AS BIGINT) AS n_common FROM wed GROUP BY 1, 2), "
            "ne AS (SELECT cn.a, cn.b, cn.n_common FROM cn "
            "LEFT JOIN und ON und.a = cn.a AND und.b = cn.b WHERE und.a IS NULL) "
            "SELECT a AS doc_a, b AS doc_b, n_common FROM ne "
            "ORDER BY n_common DESC, a, b LIMIT 20"
        ),
        "vocab_growth": (
            # replay of analytics.vocab_growth: integer-ppm thresholds of
            # max(doc_id)+1, per-token MIN first doc, counts below each
            # threshold; token rule shared with _TOP_TOKENS_SQL
            "WITH mx AS (SELECT MAX(doc_id) + 1 AS n FROM documents), "
            "cp AS (SELECT unnest([250000,500000,750000,1000000]) AS ppm), "
            "th AS (SELECT ppm, (ppm * n) // 1000000 AS d FROM cp, mx), "
            "tok AS (SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS tk "
            "FROM documents), "
            "firsts AS (SELECT tk, MIN(doc_id) AS fid FROM tok GROUP BY 1) "
            "SELECT th.ppm AS frac_ppm, "
            "CAST((SELECT COUNT(*) FROM documents dd WHERE dd.doc_id < th.d) AS BIGINT) AS n_docs, "
            "CAST((SELECT COUNT(*) FROM firsts f WHERE f.fid < th.d) AS BIGINT) AS vocab_size "
            "FROM th"
        ),
        "split_skew_audit": (
            # replay of analytics.split_skew_audit: dataset_split_counts'
            # md5 split thresholds, 256-wide buckets, cross-multiplied TVD
            "WITH s AS (SELECT n_chars, CASE WHEN h < '19999999' THEN 'val' "
            "WHEN h < '33333333' THEN 'test' ELSE 'train' END AS split FROM "
            "(SELECT n_chars, substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS h "
            "FROM documents)), "
            "c AS (SELECT split, n_chars // 256 AS b, COUNT(*) AS n FROM s "
            "WHERE split IN ('train', 'test') GROUP BY 1, 2), "
            "tr AS (SELECT b, n FROM c WHERE split = 'train'), "
            "te AS (SELECT b, n FROM c WHERE split = 'test'), "
            "nt AS (SELECT (SELECT COALESCE(SUM(n), 0) FROM tr) AS n0, "
            "(SELECT COALESCE(SUM(n), 0) FROM te) AS n1), "
            "u AS (SELECT COALESCE(tr.n, 0) AS a, COALESCE(te.n, 0) AS bb "
            "FROM tr FULL OUTER JOIN te ON tr.b = te.b) "
            "SELECT CAST(nt.n0 AS BIGINT) AS n_train, CAST(nt.n1 AS BIGINT) AS n_test, "
            "CAST(SUM(abs(CAST(a AS HUGEINT) * nt.n1 - CAST(bb AS HUGEINT) * nt.n0)) "
            "* 1000000 // (2 * CAST(nt.n0 AS HUGEINT) * nt.n1) AS BIGINT) AS tvd_ppm "
            "FROM u, nt GROUP BY nt.n0, nt.n1"
        ),
        "k_anonymity": (
            # replay of analytics.k_anonymity_audit over (lang, source):
            # grouping by the columns == grouping by the chr(31) key
            "WITH g AS (SELECT lang, source, COUNT(*) AS n FROM documents "
            "GROUP BY 1, 2), "
            "a AS (SELECT CAST(SUM(n) AS BIGINT) AS n_rows, "
            "CAST(COUNT(*) AS BIGINT) AS n_groups, "
            "CAST(COUNT(*) FILTER (n < 10) AS BIGINT) AS n_small_groups, "
            "CAST(COALESCE(SUM(n) FILTER (n < 10), 0) AS BIGINT) AS n_rows_at_risk "
            "FROM g) "
            "SELECT n_rows, n_groups, n_small_groups, n_rows_at_risk, "
            "CAST(n_rows_at_risk * 1000000 // n_rows AS BIGINT) AS risk_ppm FROM a"
        ),
        "label_centroids": _LABEL_CENTROIDS_SQL,
        "evolved_schema_counts": _EVOLVED_SCHEMA_COUNTS_SQL,
        "lpa_modularity": _lpa_modularity_sql(rounds=4),
        "encoding_advisor": (
            # replay of analytics.encoding_advisor: exact byte arithmetic,
            # index width = bytes to index the dictionary via length(bin())
            "WITH "
            + " UNION ALL ".join(
                "SELECT '{c}' AS col, COUNT(*) AS n_rows, "
                "COUNT(DISTINCT {c}) AS n_distinct, "
                "SUM(length({c})) AS plain, "
                "(SELECT SUM(length(v)) FROM "
                "(SELECT DISTINCT {c} AS v FROM documents)) AS dlen "
                "FROM documents".format(c=c)
                for c in ("lang", "source", "text")
            ).join(["s AS (", ") "])
            + "SELECT col AS \"column\", CAST(n_rows AS BIGINT) AS n_rows, "
            "CAST(n_distinct AS BIGINT) AS n_distinct, "
            "CAST(plain AS BIGINT) AS plain_bytes, "
            "CAST(dlen + n_rows * GREATEST(1, (length(bin(GREATEST("
            "n_distinct - 1, 1))) + 7) // 8) AS BIGINT) AS dict_bytes, "
            "CAST(CASE WHEN dlen + n_rows * GREATEST(1, (length(bin("
            "GREATEST(n_distinct - 1, 1))) + 7) // 8) < plain THEN 1 "
            "ELSE 0 END AS BIGINT) AS dict_wins FROM s ORDER BY col"
        ),
        "bpe_merge_candidates": _BPE_MERGE_SQL,
        "dp_geometric_counts": _dp_geometric_sql(),
        "padding_waste_by_bucket": _PADDING_WASTE_SQL,
        "chao1_vocab_estimate": _CHAO1_SQL,
        "corpus_datacard": _corpus_datacard_sql(),
        "gopher_quality_flags": _gopher_flags_sql(),
        "mattr_by_lang": _MATTR_SQL,
        "real_png_roundtrip": ("SELECT doc_id, CASE WHEN length(text) >= 32 THEN substr(text, 1, (length(text) // 32) * 32) ELSE text END AS text_out FROM documents WHERE lang = 'en'"),
        "real_pdf_roundtrip": ("SELECT doc_id, text AS text_out FROM documents WHERE lang = 'en'"),
        "vocab_pruning_plan": _VOCAB_PRUNING_SQL,
        "ams_f2_audit": _ams_f2_sql(),
        "unigram_power_sample_plan": _UNIGRAM_POWER_SQL,
        "max_coverage_select": _max_coverage_sql(),
        "blocklist_screen": _blocklist_sql(),
        "code_switch_rate_by_source": _code_switch_sql(),
        "token_budget_waterfill": _WATERFILL_SQL,
        "random_walks": _random_walks_sql(),
        "kwic_snippets": _kwic_sql(),
        "matryoshka_recall_audit": _matryoshka_sql(),
        "mmr_diverse_topk": _mmr_sql(),
        "embedding_covariance_topk": (
            # replay of analytics.embedding_covariance_topk: identical
            # milli-unit quantization (floor(x*1000+0.5) -- the
            # quantize_embeddings convention), 1-based dim indexing via
            # q[i], exact integer cov_num = n*S_ab - s_a*s_b in HUGEINT
            "WITH e AS (SELECT vec_id, list_transform(embedding, x -> "
            "CAST(FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)) AS q "
            "FROM embeddings), "
            "dims AS (SELECT unnest(generate_series(1, len(q))) AS i, vec_id, q "
            "FROM e), "
            "u AS (SELECT vec_id, i, q[i] AS x FROM dims), "
            "n AS (SELECT COUNT(*) AS n FROM e), "
            "s AS (SELECT i, SUM(x) AS s FROM u GROUP BY i), "
            "g AS (SELECT a.i AS dim_a, b.i AS dim_b, SUM(a.x * b.x) AS sab "
            "FROM u a JOIN u b ON a.vec_id = b.vec_id AND a.i < b.i "
            "GROUP BY 1, 2) "
            "SELECT CAST(g.dim_a AS BIGINT) AS dim_a, "
            "CAST(g.dim_b AS BIGINT) AS dim_b, "
            "CAST(n.n * g.sab - sa.s * sb.s AS BIGINT) AS cov_num "
            "FROM g, n JOIN s sa ON sa.i = g.dim_a JOIN s sb ON sb.i = g.dim_b "
            "ORDER BY abs(n.n * g.sab - sa.s * sb.s) DESC, g.dim_a, g.dim_b "
            "LIMIT 20"
        ),
        "pq_recall_audit": _pq_sql(),
        "sq8_recall_audit": _sq8_sql(),
        "embedding_outliers_topk": (
            # replay of analytics.embedding_outliers_topk: milli-int
            # quantization, floor-div per-label centroids, exact integer
            # squared L2, (dist DESC, vec_id) total order
            "WITH e AS (SELECT vec_id, label, list_transform(embedding, x -> "
            "CAST(FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)) AS q "
            "FROM embeddings), "
            "dims AS (SELECT unnest(generate_series(1, 64)) AS i), "
            "u AS (SELECT vec_id, label, i, q[i] AS x FROM e, dims), "
            "c AS (SELECT label, i, SUM(x) // COUNT(*) AS cx FROM u "
            "GROUP BY 1, 2), "
            "d AS (SELECT u.vec_id, u.label, "
            "SUM((u.x - c.cx) * (u.x - c.cx)) AS dist FROM u "
            "JOIN c ON c.label = u.label AND c.i = u.i GROUP BY 1, 2) "
            "SELECT CAST(vec_id AS BIGINT) AS vec_id, "
            "CAST(label AS BIGINT) AS label, CAST(dist AS BIGINT) AS dist "
            "FROM d ORDER BY dist DESC, vec_id LIMIT 20"
        ),
        "centroid_separation_audit": (
            # replay of analytics.centroid_separation_audit: milli-int
            # quantization, truncating-div centroids, exact integer within-
            # SSD and centroid pair distances, (dist, label) nearest
            # tie-break, floor-div ratio ppm
            "WITH e AS (SELECT label, list_transform(embedding, x -> "
            "CAST(FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)) AS q "
            "FROM embeddings), "
            "dims AS (SELECT unnest(generate_series(1, 64)) AS i), "
            "u AS (SELECT label, i, q[i] AS x FROM e, dims), "
            "c AS (SELECT label, i, SUM(x) // COUNT(*) AS cx FROM u "
            "GROUP BY 1, 2), "
            "cnt AS (SELECT label, COUNT(*) AS n_vecs FROM e GROUP BY 1), "
            "w AS (SELECT u.label, SUM((u.x - c.cx) * (u.x - c.cx)) AS ssd "
            "FROM u JOIN c ON c.label = u.label AND c.i = u.i GROUP BY 1), "
            "pd AS (SELECT a.label AS la, b.label AS lb, "
            "SUM((a.cx - b.cx) * (a.cx - b.cx)) AS dist FROM c a "
            "JOIN c b ON a.i = b.i AND a.label <> b.label GROUP BY 1, 2), "
            "nn AS (SELECT la, lb, dist, ROW_NUMBER() OVER "
            "(PARTITION BY la ORDER BY dist, lb) AS rn FROM pd) "
            "SELECT CAST(w.label AS BIGINT) AS label, "
            "CAST(cnt.n_vecs AS BIGINT) AS n_vecs, "
            "CAST(w.ssd // cnt.n_vecs AS BIGINT) AS within_msd, "
            "CAST(nn.lb AS BIGINT) AS nn_label, "
            "CAST(nn.dist AS BIGINT) AS nn_dist, "
            "CAST(nn.dist * 1000000 // GREATEST(w.ssd // cnt.n_vecs, 1) "
            "AS BIGINT) AS separation_ppm "
            "FROM w JOIN cnt ON cnt.label = w.label "
            "JOIN nn ON nn.la = w.label AND nn.rn = 1 ORDER BY w.label"
        ),
        "source_centroid_geometry": (
            # replay of analytics.source_centroid_geometry: vec_id=doc_id
            # join, milli-int quantization, truncating-div per-source
            # centroids, exact integer pairwise dot products + squared norms
            "WITH e AS (SELECT d.source AS source, list_transform("
            "m.embedding, x -> CAST(FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5) "
            "AS BIGINT)) AS q FROM embeddings m "
            "JOIN documents d ON d.doc_id = m.vec_id), "
            "dims AS (SELECT unnest(generate_series(1, 64)) AS i), "
            "u AS (SELECT source, i, q[i] AS x FROM e, dims), "
            "c AS (SELECT source, i, SUM(x) // COUNT(*) AS cx FROM u "
            "GROUP BY 1, 2), "
            "n AS (SELECT source, SUM(cx * cx) AS nsq FROM c GROUP BY 1), "
            "p AS (SELECT a.source AS source_a, b.source AS source_b, "
            "SUM(a.cx * b.cx) AS dot_num FROM c a "
            "JOIN c b ON a.i = b.i AND a.source < b.source GROUP BY 1, 2) "
            "SELECT p.source_a, p.source_b, "
            "CAST(p.dot_num AS BIGINT) AS dot_num, "
            "CAST(na.nsq AS BIGINT) AS normsq_a, "
            "CAST(nb.nsq AS BIGINT) AS normsq_b "
            "FROM p JOIN n na ON na.source = p.source_a "
            "JOIN n nb ON nb.source = p.source_b "
            "ORDER BY p.source_a, p.source_b"
        ),
        "bitext_mining_topk": (
            # replay of analytics.bitext_mining_topk: milli quantization,
            # cross-slice integer dot grid, (dot DESC, id) top-2, absolute
            # margin, (margin DESC, src_id) top-20
            "WITH e AS (SELECT m.vec_id AS id, d.lang AS lang, "
            "list_transform(m.embedding, x -> CAST(FLOOR(CAST(x AS DOUBLE) "
            "* 1000 + 0.5) AS BIGINT)) AS v FROM embeddings m "
            "JOIN documents d ON d.doc_id = m.vec_id), "
            "dims AS (SELECT unnest(generate_series(1, 64)) AS i), "
            "u AS (SELECT id, lang, i, v[i] AS x FROM e, dims "
            "WHERE v[i] IS NOT NULL), "
            "dots AS (SELECT a.id AS src_id, b.id AS tgt_id, "
            "SUM(a.x * b.x) AS dot FROM u a JOIN u b ON a.i = b.i "
            "AND a.lang = 'en' AND b.lang = 'de' GROUP BY 1, 2), "
            "rk AS (SELECT src_id, tgt_id, dot, row_number() OVER "
            "(PARTITION BY src_id ORDER BY dot DESC, tgt_id) AS rn "
            "FROM dots), "
            "pr AS (SELECT r1.src_id, r1.tgt_id, r1.dot AS dot_num, "
            "r1.dot - COALESCE(r2.dot, r1.dot) AS margin_num FROM rk r1 "
            "LEFT JOIN rk r2 ON r2.src_id = r1.src_id AND r2.rn = 2 "
            "WHERE r1.rn = 1) "
            "SELECT CAST(src_id AS BIGINT) AS src_id, "
            "CAST(tgt_id AS BIGINT) AS tgt_id, "
            "CAST(dot_num AS BIGINT) AS dot_num, "
            "CAST(margin_num AS BIGINT) AS margin_num FROM pr "
            "QUALIFY row_number() OVER (ORDER BY margin_num DESC, src_id) "
            "<= 20"
        ),
        "kcenter_coreset": _kcenter_sql(k=8),
        "pca_top_component": _pca_sql(),
        "dsir_importance_weights": (
            # replay of analytics.dsir_importance_weights: shared
            # tokenization, 'dsir:<tok>' md5-u64 % 1024 buckets, wb =
            # bits(nt+1) - bits(nr+1) via length(bin())-1, sign-split
            # truncating milli mean per doc
            "WITH tok AS (SELECT doc_id, lang, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tk "
            "FROM documents), "
            "bk AS (SELECT doc_id, lang, CAST(CAST(('0x' || "
            "substr(md5('dsir:' || tk), 1, 16)) AS UBIGINT) % 1024 "
            "AS BIGINT) AS b FROM tok), "
            "cnt AS (SELECT b, COUNT(*) AS nr, "
            "COUNT(*) FILTER (WHERE lang = 'en') AS nt FROM bk GROUP BY 1), "
            "w AS (SELECT b, (length(bin(nt + 1)) - 1) - "
            "(length(bin(nr + 1)) - 1) AS wb FROM cnt), "
            "s AS (SELECT doc_id, SUM(wb) AS num, COUNT(*) AS ntok "
            "FROM bk JOIN w USING (b) GROUP BY 1) "
            "SELECT doc_id, CAST(ntok AS BIGINT) AS n_tok, "
            "CAST(CASE WHEN num >= 0 THEN (num * 1000) // ntok "
            "ELSE -(((-num) * 1000) // ntok) END AS BIGINT) AS score_milli "
            "FROM s ORDER BY doc_id"
        ),
        "rendezvous_routing_balance": (
            # replay of analytics.rendezvous_routing_balance: the same
            # 'hrw:<id>:<worker>' md5-u64 score grid, argmax by (score
            # DESC, worker), trunc-div ppm share of the total
            "WITH wk AS (SELECT 'w' || lpad(CAST(i AS VARCHAR), 2, '0') AS "
            "worker FROM (SELECT unnest(generate_series(0, 15)) AS i)), "
            "a AS (SELECT doc_id, worker, CAST(('0x' || substr(md5('hrw:' "
            "|| CAST(doc_id AS VARCHAR) || ':' || worker), 1, 16)) AS "
            "UBIGINT) AS h FROM documents, wk), "
            "asn AS (SELECT doc_id, worker FROM a QUALIFY row_number() "
            "OVER (PARTITION BY doc_id ORDER BY h DESC, worker) = 1), "
            "cnt AS (SELECT worker, COUNT(*) AS n_docs FROM asn GROUP BY 1) "
            "SELECT worker, CAST(n_docs AS BIGINT) AS n_docs, "
            "CAST((n_docs * 1000000) // (SELECT SUM(n_docs) FROM cnt) "
            "AS BIGINT) AS share_ppm FROM cnt ORDER BY worker"
        ),
        "nearest_centroid_confusion": (
            # replay of analytics.nearest_centroid_confusion: milli-int
            # quantization, truncating-div centroids, exact integer squared
            # L2 to EVERY centroid, (dist, label) argmin tie-break, floor-div
            # per-true-label share ppm
            "WITH e AS (SELECT ROW_NUMBER() OVER () AS rid, label, "
            "list_transform(embedding, x -> "
            "CAST(FLOOR(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)) AS q "
            "FROM embeddings), "
            "dims AS (SELECT unnest(generate_series(1, 64)) AS i), "
            "u AS (SELECT rid, label, i, q[i] AS x FROM e, dims), "
            "c AS (SELECT label, i, SUM(x) // COUNT(*) AS cx FROM u "
            "GROUP BY 1, 2), "
            "cnt AS (SELECT label, COUNT(*) AS n_total FROM e GROUP BY 1), "
            "d AS (SELECT u.rid, u.label, c.label AS cl, "
            "SUM((u.x - c.cx) * (u.x - c.cx)) AS dist FROM u "
            "JOIN c ON c.i = u.i GROUP BY 1, 2, 3), "
            "p AS (SELECT rid, label, cl, ROW_NUMBER() OVER "
            "(PARTITION BY rid ORDER BY dist, cl) AS rn FROM d), "
            "m AS (SELECT label, cl AS pred_label, COUNT(*) AS n_vecs "
            "FROM p WHERE rn = 1 GROUP BY 1, 2) "
            "SELECT CAST(m.label AS BIGINT) AS label, "
            "CAST(m.pred_label AS BIGINT) AS pred_label, "
            "CAST(m.n_vecs AS BIGINT) AS n_vecs, "
            "CAST(m.n_vecs * 1000000 // cnt.n_total AS BIGINT) AS share_ppm "
            "FROM m JOIN cnt ON cnt.label = m.label "
            "ORDER BY m.label, m.pred_label"
        ),
        "lang_temperature_plan": (
            # replay of analytics.lang_temperature_plan: FLOOR(SQRT(n))
            # (ieee-correctly-rounded on both sides) and floor-div ppm
            "WITH c AS (SELECT lang, COUNT(*) AS n_docs FROM documents "
            "GROUP BY lang), "
            "w AS (SELECT lang, n_docs, "
            "CAST(FLOOR(SQRT(CAST(n_docs AS DOUBLE))) AS BIGINT) AS weight "
            "FROM c), "
            "t AS (SELECT SUM(weight) AS sum_w, SUM(n_docs) AS N FROM w) "
            "SELECT w.lang, w.n_docs, w.weight, "
            "CAST(w.weight * 1000000 // t.sum_w AS BIGINT) AS target_share_ppm, "
            "CAST(w.weight * t.N * 1000000 // (t.sum_w * w.n_docs) AS BIGINT) "
            "AS resample_factor_ppm FROM w, t ORDER BY w.lang"
        ),
    }
