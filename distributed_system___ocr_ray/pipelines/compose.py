"""Composed training-data pipeline: extract -> embed -> near-dup.

The full flow a 100 TB training-data pipeline runs over interleaved
documents: main-content extraction (the flagship engine), then a document
embedding, then embedding-cosine near-dup -- wired as ONE streaming Dataset
plan (no stage materializes the corpus; only the tiny pair result reaches
the driver).

The embedder is deterministic feature hashing (token -> md5-prefix bucket ->
l2-normalized counts) -- model-shaped plumbing (vectorized batch kernel,
fixed dim) without a model dependency; swap ``HashEmbedder`` for a real
encoder actor at will (same signature). The md5-prefix bucket (same kernel
as functions/dedup.md5_u64) keeps the whole composed pipeline SQL-replayable
(__ray_entry__._extract_embed_neardup_sql).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.dedup import md5_u64

EMBED_DIM = 64


class HashEmbedder:
    """Actor-pool stage: extracted doc spans -> one embedding per doc.

    Stateless math, but kept as a callable class so a real model swap
    (load-once in ``__init__``) changes nothing structurally.
    """

    def __init__(self, dim: int = EMBED_DIM) -> None:
        self.dim = dim

    def _embed_one(self, text: str) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.float64)
        for tok in text.lower().split():
            v[md5_u64(tok.encode("utf-8")) % self.dim] += 1.0
        n = np.linalg.norm(v)
        return v / n if n else v

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        spans_col = batch.column("spans").to_pylist()
        embs = []
        for spans in spans_col:
            text = "\n".join(s["text"] for s in spans)
            embs.append(self._embed_one(text))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "embedding": pa.array([e.tolist() for e in embs], pa.list_(pa.float32())),
            }
        )


def extract_embed_neardup(
    docs, media, *, threshold: float = 0.995, dim: int = EMBED_DIM
):
    """(documents, media) -> near-dup doc pairs over EXTRACTED content.

    extract (flagship plan) -> HashEmbedder -> hyperplane-LSH cosine pairs.
    Duplicated source documents collide even when their raw payloads differ
    (e.g. same content behind different media refs), because the comparison
    runs on extraction output -- the point of deduplicating post-extraction.
    """
    from ..pipelines import analytics
    from ..pipelines.extract import extract_dataset

    extracted = extract_dataset(docs, media)
    embedded = extracted.map_batches(
        HashEmbedder, fn_constructor_kwargs={"dim": dim},
        batch_format="pyarrow", batch_size=512, concurrency=(1, 8),
    )
    return analytics.embedding_neardup_pairs(
        embedded, id_col="doc_id", emb_col="embedding", threshold=threshold, dim=dim
    )


def ingest_increment(
    new_ds,
    corpus_dir: str,
    *,
    min_quality_ppm: int = 400_000,
    max_top_token_ppm: int = 600_000,
    rows_per_fragment: int = 100_000,
    compact_over_fragments: int | None = 64,
    near_dup_threshold: float | None = None,
    gopher: bool = False,
):
    """The daily-batch corpus-growth composition: hygiene-filter a fresh
    crawl, drop within-batch duplicates, drop docs the committed corpus
    already holds, append the survivors as a new manifest version, and
    compact when small fragments accumulate.

    Every stage is the standalone operator other queries use individually
    (quality_features + repetition_features -> exact_dedup_semifilter ->
    novel_docs -> lance_like append/compact), wired the way a
    continuously-ingesting 100 TB corpus runs them:

    - the INCREMENT is materialized once after the hygiene filter (an
      increment is bounded by definition -- it is the day's crawl, not the
      corpus) so the dedup/novelty/write stages don't re-execute the
      upstream and the per-stage counts in the returned stats are free;
    - the CORPUS side is never materialized: novelty reduces it to distinct
      hashes (novel_docs), the append writes only new fragments, and
      compaction rewrites only runs of small fragments.

    ``gopher``: additionally apply the Gopher composite quality gate
    (``gopher_quality_flags``' keep) inside the hygiene stage.

    ``near_dup_threshold``: when set, a FUZZY second gate
    (``novel_docs_minhash``) also drops docs that near-duplicate a
    committed doc at estimated Jaccard >= threshold -- the
    boilerplate-reflowed re-crawls exact hashing misses.

    Returns a stats dict: rows_in / after_hygiene / after_dedup /
    after_novelty / after_near_novelty (None unless enabled) /
    corpus_version / corpus_rows / compacted.
    """
    import pandas as pd

    from ..functions import textstats as ts
    from ..pipelines import analytics
    from ..sources import lance_like

    # materialize the increment up front: count() would otherwise execute
    # the upstream once for the number and the hygiene pass would execute it
    # again -- for a computed increment (crawl parse) that doubles the most
    # expensive read. Boundedness is the premise of the whole function.
    new_ds = new_ds.materialize()
    rows_in = new_ds.count()

    def hygiene(batch: pd.DataFrame) -> pd.DataFrame:
        q = ts.quality_features(batch["text"])["quality_ppm"].to_numpy()
        rep = ts.repetition_features(batch["doc_id"].to_numpy(), batch["text"])
        keep = (q >= min_quality_ppm) & (
            rep["top_token_ppm"].to_numpy() <= max_top_token_ppm
        )
        if gopher:  # the MassiveText composite gate, same kernel as the
            # registry query (analytics.gopher_flag_arrays -- no drift)
            keep &= analytics.gopher_flag_arrays(batch["text"])["keep"].astype(bool)
        return batch[keep]

    filt = new_ds.map_batches(hygiene, batch_format="pandas").materialize()
    after_hygiene = filt.count()

    # semifilter, not a full-row groupby: within-increment duplicate
    # clusters are skewed by nature (boilerplate), and a groupby on the
    # content key would shuffle the whole text column; the semifilter moves
    # only (hash, id) pairs and filters rows map-side. Its two passes over
    # the input are free here -- ``filt`` is already materialized above.
    deduped = analytics.exact_dedup_semifilter(filt).materialize()
    after_dedup = deduped.count()

    has_corpus = lance_like.latest_version(corpus_dir) > 0
    if has_corpus:
        corpus = lance_like.read_dataset(corpus_dir, columns=["text"])
        survivors = analytics.novel_docs(deduped, corpus).materialize()
    else:
        survivors = deduped
    after_novelty = survivors.count()

    # optional FUZZY gate: also drop docs that NEAR-duplicate a committed
    # doc (MinHash-LSH est J >= threshold) -- the boilerplate-reflowed
    # re-crawls exact hashing misses. Runs after the exact gate so the
    # minhash union only carries genuinely-new-bytes docs.
    after_near_novelty = None
    if near_dup_threshold is not None and has_corpus and after_novelty:
        corpus_full = lance_like.read_dataset(
            corpus_dir, columns=["doc_id", "text"])
        survivors = analytics.novel_docs_minhash(
            survivors, corpus_full, threshold=near_dup_threshold
        ).materialize()
        after_near_novelty = survivors.count()

    manifest = lance_like.write_dataset(
        survivors, corpus_dir, rows_per_fragment=rows_per_fragment, mode="append"
    )
    compacted = False
    if compact_over_fragments and len(manifest["fragments"]) > compact_over_fragments:
        manifest = lance_like.compact(corpus_dir, target_rows_per_fragment=rows_per_fragment)
        compacted = True

    return {
        "rows_in": rows_in,
        "after_hygiene": after_hygiene,
        "after_dedup": after_dedup,
        "after_novelty": after_novelty,
        "after_near_novelty": after_near_novelty,
        "corpus_version": manifest["version"],
        "corpus_rows": sum(f["rows"] for f in manifest["fragments"]),
        "compacted": compacted,
    }


def changed_rows(
    table_dir: str,
    v_old: int,
    v_new: int | None = None,
    *,
    key_col: str = "doc_id",
    buckets: int = 64,
):
    """Row-level change data feed between two manifest versions: one
    (key, change) row per key whose rows were ``inserted`` / ``deleted`` /
    ``updated`` between ``v_old`` and ``v_new`` -- the CDC view downstream
    consumers (index refresh, cache invalidation, replication) subscribe
    to (Delta CDF / Iceberg changelog semantics).

    Scale shape: fragments are immutable, so ANY row change rewrites its
    fragment -- rows in fragments common to both versions are untouched by
    construction and are never read (``lance_like.diff`` is the metadata
    prefilter). Only removed-fragment rows (old side) and added-fragment
    rows (new side) stream through: each batch collapses to (key,
    row-content hash, side) -- the content hash is engine-internal
    equality only (vectorized pd.util.hash_array over a canonical column
    join; it never needs to match SQL) -- then ONE hash exchange on key
    classifies per bucket. Rewrites that CARRY a row (compaction, the
    untouched neighbors in a merge/delete-rewritten fragment) cancel out:
    same key, same hash, both sides.

    Classification per key: only-new = inserted, only-old = deleted,
    both sides with any content difference (or count drift for non-unique
    keys) = updated; both sides identical = carried, not emitted.

    Returns a Dataset of (key_col, change) -- empty (with schema) when the
    versions differ only by carried rows.
    """
    import os

    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from ..sources import lance_like
    from .relational import hash_bucket_column

    d = lance_like.diff(table_dir, v_old, v_new)
    sides = [
        (os.path.join(table_dir, f["path"]), -1) for f in d["removed"]
    ] + [(os.path.join(table_dir, f["path"]), 1) for f in d["added"]]
    empty = pa.table(
        {key_col: pa.array([], pa.int64()), "change": pa.array([], pa.string())}
    )
    if not sides:
        return rd.from_arrow(empty)

    def hash_side(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            others = [n for n in sorted(batch.schema.names) if n != key_col]
            parts = [
                pc.fill_null(pc.cast(batch.column(n), pa.string()), "\x00")
                for n in others
            ]
            if len(parts) > 1:
                canon = pc.binary_join_element_wise(*parts, "\x1f")
            elif parts:
                canon = parts[0]
            else:
                canon = pa.array([""] * batch.num_rows, pa.string())
            h = pd.util.hash_array(np.asarray(canon.to_pandas(), dtype=object))
            return pa.table(
                {
                    key_col: batch.column(key_col).cast(pa.int64()),
                    "h": pa.array(h.view(np.int64), pa.int64()),
                    "side": pa.array(
                        np.full(batch.num_rows, side, np.int8), pa.int8()
                    ),
                }
            )

        return fn

    old_paths = [p for p, s in sides if s < 0]
    new_paths = [p for p, s in sides if s > 0]
    parts_ds = []
    if old_paths:
        parts_ds.append(
            rd.read_parquet(old_paths).map_batches(
                hash_side(-1), batch_format="pyarrow"
            )
        )
    if new_paths:
        parts_ds.append(
            rd.read_parquet(new_paths).map_batches(
                hash_side(1), batch_format="pyarrow"
            )
        )
    ds = parts_ds[0].union(*parts_ds[1:]) if len(parts_ds) > 1 else parts_ds[0]

    def classify(g: pd.DataFrame) -> pd.DataFrame:
        per_key = g.groupby(key_col, sort=True)["side"].agg(
            n_new=lambda s: int((s > 0).sum()), n_old=lambda s: int((s < 0).sum())
        )
        net = g.groupby([key_col, "h"], sort=False)["side"].sum()
        dirty = (
            (net != 0).groupby(level=0).any().reindex(per_key.index, fill_value=False)
        )
        change = np.where(
            per_key["n_old"] == 0,
            "inserted",
            np.where(
                per_key["n_new"] == 0,
                "deleted",
                np.where(
                    dirty.to_numpy() | (per_key["n_old"] != per_key["n_new"]),
                    "updated",
                    "",
                ),
            ),
        )
        keep = change != ""
        # Arrow out (map_groups accepts it): a size-0 object-dtype pandas
        # column trips Ray's block-size estimator into warn-spam
        return pa.table(
            {
                key_col: pa.array(per_key.index.to_numpy(np.int64)[keep], pa.int64()),
                "change": pa.array(change[keep].tolist(), pa.string()),
            }
        )

    return (
        ds.map_batches(
            lambda b: hash_bucket_column(b, key_col, buckets),
            batch_format="pyarrow",
        )
        .groupby("__bucket")
        .map_groups(classify, batch_format="pandas")
    )


def doc_completeness_by_lang(sf_dir: str, *, buckets: int = 32):
    """Per-language extraction completeness over the interleaved flagship:
    a document is COMPLETE when every one of its spans extracted ok (no
    download/ocr/parse errors) -- the acceptance metric an extraction fleet
    reports per corpus slice before a training run ingests it (the
    reference's per-app summary file aggregates the same ok/error split,
    Manager.java:250-293; here it lands per language).

    Runs the REAL pipeline (wrap -> explode -> task-pool extraction), not
    the closed form -- the oracle independently recomputes span statuses
    from doc_id/md5 arithmetic, so this query end-to-end checks the engine's
    error routing. Scale shape: span statuses collapse to compact
    (doc_id, n_bad) partials per batch, ONE hash-bucketed exchange folds
    them per doc, one bucketed hash join attaches lang (both sides large =>
    no broadcast), and the per-lang fold is bounded. Text payloads never
    enter an exchange.

    Returns (lang, n_docs, n_complete, complete_ppm) with floor-div ppm."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from ..sources import wrap
    from . import extract as extract_mod
    from .relational import (bucketed_grouped_sum, bucketed_hash_join,
                             tiny_final_groupby)

    docs_ds, store = wrap.interleaved_from_documents(sf_dir)
    ext = extract_mod.extracted_dataset(docs_ds, store)

    def partial(batch: pa.Table) -> pa.Table:
        bad = pc.cast(pc.not_equal(batch.column("status"), "ok"), pa.int64())
        t = pa.table({"doc_id": batch.column("doc_id"), "n_bad": bad})
        g = t.group_by("doc_id").aggregate([("n_bad", "sum")])
        return g.rename_columns(["doc_id", "n_bad"])

    perdoc = bucketed_grouped_sum(
        ext.map_batches(partial, batch_format="pyarrow"),
        "doc_id", "n_bad", buckets=buckets)

    def key_docs(batch: pa.Table) -> pa.Table:
        ids = [f"doc-{i:010d}" for i in batch.column("doc_id").to_pylist()]
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "lang": batch.column("lang")})

    langs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    ).map_batches(key_docs, batch_format="pyarrow")

    joined = bucketed_hash_join(perdoc, langs, "doc_id", "doc_id",
                                buckets=buckets)

    def lang_partial(batch: pd.DataFrame) -> pd.DataFrame:
        comp = (batch["n_bad"] == 0).astype("int64")
        g = pd.DataFrame({"lang": batch["lang"], "c": comp})
        p = g.groupby("lang", sort=False).agg(
            n_docs=("c", "size"), n_complete=("c", "sum")).reset_index()
        return p.astype({"n_docs": np.int64, "n_complete": np.int64})

    folded = tiny_final_groupby(
        joined.map_batches(lang_partial, batch_format="pandas"),
        ["lang"], [("n_docs", "sum"), ("n_complete", "sum")],
        ["lang", "n_docs", "n_complete"])

    def add_ppm(batch: pa.Table) -> pa.Table:
        nd = batch.column("n_docs").to_pylist()
        ncp = batch.column("n_complete").to_pylist()
        ppm = pa.array([int(c) * 1_000_000 // int(n) for c, n in zip(ncp, nd)],
                       pa.int64())
        return batch.append_column("complete_ppm", ppm)

    return folded.map_batches(add_ppm, batch_format="pyarrow", batch_size=None)


def span_profile_by_kind(sf_dir: str):
    """Extracted-output shape profile per span kind over the REAL flagship
    pipeline: span counts and total/mean extracted-text lengths for text vs
    image(OCR) vs pdf(layout) spans -- the capacity-planning table an
    extraction fleet reads to size downstream tokenization (how many chars
    each route actually yields per span). Complements extract_interleaved's
    exact span-table hash with an aggregate that also rides the closed-form
    ``allspans`` oracle, so both the routing AND the output text lengths are
    end-to-end checked.

    Scale shape: one vectorized utf8_length pass per batch collapses to
    (kind, n, chars) partials -- three rows per block -- and a bounded fold;
    mean is floor-div milli. Returns (kind, n_spans, total_chars,
    mean_chars_milli) ordered by the driver compare."""
    import pyarrow.compute as pc

    from ..sources import wrap
    from . import extract as extract_mod
    from .relational import tiny_final_groupby

    docs_ds, store = wrap.interleaved_from_documents(sf_dir)
    ext = extract_mod.extracted_dataset(docs_ds, store)

    def partial(batch: pa.Table) -> pa.Table:
        chars = pc.cast(pc.utf8_length(batch.column("out_text")), pa.int64())
        t = pa.table({"kind": batch.column("kind"), "chars": chars})
        g = t.group_by("kind").aggregate([("chars", "count"), ("chars", "sum")])
        return g.rename_columns(["kind", "n_spans", "total_chars"])

    folded = tiny_final_groupby(
        ext.map_batches(partial, batch_format="pyarrow"),
        ["kind"], [("n_spans", "sum"), ("total_chars", "sum")],
        ["kind", "n_spans", "total_chars"])

    def add_mean(batch: pa.Table) -> pa.Table:
        n = batch.column("n_spans").to_pylist()
        ch = batch.column("total_chars").to_pylist()
        mean = pa.array([int(c) * 1000 // int(k) for c, k in zip(ch, n)],
                        pa.int64())
        return batch.append_column("mean_chars_milli", mean)

    return folded.map_batches(add_mean, batch_format="pyarrow", batch_size=None)


def retry_plan(sf_dir: str, *, buckets: int = 32):
    """Failed-span retry work-list over the REAL flagship pipeline: every
    (status, media_ref) that did not extract ok, with its span count -- the
    table a fleet feeds back into redelivery (the reference's SQS
    visibility-timeout requeue, Manager.java redelivery path; here the
    work-list is data, consumed by a targeted re-run (``invalidate`` then a
    resumed run) or an input filter instead of a message broker).

    Scale shape: the not-ok filter runs map-side (error rate bounds the
    surviving rows), per-batch (status, media_ref) count partials collapse
    each block to its distinct failures, and ONE hash-bucketed exchange on
    media_ref folds them (bucket key media_ref: statuses per ref are
    near-unique, and the composite fold inside each bucket is exact either
    way). Returns (status, media_ref, n_spans).
    """
    import pandas as pd
    import pyarrow.compute as pc

    from ..sources import wrap
    from . import extract as extract_mod
    from .relational import hash_bucket_column

    docs_ds, store = wrap.interleaved_from_documents(sf_dir)
    ext = extract_mod.extracted_dataset(docs_ds, store)

    def partial(batch: pa.Table) -> pa.Table:
        bad = batch.filter(pc.not_equal(batch.column("status"), "ok"))
        t = bad.select(["status", "media_ref"])
        g = t.group_by(["status", "media_ref"]).aggregate([([], "count_all")])
        return g.rename_columns(["status", "media_ref", "n_spans"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["status", "media_ref"], sort=False)["n_spans"]
               .sum().reset_index())
        return out.astype({"n_spans": np.int64})

    return (
        ext.map_batches(partial, batch_format="pyarrow")
        .map_batches(lambda b: hash_bucket_column(b, "media_ref", buckets),
                     batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(fold, batch_format="pandas")
    )
