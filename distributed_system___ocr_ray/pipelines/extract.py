"""Shuffle-plan extraction pipeline wiring (SURVEY.md #3 "Engine lifecycle").

Logical plan (one lazy Dataset; the streaming executor pipelines all stages
with backpressure -- nothing materializes the full input):

    read (Lance-style manifest -> read_parquet)
    -> map_batches(explode + partition-assign [+ resume-prune])   narrow
    -> map_batches(ExtractDispatch actor pool)                    narrow
    -> groupby(part).map_groups(commit_group)                     THE shuffle
       (reassemble_partition -> CheckpointManifest.commit_partition)
    -> CheckpointManifest.summary                                 run result

The sharded plan (``pipelines.sharded``) runs the same core inside one actor
per fragment, with no shuffle, and needs a Lance-style table on disk. This
plan also takes ``(doc_id, spans)`` documents as an in-memory Arrow table or
a pre-built Dataset, which have no fragment layout; it always explodes them
itself (``exploded_dataset``). The reference's three processes
(LocalApplication / Manager / Worker) and its per-kind SQS queues collapse
into one fused dispatch stage; queue transport disappears into the object
store (SURVEY.md S9).
"""

from __future__ import annotations

import os
from typing import Any

import pyarrow as pa


def media_fingerprint(media: Any) -> str:
    """Stable identity of the media store for resume validation (part of the
    job-level checkpoint entry): resuming a checkpointed run against a
    DIFFERENT media store must raise, not silently mix partitions extracted
    against different payloads.

    Path-form stores identify as their ordered fragment relpath list
    (fragment files are immutable and version-prefixed in the Lance-style
    contract, so the list pins the payload bytes without reading them);
    combined with :func:`media_compatible` this makes APPENDS resumable --
    the incremental-ingest workflow appends new docs AND the new media they
    reference -- while overwrite rewrites (fresh fragment names) still
    mismatch. A missing/empty table raises FileNotFoundError here, at job
    setup, rather than committing a bogus identity and failing later inside
    actors. In-memory stores hash refs + payload bytes (the media store is
    the broadcast SMALL side by design, so the one-time md5 at job setup is
    cheap) and only resume on exact equality: use a path-backed table for
    incremental workflows."""
    import hashlib

    if isinstance(media, str):
        from ..sources import lance_like

        man = lance_like.read_manifest(media)  # raises if table absent
        frags = ",".join(f["path"] for f in man["fragments"])
        return f"table:{os.path.abspath(media)}:{frags}"
    if isinstance(media, pa.Table):
        from ..corpus import media_dict

        media = media_dict(media)
    h = hashlib.md5()
    for ref in sorted(media):
        payload = media[ref]
        h.update(ref.encode("utf-8"))
        h.update(len(payload).to_bytes(8, "big"))
        h.update(payload)
    return "md5:" + h.hexdigest()[:16]


def media_compatible(committed: str, current: str) -> bool:
    """check_job comparator for the media fingerprint: exact match, or the
    committed path-form fragment list is a strict PREFIX of the current one
    (append-only growth -- committed partitions referenced only refs that
    existed at commit time, all still present byte-identical)."""
    if committed == current:
        return True
    return committed.startswith("table:") and current.startswith(committed + ",")


def docs_fingerprint(docs: Any) -> str:
    """Identity of the documents input for SHUFFLE-plan resume validation.
    Unlike the sharded plan (per-fragment identity, appends resumable), the
    shuffle plan prunes by hash(doc_id)%P, so ANY membership change breaks
    resume -- an appended doc hashing into a committed part would be
    silently dropped. Path-form inputs pin the exact table version;
    in-memory tables hash the doc_id membership. A pre-built Dataset cannot
    be fingerprinted without executing it: identified as
    ``dataset:unverified`` (no protection -- callers resuming Dataset-input
    jobs own input stability; pass the table path to get the guard)."""
    import hashlib

    if isinstance(docs, str):
        from ..sources import lance_like

        man = lance_like.read_manifest(docs)  # raises if table absent
        return f"table:{os.path.abspath(docs)}@{man['version']}"
    if isinstance(docs, pa.Table):
        h = hashlib.md5()
        # sorted: the fingerprint is doc_id MEMBERSHIP, not row order -- the
        # hash%P pruning invariant only needs the id set, so a row-permuted
        # but identical docs table must still resume
        for d in sorted(str(d) for d in docs.column("doc_id").to_pylist()):
            h.update(d.encode("utf-8"))
            h.update(b"\x00")
        return f"docids-md5:{h.hexdigest()[:16]}:{docs.num_rows}"
    return "dataset:unverified"


def _media_handle(media: Any):
    """Broadcast the media store once (ray.put) and wrap the ref so Ray does
    not auto-deref it in fn_constructor_kwargs; actors ray.get it in __init__."""
    import ray

    if isinstance(media, str):  # path to a Lance-style media table: let each
        return media  # actor read it (shared storage at scale)
    if isinstance(media, pa.Table):
        from ..corpus import media_dict

        media = media_dict(media)
    return [ray.put(media)]


def _as_dataset(docs: Any, read_blocks: int | None = None):
    import ray.data as rd

    if isinstance(docs, str):
        from ..sources import lance_like

        # split the read so downstream fused map stages get enough blocks to
        # parallelize (a fused actor stage inherits read-block granularity)
        if read_blocks is None:
            import ray

            read_blocks = max(64, int(ray.cluster_resources().get("CPU", 8)) * 4)
        return lance_like.read_dataset(docs, override_num_blocks=read_blocks)
    if isinstance(docs, pa.Table):
        return rd.from_arrow(docs)
    return docs  # already a Dataset


def exploded_dataset(
    docs: Any,
    *,
    num_partitions: int = 64,
    skip_parts: frozenset[int] | None = None,
    batch_size: int = 1024,
    read_blocks: int | None = None,
):
    from ..stages.explode import make_explode_fn

    ds = _as_dataset(docs, read_blocks)
    return ds.map_batches(
        make_explode_fn(num_partitions, skip_parts),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def extracted_dataset(
    docs: Any,
    media: Any,
    *,
    num_partitions: int = 64,
    skip_parts: frozenset[int] | None = None,
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 256,
    read_blocks: int | None = None,
    fetcher=None,
    ocr_backend="auto",
):
    """Exploded + extracted span dataset (out_text/status columns added).

    ``fetcher`` / ``ocr_backend`` are the pluggable media-miss fetch and
    real-OCR hooks threaded into every extractor actor (see
    ``stages.extractors._Extractors``); defaults are no-fetch and
    auto-resolved (glyph-only in this container)."""
    from ..stages.extractors import ExtractDispatch

    ds = exploded_dataset(
        docs, num_partitions=num_partitions, skip_parts=skip_parts, read_blocks=read_blocks
    )
    return ds.map_batches(
        ExtractDispatch,
        fn_constructor_kwargs={"media_handle": _media_handle(media), "fetcher": fetcher,
                               "ocr_backend": ocr_backend},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency or (1, 8),
        num_cpus=1,
    )


def extract_dataset(docs: Any, media: Any, *, num_partitions: int = 64, **kwargs):
    """Full pipeline -> reassembled (doc_id, spans) Dataset (no checkpoint)."""
    from ..stages.reassemble import reassemble

    ds = extracted_dataset(docs, media, num_partitions=num_partitions, **kwargs)
    return reassemble(ds)


def run_extraction(
    docs: Any,
    media: Any,
    out_dir: str,
    *,
    num_partitions: int = 64,
    resume: bool = True,
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 256,
    read_blocks: int | None = None,
    coalesce_blocks: int | None = 64,
    fetcher=None,
    ocr_backend="auto",
    dry_run: bool = False,
) -> dict:
    """Checkpointed run: extract -> reassemble -> atomic per-partition commit.

    Returns the lineage summary. On resume, committed partitions are pruned
    at the explode stage, before any extraction compute is spent on them.
    ``dry_run=True`` builds and returns the plan summary (job identity,
    committed vs pending partition counts) without a Ray session or any
    output-directory mutation -- the shuffle-plan twin of
    ``run_extraction_sharded(dry_run=True)``, refusing a job mismatch
    exactly as the real run would.
    """
    from ..stages.extractors import _hook_identity
    from ..state.checkpoint import CheckpointManifest, clean_tmp

    manifest = CheckpointManifest(out_dir)
    if isinstance(media, pa.Table):  # convert ONCE: fingerprint + broadcast
        from ..corpus import media_dict

        media = media_dict(media)
    # refuse to resume under different partitioning/plan (committed part ids
    # were assigned by hash%P -- pruning by a different P drops documents),
    # a different media store (silent mixed-extraction output otherwise),
    # a changed docs input (appends are NOT resumable under hash%P
    # pruning: new docs landing in committed parts would be dropped), or
    # different fetch/OCR hooks (mixed-engine partitions otherwise)
    job = {
        # format 3: adds the hooks identity key (older checkpoints
        # refuse loudly at resume rather than mix engines silently)
        "format": 3,
        "plan": "shuffle",
        "num_partitions": int(num_partitions),
        "docs": docs_fingerprint(docs),
        "media": media_fingerprint(media),
        "hooks": _hook_identity(fetcher, ocr_backend),
    }
    manifest.check_job(job, enforce=resume, compat={"media": media_compatible},
                       dry_run=dry_run)
    skip = frozenset(manifest.committed()) if resume else frozenset()
    if dry_run:
        return {
            "dry_run": True,
            **{k: v for k, v in job.items() if k != "format"},
            "partitions_pending": int(num_partitions) - len(skip),
            "partitions_skipped_prior": len(skip),
        }
    clean_tmp(out_dir)  # stale writer temp files from a crashed prior run
    ds = extracted_dataset(
        docs, media, num_partitions=num_partitions, skip_parts=skip,
        concurrency=concurrency, batch_size=batch_size,
        read_blocks=read_blocks, fetcher=fetcher, ocr_backend=ocr_backend,
    )
    # coalesce before the sort-based groupby: extraction emits many small
    # blocks (good for the actor pool), but sort cost grows superlinearly
    # with block count (see stages/reassemble.py)
    if coalesce_blocks:
        ds = ds.repartition(coalesce_blocks)
    rows = ds.groupby("part").map_groups(
        commit_group, fn_kwargs={"out_dir": out_dir}, batch_format="pyarrow").take_all()
    summary = manifest.summary()
    del summary["wall_sec_sum"]  # a status field, not part of the run result
    return {**summary, "partitions_run": len(rows), "partitions_skipped_prior": len(skip)}


def commit_group(group: pa.Table, out_dir: str) -> pa.Table:
    """map_groups UDF over one ``part`` group: reassemble and commit the
    partition (skipped when a prior attempt already committed it), and emit
    ONE small metrics row -- the dataset that reaches the driver is P rows
    of lineage, not data."""
    import time

    from ..stages.reassemble import reassemble_partition
    from ..state.checkpoint import CheckpointManifest, status_counts

    t0 = time.monotonic()
    manifest = CheckpointManifest(out_dir)
    part = int(group.column("part")[0].as_py())
    entry = (manifest.committed_one(part)
             if os.path.exists(manifest.partition_path(part)) else None)
    already = entry is not None
    if not already:
        entry = manifest.commit_partition(
            part, reassemble_partition(group),
            {"rows_in": group.num_rows, "status_counts": status_counts(group.column("status"))},
            t0=t0)
    return pa.table(
        {
            "part": pa.array([part], pa.int32()),
            "rows_in": pa.array([entry["rows_in"]], pa.int64()),
            "rows_out": pa.array([entry["rows_out"]], pa.int64()),
            "skipped": pa.array([already]),
        }
    )


def load_output(out_dir: str):
    """Open the committed output partitions as a Dataset."""
    import ray.data as rd

    from ..state.checkpoint import CheckpointManifest

    return rd.read_parquet(CheckpointManifest(out_dir).data_paths())
