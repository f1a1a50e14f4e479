"""Block-local extraction: the one extraction plan (SURVEY.md #3 "Engine
lifecycle").

A document is ONE input row, so explode, extract and offset-ordered
reassembly never need a row from another block. The whole pipeline is one
narrow task-pool stage over document blocks, with no all-to-all exchange:

    documents (Lance-style table path, in-memory Arrow table or Dataset)
    -> map_batches(task pool, BlockExtractor state per worker per run)
         explode -> ExtractDispatch over size-capped slices
         -> reassemble_partition (groupby(doc_id) + offset-ordered
            sort-aggregate, inside the block)
    -> (doc_id, spans) Dataset

Stage state (decode memo, media store, glyph font) lives in the worker
process for the length of one run: ``run_state`` keeps it under a fresh
token per run, so Ray's warm worker processes serve every run without an
actor start-up, and no state crosses from one run into the next (the
reference's worker likewise sets up Tesseract once per long-lived process,
Worker.java:47-48).

``extract_dataset`` is that stage without a checkpoint. The checkpointed,
resumable run is ``pipelines.sharded.run_extraction_sharded``: one plain Ray
task per fragment of a Lance-style table, each feeding its fragment to the
same ``BlockExtractor`` (kept per process per run by ``run_state``) and
committing it as an output partition. ``exploded_dataset`` and
``extracted_dataset`` expose the explode and dispatch steps as narrow
stages for span-level queries. The reference's three processes
(LocalApplication / Manager / Worker) and its per-kind SQS queues collapse
into one fused dispatch; queue transport disappears into the object store
(SURVEY.md S9).
"""

from __future__ import annotations

import os
import uuid
from collections import OrderedDict
from typing import Any

import pyarrow as pa

from ..stages.explode import explode_spans
from ..stages.extractors import ExtractDispatch
from ..stages.reassemble import reassemble_partition
from ..state.checkpoint import status_counts


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
    workers. In-memory stores hash refs + payload bytes (the media store is
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


def _media_handle(media: Any):
    """Broadcast the media store once (ray.put) and wrap the ref so Ray does
    not auto-deref it; each worker ray.gets it once per run."""
    import ray

    if isinstance(media, str):  # path to a Lance-style media table: let each
        return media  # worker read it (shared storage at scale)
    if isinstance(media, pa.Table):
        from ..corpus import media_dict

        media = media_dict(media)
    return [ray.put(media)]


def _num_blocks() -> int:
    """Blocks to split a read or an in-memory table into: a block is the
    unit of work of the extraction stage, so several per pool slot."""
    import ray

    return max(64, int(ray.cluster_resources().get("CPU", 8)) * 4)


RUNS_KEPT = 4  # unfinished runs whose state one worker process keeps:
# interleaved runs (jobs of jobs.run_jobs) up to this many keep theirs; more
# rebuild their state when they come back to a process. Each kept run holds
# its media buckets and memo, ~5-10 MB of worker RSS on ocr_distinct
_run_states: OrderedDict[str, Any] = OrderedDict()
_FINISHED_NS = "ocr_ray_finished_runs"  # internal-KV namespace of end_run marks


def end_run(run: str) -> None:
    """Mark run token ``run`` finished in Ray's internal KV, which every
    worker process reads: each drops the run's state before it next builds
    a run's state (``run_state``). A mark is a few dozen bytes and stays for
    the life of the Ray session."""
    from ray.experimental.internal_kv import _internal_kv_put

    _internal_kv_put(run, b"1", namespace=_FINISHED_NS)


def _drop_finished() -> None:
    from ray.experimental import internal_kv as kv

    if kv._internal_kv_initialized():
        for run in [r for r in _run_states if kv._internal_kv_exists(r, namespace=_FINISHED_NS)]:
            del _run_states[run]


def run_state(run: str, build, kwargs: dict):
    """This process's ``build(**kwargs)`` for run token ``run``: built on
    the run's first batch in this process and reused by its later ones.
    Each run makes a fresh token, so memo, media store and glyph font never
    cross from one run into the next. Before it builds a run's state, a
    process drops the state of every run marked finished (``end_run``);
    of the rest it keeps the ``RUNS_KEPT`` most recently used runs, the
    least recent dropped first (a run that is never marked, such as an
    ``extract_dataset`` one, leaves only that way). A Ray worker process
    runs one task at a time, so the holder needs no lock."""
    state = _run_states.get(run)
    if state is None:
        _drop_finished()
        state = _run_states[run] = build(**kwargs)
        while len(_run_states) > RUNS_KEPT:
            _run_states.popitem(last=False)
    else:
        _run_states.move_to_end(run)
    return state


def _run_task(batch: pa.Table, *, run: str, build, kwargs: dict) -> pa.Table:
    return run_state(run, build, kwargs)(batch)


def map_per_run(ds, build, kwargs: dict, *, concurrency: int | None, batch_size: int | None):
    """``ds.map_batches`` on a task pool whose worker processes each call
    ``build(**kwargs)`` once for this run (``run_state``), then call the
    built object on every batch they are handed."""
    return ds.map_batches(
        _run_task,
        fn_kwargs={"run": uuid.uuid4().hex, "build": build, "kwargs": kwargs},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


MIN_BLOCK_DOCS = 256  # an in-memory table is not cut finer than this


def _as_dataset(docs: Any):
    import ray.data as rd

    if isinstance(docs, str):
        from ..sources import lance_like

        return lance_like.read_dataset(docs, override_num_blocks=_num_blocks())
    if isinstance(docs, pa.Table):
        # zero-copy row slices, one block each; a document is one row, so
        # no document straddles two blocks
        step = max(MIN_BLOCK_DOCS, -(-docs.num_rows // _num_blocks()))
        return rd.from_arrow(
            [docs.slice(i, step) for i in range(0, max(docs.num_rows, 1), step)])
    return docs  # already a Dataset


def exploded_dataset(docs: Any, *, batch_size: int = 1024):
    """The exploded span dataset (doc_id, kind, text, media_ref, offset)."""
    return _as_dataset(docs).map_batches(
        explode_spans,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def extracted_dataset(
    docs: Any,
    media: Any,
    *,
    concurrency: int | None = None,
    batch_size: int = 256,
    fetcher=None,
    ocr_backend="auto",
):
    """Exploded + extracted span dataset (out_text/status columns added).

    ``fetcher`` / ``ocr_backend`` are the pluggable media-miss fetch and
    real-OCR hooks threaded into every worker's ``ExtractDispatch`` (see
    ``stages.extractors._Extractors``); defaults are no-fetch and
    auto-resolved (glyph-only in this container). ``concurrency`` caps the
    concurrent tasks (None: as many as the CPUs allow)."""
    return map_per_run(
        exploded_dataset(docs), ExtractDispatch,
        {"media_handle": _media_handle(media), "fetcher": fetcher, "ocr_backend": ocr_backend},
        concurrency=concurrency, batch_size=batch_size)


class BlockExtractor:
    """The extraction core: a block of ``(doc_id, spans)`` documents -> its
    reassembled ``(doc_id, spans)`` documents, extractor state built once
    per worker process per run.

    explode -> ``ExtractDispatch`` over size-capped span slices ->
    ``reassemble_partition`` (the offset-ordered sort-aggregate). Every
    block holds whole documents, so nothing crosses blocks."""

    MAX_BATCH_BYTES = 32 * 1024 * 1024  # size-capped batch splitting: a batch
    # of fat spans (e.g. one 5 MB text payload x 1024 rows) must not blow the
    # worker heap; row slices halve until under the byte cap (north rule:
    # "size-capped Arrow batch splitting")

    def __init__(self, media_handle, batch_size: int = 1024, fetcher=None,
                 ocr_backend="auto") -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.extract = ExtractDispatch(media_handle, fetcher=fetcher,
                                       ocr_backend=ocr_backend)
        self.batch_size = batch_size

    def _iter_slices(self, tbl: pa.Table):
        start = 0
        while start < tbl.num_rows:
            n = min(self.batch_size, tbl.num_rows - start)
            sl = tbl.slice(start, n)
            while n > 1 and sl.nbytes > self.MAX_BATCH_BYTES:
                n = max(1, n // 2)
                sl = tbl.slice(start, n)
            yield sl
            start += n

    def process(self, docs: pa.Table) -> tuple[pa.Table, dict]:
        """The reassembled documents and their manifest entry fields
        (``rows_in`` exploded spans, ``status_counts``)."""
        exploded = explode_spans(docs)
        pieces = [self.extract(sl) for sl in self._iter_slices(exploded)]
        if not pieces:
            from ..corpus import OUT_SCHEMA

            return OUT_SCHEMA.empty_table(), {"rows_in": 0, "status_counts": {}}
        extracted = pa.concat_tables(pieces)
        return reassemble_partition(extracted), {
            "rows_in": exploded.num_rows,
            "status_counts": status_counts(extracted.column("status")),
        }

    def __call__(self, docs: pa.Table) -> pa.Table:
        return self.process(docs)[0]


def extract_dataset(
    docs: Any,
    media: Any,
    *,
    concurrency: int | None = None,
    batch_size: int = 1024,
    fetcher=None,
    ocr_backend="auto",
):
    """Full pipeline -> reassembled (doc_id, spans) Dataset (no checkpoint):
    one task-pool map of ``BlockExtractor`` over whole document blocks."""
    return map_per_run(
        _as_dataset(docs), BlockExtractor,
        {"media_handle": _media_handle(media), "batch_size": batch_size,
         "fetcher": fetcher, "ocr_backend": ocr_backend},
        concurrency=concurrency,
        batch_size=None)  # one call per block: the unit that holds whole documents


def load_output(out_dir: str):
    """Open the committed output partitions as a Dataset."""
    import ray.data as rd

    from ..state.checkpoint import CheckpointManifest

    return rd.read_parquet(CheckpointManifest(out_dir).data_paths())
