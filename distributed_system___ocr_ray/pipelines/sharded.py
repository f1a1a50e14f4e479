"""Shard-local extraction: the checkpointed, resumable run of the one plan.

A document is ONE ROW of the input table, so every Lance-style fragment
contains only whole documents -- explode, extract and offset-ordered
reassembly are all *local to a fragment*. That turns the pipeline into an
embarrassingly-parallel map over fragments with NO all-to-all exchange:

    fragment list (minus committed fragments)
      -> one Ray task per fragment, ``pool`` in flight: ShardWorker (state
         per worker process per run) reads the fragment, explodes,
         extracts, sort-aggregates and commits it
      -> one lineage entry per fragment back to the driver

Output partition id == fragment index, i.e. exactly the "one output
directory per input shard" resumable layout: resume prunes committed
fragments from the work list BEFORE anything is read -- a killed job
re-reads only unfinished shards.

Dispatch is the reference's work queue (Worker.java:79-121: a worker takes
the next message as soon as it finishes one) kept on the driver: it holds
``pool`` fragment tasks in flight and submits the next fragment the moment
``ray.wait`` returns one. The fragment is the unit of work, of commit and
of retry; Ray re-runs the task of a dead worker process, and the in-run
retry skip returns a fragment that task had already committed.

The semantic spec (groupby(doc_id) + offset-ordered sort-aggregate, north
rule) is unchanged: each worker holds the one extraction core,
``pipelines.extract.BlockExtractor`` (explode -> ``ExtractDispatch`` ->
``reassemble_partition``), feeds it one fragment at a time and commits the
result through ``CheckpointManifest.commit_partition``. The run result is
the setup manifest scan folded with the tasks' lineage entries, so a run
reads the manifest entries once. An in-memory table or a Dataset has no
fragment layout: write it with ``lance_like.write_table`` /
``write_dataset`` first, or run ``extract_dataset`` without a checkpoint.

Scale notes: one fragment must fit a worker's heap (fragments are written
row-capped; at 100 TB keep fragments ~256-512 MB). Skew across fragments is
bounded by the row cap; stragglers are limited to one fragment's work. One
task per fragment is cheap at that size: a window of 2 no-op tasks turns
over in ~1.2 ms per task on a 4-CPU box, against seconds of work per
256 MB fragment. Media store is broadcast once (ray.put) and fetched once
per worker process per run, when ``extract.run_state`` builds that
process's ``ShardWorker``: the tasks run on Ray's warm worker processes, so
a run pays no actor start-up, and the fresh per-run token keeps one run's
memo and media state out of the next. At run end the token is marked
finished (``extract.end_run``), so the processes drop its state before they
build the next run's.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
import uuid
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq

from ..sources import lance_like
from ..state.checkpoint import CheckpointManifest, clean_tmp, summarize
from .extract import (
    BlockExtractor,
    _media_handle,
    _run_task,
    end_run,
    media_compatible,
    media_fingerprint,
)


class ShardWorker:
    """Per-run worker state: processes whole fragments through one
    ``BlockExtractor`` (extractor state built once per worker process per
    run) and commits each as a partition."""

    def __init__(self, media_handle, out_dir: str, batch_size: int = 1024,
                 deletes_handle=None, evolution=None, fetcher=None,
                 ocr_backend="auto") -> None:
        self.core = BlockExtractor(media_handle, batch_size=batch_size,
                                   fetcher=fetcher, ocr_backend=ocr_backend)
        self.manifest = CheckpointManifest(out_dir)
        # merge-on-read equality deletes: (col, sorted key array) pairs
        # fetched once per worker per run; applied to every fragment read so the
        # zero-shuffle plan honors the same logical table as read_dataset
        if deletes_handle is not None:
            import ray

            self.deletes = ray.get(deletes_handle)
        else:
            self.deletes = []
        # evolved-column defaults: fragments older than an ADD COLUMN lack
        # the column physically; deletes keyed on it match the default
        self.evo_defaults = {e["add"]: e["default"] for e in (evolution or [])}

    def __call__(self, item: dict) -> dict:
        """Extract and commit one fragment; its manifest entry is the task's
        lineage entry."""
        part, path, frag = item["part"], item["path"], item["frag"]
        # in-run retry skip: a task re-run after its worker process died
        # past the commit must not redo the fragment it durably committed
        prior = self.manifest.committed_one(part)
        if prior is not None and prior.get("fragment") == frag:
            return {**prior, "wall_sec": 0.0}
        t0 = time.monotonic()
        # widen the projection to delete key columns (a delete may be
        # keyed on any column -- tables support ADD COLUMN evolution),
        # then drop the extras after filtering so the plan stays narrow
        cols = ["doc_id", "spans"]
        extra = [c for c, _ in self.deletes if c not in cols]
        # metadata-only ADD COLUMN evolution: an old fragment may lack a
        # delete-key column physically. Intersect the widened projection
        # with the fragment's footer schema; absent evolved columns are
        # matched against their recorded default instead (every row of
        # such a fragment carries the default by definition).
        if extra:
            physical = set(pq.read_schema(path).names)
            absent = [c for c in extra if c not in physical]
            extra = [c for c in extra if c in physical]
            for c in absent:
                if c not in self.evo_defaults:
                    raise ValueError(
                        f"delete keyed on column {c!r} absent from "
                        f"fragment {frag!r} with no evolution default"
                    )
        else:
            absent = []
        docs = pq.read_table(path, columns=cols + extra)
        if self.deletes:
            import pyarrow.compute as pc

            for col, keys in self.deletes:
                if col in absent:
                    if self.evo_defaults[col] in set(keys.to_pylist()):
                        docs = docs.slice(0, 0)  # default is deleted
                    continue
                mask = pc.is_in(docs.column(col), value_set=keys)
                docs = docs.filter(pc.invert(mask))
        if extra:
            docs = docs.select(cols)
        out, meta = self.core.process(docs)
        # identity = manifest-RELATIVE path: basenames degenerate for
        # tables whose fragments share file names (e.g. part=K/data.parquet)
        meta["fragment"] = frag
        return {"part": part, **self.manifest.commit_partition(part, out, meta, t0=t0)}


@functools.cache
def _remote_run_task():
    """``extract._run_task`` as a Ray task, defined once per process, with
    Ray Data's task defaults: a task whose worker process died is re-run
    without limit, and so is one that raised ``RaySystemError``."""
    import ray

    return ray.remote(
        num_cpus=1, max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError],
        scheduling_strategy="DEFAULT",  # never inherit a caller's placement group
    )(_run_task)


def _dispatch(items: list[dict], pool: int, kwargs) -> list[dict]:
    """One ``ShardWorker`` task per fragment, ``pool`` of them in flight: a
    finished task frees its slot for the next fragment at once. On a task
    error the tasks still in flight finish before the error is raised, so
    no task of a failed run still writes once the run has returned."""
    import ray

    task, run, todo = _remote_run_task(), uuid.uuid4().hex, iter(items)

    def submit(item):
        return task.remote(item, run=run, build=ShardWorker, kwargs=kwargs)

    inflight = [submit(item) for item in itertools.islice(todo, pool)]
    entries = []
    try:
        while inflight:
            [done], inflight = ray.wait(inflight, num_returns=1)
            entries.append(ray.get(done))
            inflight += [submit(item) for item in itertools.islice(todo, 1)]
    except Exception:
        if inflight:
            ray.wait(inflight, num_returns=len(inflight), fetch_local=False)
        raise
    finally:
        end_run(run)
    return entries


def run_extraction_sharded(
    docs_dir: str,
    media: Any,
    out_dir: str,
    *,
    resume: bool = True,
    concurrency: int | None = None,
    batch_size: int = 1024,
    fetcher=None,
    ocr_backend="auto",
    dry_run: bool = False,
) -> dict:
    """Checkpointed shard-local extraction over a Lance-style table.

    ``dry_run=True`` performs the full plan build -- manifest reads, media
    fingerprint, MOR delete-set load, committed-partition pruning, hook
    identity -- and returns the plan summary WITHOUT executing anything or
    mutating the output directory (no job entry persisted, no stale-index
    retirement): the validation surface for ``ray job submit`` packaging.
    With ``resume=True`` it refuses a job mismatch exactly as the real run
    would. ``concurrency`` caps the fragment tasks in flight (default:
    CPUs - 2, at least 2)."""
    import ray

    from ..stages.extractors import _hook_identity

    manifest = CheckpointManifest(out_dir)
    man = lance_like.read_manifest(docs_dir)
    if isinstance(media, pa.Table):  # convert ONCE: fingerprint + broadcast
        from ..corpus import media_dict

        media = media_dict(media)
    # refuse to resume against a different input table (plan/path identity)
    # OR a changed MEDIA STORE -- a resumed run against changed media would
    # silently mix partitions extracted against different payloads. Media
    # APPENDS are compatible (media_compatible: committed fragment list is a
    # prefix of the current one), matching the docs side: the docs table
    # VERSION may move -- appends keep committed fragment files in place,
    # and the per-fragment identity check below distinguishes an append
    # (same file -> pruned) from an overwrite rewrite that reuses fragment
    # indices (new file -> reprocessed, not skipped-as-done)
    job = {
        # format 3: adds the hooks identity key (older checkpoints refuse
        # loudly at resume rather than mix engines silently)
        "format": 3,
        "plan": "sharded",
        "input_table": os.path.abspath(docs_dir),
        "media": media_fingerprint(media),
        "hooks": _hook_identity(fetcher, ocr_backend),
    }
    # merge-on-read deletes are part of the JOB IDENTITY: partitions
    # committed under an older delete set would contain rows deleted
    # since, so a changed/compounded delete list refuses resume loudly
    # (delete files are append-only -- the key is present only when the
    # table has them, keeping plain-table identities unchanged)
    dels = lance_like._delete_key_sets(docs_dir, man)
    if man.get("delete_files"):
        # JSON-stable LISTS, not tuples: check_job compares against the
        # JSON-round-tripped committed value, and ('p',..) != ['p',..] in
        # Python -- tuples here would spuriously refuse EVERY resume over a
        # MOR table even with an unchanged delete set (ADVICE r3, high)
        job["deletes"] = [
            [df["path"], df["key_col"], df["rows"]] for df in man["delete_files"]
        ]
    manifest.check_job(job, enforce=resume, compat={"media": media_compatible},
                       dry_run=dry_run)
    if not dry_run:
        clean_tmp(out_dir)  # stale writer temp files from a crashed prior run
    # ONE manifest scan at setup: retire stale indices (an overwrite rewrite
    # that SHRANK the table leaves committed indices beyond the new fragment
    # list -- the published output must never mix old-version partitions
    # with new ones), then prune from the same in-memory dict
    committed = manifest.committed() if resume else {}
    n_frags = len(man["fragments"])
    for stale in [i for i in committed if i >= n_frags]:
        if not dry_run:
            manifest.retire(stale)
        del committed[stale]
    items = [
        {"part": i, "path": os.path.join(docs_dir, frag["path"]), "frag": frag["path"]}
        for i, frag in enumerate(man["fragments"])
        # prune only when BOTH the index is committed AND the committed entry
        # recorded this very fragment (manifest-relative path, not basename:
        # basenames degenerate when fragments share file names)
        if not (i in committed and committed[i].get("fragment") == frag["path"])
    ]
    # skipped = fragments actually pruned (a committed entry that failed the
    # fragment-identity check is RE-RUN, not skipped)
    n_skipped = len(man["fragments"]) - len(items)
    if dry_run:
        return {
            "dry_run": True,
            "plan": "sharded",
            "input_table": job["input_table"],
            "table_version": man["version"],
            "fragments_total": n_frags,
            "rows_total": sum(int(f.get("rows", 0)) for f in man["fragments"]),
            "partitions_pending": len(items),
            "partitions_skipped_prior": n_skipped,
            "deletes": len(job.get("deletes", [])),
            "media": job["media"],
            "hooks": job["hooks"],
        }
    if items:
        pool = concurrency or max(2, int(ray.cluster_resources().get("CPU", 8)) - 2)
        kwargs = ray.put({  # once per run, not once per task
            "media_handle": _media_handle(media),
            "out_dir": out_dir,
            "batch_size": batch_size,
            "deletes_handle": (
                ray.put([(c, pa.array(sorted(k))) for c, k in dels]) if dels else None
            ),
            "evolution": man.get("evolution", []),
            "fetcher": fetcher,
            "ocr_backend": ocr_backend,
        })
        # a re-run fragment's entry replaces its stale setup-scan entry
        for entry in _dispatch(items, pool, kwargs):
            committed[entry["part"]] = entry
    summary = summarize(committed.values())
    del summary["wall_sec_sum"]  # a status field, not part of the run result
    return {**summary, "partitions_run": len(items), "partitions_skipped_prior": n_skipped}
