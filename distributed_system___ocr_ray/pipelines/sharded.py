"""Shard-local extraction: the checkpointed, resumable run of the one plan.

A document is ONE ROW of the input table, so every Lance-style fragment
contains only whole documents -- explode, extract and offset-ordered
reassembly are all *local to a fragment*. That turns the pipeline into an
embarrassingly-parallel map over fragments with NO all-to-all exchange:

    Dataset[fragment descriptors]
      -> map_batches(ShardWorker actor pool)    # read -> explode -> extract
                                                # -> sort-aggregate -> commit
      -> tiny lineage metrics rows to the driver

Output partition id == fragment index, i.e. exactly the "one output
directory per input shard" resumable layout: resume prunes committed
fragments from the work list BEFORE anything is read -- a killed job
re-reads only unfinished shards.

The semantic spec (groupby(doc_id) + offset-ordered sort-aggregate, north
rule) is unchanged: each worker holds the one extraction core,
``pipelines.extract.BlockExtractor`` (explode -> ``ExtractDispatch`` ->
``reassemble_partition``), feeds it one fragment at a time and commits the
result through ``CheckpointManifest.commit_partition``. The run result is
the setup manifest scan folded with the workers' lineage rows, so a run
reads the manifest entries once. An in-memory table or a Dataset has no
fragment layout: write it with ``lance_like.write_table`` /
``write_dataset`` first, or run ``extract_dataset`` without a checkpoint.

Scale notes: one fragment must fit a worker's heap (fragments are written
row-capped; at 100 TB keep fragments ~256-512 MB). Skew across fragments is
bounded by the row cap; stragglers are limited to one fragment's work. Media
store is broadcast once (ray.put), fetched per actor in ``__init__``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq

from ..sources import lance_like
from ..state.checkpoint import CheckpointManifest, clean_tmp, summarize
from .extract import BlockExtractor, _media_handle, media_compatible, media_fingerprint


class ShardWorker:
    """Actor: processes whole fragments through one ``BlockExtractor``
    (extractor state built once) and commits each as a partition."""

    def __init__(self, media_handle, out_dir: str, batch_size: int = 1024,
                 deletes_handle=None, evolution=None, fetcher=None,
                 ocr_backend="auto") -> None:
        self.core = BlockExtractor(media_handle, batch_size=batch_size,
                                   fetcher=fetcher, ocr_backend=ocr_backend)
        self.manifest = CheckpointManifest(out_dir)
        # merge-on-read equality deletes: (col, sorted key array) pairs
        # fetched once per actor; applied to every fragment read so the
        # zero-shuffle plan honors the same logical table as read_dataset
        if deletes_handle is not None:
            import ray

            self.deletes = ray.get(deletes_handle)
        else:
            self.deletes = []
        # evolved-column defaults: fragments older than an ADD COLUMN lack
        # the column physically; deletes keyed on it match the default
        self.evo_defaults = {e["add"]: e["default"] for e in (evolution or [])}

    def __call__(self, batch: pa.Table) -> pa.Table:
        entries = []
        for item in batch.to_pylist():
            part, path, frag = int(item["part"]), item["path"], item["frag"]
            # in-run retry skip: a block packs many fragments (n_tasks ~
            # pool*8), so a task retried after a mid-block failure must not
            # redo the fragments it already durably committed
            prior = self.manifest.committed_one(part)
            if prior is not None and prior.get("fragment") == frag:
                entries.append({**prior, "wall_sec": 0.0})
                continue
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
            entries.append({"part": part, **self.manifest.commit_partition(part, out, meta, t0=t0)})
        # one lineage row per fragment, carrying what the run result sums,
        # so the driver never re-reads the manifest entries
        return pa.table(
            {
                "part": pa.array([e["part"] for e in entries], pa.int32()),
                "rows_in": pa.array([e["rows_in"] for e in entries], pa.int64()),
                "rows_out": pa.array([e["rows_out"] for e in entries], pa.int64()),
                "wall_sec": pa.array([e["wall_sec"] for e in entries], pa.float64()),
                "status_counts": pa.array(
                    [json.dumps(e["status_counts"]) for e in entries], pa.string()),
            }
        )


def run_extraction_sharded(
    docs_dir: str,
    media: Any,
    out_dir: str,
    *,
    resume: bool = True,
    concurrency: int | tuple[int, int] | None = None,
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
    would."""
    import ray
    import ray.data as rd

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
        if concurrency is None:
            concurrency = max(2, int(ray.cluster_resources().get("CPU", 8)) - 2)
        pool = concurrency if isinstance(concurrency, int) else concurrency[1]
        # task count ~8x pool: Ray Data's driver dispatch costs ~10 ms per
        # task (serial), so 1 task per fragment at 10^5 fragments would be
        # driver-bound; several fragments per task keeps dispatch negligible
        # while commit/resume granularity stays per-fragment (the worker
        # commits each fragment inside the task loop)
        n_tasks = max(1, min(len(items), pool * 8))
        work = rd.from_items(items, override_num_blocks=n_tasks)
        metrics = work.map_batches(
            ShardWorker,
            fn_constructor_kwargs={
                "media_handle": _media_handle(media),
                "out_dir": out_dir,
                "batch_size": batch_size,
                "deletes_handle": (
                    ray.put([(c, pa.array(sorted(k))) for c, k in dels])
                    if dels else None
                ),
                "evolution": man.get("evolution", []),
                "fetcher": fetcher,
                "ocr_backend": ocr_backend,
            },
            batch_format="pyarrow",
            batch_size=None,  # whole work-item block per call
            concurrency=concurrency,
            num_cpus=1,
        )
        # a re-run fragment's row replaces its stale setup-scan entry
        for row in metrics.take_all():
            committed[int(row["part"])] = {
                **row, "status_counts": json.loads(row["status_counts"])}
    summary = summarize(committed.values())
    del summary["wall_sec_sum"]  # a status field, not part of the run result
    return {**summary, "partitions_run": len(items), "partitions_skipped_prior": n_skipped}
