"""Per-partition checkpoint manifest: lineage + metrics + atomic commit.

The reference keeps all completion bookkeeping in manager RAM
(ConcurrentHashMaps, Manager.java:49-60); a manager crash loses the job
(SURVEY.md #4). The engine makes the ledger durable and partition-granular,
as the north rule requires: every output partition commits atomically
(write temp -> fsync -> rename -> fsync(dir), then the manifest entry the
same way -- durable against host crash, not just process kill), and a
restarted job diffs the manifest against the partition list and re-runs only
uncommitted partitions. The manifest entry is the engine's analogue of the
reference's completion check ``completedCount == inputSize``
(Manager.java:223-226): it records ``rows_in`` (exploded spans seen) and
``rows_out`` (docs written) plus per-status extraction metrics.

Layout::

    <out_dir>/part=<k>/data.parquet          # committed output partition
    <out_dir>/_checkpoint/part-<k>.json      # lineage + metrics entry
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq


def fsync_file(path: str) -> None:
    """Flush a written file's data to stable storage (durability across host
    crash, not just process kill -- a renamed manifest entry must never
    outlive a torn data file)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(dirname: str) -> None:
    """Persist a rename by fsyncing the containing directory."""
    fd = os.open(dirname, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def tmp_name(dest: str) -> str:
    """Writer-unique temp path. A DETERMINISTIC shared name (``dest +
    '.tmp'``) lets a task retry that overlaps a not-actually-dead original
    writer interleave writes into one file and publish a torn partition;
    host+pid makes concurrent writers (including across nodes on a shared
    filesystem) target distinct temp files, and os.replace stays atomic."""
    import socket

    return f"{dest}.tmp-{socket.gethostname()}-{os.getpid()}"


def clean_tmp(root: str) -> None:
    """Remove stale temp files left by crashed writers (called once at job
    setup, before any worker starts)."""
    for dirpath, _, files in os.walk(root):
        for f in files:
            if ".tmp-" in f or f.endswith(".tmp"):
                try:
                    os.remove(os.path.join(dirpath, f))
                except FileNotFoundError:
                    pass


def durable_replace(tmp: str, dest: str, extra_dirs: tuple = ()) -> None:
    """fsync(tmp) -> rename -> fsync(dir): the atomic-commit triple.

    ``extra_dirs``: additionally fsync these directories -- a caller that
    just CREATED dest's parent (makedirs of a new ``part=<k>``) must also
    persist the parent's directory entry in ITS parent, or a host crash can
    keep the (long-durable) manifest entry while losing the data file's
    whole directory. Durability of ``out_dir``'s own existence is the
    caller's responsibility -- the chain ends there."""
    fsync_file(tmp)
    os.replace(tmp, dest)
    fsync_dir(os.path.dirname(dest))
    for d in extra_dirs:
        fsync_dir(d)


def status_counts(statuses) -> dict[str, int]:
    """A partition's manifest ``status_counts``: status -> rows, counted by
    one Arrow ``value_counts`` (first-seen order)."""
    import pyarrow.compute as pc

    return {vc["values"]: vc["counts"] for vc in pc.value_counts(statuses).to_pylist()}


def summarize(entries) -> dict:
    """Sum manifest entries into the run summary: the one fold behind
    ``CheckpointManifest.summary`` and the sharded run's result."""
    entries = list(entries)
    counts: dict[str, int] = {}
    for e in entries:
        for k, v in e.get("status_counts", {}).items():
            counts[k] = counts.get(k, 0) + v
    return {
        "partitions_total": len(entries),
        "rows_in": sum(e["rows_in"] for e in entries),
        "docs_out": sum(e["rows_out"] for e in entries),
        "status_counts": counts,
        "wall_sec_sum": round(sum(e.get("wall_sec", 0) for e in entries), 2),
    }


def _read_json(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


class CheckpointManifest:
    JOB_FILE = "job.json"

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.dir = os.path.join(out_dir, "_checkpoint")

    def ensure(self) -> None:
        created = not os.path.isdir(self.dir)
        os.makedirs(self.dir, exist_ok=True)
        if created:  # persist the _checkpoint directory entry itself
            fsync_dir(self.out_dir)

    def job_mismatch(self, params: dict, compat: dict | None = None) -> list[str]:
        """The sorted job keys whose committed value disagrees with
        ``params`` (empty when no job entry exists yet). Read-only: creates,
        writes and purges nothing, so a dry run can ask it too.

        ``compat``: per-key ``callable(committed, current) -> bool`` widening
        plain equality where a parameter may legitimately EVOLVE between the
        first run and a resume (e.g. an append-only media table growing)."""
        committed = _read_json(os.path.join(self.dir, self.JOB_FILE))
        if committed is None:
            return []
        compat = compat or {}
        return sorted(
            k for k in set(committed) | set(params)
            if committed.get(k) != params.get(k)
            and not (
                k in compat and k in committed and k in params
                and compat[k](committed[k], params[k])
            )
        )

    def check_job(self, params: dict, enforce: bool = True, compat: dict | None = None,
                  dry_run: bool = False) -> None:
        """Persist job-level parameters on first run; on resume, raise if the
        caller's parameters disagree with the committed ones (see
        ``job_mismatch``). Without this, a resume against e.g. a different
        input table would skip fragment indices committed from the OLD one
        and silently mix two inputs in one output. ``enforce=False`` (fresh
        run, resume disabled) PURGES any previously committed partitions
        and rewrites the entry -- stale parts from an earlier job must not
        survive into the new output (they would double documents).
        ``dry_run=True`` only raises.

        On a compatible-but-unequal match the committed entry is kept as-is:
        it records the state the finished partitions were actually built
        against, and compatibility is always judged from that origin.

        Job entries carry a ``format`` field; bumping it (new identity keys,
        changed fragment-identity scheme) deliberately invalidates
        checkpoints written by older code -- a loud mismatch at resume, never
        a silent misread of old entries under new semantics."""
        path = os.path.join(self.dir, self.JOB_FILE)
        if enforce:
            mismatched = self.job_mismatch(params, compat)
            if mismatched:
                raise ValueError(
                    f"resume parameter mismatch ({mismatched}): "
                    f"checkpoint was created with {_read_json(path)}, this run "
                    f"passed {params}; use a fresh out_dir (or compatible "
                    f"parameters) to resume"
                )
        if dry_run:
            return
        self.ensure()
        if not enforce:
            self.purge()
        elif os.path.exists(path):
            return
        self._write_entry(path, params)

    def committed(self) -> dict[int, dict]:
        if not os.path.isdir(self.dir):
            return {}
        out: dict[int, dict] = {}
        for f in os.listdir(self.dir):
            if f.startswith("part-") and f.endswith(".json"):
                with open(os.path.join(self.dir, f)) as fh:
                    entry = json.load(fh)
                out[int(entry["part"])] = entry
        return out

    def _write_entry(self, path: str, obj: dict) -> None:
        """One implementation of the durable JSON write (writer-unique tmp +
        the fsync/rename/fsync triple) for every manifest-entry writer."""
        tmp = tmp_name(path)
        with open(tmp, "w") as f:
            json.dump(obj, f)
        durable_replace(tmp, path)

    def commit(self, part: int, entry: dict) -> None:
        self.ensure()
        entry = {"part": int(part), **entry}
        self._write_entry(os.path.join(self.dir, f"part-{part}.json"), entry)

    def commit_partition(self, part: int, table: pa.Table, entry: dict, *, t0: float) -> dict:
        """THE partition commit: write ``table`` as partition
        ``part`` atomically, then commit its manifest entry. ``entry`` gains
        ``rows_out`` and ``wall_sec`` (from ``t0``, a ``time.monotonic()``
        taken when the partition's work began, through the durable data
        write) and is returned as committed."""
        dest = self.partition_path(part)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        tmp = tmp_name(dest)
        pq.write_table(table, tmp)
        # extra fsync of out_dir: the freshly created part=<k> directory
        # entry must be durable before the manifest entry is
        durable_replace(tmp, dest, extra_dirs=(self.out_dir,))
        entry["rows_out"] = table.num_rows
        entry["wall_sec"] = round(time.monotonic() - t0, 4)
        self.commit(part, entry)
        return entry

    def summary(self) -> dict:
        """The run summary ``status`` prints, summed over the committed
        entries in one manifest scan."""
        return summarize(self.committed().values())

    def retire(self, part: int) -> None:
        """Invalidate a committed partition (manifest entry + data file) --
        used when the input table shrank (stale fragment indices) or a fresh
        run rewrites the job parameters."""
        for p in (os.path.join(self.dir, f"part-{part}.json"), self.partition_path(part)):
            try:
                os.remove(p)
            except FileNotFoundError:
                pass

    def purge(self) -> None:
        """Retire every committed partition (fresh-run semantics)."""
        for part in list(self.committed()):
            self.retire(part)

    def committed_one(self, part: int) -> dict | None:
        """Single-entry lookup (the commit hot path must not scan all P
        manifest files -- that would be O(P^2) across a run)."""
        return _read_json(os.path.join(self.dir, f"part-{part}.json"))

    def partition_path(self, part: int) -> str:
        return os.path.join(self.out_dir, f"part={part}", "data.parquet")

    def data_paths(self) -> list[str]:
        return [self.partition_path(p) for p in sorted(self.committed())]
