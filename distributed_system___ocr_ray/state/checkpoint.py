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

    def check_job(self, params: dict, enforce: bool = True, compat: dict | None = None) -> None:
        """Persist job-level parameters on first run; on resume, raise if the
        caller's parameters disagree with the committed ones. Without this, a
        resume with e.g. a different ``num_partitions`` would prune spans by
        the NEW hash%P against part ids committed under the OLD P and
        silently drop documents (ADVICE r1). ``enforce=False`` (fresh run,
        resume disabled) PURGES any previously committed partitions and
        rewrites the entry -- stale parts from an old partitioning must not
        survive into the new output (they would double documents).

        ``compat``: per-key ``callable(committed, current) -> bool`` widening
        plain equality where a parameter may legitimately EVOLVE between the
        first run and a resume (e.g. an append-only media table growing).
        On a compatible-but-unequal match the committed entry is kept as-is:
        it records the state the finished partitions were actually built
        against, and compatibility is always judged from that origin.

        Job entries carry a ``format`` field; bumping it (new identity keys,
        changed fragment-identity scheme) deliberately invalidates
        checkpoints written by older code -- a loud mismatch at resume, never
        a silent misread of old entries under new semantics."""
        self.ensure()
        path = os.path.join(self.dir, self.JOB_FILE)
        if not enforce:
            self.purge()
        if os.path.exists(path) and enforce:
            with open(path) as f:
                committed = json.load(f)
            compat = compat or {}
            mismatched = [
                k for k in set(committed) | set(params)
                if committed.get(k) != params.get(k)
                and not (
                    k in compat and k in committed and k in params
                    and compat[k](committed[k], params[k])
                )
            ]
            if mismatched:
                raise ValueError(
                    f"resume parameter mismatch ({sorted(mismatched)}): "
                    f"checkpoint was created with {committed}, this run "
                    f"passed {params}; use a fresh out_dir (or compatible "
                    f"parameters) to resume"
                )
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
        path = os.path.join(self.dir, f"part-{part}.json")
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    def partition_path(self, part: int) -> str:
        return os.path.join(self.out_dir, f"part={part}", "data.parquet")

    def data_paths(self) -> list[str]:
        return [self.partition_path(p) for p in sorted(self.committed())]


class CommittingReassembler:
    """map_groups UDF over ``part`` groups: reassemble, write the partition
    atomically, commit the manifest entry, and emit ONE small metrics row
    (the dataset that reaches the driver is P rows of lineage, not data)."""

    def __init__(self, out_dir: str) -> None:
        self.manifest = CheckpointManifest(out_dir)

    def __call__(self, group: pa.Table) -> pa.Table:
        from ..stages.reassemble import reassemble_partition

        t0 = time.monotonic()
        part = int(group.column("part")[0].as_py())
        path = self.manifest.partition_path(part)
        entry = self.manifest.committed_one(part) if os.path.exists(path) else None
        already = entry is not None
        if not already:
            out = reassemble_partition(group)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = tmp_name(path)
            pq.write_table(out, tmp)
            # extra fsync of out_dir: the part=<k> directory entry we just
            # created must be durable before the manifest entry is
            durable_replace(tmp, path, extra_dirs=(self.manifest.out_dir,))
            entry = {
                "rows_in": group.num_rows,
                "rows_out": out.num_rows,
                "status_counts": status_counts(group.column("status")),
                "wall_sec": round(time.monotonic() - t0, 4),
            }
            self.manifest.commit(part, entry)
        return pa.table(
            {
                "part": pa.array([part], pa.int32()),
                "rows_in": pa.array([entry["rows_in"]], pa.int64()),
                "rows_out": pa.array([entry["rows_out"]], pa.int64()),
                "skipped": pa.array([already]),
            }
        )
