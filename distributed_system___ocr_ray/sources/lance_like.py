"""Minimal Lance-style table layout: immutable fragments + versioned manifest.

The north rule targets Lance tables, but the ``lance`` package is not
installable in the sandbox (SURVEY.md #7.0). This module implements the two
Lance properties the engine relies on -- (a) a table is a *manifest-listed
set of immutable columnar fragments*, and (b) versions are monotonic JSON
manifests so readers pin a consistent snapshot -- over parquet fragments.
Swapping in real Lance later is mechanical: replace ``read_fragments`` with
``lance.dataset(uri)``.

Layout::

    <dir>/data/fragment-<version>-<idx>.parquet
    <dir>/_manifest/v<version>.json   {"version": n, "fragments": [{"path", "rows"}]}

At 100 TB scale, fragments live on shared object storage and the reader hands
the fragment path list straight to ``ray.data.read_parquet`` so column
pruning and row-group pushdown still apply.
"""

from __future__ import annotations

import json
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq

_MANIFEST_RE = re.compile(r"^v(\d+)\.json$")


class ConstraintViolation(ValueError):
    """A CHECK constraint rejected rows at write time (Delta-style table
    constraints): the write aborts BEFORE any manifest commit, so readers
    never observe violating rows; fragments already laid down by the
    failed write are unreferenced and reclaimed by gc()."""


class CommitConflict(RuntimeError):
    """Optimistic-concurrency commit failure: another writer committed the
    same manifest version first (Iceberg's commit contract -- writers
    prepare against a snapshot and an exclusive version-file create
    decides the race; the loser re-reads the new latest and re-runs its
    op, its prepared-but-unreferenced fragment files reclaimed by gc)."""


def _manifest_dir(table_dir: str) -> str:
    return os.path.join(table_dir, "_manifest")


def _commit_manifest(table_dir: str, manifest: dict) -> dict:
    """Atomic manifest commit: write to a dot-tmp then os.replace, so a
    reader never observes a torn v{N}.json, then an EXCLUSIVE link into place so concurrent writers race loudly (CommitConflict) instead of silently clobbering each other. The single place the commit
    protocol lives (write_table/write_dataset/manifest_over_files/compact
    all funnel here — review finding, round 3: four verbatim copies meant
    a protocol change, e.g. adding an fsync, had to land in four places)."""
    version = manifest["version"]
    tmp = os.path.join(_manifest_dir(table_dir), f".v{version}.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    final = os.path.join(_manifest_dir(table_dir), f"v{version}.json")
    try:
        # exclusive create (os.link fails on an existing target): the
        # atomic arbiter of concurrent writers -- os.replace would let the
        # SECOND committer silently clobber the first's version
        os.link(tmp, final)
    except FileExistsError:
        os.unlink(tmp)
        raise CommitConflict(
            f"manifest v{version} already committed in {table_dir}; "
            "re-read the latest version and re-run the operation"
        ) from None
    os.unlink(tmp)
    return manifest


def _fragment_stats(tbl: pa.Table) -> dict:
    """Zone map for one fragment: {col: [min, max]} for primitive
    (int/float/string) columns, skipping all-null ones. Stored in the
    manifest so a predicate read can skip whole fragments without opening
    them — at 100 TB the manifest is the only thing the planner reads, and
    a range query over a sorted/clustered table touches O(matching)
    fragments instead of all of them (Lance/Iceberg zone-map semantics)."""
    import pyarrow.compute as pc

    stats: dict = {}
    for name in tbl.schema.names:
        t = tbl.schema.field(name).type
        if not (pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_string(t)):
            continue
        mm = pc.min_max(tbl.column(name))
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is None:
            continue
        stats[name] = [lo, hi]
    return stats


_PRED_OPS = ("==", "<", "<=", ">", ">=", "between")


def _fragment_may_match(frag: dict, predicates: list[tuple]) -> bool:
    """Conservative zone-map test: False only when the fragment's [min, max]
    PROVES no row can satisfy every predicate. Fragments without stats for
    a predicate column (old manifests, published-in-place files, nested
    columns) are always kept — pruning is an optimization, never a filter."""
    stats = frag.get("stats") or {}
    for col, op, val in predicates:
        if col not in stats:
            continue
        lo, hi = stats[col]
        if op == "==":
            if val < lo or val > hi:
                return False
        elif op == "<":
            if lo >= val:
                return False
        elif op == "<=":
            if lo > val:
                return False
        elif op == ">":
            if hi <= val:
                return False
        elif op == ">=":
            if hi < val:
                return False
        elif op == "between":
            a, b = val
            if b < lo or a > hi:
                return False
        else:
            raise ValueError(f"unknown predicate op {op!r}; use one of {_PRED_OPS}")
    return True


def latest_version(table_dir: str) -> int:
    mdir = _manifest_dir(table_dir)
    if not os.path.isdir(mdir):
        return 0
    versions = [int(m.group(1)) for f in os.listdir(mdir) if (m := _MANIFEST_RE.match(f))]
    return max(versions, default=0)


def read_manifest(table_dir: str, version: int | None = None) -> dict:
    version = version or latest_version(table_dir)
    if version == 0:
        raise FileNotFoundError(f"no manifest in {table_dir}")
    with open(os.path.join(_manifest_dir(table_dir), f"v{version}.json")) as f:
        return json.load(f)


def fragment_paths(table_dir: str, version: int | None = None) -> list[str]:
    man = read_manifest(table_dir, version)
    return [os.path.join(table_dir, frag["path"]) for frag in man["fragments"]]


def _check_append_schema(table_dir: str, prior_version: int, new_schema) -> None:
    """Loud append-time schema guard: appending fragments that don't match
    the committed ones would poison every future full-table read (parquet
    fragments are immutable -- there is no fixing it after the manifest
    commit). Compares the name -> type MAPPING (order-insensitive, but
    same-name-different-dtype is exactly the silent poison case) against
    the first committed fragment; a missing fragment file (externally
    published paths) or an empty/schema-less append skips the check -- a
    zero-fragment append is harmless."""
    if new_schema is None or not new_schema.names:
        return
    prior = read_manifest(table_dir, prior_version)["fragments"]
    if not prior:
        return
    path = prior[0]["path"]
    full = path if os.path.isabs(path) else os.path.join(table_dir, path)
    try:
        old_schema = pq.read_schema(full)
    except (FileNotFoundError, OSError):
        return
    old = {f.name: f.type for f in old_schema}
    new = {f.name: f.type for f in new_schema}
    # an evolved table accepts appends in EITHER shape: the original
    # physical schema (readers fill the default) or physical + evolved
    # columns (new data carries real values)
    evo = read_manifest(table_dir, prior_version).get("evolution", [])
    if evo and new != old:
        evolved = dict(old)
        for e in evo:
            evolved[e["add"]] = _EVO_TYPES[e["type"]]
        if new == evolved:
            return
    if old != new:
        raise ValueError(
            f"append schema mismatch for {table_dir}: committed "
            f"{sorted((n, str(t)) for n, t in old.items())} vs appended "
            f"{sorted((n, str(t)) for n, t in new.items())}"
        )


def write_table(
    table: pa.Table, table_dir: str, rows_per_fragment: int = 100_000, mode: str = "overwrite",
    row_group_size: int | None = None, constraints: list[tuple] | None = None,
) -> dict:
    """Write ``table`` as a new version of a Lance-style table.

    ``mode='overwrite'`` starts a fresh fragment list; ``mode='append'``
    extends the previous version's list. Fragment files are immutable
    (never rewritten); the manifest commit is an atomic rename.
    ``constraints``: CHECK predicates enforced before anything is written
    (and recorded in the manifest; appends inherit the table's contract
    when the argument is omitted -- same semantics as ``write_dataset``).
    """
    os.makedirs(os.path.join(table_dir, "data"), exist_ok=True)
    os.makedirs(_manifest_dir(table_dir), exist_ok=True)
    version = latest_version(table_dir) + 1
    if constraints is None and mode == "append" and version > 1:
        constraints = [
            tuple(c) for c in read_manifest(table_dir, version - 1).get(
                "constraints", [])
        ] or None
    if constraints and table.num_rows:
        import pyarrow.compute as pc

        # null-safe: a NULL in a constrained column VIOLATES (stricter than
        # SQL CHECK, documented) -- fill_null(False) makes the count and the
        # sample row agree; a raw invert(ok) drops null-mask rows and
        # IndexErrors when every violator is null-valued (ADVICE r3)
        ok = pc.fill_null(_predicate_mask(table, constraints), False)
        bad = table.num_rows - (pc.sum(ok).as_py() or 0)
        if bad:
            first = table.filter(pc.invert(ok)).slice(0, 1).to_pylist()[0]
            raise ConstraintViolation(
                f"{bad} row(s) violate CHECK {constraints}; first: {first}"
            )
    fragments = []
    if mode == "append" and version > 1:
        _check_append_schema(table_dir, version - 1, table.schema)
        fragments = list(read_manifest(table_dir, version - 1)["fragments"])
    # small row groups keep the read splittable: Ray's parquet reader can
    # only repartition (override_num_blocks) down to row-group granularity,
    # and downstream fused map stages inherit read-block parallelism
    rg = row_group_size or min(rows_per_fragment, 512)
    for idx, start in enumerate(range(0, max(table.num_rows, 1), rows_per_fragment)):
        chunk = table.slice(start, rows_per_fragment)
        rel = f"data/fragment-{version}-{idx:05d}.parquet"
        pq.write_table(chunk, os.path.join(table_dir, rel), row_group_size=rg)
        fragments.append(
            {"path": rel, "rows": chunk.num_rows, "stats": _fragment_stats(chunk)}
        )
    manifest = {"version": version, "fragments": fragments}
    if constraints:
        manifest["constraints"] = [list(c) for c in constraints]
    if mode == "append" and version > 1:
        prior_man = read_manifest(table_dir, version - 1)
        if "evolution" in prior_man:  # ADD COLUMN survives appends
            manifest["evolution"] = prior_man["evolution"]
    return _commit_manifest(table_dir, manifest)


def write_dataset(
    ds, table_dir: str, rows_per_fragment: int = 100_000, mode: str = "overwrite",
    row_group_size: int | None = None, constraints: list[tuple] | None = None,
) -> dict:
    """Streaming writer: materialization-free ``Dataset`` -> Lance-style table.

    Each ``map_batches`` task writes ONE immutable fragment directly from its
    batch (the driver never holds the data -- only the per-fragment
    ``(path, rows)`` manifest rows come back), then the manifest commits with
    a single atomic rename. This is the scale path that replaces
    ``pa.concat_tables(ray.get(ds.to_arrow_refs()))`` + ``write_table``:
    driver RSS stays flat regardless of dataset size. Fragment names carry a
    uuid (names are identity, not order); the manifest list is sorted by
    name for a stable listing.
    """
    import uuid

    os.makedirs(os.path.join(table_dir, "data"), exist_ok=True)
    os.makedirs(_manifest_dir(table_dir), exist_ok=True)
    version = latest_version(table_dir) + 1
    if mode == "append" and version > 1:
        # schema() is metadata-cheap for reads and a bounded partial
        # execution otherwise; the write below executes the plan regardless.
        # An all-filtered dataset can come back schema-less -- the guard
        # treats that as the harmless zero-fragment append it is.
        try:
            sch = ds.schema()
        except Exception:
            sch = None
        sch = sch.base_schema if hasattr(sch, "base_schema") else sch
        _check_append_schema(table_dir, version - 1, sch)
    # CHECK constraints (Delta-style): the caller's list, or -- on append --
    # the table's recorded contract, so a writer cannot sneak violating rows
    # into a constrained table by simply omitting the argument
    if constraints is None and mode == "append" and version > 1:
        constraints = [
            tuple(c) for c in read_manifest(table_dir, version - 1).get(
                "constraints", [])
        ] or None
    rg = row_group_size or min(rows_per_fragment, 512)

    def write_fragment(batch: pa.Table) -> pa.Table:
        if constraints and batch.num_rows:
            import pyarrow.compute as pc

            # null-safe, same contract as write_table: NULL violates
            ok = pc.fill_null(_predicate_mask(batch, constraints), False)
            bad = batch.num_rows - (pc.sum(ok).as_py() or 0)
            if bad:
                first = batch.filter(pc.invert(ok)).slice(0, 1).to_pylist()[0]
                raise ConstraintViolation(
                    f"{bad} row(s) violate CHECK {constraints}; first: {first}"
                )
        if batch.num_rows == 0:
            return pa.table(
                {
                    "path": pa.array([], pa.string()),
                    "rows": pa.array([], pa.int64()),
                    "stats": pa.array([], pa.string()),
                }
            )
        rel = f"data/fragment-{version}-{uuid.uuid4().hex[:12]}.parquet"
        pq.write_table(batch, os.path.join(table_dir, rel), row_group_size=rg)
        # stats ride back as a JSON string cell (tiny); the driver only ever
        # holds manifest rows, never data
        return pa.table(
            {
                "path": pa.array([rel]),
                "rows": pa.array([batch.num_rows], pa.int64()),
                "stats": pa.array([json.dumps(_fragment_stats(batch))]),
            }
        )

    frag_rows = ds.map_batches(
        write_fragment, batch_format="pyarrow", batch_size=rows_per_fragment
    ).take_all()  # tiny manifest rows only
    fragments = []
    if mode == "append" and version > 1:
        fragments = list(read_manifest(table_dir, version - 1)["fragments"])
    fragments += sorted(
        (
            {"path": r["path"], "rows": int(r["rows"]), "stats": json.loads(r["stats"])}
            for r in frag_rows
        ),
        key=lambda f: f["path"],
    )
    manifest = {"version": version, "fragments": fragments}
    if constraints:
        manifest["constraints"] = [list(c) for c in constraints]
    if mode == "append" and version > 1:
        prior_man = read_manifest(table_dir, version - 1)
        if "evolution" in prior_man:  # ADD COLUMN survives appends
            manifest["evolution"] = prior_man["evolution"]
    return _commit_manifest(table_dir, manifest)


def pruned_fragment_paths(
    table_dir: str, predicates: list[tuple], version: int | None = None
) -> tuple[list[str], int]:
    """(paths that may contain matches, total fragment count) for ANDed
    ``(col, op, value)`` predicates, ops in ``_PRED_OPS``. Driver-side and
    manifest-only: no fragment file is opened. Conservative — a returned
    path may still contain zero matching rows, so callers MUST apply the
    exact row filter after the read (pruning changes cost, never results)."""
    man = read_manifest(table_dir, version)
    keep = [f for f in man["fragments"] if _fragment_may_match(f, predicates)]
    return [os.path.join(table_dir, f["path"]) for f in keep], len(man["fragments"])


def _predicates_expr(predicates: list[tuple]):
    """ANDed pyarrow dataset expression for ``(col, op, value)`` predicates
    — the row-level pushdown twin of ``_fragment_may_match``."""
    import pyarrow.compute as pc

    expr = None
    for col, op, val in predicates:
        f = pc.field(col)
        if op == "==":
            e = f == val
        elif op == "<":
            e = f < val
        elif op == "<=":
            e = f <= val
        elif op == ">":
            e = f > val
        elif op == ">=":
            e = f >= val
        elif op == "between":
            e = (f >= val[0]) & (f <= val[1])
        else:
            raise ValueError(f"unknown predicate op {op!r}; use one of {_PRED_OPS}")
        expr = e if expr is None else expr & e
    return expr


def read_dataset(
    table_dir: str,
    version: int | None = None,
    predicates: list[tuple] | None = None,
    **read_parquet_kwargs,
):
    """Open a Lance-style table as a ``ray.data.Dataset`` (manifest-pinned).

    ``predicates`` (ANDed ``(col, op, value)``) prune at TWO levels:
    fragments via the manifest zone maps BEFORE the read is planned (range
    queries over sorted/clustered tables touch O(matching fragments) at
    100 TB), then the same predicates push down into ``read_parquet`` as a
    pyarrow expression, so parquet row-group stats skip row groups inside
    the survivors and the rows that come back match EXACTLY. Callers may
    still re-apply the filter defensively (it is a no-op). An all-pruned
    read returns an empty Dataset with the table's schema (read of one
    fragment sliced to zero rows would be wasteful; we read the schema from
    the first fragment's footer)."""
    import ray.data as rd

    def empty(cols):
        # schema source for an empty read: any fragment of any version
        # (a manifest can legitimately have zero fragments — delete_where
        # with an all-matching predicate drops every one)
        for v in range(latest_version(table_dir), 0, -1):
            frags = read_manifest(table_dir, v)["fragments"]
            if frags:
                p = frags[0]["path"]
                full = p if os.path.isabs(p) else os.path.join(table_dir, p)
                schema = pq.read_schema(full)
                if cols:
                    schema = pa.schema([schema.field(c) for c in cols])
                return rd.from_arrow(schema.empty_table())
        return rd.from_items([])  # truly nothing ever written: schema-less

    cols = read_parquet_kwargs.get("columns")
    # merge-on-read: load this version's equality-delete key sets (small
    # by contract) and apply them as a vectorized anti-filter stage; a
    # projection that excludes a delete key column is widened for the
    # read and narrowed again after the filter.
    try:
        dels = _delete_key_sets(table_dir, read_manifest(table_dir, version))
    except FileNotFoundError:
        dels = []
    if dels and cols:
        widened = list(cols) + [c for c, _ in dels if c not in cols]
        read_parquet_kwargs = {**read_parquet_kwargs, "columns": widened}

    def apply_deletes(ds):
        if not dels:
            return ds
        import ray

        handles = [(col, ray.put(pa.array(sorted(keys)))) for col, keys in dels]
        drop = [c for c, _ in dels if cols and c not in cols]

        def anti(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            for col, h in handles:
                mask = pc.is_in(batch.column(col), value_set=ray.get(h))
                batch = batch.filter(pc.invert(mask))
            return batch.drop_columns(drop) if drop else batch

        return ds.map_batches(anti, batch_format="pyarrow")

    if not predicates:
        paths = fragment_paths(table_dir, version)
        if not paths:
            return empty(cols)
        return apply_deletes(rd.read_parquet(paths, **read_parquet_kwargs))
    paths, _total = pruned_fragment_paths(table_dir, predicates, version)
    if not paths:
        return empty(cols)
    return apply_deletes(
        rd.read_parquet(paths, filter=_predicates_expr(predicates), **read_parquet_kwargs)
    )


def manifest_over_files(paths: list[str], table_dir: str) -> dict:
    """Publish EXISTING parquet files (e.g. a checkpointed extraction
    output's committed partitions) as a Lance-style table: fragments are
    referenced in place via relative paths, only the manifest is written --
    so a pipeline stage's output is immediately a versioned table the next
    stage can read with the same reader (symmetry of inputs and outputs)."""
    os.makedirs(_manifest_dir(table_dir), exist_ok=True)
    version = latest_version(table_dir) + 1
    fragments = []
    for p in paths:
        rel = os.path.relpath(p, table_dir)
        fragments.append({"path": rel, "rows": pq.read_metadata(p).num_rows})
    manifest = {"version": version, "fragments": fragments}
    return _commit_manifest(table_dir, manifest)


def compact(
    table_dir: str, target_rows_per_fragment: int = 100_000,
    row_group_size: int | None = None,
) -> dict:
    """Rewrite runs of small fragments into ~target-size ones as a NEW
    manifest version (the maintenance op incremental append needs: 50
    appends = 50+ small fragments, each a separate read task and manifest
    entry, growing without bound -- the reference's cleanup analogue,
    Manager.java:406-460).

    Contract:
    - Row order is preserved: only CONSECUTIVE small fragments merge, and
      fragments >= target/2 rows are carried over untouched (no rewrite
      amplification on already-healthy data).
    - Old fragments are immutable and stay on disk, still referenced by
      prior manifest versions -- readers pinning an older version are
      unaffected; garbage collection of unreferenced versions is a separate
      concern.
    - Resume identities that pin the fragment list -- the media store's
      path-form fingerprint (pipelines/extract.media_fingerprint) and the
      sharded plan's per-fragment partitioning -- intentionally MISMATCH
      after compaction and raise loudly on resume: fragment boundaries ARE
      partitioning identity, so a half-finished checkpointed run must
      finish before its inputs are compacted (append-only growth remains
      resumable; compaction is a barrier, not silent corruption).

    Merge groups are rewritten in parallel as Ray tasks when a Ray session
    exists (each group is independent and ~target-size bounded); serially
    otherwise. Returns the new manifest.
    """
    man = read_manifest(table_dir)
    version = man["version"] + 1
    rg = row_group_size or min(target_rows_per_fragment, 512)
    # published-in-place tables (manifest_over_files) have no data/ dir yet
    os.makedirs(os.path.join(table_dir, "data"), exist_ok=True)
    # plan: split the ordered fragment list into carry-overs and merge groups
    plan: list[tuple[str, list[dict]]] = []  # ("keep"|"merge", frags)
    pending: list[dict] = []

    def flush_pending():
        if not pending:
            return
        if len(pending) == 1:
            plan.append(("keep", list(pending)))
        else:
            plan.append(("merge", list(pending)))
        pending.clear()

    for frag in man["fragments"]:
        if frag["rows"] >= target_rows_per_fragment // 2:
            flush_pending()
            plan.append(("keep", [frag]))
            continue
        pending.append(frag)
        if sum(f["rows"] for f in pending) >= target_rows_per_fragment:
            flush_pending()
    flush_pending()

    def merge_one(group: list[dict], idx: int) -> dict:
        tbl = pa.concat_tables(
            [pq.read_table(os.path.join(table_dir, f["path"])) for f in group]
        )
        rel = f"data/fragment-{version}-c{idx:05d}.parquet"
        pq.write_table(tbl, os.path.join(table_dir, rel), row_group_size=rg)
        return {"path": rel, "rows": tbl.num_rows, "stats": _fragment_stats(tbl)}

    merges = [(i, frags) for i, (op, frags) in enumerate(plan) if op == "merge"]
    merged: dict[int, dict] = {}
    try:
        import ray

        have_ray = ray.is_initialized()
    except ImportError:  # pragma: no cover - ray is a hard dep in practice
        have_ray = False
    if have_ray and len(merges) > 1:
        import ray

        remote_merge = ray.remote(merge_one)
        refs = {i: remote_merge.remote(frags, i) for i, frags in merges}
        merged = {i: ray.get(r) for i, r in refs.items()}
    else:
        merged = {i: merge_one(frags, i) for i, frags in merges}

    fragments = []
    for i, (op, frags) in enumerate(plan):
        fragments.append(merged[i] if op == "merge" else frags[0])
    manifest = {"version": version, "fragments": fragments, "compacted_from": man["version"]}
    if man.get("delete_files"):
        # merge-on-read deletes stay logical across compaction: merged
        # fragments may still contain deleted rows (zone maps stay
        # conservative); readers keep applying the carried delete files
        manifest["delete_files"] = list(man["delete_files"])
    return _commit_manifest(table_dir, manifest)


class WapAuditError(RuntimeError):
    """Write-Audit-Publish audit failure: the staged table did not pass
    its checks; the target was NOT touched."""


def wap_publish(staging_dir: str, target_dir: str,
                expected_rows: int | None = None,
                check_stats: bool = True) -> dict:
    """Write-Audit-Publish (the Iceberg/Netflix WAP pattern): a writer
    STAGES a candidate table in its own directory, the AUDIT runs against
    the staging manifest -- ``verify()`` fsck (fragments exist, footer row
    counts match, zone maps honest) plus an optional exact row-count
    contract -- and only a clean audit PUBLISHES: the target gains a new
    manifest version referencing the staged fragments IN PLACE
    (metadata-only: no data file is copied), becoming the target's
    current snapshot. A failed audit raises ``WapAuditError`` and the
    target is untouched -- consumers reading the target can never observe
    unaudited data, which is the entire point of the pattern.

    The audit is PINNED to the staging manifest version resolved here --
    a concurrent commit to the staging table between read and audit can
    therefore never publish a manifest that was not the one audited.
    ``expected_rows`` is a PHYSICAL row contract (parquet footer rows of
    the staged fragments); equality-delete files carried to the target
    are metadata and do not reduce this count -- audit logical rows via
    ``read_arrow(staging_dir).num_rows`` upstream if MOR deletes must be
    part of the contract.

    Returns the published manifest plus ``audited_rows``."""
    man = read_manifest(staging_dir)
    audit = verify(staging_dir, version=man["version"], check_stats=check_stats)
    errors = list(audit["errors"])
    if expected_rows is not None and audit["rows"] != expected_rows:
        errors.append(
            f"row-count contract: expected {expected_rows}, staged {audit['rows']}"
        )
    if errors:
        raise WapAuditError("; ".join(errors))
    os.makedirs(_manifest_dir(target_dir), exist_ok=True)
    os.makedirs(os.path.join(target_dir, "data"), exist_ok=True)
    stage_abs, tgt_abs = os.path.abspath(staging_dir), os.path.abspath(target_dir)
    frags = []
    for f in man["fragments"]:
        nf = dict(f)
        p = f["path"]
        full = p if os.path.isabs(p) else os.path.join(stage_abs, p)
        nf["path"] = os.path.relpath(full, tgt_abs)
        frags.append(nf)
    new = {
        "version": latest_version(target_dir) + 1,
        "fragments": frags,
        "published_from": {"staging": stage_abs, "version": man["version"]},
        "audited_rows": audit["rows"],
    }
    if man.get("delete_files"):
        new["delete_files"] = [
            dict(df, path=os.path.relpath(
                os.path.join(stage_abs, df["path"]), tgt_abs))
            for df in man["delete_files"]
        ]
    return _commit_manifest(target_dir, new)


def _predicate_mask(tbl: pa.Table, predicates: list[tuple]) -> pa.Array:
    """Row mask of rows MATCHING all predicates (same ops/semantics as
    ``_fragment_may_match``, evaluated exactly)."""
    import numpy as np
    import pyarrow.compute as pc

    mask = pa.array(np.ones(tbl.num_rows, dtype=bool))
    for col, op, val in predicates:
        c = tbl.column(col)
        if op == "==":
            m = pc.equal(c, val)
        elif op == "<":
            m = pc.less(c, val)
        elif op == "<=":
            m = pc.less_equal(c, val)
        elif op == ">":
            m = pc.greater(c, val)
        elif op == ">=":
            m = pc.greater_equal(c, val)
        elif op == "between":
            m = pc.and_(pc.greater_equal(c, val[0]), pc.less_equal(c, val[1]))
        else:
            raise ValueError(f"unknown predicate op {op!r}; use one of {_PRED_OPS}")
        mask = pc.and_(mask, pc.fill_null(m, False))
    return mask


def delete_where(
    table_dir: str, predicates: list[tuple], row_group_size: int | None = None
) -> dict:
    """Copy-on-write row delete: commit a NEW manifest version in which rows
    matching the ANDed ``(col, op, value)`` predicates are gone.

    Write amplification is zone-map-bounded: fragments whose [min, max]
    stats PROVE no match carry over untouched (no read, no rewrite — at
    100 TB a keyed delete touches O(matching fragments), the same pruning
    the read path uses); only fragments that may match are read, and only
    those with actual matches are rewritten (all-deleted fragments drop
    from the manifest). Old fragments stay on disk for version-pinned
    readers — ``gc()`` reclaims them, same contract as ``compact()``.

    Returns the new manifest plus ``rows_deleted`` / ``fragments_rewritten``
    / ``fragments_carried``."""
    import pyarrow.compute as pc

    man = read_manifest(table_dir)
    if man.get("delete_files"):
        raise NotImplementedError(
            "copy-on-write delete over a table with merge-on-read delete "
            "files would resurrect logically-deleted rows; materialize "
            "them first (read_arrow + rewrite) or keep using delete_where_mor"
        )
    version = man["version"] + 1
    os.makedirs(os.path.join(table_dir, "data"), exist_ok=True)
    new_frags: list[dict] = []
    rows_deleted = 0
    rewritten = carried = 0
    for idx, frag in enumerate(man["fragments"]):
        if not _fragment_may_match(frag, predicates):
            new_frags.append(frag)
            carried += 1
            continue
        p = frag["path"]
        full = p if os.path.isabs(p) else os.path.join(table_dir, p)
        tbl = pq.read_table(full)
        mask = _predicate_mask(tbl, predicates)
        n_match = pc.sum(mask).as_py() or 0
        if n_match == 0:  # zone maps are conservative: may-match != match
            new_frags.append(frag)
            carried += 1
            continue
        rows_deleted += n_match
        kept = tbl.filter(pc.invert(mask))
        if kept.num_rows == 0:
            continue  # fully-deleted fragment drops from the manifest
        rel = f"data/fragment-{version}-d{idx:05d}.parquet"
        rg = row_group_size or min(max(kept.num_rows, 1), 512)
        pq.write_table(kept, os.path.join(table_dir, rel), row_group_size=rg)
        new_frags.append(
            {"path": rel, "rows": kept.num_rows, "stats": _fragment_stats(kept)}
        )
        rewritten += 1
    manifest = {
        "version": version,
        "fragments": new_frags,
        "deleted_from": man["version"],
        "rows_deleted": rows_deleted,
        "fragments_rewritten": rewritten,
        "fragments_carried": carried,
    }
    return _commit_manifest(table_dir, manifest)


def delete_where_mor(table_dir: str, predicates: list[tuple], key_col: str) -> dict:
    """Merge-on-read EQUALITY delete (Iceberg-v2 equality-delete-file
    semantics) -- the other half of the delete ladder beside
    ``delete_where``'s copy-on-write: commit a new manifest version that
    carries EVERY data fragment by reference and adds one small DELETE
    FILE holding the ``key_col`` values of the rows the ANDed ``(col, op,
    value)`` predicates match; readers apply it as an anti-join. Write
    cost is O(matching rows' keys) -- bytes of keys, not bytes of data --
    which is why CDC/streaming writers pick this flavor; the price moves
    to every subsequent read until a rewrite materializes it.

    Zone maps still bound the scan that COLLECTS the keys (prove-no-match
    fragments are never opened). Delete files COMPOUND: the new manifest
    carries the prior version's ``delete_files`` list plus the new file.
    All copies of a duplicated key die (equality semantics). ``gc()``
    never touches ``deletes/`` (delete files are tiny; reclaim arrives
    with materialization). ``compact()`` carries delete files forward
    unchanged; ``delete_where``/``merge_upsert`` refuse MOR tables loudly
    rather than resurrect rows.

    Returns the new manifest plus ``rows_deleted`` (matched rows, BEFORE
    key dedup), ``keys_deleted`` (distinct keys written),
    ``fragments_carried`` (always every fragment) and
    ``fragments_scanned`` (zone-map survivors that were opened)."""
    import pyarrow.compute as pc

    man = read_manifest(table_dir)
    version = man["version"] + 1
    os.makedirs(os.path.join(table_dir, "deletes"), exist_ok=True)
    keys: list = []
    rows_deleted = 0
    scanned = 0
    for frag in man["fragments"]:
        if not _fragment_may_match(frag, predicates):
            continue
        p = frag["path"]
        full = p if os.path.isabs(p) else os.path.join(table_dir, p)
        # project to predicate columns + key_col only: the key-collection
        # scan must cost O(keys + predicate bytes), never O(bytes of data)
        # -- reading full multi-MB payload columns here would undercut the
        # whole O(keys)-write-cost pitch of the MOR flavor (ADVICE r3)
        want = sorted({key_col, *(c for c, _, _ in predicates)})
        # metadata-only ADD COLUMN evolution: fragments older than the
        # evolution lack the column physically -- every row carries the
        # recorded default, so substitute a constant column (ADVICE r4)
        physical = set(pq.read_schema(full).names)
        missing = [c for c in want if c not in physical]
        evo = {e["add"]: e for e in man.get("evolution", [])}
        for c in missing:
            if c not in evo:
                raise KeyError(
                    f"column {c!r} absent from fragment {p!r} and not an "
                    f"evolved column of {table_dir}"
                )
        tbl = pq.read_table(full, columns=[c for c in want if c in physical])
        for c in missing:
            e = evo[c]
            tbl = tbl.append_column(c, pa.array(
                [e["default"]] * tbl.num_rows, _EVO_TYPES[e["type"]]))
        scanned += 1
        mask = _predicate_mask(tbl, predicates)
        n_match = pc.sum(mask).as_py() or 0
        if n_match == 0:
            continue
        rows_deleted += n_match
        keys.append(tbl.column(key_col).filter(mask))
    delete_files = list(man.get("delete_files") or [])
    keys_deleted = 0
    if keys:
        kt = pa.table({key_col: pa.concat_arrays(
            [c for chunk in keys for c in
             (chunk.chunks if isinstance(chunk, pa.ChunkedArray) else [chunk])]
        )})
        kt = pa.table({key_col: pc.unique(kt.column(key_col))})
        keys_deleted = kt.num_rows
        rel = f"deletes/delete-{version}.parquet"
        pq.write_table(kt, os.path.join(table_dir, rel))
        delete_files.append({"path": rel, "key_col": key_col, "rows": keys_deleted})
    manifest = {
        "version": version,
        "fragments": list(man["fragments"]),
        "delete_files": delete_files,
        "mor_deleted_from": man["version"],
        "rows_deleted": rows_deleted,
        "keys_deleted": keys_deleted,
        "fragments_carried": len(man["fragments"]),
        "fragments_scanned": scanned,
    }
    # a MOR delete carries every fragment by reference, so ADD COLUMN
    # evolution metadata must ride along -- dropping it would break both
    # read_evolved and deletes keyed on evolved columns (ADVICE r4)
    if "evolution" in man:
        manifest["evolution"] = man["evolution"]
    return _commit_manifest(table_dir, manifest)


def _delete_key_sets(table_dir: str, man: dict) -> list[tuple[str, set]]:
    """Load a manifest's equality-delete files as (key_col, key set)
    pairs, merged per key column. Delete files are small by contract
    (CDC-delta-sized); the driver-side load is the bounded collect the
    MOR read path is built around."""
    merged: dict[str, set] = {}
    for df in man.get("delete_files") or []:
        full = os.path.join(table_dir, df["path"])
        col = df["key_col"]
        vals = pq.read_table(full).column(col).to_pylist()
        merged.setdefault(col, set()).update(vals)
    return list(merged.items())


def merge_upsert(
    table_dir: str, updates: pa.Table, key: str, row_group_size: int | None = None
) -> dict:
    """Keyed MERGE (Delta/Iceberg ``MERGE INTO`` semantics): commit a NEW
    manifest version where every target row whose ``key`` appears in
    ``updates`` is REPLACED by the update row, and update keys absent from
    the target are INSERTED — completing the table's CRUD surface next to
    ``delete_where`` (COW delete), ``evolve_add_column`` and ``compact``.

    Write amplification is zone-map-bounded like ``delete_where``: a
    fragment whose [min, max] ``key`` range provably contains NO update key
    carries over by reference (no read, no rewrite — a keyed upsert against
    a key-clustered 100 TB table touches O(matching fragments)); only
    fragments with actual key hits are rewritten minus the replaced rows.
    All update rows land as ONE new fragment at the tail, so the version's
    row multiset is exactly ``(target ⧹ matched-by-key) ∪ updates``. The
    per-fragment rewrites are independent — at scale they parallelize as
    Ray tasks exactly like ``compact``'s merge groups; the loop here is the
    same driver-side shape ``delete_where`` uses.

    Raises on duplicate or null update keys (one source row per target key,
    the MERGE precondition — duplicates would make the result
    order-dependent) and on schema drift (same loud guard as ``append``).
    Old fragments stay on disk for version-pinned readers; ``gc()``
    reclaims them. Returns the new manifest plus ``rows_updated`` (target
    rows replaced) / ``rows_inserted`` (update keys not present in the
    target) / ``fragments_rewritten`` / ``fragments_carried``."""
    import bisect

    import pyarrow.compute as pc

    man = read_manifest(table_dir)
    if man.get("delete_files"):
        raise NotImplementedError(
            "merge_upsert over a merge-on-read table would resurrect "
            "logically-deleted rows; materialize the delete files first"
        )
    version = man["version"] + 1
    _check_append_schema(table_dir, man["version"], updates.schema)
    kcol = updates.column(key)
    if kcol.null_count:
        raise ValueError(f"merge_upsert: {kcol.null_count} null {key!r} update keys")
    if pc.count_distinct(kcol).as_py() != updates.num_rows:
        raise ValueError(
            f"merge_upsert: duplicate {key!r} keys in updates — MERGE needs "
            "exactly one source row per target key (dedupe upstream)"
        )
    # align column order to the committed physical schema so mixed-version
    # reads concat cleanly (the guard already proved the name->type mapping
    # matches)
    prior_frags = man["fragments"]
    if prior_frags:
        p0 = prior_frags[0]["path"]
        full0 = p0 if os.path.isabs(p0) else os.path.join(table_dir, p0)
        try:
            updates = updates.select(pq.read_schema(full0).names)
        except (FileNotFoundError, OSError):
            pass
    sorted_keys = sorted(kcol.to_pylist())
    key_set = pa.array(sorted_keys, type=updates.schema.field(key).type)
    os.makedirs(os.path.join(table_dir, "data"), exist_ok=True)
    new_frags: list[dict] = []
    rows_updated = 0
    rewritten = carried = 0
    matched: set = set()
    for idx, frag in enumerate(man["fragments"]):
        lohi = (frag.get("stats") or {}).get(key)
        if lohi is not None:
            lo_i = bisect.bisect_left(sorted_keys, lohi[0])
            # no update key falls inside this fragment's key range
            if lo_i >= len(sorted_keys) or sorted_keys[lo_i] > lohi[1]:
                new_frags.append(frag)
                carried += 1
                continue
        p = frag["path"]
        full = p if os.path.isabs(p) else os.path.join(table_dir, p)
        tbl = pq.read_table(full)
        mask = pc.fill_null(pc.is_in(tbl.column(key), value_set=key_set), False)
        n_match = pc.sum(mask).as_py() or 0
        if n_match == 0:  # zone maps are conservative: may-match != match
            new_frags.append(frag)
            carried += 1
            continue
        rows_updated += n_match
        matched.update(pc.unique(tbl.column(key).filter(mask)).to_pylist())
        kept = tbl.filter(pc.invert(mask))
        if kept.num_rows:
            rel = f"data/fragment-{version}-m{idx:05d}.parquet"
            rg = row_group_size or min(max(kept.num_rows, 1), 512)
            pq.write_table(kept, os.path.join(table_dir, rel), row_group_size=rg)
            new_frags.append(
                {"path": rel, "rows": kept.num_rows, "stats": _fragment_stats(kept)}
            )
            rewritten += 1
    if updates.num_rows:
        rel = f"data/fragment-{version}-u00000.parquet"
        rg = row_group_size or min(max(updates.num_rows, 1), 512)
        pq.write_table(updates, os.path.join(table_dir, rel), row_group_size=rg)
        new_frags.append(
            {"path": rel, "rows": updates.num_rows, "stats": _fragment_stats(updates)}
        )
    manifest = {
        "version": version,
        "fragments": new_frags,
        "merged_from": man["version"],
        "rows_updated": rows_updated,
        "rows_inserted": updates.num_rows - len(matched),
        "fragments_rewritten": rewritten,
        "fragments_carried": carried,
    }
    return _commit_manifest(table_dir, manifest)


def verify(table_dir: str, version: int | None = None, check_stats: bool = True) -> dict:
    """Table fsck: validate a manifest version against the fragments on
    disk — the audit a 100 TB ingest pipeline runs before promoting a
    version (the reference manager's post-upload verification analogue).

    Checks, per fragment: the file exists; the parquet FOOTER row count
    matches the manifest (metadata-only, no data read); and, with
    ``check_stats``, the recorded zone map equals the actual column
    min/max (this one reads the fragment — skip it for footer-only audits
    of very large tables). Returns {"ok", "fragments", "rows", "errors"}
    with one error string per violation; never raises on findings, so a
    caller can report all of them at once."""
    man = read_manifest(table_dir, version)
    errors: list[str] = []
    total_rows = 0
    for frag in man["fragments"]:
        p = frag["path"]
        full = p if os.path.isabs(p) else os.path.join(table_dir, p)
        if not os.path.exists(full):
            errors.append(f"missing fragment: {p}")
            continue
        meta_rows = pq.read_metadata(full).num_rows
        total_rows += meta_rows
        if meta_rows != frag["rows"]:
            errors.append(f"row-count mismatch {p}: manifest {frag['rows']} vs footer {meta_rows}")
        if check_stats and frag.get("stats"):
            actual = _fragment_stats(pq.read_table(full))
            for col, lohi in frag["stats"].items():
                if col in actual and list(actual[col]) != list(lohi):
                    errors.append(
                        f"stats mismatch {p}.{col}: manifest {lohi} vs actual {actual[col]}"
                    )
    return {
        "ok": not errors,
        "fragments": len(man["fragments"]),
        "rows": total_rows,
        "errors": errors,
    }


def read_arrow(table_dir: str, version: int | None = None) -> pa.Table:
    """Driver-side read of a small Lance-style table into one Arrow table.
    Equality-delete files (``delete_where_mor``) are applied as an
    anti-join before returning -- the merge-on-read contract."""
    import pyarrow.compute as pc

    man = read_manifest(table_dir, version)
    paths = [os.path.join(table_dir, frag["path"]) for frag in man["fragments"]]
    tbl = pa.concat_tables([pq.read_table(p) for p in paths])
    for col, keys in _delete_key_sets(table_dir, man):
        mask = pc.is_in(tbl.column(col), value_set=pa.array(sorted(keys)))
        tbl = tbl.filter(pc.invert(mask))
    return tbl


def gc(table_dir: str, keep_versions: int = 2) -> dict:
    """Garbage-collect manifest versions and the fragments only they
    reference (the reference manager's cleanup sequence analogue,
    Manager.java:406-460 -- compact() deliberately leaves old fragments on
    disk so version-pinned readers keep working; gc() is the separate,
    explicit reclaim step).

    Keeps the newest ``keep_versions`` manifests (>= 1 enforced); deletes
    older manifest files, then deletes every data fragment not referenced
    by any KEPT manifest. Published-in-place tables (manifest_over_files,
    absolute paths outside data/) are never deleted -- gc only reclaims
    fragments this table owns.

    Returns {"kept_versions", "deleted_manifests", "deleted_fragments",
    "kept_fragments"}. Safe to re-run (idempotent); concurrent readers
    pinned to a deleted version will fail loudly on their next fragment
    open, which is the documented contract of reclaiming history.
    """
    keep_versions = max(1, keep_versions)
    latest = latest_version(table_dir)
    if latest == 0:
        raise FileNotFoundError(f"no manifest in {table_dir}")
    all_versions = sorted(
        int(m.group(1))
        for f in os.listdir(_manifest_dir(table_dir))
        if (m := _MANIFEST_RE.match(f))
    )
    keep = set(all_versions[-keep_versions:])
    referenced: set[str] = set()
    for v in keep:
        for frag in read_manifest(table_dir, v)["fragments"]:
            referenced.add(frag["path"])

    deleted_manifests = []
    for v in all_versions:
        if v not in keep:
            os.remove(os.path.join(_manifest_dir(table_dir), f"v{v}.json"))
            deleted_manifests.append(v)

    deleted_fragments = 0
    data_dir = os.path.join(table_dir, "data")
    frag_version = re.compile(r"^fragment-(\d+)-")
    if os.path.isdir(data_dir):
        for name in os.listdir(data_dir):
            rel = f"data/{name}"
            if rel in referenced:
                continue
            # in-flight-append guard: a racing writer lays fragment files
            # down BEFORE committing its manifest, and those carry a version
            # number above the latest committed one -- deleting them would
            # let the racer commit a manifest over missing files. Only
            # fragments at or below the latest committed version are
            # provably abandoned.
            m = frag_version.match(name)
            if m and int(m.group(1)) > latest:
                continue
            os.remove(os.path.join(data_dir, name))
            deleted_fragments += 1
    return {
        "kept_versions": sorted(keep),
        "deleted_manifests": deleted_manifests,
        "deleted_fragments": deleted_fragments,
        "kept_fragments": len(referenced),
    }


def diff(table_dir: str, v_old: int, v_new: int | None = None) -> dict:
    """Version diff: which fragments (and how many rows) an append /
    compact / publish changed between two manifest versions — the audit
    step of an incremental-ingest loop ("what exactly did today's
    increment add?") and the input to targeted downstream refresh (only
    re-embed/re-index ADDED fragments).

    Returns {"v_old", "v_new", "added": [fragment dicts], "removed":
    [fragment dicts], "rows_added", "rows_removed", "row_delta"}.
    Compaction shows up as simultaneous adds+removes with row_delta == 0;
    a pure append as adds only."""
    v_new = v_new if v_new is not None else latest_version(table_dir)
    old_frags = {f["path"]: f for f in read_manifest(table_dir, v_old)["fragments"]}
    new_frags = {f["path"]: f for f in read_manifest(table_dir, v_new)["fragments"]}
    added = [new_frags[p] for p in sorted(set(new_frags) - set(old_frags))]
    removed = [old_frags[p] for p in sorted(set(old_frags) - set(new_frags))]
    rows_added = sum(f["rows"] for f in added)
    rows_removed = sum(f["rows"] for f in removed)
    return {
        "v_old": v_old,
        "v_new": v_new,
        "added": added,
        "removed": removed,
        "rows_added": rows_added,
        "rows_removed": rows_removed,
        "row_delta": rows_added - rows_removed,
    }


def bucket_of(keys, n_buckets: int):
    """Bucket id of every key of an Arrow array, as an int32 numpy array:
    ``pd.util.hash_array(keys) % n_buckets`` in one vectorized call. The
    engine's ONE hash partitioning: ``write_bucketed`` assigns rows with
    it, ``ShardedMediaStore`` finds them with it, and the bucketed joins
    (``relational.hash_bucket_column``) co-partition with it, so writer
    and readers cannot drift."""
    import numpy as np
    import pandas as pd

    values = np.ascontiguousarray(keys.to_numpy(zero_copy_only=False))
    return (pd.util.hash_array(values) % np.uint64(n_buckets)).astype(np.int32)


def write_bucketed(
    ds, table_dir: str, key_col: str, n_buckets: int,
    rows_per_fragment: int = 100_000, row_group_size: int | None = None,
) -> dict:
    """Hash-bucketed streaming writer: co-partition a table on ``key_col``
    at WRITE time so later joins on that key need ZERO exchange (Hive
    bucketed-table / Spark bucketBy semantics; the prompt's "pick ONE
    partitioning key and reuse it across stages" made durable). Every
    fragment holds exactly one bucket's rows (``bucket_of``) and the manifest
    records the bucketing spec; ``bucket_paths`` maps each bucket to its
    fragments, so a keyed reader (``extractors.ShardedMediaStore``) loads
    only the buckets that hold its keys.

    The ONE exchange this costs happens here, once, at ingest -- every
    subsequent co-keyed join, groupby or dedup over the table reads
    co-located rows for free. At 100 TB: n_buckets sizes the unit of join
    parallelism AND the per-task memory (bucket pairs must fit a worker
    heap) -- derive it from expected table size, not cluster size, and
    use the same spec for every table sharing the key domain.

    NOTE: ``compact()``/``delete_where()`` do not preserve bucket tags;
    a bucketed table that goes through them loses its spec (the manifest
    keeps ``bucketing`` only for manifests whose fragments all carry a
    ``bucket`` tag -- ``bucket_paths`` re-checks this and raises).
    """
    import uuid

    os.makedirs(os.path.join(table_dir, "data"), exist_ok=True)
    os.makedirs(_manifest_dir(table_dir), exist_ok=True)
    version = latest_version(table_dir) + 1
    rg = row_group_size or min(rows_per_fragment, 512)

    def add_bucket(batch: pa.Table) -> pa.Table:
        buckets = bucket_of(batch.column(key_col), n_buckets)
        return batch.append_column("__bucket", pa.array(buckets, pa.int32()))

    def write_bucket(group: pa.Table) -> pa.Table:
        b = group.column("__bucket")[0].as_py()
        tbl = group.drop_columns(["__bucket"])
        paths, rows, stats, bs = [], [], [], []
        for start in range(0, max(tbl.num_rows, 1), rows_per_fragment):
            chunk = tbl.slice(start, rows_per_fragment)
            rel = f"data/bucket-{version}-{b:05d}-{uuid.uuid4().hex[:12]}.parquet"
            pq.write_table(chunk, os.path.join(table_dir, rel), row_group_size=rg)
            paths.append(rel)
            rows.append(chunk.num_rows)
            stats.append(json.dumps(_fragment_stats(chunk)))
            bs.append(b)
        return pa.table(
            {
                "path": pa.array(paths),
                "rows": pa.array(rows, pa.int64()),
                "stats": pa.array(stats),
                "bucket": pa.array(bs, pa.int64()),
            }
        )

    frag_rows = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(write_bucket, batch_format="pyarrow")
        .take_all()
    )  # tiny manifest rows only
    fragments = sorted(
        (
            {
                "path": r["path"],
                "rows": int(r["rows"]),
                "stats": json.loads(r["stats"]),
                "bucket": int(r["bucket"]),
            }
            for r in frag_rows
        ),
        key=lambda f: f["path"],
    )
    manifest = {
        "version": version,
        "fragments": fragments,
        "bucketing": {"key": key_col, "n_buckets": int(n_buckets),
                      "hash": "pd_hash_array_mod"},
    }
    return _commit_manifest(table_dir, manifest)


def bucket_paths(table_dir: str, version: int | None = None) -> dict[int, list[str]]:
    """Per-bucket absolute fragment paths for a bucketed table; raises if
    the manifest has no (intact) bucketing spec."""
    man = read_manifest(table_dir, version)
    spec = man.get("bucketing")
    if not spec or any("bucket" not in f for f in man["fragments"]):
        raise ValueError(f"{table_dir} is not a bucketed table (or lost its tags)")
    out: dict[int, list[str]] = {}
    for f in man["fragments"]:
        out.setdefault(int(f["bucket"]), []).append(os.path.join(table_dir, f["path"]))
    return out


def evolve_add_column(table_dir: str, col: str, type_name: str, default) -> dict:
    """Schema evolution (metadata-only ADD COLUMN): commit a new manifest
    version with the same fragments plus an ``evolution`` record
    ``{add, type, default}`` -- no data file is touched (Iceberg/Delta
    ADD COLUMN semantics: old fragments simply lack the column and readers
    fill the default). Fragments appended AFTER the evolution carry the
    column physically; ``read_evolved`` reconciles both cohorts.

    ``type_name``: 'int64' | 'float64' | 'string' (the scalar-default
    types a metadata fill can represent).

    NOTE: like bucketing specs, the evolution record is carried by appends
    but NOT by compact()/delete_where() (they commit fresh manifests); run
    those maintenance ops before evolving, or rewrite the table through
    ``read_evolved`` -> ``write_dataset`` to materialize the column first."""
    if type_name not in ("int64", "float64", "string"):
        raise ValueError(f"unsupported evolved type {type_name!r}")
    man = read_manifest(table_dir)
    evo = list(man.get("evolution", []))
    if any(e["add"] == col for e in evo):
        raise ValueError(f"column {col!r} already evolved")
    evo.append({"add": col, "type": type_name, "default": default})
    new_man = {
        "version": man["version"] + 1,
        "fragments": man["fragments"],
        "evolution": evo,
    }
    if "bucketing" in man:
        new_man["bucketing"] = man["bucketing"]
    return _commit_manifest(table_dir, new_man)


_EVO_TYPES = {"int64": pa.int64(), "float64": pa.float64(), "string": pa.string()}


def read_evolved(table_dir: str, version: int | None = None, columns=None):
    """Open an evolved table as a ``ray.data.Dataset``: fragments are
    grouped into schema cohorts by their parquet footers (driver-side
    metadata reads -- at scale the physical column list would ride in the
    manifest; the footer read keeps old manifests compatible), each cohort
    is read separately, evolved columns missing from a cohort are filled
    with their recorded defaults inside ``map_batches``, and the cohorts
    union into one schema-stable Dataset. Zone-map predicates are not
    supported here -- evolve-then-filter callers should filter on the
    result (the evolved column has no stats in old fragments anyway)."""
    import ray.data as rd

    man = read_manifest(table_dir, version)
    evo = man.get("evolution", [])
    if not evo:
        return read_dataset(table_dir, version=version, columns=columns)
    cohorts: dict[tuple, list[str]] = {}
    for f in man["fragments"]:
        full = os.path.join(table_dir, f["path"])
        names = tuple(pq.read_schema(full).names)
        cohorts.setdefault(names, []).append(full)
    parts = []
    for names, paths in sorted(cohorts.items()):
        missing = [e for e in evo if e["add"] not in names]
        cols = None
        if columns is not None:
            cols = [c for c in columns if c in names]

        def fill(batch: pa.Table, missing=tuple(
            (e["add"], e["type"], e["default"]) for e in missing
        )) -> pa.Table:
            for name, tname, dflt in missing:
                batch = batch.append_column(
                    name, pa.array([dflt] * batch.num_rows, _EVO_TYPES[tname])
                )
            return batch

        ds = rd.read_parquet(paths, columns=cols)
        parts.append(ds.map_batches(fill, batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    if columns is not None:
        out = out.map_batches(
            lambda b: b.select(list(columns)), batch_format="pyarrow"
        )
    return out

