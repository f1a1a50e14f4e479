"""Mini-driver conformance: replicate the driver's queries()-vs-oracle_sql()
comparison (row count + schema + order-insensitive values) at sf0.001."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # tree under test
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


@pytest.fixture(scope="session")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def test_all_sql_checked_queries_match_oracle(con):
    """Full queries()-vs-oracle_sql() sweep, in a SUBPROCESS with its own
    fresh Ray cluster (tools/check_oracles.py -- the driver's exact
    compare). Running all 200+ queries inside the shared pytest session
    was observed to wedge Ray itself: after ~4,500 datasets and hundreds
    of actor-pool spin-ups in ONE session, an actor-pool stage's first
    task can hang forever waiting for an actor the GCS never schedules
    (30 min stuck on an idle box, 2026-08-19). Process isolation keeps
    the long session out of that regime and converts any recurrence into
    a LOUD timeout instead of a silent hang; one retry absorbs the rare
    scheduling race without masking real mismatches (a value mismatch
    fails BOTH attempts)."""
    import subprocess
    import sys

    assert set(_entry().oracle_sql()) <= set(_entry().queries())

    def run():
        return subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_oracles.py"), SF],
            capture_output=True, text=True, timeout=2400,
            env={**os.environ, "PYTHONPATH": ROOT},
        )

    try:
        r = run()
    except subprocess.TimeoutExpired:
        r = run()
    assert r.returncode == 0, r.stdout[-4000:] + r.stderr[-4000:]


def _entry():
    import __ray_entry__ as entry_mod

    return entry_mod


def test_every_oracle_reads_documents_or_embeddings():
    """The registry serves the extraction system: every oracle reads the
    ``documents`` or ``embeddings`` table in a FROM/JOIN. The two media
    oracles generate their media in SQL and are the only exceptions."""
    import re

    reads = re.compile(r"\b(?:FROM|JOIN)\s+(?:documents|embeddings)\b", re.IGNORECASE)
    exempt = {"media_metadata", "media_dedup_groups"}
    off_scope = sorted(
        name for name, sql in _entry().oracle_sql().items()
        if name not in exempt and not reads.search(sql)
    )
    assert off_scope == [], f"{len(off_scope)} oracles read neither table: {off_scope}"


@pytest.mark.usefixtures("ray_session")
def test_rows_only_queries_run(con):
    """Every non-SQL query at least executes and yields a well-formed frame."""
    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    for name in set(qs) - set(oracles):
        df = _to_pandas(qs[name](SF))
        assert df is not None, name
        assert len(df.columns) > 0, name


@pytest.mark.usefixtures("ray_session")
def test_entry_smoke():
    import __ray_entry__ as entry_mod

    ds = entry_mod.entry()
    df = _to_pandas(ds)
    assert len(df) == 500
    assert set(df.columns) == {"doc_id", "spans"}


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_pairs_group_cap():
    """The MinHash pair engine's bucket skew cap: past _MAX_GROUP_SIZE
    members a band bucket pairs each member with its min-doc-id
    representative only (dedup.group_pairs). 70 identical documents force
    one 70-member bucket: 69 representative pairs from that cluster, not
    C(70,2). The ingest near-dup gate (compose.ingest_increment) runs this
    engine."""
    import ray.data as rd

    from distributed_system___ocr_ray.functions import dedup as dk
    from distributed_system___ocr_ray.pipelines import analytics

    n_dup = dk._MAX_GROUP_SIZE + 6
    base = "the quick brown fox jumps over the lazy dog again and again today"
    texts = [base] * n_dup + [
        f"unique filler document number {i} carrying distinct words w{i * 7} w{i * 11}"
        for i in range(10)
    ]
    # DESCENDING row order: a capped bucket's representative must be the
    # min DOC ID, not whichever row arrives first (regression: sorting bare
    # row positions made capped output depend on block arrival order)
    docs = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
    ).iloc[::-1].reset_index(drop=True)

    mh = analytics.minhash_lsh_pairs(rd.from_pandas(docs), threshold=0.6).to_pandas()
    mdup = mh[(mh.doc_a < n_dup) & (mh.doc_b < n_dup)]
    assert len(mdup) == n_dup - 1 and (mdup.doc_a == 0).all()
    assert sorted(mdup.doc_b) == list(range(1, n_dup))


def test_sweep_lists_name_registered_queries():
    """The benchmark sweep lists name only registered queries, so a cut
    from the registry cannot leave a stale name behind."""
    import importlib.util

    import bench

    spec = importlib.util.spec_from_file_location(
        "scale_sweep", os.path.join(ROOT, "tools", "scale_sweep.py"))
    scale_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale_sweep)
    registered = set(_entry().queries())
    stale = sorted(
        (set(bench.SWEEP_QUERIES) | set(scale_sweep.DEFAULT_QUERIES)) - registered
    )
    assert stale == [], f"sweep lists name unregistered queries: {stale}"


def test_no_oracle_uses_recursive_cte():
    """No oracle replays its query with a recursive CTE (WITH RECURSIVE).
    ``anf_effective_diameter`` is the one exemption left."""
    import re

    recursive = re.compile(r"\bWITH\s+RECURSIVE\b", re.IGNORECASE)
    exempt = {"anf_effective_diameter"}
    found = sorted(
        name for name, sql in _entry().oracle_sql().items()
        if name not in exempt and recursive.search(sql)
    )
    assert found == [], f"{len(found)} oracles use WITH RECURSIVE: {found}"


def _name_refs(nodes) -> set[str]:
    """Every name a piece of code can reach a definition by: ``Name``,
    ``Attribute``, import aliases, and identifier-shaped string constants
    (registry keys, ``getattr`` targets)."""
    import ast

    out: set[str] = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.update(n.name.split("."))
                if n.asname:
                    out.add(n.asname)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and n.value.isidentifier():
                out.add(n.value)
    return out


# Definitions in the kernel modules that no program code reaches yet, kept
# until their tests go with them. Delete entries with the code; never add.
KNOWN_UNREACHABLE = (
    "pipelines/relational.py:_cents",
    "pipelines/relational.py:_daily_last_partial",
    "pipelines/relational.py:_range_offsets",
    "pipelines/relational.py:_union_islands",
    "pipelines/relational.py:count_in_window",
    "pipelines/relational.py:debounce_events",
    "pipelines/relational.py:debounce_frame",
    "pipelines/relational.py:events_daily",
    "pipelines/relational.py:forward_fill_daily",
    "pipelines/relational.py:gini_ppm",
    "pipelines/relational.py:global_ntile",
    "pipelines/relational.py:global_rank",
    "pipelines/relational.py:interval_coverage",
    "pipelines/relational.py:longest_streak",
    "pipelines/relational.py:period_over_period",
    "pipelines/relational.py:pricing_summary",
    "pipelines/relational.py:scd2_history",
    "pipelines/relational.py:spike_days",
    "pipelines/relational.py:top_users_by_value",
)


def test_no_orphaned_kernels():
    """Name-level reachability fixpoint over the kernel modules: every
    top-level def/class there is reached from program code, not only from
    tests, or is listed in ``KNOWN_UNREACHABLE``. Roots are every module
    outside the scanned set (the CLI, ``__ray_entry__``, ``bench.py``,
    ``tools/``, ``perfbench/``, the extraction core) and the module-level
    statements of the scanned ones; a reached definition's body adds its
    own references. Cutting a query family must take the kernels only it
    called with it."""
    import ast
    import glob

    pkg = os.path.join(ROOT, "distributed_system___ocr_ray")
    scanned = {os.path.join(pkg, m) for m in (
        "pipelines/relational.py", "pipelines/analytics.py", "pipelines/compose.py",
        "pipelines/index.py", "pipelines/daemon.py",
        "functions/sketches.py", "functions/similarity.py", "functions/textstats.py",
        "functions/dedup.py", "functions/bloom.py", "functions/scrub.py",
        "stages/multimodal.py", "sources/lance_like.py",
    )}
    program = (glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)
               + [os.path.join(ROOT, f) for f in ("__ray_entry__.py", "bench.py")]
               + glob.glob(os.path.join(ROOT, "tools", "*.py"))
               + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    live: set[str] = set()
    pending = []
    for path in program:
        with open(path) as f:
            body = ast.parse(f.read()).body
        if path in scanned:
            live |= _name_refs(s for s in body if not isinstance(s, defs))
            pending += [(path, d) for d in body if isinstance(d, defs)]
        else:
            live |= _name_refs(body)
    while reached := [d for _, d in pending if d.name in live]:
        pending = [(p, d) for p, d in pending if d.name not in live]
        live |= _name_refs(reached)
    orphans = {f"{os.path.relpath(p, pkg)}:{d.name}" for p, d in pending}
    new = sorted(orphans - set(KNOWN_UNREACHABLE))
    assert new == [], f"{len(new)} definitions no program code reaches: {new}"
    stale = sorted(set(KNOWN_UNREACHABLE) - orphans)
    assert stale == [], f"KNOWN_UNREACHABLE names reached or deleted code: {stale}"


def test_no_unused_imports():
    """Every import in the program files is used: a module-level import as a
    ``Name`` somewhere in its module, a function-local one inside that
    function (nested definitions included). Scans the package (bar
    ``__init__.py``), ``__ray_entry__``, ``bench.py``, ``tools/`` and the
    tests; ``from __future__`` imports are exempt."""
    import ast
    import glob

    pkg = os.path.join(ROOT, "distributed_system___ocr_ray")
    program = ([p for p in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)
                if os.path.basename(p) != "__init__.py"]
               + [os.path.join(ROOT, f) for f in ("__ray_entry__.py", "bench.py")]
               + glob.glob(os.path.join(ROOT, "tools", "*.py"))
               + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if isinstance(child, ast.ImportFrom) and child.module == "__future__":
                    continue
                used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
                dead.extend(
                    f"{os.path.relpath(path, ROOT)}:{child.lineno}:{name}"
                    for a in child.names
                    if (name := a.asname or a.name.split(".")[0]) not in used
                )
            else:
                visit(child, child if isinstance(child, funcs) else scope, path)

    for path in program:
        with open(path) as f:
            tree = ast.parse(f.read())
        visit(tree, tree, path)
    assert dead == [], f"{len(dead)} unused imports: {sorted(dead)}"


class TestQueryCli:
    def test_query_subcommand_roundtrip(self, tmp_path):
        import pyarrow.parquet as pq

        from distributed_system___ocr_ray.__main__ import main

        out = str(tmp_path / "langs.parquet")
        rc = main(["query", "--name", "docs_by_lang",
                   "--sf-dir", "/root/testdata/sf0.001", "--out", out])
        assert rc == 0
        t = pq.read_table(out)
        assert t.num_rows == 5
        assert "n_docs" in t.column_names

    def test_query_subcommand_rejects_unknown(self, capsys):
        from distributed_system___ocr_ray.__main__ import main

        assert main(["query", "--name", "no_such_query"]) == 2
