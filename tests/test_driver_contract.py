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


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


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
def test_pair_oracle_models_group_cap():
    """The pair-family oracles replay the engine's bucket skew cap: past
    _MAX_GROUP_SIZE members a bucket pairs each member with its min-id
    representative only (dedup.group_pairs / simhash bucket_pairs). 70
    identical documents force one 70-member bucket in both families; engine
    output and oracle SQL must agree exactly -- 69 representative pairs from
    that cluster, not C(70,2)."""
    import ray.data as rd

    import __ray_entry__ as entry_mod
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
    con2 = duckdb.connect()
    con2.register("documents", docs)
    ds = rd.from_pandas(docs)

    def canon_pairs(df, val):
        df = df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        return list(zip(df.doc_a.astype(int), df.doc_b.astype(int), df[val].astype(int)))

    sim = analytics.simhash_pairs(ds, max_hamming=3).to_pandas()
    sim_sql = con2.execute(entry_mod._simhash_pairs_sql()).df()
    assert canon_pairs(sim, "hamming") == canon_pairs(sim_sql, "hamming")
    dup_pairs = sim[(sim.doc_a < n_dup) & (sim.doc_b < n_dup)]
    assert len(dup_pairs) == n_dup - 1 and (dup_pairs.doc_a == 0).all()

    mh = analytics.minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
    mh["n_match"] = (mh.pop("est_jaccard") * 64).round().astype("int64")
    mh_sql = con2.execute(entry_mod._minhash_pairs_sql()).df()
    assert canon_pairs(mh, "n_match") == canon_pairs(mh_sql, "n_match")
    mdup = mh[(mh.doc_a < n_dup) & (mh.doc_b < n_dup)]
    assert len(mdup) == n_dup - 1 and (mdup.doc_a == 0).all()


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
