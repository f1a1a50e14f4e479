"""Local replica of the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` entry that has an ``oracle_sql()``
twin against DuckDB on the same parquet tables and compares rows / schema /
values (columns sorted by name, rows sorted, exact string compare -- which
is why oracle-compared outputs use integer cents/ppm, never raw floats).

Usage::

    PYTHONPATH=/root/repo python tools/check_oracles.py [sf_dir] [query ...]

Defaults to sf0.01 (the driver's correctness scale) and all oracled queries.
Each query's line ends with the seconds its query and its oracle took, and
the last line gives the sweep's total. Exit code 1 on any failure.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    names = sys.argv[2:] or None

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as em

    qs, osql = em.queries(), em.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    names = names or [n for n in qs if n in osql]
    failures = 0
    t_sweep = time.perf_counter()
    for name in names:
        if name not in osql:
            print(f"{name}: NO ORACLE (rows-only at the driver)")
            continue
        try:
            t0 = time.perf_counter()
            res = qs[name](sf)
            got = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
            t1 = time.perf_counter()
            exp = con.execute(osql[name]).df()
            t2 = time.perf_counter()
            g, e = _norm(got), _norm(exp)
            rows_ok = len(g) == len(e)
            schema_ok = list(g.columns) == list(e.columns)
            vals_ok = rows_ok and schema_ok and bool((g.astype(str).values == e.astype(str).values).all())
            ok = rows_ok and schema_ok and vals_ok
            failures += 0 if ok else 1
            print(f"{name}: {'OK' if ok else 'FAIL'} rows={len(g)}/{len(e)} "
                  f"schema={schema_ok} vals={vals_ok} query={t1 - t0:.2f}s oracle={t2 - t1:.2f}s")
            if not ok and rows_ok and schema_ok:
                diff = (g.astype(str).values != e.astype(str).values).any(axis=1)
                print(pd.concat([g[diff].head(3), e[diff].head(3)], keys=["got", "exp"]))
            elif not ok:
                print(f"  got cols={list(g.columns)} exp cols={list(e.columns)}")
        except Exception as ex:  # noqa: BLE001 - report and keep checking
            failures += 1
            print(f"{name}: ERROR {type(ex).__name__}: {ex}")
    print(f"{failures} failures / {len(names)} checked in {time.perf_counter() - t_sweep:.1f}s")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
