"""Re-measure Ray-native Dataset.join / groupby vs the hand-rolled
bucketed ops on the CURRENT Ray version (VERDICT r3 "next round" #8 --
the round-2 3.43 s vs 4.55 s note is version-pinned and will rot).

Three head-to-heads at sf0.1, fresh Ray session, best-of-N each, results
verified equal before timing counts:

1. join: orders x lineitem on orderkey -- ``bucketed_hash_join`` vs native
   ``Dataset.join`` (alpha hash-shuffle backend).
2. grouped sum (string key, high cardinality): ``bucketed_grouped_sum`` vs
   native ``groupby(key).aggregate(Sum)``.
3. grouped sum (tiny key domain): partial-agg + ``tiny_final_groupby`` vs
   native groupby.

Usage::

    PYTHONPATH=/root/repo python tools/measure_native_join.py [--cpus 16]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

SF = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _timed(fn, runs: int = 2) -> tuple[float, object]:
    best, res = float("inf"), None
    for _ in range(runs):
        t0 = time.perf_counter()
        res = fn()
        best = min(best, time.perf_counter() - t0)
    return round(best, 3), res


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpus", type=int, default=16)
    ap.add_argument("--runs", type=int, default=2)
    args = ap.parse_args()

    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.aggregate import Sum

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from distributed_system___ocr_ray.pipelines.relational import (
        bucketed_grouped_sum,
        bucketed_hash_join,
        tiny_final_groupby,
    )

    out = {"ray_version": ray.__version__, "num_cpus": args.cpus, "sf": SF}

    def orders():
        return rd.read_parquet(f"{SF}/orders.parquet",
                               columns=["o_orderkey", "o_orderdate"])

    def lineitem():
        return rd.read_parquet(f"{SF}/lineitem.parquet",
                               columns=["l_orderkey", "l_extendedprice"])

    # 1. join ------------------------------------------------------------
    def run_bucketed():
        j = bucketed_hash_join(orders(), lineitem(), "o_orderkey",
                               "l_orderkey", buckets=32)
        return j.count()

    def run_native():
        j = orders().join(lineitem(), join_type="inner", num_partitions=32,
                          on=("o_orderkey",), right_on=("l_orderkey",))
        return j.count()

    t_b, n_b = _timed(run_bucketed, args.runs)
    try:
        t_n, n_n = _timed(run_native, args.runs)
        assert n_b == n_n, (n_b, n_n)
        out["join"] = {"bucketed_s": t_b, "native_s": t_n, "rows": n_b}
    except Exception as exc:  # noqa: BLE001 -- alpha backend may fail outright
        out["join"] = {"bucketed_s": t_b, "native_error": repr(exc)[:300]}

    # 2. grouped sum, high-cardinality string key ------------------------
    def docs():
        return rd.read_parquet(f"{SF}/documents.parquet",
                               columns=["source", "n_chars"])

    def run_bucketed_sum():
        return bucketed_grouped_sum(docs(), "source", "n_chars").to_pandas()

    def run_native_sum():
        return (docs().groupby("source")
                .aggregate(Sum("n_chars", alias_name="n_chars")).to_pandas())

    t_bs, r_bs = _timed(run_bucketed_sum, args.runs)
    t_ns, r_ns = _timed(run_native_sum, args.runs)
    a = r_bs.sort_values("source").reset_index(drop=True)
    b = r_ns.sort_values("source").reset_index(drop=True)[a.columns]
    assert a.equals(b), "grouped-sum results differ"
    out["grouped_sum"] = {"bucketed_s": t_bs, "native_s": t_ns,
                          "groups": len(a)}

    # 2b. grouped sum, HIGH-cardinality int key (bucketed_grouped_sum's
    # actual design point: 150k distinct orderkeys) ----------------------
    def li():
        return rd.read_parquet(f"{SF}/lineitem.parquet",
                               columns=["l_orderkey", "l_quantity"])

    def run_bucketed_hc():
        return bucketed_grouped_sum(li(), "l_orderkey", "l_quantity").count()

    def run_native_hc():
        return (li().groupby("l_orderkey")
                .aggregate(Sum("l_quantity", alias_name="l_quantity")).count())

    t_bh, n_bh = _timed(run_bucketed_hc, args.runs)
    t_nh, n_nh = _timed(run_native_hc, args.runs)
    assert n_bh == n_nh
    out["grouped_sum_highcard"] = {"bucketed_s": t_bh, "native_s": t_nh,
                                   "groups": n_bh}

    # 3. tiny-domain grouped count ---------------------------------------
    def run_partial_tiny():
        def partial(batch):
            g = batch.group_by("source").aggregate([("n_chars", "sum")])
            return g.rename_columns(["source", "n"])

        parts = docs().map_batches(partial, batch_format="pyarrow")
        return tiny_final_groupby(parts, ["source"], [("n", "sum")],
                                  ["source", "n"]).to_pandas()

    t_pt, r_pt = _timed(run_partial_tiny, args.runs)
    out["tiny_groupby"] = {"partial_tiny_s": t_pt, "native_s": t_ns,
                           "groups": len(r_pt)}

    ray.shutdown()
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
