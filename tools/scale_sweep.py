"""10x scale-evidence sweep (VERDICT r3 "next round" #1).

Runs the most expensive sweep queries + the flagship at 1x (sf0.1) and at
Sx (tools/make_scaled_sf.py corpus, workload shape preserved -- see its
module docstring for why exact-copy replication would pollute the signal),
in the same chunked fresh-cluster subprocesses bench.py uses, and reports
per-query walls plus the growth exponent  e = ln(t_S / t_1) / ln(S):
e ~ 1.0 is linear scaling, e < 1 sub-linear (fixed costs amortizing),
e > 1 super-linear (something in the plan grows faster than the data --
names a cause or a fix per VERDICT).

Usage::

    PYTHONPATH=/root/repo python tools/scale_sweep.py [--scale 10]
        [--queries q1,q2,...] [--out SCALE_SWEEP.json]

Writes the JSON report and prints a markdown table for BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_SF = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
SCALE_ROOT = "/tmp/graft_scale"

# the 7 of the 15 most expensive BENCH_r03 sweep entries still in the
# registry + the representatives whose sub-linear claims BASELINE.md
# leans on
DEFAULT_QUERIES = [
    "lpa_modularity", "lpa_communities", "pagerank_top", "ppr_top",
    "kcore_nodes", "hits_scores", "bfs_levels",
    # scale-claim representatives
    "semdedup_keepers", "bm25_topk",
]


def _scaled_dir(scale: int) -> str:
    out = os.path.join(SCALE_ROOT, f"x{scale}")
    marker = os.path.join(out, ".complete")
    if not os.path.exists(marker):
        from make_scaled_sf import build_scaled_sf

        build_scaled_sf(SRC_SF, out, scale)
        open(marker, "w").write(str(scale))
    return out


def _run_chunks(sf_dir: str, names: list[str], cpus: int,
                chunk: int = 5, runs: int = 2) -> dict[str, float]:
    times: dict[str, float] = {}
    for lo in range(0, len(names), chunk):
        part = names[lo:lo + chunk]
        env = dict(
            os.environ,
            GRAFT_SF_DIR=sf_dir,
            GRAFT_SWEEP_NAMES=",".join(part),
            GRAFT_QUERY_RUNS=str(runs),
            RAY_GRAFT_CPUS=str(cpus),
        )
        r = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py"), "--sweep-chunk"],
            env=env, capture_output=True, text=True, timeout=3600, cwd=REPO,
        )
        if r.returncode != 0:
            print(f"chunk {part[0]}.. FAILED: {r.stderr[-500:]}", file=sys.stderr)
            continue
        got = json.loads(r.stdout.strip().splitlines()[-1])
        times.update(got)
        for k in part:
            print(f"  {k}: {got.get(k)}", file=sys.stderr)
    return times


def _headline(replicate: int, cpus: int) -> dict:
    env = dict(
        os.environ,
        GRAFT_HEADLINE_ONLY="1",
        RAY_GRAFT_REPLICATE=str(replicate),
        RAY_GRAFT_CPUS=str(cpus),
        GRAFT_SF_DIR=SRC_SF,
    )
    r = subprocess.run(
        [sys.executable, os.path.join(REPO, "bench.py")],
        env=env, capture_output=True, text=True, timeout=7200, cwd=REPO,
    )
    if r.returncode != 0:
        raise RuntimeError(f"headline replicate={replicate}: {r.stderr[-800:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=int, default=10)
    ap.add_argument("--queries", default=",".join(DEFAULT_QUERIES))
    ap.add_argument("--out", default=os.path.join(REPO, "SCALE_SWEEP.json"))
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--skip-headline", action="store_true")
    args = ap.parse_args()
    names = [q for q in args.queries.split(",") if q]
    s = args.scale

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    scaled = _scaled_dir(s)

    print(f"== queries at 1x ({SRC_SF}) ==", file=sys.stderr)
    t1 = _run_chunks(SRC_SF, names, args.cpus)
    print(f"== queries at {s}x ({scaled}) ==", file=sys.stderr)
    ts = _run_chunks(scaled, names, args.cpus)

    report: dict = {"scale": s, "src": SRC_SF, "scaled": scaled,
                    "num_cpus": args.cpus, "queries": {}}
    for q in names:
        a, b = t1.get(q), ts.get(q)
        if a and b:
            report["queries"][q] = {
                "t_1x": a, "t_sx": b, "ratio": round(b / a, 2),
                "exponent": round(math.log(b / a) / math.log(s), 3),
            }
    if not args.skip_headline:
        print("== flagship 1x (1M docs) ==", file=sys.stderr)
        h1 = _headline(200, args.cpus)
        print("== flagship 10x (10M docs) ==", file=sys.stderr)
        h10 = _headline(200 * s, args.cpus)
        report["flagship"] = {
            "docs_1x": h1["docs"], "sec_1x": h1["value"],
            "docs_per_sec_1x": h1["docs_per_sec"],
            "docs_sx": h10["docs"], "sec_sx": h10["value"],
            "docs_per_sec_sx": h10["docs_per_sec"],
            "exponent": round(
                math.log(h10["value"] / h1["value"]) / math.log(s), 3),
        }

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps(report))

    print("\n| query | t(1x) s | t(10x) s | ratio | exponent |")
    print("|---|---|---|---|---|")
    for q, v in sorted(report["queries"].items(),
                       key=lambda kv: -kv[1]["exponent"]):
        print(f"| {q} | {v['t_1x']} | {v['t_sx']} | {v['ratio']} "
              f"| {v['exponent']} |")
    if "flagship" in report:
        fl = report["flagship"]
        print(f"| flagship extract | {fl['sec_1x']} | {fl['sec_sx']} "
              f"| {round(fl['sec_sx']/fl['sec_1x'],2)} | {fl['exponent']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
