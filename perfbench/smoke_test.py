"""Smoke test of the benchmark itself, at tiny corpus size (about two minutes).

    python3 perfbench/smoke_test.py

Checks that:
- an untraced and a traced run print exactly the metrics BENCHMARK.json
  names, each with its unit, and find no failed document;
- the traced run's ``extractors.status.*`` counts, and every count not kept
  per actor, repeat exactly across two runs of the same seed;
- the oracle check flags a deliberately corrupted committed partition and
  a deleted one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

SEED = 7


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result: dict, expected: list[dict]) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result


def check_layers_add_up(result: dict) -> None:
    """Layer self times plus the pipelines glue make up all worker busy time."""
    from perfbench import tracing

    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(m[name] for name in tracing.LAYER_TIMES.values())
    busy = m["pipelines.worker_busy_s"]
    assert busy > 0 and abs(layers + m["pipelines.worker_self_s"] - busy) <= 0.01 * busy, m
    assert abs(m["pipelines.layer_share"] - layers / busy) < 1e-9, m


def check_oracle_flags_corruption() -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_system___ocr_ray.state.checkpoint import CheckpointManifest
    from perfbench import check, corpora, run

    work = os.path.join(ROOT, ".bench_work")
    session = run.Session(work)
    corpus = corpora.ensure(work, "web_pages", "tiny", SEED, session.scoped)
    b = run.Bench(corpus, session, work)
    try:
        b.setup()
        assert b.job()["failed"] == 0
    finally:
        session.stop()
    paths = CheckpointManifest(b.out_dir).data_paths()
    part = pq.read_table(paths[0])
    spans = part.column("spans").to_pylist()
    spans[0][0]["text"] += " (corrupted)"
    pq.write_table(pa.table({"doc_id": part.column("doc_id"), "spans": spans},
                            schema=part.schema), paths[0])
    bad = check.failed_docs(corpus.expected, check.committed_output(b.out_dir))
    assert bad == 1, f"one corrupted doc, {bad} flagged"
    lost = pq.read_metadata(paths[1]).num_rows
    os.remove(paths[1])
    bad = check.failed_docs(corpus.expected, check.committed_output(b.out_dir))
    assert bad == 1 + lost, f"1 corrupted + {lost} missing docs, {bad} flagged"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_names(bench("web_pages", 0), spec["end_to_end"])
    first = bench("web_pages", 1)
    check_names(first, spec["per_layer"])
    check_layers_add_up(first)
    second = bench("web_pages", 1)
    # media lookups and bucket loads go through a per-actor memo, so they
    # depend on which actor gets which fragment; every other count is exact
    per_actor = ("extractors.media_lookups", "extractors.media_bucket_loads")
    counts = [k for k, v in first["metrics"].items()
              if v["unit"] in ("count", "bytes") and k not in per_actor]
    assert any(k.startswith("extractors.status.") for k in counts)
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k
    check_oracle_flags_corruption()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
