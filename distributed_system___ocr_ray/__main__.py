"""CLI driver -- the engine analogue of the reference client
(LocalApplication.main, LocalApplication.java:44-136): submit an extraction
job over a documents table, wait for completion, optionally render HTML.

Usage::

    python -m distributed_system___ocr_ray gen-corpus --out DIR --docs 1000
    python -m distributed_system___ocr_ray extract --input DIR/documents \\
        --media DIR/media_store --output OUT
    python -m distributed_system___ocr_ray render --input OUT --html out.html

The CLI owns its Ray session (guarded init + shutdown); library code never
calls ray.init (driver contract).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False, ignore_reinit_error=True,
                      logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_gen_corpus(args) -> int:
    from . import corpus

    docs_dir, media_dir = corpus.write_corpus(
        args.out, n_docs=args.docs, seed=args.seed, rows_per_fragment=args.fragment_rows
    )
    print(json.dumps({"documents": docs_dir, "media_store": media_dir, "docs": args.docs}))
    return 0


def _run(args, **kw) -> dict:
    """The checkpointed extraction over the CLI's args (the reference's
    parsed client args, LocalApplication.java:44-62)."""
    from .pipelines.sharded import run_extraction_sharded

    return run_extraction_sharded(
        args.input, args.media, args.output,
        resume=not args.no_resume, batch_size=args.batch_size, **kw,
    )


def cmd_extract(args) -> int:
    if args.dry_run:
        # plan-only validation (ray job submit packaging): no Ray session,
        # no output-directory mutation -- reads manifests, prunes committed
        # partitions, refuses a job mismatch, prints the plan it WOULD execute
        print(json.dumps(_run(args, dry_run=True)))
        return 0
    _ray_session(args.num_cpus)
    import ray

    try:
        print(json.dumps(_run(args)))
        return 0
    finally:
        ray.shutdown()


def cmd_status(args) -> int:
    """Summarize a checkpointed output: the reference's summary-file analogue
    (Manager.createSendSummaryFile, Manager.java:250-293) read from the
    durable manifest instead of manager RAM."""
    from .state.checkpoint import CheckpointManifest

    summary = CheckpointManifest(args.output).summary()
    print(json.dumps({"partitions_committed": summary.pop("partitions_total"), **summary}))
    return 0


def cmd_publish(args) -> int:
    """Publish a checkpointed output's committed partitions as a versioned
    Lance-style table (manifest only; fragments referenced in place)."""
    from .sources import lance_like
    from .state.checkpoint import CheckpointManifest

    man = CheckpointManifest(args.output)
    manifest = lance_like.manifest_over_files(man.data_paths(), args.output)
    if args.compact:
        manifest = lance_like.compact(args.output, target_rows_per_fragment=args.target_rows)
    gc_stats = None
    if args.gc_keep:
        gc_stats = lance_like.gc(args.output, keep_versions=args.gc_keep)
    out = {"table": args.output, "version": manifest["version"],
           "fragments": len(manifest["fragments"])}
    if gc_stats:
        out["gc"] = gc_stats
    print(json.dumps(out))
    return 0


def cmd_invalidate(args) -> int:
    """Selectively invalidate committed partitions so the NEXT (resumed)
    run reprocesses only them -- the operational tool for 'an extractor
    bug affected fragments 17 and 23; re-extract those, keep the other
    199,998 committed partitions'. Prints what was retired; pair with
    ``extract --dry-run`` to see the resulting pending set before paying
    for cluster time."""
    from .state.checkpoint import CheckpointManifest

    man = CheckpointManifest(args.output)
    committed = man.committed()
    parts = sorted({int(p) for p in args.parts.split(",") if p.strip() != ""})
    missing = [p for p in parts if p not in committed]
    if missing and not args.force:
        print(f"partitions not committed: {missing} (use --force to ignore)",
              file=sys.stderr)
        return 2
    retired = [p for p in parts if p in committed]
    for p in retired:
        man.retire(p)
    print(json.dumps({"retired": retired, "still_committed":
                      len(committed) - len(retired)}))
    return 0


def cmd_render(args) -> int:
    _ray_session(args.num_cpus)
    import ray

    try:
        from .pipelines.extract import load_output
        from .stages.render_html import write_html_file

        n = write_html_file(load_output(args.input), args.html)
        print(json.dumps({"html": args.html, "blocks": n}))
        return 0
    finally:
        ray.shutdown()


def cmd_query(args) -> int:
    """Run any registry query by name and write its result as parquet --
    the ad-hoc analysis surface over the same registry the driver
    contract exposes (``__ray_entry__.queries()``); ``--list`` enumerates
    names. The registry module lives at the repo root, so it is imported
    from this file's grandparent when not already on the path (running
    ``python -m`` from anywhere)."""
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    if args.list:
        for name in sorted(qs):
            print(name)
        return 0
    if not args.name or args.name not in qs:
        print(f"unknown query {args.name!r}; use --list", file=sys.stderr)
        return 2
    import ray

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    owns_session = not ray.is_initialized()  # don't kill a host session
    _ray_session(args.num_cpus)
    try:
        res = qs[args.name](args.sf_dir)
        if hasattr(res, "to_pandas"):
            res = res.to_pandas()
        tbl = (pa.Table.from_pandas(res, preserve_index=False)
               if isinstance(res, pd.DataFrame) else res)
        pq.write_table(tbl, args.out)
        print(f"{args.name}: {tbl.num_rows} rows -> {args.out}")
        return 0
    finally:
        if owns_session:
            ray.shutdown()


def cmd_ingest_daemon(args) -> int:
    """Long-lived corpus-growth service: tail a drop directory of parquet
    increments through ``ingest_increment`` with a durable per-file ledger
    -- the reference manager's continuously-running poll/dispatch/record
    loop (Manager.java:111-167) as a Ray Data daemon. SIGKILL-safe: see
    ``pipelines/daemon.py``."""
    _ray_session(args.num_cpus)
    import ray

    from .pipelines import daemon

    kw = {}
    if args.no_hygiene:
        kw.update(min_quality_ppm=0, max_top_token_ppm=1_000_000)
    if args.near_dup_threshold is not None:
        kw.update(near_dup_threshold=args.near_dup_threshold)
    if args.gopher:
        kw.update(gopher=True)
    summary = daemon.run_forever(
        args.drop_dir,
        args.corpus,
        args.state or os.path.join(args.drop_dir, "state.json"),
        metrics_path=args.metrics,
        poll_sec=args.poll_sec,
        idle_exit=args.idle_exit,
        max_files=args.max_files,
        **kw,
    )
    print(json.dumps(summary))
    ray.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="distributed_system___ocr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-corpus", help="generate a deterministic interleaved corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--docs", type=int, default=1000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--fragment-rows", type=int, default=1000)
    g.set_defaults(fn=cmd_gen_corpus)

    e = sub.add_parser("extract", help="run the extraction pipeline (checkpointed, resumable)")
    e.add_argument("--input", required=True, help="Lance-style documents table dir")
    e.add_argument("--media", required=True, help="Lance-style media_store table dir")
    e.add_argument("--output", required=True)
    e.add_argument("--batch-size", type=int, default=1024)
    e.add_argument("--no-resume", action="store_true")
    e.add_argument("--num-cpus", type=int, default=None)
    e.add_argument("--dry-run", action="store_true",
                   help="validate inputs and print the execution plan "
                        "(pending/skipped partitions, media fingerprint, "
                        "hooks) without starting Ray or writing anything")
    e.set_defaults(fn=cmd_extract)

    s = sub.add_parser("status", help="summarize a checkpointed output's manifest")
    s.add_argument("--output", required=True)
    s.set_defaults(fn=cmd_status)

    pub = sub.add_parser("publish", help="publish committed output as a Lance-style table")
    pub.add_argument("--output", required=True)
    pub.add_argument("--compact", action="store_true",
                     help="follow up with a compaction version (merge small fragments)")
    pub.add_argument("--target-rows", type=int, default=100_000,
                     help="compaction target rows per fragment")
    pub.add_argument("--gc-keep", type=int, default=0,
                     help="after publishing, keep only the newest N manifest "
                          "versions and reclaim fragments only they reference")
    pub.set_defaults(fn=cmd_publish)

    inv = sub.add_parser(
        "invalidate",
        help="retire selected committed partitions; the next resumed run "
             "reprocesses ONLY them")
    inv.add_argument("--output", required=True)
    inv.add_argument("--parts", required=True,
                     help="comma-separated partition ids, e.g. 17,23")
    inv.add_argument("--force", action="store_true",
                     help="ignore ids that are not committed")
    inv.set_defaults(fn=cmd_invalidate)

    r = sub.add_parser("render", help="render committed output to one HTML file")
    r.add_argument("--input", required=True, help="extraction output dir")
    r.add_argument("--html", required=True)
    r.add_argument("--num-cpus", type=int, default=None)
    r.set_defaults(fn=cmd_render)

    q = sub.add_parser("query", help="run a registry query by name -> parquet")
    q.add_argument("--name", default=None)
    q.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    q.add_argument("--out", default="/tmp/query_out.parquet")
    q.add_argument("--list", action="store_true", help="list query names")
    q.add_argument("--num-cpus", type=int, default=None)
    q.set_defaults(fn=cmd_query)

    d = sub.add_parser(
        "ingest-daemon",
        help="tail a drop directory of parquet increments into a corpus "
             "table (durable ledger, SIGKILL-safe, watermark + retry)")
    d.add_argument("--drop-dir", required=True)
    d.add_argument("--corpus", required=True, help="Lance-style corpus table dir")
    d.add_argument("--state", default=None,
                   help="ledger path (default: DROP_DIR/state.json)")
    d.add_argument("--metrics", default=None, help="metrics JSONL path")
    d.add_argument("--poll-sec", type=float, default=5.0)
    d.add_argument("--idle-exit", type=int, default=None,
                   help="exit after N consecutive empty polls (drain mode)")
    d.add_argument("--max-files", type=int, default=None)
    d.add_argument("--no-hygiene", action="store_true",
                   help="disable quality/repetition filters (pure dedup ingest)")
    d.add_argument("--gopher", action="store_true",
                   help="also apply the Gopher composite quality gate")
    d.add_argument("--near-dup-threshold", type=float, default=None,
                   help="also drop docs near-duplicating the committed "
                        "corpus at MinHash-estimated Jaccard >= T")
    d.add_argument("--num-cpus", type=int, default=None)
    d.set_defaults(fn=cmd_ingest_daemon)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
