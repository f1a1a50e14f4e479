"""Per-layer tracing of the engine from outside it.

``install`` is a Ray ``worker_process_setup_hook``: in every worker process
of a traced session it wraps the public functions of each layer module (the
engine's own files are untouched). Every wrapped call is a span; a span's
self time is its duration minus the wrapped calls nested inside it, so the
self times of one top-level call add up to that call's duration. Spans are
summed in memory and flushed, one JSON line per top-level worker call, to
``$PERFBENCH_TRACE_DIR/<pid>.jsonl``. ``summarize`` turns one job's lines
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
import types
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
PKG = "distributed_system___ocr_ray"

# span name -> the layer it is charged to; pipelines.* self time is the
# orchestration glue around the layers (the "scheduling gap" inside calls)
LAYER_TIMES = {
    "sources.read": "sources.read_s",
    "explode": "explode.s",
    "extractors.dispatch": "extractors.dispatch_s",
    "extractors.text": "extractors.text_s",
    "extractors.image": "extractors.image_s",
    "extractors.pdf": "extractors.pdf_s",
    "extractors.media_lookup": "extractors.media_lookup_s",
    "reassemble": "reassemble.s",
    "checkpoint.write": "checkpoint.write_s",
    "checkpoint.commit": "checkpoint.commit_s",
}
COUNTS = (
    "sources.read_bytes", "explode.spans_out", "explode.empty_dropped",
    "extractors.text_spans", "extractors.image_spans", "extractors.pdf_spans",
    "extractors.media_lookups", "extractors.media_bucket_loads",
    "reassemble.docs_out", "checkpoint.commits", "checkpoint.bytes_out",
)
STATUSES = ("ok", "download_error", "ocr_error", "parse_error")
PIPELINE_S = ("pipelines.worker_busy_s", "pipelines.worker_self_s",
              "pipelines.layer_share", "pipelines.pool_idle_ratio",
              "pipelines.startup_s", "pipelines.tail_s")
UNITS = {
    **{m: "s" for m in LAYER_TIMES.values()},
    **{m: "count" for m in COUNTS},
    **{f"extractors.status.{s}": "count" for s in STATUSES},
    "sources.read_bytes": "bytes",
    "checkpoint.bytes_out": "bytes",
    "extractors.memo_hit_ratio": "ratio",
    **{m: "s" for m in PIPELINE_S},
    "pipelines.layer_share": "ratio",
    "pipelines.pool_idle_ratio": "ratio",
    "tracing.overhead_ratio": "ratio",
}


class Tracer:
    """Span stack and per-call accumulators of one worker process."""

    def __init__(self, trace_dir: str) -> None:
        self.path = os.path.join(trace_dir, f"{os.getpid()}.jsonl")
        self.stack: list[list[float]] = []  # [child seconds] per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(result, args)`` bumps counters."""
        stack, self_s = self.stack, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            wall0 = time.monotonic()
            stack.append([0.0])
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()[0]
                self_s[name] += dt - child
                if stack:
                    stack[-1][0] += dt
            if count is not None:
                count(self.counts, out, args)
            if not stack:
                self.flush(name, wall0, time.monotonic(), dt)
            return out

        return traced

    def flush(self, root: str, t0: float, t1: float, busy: float) -> None:
        line = {"root": root, "t0": t0, "t1": t1, "busy": busy,
                "self": dict(self.self_s), "counts": dict(self.counts)}
        self.self_s.clear()
        self.counts.clear()
        with open(self.path, "a") as f:
            f.write(json.dumps(line) + "\n")


def _replace(orig, new) -> None:
    """Rebind every module-level name in the engine that refers to ``orig``
    (``from x import f`` copies the binding into the importing module)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith(PKG):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _traced_parquet(tr: Tracer):
    """A stand-in for ``pyarrow.parquet`` whose fragment reads and partition
    writes are spans (bound as ``pq`` in the modules that read and write)."""
    import pyarrow.parquet as pq

    proxy = types.ModuleType("pyarrow.parquet")
    proxy.__dict__.update(vars(pq))

    def read_bytes(c, out, args):
        c["sources.read_bytes"] += os.path.getsize(args[0])

    def write_bytes(c, out, args):
        c["checkpoint.bytes_out"] += os.path.getsize(args[1])

    proxy.read_table = tr.wrap("sources.read", pq.read_table, read_bytes)
    proxy.write_table = tr.wrap("checkpoint.write", pq.write_table, write_bytes)
    return proxy


def install() -> None:
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    from distributed_system___ocr_ray import corpus
    from distributed_system___ocr_ray.pipelines import sharded
    from distributed_system___ocr_ray.stages import explode, extractors, reassemble
    from distributed_system___ocr_ray.state import checkpoint

    tr = Tracer(trace_dir)

    def exploded(c, out, args):
        import pyarrow.compute as pc

        spans_in = pc.sum(pc.list_value_length(args[0].column("spans"))).as_py() or 0
        c["explode.spans_out"] += out.num_rows
        c["explode.empty_dropped"] += spans_in - out.num_rows

    def extracted(kind):
        def count(c, out, args):
            c[f"extractors.{kind}_spans"] += 1
            c[f"extractors.status.{out[1]}"] += 1
        return count

    def looked_up(c, out, args):
        c["extractors.media_lookups"] += 1

    def bucket_loaded(c, out, args):
        c["extractors.media_bucket_loads"] += 1

    def reassembled(c, out, args):
        c["reassemble.docs_out"] += out.num_rows

    def committed(c, out, args):
        c["checkpoint.commits"] += 1

    _replace(explode.explode_spans, tr.wrap("explode", explode.explode_spans, exploded))
    _replace(reassemble.reassemble_partition,
             tr.wrap("reassemble", reassemble.reassemble_partition, reassembled))
    _replace(checkpoint.durable_replace,
             tr.wrap("checkpoint.commit", checkpoint.durable_replace))
    # ShardedMediaStore builds each bucket's dict with corpus.media_dict,
    # looked up at call time; the broadcast path calls it on the driver only
    corpus.media_dict = tr.wrap("extractors.media_lookup", corpus.media_dict, bucket_loaded)
    ex = extractors._Extractors
    ex.text = tr.wrap("extractors.text", ex.text, extracted("text"))
    ex.image = tr.wrap("extractors.image", ex.image, extracted("image"))
    ex.pdf = tr.wrap("extractors.pdf", ex.pdf, extracted("pdf"))
    ex._payload = tr.wrap("extractors.media_lookup", ex._payload, looked_up)
    ed = extractors.ExtractDispatch
    ed.__call__ = tr.wrap("extractors.dispatch", ed.__call__)
    cm = checkpoint.CheckpointManifest
    cm.commit = tr.wrap("checkpoint.commit", cm.commit, committed)
    sw = sharded.ShardWorker
    sw.__call__ = tr.wrap("pipelines.shard_worker", sw.__call__)
    pq_proxy = _traced_parquet(tr)
    sharded.pq = pq_proxy
    checkpoint.pq = pq_proxy


def read_lines(trace_dir: str) -> list[dict]:
    lines = []
    for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
        with open(path) as f:
            lines.extend(json.loads(line) for line in f if line.strip())
    return lines


def clear(trace_dir: str) -> None:
    for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
        os.remove(path)


def summarize(lines: list[dict], job_t0: float, job_t1: float, num_cpus: int) -> dict:
    """One traced job's lines -> per-layer metrics (seconds summed over workers)."""
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for line in lines:
        for k, v in line["self"].items():
            self_s[k] += v
        for k, v in line["counts"].items():
            counts[k] += v
    busy = sum(line["busy"] for line in lines)
    out = {metric: self_s.get(span, 0.0) for span, metric in LAYER_TIMES.items()}
    out.update({c: counts.get(c, 0) for c in COUNTS})
    out.update({f"extractors.status.{s}": counts.get(f"extractors.status.{s}", 0) for s in STATUSES})
    media_spans = counts.get("extractors.image_spans", 0) + counts.get("extractors.pdf_spans", 0)
    out["extractors.memo_hit_ratio"] = (
        1.0 - counts.get("extractors.media_lookups", 0) / media_spans if media_spans else 0.0)
    layers = sum(out[m] for m in LAYER_TIMES.values())
    worker_self = sum(v for k, v in self_s.items() if k.startswith("pipelines."))
    wall = job_t1 - job_t0
    out["pipelines.worker_busy_s"] = busy
    out["pipelines.worker_self_s"] = worker_self
    out["pipelines.layer_share"] = layers / busy if busy else 0.0
    out["pipelines.pool_idle_ratio"] = 1.0 - busy / (num_cpus * wall) if wall > 0 else 0.0
    t0s = [line["t0"] for line in lines]
    t1s = [line["t1"] for line in lines]
    out["pipelines.startup_s"] = min(t0s) - job_t0 if t0s else wall
    out["pipelines.tail_s"] = job_t1 - max(t1s) if t1s else 0.0
    # the accounting invariant: layer self times + glue self time == busy
    out["_unaccounted_s"] = busy - layers - worker_self
    return out
