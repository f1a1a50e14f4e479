"""Long-lived ingest daemon: a drop-directory tail over ``ingest_increment``.

The reference manager is a continuously-running multi-client service
(Manager.java:111-167: poll, dispatch, record, repeat); this is its
corpus-growth analogue: a daemon that watches a DROP DIRECTORY for parquet
increments (flat docs: ``doc_id, text, ...``), pushes each new file through
the ``ingest_increment`` composition (hygiene -> within-batch dedup ->
novelty vs the committed corpus -> append -> compact), and keeps going
across process restarts (VERDICT r3 "next round" #6).

Crash safety -- at-least-once file processing, exactly-once corpus effects:

- The per-file LEDGER (``state.json``, atomic tmp+rename write) records a
  file only AFTER its increment's manifest version committed. A SIGKILL
  anywhere leaves the file unlisted, so the restarted daemon reprocesses
  it (at-least-once).
- Reprocessing cannot duplicate: ``ingest_increment``'s novelty stage is
  content-addressed against the committed corpus, so docs appended by the
  killed run are filtered out of the rerun (``after_novelty`` drops to 0)
  -- idempotence comes from the dedup semantics, not from ledger luck. A
  kill between fragment writes and the manifest commit leaves only
  unreferenced orphan fragments (``lance_like.gc`` reclaims them).

Per-file metrics append to ``metrics.jsonl`` (one JSON line per processed
file: the ingest stats plus the event-time watermark fields below) -- the
lineage/summary record of the reference's per-app ledger.

Watermark wiring: when increments carry a ``ts`` column, the daemon
maintains the GLOBAL high watermark (max event time seen across files,
persisted in the ledger) and counts per file how many rows arrive with
``ts < watermark - allowed_lateness_us`` -- event-time lateness
applied at the ingest boundary, telling you what lateness budget
a streaming deployment of this feed needs.

Retry wiring: a file whose increment RAISES is retried on subsequent
passes up to ``max_retries`` times (attempt counts persist in the ledger),
then quarantined -- recorded, skipped, surfaced in stats; the errors-as-
data discipline of ``retry_plan`` applied to whole increments.
"""

from __future__ import annotations

import json
import os
import time


def _load_state(path: str) -> dict:
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {"format": 1, "done": {}, "attempts": {}, "quarantined": {},
            "watermark_us": None}


def _save_state(path: str, state: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    # fsync the directory so the rename survives power loss, same
    # discipline as state/checkpoint.durable_replace
    dfd = os.open(os.path.dirname(os.path.abspath(path)) or ".", os.O_RDONLY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)


def pending_files(drop_dir: str, state: dict) -> list[str]:
    """Unprocessed, unquarantined ``*.parquet`` drops in name order.

    The ledger is keyed by FILE NAME: drop files are immutable by contract
    (writers produce fresh names, e.g. date-stamped) -- replacing a
    processed file's bytes under the same name will NOT re-ingest it."""
    names = sorted(
        n for n in os.listdir(drop_dir)
        if n.endswith(".parquet")
        and n not in state["done"] and n not in state["quarantined"]
    )
    return names


def _late_counts(tbl, watermark_us, allowed_lateness_us: int):
    """(file max ts us, n_late vs the incoming watermark) or (None, 0)."""
    if "ts" not in tbl.column_names:
        return None, 0
    import pyarrow.compute as pc

    import pyarrow as pa

    ts = tbl.column("ts")
    # normalize units BEFORE the int64 cast: a timestamp[ns] drop (common
    # pandas/parquet writer default) would otherwise yield nanoseconds and
    # put allowed_lateness_us and the persisted watermark off by 1000x.
    if pa.types.is_timestamp(ts.type):
        ts = pc.cast(ts, pa.timestamp("us"))
    us = pc.cast(ts, "int64")  # microseconds
    file_max = pc.max(us).as_py()
    if file_max is None:
        return None, 0
    n_late = 0
    if watermark_us is not None:
        n_late = pc.sum(
            pc.less(us, watermark_us - allowed_lateness_us)
        ).as_py() or 0
    return int(file_max), int(n_late)


def run_once(
    drop_dir: str,
    corpus_dir: str,
    state_path: str,
    *,
    metrics_path: str | None = None,
    max_retries: int = 2,
    allowed_lateness_us: int = 300_000_000,
    **increment_kwargs,
) -> list[dict]:
    """Process every pending drop file once; returns per-file stats rows.

    Ledger commit order is increment-commit THEN ledger THEN metrics: a
    crash between any two steps is safe (see module docstring)."""
    import ray.data as rd

    from . import compose

    state = _load_state(state_path)
    out: list[dict] = []
    for name in pending_files(drop_dir, state):
        full = os.path.join(drop_dir, name)
        attempts = state["attempts"].get(name, 0)
        try:
            import pyarrow.parquet as pq

            # bounded driver: only the ts column lands on the driver (for
            # watermark/late counts); the increment itself streams through
            # rd.read_parquet, never materializing the drop file here.
            if "ts" in pq.read_schema(full).names:
                file_max_us, n_late = _late_counts(
                    pq.read_table(full, columns=["ts"]),
                    state.get("watermark_us"), allowed_lateness_us)
            else:
                file_max_us, n_late = None, 0
            stats = compose.ingest_increment(
                rd.read_parquet(full), corpus_dir, **increment_kwargs)
        except Exception as exc:  # noqa: BLE001 -- whole-increment retry
            state["attempts"][name] = attempts + 1
            if attempts + 1 > max_retries:
                state["quarantined"][name] = repr(exc)[:500]
            _save_state(state_path, state)
            out.append({"file": name, "error": repr(exc)[:500],
                        "attempt": attempts + 1,
                        "quarantined": name in state["quarantined"]})
            continue
        row = dict(stats, file=name, n_late=n_late,
                   watermark_us=state.get("watermark_us"))
        # rows actually written: the near-dup gate (when enabled) filters
        # AFTER exact novelty, so after_near_novelty is authoritative.
        appended = stats.get("after_near_novelty")
        if appended is None:
            appended = stats["after_novelty"]
        state["done"][name] = {
            "corpus_version": stats["corpus_version"],
            "rows_in": stats["rows_in"],
            "appended": appended,
            "ts": time.time(),
        }
        state["attempts"].pop(name, None)
        if file_max_us is not None:
            wm = state.get("watermark_us")
            state["watermark_us"] = (
                file_max_us if wm is None else max(wm, file_max_us))
        _save_state(state_path, state)
        if metrics_path:
            with open(metrics_path, "a") as f:
                f.write(json.dumps(row, sort_keys=True) + "\n")
        out.append(row)
    return out


def run_forever(
    drop_dir: str,
    corpus_dir: str,
    state_path: str,
    *,
    poll_sec: float = 5.0,
    idle_exit: int | None = None,
    max_files: int | None = None,
    **kwargs,
) -> dict:
    """Tail the drop directory until stopped.

    ``idle_exit``: exit after this many consecutive empty polls (tests /
    drain mode); ``max_files``: exit after processing this many files.
    Returns summary counts."""
    processed = errors = idle = 0
    while True:
        rows = run_once(drop_dir, corpus_dir, state_path, **kwargs)
        ok = [r for r in rows if "error" not in r]
        processed += len(ok)
        errors += len(rows) - len(ok)
        if rows:
            idle = 0
        else:
            idle += 1
            if idle_exit is not None and idle >= idle_exit:
                break
            time.sleep(poll_sec)
        if max_files is not None and processed >= max_files:
            break
    return {"processed": processed, "errors": errors}
