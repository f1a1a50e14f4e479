"""Concurrent multi-job runner: the engine analogue of the reference
manager's multi-client service loop (Manager.java:111-167).

The reference manager serves N LocalApplication clients at once: a listener
pool drains per-app input queues and a shared worker fleet processes tasks
from all apps interleaved, with completion tracked per app. Here, N bounded
extraction jobs share ONE Ray session/cluster; each job keeps its own output
root, checkpoint manifest and resume state (per-app queue isolation becomes
per-job checkpoint isolation), while Ray's scheduler interleaves the jobs'
tasks on the shared CPU pool (the listener pool + fleet sharing collapse
into resource-based scheduling, as SQS collapsed into the object store).

Jobs run on driver threads -- each thread keeps its own window of
fragment tasks in flight (``sharded._dispatch``), so a job's slots refill
independently of its siblings' and a failed/killed job never touches a
sibling's manifest. A killed process resumes every job from its
own last committed fragment (see tests/test_crash_resume.py).

Concurrent jobs share Ray's warm worker processes (the reference's shared
worker fleet): a process serves tasks of every job and keeps each job's
extractor state under that job's own run token (``extract.run_state``), so
no job sees another's decode memo or media store. A finished job's state
is dropped before a process builds the next run's; of the unfinished ones a
process keeps the ``extract.RUNS_KEPT`` most recent, and past that many
interleaved jobs a job rebuilds its state when it comes back to a process.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def run_jobs(jobs: list[dict], max_parallel: int = 4) -> list[dict]:
    """Run extraction jobs concurrently on the current Ray session.

    Each job dict: ``{"docs_dir": str, "media": <store|path>, "out_dir": str,
    **kwargs}`` (kwargs forwarded to ``run_extraction_sharded``). Returns the
    per-job lineage summaries in input order. Raises the first job failure
    after all jobs finish (siblings are never cancelled mid-commit). The jobs
    share warm worker processes, with their stage state keyed per run."""
    from .sharded import run_extraction_sharded

    def one(job: dict) -> dict:
        job = dict(job)
        return run_extraction_sharded(
            job.pop("docs_dir"), job.pop("media"), job.pop("out_dir"), **job
        )

    with ThreadPoolExecutor(max_workers=max_parallel) as ex:
        futures = [ex.submit(one, j) for j in jobs]
        results, first_err = [], None
        for f in futures:
            try:
                results.append(f.result())
            except Exception as e:  # collect; surface after siblings drain
                results.append(None)
                first_err = first_err or e
        if first_err is not None:
            raise first_err
        return results
