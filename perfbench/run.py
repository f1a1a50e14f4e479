"""Extraction benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload web_pages --seed 1 --seconds 20 --trace 0

Workloads (corpora.py builds their inputs from the seed):

- ``web_pages``: interleaved HTML pages with ~750 distinct media refs,
  broadcast media, sharded plan. The HTML stripper does most of the work.
- ``ocr_distinct``: image and pdf spans only, nearly every ref distinct,
  media in a ``media_ref``-bucketed table (``ShardedMediaStore``), sharded
  plan. Glyph OCR, PDF parse and media lookup do the work.

With ``--trace 0`` the run sets up a Ray session several times (``setup_s``:
session start plus one warm-up job on a fixed slice of the corpus, median),
then repeats the extraction job until about ``--seconds`` of job time are
measured and reports medians over jobs. With ``--trace 1`` it measures untraced jobs
for half the time, then traced jobs (tracing.py) for the other half, and
reports the per-layer metrics. Every job's committed output is compared doc
by doc with the oracle outside the timed region; a job that raises or times
out counts all of its documents as failed, and the Ray session is restarted.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``,
with ``attempted``/``failed`` counted in documents.

Ray runs with a fixed CPU count and pool sizes (below), never read from the
environment. All files go under ``.bench_work/`` next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import ray  # noqa: E402  (also puts Ray's bundled psutil on sys.path)
import psutil  # noqa: E402

from distributed_system___ocr_ray.pipelines.sharded import run_extraction_sharded  # noqa: E402
from perfbench import check, corpora, tracing  # noqa: E402

NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024**2
POOL = 2  # ShardWorker actors per job
SETUPS = 2  # set-ups per untraced run; setup_s is their median
JOB_TIMEOUT_S = 45.0
RUN_BUDGET_S = 100.0  # no new job starts after this much of the run
HELD_OUT_SEED_OFFSET = 1_000_003  # --held-out seeds never used while tuning
END_TO_END = {"docs_per_s": "docs/s", "setup_s": "s", "peak_worker_rss_mb": "MB"}
T0 = time.monotonic()


def log(msg: str) -> None:
    print(f"[{time.monotonic() - T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


class Session:
    """One local Ray session at a time, with the benchmark's fixed sizing."""

    def __init__(self, work_dir: str) -> None:
        # Ray's socket paths (<temp>/session_<stamp>/sockets/plasma_store)
        # must fit AF_UNIX's 107 bytes; a deep checkout falls back to
        # Ray's default temp dir
        self.temp_dir = os.path.join(work_dir, "ray")
        if len(self.temp_dir) + 70 > 107:
            log(f"{self.temp_dir} is too long for Ray's sockets; using Ray's default")
            self.temp_dir = None
        self.trace_dir = os.path.join(work_dir, "trace")
        self.procs: list[psutil.Process] = []

    def start(self, trace: bool = False) -> None:
        from ray.data import DataContext

        env = os.environ
        if ROOT not in env.get("PYTHONPATH", "").split(os.pathsep):  # for the workers
            env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
        env.pop(tracing.TRACE_DIR_ENV, None)
        kwargs = {}
        if trace:
            os.makedirs(self.trace_dir, exist_ok=True)
            env[tracing.TRACE_DIR_ENV] = self.trace_dir
            kwargs["runtime_env"] = {"worker_process_setup_hook": "perfbench.tracing.install"}
        ray.init(
            num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False, log_to_driver=False, logging_level="ERROR",
            _temp_dir=self.temp_dir, **kwargs,
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.enable_auto_log_stats = False
        self.procs = psutil.Process().children(recursive=True)

    def stop(self) -> None:
        """Shut Ray down and wait until every process it started has ended."""
        procs = self.procs + psutil.Process().children(recursive=True)
        ray.shutdown()
        _, alive = psutil.wait_procs(procs, timeout=10)
        for p in alive:
            p.kill()
        psutil.wait_procs(alive, timeout=5)
        self.procs = []

    def wait_idle(self, timeout: float = 30.0) -> None:
        """Wait until the previous job's actors have released their CPUs.

        Ray Data tears an actor pool down only when its executor is
        collected; a pool started while the old one lingers gets fewer
        actors, and the job then runs up to twice as long."""
        deadline = time.monotonic() + timeout
        gc.collect()
        while (ray.available_resources().get("CPU", 0) < NUM_CPUS
               and time.monotonic() < deadline):
            time.sleep(0.05)

    def scoped(self, fn) -> None:
        self.start()
        try:
            fn()
        finally:
            self.stop()


class RssSampler:
    """Largest peak RSS (VmHWM) of any Ray worker process while running."""

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _poll(self) -> None:
        for p in psutil.Process().children(recursive=True):
            try:
                if not p.cmdline()[0].startswith("ray::"):
                    continue
                with open(f"/proc/{p.pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb, int(line.split()[1]))
                            break
            except (psutil.Error, OSError, IndexError):
                continue  # the process ended between listing and reading

    def _loop(self) -> None:
        while not self._stop.wait(0.25):
            self._poll()

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._poll()


def _call_with_timeout(fn, timeout: float) -> str | None:
    """Run ``fn`` in a thread; return None, or why it failed."""
    box: dict = {}

    def target():
        try:
            fn()
        except Exception as e:  # the job's failure is a measured outcome
            box["error"] = f"{type(e).__name__}: {e}"

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return f"timed out after {timeout:.0f} s"
    return box.get("error")


class Bench:
    def __init__(self, corpus: corpora.Corpus, session: Session, work_dir: str):
        self.corpus = corpus
        self.session = session
        self.out_dir = os.path.join(work_dir, "out")
        self.t_start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.trace = False

    def _job(self, docs_dir: str) -> None:
        run_extraction_sharded(docs_dir, self.corpus.media, self.out_dir, concurrency=POOL)

    def setup(self, trace: bool = False) -> float:
        """Session start plus one warm-up job on the fixed corpus slice."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.trace = trace
        t0 = time.perf_counter()
        self.session.start(trace)
        err = _call_with_timeout(lambda: self._job(self.corpus.warm_dir), JOB_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if err:
            raise RuntimeError(f"warm-up job failed: {err}")
        log(f"set-up: {dt:.2f} s")
        return dt

    def job(self) -> dict:
        """One timed job, then (untimed) its oracle check and trace summary."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.session.wait_idle()
        trace_dir = self.session.trace_dir
        if self.trace:
            tracing.clear(trace_dir)
        with RssSampler() as rss:
            t0 = time.monotonic()
            err = _call_with_timeout(lambda: self._job(self.corpus.docs_dir), JOB_TIMEOUT_S)
            t1 = time.monotonic()
        n = self.corpus.n_docs
        out = {"t0": t0, "t1": t1, "docs_per_s": n / (t1 - t0), "rss_mb": rss.peak_kb / 1024}
        if err:
            log(f"job failed: {err}")
            out["failed"] = n
            self.session.stop()
            self.session.start(self.trace)
        else:
            out["failed"] = check.failed_docs(
                self.corpus.expected, check.committed_output(self.out_dir))
            if self.trace:
                out["layers"] = tracing.summarize(
                    tracing.read_lines(trace_dir), t0, t1, NUM_CPUS)
        self.attempted += n
        self.failed += out["failed"]
        return out

    def jobs(self, seconds: float) -> list[dict]:
        """Repeat the job until about ``seconds`` of job time are measured:
        the next job starts only if at most half of it would run over."""
        done: list[dict] = []
        while not done or (
            sum(j["t1"] - j["t0"] for j in done) + (done[-1]["t1"] - done[-1]["t0"]) / 2 < seconds
            and time.monotonic() - self.t_start < RUN_BUDGET_S
        ):
            j = self.job()
            log(f"job {len(done) + 1}: {j['t1'] - j['t0']:.2f} s, {j['docs_per_s']:.1f} docs/s, "
                f"{j['rss_mb']:.1f} MB, {j['failed']} failed")
            done.append(j)
        return done

    def untraced(self, seconds: float) -> dict:
        setups = []
        for i in range(SETUPS):
            if i:
                self.session.stop()
            setups.append(self.setup())
        jobs = self.jobs(seconds)
        self.session.stop()
        return {
            "docs_per_s": statistics.median(j["docs_per_s"] for j in jobs),
            "setup_s": statistics.median(setups),
            "peak_worker_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
        }

    def traced(self, seconds: float) -> dict:
        """Untraced jobs for half the time, then traced jobs for the rest."""
        self.setup()
        plain = self.jobs(seconds / 2)
        self.session.stop()
        self.setup(trace=True)
        traced = self.jobs(seconds / 2)
        self.session.stop()
        layers = [j["layers"] for j in traced if "layers" in j]
        if not layers:
            raise RuntimeError("no traced job completed")
        out = {k: statistics.median(lay[k] for lay in layers) for k in layers[0]}
        unaccounted = out.pop("_unaccounted_s")
        if abs(unaccounted) > 0.01 * out["pipelines.worker_busy_s"]:
            print(f"trace accounting off by {unaccounted:.4f} s", file=sys.stderr)
        out["tracing.overhead_ratio"] = (
            statistics.median(j["docs_per_s"] for j in traced)
            / statistics.median(j["docs_per_s"] for j in plain))
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpora.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out seed paired with --seed")
    ap.add_argument("--size", choices=sorted(corpora.SIZES), default="full",
                    help="corpus size; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)
    seed = args.seed + HELD_OUT_SEED_OFFSET if args.held_out else args.seed

    work_dir = os.path.join(ROOT, ".bench_work")
    session = Session(work_dir)
    if session.temp_dir:
        shutil.rmtree(session.temp_dir, ignore_errors=True)  # earlier runs' Ray logs
    corpus = corpora.ensure(work_dir, args.workload, args.size, seed, session.scoped)
    log(f"corpus ready: {corpus.n_docs} docs")
    bench = Bench(corpus, session, work_dir)
    try:
        if args.trace:
            values, units = bench.traced(args.seconds), tracing.UNITS
        else:
            values, units = bench.untraced(args.seconds), END_TO_END
    finally:
        if session.procs:
            session.stop()
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    log("done")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
