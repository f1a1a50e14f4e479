"""Seeded benchmark corpora, cached on disk together with their expected output.

Every corpus is a pure function of ``(workload, size, seed)`` and of the
generator code. It is written as Lance-style tables (the only input the
engine sees) next to ``expected.parquet``, the single-process oracle's
output for the same documents. The cache key holds a digest of the generator
and oracle sources, so a change to either regenerates the corpus instead of
re-benchmarking a stale one. Generation is never timed.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from distributed_system___ocr_ray import corpus, oracle
from distributed_system___ocr_ray.functions import glyph, html_strip, minipdf
from distributed_system___ocr_ray.sources import lance_like, wrap

KEEP_CACHED = 40  # corpora kept on disk; older ones are evicted

# per workload and size: documents, fragments, warm-up slice (first docs of
# the corpus), and generator knobs. The sharded plan packs fragments into
# 8 blocks per actor, so a multiple of 16 fragments gives every block the
# same work at a pool of 2.
SIZES = {
    "full": {
        "web_pages": {"docs": 48_000, "fragments": 48, "warm_docs": 2_000, "replicate": 10},
        "ocr_distinct": {"docs": 4_800, "fragments": 32, "warm_docs": 500, "buckets": 8},
    },
    "tiny": {
        "web_pages": {"docs": 600, "fragments": 6, "warm_docs": 100, "replicate": 3},
        "ocr_distinct": {"docs": 120, "fragments": 4, "warm_docs": 30, "buckets": 4},
    },
}


@dataclass
class Corpus:
    docs_dir: str
    warm_dir: str
    media: object  # media store Table (broadcast) or bucketed table path
    expected: pa.Table
    n_docs: int
    n_warm: int


def _content_key() -> str:
    """Digest of everything the inputs and the expected output depend on."""
    h = hashlib.md5(corpus.generator_content_id().encode())
    for mod in (corpus, wrap, oracle, html_strip, glyph, minipdf):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    with open(__file__, "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:10]


def _flat_pages(seed: int, n: int) -> pa.Table:
    """Flat (doc_id, text) rows, the shape ``sources.wrap`` interleaves."""
    texts = [
        " ".join(corpus.det_sentence(f"{seed}:page:{i}:{j}") for j in range(3))
        for i in range(n)
    ]
    return pa.table({"doc_id": pa.array(range(n), pa.int64()), "text": texts})


def _web_pages(seed: int, cfg: dict) -> tuple[pa.Table, pa.Table, pa.Table]:
    """Interleaved HTML pages, each base page stamped ``replicate`` times;
    about 750 distinct media refs, so media decode is almost all memo hits."""
    rep = cfg["replicate"]
    flat = _flat_pages(seed, cfg["docs"] // rep)
    base = wrap.make_interleave_fn(seed=seed, replicate=1)(flat)
    docs = wrap.make_interleave_fn(seed=seed, replicate=rep)(flat)
    store = corpus.build_media_store(
        n_img=wrap.DEFAULT_N_IMG, n_pdf=wrap.DEFAULT_N_PDF, seed=seed)
    # replicas carry their base page's spans (wrap emits the copies of base
    # row i as rows i*rep .. i*rep+rep-1), so the oracle runs on the base
    # pages only and its rows are fanned out to the replicas
    exp_base = oracle.extract_table(base, corpus.media_dict(store))
    pos = pc.index_in(base.column("doc_id"), value_set=exp_base.column("doc_id"))
    rows = pc.take(pos, pa.array([j // rep for j in range(docs.num_rows)]))
    expected = pa.table(
        {"doc_id": docs.column("doc_id"), "spans": exp_base.column("spans").take(rows)},
        schema=corpus.OUT_SCHEMA,
    )
    return docs, store, expected


def _ocr_docs(seed: int, cfg: dict) -> tuple[pa.Table, pa.Table, pa.Table]:
    """Documents of 4 image + 2 pdf spans and no text. Nearly every ref is
    distinct; ~3% point at absent refs and ~2% of payloads are corrupt."""
    n = cfg["docs"]
    store = corpus.build_media_store(n_img=4 * n, n_pdf=2 * n, seed=seed)
    doc_ids, spans_col = [], []
    for i in range(n):
        rng = random.Random(f"{seed}:ocr:{i}")
        refs = [("image", corpus.media_ref_img(4 * i + k)) for k in range(4)]
        refs += [("pdf", corpus.media_ref_pdf(2 * i + k)) for k in range(2)]
        rng.shuffle(refs)
        spans, offset = [], 0
        for kind, ref in refs:
            offset += rng.randint(1, 40)
            roll = rng.random()
            if roll < 0.03:
                ref = f"mem://{'img' if kind == 'image' else 'pdf'}/missing-{i:06d}"
            elif roll < 0.05 and i:  # a few refs repeat an earlier document's
                j = rng.randrange(i)
                ref = corpus.media_ref_img(4 * j) if kind == "image" else corpus.media_ref_pdf(2 * j)
            spans.append({"kind": kind, "text": "", "media_ref": ref, "offset": offset})
        doc_ids.append(f"ocr-{i:08d}")
        spans_col.append(spans)
    docs = pa.table({"doc_id": doc_ids, "spans": spans_col}, schema=corpus.DOC_SCHEMA)
    expected = oracle.extract_table(docs, corpus.media_dict(store))
    return docs, store, expected


GENERATORS = {"web_pages": _web_pages, "ocr_distinct": _ocr_docs}


def _build(path: str, workload: str, cfg: dict, seed: int, with_ray) -> None:
    docs, store, expected = GENERATORS[workload](seed, cfg)
    per_frag = -(-docs.num_rows // cfg["fragments"])
    lance_like.write_table(docs, os.path.join(path, "documents"), rows_per_fragment=per_frag)
    lance_like.write_table(
        docs.slice(0, cfg["warm_docs"]), os.path.join(path, "warm"),
        rows_per_fragment=-(-cfg["warm_docs"] // 2),
    )
    media_dir = os.path.join(path, "media_store")
    if "buckets" in cfg:  # the ShardedMediaStore scale path needs a bucketed table
        def write_bucketed():
            import ray.data as rd

            lance_like.write_bucketed(rd.from_arrow(store), media_dir, "media_ref", cfg["buckets"])

        with_ray(write_bucketed)
    else:
        lance_like.write_table(store, media_dir, rows_per_fragment=10**6)
    pq.write_table(expected, os.path.join(path, "expected.parquet"))


def ensure(work_dir: str, workload: str, size: str, seed: int, with_ray) -> Corpus:
    """Return the cached corpus, generating it first on a miss.

    ``with_ray(fn)`` runs ``fn`` inside a Ray session; generation needs one
    only for the bucketed media table."""
    cfg = SIZES[size][workload]
    root = os.path.join(work_dir, "corpora")
    path = os.path.join(root, f"{workload}-{size}-s{seed}-{_content_key()}")
    if not os.path.exists(os.path.join(path, "DONE")):
        shutil.rmtree(path, ignore_errors=True)
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        _build(tmp, workload, cfg, seed, with_ray)
        open(os.path.join(tmp, "DONE"), "w").close()
        os.replace(tmp, path)
        _evict(root, keep=path)
    os.utime(path)
    media_dir = os.path.join(path, "media_store")
    media = media_dir if "buckets" in cfg else lance_like.read_arrow(media_dir)
    expected = pq.read_table(os.path.join(path, "expected.parquet"))
    return Corpus(
        docs_dir=os.path.join(path, "documents"),
        warm_dir=os.path.join(path, "warm"),
        media=media,
        expected=expected,
        n_docs=expected.num_rows,
        n_warm=cfg["warm_docs"],
    )


def _evict(root: str, keep: str) -> None:
    entries = sorted(
        (os.path.join(root, e) for e in os.listdir(root)),
        key=os.path.getmtime, reverse=True,
    )
    for old in entries[KEEP_CACHED:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)
