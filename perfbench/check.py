"""Doc-by-doc comparison of a job's committed output against the oracle."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from distributed_system___ocr_ray.state.checkpoint import CheckpointManifest

SPAN_FIELDS = ("kind", "text", "media_ref", "order")


def committed_output(out_dir: str) -> pa.Table:
    """Every partition that has a manifest entry, as one (doc_id, spans) table.
    A listed partition whose file is gone adds nothing: its docs are missing."""
    paths = [p for p in CheckpointManifest(out_dir).data_paths() if os.path.exists(p)]
    if not paths:
        return pa.table({"doc_id": pa.array([], pa.string()), "spans": pa.array([], pa.null())})
    return pa.concat_tables([pq.read_table(p) for p in paths]).combine_chunks()


def _count(mask: pa.Array) -> int:
    return pc.sum(mask).as_py() or 0


def _field_equal(a: pa.Array, b: pa.Array) -> pa.Array:
    eq = pc.fill_null(pc.equal(a, b), False)
    return pc.or_(eq, pc.and_(pc.is_null(a), pc.is_null(b)))


def failed_docs(expected: pa.Table, actual: pa.Table) -> int:
    """Documents of ``expected`` that are missing from ``actual`` or whose
    ``(kind, text, media_ref, order)`` span sequence differs, plus any extra
    or duplicated document in ``actual``; at most ``expected.num_rows``."""
    n = expected.num_rows
    exp_ids = expected.column("doc_id").combine_chunks()
    act_ids = actual.column("doc_id").combine_chunks()
    extra = actual.num_rows - _count(pc.is_in(act_ids, value_set=exp_ids))
    dups = actual.num_rows - len(pc.unique(act_ids))
    pos = pc.index_in(exp_ids, value_set=act_ids)
    present = pc.is_valid(pos)
    missing = n - _count(present)
    exp = expected.filter(present).column("spans").combine_chunks()
    act = actual.column("spans").combine_chunks().take(pos.filter(present))
    try:
        same_len = pc.equal(pc.list_value_length(exp), pc.list_value_length(act))
        exp_s, act_s = exp.filter(same_len), act.filter(same_len)
        flat_e, flat_a = exp_s.flatten(), act_s.flatten()
        span_ok = pa.nulls(len(flat_e), pa.bool_()).fill_null(True)
        for f in SPAN_FIELDS:
            span_ok = pc.and_(span_ok, _field_equal(flat_e.field(f), flat_a.field(f).cast(flat_e.field(f).type)))
        bad_parents = pc.filter(pc.list_parent_indices(exp_s), pc.invert(span_ok))
        mismatched = (len(exp) - _count(same_len)) + len(pc.unique(bad_parents))
    except (KeyError, pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
        mismatched = len(exp)  # wrong output schema: every present doc is wrong
    return min(n, missing + mismatched + extra + dups)
