"""Per-document reassembly: the flagship sort-aggregate (SURVEY.md A3).

The analogue of the reference's summary phase -- collect all results of one
request and emit one artifact (Manager.createSendSummaryFile,
Manager.java:250-293 + the render join, LocalApplication.java:174-207) --
expressed as the north rule demands: ``groupby(doc_id) + offset-ordered
sort-aggregate``.

Physical plan: no shuffle. A document is one input row, so every block
(or fragment) already holds all of a document's spans, and the rebuild runs
inside the block that exploded them (``pipelines.extract.BlockExtractor``):
``sort_by(doc_id, offset)`` -> run-length doc boundaries ->
``ListArray.from_arrays``. The per-doc "group" work is numpy, not per-group
UDF calls.

Skew: a hot document stays in its block, so one worker rebuilds it
serially. Its memory is bounded by the block (fragments are row-capped) and
extraction ahead of it runs in size-capped slices.
Output ordering within a doc is the offset sort -- deterministic, stronger
than the reference's HashMap-iteration order (LocalApplication.java:182).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def reassemble_partition(tbl: pa.Table) -> pa.Table:
    """(doc_id, kind, media_ref, offset, out_text, ...) -> (doc_id, spans).

    Vectorized: one sort + run-length encoding; no per-doc Python loop.
    """
    if tbl.num_rows == 0:
        from ..corpus import OUT_SCHEMA

        return OUT_SCHEMA.empty_table()
    tbl = tbl.sort_by([("doc_id", "ascending"), ("offset", "ascending")]).combine_chunks()
    d = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))
    bounds = np.concatenate((starts, [len(d)]))
    lengths = np.diff(bounds)
    order = (np.arange(len(d), dtype=np.int64) - np.repeat(starts, lengths)).astype(np.int32)
    struct = pa.StructArray.from_arrays(
        [
            tbl.column("kind").combine_chunks(),
            tbl.column("out_text").combine_chunks(),
            tbl.column("media_ref").combine_chunks(),
            pa.array(order, pa.int32()),
        ],
        names=["kind", "text", "media_ref", "order"],
    )
    spans = pa.ListArray.from_arrays(pa.array(bounds, pa.int32()), struct)
    doc_ids = tbl.column("doc_id").take(pa.array(starts, pa.int64()))
    return pa.table({"doc_id": doc_ids, "spans": spans})
