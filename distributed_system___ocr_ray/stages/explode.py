"""Span explode: one document row -> one row per span (vectorized, zero-copy).

The analogue of the reference's record fan-out -- one SQS message per URL line
(Manager.sendTasks, Manager.java:351-369) -- done as an Arrow list-flatten
inside ``map_batches`` instead of per-record queue sends. The empty-record
filter (Manager.java:332-334) is applied here, before any extraction work is
scheduled, so empty text spans never reach the extractors (exactly as the
reference filters empty lines before tasking).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def explode_spans(batch: pa.Table) -> pa.Table:
    """(doc_id, spans) -> exploded (doc_id, kind, text, media_ref, offset)."""
    spans = batch.column("spans").combine_chunks()
    doc_ids = batch.column("doc_id").combine_chunks()
    flat = spans.flatten()
    parent = pc.list_parent_indices(spans)
    out = pa.table(
        {
            "doc_id": doc_ids.take(parent),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        }
    )
    empty = pc.and_(
        pc.equal(out.column("kind"), "text"),
        pc.equal(pc.utf8_trim_whitespace(out.column("text")), ""),
    )
    return out.filter(pc.invert(empty))
