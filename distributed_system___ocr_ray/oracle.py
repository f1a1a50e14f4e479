"""Single-process executable spec for the extraction pipeline (SURVEY.md #5.2).

``extract_document`` defines, in ~40 lines of obvious Python, exactly what the
distributed pipeline must compute per document. Pytest compares the Ray
pipeline's output against this per-row (span-sequence equality on
``(kind, text, media_ref, order)`` -- the north-rule invariant).

Semantics transliterated from the reference:
- empty/whitespace text records are filtered before tasking
  (Manager.java:332-334);
- every remaining span yields exactly one output span, success or not
  (completion invariant, Manager.java:223-226);
- missing media -> "Image download error" / decode failure ->
  "OCR operation error" as *data* (Worker.java:87,95), pdf analogues for the
  axis-B generalization;
- output order is the rank of the span by ``offset`` within its doc (0-based)
  -- deliberately *stronger* than the reference's nondeterministic
  HashMap-iteration output order (LocalApplication.java:182).
"""

from __future__ import annotations

import pyarrow as pa

from . import (
    SENTINEL_IMAGE_DOWNLOAD,
    SENTINEL_OCR,
    SENTINEL_PDF_DOWNLOAD,
    SENTINEL_PDF_PARSE,
)
from .corpus import OUT_SCHEMA
from .functions import glyph, minipdf
from .functions.html_strip import strip_boilerplate

_FONT = glyph.GlyphFont()


def extract_span(kind: str, text: str, media_ref: str, media: dict[str, bytes]) -> str:
    if kind == "text":
        return strip_boilerplate(text)
    if kind == "image":
        payload = media.get(media_ref)
        if payload is None:
            return SENTINEL_IMAGE_DOWNLOAD
        try:
            return _FONT.decode(payload)
        except glyph.GlyphDecodeError:
            return SENTINEL_OCR
    if kind == "pdf":
        payload = media.get(media_ref)
        if payload is None:
            return SENTINEL_PDF_DOWNLOAD
        try:
            return minipdf.reading_order_text(payload)
        except minipdf.PdfParseError:
            return SENTINEL_PDF_PARSE
    raise ValueError(f"unknown span kind: {kind!r}")


def extract_document(spans: list[dict], media: dict[str, bytes]) -> list[dict]:
    """One document's spans -> extracted spans [(kind, text, media_ref, order)]."""
    kept = [s for s in spans if not (s["kind"] == "text" and not (s["text"] or "").strip())]
    kept = sorted(kept, key=lambda s: s["offset"])
    return [
        {
            "kind": s["kind"],
            "text": extract_span(s["kind"], s["text"], s["media_ref"], media),
            "media_ref": s["media_ref"],
            "order": i,
        }
        for i, s in enumerate(kept)
    ]


def extract_table(docs: pa.Table, media: dict[str, bytes]) -> pa.Table:
    """Oracle over a whole documents table -> expected output table (F3)."""
    doc_ids = docs.column("doc_id").to_pylist()
    spans_col = docs.column("spans").to_pylist()
    out = sorted(
        ((d, extract_document(s, media)) for d, s in zip(doc_ids, spans_col)),
        key=lambda r: r[0],
    )
    return pa.table(
        {"doc_id": [d for d, _ in out], "spans": [s for _, s in out]}, schema=OUT_SCHEMA
    )
