"""Multimodal column stage: opaque binary payloads -> typed metadata.

Image/audio/video payloads are treated as opaque ``binary`` columns with
typed metadata extracted by an actor-pool ``map_batches`` stage
(``media_metadata``). Real header parsing in this build (no Pillow/ffmpeg):

- PNG: the vendored pure-Python codec (``functions/png.py``, public
  W3C/RFC 2083 chunk layout) reads width and height from the header.
- WAV: stdlib ``wave`` gives the frame count.
- GLY1/MPDF1: the engine's own formats, parsed natively; real PDFs get a
  page count from ``functions/pdftext.py``.
- anything else: Pillow when installed (import-gated; takes what it
  handles), else errors-as-data nulls.

Batch-size note for 100 TB: payload columns dominate block bytes; callers
should pass small ``batch_size`` (e.g. 64) and rely on
``DataContext.target_max_block_size`` so a batch x concurrency of fat binary
rows fits the worker heap.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions import glyph, minipdf, pdftext, png

# import-gated real-decode upgrade: when Pillow is installed, the Pillow
# branch of ``MediaMetadata`` activates with no code changes.
try:  # pragma: no cover - exercised only where Pillow exists
    from PIL import Image as _PILImage

    HAVE_PIL = True
except ImportError:
    _PILImage = None
    HAVE_PIL = False


class MediaMetadata:
    """Actor-pool stage: payload binary -> typed metadata columns.

    Output adds: media_kind (gly1|mpdf1|unknown), n_bytes, width, height,
    n_blocks. Unknown formats get nulls, never errors (errors-as-data).
    """

    def __init__(self) -> None:
        self.font = glyph.GlyphFont()  # parse tables built once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        kind, nbytes, width, height, nblocks = [], [], [], [], []
        for p in payloads:
            p = p or b""
            nbytes.append(len(p))
            if p[:4] == glyph.MAGIC:
                try:
                    h, w = self.font.dims(p)
                    kind.append("gly1"); width.append(w); height.append(h); nblocks.append(None)
                    continue
                except glyph.GlyphDecodeError:
                    pass
            if p[:5] == minipdf.MAGIC:
                try:
                    blocks = minipdf.decode_blocks(p)
                    kind.append("mpdf1"); width.append(None); height.append(None)
                    nblocks.append(len(blocks))
                    continue
                except minipdf.PdfParseError:
                    pass
            if p[:8] == png.SIGNATURE:  # vendored codec: header-only dims
                try:
                    h, w = png.dims(p)
                    kind.append("png"); width.append(w); height.append(h)
                    nblocks.append(None)
                    continue
                except png.PngError:
                    pass
            if p[:5] == pdftext.MAGIC:  # real PDF: vendored page counter
                try:
                    kind.append("pdf"); width.append(None); height.append(None)
                    nblocks.append(pdftext.page_count(p))
                    continue
                except pdftext.PdfTextError:
                    pass
            if p[:4] == b"RIFF" and p[8:12] == b"WAVE":  # stdlib wave
                try:
                    import io
                    import wave

                    with wave.open(io.BytesIO(p), "rb") as wv:
                        kind.append("wav"); width.append(None); height.append(None)
                        nblocks.append(wv.getnframes())
                    continue
                except Exception:
                    pass
            if HAVE_PIL:  # pragma: no cover - real-format path, lib-gated
                try:
                    import io

                    with _PILImage.open(io.BytesIO(p)) as im:
                        kind.append(im.format.lower() if im.format else "image")
                        width.append(im.width); height.append(im.height)
                        nblocks.append(None)
                        continue
                except Exception:
                    pass
            kind.append("unknown"); width.append(None); height.append(None); nblocks.append(None)
        return pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "media_kind": pa.array(kind, pa.string()),
                "n_bytes": pa.array(nbytes, pa.int64()),
                "width": pa.array(width, pa.int32()),
                "height": pa.array(height, pa.int32()),
                "n_blocks": pa.array(nblocks, pa.int32()),
            }
        )


def media_metadata(store_ds, batch_size: int = 64, concurrency=(1, 4)):
    """media store Dataset -> metadata Dataset (actor pool, small batches)."""
    return store_ds.map_batches(
        MediaMetadata, batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency
    )
