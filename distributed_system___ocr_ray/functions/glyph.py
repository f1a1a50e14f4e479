"""Synthetic 5x7 glyph font: render text -> bitmap bytes, and OCR-decode back.

Stands in for the reference's Tesseract engine (tess4j; loaded once per worker
at Worker.java:47-48, applied per record at Worker.java:145-153). The sandbox
has no OCR binary, so fixture images are deterministic bitmaps rendered from
known text with a fixed glyph font; the OCR stage performs real array work
(bit unpacking, cell slicing, table lookup) to recover the text, and is
exactly invertible so the oracle is trivial.

Wire format (``GLY1``)::

    b"GLY1" | uint16 height | uint16 width | packbits(bitmap row-major)

Each character cell is 5 columns x 7 rows plus a 1-column gap. The glyph
bitmap for a character is derived deterministically from sha256 of the
character, giving visually-meaningless but fixed, collision-free patterns
(a *font*, not an image model -- decode is exact-match table lookup; any
unrecognized cell raises, which the extraction stage converts to the
reference's "OCR operation error" sentinel, Worker.java:95).

``decode`` reads one payload cell by cell. ``decode_batch`` reads many at
once: it checks each header with ``struct``, groups the well-formed
payloads by width, and per width runs one ``unpackbits`` over the stacked
bodies, packs every 7x5 cell into a ``uint64`` code and finds all codes
with one ``searchsorted`` against the font's sorted codes. A payload it
cannot read (bad header, short body, unknown cell) comes back as ``None``:
exactly the payloads on which ``decode`` raises, so the extraction stage
maps ``None`` straight to the OCR sentinel. ``decode`` stays as the
reference the oracle and the tests check ``decode_batch`` against.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

GLYPH_H = 7
GLYPH_W = 5
CELL_W = GLYPH_W + 1  # 1-column inter-glyph gap
MAGIC = b"GLY1"

# Character set the synthetic font covers. Truth strings in the corpus are
# drawn from this alphabet only.
ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .,:;-'!?()"


def _glyph_bitmap(ch: str) -> np.ndarray:
    """Fixed 7x5 binary pattern for ``ch`` derived from sha256(ch)."""
    digest = hashlib.sha256(ch.encode("utf-8")).digest()
    bits = np.unpackbits(np.frombuffer(digest[: (GLYPH_H * GLYPH_W + 7) // 8], dtype=np.uint8))
    return bits[: GLYPH_H * GLYPH_W].reshape(GLYPH_H, GLYPH_W)


class GlyphFont:
    """Render/decode table built once (per OCR actor, mirroring the
    once-per-worker Tesseract init at Worker.java:47-48)."""

    def __init__(self) -> None:
        self.render_table: dict[str, np.ndarray] = {c: _glyph_bitmap(c) for c in ALPHABET}
        # decode table keyed by the raw bytes of the 7x5 cell
        self.decode_table: dict[bytes, str] = {
            bm.tobytes(): c for c, bm in self.render_table.items()
        }
        assert len(self.decode_table) == len(ALPHABET), "glyph collision"
        codes = _cell_codes(np.stack([self.render_table[c] for c in ALPHABET]))
        order = np.argsort(codes)
        self._codes = codes[order]  # sorted, for decode_batch's searchsorted
        self._code_chars = np.array([ord(ALPHABET[i]) for i in order], np.uint32)

    def render(self, text: str) -> bytes:
        """Render ``text`` to GLY1 bitmap bytes. Unknown chars map to space."""
        n = max(len(text), 1)
        img = np.zeros((GLYPH_H, n * CELL_W), dtype=np.uint8)
        space = self.render_table[" "]
        for i, ch in enumerate(text or " "):
            img[:, i * CELL_W : i * CELL_W + GLYPH_W] = self.render_table.get(ch, space)
        packed = np.packbits(img.reshape(-1))
        return MAGIC + struct.pack("<HH", img.shape[0], img.shape[1]) + packed.tobytes()

    def decode(self, payload: bytes) -> str:
        """OCR: bitmap bytes -> text. Raises GlyphDecodeError on anything
        malformed (the extraction stage maps that to the OCR sentinel)."""
        if len(payload) < 8 or payload[:4] != MAGIC:
            raise GlyphDecodeError("bad magic")
        h, w = struct.unpack("<HH", payload[4:8])
        if h != GLYPH_H or w % CELL_W != 0 or w == 0:
            raise GlyphDecodeError("bad dimensions")
        nbits = h * w
        body = np.frombuffer(payload[8:], dtype=np.uint8)
        if len(body) * 8 < nbits:
            raise GlyphDecodeError("truncated payload")
        img = np.unpackbits(body)[:nbits].reshape(h, w)
        out = []
        for i in range(w // CELL_W):
            cell = np.ascontiguousarray(img[:, i * CELL_W : i * CELL_W + GLYPH_W])
            ch = self.decode_table.get(cell.tobytes())
            if ch is None:
                raise GlyphDecodeError(f"unrecognized glyph at cell {i}")
            out.append(ch)
        text = "".join(out)
        # a single-space render of "" decodes to " "; normalize exactly
        return "" if text == " " else text

    def decode_batch(self, payloads: list[bytes]) -> list[str | None]:
        """``decode`` over many payloads, vectorized per width group; ``None``
        exactly where ``decode`` would raise."""
        out: list[str | None] = [None] * len(payloads)
        by_width: dict[int, list[int]] = {}
        for i, p in enumerate(payloads):
            if len(p) < 8 or p[:4] != MAGIC:
                continue
            h, w = struct.unpack_from("<HH", p, 4)
            if h == GLYPH_H and w and w % CELL_W == 0 and (len(p) - 8) * 8 >= h * w:
                by_width.setdefault(w, []).append(i)
        for w, rows in by_width.items():
            nbytes, cells = (GLYPH_H * w + 7) // 8, w // CELL_W
            body = np.frombuffer(b"".join(payloads[i][8:8 + nbytes] for i in rows),
                                 np.uint8).reshape(len(rows), nbytes)
            img = np.unpackbits(body, axis=1)[:, :GLYPH_H * w]
            # (image, row, cell, column) -> (image, cell, row, column), gap dropped
            glyphs = img.reshape(len(rows), GLYPH_H, cells, CELL_W)[..., :GLYPH_W]
            codes = _cell_codes(glyphs.transpose(0, 2, 1, 3))
            pos = np.searchsorted(self._codes, codes).clip(max=len(self._codes) - 1)
            known = (self._codes[pos] == codes).all(axis=1)
            # one U<cells> string per image, straight from the code points
            texts = self._code_chars[pos].view(f"U{cells}").ravel().tolist()
            for i, ok, text in zip(rows, known.tolist(), texts):
                if ok:
                    out[i] = "" if text == " " else text
        return out

    def dims(self, payload: bytes) -> tuple[int, int]:
        """Parse (height, width) metadata without decoding (multimodal path)."""
        if len(payload) < 8 or payload[:4] != MAGIC:
            raise GlyphDecodeError("bad magic")
        h, w = struct.unpack("<HH", payload[4:8])
        return h, w


def _cell_codes(cells: np.ndarray) -> np.ndarray:
    """Each trailing 7x5 bit cell of ``cells`` as one ``uint64`` code."""
    packed = np.packbits(cells.reshape(*cells.shape[:-2], GLYPH_H * GLYPH_W), axis=-1)
    pad = np.zeros((*packed.shape[:-1], 8), np.uint8)
    pad[..., :packed.shape[-1]] = packed
    return pad.view("<u8")[..., 0]


class GlyphDecodeError(ValueError):
    pass


def corrupt(payload: bytes) -> bytes:
    """Deterministically corrupt a payload so decode fails (fixture helper)."""
    body = bytearray(payload)
    if len(body) > 9:
        body[9] ^= 0xFF  # flip bits inside the bitmap -> unrecognized glyph
    return bytes(body[: max(9, len(body) - 3)])
