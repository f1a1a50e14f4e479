"""Minimal pure-Python PNG codec (vendored; no third-party deps).

Implements a subset of the public PNG specification (W3C PNG, RFC 2083),
so PNG payloads need no Pillow. ``dims`` reads height and width from the
header (``stages/multimodal.MediaMetadata``), and the
``real_png_roundtrip`` query round-trips pixels through:

- decode: 8-bit-depth, non-interlaced grayscale (color type 0), RGB (2)
  and RGBA (6); all five scanline filters (None/Sub/Up/Average/Paeth);
  multiple IDAT chunks; CRC validation.
- encode: the same color types, filter 0 per scanline, one IDAT.

Everything here derives from the published chunk layout: 8-byte
signature, length/type/data/CRC chunks, IHDR fields, zlib-compressed
filtered scanlines. Numpy does the per-row arithmetic; the serial-in-x
filters (Sub/Average/Paeth) run a per-pixel loop within the row, which is
fine for the store-payload image sizes this engine handles per batch.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"

_CHANNELS = {0: 1, 2: 3, 6: 4}


class PngError(ValueError):
    """Malformed or unsupported PNG payload."""


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa_ <= pb and pa_ <= pc:
        return a
    return b if pb <= pc else c


def _chunks(data: bytes):
    pos = len(SIGNATURE)
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        ctype = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        if len(body) != length:
            raise PngError("truncated chunk body")
        crc = data[pos + 8 + length:pos + 12 + length]
        if len(crc) != 4:
            raise PngError("truncated chunk CRC")
        if struct.unpack(">I", crc)[0] != zlib.crc32(ctype + body) & 0xFFFFFFFF:
            raise PngError(f"bad CRC in {ctype!r}")
        yield ctype, body
        pos += 12 + length
        if ctype == b"IEND":
            return
    raise PngError("missing IEND")


def decode(data: bytes) -> np.ndarray:
    """PNG bytes -> uint8 array of shape (h, w) gray or (h, w, c) color.

    Raises PngError for ANY malformed payload -- struct/zlib failures on
    truncated or corrupt-but-CRC-valid streams are normalized to PngError
    so stage handlers' errors-as-data contract holds (ADVICE r4, medium).
    """
    try:
        return _decode(data)
    except (struct.error, zlib.error) as exc:
        raise PngError(f"malformed PNG payload: {exc}") from exc


def _decode(data: bytes) -> np.ndarray:
    if data[:8] != SIGNATURE:
        raise PngError("bad PNG signature")
    width = height = None
    color_type = None
    idat = bytearray()
    for ctype, body in _chunks(data):
        if ctype == b"IHDR":
            width, height, depth, color_type, comp, filt, interlace = (
                struct.unpack(">IIBBBBB", body))
            if depth != 8:
                raise PngError(f"unsupported bit depth {depth}")
            if color_type not in _CHANNELS:
                raise PngError(f"unsupported color type {color_type}")
            if comp != 0 or filt != 0:
                raise PngError("unsupported compression/filter method")
            if interlace != 0:
                raise PngError("interlaced PNG unsupported")
        elif ctype == b"IDAT":
            idat += body
    if width is None:
        raise PngError("missing IHDR")
    ch = _CHANNELS[color_type]
    raw = zlib.decompress(bytes(idat))
    stride = width * ch
    if len(raw) != height * (stride + 1):
        raise PngError("decompressed size mismatch")
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    pos = 0
    for y in range(height):
        ftype = raw[pos]
        row = np.frombuffer(raw, dtype=np.uint8,
                            count=stride, offset=pos + 1).copy()
        pos += stride + 1
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for x in range(ch, stride):
                row[x] = (int(row[x]) + int(row[x - ch])) & 0xFF
        elif ftype == 2:  # Up
            row = (row.astype(np.int16) + prev).astype(np.uint8)
        elif ftype == 3:  # Average
            for x in range(stride):
                left = int(row[x - ch]) if x >= ch else 0
                row[x] = (int(row[x]) + ((left + int(prev[x])) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            for x in range(stride):
                left = int(row[x - ch]) if x >= ch else 0
                ul = int(prev[x - ch]) if x >= ch else 0
                row[x] = (int(row[x]) + _paeth(left, int(prev[x]), ul)) & 0xFF
        else:
            raise PngError(f"unknown filter type {ftype}")
        out[y] = row
        prev = out[y]
    if ch == 1:
        return out.reshape(height, width)
    return out.reshape(height, width, ch)


def encode(img: np.ndarray) -> bytes:
    """uint8 array (h, w) or (h, w, {3,4}) -> PNG bytes (filter 0)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        color_type, ch = 0, 1
        h, w = img.shape
    elif img.ndim == 3 and img.shape[2] in (3, 4):
        ch = img.shape[2]
        color_type = 2 if ch == 3 else 6
        h, w = img.shape[:2]
    else:
        raise PngError(f"unsupported array shape {img.shape}")
    body = img.reshape(h, w * ch)
    raw = b"".join(b"\x00" + body[y].tobytes() for y in range(h))

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (SIGNATURE + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))


def dims(data: bytes) -> tuple[int, int]:
    """(height, width) from IHDR without decompressing pixel data.

    Truncation between the IHDR tag and byte 24 surfaces as PngError, not
    struct.error (errors-as-data for untrusted media payloads).
    """
    if data[:8] != SIGNATURE or data[12:16] != b"IHDR":
        raise PngError("bad PNG signature/IHDR")
    # spec: IHDR body is exactly 13 bytes; a shorter declared length would
    # make the unpack below read CRC bytes as dimensions (garbage w/h).
    if data[8:12] != struct.pack(">I", 13):
        raise PngError("bad IHDR length")
    try:
        w, h = struct.unpack(">II", data[16:24])
    except struct.error as exc:
        raise PngError(f"truncated IHDR: {exc}") from exc
    return h, w
