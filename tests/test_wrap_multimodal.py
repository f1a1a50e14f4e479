"""Tests for the testdata adapters and multimodal metadata stages."""

import numpy as np
import pyarrow as pa
import pytest

from distributed_system___ocr_ray import corpus
from distributed_system___ocr_ray.functions import glyph

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
class TestWrap:
    def test_flat_as_spans_identity_extraction(self):
        """flat wrap -> full pipeline == identity on plain text (SQL-checkable)."""
        import duckdb

        from distributed_system___ocr_ray.pipelines import extract as pipeline
        from distributed_system___ocr_ray.sources import wrap

        ds = wrap.flat_as_spans(SF)
        out = pipeline.extract_dataset(ds, {}).to_pandas()
        got = {}
        for _, row in out.iterrows():
            spans = row["spans"]
            assert len(spans) == 1 and spans[0]["order"] == 0
            got[int(row["doc_id"].split("-")[1])] = spans[0]["text"]
        exp = duckdb.sql(
            f"SELECT doc_id, text FROM '{SF}/documents.parquet' WHERE trim(text) <> ''"
        ).df()
        assert len(got) == len(exp)
        for did, text in zip(exp["doc_id"], exp["text"]):
            assert got[int(did)] == text

    def test_interleaved_matches_oracle(self):
        from distributed_system___ocr_ray import oracle
        from distributed_system___ocr_ray.pipelines import extract as pipeline
        from distributed_system___ocr_ray.sources import wrap

        ds, store = wrap.interleaved_from_documents(SF, replicate=1)
        docs_tbl = pa.Table.from_pandas(ds.to_pandas(), schema=corpus.DOC_SCHEMA)
        expected = oracle.extract_table(docs_tbl, corpus.media_dict(store))
        out = pipeline.extract_dataset(ds, store).to_pandas()
        out = out.sort_values("doc_id").reset_index(drop=True)
        assert out["doc_id"].tolist() == expected.column("doc_id").to_pylist()
        for i, spans in enumerate(out["spans"]):
            e = expected.column("spans")[i].as_py()
            g = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in spans]
            en = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in e]
            assert g == en

    def test_replicate(self):
        from distributed_system___ocr_ray.sources import wrap

        ds, _ = wrap.interleaved_from_documents(SF, replicate=3)
        assert ds.count() == 3 * 500


@pytest.mark.usefixtures("ray_session")
class TestMultimodal:
    def test_media_metadata(self):
        import ray.data as rd

        from distributed_system___ocr_ray.stages import multimodal

        store = corpus.build_media_store(n_img=20, n_pdf=10, seed=42, corrupt_frac=0.0)
        ds = rd.from_arrow(store)
        out = multimodal.media_metadata(ds).to_pandas().set_index("media_ref")
        assert (out.loc[out["media_kind"] == "gly1", "height"] == glyph.GLYPH_H).all()
        assert len(out[out["media_kind"] == "gly1"]) == 20
        assert len(out[out["media_kind"] == "mpdf1"]) == 10
        assert (out["n_bytes"] > 0).all()

class TestPngCodec:
    """Vendored pure-Python PNG codec (functions/png.py)."""

    def test_roundtrip_gray_rgb_rgba(self):
        from distributed_system___ocr_ray.functions import png

        for shape in [(5, 7), (9, 4, 3), (3, 3, 4)]:
            img = (np.arange(np.prod(shape)) % 251).astype(np.uint8).reshape(shape)
            data = png.encode(img)
            back = png.decode(data)
            assert back.shape == img.shape and (back == img).all()
            assert png.dims(data) == img.shape[:2]

    def test_decode_all_five_filters(self):
        """Hand-built PNG using every scanline filter type (spec 0-4)."""
        import struct
        import zlib

        from distributed_system___ocr_ray.functions import png

        w, h, ch = 6, 5, 3
        rng = np.random.RandomState(0)
        img = rng.randint(0, 256, (h, w, ch)).astype(np.uint8)
        flat = img.reshape(h, w * ch).astype(np.int16)

        def paeth(a, b, c):
            p = a + b - c
            pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            return a if pa_ <= pb and pa_ <= pc else (b if pb <= pc else c)

        rows, prev = [], np.zeros(w * ch, dtype=np.int16)
        for y in range(h):
            f, cur = y % 5, flat[y]
            enc = np.zeros(w * ch, dtype=np.int16)
            for x in range(w * ch):
                left = cur[x - ch] if x >= ch else 0
                up, ul = prev[x], (prev[x - ch] if x >= ch else 0)
                pred = (0 if f == 0 else left if f == 1 else up if f == 2
                        else (left + up) // 2 if f == 3 else paeth(left, up, ul))
                enc[x] = (cur[x] - pred) % 256
            rows.append(bytes([f]) + enc.astype(np.uint8).tobytes())
            prev = cur

        def chunk(t, d):
            return (struct.pack(">I", len(d)) + t + d
                    + struct.pack(">I", zlib.crc32(t + d) & 0xFFFFFFFF))

        data = (png.SIGNATURE
                + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
                + chunk(b"IDAT", zlib.compress(b"".join(rows)))
                + chunk(b"IEND", b""))
        assert (png.decode(data) == img).all()

    def test_malformed_raises(self):
        from distributed_system___ocr_ray.functions import png

        with pytest.raises(png.PngError):
            png.decode(b"junk")
        img = np.zeros((4, 4), np.uint8)
        bad = bytearray(png.encode(img))
        bad[30] ^= 0xFF
        with pytest.raises(png.PngError):
            png.decode(bytes(bad))

    def _crc_valid_corrupt_variants(self):
        """Payloads that previously escaped PngError as struct/zlib errors
        (ADVICE r4 medium): truncated-before-byte-24 IHDR, short IHDR body
        with a VALID CRC, and a CRC-valid but zlib-corrupt IDAT stream."""
        import struct
        import zlib

        from distributed_system___ocr_ray.functions import png

        def chunk(t, d):
            return (struct.pack(">I", len(d)) + t + d
                    + struct.pack(">I", zlib.crc32(t + d) & 0xFFFFFFFF))

        truncated = png.SIGNATURE + struct.pack(">I", 13) + b"IHDR" + b"\x00\x01"
        short_ihdr = (png.SIGNATURE + chunk(b"IHDR", b"\x00\x00\x00\x04")
                      + chunk(b"IEND", b""))
        ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 0)
        bad_idat = (png.SIGNATURE + chunk(b"IHDR", ihdr)
                    + chunk(b"IDAT", b"\x78\x9cNOTZLIBDATA")
                    + chunk(b"IEND", b""))
        return [truncated, short_ihdr, bad_idat]

    def test_struct_zlib_failures_are_pngerror(self):
        from distributed_system___ocr_ray.functions import png

        for payload in self._crc_valid_corrupt_variants():
            with pytest.raises(png.PngError):
                png.decode(payload)
        with pytest.raises(png.PngError):
            png.dims(self._crc_valid_corrupt_variants()[0])

    def test_stages_survive_crc_valid_corrupt_png(self):
        """MediaMetadata falls through on such payloads instead of crashing
        the batch (errors-as-data contract)."""
        from distributed_system___ocr_ray.stages.multimodal import MediaMetadata

        variants = self._crc_valid_corrupt_variants()
        refs = [f"m{i}" for i in range(len(variants))]
        batch = pa.table({"media_ref": refs, "payload": variants})
        meta = MediaMetadata()(batch)
        # header-only dims may still report kind="png" for a CRC-valid IHDR;
        # the contract under test is that NO variant crashes the batch.
        assert len(meta) == len(variants)


class TestMultimodalRealDecode:
    """MediaMetadata reads real PNG, WAV and PDF headers."""

    def _png_payload(self, h=16, w=24):
        from distributed_system___ocr_ray.functions import png

        img = (np.arange(h * w * 3) % 256).astype(np.uint8).reshape(h, w, 3)
        return png.encode(img), img

    def test_metadata_png_dims(self):
        from distributed_system___ocr_ray.stages.multimodal import MediaMetadata

        data, _ = self._png_payload()
        out = MediaMetadata()(pa.table({"media_ref": ["p"], "payload": [data]}))
        row = out.to_pylist()[0]
        assert row["media_kind"] == "png"
        assert (row["height"], row["width"]) == (16, 24)

    def test_metadata_wav(self):
        import io
        import wave

        from distributed_system___ocr_ray.stages.multimodal import MediaMetadata

        buf = io.BytesIO()
        with wave.open(buf, "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(b"\x00\x00" * 2 * 123)
        out = MediaMetadata()(
            pa.table({"media_ref": ["w"], "payload": [buf.getvalue()]}))
        row = out.to_pylist()[0]
        assert row["media_kind"] == "wav" and row["n_blocks"] == 123

    def test_metadata_real_pdf(self):
        from distributed_system___ocr_ray.functions import pdftext
        from distributed_system___ocr_ray.stages.multimodal import MediaMetadata

        pdf = pdftext.make_pdf([[(72, 700, "hi")], [(72, 700, "there")]])
        out = MediaMetadata()(pa.table({"media_ref": ["d"], "payload": [pdf]}))
        row = out.to_pylist()[0]
        assert row["media_kind"] == "pdf" and row["n_blocks"] == 2


class TestPdfText:
    """Vendored ISO-32000-subset text extractor (functions/pdftext.py)."""

    def test_roundtrip_geometric_reading_order(self):
        from distributed_system___ocr_ray.functions import pdftext

        pages = [
            [(72, 700, "Title line"), (72, 650, "Second paragraph"),
             (300, 700, "right header")],
            [(72, 680, "Page two content")],
        ]
        for compress in (True, False):
            pdf = pdftext.make_pdf(pages, compress=compress)
            assert pdftext.extract_text(pdf) == (
                "Title line right header\nSecond paragraph\nPage two content")
        # stream order is NOT reading order: bottom emitted first
        scrambled = pdftext.make_pdf([[(72, 100, "bottom"), (72, 700, "top")]])
        assert pdftext.extract_text(scrambled) == "top\nbottom"

    def test_operators_and_strings(self):
        from distributed_system___ocr_ray.functions import pdftext

        content = (b"BT /F1 12 Tf 72 700 Td [(Hel) (lo)] TJ "
                   b"0 -20 Td (world) Tj ET")
        raw = (b"%PDF-1.4\n1 0 obj\n<< >>\nstream\n" + content
               + b"\nendstream\nendobj\n")
        assert pdftext.extract_text(raw) == "Hello\nworld"
        c2 = b"BT 10 10 Td <48656C6C6F> Tj (\\101\\102) ' ET"
        raw2 = (b"%PDF-1.4\n1 0 obj\n<<>>\nstream\n" + c2
                + b"\nendstream\nendobj\n")
        t2 = pdftext.extract_text(raw2)
        assert "Hello" in t2 and "AB" in t2
        # escapes / nested parens survive the writer roundtrip
        tricky = "parens (nested) and \\ backslash"
        assert tricky in pdftext.extract_text(
            pdftext.make_pdf([[(10, 10, tricky)]]))

    def test_errors(self):
        import pytest as _pytest

        from distributed_system___ocr_ray.functions import pdftext

        with _pytest.raises(pdftext.PdfTextError):
            pdftext.extract_text(b"not a pdf")
        # unsupported filter: stream skipped, no crash
        raw = (b"%PDF-1.4\n1 0 obj\n<< /Filter /DCTDecode >>\nstream\n"
               b"\xff\xd8\xff\nendstream\nendobj\n")
        assert pdftext.extract_text(raw) == ""


class TestRealPdfExtraction:
    def test_dispatch_extracts_real_pdf_payload(self):
        """End-to-end through ExtractDispatch: a real-PDF media payload
        extracts via the vendored ISO-32000 branch, a corrupt one becomes
        the parse-error sentinel (errors-as-data)."""
        import ray

        from distributed_system___ocr_ray.functions import pdftext
        from distributed_system___ocr_ray.stages.extractors import (
            SENTINEL_PDF_PARSE,
            ExtractDispatch,
        )

        good = pdftext.make_pdf(
            [[(72, 700, "real pdf body"), (72, 650, "second line")]])
        bad = b"%PDF-1.4\ngarbage stream content endstream"
        media = {"mem://pdf/real": good, "mem://pdf/corrupt": bad}
        batch = pa.table({
            "doc_id": ["d1", "d1"],
            "part": pa.array([0, 0], pa.int32()),
            "kind": ["pdf", "pdf"],
            "text": ["", ""],
            "media_ref": ["mem://pdf/real", "mem://pdf/corrupt"],
            "offset": pa.array([1, 2], pa.int32()),
        })
        out = ExtractDispatch([ray.put(media)])(batch).to_pylist()
        assert out[0]["out_text"] == "real pdf body\nsecond line"
        assert out[0]["status"] == "ok"
        assert out[1]["out_text"] == SENTINEL_PDF_PARSE


@pytest.mark.usefixtures("ray_session")
class TestRealPdfFlagship:
    def test_sharded_extraction_over_real_pdf_store(self, tmp_path):
        """The REAL format through the REAL pipeline: a corpus whose pdf
        spans reference genuine %PDF payloads runs the full checkpointed
        sharded plan; extracted span text must equal the codec's
        reading-order text per document."""
        import glob

        import pyarrow.parquet as pq

        from distributed_system___ocr_ray.functions import pdftext
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        pdfs = {}
        for i in range(6):
            ref = f"mem://pdf/real-{i}"
            pdfs[ref] = pdftext.make_pdf(
                [[(72, 700, f"doc {i} headline"),
                  (72, 650, f"doc {i} body line")]])
        docs = pa.table({
            "doc_id": [f"doc-{i:08d}" for i in range(6)],
            "spans": [[{"kind": "pdf", "text": "",
                        "media_ref": f"mem://pdf/real-{i}", "offset": 1}]
                      for i in range(6)],
        }, schema=corpus.DOC_SCHEMA)
        docs_dir = str(tmp_path / "docs")
        lance_like.write_table(docs, docs_dir, rows_per_fragment=2)
        media = pa.table({
            "media_ref": list(pdfs), "kind": ["pdf"] * 6,
            "payload": list(pdfs.values()), "truth": [""] * 6,
        })
        out = str(tmp_path / "out")
        m = run_extraction_sharded(docs_dir, media, out, concurrency=2)
        assert m["status_counts"] == {"ok": 6}
        got = {}
        for f in glob.glob(out + "/part=*/data.parquet"):
            for row in pq.read_table(f).to_pylist():
                got[row["doc_id"]] = row["spans"][0]["text"]
        for i in range(6):
            assert got[f"doc-{i:08d}"] == f"doc {i} headline\ndoc {i} body line"
