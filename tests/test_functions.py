"""Unit tests for the pure extraction functions (no Ray)."""

import random

import pytest

from distributed_system___ocr_ray import corpus, oracle
from distributed_system___ocr_ray.functions import glyph, minipdf
from distributed_system___ocr_ray.functions.html_strip import strip_boilerplate


class TestGlyph:
    def test_roundtrip(self):
        f = glyph.GlyphFont()
        for t in ["Hello world, 123 ok.", "", "A", "a b c", "Punct: ;-'!?()"]:
            assert f.decode(f.render(t)) == t

    def test_corrupt_raises(self):
        f = glyph.GlyphFont()
        with pytest.raises(glyph.GlyphDecodeError):
            f.decode(glyph.corrupt(f.render("Some text here")))

    def test_garbage_raises(self):
        f = glyph.GlyphFont()
        for junk in [b"", b"nope", b"GLY1\x00\x00\x00\x00", b"GLY1" + b"\xff" * 100]:
            with pytest.raises(glyph.GlyphDecodeError):
                f.decode(junk)

    def test_dims(self):
        f = glyph.GlyphFont()
        h, w = f.dims(f.render("abcd"))
        assert h == glyph.GLYPH_H and w == 4 * glyph.CELL_W


class TestMiniPdf:
    def test_reading_order_columns(self):
        # two columns: left column read fully before right column
        p = minipdf.encode(
            [
                {"x": 300, "y": 5, "text": "R1"},
                {"x": 10, "y": 50, "text": "L2"},
                {"x": 10, "y": 10, "text": "L1"},
                {"x": 320, "y": 40, "text": "R2"},
            ]
        )
        assert minipdf.reading_order_text(p) == "L1\nL2\nR1\nR2"

    def test_corrupt_raises(self):
        p = minipdf.encode([{"x": 1, "y": 1, "text": "hi"}])
        with pytest.raises(minipdf.PdfParseError):
            minipdf.reading_order_text(minipdf.corrupt(p))
        with pytest.raises(minipdf.PdfParseError):
            minipdf.reading_order_text(b"not a pdf")

    def test_valid_json_wrong_shape_is_parse_error(self):
        """Valid JSON that is not the block schema must surface as
        PdfParseError (not TypeError/AttributeError crashing a batch --
        the PNG struct/zlib normalization's sibling, ADVICE r4 class)."""
        for body in (b"[1, 2]", b'"str"', b"7",
                     b'{"blocks": 3}', b'{"blocks": [1]}',
                     b'{"blocks": [{"text": 5}]}',
                     b'{"blocks": [{"text": "t", "x": "abc"}]}'):
            with pytest.raises(minipdf.PdfParseError):
                minipdf.reading_order_text(minipdf.MAGIC + body)

    def test_pdftext_operand_type_confusion_is_pdftexterror(self):
        """A %PDF content stream whose positioning operator receives a
        NAME token (not a number) must raise PdfTextError, not TypeError
        -- the normalization that keeps a hostile PDF from crashing an
        extraction batch."""
        from distributed_system___ocr_ray.functions import pdftext

        content = b"BT /A 1 Td (hi) Tj ET"
        data = (pdftext.MAGIC + b"\n1 0 obj << /Length 9 >>\nstream\n"
                + content + b"\nendstream\n")
        with pytest.raises(pdftext.PdfTextError):
            pdftext.extract_text(data)

    def test_wrong_shape_payloads_survive_media_metadata(self):
        from distributed_system___ocr_ray.stages.multimodal import MediaMetadata
        import pyarrow as pa

        payloads = [minipdf.MAGIC + b"[1, 2]",
                    minipdf.MAGIC + b'{"blocks": [{"text": "t", "x": "z"}]}']
        batch = pa.table({"media_ref": ["a", "b"],
                          "payload": pa.array(payloads, pa.binary())})
        out = MediaMetadata()(batch)
        assert out.column("media_kind").to_pylist() == ["unknown", "unknown"]


class TestHtmlStrip:
    def test_plain_text_identity(self):
        assert strip_boilerplate("no tags at all") == "no tags at all"
        assert strip_boilerplate("") == ""

    def test_boilerplate_dropped(self):
        rng = random.Random("x")
        page = corpus.html_page(rng, ["One two three.", "Four five six."])
        out = strip_boilerplate(page)
        assert "One two three." in out
        assert "Four five six." in out
        for boiler in ["Home", "About", "Contact", "Terms", "var x"]:
            assert boiler not in out

    def test_link_heavy_block_dropped(self):
        html = (
            "<body><p>Real content paragraph here.</p>"
            "<div><a href='#'>link one</a> <a href='#'>link two</a> x</div></body>"
        )
        assert strip_boilerplate(html) == "Real content paragraph here."

    def test_whitespace_normalized(self):
        assert strip_boilerplate("<p>a   b\n c</p>") == "a b c"


class TestOracle:
    def test_sentinels_and_order(self):
        store = corpus.build_media_store(n_img=4, n_pdf=2, seed=7, corrupt_frac=0.0)
        med = corpus.media_dict(store)
        spans = [
            {"kind": "image", "text": "", "media_ref": "mem://img/nope", "offset": 30},
            {"kind": "text", "text": "  ", "media_ref": "", "offset": 20},  # filtered
            {"kind": "text", "text": "hello", "media_ref": "", "offset": 10},
            {"kind": "pdf", "text": "", "media_ref": "mem://pdf/nope", "offset": 40},
            {"kind": "image", "text": "", "media_ref": corpus.media_ref_img(0), "offset": 5},
        ]
        out = oracle.extract_document(spans, med)
        assert [s["order"] for s in out] == [0, 1, 2, 3]
        assert out[0]["kind"] == "image" and out[0]["text"] not in ("", None)
        assert out[1]["text"] == "hello"
        assert out[2]["text"] == "Image download error"
        assert out[3]["text"] == "PDF download error"

    def test_reference_shaped_cardinality(self):
        docs, store = corpus.build_reference_shaped_doc()
        spans = oracle.extract_document(docs.column("spans")[0].as_py(), corpus.media_dict(store))
        # exactly one output span per input span; matches the golden's 24
        # <p> blocks 1:1 (inputs/short_input.txt has 24 non-empty lines)
        assert len(spans) == 24
        assert sum(1 for s in spans if s["text"] == "Image download error") == 2

    def test_corpus_determinism(self):
        a = corpus.build_documents(n_docs=10, seed=42)
        b = corpus.build_documents(n_docs=10, seed=42)
        assert a.equals(b)
        c = corpus.build_documents(n_docs=10, seed=43)
        assert not a.equals(c)


def _corpus_pages() -> list[str]:
    rng = random.Random(17)
    return [corpus.html_page(rng, [f"Sentence {j} alpha." for j in range(rng.randint(1, 4))])
            for _ in range(300)]


_STRIP_EDGE_CASES = [
    "plain", "", "<p>a   b\n c</p>", "<p>ent &amp; ities &#65;</p>",
    "<script>if (a<b) { x; }</script><p>after</p>", "<!-- c --><p>hi</p>",
    "<br/><p>x</p>y<div>z</div>", "<nav><a href='#'>n</a></nav><p>keep</p>",
    "<P>UPPER</P><DIV>case</DIV>", "<p>unclosed",
    # self-closing skip tags: start+end in html.parser, NOT a raw
    # body -- the rest of the document must survive
    "<script/><p>must survive</p>",
    "<style/><p>also survives</p>",
    "before<script />mid<p>after</p>",
    "<a/>no link depth<p>kept text here</p>",
    "<nav/>flush only<p>kept</p>",
    # unclosed skip tag: cdata to EOF on both implementations
    "<p>head</p><script>var x = 1;",
    # UNQUOTED attribute value ending in '/': html.parser consumes
    # the '/' into the value, so these are normal START tags (cdata
    # for script; link depth for a) -- not self-closing
    "<script src=foo/>mid<p>after</p>",
    "<a href=http://x.com/>link text</a><p>body</p>",
    "<nav data-x=1/>flush<p>kept</p>",
    # quoted value + '/>' IS self-closing
    "<script src='foo'/><p>survives</p>",
    "<a href='http://x.com/'/>no link<p>plain</p>",
    # a QUOTE inside an unquoted value is part of the value: these
    # are normal start tags, not self-closing
    '<script title=foo"/>rest of doc<p>paragraph text here</p>',
    '<a href=x"/>link text</a><p>body here</p>',
    # stray '/' between attributes is a separator
    "<script / src='x'/><p>kept</p>",
    "<script //>cdata-or-selfclose<p>x</p>",
]


class TestStripImplementations:
    def test_fast_equals_reference_on_corpus_pages(self):
        from distributed_system___ocr_ray.functions.html_strip import (
            strip_boilerplate_reference,
        )

        for i, page in enumerate(_corpus_pages()):
            assert strip_boilerplate(page) == strip_boilerplate_reference(page), i
        for t in _STRIP_EDGE_CASES:
            assert strip_boilerplate(t) == strip_boilerplate_reference(t), repr(t)

    def test_batch_equals_scalar(self):
        import pyarrow as pa

        from distributed_system___ocr_ray.functions.html_strip import (
            strip_boilerplate_batch,
        )

        texts = _corpus_pages() + _STRIP_EDGE_CASES
        assert strip_boilerplate_batch(pa.array(texts)) == [strip_boilerplate(t) for t in texts]
        assert strip_boilerplate_batch(pa.array([None, "x", None], pa.string())) == ["", "x", ""]
        assert strip_boilerplate_batch(pa.array([], pa.string())) == []

    def test_corpus_pages_take_the_batch_path(self, monkeypatch):
        """The scalar stripper is only the fallback for documents the
        split tokenizer cannot represent; corpus pages never need it."""
        import pyarrow as pa

        from distributed_system___ocr_ray.functions import html_strip

        calls = []
        scalar = html_strip.strip_boilerplate
        monkeypatch.setattr(html_strip, "strip_boilerplate",
                            lambda t: calls.append(t) or scalar(t))
        pages = _corpus_pages()
        assert html_strip.strip_boilerplate_batch(pa.array(pages)) == [scalar(p) for p in pages]
        assert calls == []
        html_strip.strip_boilerplate_batch(pa.array(["<!-- c --><p>hi</p>", "<p>é</p>"]))
        assert len(calls) == 2
