"""HTML sink parity and the explode/reassemble round-trip property
(hypothesis)."""

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distributed_system___ocr_ray import corpus
from distributed_system___ocr_ray.stages.explode import explode_spans
from distributed_system___ocr_ray.stages.reassemble import reassemble_partition
from distributed_system___ocr_ray.stages.render_html import render_doc, write_html_file


class TestRenderHtml:
    def test_render_doc_reference_shape(self):
        spans = [
            {"kind": "image", "text": "line1\nline2", "media_ref": "mem://img/000001", "order": 1},
            {"kind": "text", "text": "hello", "media_ref": "", "order": 0},
        ]
        html = render_doc("d1", spans)
        # one <p> per span, offset order restored, \n -> <br/> (M4)
        assert html.count("<p") == 2
        assert html.index("hello") < html.index("mem://img/000001")
        assert "line1<br/>line2" in html

    @pytest.mark.usefixtures("ray_session")
    def test_write_html_file_counts_blocks(self, small_corpus, tmp_path):
        from distributed_system___ocr_ray.pipelines import extract as pipeline

        docs, store = small_corpus
        out = pipeline.extract_dataset(docs, store)
        path = str(tmp_path / "out.html")
        n = write_html_file(out, path)
        assert n == docs.num_rows
        content = open(path).read()
        assert content.startswith("<html>") and content.rstrip().endswith("</html>")

    def test_reference_shaped_block_count(self):
        """24 input spans -> exactly 24 <p> blocks, matching the reference
        golden short_output.html block count 1:1 (FIXTURES F5)."""
        from distributed_system___ocr_ray import oracle

        docs, store = corpus.build_reference_shaped_doc()
        spans = oracle.extract_document(
            docs.column("spans")[0].as_py(), corpus.media_dict(store)
        )
        html = render_doc("doc-short-input", spans)
        assert html.count("<p>") == 24


# hypothesis strategy: documents with random spans (kinds/offsets/dups)
_span = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["text", "image", "pdf"]),
        "text": st.text(alphabet="ab <>/p&;\n", max_size=20),
        "media_ref": st.sampled_from(["", "mem://img/000001", "mem://pdf/000001", "mem://x"]),
        "offset": st.integers(min_value=0, max_value=10_000),
    }
)
_doc_spans = st.lists(_span, min_size=0, max_size=10)


class TestRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_doc_spans, min_size=1, max_size=8))
    def test_explode_reassemble_preserves_structure(self, all_spans):
        """reassemble_partition(explode_spans(t)) == t modulo extraction:
        same docs, same per-doc span multiset of (kind, media_ref),
        offset-sorted order."""
        doc_ids = [f"doc-{i:04d}" for i in range(len(all_spans))]
        # make offsets unique within a doc so order is well-defined
        for spans in all_spans:
            for j, s in enumerate(spans):
                s["offset"] = s["offset"] * 16 + j
        t = pa.table({"doc_id": doc_ids, "spans": all_spans}, schema=corpus.DOC_SCHEMA)
        exploded = explode_spans(t)
        # fake extraction: out_text = kind (content-free), status ok
        exploded = exploded.append_column(
            "out_text", exploded.column("kind")
        ).append_column("status", pa.array(["ok"] * exploded.num_rows))
        out = reassemble_partition(exploded)
        got = {d: s for d, s in zip(out.column("doc_id").to_pylist(), out.column("spans").to_pylist())}
        for did, spans in zip(doc_ids, all_spans):
            kept = [
                s for s in spans if not (s["kind"] == "text" and not s["text"].strip())
            ]
            kept = sorted(kept, key=lambda s: s["offset"])
            if not kept:
                assert did not in got  # all-empty doc vanishes at explode
                continue
            g = got[did]
            assert [s["order"] for s in g] == list(range(len(kept)))
            assert [(s["kind"], s["media_ref"]) for s in g] == [
                (s["kind"], s["media_ref"]) for s in kept
            ]
