"""End-to-end over the REFERENCE'S OWN input files (read-only at
/root/reference/inputs): the engine ingests the reference's literal URL-list
format and reproduces its golden-output structure -- with the engine's
stronger exactly-once contract (no 24th race block; FIXTURES.md F5).

Those files are optional: the tests that read them skip when they are
absent, and synthetic URL files with the same shapes (SURVEY.md #1.1:
24 lines over 10 distinct URLs, 1,000 lines over 11) keep the
per-occurrence multiplicity path tested everywhere."""

import os
import random
from collections import Counter

import pytest

REF_SHORT = "/root/reference/inputs/short_input.txt"
REF_LONG = "/root/reference/inputs/long_input.txt"

needs_reference = pytest.mark.skipif(
    not os.path.exists(REF_SHORT) or not os.path.exists(REF_LONG),
    reason="the reference's input files are not present")


def _write_url_file(path, n_lines: int, n_distinct: int, seed: int) -> list[str]:
    """A URL-list file of ``n_lines`` lines over ``n_distinct`` URLs, every
    URL used at least once, the last line without a trailing newline (as in
    the reference's short input). Returns the lines."""
    rng = random.Random(seed)
    urls = [f"http://example.com/img/{i}.png" for i in range(n_distinct)]
    lines = urls + [rng.choice(urls) for _ in range(n_lines - n_distinct)]
    rng.shuffle(lines)
    path.write_text("\n".join(lines))
    return lines


@pytest.mark.usefixtures("ray_session")
class TestSyntheticReferenceShapes:
    @pytest.mark.parametrize("n_lines,n_distinct", [(24, 10), (1000, 11)])
    def test_one_block_per_line(self, tmp_path, n_lines, n_distinct):
        """One output span and one rendered block per input line, in line
        order, with each URL rendered once PER OCCURRENCE (M5)."""
        import re

        from distributed_system___ocr_ray.pipelines import extract as pipeline
        from distributed_system___ocr_ray.sources.urls_txt import read_url_file, read_url_files
        from distributed_system___ocr_ray.stages.render_html import write_html_file

        path = tmp_path / "input.txt"
        lines = _write_url_file(path, n_lines, n_distinct, seed=n_lines)
        tbl = read_url_file(str(path))
        assert [s["media_ref"] for s in tbl.column("spans")[0].as_py()] == lines
        assert len(set(lines)) == n_distinct

        out = pipeline.extract_dataset(read_url_files([str(path)]), {})
        spans = out.to_pandas().spans[0]
        assert [s["order"] for s in spans] == list(range(n_lines))
        assert [s["media_ref"] for s in spans] == lines
        assert all(s["text"] == "Image download error" for s in spans)

        html_path = str(tmp_path / "out.html")
        assert write_html_file(out, html_path) == 1
        srcs = re.findall(r'<img src="([^"]+)"', open(html_path).read())
        assert Counter(srcs) == Counter(lines)


@pytest.mark.usefixtures("ray_session")
class TestReferenceInputs:
    @needs_reference
    def test_short_input_end_to_end(self, tmp_path):
        from distributed_system___ocr_ray.pipelines import extract as pipeline
        from distributed_system___ocr_ray.sources.urls_txt import read_url_file, read_url_files
        from distributed_system___ocr_ray.stages.render_html import write_html_file

        tbl = read_url_file(REF_SHORT)
        n_lines = sum(1 for line in open(REF_SHORT) if line.strip())
        assert tbl.num_rows == 1
        assert len(tbl.column("spans")[0]) == n_lines == 24
        assert len({s["media_ref"] for s in tbl.column("spans")[0].as_py()}) == 10

        ds = read_url_files([REF_SHORT])
        out = pipeline.extract_dataset(ds, {})
        docs = out.to_pandas()
        assert len(docs) == 1
        spans = docs.spans[0]
        # exactly one output span per input line; the golden
        # short_output.html has exactly 24 <p> blocks -- 1:1
        assert len(spans) == 24
        # no network + no store: every http URL -> the verbatim sentinel
        assert all(s["text"] == "Image download error" for s in spans)
        # order is input line order
        assert [s["order"] for s in spans] == list(range(24))

        html_path = str(tmp_path / "short_output.html")
        n = write_html_file(out, html_path)
        assert n == 1
        content = open(html_path).read()
        # block count matches the reference golden exactly
        golden_blocks = open("/root/reference/outputs/short_output.html").read().count("<p>")
        assert content.count("<p") == golden_blocks == 24
        assert "Image download error" in content

    @needs_reference
    def test_golden_structure_modulo_ocr_text(self, tmp_path):
        """Structural comparison against the reference's OWN golden
        (outputs/short_output.html, LocalApplication.java:180-207): same
        <p>-block count, every block is the <img src=...><br/>text shape,
        and the per-URL multiplicity profile matches -- modulo the OCR text
        and URL namespace (no network in the sandbox)."""
        import re

        from distributed_system___ocr_ray.pipelines import extract as pipeline
        from distributed_system___ocr_ray.sources.urls_txt import read_url_files
        from distributed_system___ocr_ray.stages.render_html import write_html_file

        golden = open("/root/reference/outputs/short_output.html").read()
        g_blocks = re.findall(r"<p>(.*?)</p>", golden, re.S)
        g_srcs = re.findall(r'<img src="([^"]+)"', golden)
        # every golden block contains exactly one <img ...><br/> head
        assert all(re.search(r'<img src="[^"]+"><br/>', b) for b in g_blocks)

        ds = read_url_files([REF_SHORT])
        out = pipeline.extract_dataset(ds, {})
        html_path = str(tmp_path / "render.html")
        write_html_file(out, html_path)
        mine = open(html_path).read()
        m_blocks = re.findall(r"<p>(.*?)</p>", mine, re.S)
        m_srcs = re.findall(r'<img src="([^"]+)"', mine)

        assert len(m_blocks) == len(g_blocks) == 24
        assert all(re.search(r'<img src="[^"]+"><br/>', b) for b in m_blocks)
        # duplicate URLs render once PER OCCURRENCE (M5): multiplicity
        # profile identical to the golden's
        from collections import Counter

        assert sorted(Counter(m_srcs).values()) == sorted(Counter(g_srcs).values())

    @needs_reference
    def test_long_input_cardinality(self):
        from distributed_system___ocr_ray.pipelines import extract as pipeline
        from distributed_system___ocr_ray.sources.urls_txt import read_url_files

        ds = read_url_files([REF_LONG])
        out = pipeline.extract_dataset(ds, {}).to_pandas()
        n_lines = sum(1 for line in open(REF_LONG) if line.strip())
        assert n_lines == 1000
        # golden long_output.html has exactly 1000 <p> blocks -- 1:1
        assert len(out.spans[0]) == 1000

    def test_mixed_resolvable_refs(self, tmp_path):
        """URL files whose refs ARE in a media store extract normally."""
        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines import extract as pipeline
        from distributed_system___ocr_ray.sources.urls_txt import read_url_files

        store = corpus.build_media_store(n_img=4, n_pdf=0, seed=9, corrupt_frac=0.0)
        p = tmp_path / "mixed.txt"
        p.write_text(
            f"{corpus.media_ref_img(0)}\n\nhttp://example.com/a.png\n{corpus.media_ref_img(1)}\n"
        )
        ds = read_url_files([str(p)])
        out = pipeline.extract_dataset(ds, store).to_pandas()
        spans = out.spans[0]
        assert len(spans) == 3  # empty line filtered
        assert spans[0]["text"] not in ("", "Image download error")
        assert spans[1]["text"] == "Image download error"
        assert spans[2]["text"] not in ("", "Image download error")
