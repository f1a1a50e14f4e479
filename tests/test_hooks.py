"""Pluggable extraction hooks (VERDICT r4 #2/#3): the media fetcher
called on store miss and the injectable real-OCR backend.

Contract under test: with NO hooks (this container's default -- no
network, no tesseract) behavior is byte-identical to before; injected
hooks take the documented paths; hook FAILURES are the reference's
verbatim sentinels as data (Worker.java:87,95,156-172), never a raised
batch; and the checkpoint job identity refuses resume under changed
hooks (same hazard class as a changed media store).
"""

import pyarrow as pa
import pytest

from distributed_system___ocr_ray import (
    SENTINEL_IMAGE_DOWNLOAD,
    SENTINEL_OCR,
    STATUS_DOWNLOAD_ERROR,
    STATUS_OCR_ERROR,
    STATUS_OK,
    STATUS_PARSE_ERROR,
)
from distributed_system___ocr_ray.functions import glyph


def _img_batch(refs):
    n = len(refs)
    return pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "part": pa.array([0] * n, pa.int32()),
        "kind": pa.array(["image"] * n),
        "text": pa.array([""] * n),
        "media_ref": pa.array(refs),
        "offset": pa.array(list(range(n)), pa.int32()),
    })


class TestOcrBackend:
    def test_default_backend_is_none_here(self):
        """No pytesseract in this container: auto resolves to None and the
        glyph decoder remains the only image path."""
        from distributed_system___ocr_ray.stages.extractors import (
            default_ocr_backend,
        )

        assert default_ocr_backend() is None

    def test_injected_backend_handles_non_native_payloads(self):
        """A bytes->str backend takes every non-GLY1 payload; native GLY1
        payloads STILL go through the glyph decoder (the backend cannot
        read the engine's own format)."""
        from distributed_system___ocr_ray.stages.extractors import (
            ExtractDispatch,
        )

        font = glyph.GlyphFont()
        store = {"g": font.render("native glyph text"), "p": b"PNGISH" * 10}
        stage = ExtractDispatch(
            store, ocr_backend=lambda b: f"OCR[{len(b)}]")
        out = stage(_img_batch(["g", "p"]))
        texts = out.column("out_text").to_pylist()
        status = out.column("status").to_pylist()
        assert texts[0] == "native glyph text" and status[0] == STATUS_OK
        assert texts[1] == "OCR[60]" and status[1] == STATUS_OK

    def test_backend_failure_is_ocr_sentinel(self):
        """A raising backend records the reference's verbatim OCR sentinel
        (Worker.java:95) -- errors-as-data, batch survives."""
        from distributed_system___ocr_ray.stages.extractors import (
            ExtractDispatch,
        )

        def bad(_payload: bytes) -> str:
            raise RuntimeError("tesseract exploded")

        stage = ExtractDispatch({"p": b"JPEGdata"}, ocr_backend=bad)
        out = stage(_img_batch(["p"]))
        assert out.column("out_text").to_pylist() == [SENTINEL_OCR]
        assert out.column("status").to_pylist() == [STATUS_OCR_ERROR]

    def test_no_backend_unchanged_sentinel_parity(self):
        """Default (backend absent): non-decodable payload behavior is
        exactly the pre-hook contract."""
        from distributed_system___ocr_ray.stages.extractors import (
            ExtractDispatch,
        )

        stage = ExtractDispatch({"p": b"JPEGdata"})
        out = stage(_img_batch(["p"]))
        assert out.column("out_text").to_pylist() == [SENTINEL_OCR]
        assert out.column("status").to_pylist() == [STATUS_OCR_ERROR]


class TestMediaFetcher:
    def test_fetcher_resolves_store_miss(self):
        """An in-process fake fetcher (Worker.downloadImage analogue,
        Worker.java:156-172) supplies the payload for refs the store
        lacks; store hits never invoke it."""
        from distributed_system___ocr_ray.stages.extractors import (
            ExtractDispatch,
        )

        font = glyph.GlyphFont()
        remote = {"missing": font.render("fetched remote image")}
        calls = []

        def fetch(ref):
            calls.append(ref)
            return remote.get(ref)

        store = {"local": font.render("local image")}
        stage = ExtractDispatch(store, fetcher=fetch)
        out = stage(_img_batch(["local", "missing"]))
        assert out.column("out_text").to_pylist() == [
            "local image", "fetched remote image"]
        assert out.column("status").to_pylist() == [STATUS_OK, STATUS_OK]
        assert calls == ["missing"]  # store hits bypass the fetcher

    def test_fetcher_none_or_raise_is_download_sentinel(self):
        """Fetcher returning None (404) or raising (network error) is the
        verbatim download sentinel (Worker.java:87), per ref."""
        from distributed_system___ocr_ray.stages.extractors import (
            ExtractDispatch,
        )

        def fetch(ref):
            if ref == "boom":
                raise ConnectionError("refused")
            return None

        stage = ExtractDispatch({}, fetcher=fetch)
        out = stage(_img_batch(["gone", "boom"]))
        assert out.column("out_text").to_pylist() == [
            SENTINEL_IMAGE_DOWNLOAD, SENTINEL_IMAGE_DOWNLOAD]
        assert out.column("status").to_pylist() == [
            STATUS_DOWNLOAD_ERROR, STATUS_DOWNLOAD_ERROR]

    def test_no_fetcher_unchanged(self):
        from distributed_system___ocr_ray.stages.extractors import (
            ExtractDispatch,
        )

        out = ExtractDispatch({})(_img_batch(["gone"]))
        assert out.column("out_text").to_pylist() == [SENTINEL_IMAGE_DOWNLOAD]
        assert out.column("status").to_pylist() == [STATUS_DOWNLOAD_ERROR]


class TestNullTextSpan:
    def test_null_text_coalesces_to_empty_ok(self):
        """A NULL text span (legal in a user table) must extract as empty
        text with ok status, never a raised batch."""
        from distributed_system___ocr_ray.stages.extractors import (
            ExtractDispatch,
        )

        batch = pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "part": pa.array([0], pa.int32()),
            "kind": pa.array(["text"]),
            "text": pa.array([None], pa.string()),
            "media_ref": pa.array([""]),
            "offset": pa.array([0], pa.int32()),
        })
        out = ExtractDispatch({})(batch)
        assert out.column("out_text").to_pylist() == [""]
        assert out.column("status").to_pylist() == [STATUS_OK]

    def test_null_text_media_span_matches_oracle(self):
        """An image span with NULL text is a media span like any other: the
        engine keeps it, as the oracle does, and emits its download
        sentinel; a NULL text span is empty and dropped by both."""
        from distributed_system___ocr_ray import oracle
        from distributed_system___ocr_ray.corpus import DOC_SCHEMA
        from distributed_system___ocr_ray.pipelines.extract import BlockExtractor

        spans = [{"kind": "text", "text": f"<p>para {i}</p>", "media_ref": "",
                  "offset": i} for i in range(50)]
        spans += [{"kind": "image", "text": None, "media_ref": "mem://img/gone",
                   "offset": 50},
                  {"kind": "text", "text": None, "media_ref": "", "offset": 51}]
        docs = pa.table({"doc_id": ["d"], "spans": [spans]}, schema=DOC_SCHEMA)
        got = BlockExtractor({}).process(docs)[0].column("spans")[0].as_py()
        want = oracle.extract_document(spans, {})
        assert len(want) == 51
        assert want[-1]["text"] == SENTINEL_IMAGE_DOWNLOAD
        assert got == want

    def test_null_kind_span_is_a_parse_error(self):
        """A span with a NULL kind is an unknown kind, like "video": both
        come out in offset order with empty text and parse_error status,
        never silently dropped."""
        from distributed_system___ocr_ray.corpus import DOC_SCHEMA
        from distributed_system___ocr_ray.pipelines.extract import BlockExtractor

        spans = [{"kind": "text", "text": "<p>a</p>", "media_ref": "", "offset": 0},
                 {"kind": None, "text": "x", "media_ref": "", "offset": 1},
                 {"kind": "video", "text": "y", "media_ref": "", "offset": 2}]
        docs = pa.table({"doc_id": ["d"], "spans": [spans]}, schema=DOC_SCHEMA)
        out, entry = BlockExtractor({}).process(docs)
        got = out.column("spans")[0].as_py()
        assert [(s["kind"], s["text"], s["order"]) for s in got] == [
            ("text", "a", 0), (None, "", 1), ("video", "", 2)]
        assert entry["rows_in"] == 3
        assert entry["status_counts"] == {STATUS_OK: 1, STATUS_PARSE_ERROR: 2}


class TestHttpFetcher:
    """The stdlib urllib fetcher against an IN-PROCESS localhost server --
    the same code path a URL-addressed deployment runs, no external
    network needed."""

    @pytest.fixture()
    def server(self):
        import http.server
        import threading

        from distributed_system___ocr_ray.functions import glyph

        payload = glyph.GlyphFont().render("served over http")

        class H(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                if self.path == "/img/ok.bin":
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                elif self.path == "/img/huge.bin":
                    body = b"x" * 2048
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_response(404)
                    self.end_headers()

            def log_message(self, *a):  # silence
                pass

        srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), H)
        t = threading.Thread(target=srv.serve_forever, daemon=True)
        t.start()
        yield f"http://127.0.0.1:{srv.server_address[1]}", payload
        srv.shutdown()

    def test_fetch_resolve_404_and_size_cap(self, server):
        from distributed_system___ocr_ray.stages.extractors import http_fetcher

        base, payload = server
        fetch = http_fetcher(base_url=base, max_bytes=1024)
        assert fetch("img/ok.bin") == payload          # relative ref
        assert fetch(f"{base}/img/ok.bin") == payload  # absolute ref
        assert fetch("img/gone.bin") is None           # 404 -> miss
        assert fetch("img/huge.bin") is None           # oversize -> miss
        assert http_fetcher()( "img/ok.bin") is None   # no base, relative

    def test_identity_includes_configuration(self):
        """Each fetcher names itself by its configuration, so resume job
        identity tells endpoints apart (the closure's qualname alone is the
        same for every endpoint)."""
        from distributed_system___ocr_ray.stages.extractors import (
            _hook_identity, http_fetcher,
        )

        a = _hook_identity(http_fetcher(base_url="http://a.example/m"), None)
        b = _hook_identity(http_fetcher(base_url="http://b.example/m"), None)
        assert a != b
        assert a == _hook_identity(http_fetcher(base_url="http://a.example/m"), None)
        assert a[0] == ("http_fetcher(base_url='http://a.example/m', "
                        "timeout_sec=10.0, max_bytes=67108864)")

    def test_extraction_stage_through_http(self, server):
        """End-to-end: a store MISS resolves over HTTP and decodes; a 404
        stays the verbatim download sentinel."""
        from distributed_system___ocr_ray.stages.extractors import (
            ExtractDispatch, http_fetcher,
        )

        base, _payload = server
        stage = ExtractDispatch({}, fetcher=http_fetcher(base_url=base))
        out = stage(_img_batch(["img/ok.bin", "img/gone.bin"]))
        assert out.column("out_text").to_pylist() == [
            "served over http", SENTINEL_IMAGE_DOWNLOAD]
        assert out.column("status").to_pylist() == [
            STATUS_OK, STATUS_DOWNLOAD_ERROR]


def _noop_fetcher():
    """A no-op fetcher built as a CLOSURE: cloudpickle ships closures by
    value, so Ray actors receive it without importing the test module
    (a module-level test function would need `tests/` importable on every
    worker)."""

    def fetch(ref):
        return None

    return fetch


@pytest.mark.usefixtures("ray_session")
class TestHookJobIdentity:
    def test_resume_refuses_changed_hooks(self, tmp_path):
        """A checkpointed run started WITH a fetcher must refuse to resume
        WITHOUT it (silent mixed-engine partitions otherwise)."""
        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=8, rows_per_fragment=4)
        docs_dir = str(tmp_path / "documents")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        out = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out, concurrency=2,
                               fetcher=_noop_fetcher())
        with pytest.raises(ValueError) as ei:
            run_extraction_sharded(docs_dir, store, out, concurrency=2)
        assert "hooks" in str(ei.value)

    def test_resume_refuses_changed_fetcher_endpoint(self, tmp_path):
        """Same fetcher kind, different endpoint: a resume must refuse
        (every ref resolves in-store, so neither endpoint is contacted)."""
        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like
        from distributed_system___ocr_ray.stages.extractors import http_fetcher

        corpus.write_corpus(str(tmp_path), n_docs=8, rows_per_fragment=4)
        docs_dir = str(tmp_path / "documents")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))
        out = str(tmp_path / "out")
        run_extraction_sharded(docs_dir, store, out, concurrency=2,
                               fetcher=http_fetcher(base_url="http://127.0.0.1:9/a"))
        moved = http_fetcher(base_url="http://127.0.0.1:9/b")
        for dry_run in (True, False):
            with pytest.raises(ValueError, match="resume parameter mismatch"):
                run_extraction_sharded(docs_dir, store, out, concurrency=2,
                                       fetcher=moved, dry_run=dry_run)

    def test_flagship_output_identical_with_and_without_noop_hooks(self, tmp_path):
        """The full sharded pipeline over the same corpus produces
        IDENTICAL spans with no hooks vs a no-op fetcher that is never
        consulted (all refs resolve in-store) -- flagship parity."""
        import glob

        import pyarrow.parquet as pq

        from distributed_system___ocr_ray import corpus
        from distributed_system___ocr_ray.pipelines.sharded import (
            run_extraction_sharded,
        )
        from distributed_system___ocr_ray.sources import lance_like

        corpus.write_corpus(str(tmp_path), n_docs=16, rows_per_fragment=4)
        docs_dir = str(tmp_path / "documents")
        store = lance_like.read_arrow(str(tmp_path / "media_store"))

        def read_out(out):
            tabs = [pq.read_table(f) for f in
                    sorted(glob.glob(out + "/part=*/data.parquet"))]
            return pa.concat_tables(tabs).sort_by("doc_id")

        out_a = str(tmp_path / "out_plain")
        out_b = str(tmp_path / "out_hooked")
        run_extraction_sharded(docs_dir, store, out_a, concurrency=2)
        run_extraction_sharded(docs_dir, store, out_b, concurrency=2,
                               fetcher=_noop_fetcher())
        assert read_out(out_a).equals(read_out(out_b))
