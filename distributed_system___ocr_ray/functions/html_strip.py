"""Main-content extraction for HTML text spans (axis-A generalization).

DOM-heuristic boilerplate stripping a la Readability / trafilatura, mandated
by the north rule: tag-density / link-ratio / text-block scoring. Built on
the stdlib ``html.parser`` (bs4/lxml are unavailable in the sandbox). This
stage is a pure function of the bytes (SURVEY.md #2.3 T3); it runs inside
the actor-pool ``BlockExtractor`` as one batch call per extraction slice.
The reference has no analogue (it only OCRs images), so the semantics here
ARE the spec and the single-process oracle calls the scalar function.

Heuristics (all deterministic):
- ``<script>``/``<style>`` content is ignored outright.
- Blocks inside semantic boilerplate containers (nav, header, footer, aside)
  are dropped.
- Blocks whose link-text ratio exceeds ``MAX_LINK_RATIO`` are dropped
  (tag-density proxy: anchor-heavy blocks are navigation/ads).
- Remaining blocks are whitespace-normalized and joined with newlines.

Fast path: input with no ``<`` is plain text and returned verbatim (the
testdata ``documents.text`` column is plain text; this keeps the flagship
flat-wrap pipeline exactly SQL-checkable).

Three implementations, one output (measured on the 4,800 distinct pages of
the benchmark's web_pages seed 1, 4 CPUs, one core):

- ``strip_boilerplate_batch`` (the engine's path): every text span of a
  batch in one pass of Arrow string kernels plus numpy -- split on ``<``
  then ``>``, one tag-name extract classified with ``index_in``, container
  and link depth as clamped per-document cumulative sums, blocks from the
  cumsum of cut tags, link ratios from ``np.add.reduceat``, block text from
  list joins. Best of 5, 18-26 us per page at 1,024 pages per call, against
  81-102 us for the scalar function on the same pages. A document the split
  tokenizer cannot represent exactly (non-ASCII text, a comment, a stray
  ``<``, a script/style/title body holding ``<``, an entity that unescapes
  to non-ASCII) goes to ``strip_boilerplate``.
- ``strip_boilerplate``: a compiled-regex tokenizer driving a per-token
  Python state machine. It is the batch path's fallback and the function
  the oracle calls, so the benchmark's expected output stays independent of
  the batch path. ``<script>``/``<style>`` bodies are skipped by scanning
  for the closing tag directly (their bodies may contain bare ``<``).
- ``strip_boilerplate_reference``: the original ``html.parser``-based
  implementation (about 209 us per page), kept as the readable executable
  spec; equality with ``strip_boilerplate`` is pinned by tests on the
  corpus template and common HTML shapes.
  (Known divergence: a quoted ``>`` inside an attribute value ends the tag
  early in the tokenizer -- acceptable for boilerplate heuristics.)
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MAX_LINK_RATIO = 0.33

_BLOCK_TAGS = {
    "p", "div", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5", "h6",
    "td", "tr", "table", "section", "article", "main", "blockquote", "pre",
    "br", "body", "html",
}
_SKIP_TAGS = {"script", "style", "title"}
_BOILERPLATE_CONTAINERS = {"nav", "header", "footer", "aside"}
_WS = re.compile(r"\s+")


class _Block:
    __slots__ = ("chars", "link_chars", "in_boiler")

    def __init__(self, in_boiler: bool) -> None:
        self.chars: list[str] = []
        self.link_chars = 0
        self.in_boiler = in_boiler


class _Extractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[_Block] = []
        self._cur: _Block | None = None
        self._skip_depth = 0
        self._boiler_depth = 0
        self._link_depth = 0

    def _flush(self) -> None:
        self._cur = None

    def _ensure(self) -> _Block:
        if self._cur is None:
            self._cur = _Block(self._boiler_depth > 0)
            self.blocks.append(self._cur)
        return self._cur

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
        if tag in _BOILERPLATE_CONTAINERS:
            self._boiler_depth += 1
        if tag == "a":
            self._link_depth += 1
        if tag in _BLOCK_TAGS or tag in _BOILERPLATE_CONTAINERS:
            self._flush()

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_TAGS and self._skip_depth:
            self._skip_depth -= 1
        if tag in _BOILERPLATE_CONTAINERS and self._boiler_depth:
            self._boiler_depth -= 1
        if tag == "a" and self._link_depth:
            self._link_depth -= 1
        if tag in _BLOCK_TAGS or tag in _BOILERPLATE_CONTAINERS:
            self._flush()

    def handle_data(self, data: str) -> None:
        if self._skip_depth:
            return
        if not data.strip():
            return
        blk = self._ensure()
        blk.chars.append(data)
        n = len(data.strip())
        if self._link_depth:
            blk.link_chars += n


def _render_blocks(blocks: list[_Block]) -> str:
    kept: list[str] = []
    for blk in blocks:
        raw = _WS.sub(" ", "".join(blk.chars)).strip()
        if not raw:
            continue
        if blk.in_boiler:
            continue
        total = sum(len(c.strip()) for c in blk.chars)
        if total and blk.link_chars / total > MAX_LINK_RATIO:
            continue
        kept.append(raw)
    return "\n".join(kept)


def strip_boilerplate_reference(text: str) -> str:
    """html.parser-based implementation (the readable spec)."""
    if "<" not in text:
        return text  # plain-text fast path (exactly SQL-checkable)
    parser = _Extractor()
    try:
        parser.feed(text)
        parser.close()
    except Exception:
        # html.parser is forgiving; treat a hard failure as no extractable
        # content rather than killing the block (errors-as-data contract).
        return ""
    return _render_blocks(parser.blocks)


_TOKEN = re.compile(r"<!(?:--.*?--\s*)?>|<!--.*?-->|<[^>]*>|[^<]+", re.S)
_TAGNAME = re.compile(r"</?\s*([a-zA-Z][a-zA-Z0-9]*)")
_HAS_ENTITY = re.compile(r"&[#a-zA-Z]")
_WS_CHARS = " \t\n\r\f\v"


def _ends_selfclosing(rest: str) -> bool:
    """Does the '/' before the final '>' self-close the tag, html.parser
    style? ``rest`` is everything between the tag name and the closing '>'.
    Mirrors tagfind/attrfind tolerant consumption: whitespace and stray '/'
    between attributes are separators; an UNQUOTED attribute value runs to
    the next whitespace and swallows any '/' inside it (so '<a href=x/>' is
    a normal start tag); a quoted value runs to its matching quote. The tag
    self-closes iff, after all attributes, only whitespace/'/' remain."""
    i, n = 0, len(rest)
    while True:
        while i < n and rest[i] in _WS_CHARS:
            i += 1
        if i >= n:
            return False  # ended without a trailing '/'
        if rest[i] == "/":
            j = i
            while j < n and (rest[j] in _WS_CHARS or rest[j] == "/"):
                j += 1
            if j >= n:
                return True  # only '/'s and whitespace remain
            i = j  # stray '/' between attributes: separator, keep walking
            continue
        # attribute name (stops at ws, '=', '/')
        while i < n and rest[i] not in _WS_CHARS and rest[i] not in "=/":
            i += 1
        while i < n and rest[i] in _WS_CHARS:
            i += 1
        if i < n and rest[i] == "=":
            i += 1
            while i < n and rest[i] in _WS_CHARS:
                i += 1
            if i < n and rest[i] in "\"'":
                q = rest[i]
                i += 1
                while i < n and rest[i] != q:
                    i += 1
                i += 1  # past the closing quote (or end)
            else:
                # unquoted value: runs to whitespace, '/' included
                while i < n and rest[i] not in _WS_CHARS:
                    i += 1


def strip_boilerplate(text: str) -> str:
    """HTML -> main-content text (regex-tokenizer hot path; same block state
    machine and scoring as ``strip_boilerplate_reference``)."""
    if "<" not in text:
        return text  # plain-text fast path (exactly SQL-checkable)
    from html import unescape

    blocks: list[_Block] = []
    cur: _Block | None = None
    boiler_depth = 0
    link_depth = 0
    lower = None  # lazily lowered copy for script/style body skipping
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:  # trailing lone '<'
            break
        tok = m.group(0)
        pos = m.end()
        if tok[0] != "<":
            if not tok.isspace():
                if cur is None:
                    cur = _Block(boiler_depth > 0)
                    blocks.append(cur)
                data = unescape(tok) if "&" in tok else tok
                cur.chars.append(data)
                if link_depth:
                    cur.link_chars += len(data.strip())
            continue
        if tok[1:2] == "!":
            continue  # comment / doctype
        nm = _TAGNAME.match(tok)
        if nm is None:
            continue  # stray '<...>' with no tag name
        tag = nm.group(1).lower()
        closing = tok[1:2] == "/"
        # html.parser parity: '<script/>' fires startendtag (start+end, NO
        # cdata mode), so a self-closing skip tag has no raw body to jump --
        # entering the skip scan here would discard the rest of the document.
        # BUT a '/' can also be the tail of an UNQUOTED attribute value
        # ('<script src=foo/>' is a normal start tag): decide by walking the
        # attributes the way html.parser's tolerant attrfind consumes them.
        selfclose = (
            not closing and tok.endswith("/>") and _ends_selfclosing(tok[nm.end() : -1])
        )
        if not closing and tag in _SKIP_TAGS:
            if selfclose:
                continue
            # jump past the raw body (script bodies may contain bare '<').
            # An UNCLOSED skip tag jumps to EOF -- this matches html.parser,
            # which stays in cdata mode and never emits the trailing data.
            if lower is None:
                lower = text.lower()
            end = lower.find(f"</{tag}", pos)
            pos = n if end < 0 else lower.find(">", end) + 1 or n
            continue
        if tag in _BOILERPLATE_CONTAINERS:
            # self-closing container = +1 then -1: depth unchanged, block cut
            if not selfclose:
                boiler_depth = max(0, boiler_depth - 1) if closing else boiler_depth + 1
            cur = None
            continue
        if tag == "a" and not selfclose:  # '<a/>' nets link_depth +1-1 = 0
            link_depth = max(0, link_depth - 1) if closing else link_depth + 1
        if tag in _BLOCK_TAGS:
            cur = None
    return _render_blocks(blocks)


# -- batch kernel ----------------------------------------------------------
# str.isspace()/str.strip()/re's \s agree on this set for ASCII text
_WS_SET = " \t\n\v\f\r\x1c\x1d\x1e\x1f"
_WS_CLASS = "[\t-\r\x1c-\x1f ]"
_TAG_NAME_RE = rf"^/?{_WS_CLASS}*(?P<name>[a-zA-Z][a-zA-Z0-9]*)?"
_TAG_NAMES = sorted(_BLOCK_TAGS | _BOILERPLATE_CONTAINERS | _SKIP_TAGS | {"a"})
_TAG_SET = pa.array(_TAG_NAMES)
# per tag code (index into _TAG_NAMES; the extra last code is any other tag)
_IS_CUT = np.array([t in _BLOCK_TAGS or t in _BOILERPLATE_CONTAINERS for t in _TAG_NAMES] + [False])
_IS_BOILER = np.array([t in _BOILERPLATE_CONTAINERS for t in _TAG_NAMES] + [False])
_IS_LINK = np.array([t == "a" for t in _TAG_NAMES] + [False])
_IS_SKIP = np.array([t in _SKIP_TAGS for t in _TAG_NAMES] + [False])
_SELFCLOSE_MATTERS = _IS_BOILER | _IS_LINK | _IS_SKIP


def _clamped_depth(delta: np.ndarray, doc: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per-document running ``max(0, depth + delta)`` from depth 0: with S the
    running sum, the clamped walk is S_i - min(0, min_{j<=i} S_j). Shifting
    document d down by d*K (K above any in-document range) makes one global
    running minimum never reach back into an earlier document."""
    s = np.cumsum(delta)
    s -= (s - delta)[first][doc]  # restart the sum at each document
    k = 2 * len(delta) + 1
    low = np.minimum.accumulate(s - doc * k) + doc * k
    return s - np.minimum(low, 0)


def _strip_ascii_html(docs: pa.Array) -> tuple[list[str], np.ndarray]:
    """``strip_boilerplate`` over ASCII documents that contain ``<``, in one
    pass of Arrow string kernels: the stripped texts, and per document
    whether the split tokenizer cannot represent it exactly (the caller
    redoes those with the scalar path)."""
    m = len(docs)
    # piece = '<' .. next '<'; the leading '>' gives the text before the
    # first '<' an empty tag, so every piece is "tag>data"
    pieces = pc.split_pattern(pc.binary_join_element_wise(">", docs, ""), "<")
    piece_off = pieces.offsets.to_numpy()
    n = piece_off[-1]
    doc = np.repeat(np.arange(m), np.diff(piece_off))
    first = np.zeros(n, bool)
    first[piece_off[:-1]] = True
    split = pc.split_pattern(pieces.flatten(), ">", max_splits=1)
    split_off = split.offsets.to_numpy()
    halves = split.flatten()
    has_gt = np.diff(split_off) == 2
    tags = halves.take(split_off[:-1])
    data = halves.take(np.where(has_gt, split_off[:-1] + 1, split_off[:-1]))
    # a piece without '>' is a '<' inside a tag or with no later '>', and
    # "<!--" opens a comment that may hold '>': the scalar tokenizer's job
    bad = ~has_gt | pc.starts_with(tags, "!--").to_numpy(zero_copy_only=False)

    closing = pc.starts_with(tags, "/").to_numpy(zero_copy_only=False)
    names = pc.struct_field(pc.extract_regex(tags, _TAG_NAME_RE), [0])
    code = pc.fill_null(pc.index_in(pc.ascii_lower(names), value_set=_TAG_SET),
                        len(_TAG_NAMES)).to_numpy()
    selfclose = np.zeros(n, bool)
    maybe = np.flatnonzero(_SELFCLOSE_MATTERS[code] & ~closing
                           & pc.ends_with(tags, "/").to_numpy(zero_copy_only=False))
    for i, t in zip(maybe, tags.take(maybe).to_pylist()):
        tok = f"<{t}>"
        selfclose[i] = _ends_selfclosing(tok[_TAGNAME.match(tok).end() : -1])
    sign = np.where(closing, -1, np.where(selfclose, 0, 1))

    # a skip tag's body is its piece's data; the next piece must be its end
    # tag, or the body held a '<' (a document's last piece runs to EOF)
    skip = _IS_SKIP[code] & ~closing & ~selfclose
    at = np.flatnonzero(skip)
    nxt = at + 1
    inside = nxt < piece_off[doc[at] + 1]
    at, nxt = at[inside], nxt[inside]
    if len(at):
        ends = pc.ascii_lower(tags.take(nxt))
        closed = np.zeros(len(at), bool)
        for t in _SKIP_TAGS:
            sel = code[at] == _TAG_NAMES.index(t)
            closed |= sel & pc.starts_with(ends, "/" + t).to_numpy(zero_copy_only=False)
        bad[at[~closed]] = True

    strip_len = pc.binary_length(pc.ascii_trim(data, _WS_SET)).to_numpy().copy()
    keep = (strip_len > 0) & ~skip
    amp = np.flatnonzero(keep & pc.match_substring(data, "&").to_numpy(zero_copy_only=False))
    if len(amp):
        from html import unescape

        text = [unescape(t) for t in data.take(amp).to_pylist()]
        for i, t in zip(amp, text):
            strip_len[i] = len(t.strip())
            bad[i] |= not t.isascii()
        mask = np.zeros(n, bool)
        mask[amp] = True
        data = pc.replace_with_mask(data, pa.array(mask), pa.array(text, pa.string()))

    # blocks: a block or container tag cuts; container depth changes only at
    # cuts, so a block is boilerplate as a whole and is dropped up front
    block = np.cumsum(_IS_CUT[code] | first)
    boiler = _clamped_depth(np.where(_IS_BOILER[code], sign, 0), doc, first) > 0
    link = _clamped_depth(np.where(_IS_LINK[code], sign, 0), doc, first) > 0
    bad_doc = np.bincount(doc, weights=bad, minlength=m) > 0
    kp = np.flatnonzero(keep & ~boiler)
    if not len(kp):
        return [""] * m, bad_doc
    starts = np.flatnonzero(np.r_[True, block[kp][1:] != block[kp][:-1]])
    lens = strip_len[kp]
    total = np.add.reduceat(lens, starts)
    linked = np.add.reduceat(np.where(link[kp], lens, 0), starts)
    with np.errstate(invalid="ignore"):  # total 0: entities unescaped to
        good = linked / total <= MAX_LINK_RATIO  # blanks; NaN drops the block
    count = np.diff(np.r_[starts, len(kp)])
    kp = kp[np.repeat(good, count)]
    offs = np.r_[0, np.cumsum(count[good])].astype(np.int32)
    blocks = pc.binary_join(pa.ListArray.from_arrays(offs, data.take(kp)), "")
    # collapse whitespace runs only where a block has more than lone spaces
    ragged = pc.match_substring_regex(blocks, "[\t-\r\x1c-\x1f]|  ")
    if pc.any(ragged).as_py():
        collapsed = pc.replace_substring_regex(blocks.filter(ragged), _WS_CLASS + "+", " ")
        blocks = pc.replace_with_mask(blocks, ragged, collapsed)
    blocks = pc.ascii_trim(blocks, " ")
    nonempty = pc.binary_length(blocks).to_numpy() > 0
    block_doc = doc[kp[offs[:-1]]][nonempty]
    doc_off = np.r_[0, np.cumsum(np.bincount(block_doc, minlength=m))].astype(np.int32)
    out = pc.binary_join(pa.ListArray.from_arrays(doc_off, blocks.filter(pa.array(nonempty))), "\n")
    return out.to_pylist(), bad_doc


def strip_boilerplate_batch(texts: pa.Array) -> list[str]:
    """``strip_boilerplate`` over every text of a batch (null reads as
    empty). ASCII documents with markup take the Arrow kernel path; a
    document it cannot represent exactly -- non-ASCII text, a comment, a
    stray '<', a raw script/style/title body holding '<', or an entity
    that unescapes to non-ASCII -- is stripped by the scalar function."""
    texts = pc.fill_null(texts, "")
    out = texts.to_pylist()
    markup = pc.match_substring(texts, "<")
    ascii_ = pc.string_is_ascii(texts)
    fast = np.flatnonzero(pc.and_(markup, ascii_).to_numpy(zero_copy_only=False))
    if len(fast):
        stripped, bad = _strip_ascii_html(texts.take(fast))
        for i, s, b in zip(fast, stripped, bad):
            out[i] = strip_boilerplate(out[i]) if b else s
    for i in np.flatnonzero(pc.and_not(markup, ascii_).to_numpy(zero_copy_only=False)):
        out[i] = strip_boilerplate(out[i])
    return out
