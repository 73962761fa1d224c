"""Main-content extraction from HTML: DOM text-density boilerplate stripping.

Readability/jusText-style node scoring on a stdlib ``html.parser`` DOM (no
lxml in this environment):

1. parse into an element tree; ``<script>/<style>/<noscript>/<template>/
   <svg>/<iframe>`` subtrees are dropped at parse time;
2. per element compute ``text_len`` (whitespace-normalized descendant text),
   ``link_text_len`` (descendant text under ``<a>``) and
   ``link_density = link_text_len / text_len``;
3. prune boilerplate containers: structural tags (``nav/header/footer/
   aside``), class/id markers (cookie banners, menus, ads), and any block
   whose link density exceeds ``LINK_DENSITY_MAX`` with less than
   ``MIN_CONTENT_CHARS`` of text (short link farms);
4. emit the surviving content in document order as a *positioned line
   table* (the same table the layout path produces) so the downstream
   pairing/normalize/field kernels are shared between the HTML and PDF
   paths: table rows and ``<dt>/<dd>`` pairs become a left-column label line
   plus a right-column value line on the same text row; headings, paragraphs
   and list items become full-width text lines. Rows advance one inch per
   row, 44 rows per page (8.5x11in page model, matching the reference's
   inch-based geometry — /root/reference/src/visualization/pdf_visualizer.py:44-49).

The per-url byte-identity deliverable ``extracted_text`` is
``functions.document.reading_order_text`` over these rows, which arrive
in strictly increasing (page, y) order.

Replaces the reference's FastAPI-era HTML-less ingest (it only accepted
PDFs/images, /root/reference/src/api/main.py:331-338) with the web-page path
required by the north rule; the downstream semantics (pairing onward) are
reference-pinned.
"""

from __future__ import annotations

import re
from html import unescape
from typing import Any

from credit_ocr_backend_ray.functions.lines import LineTable

DROP_TAGS = {"script", "style", "noscript", "template", "svg", "iframe"}
STRUCTURAL_BOILERPLATE = {"nav", "header", "footer", "aside"}
BLOCK_TAGS = {
    "div", "section", "article", "main", "body", "table", "dl", "ul", "ol",
    "p", "h1", "h2", "h3", "h4", "h5", "h6", "li", "tr", "blockquote",
}
_BOILER_MARKERS = (
    "cookie", "banner", "consent", "menu", "navbar", "sidebar", "advert",
    "promo", "share", "social", "breadcrumb",
)
# one alternation scan instead of len(_BOILER_MARKERS) substring passes;
# plain literals, so the match set is identical to any(m in marker ...)
_BOILER_RE = re.compile("|".join(_BOILER_MARKERS))
LINK_DENSITY_MAX = 0.33
MIN_CONTENT_CHARS = 25
ROWS_PER_PAGE = 44
LABEL_X = 0.5
VALUE_X = 3.0
ROW_DY = 0.01  # label/value vertical offset within one text row
LINE_H = 0.18  # nominal line height, inches


class Node:
    __slots__ = ("tag", "_raw_attrs", "_attrs", "children", "parent", "_ls")

    def __init__(self, tag: str, raw_attrs: str, parent: "Node | None"):
        self.tag = tag
        self._raw_attrs = raw_attrs
        self._attrs: dict[str, str] | None = None
        self.parent = parent
        self.children: list[Any] = []  # Node or str
        self._ls: tuple[int, int] | None = None  # link_stats cache

    @property
    def attrs(self) -> dict[str, str]:
        """Attributes, parsed lazily — most nodes never need them (only the
        boilerplate class/id check reads attrs), so the parser stores the
        raw attribute source and defers the regex work."""
        if self._attrs is None:
            d: dict[str, str] = {}
            if self._raw_attrs:
                for m in _ATTR.finditer(self._raw_attrs):
                    v = m.group(2)
                    if v is None:
                        v = ""
                    elif v[:1] in "\"'":
                        v = v[1:-1]
                    d[m.group(1).lower()] = unescape(v) if "&" in v else v
            self._attrs = d
        return self._attrs


VOID = {"br", "hr", "img", "input", "meta", "link", "area", "base",
        "col", "embed", "source", "track", "wbr"}
_RAW_TEXT = {"script", "style"}  # CDATA content model: no nested tag parsing

_ATTR = re.compile(
    r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)\s*(?:=\s*("[^"]*"|'[^']*'|[^\s"'>]*))?""")

# single-pass tokenizer: one regex alternation for every markup construct;
# quoted attribute values may contain ">" (the [^'">] | quoted-string attr
# body mirrors html.parser's locatestarttagend)
_TAG = re.compile(
    r"<(?:"
    r"!--(?:.*?)(?:-->|$)"                       # comment
    r"|!(?:[^>]*)>"                              # doctype / declaration
    r"|\?(?:[^>]*)>"                             # processing instruction
    r"|/\s*(?P<end>[a-zA-Z][^\s>]*)\s*>"         # end tag
    r"|(?P<start>[a-zA-Z][^\s/>]*)"              # start tag
    r"(?P<attrs>(?:\"[^\"]*\"|'[^']*'|[^'\">])*?)(?P<selfclose>/?)>"
    r")", re.S)


def parse_dom(html: str) -> Node:
    """Parse HTML into a tree with a single-pass regex tokenizer (~5x the
    stdlib ``html.parser`` throughput; this is the hot 60% of the per-doc
    kernel). Semantics match the html.parser-based builder this replaces:
    DROP_TAGS subtrees are discarded at parse time, script/style bodies are
    skipped as raw text (no nested tag parsing), unbalanced end tags close
    up to the nearest matching ancestor, character references are decoded,
    and whitespace-only text is dropped."""
    root = Node("#root", "", None)
    cur = root
    drop_depth = 0
    pos = 0
    n = len(html)
    lower: str | None = None  # lazily lowered copy for raw-text end search
    # hot-loop micro-structure (measured 1.27x): positional group tuple
    # instead of named lookups, locals for every global touched per tag
    search = _TAG.search
    drop_tags = DROP_TAGS
    void = VOID
    raw_text = _RAW_TEXT
    node_cls = Node
    unesc = unescape
    # only a comment left open can match past the last ">", so the search
    # stops there: a "<" with no ">" after it is not rescanned to the end
    stop = html.rfind(">") + 1

    while pos < n:
        m = search(html, pos, stop)
        if m is None or (m.end() == stop
                         and html.startswith("<!--", m.start())):
            k = html.find("<!--", pos if m is None else m.start())
            m = search(html, k) if k >= 0 else None
        end = m.start() if m else n
        if end > pos:
            text = html[pos:end]
            if not drop_depth and not text.isspace():
                cur.children.append(unesc(text) if "&" in text else text)
        if not m:
            break
        pos = m.end()

        end_tag, tag, attrs, selfclose = m.groups()
        if tag is not None:
            tag = tag.lower()
            self_close = bool(selfclose) and tag not in void
            if drop_depth or tag in drop_tags:
                if tag not in void and not self_close:
                    drop_depth += 1
            elif not self_close:
                node = node_cls(tag, attrs, cur)
                cur.children.append(node)
                if tag not in void:
                    cur = node
            else:
                cur.children.append(node_cls(tag, attrs, cur))
            if tag in raw_text and not self_close:
                # skip the raw body wholesale; then close the element
                if lower is None:
                    lower = html.lower()
                idx = lower.find("</" + tag, pos)
                if idx == -1:
                    pos = n
                else:
                    gt = html.find(">", idx)
                    pos = n if gt == -1 else gt + 1
                if drop_depth:
                    drop_depth -= 1
            continue

        if end_tag is not None:
            if drop_depth:
                drop_depth -= 1
                continue
            end_tag = end_tag.lower()
            node = cur
            while node is not root:  # tolerate unbalanced markup
                if node.tag == end_tag:
                    cur = node.parent
                    break
                node = node.parent
    return root


def _norm_text(parts: list[str]) -> str:
    return " ".join(" ".join(parts).split())


def _collect_text(node: Node, out: list[str]) -> None:
    for child in node.children:
        if isinstance(child, str):
            out.append(child)
        else:
            _collect_text(child, out)


def node_text(node: Node) -> str:
    parts: list[str] = []
    _collect_text(node, parts)
    return _norm_text(parts)


def link_stats(node: Node, in_link: bool = False) -> tuple[int, int]:
    """(total_chars, link_chars) of normalized descendant text.

    Cached per node (``Node._ls``): the boilerplate scan calls this for
    every block ancestor, which recomputed shared subtrees quadratically.
    Under a link everything is linked, so the ``in_link`` variant derives
    from the cached out-of-link pair."""
    if node._ls is None:
        total = 0
        linked = 0
        for child in node.children:
            if isinstance(child, str):
                # len of the whitespace-normalized text without building it:
                # sum of token lengths + one separator between tokens
                parts = child.split()
                if parts:
                    total += sum(map(len, parts)) + len(parts) - 1
            else:
                t, l = link_stats(child)
                total += t
                linked += t if child.tag == "a" else l
        node._ls = (total, linked)
    total, linked = node._ls
    return (total, total) if in_link else (total, linked)


def is_boilerplate(node: Node) -> bool:
    if node.tag in STRUCTURAL_BOILERPLATE:
        return True
    # attr-less nodes can't carry class/id markers — skip the parse + scan
    if node._raw_attrs or node._attrs:
        marker = (node.attrs.get("class", "")
                  + " " + node.attrs.get("id", "")).lower()
        if _BOILER_RE.search(marker):
            return True
    if node.tag in BLOCK_TAGS:
        total, linked = link_stats(node)
        if total > 0 and linked / total > LINK_DENSITY_MAX and total < MIN_CONTENT_CHARS * 8:
            return True
    return False


def _row_cells(tr: Node) -> list[str]:
    cells = [node_text(c) for c in tr.children
             if isinstance(c, Node) and c.tag in ("td", "th")]
    return [c for c in cells if c]


def _segments(node: Node, out: list[tuple[str, str, str]]) -> None:
    """Depth-first content segments: ("pair", label, value) | ("text", t, "")."""
    for child in node.children:
        if isinstance(child, str):
            continue
        if is_boilerplate(child):
            continue
        tag = child.tag
        if tag == "tr":
            cells = _row_cells(child)
            if len(cells) >= 2:
                out.append(("pair", cells[0], _norm_text([" ".join(cells[1:])])))
                continue
            if len(cells) == 1:
                out.append(("text", cells[0], ""))
                continue
            continue
        if tag == "dl":
            label = None
            for d in child.children:
                if not isinstance(d, Node):
                    continue
                if d.tag == "dt":
                    label = node_text(d)
                elif d.tag == "dd" and label is not None:
                    out.append(("pair", label, node_text(d)))
                    label = None
            continue
        if tag in ("p", "li", "blockquote") or tag.startswith("h") and tag[1:].isdigit():
            text = node_text(child)
            if text:
                out.append(("text", text, ""))
            continue
        _segments(child, out)


def _box(x_center: float, y_center: float, width: float) -> tuple:
    x0, x1 = x_center - width / 2, x_center + width / 2
    y0, y1 = y_center - LINE_H / 2, y_center + LINE_H / 2
    return (x0, y0), (x1, y0), (x1, y1), (x0, y1)


def html_to_lines(html: str) -> LineTable:
    """Extract main content and emit a positioned line table (the layout
    path's shape), one text row per segment: a label line at LABEL_X and
    its value line at VALUE_X, ROW_DY lower, or one full-width text line."""
    root = parse_dom(html)
    segs: list[tuple[str, str, str]] = []
    _segments(root, segs)

    rows = []
    for row, (kind, a, b) in enumerate(segs):
        page = row // ROWS_PER_PAGE + 1
        y = float(row % ROWS_PER_PAGE) + 1.0
        rows.append(("line", a, page, 1.0, _box(LABEL_X, y, 1.8)))
        if kind == "pair":
            rows.append(("line", b, page, 1.0,
                         _box(VALUE_X, y + ROW_DY, 2.6)))
    return LineTable(rows)
