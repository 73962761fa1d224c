"""Regression tests for the regex HTML tokenizer (functions/html_extract.py)
— behavior pinned when it replaced the stdlib html.parser tree builder
(equivalence was verified against the old builder on the full synth corpus
plus these edge cases; this file keeps that contract)."""

import pytest

from credit_ocr_backend_ray.functions.document import reading_order_text
from credit_ocr_backend_ray.functions.html_extract import (
    html_to_lines, link_stats, node_text, parse_dom,
)


def _text(html):
    return reading_order_text(html_to_lines(html))


def test_self_closing_tag_inside_dropped_subtree():
    # <circle/> must not unbalance the svg drop depth
    assert _text("<svg><circle/><text>no</text></svg><p>kept</p>") == "kept"


def test_script_body_is_raw_text():
    # tags inside script are NOT parsed (CDATA content model)
    assert _text('<script>var x="<div>no</div>";</script><p>after</p>') == "after"
    assert _text("<STYLE>.x{}</STYLE><P>caps</P>") == "caps"


def test_unterminated_script_drops_rest():
    assert _text("<p>before</p><script>var x=1;") == "before"


def test_charrefs_decoded_in_text_and_attrs():
    assert _text("<p>a &amp; b &lt;c&gt;</p>") == "a & b <c>"
    root = parse_dom('<div class="a&amp;b">x</div>')
    assert root.children[0].attrs["class"] == "a&b"


def test_quoted_gt_in_attribute():
    assert _text('<p title="a>b">tricky</p>') == "tricky"


def test_comments_and_doctype_ignored():
    assert _text("<!DOCTYPE html><!-- c <p>no</p> --><p>real</p>") == "real"


def test_unbalanced_end_tags_close_to_ancestor():
    # no implied end tags: the second <p> nests inside the first (matching
    # the original html.parser builder), so the outer <p> segment owns both
    # texts; stray </em> is a no-op; </div> closes past both p's
    assert _text("<div><p>one<p>two</em></div><p>three</p>") == (
        "one two\nthree")


def test_attrs_parsed_lazily_and_lowercased():
    root = parse_dom("<div CLASS='X' data-Foo=bar empty>t</div>")
    node = root.children[0]
    assert node.attrs == {"class": "X", "data-foo": "bar", "empty": ""}


def test_boilerplate_class_marker_dropped():
    assert _text('<div class="Cookie-Banner"><p>gone</p></div><p>ok</p>') == "ok"


def test_void_elements_do_not_nest():
    assert _text("<p>a<br>b</p><p>c</p>") == "a b\nc"


def test_link_stats_cache_consistency():
    root = parse_dom('<div><a href="x">link text</a> and more words</div>')
    first = link_stats(root)
    assert link_stats(root) == first          # cached second call
    assert first == (len("link text") + len("and more words"),
                     len("link text"))
    assert node_text(root) == "link text and more words"


def test_noscript_template_iframe_subtrees_dropped():
    assert _text("<noscript><p>n</p></noscript><p>y</p>") == "y"
    assert _text("<template><p>t</p></template><p>u</p>") == "u"
    assert _text("<iframe><p>i</p></iframe><p>j</p>") == "j"


def test_plain_text_and_empty_inputs():
    assert html_to_lines("") == []
    assert html_to_lines("   ") == []
    # bare text outside any block tag is not a content segment
    assert html_to_lines("no tags at all") == []


def _shape(node):
    return [c if isinstance(c, str) else (c.tag, c._raw_attrs, _shape(c))
            for c in node.children]


def test_unterminated_start_tags_parse_in_linear_time():
    """60 KB of ``<a `` with no ``>`` after them is text, found in one
    scan: the tokenizer once rescanned to the end from every ``<`` (39 s)."""
    import time

    html = "<a " * 20000
    t0 = time.perf_counter()
    root = parse_dom("<p>x > y</p>" + html)
    assert time.perf_counter() - t0 < 3.0
    assert _shape(root) == [("p", "", ["x > y"]), html]


@pytest.mark.parametrize("html, shape", [
    ("x > y <a <b", ["x > y <a <b"]),
    ("<p>t</p><!-- c <a ", [("p", "", ["t"])]),
    ("<p>t</p><!-- c <a \n", [("p", "", ["t"])]),
    ("<p>t</p><!-- c --> tail <a ", [("p", "", ["t"]), " tail <a "]),
    ("<a href='>'> x <b", [("a", " href='>'", [" x <b"])]),
    ('<a title="x <b', ['<a title="x <b']),
    ("<p>t</p><!x <a ", [("p", "", ["t"]), "<!x <a "]),
])
def test_tail_without_gt_keeps_tokens(html, shape):
    assert _shape(parse_dom(html)) == shape
