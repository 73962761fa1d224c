"""Layout flattening (reference postprocess.py:20-71 semantics) and the
DOM text-density HTML extractor."""

import hashlib
import json
import math
import random

import pytest

from credit_ocr_backend_ray.functions.document import reading_order_text
from credit_ocr_backend_ray.functions.html_extract import (
    html_to_lines, link_stats, node_text, parse_dom,
)
from credit_ocr_backend_ray.functions.layout import flatten_layout
from credit_ocr_backend_ray.sources.synth import _form_html, _layout_doc, form_rows


def _word(content, x, y, conf):
    return {"content": content, "confidence": conf, "polygon": [
        {"x": x, "y": y - 0.05}, {"x": x + 0.5, "y": y - 0.05},
        {"x": x + 0.5, "y": y + 0.05}, {"x": x, "y": y + 0.05}]}


def test_flatten_line_confidence_is_word_mean_rounded():
    doc = {"pages": [{
        "page_number": 1,
        "lines": [{"content": "ab cd", "polygon": [
            {"x": 0.0, "y": 0.9}, {"x": 2.0, "y": 0.9},
            {"x": 2.0, "y": 1.1}, {"x": 0.0, "y": 1.1}]}],
        "words": [_word("ab", 0.1, 1.0, 0.913), _word("cd", 1.0, 1.0, 0.5),
                  _word("far", 0.1, 5.0, 0.1)],  # outside the line box
    }]}
    recs = flatten_layout(doc)
    line = recs[0]
    assert line["type"] == "line"
    assert line["confidence"] == round((0.913 + 0.5) / 2, 2)  # 0.71
    words = [r for r in recs if r["type"] == "word"]
    assert [w["confidence"] for w in words] == [0.91, 0.5, 0.1]
    assert all(r["page"] == 1 for r in recs)


def test_flatten_no_words_inside_gives_none():
    doc = {"pages": [{"page_number": 1,
                      "lines": [{"content": "x", "polygon": [
                          {"x": 0, "y": 0}, {"x": 1, "y": 0},
                          {"x": 1, "y": 1}, {"x": 0, "y": 1}]}],
                      "words": []}]}
    assert flatten_layout(doc)[0]["confidence"] is None


def test_synth_layout_doc_flattens_to_44_lines():
    recs = flatten_layout(json.loads(_layout_doc(0)))
    lines = [r for r in recs if r["type"] == "line"]
    assert len(lines) == 44
    assert all(r["confidence"] is not None for r in lines)


def test_html_boilerplate_is_stripped():
    lines = html_to_lines(_form_html(2))
    text = reading_order_text(lines)
    assert "Cookies" not in text
    assert "Rubrik" not in text          # nav link farm
    assert "Impressum" not in text       # footer
    assert "Kreditantrag Gewerbeimmobilie" in text  # main h1 kept


def test_html_table_rows_become_label_value_lines():
    lines = html_to_lines(_form_html(2))
    texts = [l["text"] for l in lines]
    rows = form_rows(2)
    for label, value in rows:
        assert label in texts
        assert value in texts
    # label line immediately followed by its value line
    i = texts.index("Firmenname")
    assert texts[i + 1] == rows[0][1]


def test_html_pagination_after_44_rows():
    lines = html_to_lines(_form_html(137))  # oversized page: 100 extra paras
    assert max(l["page"] for l in lines) > 1


def test_link_stats_and_node_text():
    root = parse_dom('<div><a href="x">link text</a> and more words</div>')
    total, linked = link_stats(root)
    assert linked == len("link text")
    # per-text-node normalization: inter-node separators aren't counted
    assert total == len("link text") + len("and more words")
    assert node_text(root) == "link text and more words"


def test_dl_pairs():
    lines = html_to_lines(
        "<html><body><main><dl><dt>Firmenname</dt><dd>X GmbH</dd>"
        "</dl></main></body></html>")
    assert [l["text"] for l in lines] == ["Firmenname", "X GmbH"]


def _random_layout_doc(r: random.Random) -> dict:
    """Up to two pages of lines and words on a few shared rows: polygons
    that are absent, empty, cut short or shuffled, coordinates mixing
    ints, rounded floats, NaN and +-inf, and None/absent confidences."""
    special = (math.nan, math.inf, -math.inf)
    wild = r.random() < 0.4

    def v(base):
        u = r.random()
        if wild and u < 0.06:
            return r.choice(special)
        if u < 0.15:
            return r.randint(0, 5)
        if u < 0.4:
            return base
        return round(base + r.uniform(-0.1, 0.1), r.choice((1, 2, 6)))

    def poly(x, y, w, h):
        u = r.random()
        if u < 0.08:
            return None if u < 0.05 else []
        pts = [{"x": v(x), "y": v(y)}, {"x": v(x + w), "y": v(y)},
               {"x": v(x + w), "y": v(y + h)}, {"x": v(x), "y": v(y + h)}]
        if r.random() < 0.3:
            r.shuffle(pts)
        return pts[:r.randint(1, 3)] if r.random() < 0.1 else pts

    pages = []
    for pn in range(r.randint(0, 2)):
        rows = [r.choice((0.5, 1.0, 1.2, 2.0, 3.0, 3.05))
                for _ in range(r.randint(1, 6))]
        lines = [{"content": "l", "polygon": poly(
                     r.choice((0.2, 0.5, 3.0)), r.choice(rows) - 0.05,
                     r.choice((1.0, 3.0)), r.choice((0.1, 0.12, 0.2)))}
                 for _ in range(r.randint(0, 8))]
        words = []
        for _ in range(r.randint(0, 16)):
            w = {"content": "w", "polygon": poly(
                r.choice((0.2, 0.6, 1.1, 3.0, 3.5)), r.choice(rows) - 0.05,
                0.4, r.choice((0.1, 0.12)))}
            u = r.random()
            if u < 0.15:
                w["confidence"] = None
            elif u < 0.9:
                w["confidence"] = r.choice((0.913, 0.5, 1.0, 0.333, 1))
            words.append(w)
        pages.append({"page_number": pn + 1, "lines": lines,
                      "words": words})
    return {"pages": pages}


def _edge_docs() -> list[dict]:
    """A line holding three words out of y order whose rounded mean
    depends on the summation order (0.63 in word order, 0.64 in y
    order), and lines with string coordinates, which fail or not exactly
    where the all-words scan's comparisons did."""
    def box(x0, x1, y0, y1):
        return [{"x": x0, "y": y0}, {"x": x1, "y": y0},
                {"x": x1, "y": y1}, {"x": x0, "y": y1}]

    line = {"content": "a b c", "polygon": box(0, 3, 0.9, 1.1)}
    words = [_word("a", 0.1, 1.05, 0.964), _word("b", 1.0, 0.95, 0.517),
             _word("c", 2.0, 1.0, 0.424)]
    return [
        {"pages": [{"page_number": 1, "lines": [line], "words": words}]},
        {"pages": [{"page_number": 1, "words": words, "lines": [
            {"content": "s", "polygon": box(0, 3, "0.9", "1.1")}]}]},
        {"pages": [{"page_number": 1, "words": words, "lines": [
            {"content": "s", "polygon": box(5, 6, "0.9", "1.1")}]}]},
        {"pages": [{"page_number": 1, "words": [], "lines": [
            {"content": "s", "polygon": box("0", "3", 0.9, 1.1)}]}]},
    ]


# sha256 over the outcomes of 300 _random_layout_doc(random.Random(11))
# docs and _edge_docs(), from the all-words containment scan that
# preceded the y-window
_PARITY_DIGEST = ("5c086b265b1119f32ae48b33fe3e01ad"
                  "3246fad4a474f7e893d3b5c72ccfd714")


def test_flatten_outcomes_match_all_words_scan():
    """Every record list of a seeded corpus with NaN/inf polygons and
    None confidences is what testing every word against every line
    produced (the float sum order shows in ``round(mean, 2)``)."""
    r = random.Random(11)
    h = hashlib.sha256()
    docs = [_random_layout_doc(r) for _ in range(300)] + _edge_docs()
    for doc in docs:
        try:
            out = repr(flatten_layout(doc))
        except Exception as e:  # noqa: BLE001 — the error is the outcome
            out = f"{type(e).__name__}: {e}"
        h.update(hashlib.sha256(out.encode()).digest())
    assert h.hexdigest() == _PARITY_DIGEST


def test_flatten_polygon_errors_raise_at_the_first_bad_point():
    """Polygon coordinates are read lazily in point order: a string ``x``
    at point 1 fails before the missing ``x`` at point 2 is reached,
    for a word's center and for a line's envelope alike."""
    bad = [{"x": 0.5, "y": 1.0}, {"x": "0.7", "y": 1.0}, {"y": 1.1},
           {"x": 0.5, "y": 1.1}]
    word = _word("w", 0.5, 1.05, 0.9)
    docs = [
        ({"content": "w", "confidence": 0.9, "polygon": bad}, None,
         "unsupported operand type(s) for +: 'float' and 'str'"),
        (word, {"content": "l", "polygon": bad},
         "'<' not supported between instances of 'str' and 'float'"),
    ]
    for w, line, msg in docs:
        doc = {"pages": [{"page_number": 1, "words": [w],
                          "lines": [line] if line else []}]}
        with pytest.raises(TypeError) as err:
            flatten_layout(doc)
        assert str(err.value) == msg
