"""Label-value pairing + normalization semantics (reference parity:
src/ocr/postprocess.py; fixture expectations from
tests/test_postprocess_label_extraction.py)."""

import hashlib
import math
import random

import pytest

from credit_ocr_backend_ray.functions.normalize import normalize_lines
from credit_ocr_backend_ray.functions.pairing import pair_label_values

MICRO = [
    {"type": "line", "text": "Firmenname", "page": 1,
     "bounding_box": [{"x": 0.5, "y": 1.0}] * 4},
    {"type": "line", "text": "Demo Tech GmbH", "page": 1,
     "bounding_box": [{"x": 3.0, "y": 1.01}] * 4},
    {"type": "line", "text": "USt-ID: DE123456789", "page": 1,
     "bounding_box": [{"x": 0.5, "y": 2.0}] * 4},
]


def test_micro_fixture_pairs():
    pairs = pair_label_values(MICRO)
    got = {(p["label"], p["value"]) for p in pairs}
    assert ("Firmenname", "Demo Tech GmbH") in got      # fallback mode
    assert ("USt-ID", "DE123456789") in got             # colon mode
    assert len(pairs) == 2


def test_colon_pairs_come_first():
    pairs = pair_label_values(MICRO)
    assert pairs[0]["label"] == "USt-ID"  # pass 1 appends before pass 2


def test_canonical_form_all_22_pairs(canonical_form_lines):
    pairs = pair_label_values(canonical_form_lines)
    assert len(pairs) == 22
    by_label = {p["label"]: p for p in pairs}
    p = by_label["Rechtsform"]
    assert p["value"] == "Gesellschaft mit beschränkter Haftung (GmbH)"
    assert p["page"] == 1
    # min(label 0.95, value 0.97)
    assert p["confidence"] == 0.95
    # OCR-typo passthrough (reference test :72)
    assert by_label["Adresse"]["value"] == "Innovationsntraße 1, 70469 Stuttgart"


def test_pair_confidence_is_min(canonical_form_lines):
    pairs = pair_label_values(canonical_form_lines)
    for p in pairs:
        if ":" not in p["label"]:
            assert p["confidence"] == 0.95  # label conf is the min everywhere


def test_words_are_ignored():
    lines = MICRO + [
        {"type": "word", "text": "Firmenname", "page": 1,
         "bounding_box": [{"x": 0.5, "y": 1.0}] * 4, "confidence": 0.9},
    ]
    assert len(pair_label_values(lines)) == 2


def test_right_column_line_is_not_a_label():
    lines = [
        {"type": "line", "text": "OnlyValue", "page": 1,
         "bounding_box": [{"x": 3.0, "y": 1.0}] * 4},
    ]
    assert pair_label_values(lines) == []


def test_fallback_respects_y_thresh():
    lines = [
        {"type": "line", "text": "Label", "page": 1,
         "bounding_box": [{"x": 0.5, "y": 1.0}] * 4},
        {"type": "line", "text": "TooFar", "page": 1,
         "bounding_box": [{"x": 3.0, "y": 1.3}] * 4},  # dy=0.3 > 0.2
    ]
    assert pair_label_values(lines) == []
    lines[1]["bounding_box"] = [{"x": 3.0, "y": 1.2}] * 4  # dy=0.2 boundary
    assert len(pair_label_values(lines)) == 1


def test_none_confidence_in_pass2_raises_like_reference():
    # reference quirk: min(None, x) in pass 2 raises TypeError
    # (postprocess.py:180); the pipeline isolates it per row
    lines = [
        {"type": "line", "text": "Label", "page": 1, "confidence": None,
         "bounding_box": [{"x": 0.5, "y": 1.0}] * 4},
        {"type": "line", "text": "Value", "page": 1, "confidence": 0.9,
         "bounding_box": [{"x": 3.0, "y": 1.01}] * 4},
    ]
    with pytest.raises(TypeError):
        pair_label_values(lines)


def test_normalize_shapes(canonical_form_lines):
    items = normalize_lines(canonical_form_lines)
    pairs = [i for i in items if i["type"] == "label_value"]
    texts = [i for i in items if i["type"] == "text_line"]
    assert len(pairs) == 22
    assert len(texts) == 44  # every line re-emitted
    assert items[:22] == pairs  # pairs first, then text lines
    for i in pairs:
        assert set(i) == {"type", "label", "value", "page", "confidence",
                          "bounding_box"}
    for i in texts:
        assert set(i) == {"type", "text", "page", "confidence",
                          "bounding_box"}


def test_normalize_skips_boxless_lines():
    lines = MICRO + [
        {"type": "line", "text": "nobox", "page": 1, "bounding_box": None},
    ]
    items = normalize_lines(lines)
    assert all(i.get("text") != "nobox" for i in items)


def test_normalize_confidence_backfill():
    # colon pair with no own confidence: backfilled via exact-text lookup
    lines = [
        {"type": "line", "text": "A: B", "page": 1,
         "bounding_box": [{"x": 0.5, "y": 1.0}] * 4},
        {"type": "line", "text": "A", "page": 1, "confidence": 0.7,
         "bounding_box": [{"x": 0.5, "y": 2.0}] * 4},
        {"type": "line", "text": "B", "page": 1, "confidence": 0.6,
         "bounding_box": [{"x": 0.5, "y": 3.0}] * 4},
    ]
    items = normalize_lines(lines)
    pair = next(i for i in items if i["type"] == "label_value")
    assert pair["confidence"] == 0.6  # min of both ends


def test_confidence_backfill_is_linear_in_rows():
    """50,000 colon lines with no words: every pair needs a backfill and
    no row has its label as text, so a per-pair scan over the rows is
    quadratic (minutes); one first-text index is milliseconds."""
    import json
    import time

    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document

    n = 50_000
    doc = {"pages": [{"page_number": 1,
                      "lines": [{"content": "a:1"}] * n}]}
    t0 = time.perf_counter()
    out = extract_document(json.dumps(doc).encode(),
                           default_config()["credit_request"])
    assert time.perf_counter() - t0 < 5.0
    assert out["status"] == "Fertig" and out["n_pairs"] == n


def test_infinite_center_x_value_is_paired_not_line_zero():
    """A value line whose right edge is ``1e309`` (JSON reads it as +inf)
    has center x +inf; it is still the nearest aligned line right of the
    label, so the label pairs with it rather than with line 0."""
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import (
        extract_document, payload_to_lines)

    def box(x0, x1):
        return (f'[{{"x": {x0}, "y": 1.0}}, {{"x": {x1}, "y": 1.0}}, '
                f'{{"x": {x1}, "y": 1.2}}, {{"x": {x0}, "y": 1.2}}]')

    payload = (
        '{"pages": [{"page_number": 1, "lines": ['
        f'{{"content": "Firmenname", "polygon": {box(0.5, 2.3)}}}, '
        f'{{"content": "Demo GmbH", "polygon": {box(3.0, "1e309")}}}], '
        '"words": ['
        f'{{"content": "Firmenname", "confidence": 0.95, '
        f'"polygon": {box(0.5, 2.3)}}}, '
        f'{{"content": "Demo", "confidence": 0.9, '
        f'"polygon": {box(3.0, 4.0)}}}]}}]}}').encode()
    pairs = pair_label_values(payload_to_lines(payload))
    assert [(p["label"], p["value"]) for p in pairs] == [
        ("Firmenname", "Demo GmbH")]
    out = extract_document(payload, default_config()["credit_request"])
    assert out["status"] == "Fertig"
    fields = {f["name"]: f["value"] for f in out["fields"]}
    assert fields["company_name"] == "Demo GmbH"


def _random_page(r: random.Random) -> list[dict]:
    """A page of line and word records on a few shared rows: colon and
    plain texts with duplicates, boxes with 0-4 points whose coordinates
    mix grid ties, ints, NaN and +-inf (x is never +inf, so no best
    candidate has center x +inf), and absent/None/float confidences."""
    special = (math.nan, math.inf, -math.inf)
    rows = [r.choice((0.5, 1.0, 1.0, 1.3, 2.0, 5.0))
            for _ in range(r.randint(1, 6))]
    wild = r.random() < 0.4

    def coord(base, allow_pos_inf):
        u = r.random()
        if wild and u < 0.08:
            v = r.choice(special)
            return v if allow_pos_inf or v != math.inf else -math.inf
        if u < 0.15:
            return r.randint(0, 4)
        if u < 0.5:
            return base + r.choice((0.0, 0.01, 0.02, 0.1))
        return round(base + r.uniform(-0.3, 0.3), r.choice((1, 2, 6)))

    recs = []
    for _ in range(r.randint(0, 12)):
        cy = r.choice(rows)
        x = r.choice((0.5, 1.0, 2.4, 2.5, 3.0, 3.0, 4.5))
        h = r.choice((0.0, 0.1, 0.12, 0.2, 0.5))
        u = r.random()
        box = None if u < 0.05 else [] if u < 0.08 else [
            {"x": coord(x + 0.5 * (k in (1, 2)), False),
             "y": coord(cy + h * (k >= 2), True)}
            for k in range(r.choice((1, 2, 4, 4)))]
        rec = {"type": "line" if r.random() < 0.85 else "word",
               "text": r.choice(("Firmenname", "Demo GmbH", "A: B", "Adresse",
                                 " x ", "Adresse", ": v")),
               "page": r.choice((1, 1, 2)), "bounding_box": box}
        u = r.random()
        if u < 0.1:
            rec["confidence"] = None
        elif u < 0.6:
            rec["confidence"] = r.choice((0.5, 0.9, 0.95, 1.0))
        recs.append(rec)
    if recs and r.random() < 0.2:
        recs.append(dict(r.choice(recs)))
    return recs


def _edge_pages() -> list[list[dict]]:
    """Pages at the y-window's edges: a pair exactly ``reach`` apart in
    y below and above the label, a tie in center x, a page whose first
    height is NaN (``[-inf, -inf]`` ys), a value whose NaN height
    (``[inf, inf]`` ys) meets a label of infinite height, and page-1
    lines that NaN page numbers leave out of y order in the sort."""
    def line(text, x0, x1, y0, y1, page=1):
        return {"type": "line", "text": text, "page": page, "bounding_box": [
            {"x": x0, "y": y0}, {"x": x1, "y": y0},
            {"x": x1, "y": y1}, {"x": x0, "y": y1}]}

    return [
        [line("Firmenname", 0, 1, 0, 10), line("Demo GmbH", 3, 4, 1, 11)],
        [line("Demo GmbH", 3, 4, 0, 10), line("Firmenname", 0, 1, 1, 11)],
        [line("Firmenname", 0.5, 1, 1, 1.2), line("Demo GmbH", 3, 4, 1, 1.2),
         line("Wert", 3, 4, 1, 1.2)],
        [line("Adresse", 0, 1, -math.inf, -math.inf),
         line("Firmenname", 0, 1, 1, 1.2), line("Demo GmbH", 1.2, 2, 1, 1.2)],
        [line("Firmenname", 0, 1, -math.inf, 1),
         line("Demo GmbH", 3, 4, math.inf, math.inf)],
        [line("Firmenname", 0, 1, 5, 5.2), line("Wert", 0.2, 1, 9, 9.2),
         line("Adresse", 0, 1, 0, 0.2, page=math.nan),
         line("Demo GmbH", 1.2, 2, 5, 5.2),
         line("Ort", 0, 1, 7, 7.2, page=math.nan)],
    ]


# sha256 over the outcomes of 300 _random_page(random.Random(5)) pages
# and _edge_pages(), from the whole-page numpy candidate scan that
# preceded the y-window
_PARITY_DIGEST = ("8d3b367e6bc1ad27d44153b677d8636d"
                  "b5fec38cceb483716532332225042c0a")


def test_pairing_outcomes_match_whole_page_scan():
    """Every pair list and every (exception type, message) of a seeded
    corpus with NaN/inf coordinates, ties and duplicates is what the
    whole-page candidate scan produced."""
    r = random.Random(5)
    h = hashlib.sha256()
    pages = [_random_page(r) for _ in range(300)] + _edge_pages()
    for page in pages:
        try:
            out = repr(pair_label_values(page))
        except Exception as e:  # noqa: BLE001 — the error is the outcome
            out = f"{type(e).__name__}: {e}"
        h.update(hashlib.sha256(out.encode()).digest())
    assert h.hexdigest() == _PARITY_DIGEST
