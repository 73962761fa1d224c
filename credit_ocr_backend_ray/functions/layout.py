"""Flatten a layout-analysis document (the PDF path) into a line table.

Our PDF stand-in is a JSON layout document — the cloud OCR service of the
reference is not available in-sandbox, so the rasterize/OCR step is replaced
by a deterministic layout payload with the same information content as an
``AnalyzeResult``:

    {"pages": [{"page_number": int,
                "lines": [{"content": str, "polygon": [{"x","y"}]*4}],
                "words": [{"content": str, "polygon": [...], "confidence": f}]}]}

Parity: ``extract_text_lines_with_bbox_and_confidence``
(/root/reference/src/ocr/postprocess.py:20-71): per page emit one record per
line then one per word; a line's confidence is ``round(mean, 2)`` of the
confidences of words whose polygon center falls inside the line's bbox
envelope (inclusive), ``None`` when no word lands inside.

The containment test runs over a y-window: a page's word indices are
sorted by center y once, and a line tests only the words whose center y
lies in ``[min_y, max_y]`` (two bisections), taken back in word order so
the float sum, and with it ``round(mean, 2)``, matches the reference's.
A line envelope with a non-numeric bound tests every word, as the
reference does, so a comparison error is raised at the same word.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any

from credit_ocr_backend_ray.functions.lines import LineTable


# coordinate types whose comparisons with a float never raise
_REAL = {int, float, bool}


def _center(poly: list[dict], axis: str) -> float:
    return sum(p[axis] for p in poly) / len(poly)


def flatten_layout(doc: dict[str, Any]) -> LineTable:
    rows: list[tuple] = []

    for page in doc.get("pages", []):
        page_number = page["page_number"]
        words = page.get("words", [])

        # precompute word centers once (reference recomputes per line), and
        # the word indices sorted by center y (a NaN center y never passes
        # the inclusive test, so it is left out)
        centers = [
            (_center(w["polygon"], "x"), _center(w["polygon"], "y"), w)
            if w.get("polygon") else None
            for w in words
        ]
        by_y = sorted((c[1], k) for k, c in enumerate(centers)
                      if c is not None and c[1] == c[1])
        ys = [y for y, _ in by_y]
        ks = [k for _, k in by_y]

        for line in page.get("lines", []):
            poly = line.get("polygon")
            conf = None
            if poly:
                min_x = min(p["x"] for p in poly)
                max_x = max(p["x"] for p in poly)
                min_y = min(p["y"] for p in poly)
                max_y = max(p["y"] for p in poly)
                if {type(min_x), type(max_x), type(min_y),
                        type(max_y)} <= _REAL:
                    # numeric envelope: only words in the y-window can
                    # pass (the full test below still runs, so a NaN bound
                    # admits none), taken in word order so the sum is too
                    cands = [centers[k] for k in sorted(
                        ks[bisect_left(ys, min_y):bisect_right(ys, max_y)])]
                else:
                    cands = [c for c in centers if c is not None]
                inside = [
                    w["confidence"]
                    for wx, wy, w in cands
                    if min_x <= wx <= max_x and min_y <= wy <= max_y
                    and w.get("confidence") is not None
                ]
                if inside:
                    conf = round(sum(inside) / len(inside), 2)

            rows.append(("line", line["content"], page_number, conf,
                         tuple([(p["x"], p["y"]) for p in poly])
                         if poly else None))

        for w in words:
            poly = w.get("polygon")
            rows.append(("word", w["content"], page_number,
                         round(w["confidence"], 2)
                         if w.get("confidence") is not None else None,
                         tuple([(p["x"], p["y"]) for p in poly])
                         if poly else None))

    return LineTable(rows)
