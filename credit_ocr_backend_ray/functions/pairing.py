"""Label-value pairing over positioned text lines — the core layout heuristic.

Semantics pinned to the reference's ``extract_label_value_pairs``
(/root/reference/src/ocr/postprocess.py:74-208), including its quirks:

- the reading-order sort runs over *all* records (words included) before
  filtering to ``type == "line"``;
- pass 1 splits same-line ``label: value`` on the first colon;
- pass 2 treats left-column lines (``center_x < x_split``) as labels and
  pairs them with the nearest horizontally-aligned line strictly to the
  right (smallest center_x wins; ties keep the earlier line), falling back
  to a right-column line within the next two lines and ``|Δy| <= y_thresh``;
- pair confidence is ``min(label, value)`` via ``dict.get(..., 1.0)`` — a
  record that *has* a ``confidence`` key set to ``None`` makes ``min``
  raise ``TypeError``, exactly like the reference (callers isolate this
  per row as a poison-pill error);
- the "mark value line used" step resolves the value line by *first equal
  dict content* (the reference's ``list.index``), not by position.

Pairing reads one ``LineTable`` (functions/lines.py): its
(page, centre y) sort over all rows gives each page's lines, and centres and heights
are computed once per line with the reference's arithmetic, so every
threshold and tie sees the same floats. Pass 2
looks for a label's value only in a y-window: lines are in center-y
order, an aligned line is at most ``reach = max(heights) * 0.1`` away in
y (float rounding is monotone, so ``max(h_i, h_j) * 0.1 <= reach``), and
the rounded distance only grows moving away from the label, so the scan
in each direction stops at the first line past ``reach`` — exactly, with
no epsilon. A page whose center ys or heights are not all finite, or not
ascending, is scanned whole. In the window the reference's predicate
runs unchanged, except that a NaN height aligns with nothing (its
``max`` would depend on argument order). A window is about one text row,
so a label costs a few comparisons instead of a pass over the page.
"""

from __future__ import annotations

from typing import Any

from credit_ocr_backend_ray.functions.lines import (
    LineTable, box_center, box_height, points,
)

_INF = float("inf")


def _pair(t: LineTable, page, label: str, r: int, v: int) -> dict[str, Any]:
    """The two-column pair of label row ``r`` and value row ``v``."""
    return {"label": label, "value": t.text[v].strip(), "page": page,
            "confidence": min(t.confidence(r, 1.0), t.confidence(v, 1.0)),
            "bounding_box": points(t.box[v])}


def pair_label_values(
    ocr_lines: LineTable | list[dict[str, Any]],
    y_thresh: float = 0.2,
    x_split: float = 2.5,
) -> list[dict[str, Any]]:
    """Return label-value pair dicts
    ``{label, value, page, confidence, bounding_box}`` in detection order
    (colon pairs first, then geometric pairs, per page ascending)."""
    t = LineTable.of(ocr_lines)
    pages: dict[Any, list[int]] = {}
    for r in t.order():
        if t.type[r] == "line":
            pages.setdefault(t.page[r], []).append(r)

    pairs: list[dict[str, Any]] = []

    for page, rows in pages.items():
        used: set[int] = set()
        texts = [t.text[r] for r in rows]
        boxes = [t.box[r] for r in rows]
        cxs = [box_center(b, 0) for b in boxes]
        cys = [t.cy[r] for r in rows]
        hts = [box_height(b) for b in boxes]

        # pass 1: same-line "label: value"
        for i, r in enumerate(rows):
            if i in used:
                continue
            text = texts[i].strip()
            if ":" not in text:
                continue
            label, value = (part.strip() for part in text.split(":", 1))
            if label and value:
                pairs.append({
                    "label": label,
                    "value": value,
                    "page": page,
                    "confidence": t.confidence(r),
                    "bounding_box": points(boxes[i]),
                })
                used.add(i)

        # pass 2: two-column geometry over each label's y-window (see the
        # module docstring for why stopping at the first line past
        # ``reach`` is exact); inf - inf is NaN and would end a scan
        # early, so a page with a non-finite center y or height, or out
        # of y order, is scanned whole
        n = len(rows)
        free = [j not in used for j in range(n)]
        has_box = [bool(b) for b in boxes]
        windowed = (all(-_INF < v < _INF for v in cys)
                    and all(-_INF < v < _INF for v in hts)
                    and all(a <= b for a, b in zip(cys, cys[1:])))
        if windowed:
            reach = max(hts) * 0.1

        for i, r in enumerate(rows):
            if i in used:
                continue
            text = texts[i].strip()
            cx_i = cxs[i]
            if cx_i >= x_split:
                continue  # not a left-column label candidate

            # nearest horizontally-aligned free line strictly to the right:
            # smallest center x wins (+inf included), ties keep the earlier
            # line, and a NaN height never aligns
            best_j = None
            if has_box[i]:
                cy_i, h_i = cys[i], hts[i]
                lo, hi = 0, n
                if windowed:
                    lo = i
                    while lo > 0 and cy_i - cys[lo - 1] <= reach:
                        lo -= 1
                    hi = i + 1
                    while hi < n and cys[hi] - cy_i <= reach:
                        hi += 1
                best_cx = None
                for j in range(lo, hi):
                    cx_j = cxs[j]
                    if not (free[j] and has_box[j] and cx_j > cx_i):
                        continue
                    h_j = hts[j]
                    if h_i != h_i or h_j != h_j:
                        continue
                    if (abs(cy_i - cys[j]) <= max(h_i, h_j) * 0.1
                            and (best_cx is None or cx_j < best_cx)):
                        best_j, best_cx = j, cx_j

            if best_j is not None:
                v = rows[best_j]
                pairs.append(_pair(t, page, text, r, v))
                # the value line marked used is the first line equal to
                # it as a record (same text, page, confidence and box)
                key = (t.page[v], t.conf[v], t.box[v])
                idx = texts.index(texts[best_j])
                while (t.page[rows[idx]], t.conf[rows[idx]],
                       t.box[rows[idx]]) != key:
                    idx = texts.index(texts[best_j], idx + 1)
                used.update([i, idx])
                free[i] = free[idx] = False
                continue

            # fallback: right-column value in the next <=2 lines, close in y
            for j in range(i + 1, min(i + 3, n)):
                if j in used:
                    continue
                if cxs[j] > x_split and abs(cys[j] - cys[i]) <= y_thresh:
                    pairs.append(_pair(t, page, text, r, rows[j]))
                    used.update([i, j])
                    free[i] = free[j] = False
                    break

    return pairs
