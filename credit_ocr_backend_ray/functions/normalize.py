"""Normalize positioned OCR/layout lines into structured items.

Parity: ``normalize_ocr_lines`` (/root/reference/src/ocr/postprocess.py:211-264).
Output item order: all ``label_value`` pairs (detection order), then every
``line`` record with a bounding box as a ``text_line`` (input order).
Confidence backfill for pairs uses first-exact-text lookup over *all*
records (words included), taking min when both ends resolve.
"""

from __future__ import annotations

from typing import Any

from credit_ocr_backend_ray.functions.lines import LineTable, points
from credit_ocr_backend_ray.functions.pairing import pair_label_values


def normalize_lines(ocr_lines: LineTable | list[dict[str, Any]],
                    text_lines: bool = True) -> list[dict[str, Any]]:
    """The ``label_value`` items, then the ``text_line`` items unless
    ``text_lines`` is False (the field mapper reads only the pairs)."""
    t = LineTable.of(ocr_lines)
    items = [{"type": "label_value", **p} for p in pair_label_values(t)]

    # confidence backfill from the first row with the exact (unstripped)
    # text, over all rows
    first: dict[str, int] = {}
    for i, x in enumerate(t.text):
        first.setdefault(x, i)
    for it in items:
        li, vi = first.get(it["label"]), first.get(it["value"])
        if it["confidence"] is None and li is not None and vi is not None:
            cs = [c for c in (t.confidence(li), t.confidence(vi))
                  if c is not None]
            if cs:
                it["confidence"] = min(cs)

    if text_lines:
        items += [{"type": "text_line", "text": t.text[r].strip(),
                   "page": t.page[r], "confidence": t.confidence(r),
                   "bounding_box": points(t.box[r])}
                  for r in range(len(t))
                  if t.type[r] == "line" and t.box[r] is not None]
    return items
