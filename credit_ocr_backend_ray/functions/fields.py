"""Deterministic field mapper — grounding without the LLM.

The reference's LLM stage (``extract_fields_with_llm``,
/root/reference/src/llm/field_extractor.py:307-442) only uses the model to
*propose* field names; every proposed field is then grounded deterministically
(steps 3-5): resolve to the first normalized ``label_value`` item whose label
contains a configured German label for the field, else the first original
``line`` whose text contains one, carrying over value / confidence /
bounding_box / page (``confidence`` default 0.5 when absent).

This mapper runs exactly that grounding over the *configured* field list
(field_mappings inverted, scan order = mapping insertion order), which makes
the whole stage deterministic and byte-reproducible; a model-backed mapper
can be swapped in as an actor-pool stage behind the same signature
(see stages/extract.py).

The scan walks the ``label_value`` items once, testing each lowercased
label against every configured (label, field) pair, and then the original
lines the same way for the fields left; each field keeps its first hit.

Contract (pinned by goldens):
- ``extracted_fields``: dict keyed by English field name in
  ``expected_fields`` order; values ``{value, confidence, bounding_box?,
  page?}`` — bbox/page only when grounded;
- empty input (no pairs, and no original line with a box) => no fields,
  ``missing_fields`` = all expected fields (reference behavior at
  field_extractor.py:327-332); ``text_line`` items are not read;
- ``validation_results`` for every extracted field with rules.
"""

from __future__ import annotations

from typing import Any

from credit_ocr_backend_ray.config import DocTypeConfig, labels_by_field
from credit_ocr_backend_ray.functions.lines import LineTable, points
from credit_ocr_backend_ray.functions.validate import validate_fields


def map_fields(
    normalized_items: list[dict[str, Any]],
    original_lines: LineTable | list[dict[str, Any]] | None,
    cfg: DocTypeConfig,
) -> dict[str, Any]:
    lines = None if original_lines is None else LineTable.of(original_lines)
    pairs = [it for it in normalized_items if it["type"] == "label_value"]
    if not pairs and (lines is None or all(
            b is None for ty, b in zip(lines.type, lines.box)
            if ty == "line")):
        return {
            "extracted_fields": {},
            "missing_fields": list(cfg.expected_fields),
            "validation_results": {},
        }

    # one pass over the pairs, then over the original lines for the fields
    # left: each field keeps its first hit
    label_sets = labels_by_field(cfg)
    wanted = [(lbl, f) for f in cfg.expected_fields
              for lbl in label_sets.get(f, ())]
    hits: dict[str, dict[str, Any]] = {}
    for item in pairs:
        label = item["label"].lower()
        for lbl, f in wanted:
            if lbl in label and f not in hits:
                hits[f] = {"value": item["value"],
                           "confidence": item.get("confidence", 0.5),
                           "bounding_box": item.get("bounding_box"),
                           "page": item.get("page")}
    if lines and any(f not in hits for _, f in wanted):
        for r, kind in enumerate(lines.type):
            if kind != "line":
                continue
            text = lines.text[r].lower()
            for lbl, f in wanted:
                if lbl in text and f not in hits:
                    hits[f] = {"value": lines.text[r],
                               "confidence": lines.confidence(r, 0.5),
                               "bounding_box": points(lines.box[r]),
                               "page": lines.page[r]}
    extracted = {f: hits[f] for f in cfg.expected_fields if f in hits}
    missing = [f for f in cfg.expected_fields if f not in extracted]
    return {
        "extracted_fields": extracted,
        "missing_fields": missing,
        "validation_results": validate_fields(extracted, cfg),
    }
