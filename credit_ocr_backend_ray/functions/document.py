"""Per-document extraction: the full kernel chain for one row.

Restates the reference's Celery chain (trigger -> OCR -> postprocess ->
extract -> persist, /root/reference/src/tasks/pipeline_tasks.py:147-166) as
one pure function over one document, with the payload sniffed instead of
extension-checked (/root/reference/src/api/main.py:331-338):

- payload starting with the PNG signature -> raster page image:
  segmentation + glyph-template OCR (functions/raster.py) into the
  layout-document shape;
- payload starting with ``%PDF-`` -> real PDF: stdlib text-layer
  extraction (functions/pdf.py) into the layout-document shape;
- payload starting with ``{``  -> layout document (OCR-result stand-in):
  flatten word boxes to a line table (functions/layout.py);
- otherwise                    -> HTML: DOM text-density boilerplate strip
  emitting the same line table (functions/html_extract.py);

then the shared reference-pinned kernels over the channel's one line
table (functions/lines.py): reading-order sort (postprocess.py:111-114),
label-value pairing + normalization, deterministic field mapping +
validation. Any exception is captured per document as the
reference's terminal error state (``"Fehlerhaft"`` — extraction.py:88/302),
never propagated — one poisoned document must not kill a block.
"""

from __future__ import annotations

import json
from typing import Any

from credit_ocr_backend_ray.config import DocTypeConfig
from credit_ocr_backend_ray.functions.html_extract import html_to_lines
from credit_ocr_backend_ray.functions.layout import flatten_layout
from credit_ocr_backend_ray.functions.lines import LineTable
from credit_ocr_backend_ray.functions.normalize import normalize_lines
from credit_ocr_backend_ray.functions.fields import map_fields

STATUS_OK = "Fertig"
STATUS_ERROR = "Fehlerhaft"


def payload_to_lines(payload: bytes) -> LineTable:
    stripped = payload.lstrip()
    if stripped[:8] == b"\x89PNG\r\n\x1a\n" or stripped[:3] == b"\xff\xd8\xff":
        # raster page image (the reference's .png/.jpg upload channel,
        # src/api/main.py:331-338): PNG via functions/png.py, JPEG via
        # the baseline JFIF decoder (functions/jpeg.py, r5), then
        # segmentation + glyph-template OCR (functions/raster.py) into
        # the same layout-document shape
        from credit_ocr_backend_ray.functions.raster import (
            extract_raster_layout)
        return flatten_layout(extract_raster_layout(bytes(stripped)))
    if stripped[:5] == b"%PDF-":
        # real application/pdf bytes: stdlib text-layer extraction
        # (functions/pdf.py) into the same layout-document shape
        from credit_ocr_backend_ray.functions.pdf import extract_pdf_layout
        return flatten_layout(extract_pdf_layout(payload))
    if stripped[:1] == b"{":
        return flatten_layout(json.loads(payload.decode("utf-8")))
    return html_to_lines(payload.decode("utf-8", errors="replace"))


def reading_order_text(lines: LineTable | list[dict[str, Any]]) -> str:
    """Byte-identity deliverable: newline-join of ``line`` texts, stable-
    sorted by (page, bbox center y) — the reference's reading-order sort."""
    t = LineTable.of(lines)
    return "\n".join([t.text[r] for r in t.line_order()])


def fields_long_form(result: dict[str, Any]) -> list[dict[str, Any]]:
    """Explode the extraction result into the relational long form, one row
    per field (mirrors ExtrahierteDaten, /root/reference/schema.sql:35-43)."""
    validation = result["validation_results"]
    rows = []
    for name, data in result["extracted_fields"].items():
        v = validation.get(name)
        rows.append({
            "name": name,
            "value": None if data["value"] is None else str(data["value"]),
            "confidence": data.get("confidence"),
            "page": data.get("page"),
            "bounding_box": data.get("bounding_box"),
            "is_valid": None if v is None else v["is_valid"],
            "errors": None if v is None else v["errors"],
        })
    return rows


def extract_document(
    payload: bytes, cfg: DocTypeConfig, with_result_json: bool = False,
) -> dict[str, Any]:
    """Run the full chain for one document; never raises."""
    try:
        lines = payload_to_lines(payload)
        pairs = normalize_lines(lines, text_lines=False)
        result = map_fields(pairs, lines, cfg)
        out = {
            "extracted_text": reading_order_text(lines),
            "n_lines": lines.type.count("line"),
            "n_pairs": len(pairs),
            "fields": fields_long_form(result),
            "missing_fields": result["missing_fields"],
            "status": STATUS_OK,
            "error": None,
        }
        if with_result_json:
            # the reference's LLM-stage blob format: json.dumps with
            # ensure_ascii=False, indent=2 (extraction.py:297)
            out["result_json"] = json.dumps(result, ensure_ascii=False, indent=2)
        return out
    except Exception as exc:  # poison-pill isolation
        out = {
            "extracted_text": None,
            "n_lines": 0,
            "n_pairs": 0,
            "fields": [],
            "missing_fields": list(cfg.expected_fields),
            "status": STATUS_ERROR,
            "error": f"{type(exc).__name__}: {exc}",
        }
        if with_result_json:
            out["result_json"] = None
        return out
