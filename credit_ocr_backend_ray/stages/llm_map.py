"""Model-backed field mapping as an actor-pool stage.

The engine's default mapper is deterministic (functions/fields.py); this
stage exercises the reference's PRIMARY path end-to-end — the model seam
(`extract_fields_with_llm`, /root/reference/src/llm/field_extractor.py:
307-442, consuming an LLM client, src/llm/client.py:16-45) — as a Ray Data
actor-pool ``map_batches`` stage:

- the client is built ONCE per actor in ``__init__`` (the reference holds
  one warm Ollama connection per worker; a real model's weights load here),
- each ``__call__`` runs prompt assembly (functions/llm_seam.py, byte-
  identical to the reference prompt), the client call, fenced-JSON response
  parsing (reference quirks pinned), then the reference's deterministic
  grounding steps 2-5 (resolve every model-proposed field back to a
  normalized label-value pair or an original OCR line) and validation,
- per-row errors (unparsable model output included) are captured as the
  reference's terminal ``"Fehlerhaft"`` state instead of failing the task.

No model weights ship in this container, so the default client is
``DeterministicFakeClient`` — it answers in the reference model's fenced-
JSON format by deterministically mapping the prompt's Document Content
through the config's label mappings. A real client (Ollama HTTP, vLLM,
anything with ``generate(prompt) -> str``) slots in via ``client_factory``;
nothing else in the stage changes. Size ``concurrency`` x model memory to
the node when the client holds real weights (ST2 in SURVEY §2.3).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

import pyarrow as pa

from credit_ocr_backend_ray.config import (
    DocTypeConfig, default_config, labels_by_field, load_config,
)
from credit_ocr_backend_ray.functions.document import (
    STATUS_ERROR, STATUS_OK, payload_to_lines,
)
from credit_ocr_backend_ray.functions.llm_seam import (
    create_extraction_prompt, extract_json_from_response,
)
from credit_ocr_backend_ray.functions.normalize import normalize_lines
from credit_ocr_backend_ray.functions.validate import validate_fields


class DeterministicFakeClient:
    """Offline stand-in for the reference's OllamaClient: same
    ``generate(prompt) -> str`` surface, deterministic output. It reads the
    prompt's Document Content section, maps ``label: value`` lines through
    the config's German-label -> field mappings, and answers in the fenced-
    JSON shape the reference model is instructed to use (with a ``//``
    comment line, so the response parser's comment-stripping quirk stays
    exercised end-to-end). Values have ``//`` collapsed to ``/`` because
    the reference parser treats ``//`` anywhere as a comment — a quirk a
    cooperative model avoids triggering."""

    def __init__(self, cfg: DocTypeConfig):
        self.cfg = cfg

    def generate(self, prompt: str) -> str:
        try:
            content = prompt.split("Document Content:\n", 1)[1]
            content = content.split("\n\nInstructions:", 1)[0]
        except IndexError:
            content = ""
        extracted: dict[str, Any] = {}
        for line in content.split("\n"):
            if ": " not in line:
                continue
            label, value = line.split(": ", 1)
            label_l = label.lower()
            for glabel, eng in self.cfg.field_mappings.items():
                if glabel.lower() in label_l and eng not in extracted:
                    extracted[eng] = {"value": value.replace("//", "/")}
        missing = [f for f in self.cfg.expected_fields
                   if f not in extracted]
        body = json.dumps({"extracted_fields": extracted,
                           "missing_fields": missing,
                           "validation_results": {}},
                          ensure_ascii=False, indent=2)
        return ("Here is the extracted data:\n```json\n"
                "// offline deterministic stand-in response\n"
                f"{body}\n```")


def extract_fields_via_model(
    items: list[dict[str, Any]],
    original_lines: list[dict[str, Any]] | None,
    cfg: DocTypeConfig,
    client,
) -> dict[str, Any]:
    """The reference's ``extract_fields_with_llm`` chain for ONE document
    (field_extractor.py:307-442), synchronously: prompt -> generate ->
    parse -> ground each model-proposed field to a normalized label-value
    pair (label contains a configured German label, or the proposed value
    occurs in the pair's value) else to an original ``line`` -> validate.
    Raises on unparsable model output (callers isolate per row)."""
    if not items:
        return {"extracted_fields": {},
                "missing_fields": list(cfg.expected_fields),
                "validation_results": {}}

    prompt = create_extraction_prompt(items, cfg)
    response = client.generate(prompt)
    llm_result = extract_json_from_response(response)

    label_sets = labels_by_field(cfg)
    extracted: dict[str, Any] = {}
    for field_name, field_data in llm_result.get("extracted_fields",
                                                 {}).items():
        if not isinstance(field_data, dict):
            field_data = {"value": field_data}
        if field_data.get("value") is None:
            continue
        value_str = str(field_data["value"]).lower()
        german_labels = label_sets.get(field_name, [])

        pair = None
        for it in items:
            if it["type"] != "label_value":
                continue
            if (any(lbl in it["label"].lower() for lbl in german_labels)
                    or value_str in it["value"].lower()):
                pair = it
                break
        if pair is not None:
            extracted[field_name] = {
                "value": pair["value"],
                "confidence": pair.get("confidence", 0.5),
                "bounding_box": pair.get("bounding_box"),
                "page": pair.get("page"),
            }
            continue
        if original_lines:
            for line in original_lines:
                if line["type"] != "line":
                    continue
                text = line["text"].lower()
                if (value_str in text
                        or any(lbl in text for lbl in german_labels)):
                    extracted[field_name] = {
                        "value": line["text"],
                        "confidence": line.get("confidence", 0.5),
                        "bounding_box": line.get("bounding_box"),
                        "page": line.get("page"),
                    }
                    break

    missing = [f for f in cfg.expected_fields if f not in extracted]
    return {"extracted_fields": extracted,
            "missing_fields": missing,
            "validation_results": validate_fields(extracted, cfg)}


class LLMFieldMapper:
    """Actor-pool stage: ``ds.map_batches(LLMFieldMapper,
    fn_constructor_kwargs=..., concurrency=N, batch_size=B,
    batch_format="pyarrow")``. One client per actor, built in __init__.

    ``construction_marker_dir`` is a test hook: every client construction
    drops a marker file there, letting tests assert the once-per-actor
    property across a multi-batch run."""

    def __init__(self, doc_type: str = "credit_request",
                 config_path: str | None = None,
                 client_factory: Callable[[DocTypeConfig], Any] | None = None,
                 construction_marker_dir: str | None = None):
        registry = (load_config(config_path) if config_path
                    else default_config())
        self.cfg: DocTypeConfig = registry[doc_type]
        if construction_marker_dir:
            import os
            import uuid
            os.makedirs(construction_marker_dir, exist_ok=True)
            marker = f"{os.getpid()}-{uuid.uuid4().hex}"
            open(os.path.join(construction_marker_dir, marker), "w").close()
        factory = client_factory or DeterministicFakeClient
        self.client = factory(self.cfg)   # ONCE per actor — warm state

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, n_ext, n_miss, shas, status, errs = [], [], [], [], [], []
        for url, payload in zip(batch["url"].to_pylist(),
                                batch["html"].to_pylist()):
            urls.append(url)
            try:
                lines = payload_to_lines(payload or b"")
                items = normalize_lines(lines)
                # the grounding walks the records once per field: build
                # them once
                result = extract_fields_via_model(items, list(lines),
                                                  self.cfg, self.client)
                canon = json.dumps(result["extracted_fields"],
                                   ensure_ascii=False, sort_keys=True)
                n_ext.append(len(result["extracted_fields"]))
                n_miss.append(len(result["missing_fields"]))
                shas.append(hashlib.sha256(
                    canon.encode("utf-8")).hexdigest())
                status.append(STATUS_OK)
                errs.append(None)
            except Exception as e:  # poison row -> terminal error state
                n_ext.append(0)
                n_miss.append(len(self.cfg.expected_fields))
                shas.append(None)
                status.append(STATUS_ERROR)
                errs.append(f"{type(e).__name__}: {e}")
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "n_extracted": pa.array(n_ext, pa.int32()),
            "n_missing": pa.array(n_miss, pa.int32()),
            "fields_sha256": pa.array(shas, pa.string()),
            "status": pa.array(status, pa.string()),
            "error": pa.array(errs, pa.string()),
        })
