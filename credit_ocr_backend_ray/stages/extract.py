"""The extraction stage.

A ``DocExtractor`` instance is the task UDF of
``ds.map_batches(DocExtractor(...), batch_format="pyarrow",
batch_size=None)`` — configuration (label banks, validation regexes) is
resolved once in ``__init__`` and shipped to each worker process with the
UDF (the reference reloads config from disk on every call,
src/ocr/extraction.py:239 — ST5 in SURVEY §2.3), and each ``__call__``
runs the full per-document kernel chain over a zero-copy Arrow batch,
emitting a fixed explicit schema (no inference).

Per-row errors are captured in status/error columns (the reference's
``"Fehlerhaft"`` terminal state, pipeline_tasks.py:19-64) instead of
failing the task.
"""

from __future__ import annotations

import pyarrow as pa

from credit_ocr_backend_ray.config import DocTypeConfig, default_config
from credit_ocr_backend_ray.functions.document import extract_document

BBOX_T = pa.list_(pa.struct([("x", pa.float64()), ("y", pa.float64())]))

FIELD_T = pa.struct([
    ("name", pa.string()),
    ("value", pa.string()),
    ("confidence", pa.float64()),
    ("page", pa.int32()),
    ("bounding_box", BBOX_T),
    ("is_valid", pa.bool_()),
    ("errors", pa.list_(pa.string())),
])

# columns the stage APPENDS to whatever passthrough columns it is given
EXTRACT_COLUMNS = pa.schema([
    ("extracted_text", pa.string()),
    ("n_lines", pa.int32()),
    ("n_pairs", pa.int32()),
    ("fields", pa.list_(FIELD_T)),
    ("missing_fields", pa.list_(pa.string())),
    ("status", pa.string()),
    ("error", pa.string()),
])

# ``path`` (the input file, when the read includes it) routes each row to
# its shard group's directory; the group writer drops it before writing
PASSTHROUGH = ["url", "warc_ts", "lang", "n_bytes", "content_sha256",
               "size_bucket", "part_id", "path"]


class DocExtractor:
    """Extraction UDF (one copy per worker process).

    ``__call__`` is a GENERATOR: each incoming block is split into
    sub-batches whose cumulative payload size stays under
    ``chunk_budget_mb`` (size-bucketed batch splitting, north rule) — a
    block of ordinary ~40 KB pages processes in a few large chunks, while
    a run of multi-MB outliers is cut into small ones, so peak worker heap
    and output block size are bounded by the BYTE budget, not a row count
    that assumes uniform pages. Batches are prepassed
    (``stages.prepass.prepass_batch``): its ``n_bytes`` column sizes
    each row."""

    def __init__(self, doc_type: str = "credit_request",
                 with_result_json: bool = False,
                 chunk_budget_mb: int = 32):
        self.cfg: DocTypeConfig = default_config()[doc_type]
        self.with_result_json = with_result_json
        self.budget = chunk_budget_mb << 20

    def __call__(self, batch: pa.Table):
        sizes = batch["n_bytes"].to_pylist()
        start = 0
        acc = 0
        for i, s in enumerate(sizes):
            acc += s or 0
            if acc >= self.budget and i + 1 > start:
                yield self._process(batch.slice(start, i + 1 - start))
                start, acc = i + 1, 0
        if start < batch.num_rows:
            yield self._process(batch.slice(start))

    def _process(self, batch: pa.Table) -> pa.Table:
        payloads = batch["html"].to_pylist()
        results = [
            extract_document(p if p is not None else b"", self.cfg,
                             with_result_json=self.with_result_json)
            for p in payloads
        ]

        cols: dict[str, pa.Array] = {}
        for name in PASSTHROUGH:
            if name in batch.column_names:
                cols[name] = batch[name]

        for field in EXTRACT_COLUMNS:
            cols[field.name] = pa.array(
                [r[field.name] for r in results], type=field.type)
        if self.with_result_json:
            cols["result_json"] = pa.array(
                [r["result_json"] for r in results], type=pa.string())

        return pa.table(cols)
