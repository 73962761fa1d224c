"""The flagship pipeline: web pages Parquet -> extraction -> partitioned
Parquet + lineage.

Ray-Data restatement of the reference's whole Celery chain
(/root/reference/src/tasks/pipeline_tasks.py:147-166) as ONE lazy Dataset
plan — the five blob round-trips per document become Arrow columns flowing
through the streaming executor:

    read_parquet(shards)                      url warc_ts html text lang
      -> map_batches(prepass)                 n_bytes sha256 size_bucket part_id
      -> [optional] dedup by url              keep latest warc_ts (stages/dedup)
      -> map_batches(DocExtractor)            extracted_text fields ... status
      -> write_parquet(out/group=K/)          + per-partition lineage manifest

Resume: shard-group manifests (state/manifest.py). Skew: oversized payloads
are flagged by ``size_bucket`` and the extract stage sub-batches each block
by a PAYLOAD BYTE budget (DocExtractor yields per-chunk tables), so worker heap
and output block size are bounded regardless of page-size skew; blocks are
further split by Ray's ``target_max_block_size``.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass

import ray.data as rd

def _settle_fsspec_http_import() -> None:
    """Make the fsspec http-filesystem probe race-free for concurrent group
    executions. Without aiohttp, ``fsspec.implementations.http`` raises on
    EVERY import (never cached in sys.modules), and Ray's path resolution
    probes it per read/write; two threads racing the failing import can see
    a partially-initialized module and get a plain ImportError that escapes
    Ray's ``except ModuleNotFoundError`` guard. Caching a sentinel module
    (HTTPFileSystem exists only for isinstance checks, which stay False)
    makes every later import an instant cache hit."""
    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        import sys
        import types

        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # sentinel: no aiohttp -> none can exist
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
    except ImportError:
        pass  # real fsspec/http import issues: leave as-is


_settle_fsspec_http_import()

from credit_ocr_backend_ray.stages.extract import DocExtractor
from credit_ocr_backend_ray.stages.prepass import DEFAULT_NUM_PARTS, make_prepass
from credit_ocr_backend_ray.state.manifest import (
    RunManifest, shard_groups, write_lineage,
)


@dataclass
class ExtractionConfig:
    doc_type: str = "credit_request"
    num_parts: int = DEFAULT_NUM_PARTS
    chunk_budget_mb: int = 32     # per-sub-batch payload byte budget (skew)
    dedup: bool = False           # exact dedup by url (keep latest warc_ts)
    with_result_json: bool = False


# group executions run at once when more than one group is pending
GROUPS_IN_FLIGHT = 2


def _resolve_files(paths: list[str] | str) -> list[str]:
    if isinstance(paths, str):
        if os.path.isdir(paths):
            return sorted(glob.glob(os.path.join(paths, "*.parquet")))
        return [paths]
    return list(paths)


def build_extraction_ds(paths: list[str] | str,
                        cfg: ExtractionConfig | None = None) -> "rd.Dataset":
    """The lazy extraction plan (no sink) — shared by entry(), queries(),
    tests and the writer below."""
    cfg = cfg or ExtractionConfig()
    files = _resolve_files(paths)
    # one read block per shard: letting Ray re-slice multi-MB-binary blocks
    # (SplitBlocks) serializes the whole backing buffer per slice — measured
    # 300+ CPU-s of pure overhead on a 0.8 GB input. Shard size (synth
    # ROWS_PER_FILE, ~20 MB) is the block-size knob; at 100 TB the same rule
    # holds per input shard, with oversized shards handled by
    # target_max_block_size dynamic splitting after the extract stage.
    # prune at the read: the extraction path never touches the pre-extracted
    # `text` column, so don't decode or ship it (input_hint schema keeps it
    # for other consumers)
    ds = rd.read_parquet(files, override_num_blocks=max(len(files), 1),
                         columns=["url", "warc_ts", "html", "lang"])
    ds = ds.map_batches(make_prepass(cfg.num_parts), batch_format="pyarrow")
    if cfg.dedup:
        from credit_ocr_backend_ray.stages.dedup import dedup_latest
        ds = dedup_latest(ds, key="url", order_col="warc_ts")

    # Stateless tasks, not an actor pool: the extractor's state is a small
    # picklable config + compiled regexes, and Ray deserializes a task UDF
    # once per worker process (cloudpickle cache), so the state is still
    # built once per worker; a fixed-size pool measured slower (pool ramp,
    # no work stealing; BASELINE.md). The instance is the UDF itself, so
    # the read, prepass and extract fuse into one task operator.
    # batch_size=None hands over whole blocks; DocExtractor sub-batches
    # them by bytes.
    extractor = DocExtractor(doc_type=cfg.doc_type,
                             with_result_json=cfg.with_result_json,
                             chunk_budget_mb=cfg.chunk_budget_mb)
    return ds.map_batches(extractor, batch_format="pyarrow",
                          batch_size=None, num_cpus=1)


def run_extraction(input_paths: list[str] | str, out_dir: str,
                   cfg: ExtractionConfig | None = None,
                   n_groups: int = 1) -> dict:
    """Execute with shard-group checkpointing; returns a run summary.

    When more than one group is pending, ``GROUPS_IN_FLIGHT`` group
    executions run at once (each a separate streaming Dataset run): one
    group's write tail and the next group's read ramp overlap, which
    recovers the spin-up cost that sequential groups pay at every boundary
    (measured: 400k docs in 8 sequential groups ran at 0.47x the
    single-group rate)."""
    cfg = cfg or ExtractionConfig()
    files = _resolve_files(input_paths)

    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(out_dir)
    summary = {"groups_total": 0, "groups_skipped": 0, "groups_run": 0,
               "rows": 0,
               # wall_s: ONE elapsed measurement around this invocation's
               # whole todo batch — the throughput denominator even when
               # groups overlap (summing per-group walls double-counts
               # overlapped wall-clock). group_wall_s keeps the per-group
               # sum as detail.
               "wall_s": 0.0, "group_wall_s": 0.0,
               # metrics survive resume: completed groups contribute their
               # recorded wall/docs-rate from the manifest (north rule:
               # "resumed from checkpoint with metrics intact")
               "completed_wall_s": 0.0, "completed_docs_per_s": 0.0}

    todo: list[tuple[str, list[str]]] = []
    for k, group in enumerate(shard_groups(files, n_groups)):
        key = f"{k:05d}"
        summary["groups_total"] += 1
        if manifest.is_complete(key):
            entry = manifest.entries[key]
            summary["groups_skipped"] += 1
            summary["rows"] += entry["rows"]
            summary["completed_wall_s"] += entry.get("wall_s", 0.0)
            continue
        manifest.reset_incomplete(key)
        todo.append((key, group))

    if not todo:
        if summary["completed_wall_s"] > 0:
            summary["completed_docs_per_s"] = round(
                summary["rows"] / summary["completed_wall_s"], 1)
        return summary

    k_eff = min(GROUPS_IN_FLIGHT, len(todo))

    import threading
    lock = threading.Lock()

    def run_group(item: tuple[str, list[str]]) -> None:
        key, group = item
        t0 = time.perf_counter()
        ds = build_extraction_ds(group, cfg)
        gdir = manifest.group_dir(key)
        ds.write_parquet(gdir)
        lineage_dir, rows = write_lineage(gdir)
        wall = time.perf_counter() - t0

        with lock:
            manifest.mark_complete(key, {
                "files": group, "rows": rows, "wall_s": wall,
                "lineage": lineage_dir,
            })
            summary["groups_run"] += 1
            summary["rows"] += rows
            summary["group_wall_s"] += wall

    t_batch = time.perf_counter()
    if k_eff == 1:
        for item in todo:
            run_group(item)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=k_eff) as pool:
            list(pool.map(run_group, todo))
    summary["wall_s"] = time.perf_counter() - t_batch
    # resumed-run continuity: prior groups' recorded walls + this batch's
    # single elapsed wall (NOT the overlap-double-counting per-group sum)
    summary["completed_wall_s"] += summary["wall_s"]

    if summary["completed_wall_s"] > 0:
        summary["completed_docs_per_s"] = round(
            summary["rows"] / summary["completed_wall_s"], 1)

    return summary
