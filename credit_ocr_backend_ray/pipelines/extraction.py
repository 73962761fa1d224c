"""The flagship pipeline: web pages Parquet -> extraction -> partitioned
Parquet + lineage.

Ray-Data restatement of the reference's whole Celery chain
(/root/reference/src/tasks/pipeline_tasks.py:147-166) as ONE lazy Dataset
plan — the five blob round-trips per document become Arrow columns flowing
through the streaming executor:

    [dedup] latest_crawls(all shards)         url -> newest warc_ts (winners)
    read_parquet(pending shards)              url warc_ts html lang path
      -> map_batches(prepass)                 [dedup] drop crawls older than
                                              the winner; n_bytes sha256
                                              size_bucket part_id
      -> map_batches(DocExtractor)            extracted_text fields ... status
      -> map_batches(GroupWriter)             chunk -> out/group-K/part-*;
                                              yields its lineage partial
    driver: iter_batches(partials)            commit group K (manifest entry
                                              + _lineage) once all its files
                                              are written

The read and all three maps fuse into one task operator with or without
dedup: the winners table ships with the prepass UDF, so there is no
shuffle. A run is ONE execution over every pending file of every
incomplete shard group; groups are commit units, not executions. A
group's ``_lineage`` is ``commit_lineage``'s Arrow reduction of its
chunks' partials, written with the one fixed ``LINEAGE`` schema.

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

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.datasource.path_util import _resolve_paths_and_filesystem

from credit_ocr_backend_ray.stages.extract import DocExtractor
from credit_ocr_backend_ray.stages.prepass import (
    DEFAULT_NUM_PARTS, latest_crawls, latest_crawls_and_survivors,
    make_prepass,
)
from credit_ocr_backend_ray.state.manifest import (
    LINEAGE_PARTIAL, GroupWriter, RunManifest, commit_lineage, shard_groups,
)


@dataclass
class ExtractionConfig:
    doc_type: str = "credit_request"
    num_parts: int = DEFAULT_NUM_PARTS
    chunk_budget_mb: int = 32     # per-sub-batch payload byte budget (skew)
    dedup: bool = False           # exact dedup by url (keep latest warc_ts)
    with_result_json: bool = False


def _resolve_files(paths: list[str] | str) -> list[str]:
    if isinstance(paths, str):
        if os.path.isdir(paths):
            return sorted(glob.glob(os.path.join(paths, "*.parquet")))
        return [paths]
    return list(paths)


def build_extraction_ds(paths: list[str] | str,
                        cfg: ExtractionConfig | None = None) -> "rd.Dataset":
    """The lazy extraction plan (no sink) — shared by entry(), queries()
    and tests. With ``cfg.dedup`` the newest crawl per url wins over
    ``paths``. Rows carry their input file in a ``path`` column."""
    cfg = cfg or ExtractionConfig()
    files = _resolve_files(paths)
    return _plan(files, cfg, latest_crawls(files) if cfg.dedup else None)


def _plan(files: list[str], cfg: ExtractionConfig,
          latest: pa.Table | None) -> "rd.Dataset":
    """Read -> prepass (winners filter when ``latest`` is set) -> extract."""
    # one read block per shard: letting Ray re-slice multi-MB-binary blocks
    # (SplitBlocks) serializes the whole backing buffer per slice — measured
    # 300+ CPU-s of pure overhead on a 0.8 GB input. Shard size (synth
    # ROWS_PER_FILE, ~20 MB) is the block-size knob; at 100 TB the same rule
    # holds per input shard, with oversized shards handled by
    # target_max_block_size dynamic splitting after the extract stage.
    # prune at the read: the extraction path never touches the pre-extracted
    # `text` column, so don't decode or ship it (input_hint schema keeps it
    # for other consumers). The `path` column tells run_extraction's
    # writer which shard group a row belongs to.
    ds = rd.read_parquet(files, override_num_blocks=max(len(files), 1),
                         columns=["url", "warc_ts", "html", "lang"],
                         include_paths=True)
    ds = ds.map_batches(make_prepass(cfg.num_parts, latest),
                        batch_format="pyarrow")

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

    One streaming execution covers every file of every incomplete group;
    each group commits (``_lineage`` plus its manifest entry) as soon as
    all of its files are written, so ``n_groups`` sets the commit
    granularity, not the parallelism. With ``cfg.dedup`` the winners
    (newest ``warc_ts`` per url) come from ALL input files, not one
    group's, so the output per url does not depend on how files are split
    into groups; a resumed run recomputes them from the same file list. A
    group whose every crawl lost to a newer one elsewhere writes 0 rows."""
    cfg = cfg or ExtractionConfig()
    files = _resolve_files(input_paths)

    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(out_dir)
    summary = {"groups_total": 0, "groups_skipped": 0, "groups_run": 0,
               "rows": 0,
               # wall_s: ONE elapsed measurement around this invocation's
               # whole todo batch, winners pass included
               "wall_s": 0.0,
               # metrics survive resume: completed groups contribute their
               # recorded wall/docs-rate from the manifest (north rule:
               # "resumed from checkpoint with metrics intact")
               "completed_wall_s": 0.0, "completed_docs_per_s": 0.0}

    todo: dict[str, list[str]] = {}
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
        todo[key] = group

    if todo:
        t_batch = time.perf_counter()
        _run_groups(files, todo, manifest, cfg, summary, t_batch)
        summary["wall_s"] = time.perf_counter() - t_batch
        summary["completed_wall_s"] += summary["wall_s"]

    if summary["completed_wall_s"] > 0:
        summary["completed_docs_per_s"] = round(
            summary["rows"] / summary["completed_wall_s"], 1)
    return summary


def _run_groups(files: list[str], todo: dict[str, list[str]],
                manifest: RunManifest, cfg: ExtractionConfig,
                summary: dict, t_start: float) -> None:
    """Write and commit every ``todo`` group from one execution.

    A file is written once the partials reported for it add up to the rows
    it contributes: its footer row count, or with dedup its survivors of
    the winners filter. A file contributing no rows is not read, and a
    group of such files commits before the execution starts. Each manifest
    entry's ``wall_s`` is the time since the previous commit, so one
    invocation's entries sum to its wall."""
    pending = [f for group in todo.values() for f in group]  # group-major
    latest = None
    if cfg.dedup and pending:
        latest, survivors = latest_crawls_and_survivors(files)
        expected = dict(zip(files, survivors))
    else:
        expected = {f: pq.ParquetFile(f).metadata.num_rows for f in pending}

    index = {f: i for i, f in enumerate(sorted(files))}
    group_of = {index[f]: key for key, group in todo.items() for f in group}
    rows_due = {index[f]: expected[f] for f in pending}
    left = {key: {index[f] for f in group if expected[f]}
            for key, group in todo.items()}
    partials: dict[str, list[dict]] = {key: [] for key in todo}
    last = t_start

    def commit(key: str) -> None:
        nonlocal last
        lineage_dir, rows = commit_lineage(
            manifest.group_dir(key),
            pa.Table.from_pylist(partials.pop(key), schema=LINEAGE_PARTIAL))
        now = time.perf_counter()
        manifest.mark_complete(key, {
            "files": todo[key], "rows": rows, "wall_s": now - last,
            "lineage": lineage_dir,
        })
        last = now
        del left[key]
        summary["groups_run"] += 1
        summary["rows"] += rows

    for key in [k for k, files_left in left.items() if not files_left]:
        commit(key)
    live = [f for f in pending if expected[f]]
    if live:
        # a row's `path` is its file as Ray's path resolver names it
        ray_paths, _ = _resolve_paths_and_filesystem(live)
        targets = {}
        for f, p in zip(live, ray_paths):
            gdir = manifest.group_dir(group_of[index[f]])
            os.makedirs(gdir, exist_ok=True)
            targets[p] = (index[f], gdir)
        ds = _plan(live, cfg, latest).map_batches(
            GroupWriter(targets), batch_format="pyarrow", batch_size=None,
            num_cpus=1)
        seen: set[tuple[int, str]] = set()
        for part in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
            chunks: dict[tuple[int, str], list[dict]] = {}
            for row in part.to_pylist():
                chunks.setdefault((row["file"], row["digest"]), []).append(row)
            for chunk, rows in chunks.items():
                if chunk in seen:  # re-reported by a retried task
                    continue
                seen.add(chunk)
                file = chunk[0]
                key = group_of[file]
                partials[key].extend(rows)
                rows_due[file] -= sum(r["rows"] for r in rows)
                if rows_due[file] < 0:
                    raise RuntimeError(
                        f"input file #{file} wrote more rows than it holds")
                if rows_due[file] == 0:
                    left[key].discard(file)
                    if not left[key]:
                        commit(key)
    if left:
        raise RuntimeError(
            f"extraction ended with shard groups {sorted(left)} incomplete")
