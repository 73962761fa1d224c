"""Checkpoint / resume bookkeeping: shard-group manifests, the fused
group writer and per-partition lineage.

The reference checkpoints implicitly — every stage persists one blob per
document and re-runs are guarded by ``blob_exists``
(/root/reference/src/creditsystem/storage.py:177-194). The Parquet analogue
at 100 TB: the input file list is split into shard groups, and a group is
the unit of commit, not of execution. One streaming Dataset execution runs
over every pending file; its last fused step (``GroupWriter``) writes each
output chunk into its file's ``out/group-K/`` directory and returns the
chunk's lineage partial. A group's manifest entry is written only after
all of its files' rows are written, so a restarted job skips complete
groups and wipes+redoes incomplete ones (atomic at group granularity).
The output carries the canonical url-hash ``part_id``; the per-partition
lineage the north rule requires (row counts, payload bytes, error counts,
line counts) is the per-group merge of the chunk partials
(``commit_lineage``), equal to ``write_lineage``'s read-back of the group.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def shard_groups(files: list[str], n_groups: int) -> list[list[str]]:
    files = sorted(files)
    n_groups = max(1, min(n_groups, len(files)))
    return [files[k::n_groups] for k in range(n_groups)]


class RunManifest:
    """JSON manifest at ``<out_dir>/manifest.json`` mapping group key ->
    completion record. Written atomically (tmp + rename)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "manifest.json")
        self.entries: dict[str, dict] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as f:
                self.entries = json.load(f)

    def group_dir(self, key: str) -> str:
        # no "key=value" dir name: parquet readers would infer a hive
        # partition column from it
        return os.path.join(self.out_dir, f"group-{key}")

    def is_complete(self, key: str) -> bool:
        return key in self.entries

    def reset_incomplete(self, key: str) -> None:
        """Wipe a partially-written group dir so its rerun starts clean."""
        if not self.is_complete(key):
            shutil.rmtree(self.group_dir(key), ignore_errors=True)

    def mark_complete(self, key: str, record: dict) -> None:
        self.entries[key] = {**record, "completed_at": time.time()}
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.entries, f, indent=2)
        os.replace(tmp, self.path)


def write_lineage(group_dir: str) -> tuple[str, int]:
    """Per-partition lineage over a completed group's output; returns
    ``(lineage_dir, total_rows)`` so callers don't re-read footers for the
    row count. The read-back is a threaded pyarrow columnar scan of FOUR
    small columns driver-side — launching a Ray execution for this 64-row
    result measured 1-3 s of pure task/scheduler overhead per group (and
    a full distributed groupby 11 s); the scan is proportional to row
    count, not payload bytes, and a shard group's output is bounded by
    construction, so driver-side stays cheap at scale."""
    import glob as _glob

    import pyarrow.dataset as pads

    files = sorted(_glob.glob(os.path.join(group_dir, "*.parquet")))
    # an explicit schema: a group with no output rows has no files to
    # infer one from, and still gets an (empty) lineage of the same shape
    columns = pa.schema([("part_id", pa.int32()), ("n_bytes", pa.int64()),
                         ("n_lines", pa.int32()), ("status", pa.string())])
    light = pads.dataset(files, schema=columns).to_table().to_pandas()
    light["is_error"] = (light["status"] == "Fehlerhaft").astype("int64")
    final = light.groupby("part_id", as_index=False).agg(
        rows=("part_id", "size"),
        payload_bytes=("n_bytes", "sum"),
        lines=("n_lines", "sum"),
        errors=("is_error", "sum"),
        max_payload_bytes=("n_bytes", "max"))
    return _write_lineage_table(group_dir, final)


def _write_lineage_table(group_dir: str, final) -> tuple[str, int]:
    lineage_dir = os.path.join(group_dir, "_lineage")
    os.makedirs(lineage_dir, exist_ok=True)
    pq.write_table(pa.Table.from_pandas(final, preserve_index=False),
                   os.path.join(lineage_dir, "part-0.parquet"))
    return lineage_dir, int(final["rows"].sum())


# One output chunk's lineage, per part_id: the sums and max
# ``write_lineage`` takes over a group, keyed by the chunk's input file
# and name digest. ``null_bytes`` counts null payloads: pandas reads a
# null ``n_bytes`` as NaN, which makes write_lineage's byte columns
# float64, and ``commit_lineage`` must match that.
LINEAGE_PARTIAL = pa.schema([
    ("file", pa.int32()), ("digest", pa.string()), ("part_id", pa.int32()),
    ("rows", pa.int64()), ("payload_bytes", pa.int64()),
    ("lines", pa.int32()), ("errors", pa.int64()),
    ("max_payload_bytes", pa.int64()), ("null_bytes", pa.int64()),
])


def _lineage_partial(chunk: pa.Table, file: int, digest: str) -> pa.Table:
    """``chunk``'s ``LINEAGE_PARTIAL`` rows, one per ``part_id``."""
    n_bytes = chunk["n_bytes"]
    light = pa.table({
        "part_id": chunk["part_id"], "n_bytes": n_bytes,
        "n_lines": chunk["n_lines"],
        "is_error": pc.fill_null(pc.equal(chunk["status"], "Fehlerhaft"),
                                 False).cast(pa.int64()),
        "is_null": pc.is_null(n_bytes).cast(pa.int64()),
    })
    # pandas sums skip NaN and give 0 for none left: min_count=0
    agg = light.group_by("part_id").aggregate([
        ("part_id", "count", pc.CountOptions(mode="all")),
        ("n_bytes", "sum", pc.ScalarAggregateOptions(min_count=0)),
        ("n_lines", "sum"), ("is_error", "sum"), ("n_bytes", "max"),
        ("is_null", "sum"),
    ])
    n = agg.num_rows
    return pa.table([
        pa.array([file] * n, pa.int32()), pa.array([digest] * n, pa.string()),
        agg["part_id"], agg["part_id_count"], agg["n_bytes_sum"],
        agg["n_lines_sum"].cast(pa.int32()), agg["is_error_sum"],
        agg["n_bytes_max"], agg["is_null_sum"],
    ], schema=LINEAGE_PARTIAL)


def commit_lineage(group_dir: str, partials: pa.Table) -> tuple[str, int]:
    """Merge a group's ``LINEAGE_PARTIAL`` rows into the ``_lineage`` table
    ``write_lineage`` would read back from the group's files: same values,
    dtypes and ``part_id`` order. Returns ``(lineage_dir, total_rows)``."""
    if partials.num_rows == 0:
        return write_lineage(group_dir)  # no data files: the empty lineage
    df = partials.to_pandas()
    final = df.groupby("part_id", as_index=False).agg(
        rows=("rows", "sum"),
        payload_bytes=("payload_bytes", "sum"),
        lines=("lines", "sum"),
        errors=("errors", "sum"),
        max_payload_bytes=("max_payload_bytes", "max"))
    if df["null_bytes"].any():
        final = final.astype({"payload_bytes": "float64",
                              "max_payload_bytes": "float64"})
    return _write_lineage_table(group_dir, final)


class GroupWriter:
    """The last fused step of ``run_extraction``'s plan, run inside each
    task: writes every output chunk into its input file's group directory
    and returns the chunk's ``LINEAGE_PARTIAL`` rows (the only data that
    reaches the driver).

    ``targets`` maps each input file, as Ray's ``path`` column names it
    (Ray's path resolver normalizes it: a ``file://`` URI loses its
    scheme, a relative path stays relative), to ``(file index, group
    dir)``. A chunk lands at
    ``part-{file:05d}-{digest}.parquet``, the digest taken over its
    ``url`` and ``warc_ts`` values, through a ``.tmp`` name and
    ``os.replace``: a retried task rewrites the same names instead of
    adding files."""

    def __init__(self, targets: dict[str, tuple[int, str]]):
        self.targets = targets

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = [LINEAGE_PARTIAL.empty_table()]
        paths = pc.unique(batch["path"]).to_pylist()
        for path in paths:
            chunk = batch if len(paths) == 1 else batch.filter(
                pc.equal(batch["path"], path))
            chunk = chunk.drop_columns(["path"])
            file, group_dir = self.targets[path]
            digest = _chunk_digest(chunk)
            dest = os.path.join(group_dir,
                                f"part-{file:05d}-{digest}.parquet")
            pq.write_table(chunk, dest + ".tmp")
            os.replace(dest + ".tmp", dest)
            out.append(_lineage_partial(chunk, file, digest))
        return pa.concat_tables(out)


def _chunk_digest(chunk: pa.Table) -> str:
    keys = (chunk["url"].to_pylist(),
            pc.cast(chunk["warc_ts"], pa.int64()).to_pylist())
    return hashlib.sha256(repr(keys).encode()).hexdigest()[:16]


def cascade_delete(out_dir: str, urls: set[str] | list[str]) -> dict:
    """Targeted document deletion across the persisted output store —
    the Ray restatement of the reference's J6 cascade delete (Postgres
    ``ON DELETE CASCADE`` across dokumente/ocr_ergebnisse/extrahierte
    daten, /root/reference/schema.sql): here every derived row of a
    document lives in the ONE flagship output row keyed by ``url``, plus
    the group's lineage roll-up, so deleting a url = rewriting exactly
    the parquet files that contain it and recomputing those groups'
    lineage. The GDPR-delete shape for a 100 TB store:

    - one Ray task per parquet file; each task reads ONLY the ``url``
      column first (columnar prune — a file without hits is never read
      in full, never rewritten, mtime untouched);
    - hits rewrite the file without the victim rows via tmp + atomic
      ``os.replace`` (readers never observe a partial file);
    - the target url set is ``ray.put`` once, not shipped per task;
    - affected groups re-derive ``_lineage`` and their manifest row
      counts; untouched groups keep their manifest entries byte-for-byte
      (so resume semantics are unchanged).

    Returns ``{files_scanned, files_rewritten, rows_deleted}``."""
    import glob as _glob

    import ray

    targets = set(urls)
    man = RunManifest(out_dir)
    uref = ray.put(targets)

    @ray.remote
    def _delete_in_file(path: str) -> int:
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        victims = pa.array(sorted(ray.get(uref)), pa.string())
        found = pq.read_table(path, columns=["url"])
        mask = pc.is_in(found["url"], value_set=victims)
        n_hit = pc.sum(pc.cast(mask, pa.int64())).as_py() or 0
        if not n_hit:
            return 0
        full = pq.read_table(path)
        keep = full.filter(pc.invert(pc.is_in(full["url"],
                                              value_set=victims)))
        tmp = path + ".tmp"
        pq.write_table(keep.replace_schema_metadata(None), tmp)
        os.replace(tmp, path)
        return int(n_hit)

    stats = {"files_scanned": 0, "files_rewritten": 0, "rows_deleted": 0}
    for key in list(man.entries):
        gdir = man.group_dir(key)
        files = sorted(_glob.glob(os.path.join(gdir, "*.parquet")))
        stats["files_scanned"] += len(files)
        deleted = ray.get([_delete_in_file.remote(f) for f in files])
        g_deleted = sum(deleted)
        if not g_deleted:
            continue
        stats["files_rewritten"] += sum(1 for d in deleted if d)
        stats["rows_deleted"] += g_deleted
        _, rows = write_lineage(gdir)
        man.mark_complete(key, {**{k: v for k, v in man.entries[key].items()
                                   if k != "completed_at"},
                                "rows": rows})
    return stats
