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
line counts) is one Arrow reduction (``_reduce_lineage``) written with one
fixed schema, ``LINEAGE``: it turns a chunk's rows into its partial and a
group's partials into its ``_lineage`` (``commit_lineage``);
``write_lineage`` re-derives that table from the group's files.
"""

from __future__ import annotations

import glob
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


# A group's per-partition lineage, one row per ``part_id`` in ``part_id``
# order, at ``group-K/_lineage/part-0.parquet``. ``max_payload_bytes`` is
# null for a partition whose payloads are all null.
LINEAGE = pa.schema([
    ("part_id", pa.int32()), ("rows", pa.int64()),
    ("payload_bytes", pa.int64()), ("lines", pa.int32()),
    ("errors", pa.int64()), ("max_payload_bytes", pa.int64()),
])

# One output chunk's ``LINEAGE`` rows, keyed by its input file and digest.
LINEAGE_PARTIAL = pa.schema([
    pa.field("file", pa.int32()), pa.field("digest", pa.string()), *LINEAGE,
])


def _reduce_lineage(rows: pa.Table) -> pa.Table:
    """The ``LINEAGE`` table of ``rows``, which carry ``LINEAGE``'s columns
    with any number of rows per ``part_id``: per ``part_id``, in
    ``part_id`` order, the max of ``max_payload_bytes`` and the sums of
    the rest."""
    aggs = [(c, "max" if c == "max_payload_bytes" else "sum")
            for c in LINEAGE.names[1:]]
    return (rows.group_by("part_id").aggregate(aggs).sort_by("part_id")
            .select(["part_id"] + [f"{c}_{f}" for c, f in aggs])
            .rename_columns(LINEAGE.names).cast(LINEAGE))


def _lineage_partial(chunk: pa.Table, file: int, digest: str) -> pa.Table:
    """``chunk``'s ``LINEAGE_PARTIAL`` rows, one per ``part_id``; a null
    payload counts as a row of 0 bytes."""
    n_bytes = chunk["n_bytes"]
    lin = _reduce_lineage(pa.table({
        "part_id": chunk["part_id"], "rows": pa.repeat(1, chunk.num_rows),
        "payload_bytes": pc.fill_null(n_bytes, 0), "lines": chunk["n_lines"],
        "errors": pc.fill_null(pc.equal(chunk["status"], "Fehlerhaft"),
                               False).cast(pa.int64()),
        "max_payload_bytes": n_bytes,
    }))
    n = lin.num_rows
    return pa.table([pa.repeat(pa.scalar(file, pa.int32()), n),
                     pa.repeat(digest, n), *lin.columns],
                    schema=LINEAGE_PARTIAL)


def commit_lineage(group_dir: str, partials: pa.Table) -> tuple[str, int]:
    """Reduce a group's ``LINEAGE_PARTIAL`` rows to its ``LINEAGE`` table
    and write it to ``group_dir/_lineage/part-0.parquet`` (no partials: the
    empty table). Returns ``(lineage_dir, total_rows)``."""
    final = _reduce_lineage(partials)
    lineage_dir = os.path.join(group_dir, "_lineage")
    os.makedirs(lineage_dir, exist_ok=True)
    pq.write_table(final, os.path.join(lineage_dir, "part-0.parquet"))
    return lineage_dir, pc.sum(final["rows"]).as_py() or 0


def write_lineage(group_dir: str) -> tuple[str, int]:
    """``commit_lineage`` over per-file partials of a group's output, read
    back driver-side (four columns; a Ray execution for it measured 1-3 s
    of scheduling per group): the lineage of a group whose files changed
    after its commit."""
    files = sorted(glob.glob(os.path.join(group_dir, "*.parquet")))
    partials = [LINEAGE_PARTIAL.empty_table()] + [
        _lineage_partial(pq.read_table(
            f, columns=["part_id", "n_bytes", "n_lines", "status"]),
            i, os.path.basename(f))
        for i, f in enumerate(files)]
    return commit_lineage(group_dir, pa.concat_tables(partials))


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
        files = sorted(glob.glob(os.path.join(gdir, "*.parquet")))
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
