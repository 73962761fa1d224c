"""Checkpoint / resume bookkeeping: shard-group manifests + per-partition
lineage.

The reference checkpoints implicitly — every stage persists one blob per
document and re-runs are guarded by ``blob_exists``
(/root/reference/src/creditsystem/storage.py:177-194). The Parquet analogue
at 100 TB: the input file list is split into shard groups; each group is one
streaming Dataset execution writing ``out/group=K/``; a group's manifest
entry is written only after its write completes, so a restarted job skips
complete groups and wipes+redoes incomplete ones (atomic at group
granularity). Inside each group the output carries the canonical url-hash
``part_id``, and a ``groupby(part_id).aggregate(...)`` over the (cheap,
column-pruned) read-back produces the per-partition lineage metrics the
north rule requires: row counts, payload bytes, error counts, field counts.
"""

from __future__ import annotations

import json
import os
import shutil
import time


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

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

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

    lineage_dir = os.path.join(group_dir, "_lineage")
    os.makedirs(lineage_dir, exist_ok=True)
    pq.write_table(pa.Table.from_pandas(final, preserve_index=False),
                   os.path.join(lineage_dir, "part-0.parquet"))
    return lineage_dir, int(final["rows"].sum())


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
