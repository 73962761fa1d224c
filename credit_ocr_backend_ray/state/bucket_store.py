"""Bucket-partitioned parquet tables: persistent key co-location.

The storage-level answer to "pick ONE partitioning key and reuse it":
a table written with ``write_bucketed`` lands in ``bucket=<b>/``
directories where ``b = hash(key) % n_buckets``, so every row of a key
lives in exactly one directory — the Hive/Spark/Iceberg bucketed-table
idea. Two tables bucketed with the SAME key hash and bucket count are
then join-aligned ON DISK: ``bucketed_join`` joins them bucket-by-bucket
with NO shuffle at all — each bucket task reads two small file sets and
merges locally. This is also the stated fix (stages/graph.py module
docstring) for iterative algorithms that otherwise re-shuffle a static
adjacency every round: pre-bucket once, read per-shard per round.

``bucketed_join`` uses raw ``ray.remote`` tasks per bucket — the
documented last-resort tier: the Dataset API cannot express an ALIGNED
two-sided partitioned read (its join always shuffles), and the whole
point of bucketing is that the co-location already happened at write
time. The result re-enters the Dataset world via ``from_arrow_refs``
(zero-copy: tables stay in the object store).

Scale notes: bucket fan-out is ``n_buckets`` independent tasks; per-task
memory is the two bucket slices (size the bucket count so a bucket fits
a worker — same contract as every co-group in this engine). The bucket
function is the engine-wide Fibonacci hash on int64 keys, stable across
runs and tables.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from credit_ocr_backend_ray.stages.relational import shard_ids


def bucket_of_int(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """Engine-wide stable bucket of an int64 key: ``shard_ids``, the
    Fibonacci hash of every co-group shard."""
    return shard_ids(keys, n_buckets)


def _strip_meta(ds: "rd.Dataset") -> "rd.Dataset":
    """Drop schema metadata before a parquet write: pandas-block stages
    attach a b'pandas' metadata dict at Arrow conversion, and a schema
    carrying it is unhashable — every later ReadParquet worker of the
    written table then logs "Failed to hash the schemas" per task and
    loses the schema-dedup fast path. One zero-copy pyarrow map strips
    it at the source."""
    return ds.map_batches(lambda t: t.replace_schema_metadata(None),
                          batch_format="pyarrow")


def write_bucketed(ds: "rd.Dataset", path: str, key: str,
                   n_buckets: int = 32) -> int:
    """Write ``ds`` as a bucketed parquet table at ``path`` (one
    ``bucket=<b>`` directory per key-hash bucket). One shuffle pays for
    the permanent co-location. Returns the row count written. The write
    is directory-replacing per bucket (idempotent re-run)."""
    import shutil
    shutil.rmtree(path, ignore_errors=True)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["bucket"] = bucket_of_int(b[key].to_numpy(np.int64), n_buckets)
        return b

    tagged = _strip_meta(ds.map_batches(tag, batch_format="pandas"))
    tagged.write_parquet(path, partition_cols=["bucket"])
    # row count from parquet FOOTERS only — no data I/O
    import pyarrow.parquet as pq
    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in glob.glob(os.path.join(path, "bucket=*",
                                               "*.parquet")))


def bucket_files(path: str, bucket: int) -> list[str]:
    return sorted(glob.glob(os.path.join(path, f"bucket={bucket}",
                                         "*.parquet")))


@ray.remote
def _join_bucket(files_a: list[str], files_b: list[str], on_a: str,
                 on_b: str, cols: list[str] | None) -> pa.Table:
    import pyarrow.parquet as pq

    def load(files: list[str]) -> pd.DataFrame:
        if not files:
            return None
        return pa.concat_tables(
            [pq.read_table(f) for f in files]).to_pandas()

    a = load(files_a)
    b = load(files_b)
    if a is None or b is None:
        empty = pd.DataFrame(columns=cols or [])
        return pa.Table.from_pandas(empty, preserve_index=False)
    out = a.merge(b, left_on=on_a, right_on=on_b, how="inner")
    if cols is not None:
        out = out[cols]
    return pa.Table.from_pandas(out, preserve_index=False)


def bucketed_join(path_a: str, path_b: str, on_a: str, on_b: str,
                  n_buckets: int = 32,
                  cols: list[str] | None = None) -> "rd.Dataset":
    """Shuffle-FREE inner join of two tables bucketed by the same key
    hash and bucket count: ``n_buckets`` independent tasks, each reading
    one aligned bucket pair and merging locally; results re-enter the
    Dataset pipeline as Arrow refs (stay in the object store)."""
    refs = [
        _join_bucket.remote(bucket_files(path_a, b),
                            bucket_files(path_b, b), on_a, on_b, cols)
        for b in range(n_buckets)
    ]
    return rd.from_arrow_refs(refs)


@ray.remote
def _agg_bucket(files: list[str], key: str, sum_cols: dict,
                count_alias: str) -> pa.Table:
    import pyarrow.parquet as pq
    if not files:
        cols = {key: pd.Series([], dtype="int64"),
                count_alias: pd.Series([], dtype="int64")}
        cols.update({a: pd.Series([], dtype="int64")
                     for a in sum_cols.values()})
        return pa.Table.from_pandas(pd.DataFrame(cols),
                                    preserve_index=False)
    df = pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()
    out = df.groupby(key, as_index=False).agg(
        **{alias: (c, "sum") for c, alias in sum_cols.items()},
        **{count_alias: (key, "size")})
    return pa.Table.from_pandas(out, preserve_index=False)


def bucketed_agg(path: str, key: str, sum_cols: dict,
                 count_alias: str = "n",
                 n_buckets: int = 32) -> "rd.Dataset":
    """Shuffle-FREE grouped aggregate over a bucketed table: every key
    lives in exactly one bucket, so a per-bucket local groupby IS the
    global answer — no combiner round, no all-to-all. ``sum_cols`` maps
    input column -> output alias (same contract as
    ``relational.grouped_agg``)."""
    refs = [_agg_bucket.remote(bucket_files(path, b), key, sum_cols,
                               count_alias)
            for b in range(n_buckets)]
    return rd.from_arrow_refs(refs)


def write_range_partitioned(ds: "rd.Dataset", path: str, col: str,
                            n_parts: int = 16) -> np.ndarray:
    """Range-CLUSTERED parquet table without a global sort: partition
    boundaries come from the mergeable quantile sketch (one streaming
    pass; ``stages/sketch.approx_quantile``), then every row routes to
    its range directory in a second stateless pass. Partitions are
    value-disjoint by construction, so range scans prune whole
    directories from the FOOTERS and a k-way ordered consumer merges
    pre-clustered files instead of paying an all-to-all sort — the
    clustering-key idea of a warehouse table layout. Roughly equal-count
    partitions (sketch-bin granularity at the boundaries). Returns the
    ``n_parts - 1`` boundary values."""
    import shutil

    from ray.data.aggregate import Max, Min

    from credit_ocr_backend_ray.stages.sketch import approx_quantile

    shutil.rmtree(path, ignore_errors=True)
    mm = ds.aggregate(Min(col), Max(col))
    lo, hi = float(mm[f"min({col})"]), float(mm[f"max({col})"])
    qs = {f"__b{i}": i / n_parts for i in range(1, n_parts)}
    qrow = approx_quantile(ds, col, qs, lo, hi).to_pandas().iloc[0]
    bounds = np.array([float(qrow[f"__b{i}"]) for i in range(1, n_parts)])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["part"] = np.searchsorted(bounds, b[col].to_numpy(np.float64),
                                    side="right").astype(np.int64)
        return b

    _strip_meta(ds.map_batches(tag, batch_format="pandas")).write_parquet(
        path, partition_cols=["part"])
    return bounds


def read_value_range(path: str, col: str, lo: float, hi: float,
                     bounds: np.ndarray) -> "rd.Dataset":
    """Partition-pruned range scan of a range-partitioned table: only
    directories whose value range intersects [lo, hi] are read at all
    (plus an exact in-partition filter for the edge directories)."""
    import pyarrow.compute as pc

    first = int(np.searchsorted(bounds, lo, side="right"))
    last = int(np.searchsorted(bounds, hi, side="right"))
    files: list[str] = []
    for p in range(first, last + 1):
        files.extend(sorted(glob.glob(
            os.path.join(path, f"part={p}", "*.parquet"))))
    if not files:
        return rd.from_items([])
    return rd.read_parquet(files,
                           filter=(pc.field(col) >= lo)
                                  & (pc.field(col) <= hi))


def compact_dataset(path: str, out: str,
                    target_rows_per_file: int = 100_000) -> dict:
    """Small-file compaction: read a fragmented Parquet dataset and
    rewrite it as ~``target_rows_per_file``-row files — the maintenance
    op every incrementally-written (resumable, per-shard) output layout
    needs, since a 256-node run that checkpoints per shard leaves
    thousands of KB-scale files that make every later scan
    metadata-bound. Row content is byte-identical (no transform, no
    re-sort); only the file layout changes — so a compacted table shares
    its oracle with a plain scan of the source. Returns
    ``{files_in, files_out, rows}``."""
    import glob as _glob
    import shutil

    import ray.data as rd

    files_in = sorted(_glob.glob(os.path.join(path, "*.parquet")))
    ds = rd.read_parquet(files_in if files_in else path)
    rows = ds.count()
    n_out = max(1, -(-rows // target_rows_per_file))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    _strip_meta(ds.repartition(n_out)).write_parquet(out)
    return {"files_in": len(files_in),
            "files_out": len(_glob.glob(os.path.join(out, "*.parquet"))),
            "rows": rows}


def _morton2(bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Interleave two 16-bit bucket arrays into 32-bit Morton (Z-order)
    codes — fully vectorized bit spreading."""
    def spread(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.uint64)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
        return v
    return (spread(bx) | (spread(by) << np.uint64(1))).astype(np.int64)


def write_zorder(ds: "rd.Dataset", path: str, col_x: str, col_y: str,
                 n_parts: int = 16) -> dict:
    """Z-ORDER (Morton) clustered parquet layout for TWO-dimensional data
    skipping — the multi-column sibling of ``write_range_partitioned``
    (which prunes on one key only): both columns are equi-width bucketed
    to 16 bits, interleaved into a Morton code, and rows route to
    ~equal-count partitions split at streaming-sketch quantiles of the
    code — no global sort. Because Morton codes preserve 2-D locality,
    each partition covers a compact rectangle-ish region of (x, y) space;
    a per-partition (min, max) manifest of BOTH raw columns then lets a
    box scan skip whole directories. Returns the manifest dict (also
    written to ``_zorder_manifest.json`` inside ``path``)."""
    import json
    import shutil

    from ray.data.aggregate import Max, Min

    from credit_ocr_backend_ray.stages.sketch import approx_quantile

    shutil.rmtree(path, ignore_errors=True)
    mm = ds.aggregate(Min(col_x), Max(col_x), Min(col_y), Max(col_y))
    xlo, xhi = float(mm[f"min({col_x})"]), float(mm[f"max({col_x})"])
    ylo, yhi = float(mm[f"min({col_y})"]), float(mm[f"max({col_y})"])
    xw = (xhi - xlo) or 1.0
    yw = (yhi - ylo) or 1.0

    def add_z(b: pd.DataFrame) -> pd.DataFrame:
        bx = np.clip(((b[col_x].to_numpy(np.float64) - xlo) / xw
                      * 65535.0), 0, 65535).astype(np.uint64)
        by = np.clip(((b[col_y].to_numpy(np.float64) - ylo) / yw
                      * 65535.0), 0, 65535).astype(np.uint64)
        b = b.copy()
        b["__z"] = _morton2(bx, by)
        return b

    zds = ds.map_batches(add_z, batch_format="pandas")
    qs = {f"__b{i}": i / n_parts for i in range(1, n_parts)}
    qrow = approx_quantile(zds, "__z", qs, 0.0,
                           float(2 ** 32)).to_pandas().iloc[0]
    zb = np.array([float(qrow[f"__b{i}"]) for i in range(1, n_parts)])

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b["part"] = np.searchsorted(
            zb, b["__z"].to_numpy(np.float64), side="right").astype(
            np.int64)
        return b.drop(columns="__z")

    _strip_meta(zds.map_batches(tag, batch_format="pandas")).write_parquet(
        path, partition_cols=["part"])

    # per-partition raw-column extents from the PARQUET FOOTERS the
    # write just produced — metadata-only (no second pass over the data;
    # a grouped aggregate here was measured re-executing the whole
    # tagged pipeline)
    import pyarrow.parquet as pq

    parts: dict[str, list[float]] = {}
    for d in sorted(glob.glob(os.path.join(path, "part=*"))):
        pid = os.path.basename(d).split("=", 1)[1]
        mnx = mny = float("inf")
        mxx = mxy = float("-inf")
        for f in glob.glob(os.path.join(d, "*.parquet")):
            md = pq.ParquetFile(f).metadata
            names = {md.schema.column(i).name: i
                     for i in range(md.num_columns)}
            for rg in range(md.num_row_groups):
                sx = md.row_group(rg).column(names[col_x]).statistics
                sy = md.row_group(rg).column(names[col_y]).statistics
                if sx is not None and sx.has_min_max:
                    mnx = min(mnx, float(sx.min))
                    mxx = max(mxx, float(sx.max))
                if sy is not None and sy.has_min_max:
                    mny = min(mny, float(sy.min))
                    mxy = max(mxy, float(sy.max))
        if mnx <= mxx:
            parts[pid] = [mnx, mxx, mny, mxy]
    manifest = {"col_x": col_x, "col_y": col_y, "n_parts": int(n_parts),
                "parts": parts}
    with open(os.path.join(path, "_zorder_manifest.json"), "w") as f:
        json.dump(manifest, f)
    return manifest


def read_box(path: str, x_lo: float, x_hi: float, y_lo: float,
             y_hi: float, manifest: dict | None = None
             ) -> tuple["rd.Dataset", int]:
    """Box scan of a Z-ordered table: directories whose (x, y) extents
    don't intersect the query box are never read; survivors get the
    exact two-sided filter at the parquet read. Returns (dataset,
    n_parts_read) so callers can assert the skipping actually happened."""
    import json

    import pyarrow.compute as pc

    if manifest is None:
        with open(os.path.join(path, "_zorder_manifest.json")) as f:
            manifest = json.load(f)
    col_x, col_y = manifest["col_x"], manifest["col_y"]
    files: list[str] = []
    n_hit = 0
    for part, (mnx, mxx, mny, mxy) in manifest["parts"].items():
        if mxx < x_lo or mnx > x_hi or mxy < y_lo or mny > y_hi:
            continue
        n_hit += 1
        files.extend(sorted(glob.glob(
            os.path.join(path, f"part={part}", "*.parquet"))))
    if not files:
        return rd.from_items([]), 0
    flt = ((pc.field(col_x) >= x_lo) & (pc.field(col_x) <= x_hi)
           & (pc.field(col_y) >= y_lo) & (pc.field(col_y) <= y_hi))
    return rd.read_parquet(files, filter=flt), n_hit


@ray.remote
def _merge_bucket(target_files: list[str], update_files: list[str],
                  key: str, out_file: str) -> tuple[int, int]:
    """Merged content of one bucket: updates win on key collision, target
    rows without an update survive. Returns (rows_updated,
    rows_inserted)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    upd = pa.concat_tables([pq.read_table(f) for f in update_files],
                           promote_options="default")
    if "bucket" in upd.column_names:
        upd = upd.drop_columns(["bucket"])
    parts = [upd]
    n_updated = 0
    if target_files:
        tgt = pa.concat_tables([pq.read_table(f) for f in target_files],
                               promote_options="default")
        keep = tgt.filter(pc.invert(pc.is_in(tgt[key],
                                             value_set=upd[key])))
        n_updated = tgt.num_rows - keep.num_rows
        parts.append(keep.select(upd.column_names))
    merged = pa.concat_tables(parts, promote_options="default")
    pq.write_table(merged.replace_schema_metadata(None), out_file)
    return n_updated, upd.num_rows - n_updated


def merge_into(path: str, updates: "rd.Dataset", key: str, out_path: str,
               n_buckets: int = 32) -> dict:
    """Copy-on-write MERGE (upsert) into a bucketed table — the lakehouse
    ``MERGE INTO`` restated for the bucket store: rows of ``updates``
    replace target rows with the same ``key`` and insert otherwise. The
    result is a NEW snapshot directory (``out_path``), never an in-place
    mutation:

    - the updates are staged ONCE as a bucket-partitioned write using the
      target's bucket function, so each merge task reads exactly its
      aligned pair — no shuffle joins anywhere;
    - one Ray task per TOUCHED bucket rewrites that bucket (updates +
      anti-joined survivors);
    - untouched buckets HARD-LINK into the snapshot (zero bytes copied —
      at 100 TB the merge cost is proportional to the touched buckets,
      not the table);
    - the snapshot directory only gains its ``_done`` marker after every
      bucket landed, so a crashed merge is invisible to readers and a
      re-run starts clean.

    Contract: ``updates`` carries the target's full schema and at most
    one row per key (pre-combine with ``dedup_latest`` otherwise).
    Returns ``{buckets_touched, buckets_linked, rows_updated,
    rows_inserted}``."""
    import shutil
    import uuid

    marker = os.path.join(out_path, "_done")
    staging = out_path + ".staging"
    shutil.rmtree(out_path, ignore_errors=True)
    shutil.rmtree(staging, ignore_errors=True)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["bucket"] = bucket_of_int(b[key].to_numpy(np.int64), n_buckets)
        return b

    _strip_meta(updates.map_batches(tag, batch_format="pandas")
                ).write_parquet(staging, partition_cols=["bucket"])

    touched = sorted(
        int(d.split("=", 1)[1]) for d in os.listdir(staging)
        if d.startswith("bucket="))
    os.makedirs(out_path, exist_ok=True)
    refs = []
    for b in touched:
        bdir = os.path.join(out_path, f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        refs.append(_merge_bucket.remote(
            bucket_files(path, b),
            sorted(glob.glob(os.path.join(staging, f"bucket={b}",
                                          "*.parquet"))),
            key, os.path.join(bdir, f"merged-{uuid.uuid4().hex}.parquet")))

    linked = 0
    for d in os.listdir(path):
        if not d.startswith("bucket="):
            continue
        b = int(d.split("=", 1)[1])
        if b in set(touched):
            continue
        bdir = os.path.join(out_path, d)
        os.makedirs(bdir, exist_ok=True)
        for f in bucket_files(path, b):
            os.link(f, os.path.join(bdir, os.path.basename(f)))
        linked += 1

    results = ray.get(refs)
    shutil.rmtree(staging, ignore_errors=True)
    with open(marker, "w", encoding="utf-8") as f:
        f.write("ok")
    return {"buckets_touched": len(touched), "buckets_linked": linked,
            "rows_updated": int(sum(r[0] for r in results)),
            "rows_inserted": int(sum(r[1] for r in results))}


@ray.remote
def _diff_bucket(files_a: list[str], files_b: list[str],
                 key: str) -> pa.Table:
    """(key, change) rows for one aligned bucket pair: 'added' (B only),
    'removed' (A only), 'changed' (both, any non-key column differs)."""
    import pyarrow.parquet as pq

    def _read(files):
        if not files:
            return None
        return pa.concat_tables([pq.read_table(f) for f in files],
                                promote_options="default").to_pandas()

    a, b = _read(files_a), _read(files_b)
    out_k: list[int] = []
    out_c: list[str] = []
    if a is None and b is None:
        pass
    elif a is None:
        out_k, out_c = b[key].tolist(), ["added"] * len(b)
    elif b is None:
        out_k, out_c = a[key].tolist(), ["removed"] * len(a)
    else:
        cols = [c for c in a.columns if c != key and c in b.columns]
        m = a.merge(b, on=key, how="outer", suffixes=("__a", "__b"),
                    indicator=True)
        left = m["_merge"] == "left_only"
        right = m["_merge"] == "right_only"
        out_k += m.loc[left, key].tolist()
        out_c += ["removed"] * int(left.sum())
        out_k += m.loc[right, key].tolist()
        out_c += ["added"] * int(right.sum())
        both = m[m["_merge"] == "both"]
        if len(both) and cols:
            neq = np.zeros(len(both), dtype=bool)
            for c in cols:
                va, vb = both[f"{c}__a"], both[f"{c}__b"]
                neq |= ~((va == vb) | (va.isna() & vb.isna())).to_numpy()
            out_k += both.loc[neq, key].tolist()
            out_c += ["changed"] * int(neq.sum())
    return pa.table({key: pa.array([int(k) for k in out_k], pa.int64()),
                     "change": pa.array(out_c, pa.string())})


def snapshot_diff(path_a: str, path_b: str, key: str,
                  n_buckets: int = 32) -> "rd.Dataset":
    """Change-data-capture between two snapshots of a bucketed table
    (same key and bucket count — e.g. a table and its ``merge_into``
    result): one Ray task per aligned bucket pair emits (key, change)
    rows with change in {added, removed, changed}. Shuffle-free (the
    ``bucketed_join`` shape), and buckets whose file sets are the SAME
    INODES — exactly what ``merge_into`` hard-links for untouched
    buckets — are skipped without reading a byte, so diff cost is
    proportional to the buckets that actually changed."""
    refs = []
    skipped = 0
    for bkt in range(n_buckets):
        fa, fb = bucket_files(path_a, bkt), bucket_files(path_b, bkt)
        if [os.stat(f).st_ino for f in fa] == \
                [os.stat(f).st_ino for f in fb]:
            skipped += 1
            continue
        refs.append(_diff_bucket.remote(fa, fb, key))
    if not refs:
        return rd.from_arrow(pa.table({key: pa.array([], pa.int64()),
                                       "change": pa.array([],
                                                          pa.string())}))
    return rd.from_arrow_refs(refs)
