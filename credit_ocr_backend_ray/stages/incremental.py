"""Cross-run incremental exact dedup: a persisted content-hash index.

At 100 TB a crawl arrives in increments; re-deduplicating the full corpus
per increment is O(corpus) every run. Instead the engine persists each
run's content hashes as a bucket-partitioned parquet INDEX and each new
increment:

1. dedups within itself (``dedup_exact`` — combiner-pruned shuffle),
2. anti-joins its hashes against the index — broadcast set filter when
   the index slice is small (size read from parquet metadata, no data
   I/O), hash-shuffle LEFT ANTI join otherwise,
3. appends its surviving hashes to the index under a fresh ``run=<id>``
   directory — append-only, so a crashed run never corrupts prior state
   and re-running an increment is idempotent at the directory level.

The index stores only (bucket, hash) — a 100 TB corpus of ~40 KB pages is
~2.5e9 hashes ≈ 80 GB of index, which the bucket partitioning spreads so
the anti-join prunes both sides to matching buckets. This extends the
reference's single-database ON CONFLICT dedup (schema.sql:8,
src/dms_mock/service.py:26-32) to the multi-run setting it cannot reach.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

_N_BUCKETS = 64
_BROADCAST_INDEX_BYTES = 512 << 20


def _bucket_of(hashes: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Bucket id from the hash hex prefix — stable across runs/engines.
    Vectorized: slice the 4-char prefix and parse base-16 in Arrow/numpy
    instead of a per-row int(h, 16) loop."""
    import pyarrow.compute as pc

    prefix = pc.utf8_slice_codeunits(hashes, 0, 4)
    # hex prefixes of sha/md5 hex digests: lowercase [0-9a-f]{4}, so the
    # joined ASCII bytes reshape cleanly to (n, 4)
    b = np.frombuffer("".join(prefix.to_pylist()).encode("ascii"),
                      dtype=np.uint8).reshape(-1, 4).astype(np.int32)
    digits = np.where(b >= ord("a"), b - ord("a") + 10, b - ord("0"))
    vals = ((digits[:, 0] << 12) | (digits[:, 1] << 8)
            | (digits[:, 2] << 4) | digits[:, 3])
    return (vals % _N_BUCKETS).astype(np.int32)


def index_files(index_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(index_dir, "run=*", "*.parquet")))


def hash_index_append(ds: "rd.Dataset", index_dir: str, run_id: str,
                      hash_col: str = "text_hash") -> int:
    """Append ``ds``'s hash column to the index under ``run=<run_id>``.
    Returns the number of hashes written. Existing run directories are
    left untouched (append-only contract); re-appending the same run_id
    overwrites only that run's files (idempotent resume)."""
    out_dir = os.path.join(index_dir, f"run={run_id}")
    import shutil
    shutil.rmtree(out_dir, ignore_errors=True)

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "bucket": pa.array(_bucket_of(t[hash_col])),
            "hash": t[hash_col],
        })

    hashes = ds.map_batches(project, batch_format="pyarrow")
    hashes.write_parquet(out_dir)
    import pyarrow.parquet as pq
    return sum(pq.read_metadata(f).num_rows
               for f in glob.glob(os.path.join(out_dir, "*.parquet")))


def dedup_against_index(ds: "rd.Dataset", index_dir: str,
                        hash_col: str = "text_hash",
                        num_partitions: int | None = None) -> "rd.Dataset":
    """Keep only rows whose ``hash_col`` is NOT in the persisted index.
    Empty/missing index passes everything through. Broadcast set filter
    when the on-disk index is small; LEFT ANTI hash join otherwise."""
    files = index_files(index_dir)
    if not files:
        return ds

    total_bytes = sum(os.path.getsize(f) for f in files)
    if total_bytes < _BROADCAST_INDEX_BYTES:
        import pyarrow.parquet as pq
        seen = set()
        for f in files:
            seen.update(pq.read_table(f, columns=["hash"])
                        .column("hash").to_pylist())
        ref = ray.put(seen)

        def filt(t: pa.Table) -> pa.Table:
            s = ray.get(ref)
            mask = pa.array([h not in s for h in t[hash_col].to_pylist()])
            return t.filter(mask)

        return ds.map_batches(filt, batch_format="pyarrow")

    from credit_ocr_backend_ray.sources.pq_read import read_parquet_clean
    from credit_ocr_backend_ray.stages.relational import shuffle_join
    idx = read_parquet_clean(files, columns=["hash"])
    return shuffle_join(ds, idx, hash_col, "hash", join_type="left_anti",
                        num_partitions=num_partitions)


def incremental_dedup_run(ds: "rd.Dataset", index_dir: str, run_id: str,
                          hash_col: str = "text_hash",
                          tie_col: str = "doc_id") -> "rd.Dataset":
    """One increment end-to-end: within-run exact dedup -> anti-join
    against prior runs' index -> append survivors' hashes to the index.
    Returns the surviving rows (materialized — the index append must
    complete before the caller's next increment starts)."""
    from credit_ocr_backend_ray.stages.dedup import dedup_exact

    within = dedup_exact(ds, hash_col=hash_col, tie_col=tie_col)
    fresh = dedup_against_index(within, index_dir, hash_col).materialize()
    hash_index_append(fresh, index_dir, run_id, hash_col)
    return fresh


# ----------------------------------------------- persisted near-dup index

_LSH_BUCKETS = 64


def minhash_index_write(ds: "rd.Dataset", index_dir: str,
                        text_col: str = "text", id_col: str = "doc_id",
                        bands: int = 16) -> int:
    """Persist a MinHash-LSH INDEX of the corpus so later increments can
    be near-dup-checked WITHOUT rescanning the corpus — the approximate
    sibling of the exact content-hash index above. Two bucketed parquet
    sub-tables:

    - ``bands/``: (band_key, doc_id), bucketed by band-key hash — the
      LSH probe structure;
    - ``texts/``: (doc_id, text), bucketed by id hash — the verification
      payloads, fetched only for candidate ids.

    Returns the indexed document count."""
    from credit_ocr_backend_ray.functions.hashing import (
        minhash_band_keys_for_texts)
    from credit_ocr_backend_ray.state.bucket_store import write_bucketed

    def band_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t[text_col].to_pylist()
        # vectorized batch kernel (r5); stored as int64 two's-complement
        # VIEW — the bucketed store keys on int64
        keys = minhash_band_keys_for_texts(texts, bands=bands)
        return pa.table({
            "band_key": pa.array(np.ascontiguousarray(keys.reshape(-1))
                                 .view(np.int64), pa.int64()),
            id_col: pa.array(np.repeat(ids, bands), pa.int64())})

    write_bucketed(ds.map_batches(band_rows, batch_format="pyarrow"),
                   os.path.join(index_dir, "bands"), "band_key",
                   n_buckets=_LSH_BUCKETS)
    n = write_bucketed(ds.select_columns([id_col, text_col]),
                       os.path.join(index_dir, "texts"), id_col,
                       n_buckets=_LSH_BUCKETS)
    return n


def minhash_index_query(new_ds: "rd.Dataset", index_dir: str,
                        text_col: str = "text", id_col: str = "doc_id",
                        bands: int = 16,
                        threshold: float = 0.8) -> pd.DataFrame:
    """Near-dup check of a NEW increment against the persisted index —
    fully DISTRIBUTED: the increment is a dataset end to end (the r03
    shape materialized it on the driver, capping increments at driver
    memory; a 100k-row increment now flows as blocks).

    Plan (no step holds the increment in one place):
    1. probe rows (map_batches): per doc, its ``bands`` (band_key,
       new_id) rows, tagged with the index's bucket of the key;
    2. candidate match (groupby bucket -> map_groups, <= 64 groups):
       each group reads ITS band-bucket partition of the index once and
       inner-merges — only buckets the increment hashes into are read,
       never the whole index;
    3. pair dedup + new-text attach: distinct (new_id, idx_id) via one
       grouped count (a pair found by several bands must verify once),
       then a hash join back to the increment's texts;
    4. verify (groupby text-bucket -> map_groups): each group reads only
       its candidates' text buckets and computes exact Jaccard.

    Returns verified pairs (new_id, idx_id, jaccard >= threshold) as a
    DataFrame — the verified-pair set is the one genuinely small output.
    The index side stays on disk throughout."""
    from credit_ocr_backend_ray.functions.hashing import (
        jaccard, minhash_band_keys_for_texts)
    from credit_ocr_backend_ray.state.bucket_store import (
        bucket_files, bucket_of_int)

    bands_dir = os.path.join(index_dir, "bands")
    texts_dir = os.path.join(index_dir, "texts")
    empty = pd.DataFrame({"new_id": pd.Series([], dtype="int64"),
                          "idx_id": pd.Series([], dtype="int64"),
                          "jaccard": pd.Series([], dtype="float64")})

    def probe_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t[text_col].to_pylist()
        # vectorized batch kernel (r5) — MUST match minhash_index_write's
        # band keys exactly, so both sides share the one entry point
        keys = np.ascontiguousarray(
            minhash_band_keys_for_texts(texts, bands=bands)
            .reshape(-1)).view(np.int64)
        return pa.table({
            "new_id": pa.array(np.repeat(ids, bands), pa.int64()),
            "band_key": pa.array(keys, pa.int64()),
            "bucket": pa.array(bucket_of_int(keys, _LSH_BUCKETS)),
        })

    probe = (new_ds.select_columns([id_col, text_col])
                   .map_batches(probe_rows, batch_format="pyarrow"))

    def match_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq
        b = int(g["bucket"].iloc[0])
        files = bucket_files(bands_dir, b)
        if not files:
            return pd.DataFrame({"new_id": pd.Series([], dtype="int64"),
                                 "idx_id": pd.Series([], dtype="int64")})
        idx = pd.concat([pq.read_table(f).to_pandas() for f in files],
                        ignore_index=True)
        j = g[["new_id", "band_key"]].merge(idx, on="band_key",
                                            how="inner")
        return (j[["new_id", id_col]].rename(columns={id_col: "idx_id"})
                .drop_duplicates())

    # distinct (new_id, idx_id): a pair surfaced by several bands lands
    # in several bucket groups — verify it once. Coarse-shard co-group
    # (candidate-pair count is unbounded; Ray's per-key count prices by
    # distinct keys), then strip the pandas-block schema metadata before
    # the join shuffle (unhashable metadata defeats Ray's schema dedup).
    from credit_ocr_backend_ray.stages.relational import (
        shard_cogroup, shuffle_join)
    cands = (shard_cogroup(
                  probe.groupby("bucket")
                       .map_groups(match_bucket, batch_format="pandas"),
                  "new_id",
                  lambda g: g.drop_duplicates(["new_id", "idx_id"]))
                  .map_batches(lambda t: t.replace_schema_metadata(None),
                               batch_format="pyarrow")
                  .materialize())  # bounded: candidate PAIRS only
    if cands.count() == 0:
        return empty

    # attach the increment's text per pair (hash join back to new_ds;
    # the empty-block schema race is guarded by compat at import)
    new_texts = (new_ds.select_columns([id_col, text_col])
                 .map_batches(lambda t: t.rename_columns(
                     ["new_id", "__new_text"]).replace_schema_metadata(
                     None), batch_format="pyarrow"))
    paired = shuffle_join(cands, new_texts, "new_id", num_partitions=8)

    def tag_tbucket(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["idx_id"].to_pylist(), dtype=np.int64)
        return t.append_column(
            "__tb", pa.array(bucket_of_int(ids, _LSH_BUCKETS)))

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq
        b = int(g["__tb"].iloc[0])
        need = set(g["idx_id"].astype(np.int64).tolist())
        texts: dict[int, str] = {}
        for f in bucket_files(texts_dir, b):
            t = pq.read_table(f, columns=[id_col, text_col]).to_pandas()
            sel = t[t[id_col].isin(need)]
            texts.update(zip(sel[id_col].astype(int), sel[text_col]))
        out = []
        for nid, iid, ntxt in zip(g["new_id"], g["idx_id"],
                                  g["__new_text"]):
            jv = jaccard(ntxt or "", texts.get(int(iid)) or "")
            if jv >= threshold:
                out.append((int(nid), int(iid), float(jv)))
        if not out:
            return pd.DataFrame({"new_id": pd.Series([], dtype="int64"),
                                 "idx_id": pd.Series([], dtype="int64"),
                                 "jaccard": pd.Series([],
                                                      dtype="float64")})
        return pd.DataFrame(out, columns=["new_id", "idx_id", "jaccard"])

    verified = (paired.map_batches(tag_tbucket, batch_format="pyarrow")
                      .groupby("__tb")
                      .map_groups(verify_bucket, batch_format="pandas")
                      .to_pandas())
    if verified.empty:
        return empty
    return (verified.sort_values(["new_id", "idx_id"])
                    .reset_index(drop=True))
