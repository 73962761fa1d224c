"""Similarity search over an embedding column (``list<float>``).

One top-k layer, ``_scored_topk``, runs every nearest-neighbour operator:
a batch scorer (``batch -> (ids, scores[n_rows, n_queries])``), a
per-batch selection of each query's ``k`` best rows by ``(-score, id)``
and one driver merge in the same order. No shuffle, and ties at the cut
go to the smaller id at any block count. The operators differ only in
their scorer: ``knn_bruteforce`` scores every row against a broadcast
query matrix; ``knn_lsh`` (random-hyperplane buckets within
``probe_hamming`` flips), ``knn_ivf`` (probed inverted lists) and
``knn_ivf_persisted`` (only the probed ``list_id=`` directories are
read) score a fraction of the rows; ``knn_pq`` scores 1-byte codes
through a lookup table. IVF trains in one place (``_ivf_centroids``)
and every nearest-centroid assignment is ``_nearest``.
``embedding_near_dup`` finds near-identical pairs with banded LSH.

The brute-force result is SQL-pinned against DuckDB's
``list_cosine_similarity`` (cosines rounded to 5 decimals to absorb
float-summation order).
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

_LSH_SEED = 0xA11CE


def _as_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> column — zero-copy
    through the Arrow list buffers (flatten + reshape) when the lists are
    equal-length, which embedding columns are by construction; the
    ``to_pylist`` path only remains as the ragged-input fallback."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_fixed_size_list(arr.type):
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        return flat.reshape(len(arr), arr.type.list_size).astype(
            np.float64, copy=False)
    if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
        offsets = arr.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offsets)
        if len(widths) and (widths == widths[0]).all() and widths[0] > 0:
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(len(arr), int(widths[0])).astype(
                np.float64, copy=False)
    return np.asarray(arr.to_pylist(), dtype=np.float64)


def _norm_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


# ------------------------------------------------------------- top-k layer

def _batch_topk(ids: np.ndarray, scores: np.ndarray, k: int):
    """(query, id, score) of each query's ``k`` best rows of one batch by
    ``(-score, id)``, in that order. An O(n) partition finds every
    query's k-th score; only the rows at or above it are sorted, so rows
    tied at the cut compete on id instead of being dropped arbitrarily."""
    keep = np.ones(scores.shape, dtype=bool)
    if scores.shape[0] > k:
        kth_row = np.argpartition(-scores, k - 1, axis=0)[k - 1]
        keep = scores >= scores[kth_row, np.arange(scores.shape[1])]
    rows, qs = np.nonzero(keep)
    s, i = scores[rows, qs], ids[rows]
    order = np.lexsort((i, -s, qs))
    qs, i, s = qs[order], i[order], s[order]
    top = np.arange(len(qs)) - np.searchsorted(qs, qs) < k
    return qs[top], i[top], s[top]


def _scored_topk(ds: "rd.Dataset", score, k: int, id_col: str,
                 score_col: str, round_to: int | None) -> pd.DataFrame:
    """The one top-k operator: ``score(batch) -> (ids, scores[n_rows,
    n_queries])`` runs per batch, ``_batch_topk`` keeps each query's k
    best rows, and the driver merges the k-per-batch candidates in the
    same ``(-score, id)`` order. Returns (query_id, id_col, score_col)
    sorted by (query_id, -score, id), scores rounded to ``round_to``
    places when given."""
    cols = ["query_id", id_col, score_col]

    def partial(batch: pa.Table) -> pa.Table:
        qs, ids, s = _batch_topk(*score(batch), k)
        return pa.table({"query_id": pa.array(qs, pa.int64()),
                         id_col: pa.array(ids, pa.int64()),
                         score_col: pa.array(s, pa.float64())})

    cand = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    # a scan that kept no row at all comes back without columns
    for _, grp in cand.reindex(columns=cols).groupby("query_id"):
        rows.extend(heapq.nsmallest(k, grp.itertuples(index=False,
                                                      name=None),
                                    key=lambda r: (-r[2], r[1])))
    out = pd.DataFrame(rows, columns=cols)
    if round_to is not None:
        out[score_col] = out[score_col].round(round_to)
    return (out.sort_values(["query_id", score_col, id_col],
                            ascending=[True, False, True])
               .reset_index(drop=True))


def _cosine_topk(ds: "rd.Dataset", queries: np.ndarray, k: int,
                 id_col: str, vec_col: str, keep=None,
                 round_to: int | None = None) -> pd.DataFrame:
    """Cosine top-k through ``_scored_topk``: the query matrix is
    broadcast once, and ``keep(unit_vecs) -> mask``, when given, picks
    the rows of a batch that score (the probed buckets or lists)."""
    qref = ray.put(_norm_rows(np.asarray(queries, dtype=np.float64)))

    def score(batch: pa.Table):
        vecs = _norm_rows(_as_matrix(batch[vec_col]))
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        if keep is not None:
            mask = keep(vecs)
            vecs, ids = vecs[mask], ids[mask]
        return ids, vecs @ ray.get(qref).T

    return _scored_topk(ds, score, k, id_col, "cos", round_to)


def knn_bruteforce(ds: "rd.Dataset", queries: np.ndarray, k: int = 10,
                   id_col: str = "vec_id", vec_col: str = "embedding",
                   round_to: int | None = 5) -> pd.DataFrame:
    """Exact top-k by cosine for each query row; returns
    (query_id, vec_id, cos) sorted by (query_id, -cos, vec_id)."""
    return _cosine_topk(ds, queries, k, id_col, vec_col,
                        round_to=round_to)


def _hyperplanes(dim: int, bits: int) -> np.ndarray:
    rng = np.random.default_rng(_LSH_SEED)
    return rng.standard_normal((bits, dim))


def lsh_bucket_ids(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    signs = (vecs @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0])).astype(np.int64)
    return signs.astype(np.int64) @ weights


def knn_lsh(ds: "rd.Dataset", queries: np.ndarray, k: int = 10,
            id_col: str = "vec_id", vec_col: str = "embedding",
            bits: int = 6, probe_hamming: int = 1) -> pd.DataFrame:
    """Approximate top-k: probe only buckets within ``probe_hamming`` bit
    flips of the query's bucket (multi-probe LSH)."""
    q = _norm_rows(np.asarray(queries, dtype=np.float64))
    planes = _hyperplanes(q.shape[1], bits)
    flips = [0] + ([1 << f for f in range(bits)] if probe_hamming >= 1 else [])
    probe = np.unique(lsh_bucket_ids(q, planes)[:, None] ^ np.array(flips))
    return _cosine_topk(
        ds, queries, k, id_col, vec_col,
        keep=lambda vecs: np.isin(lsh_bucket_ids(vecs, planes), probe))


# --------------------------------------------------------- k-means and IVF

def _nearest(vecs: np.ndarray,
             cent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and cosine of each unit row's nearest centroid (the first
    one on a tie)."""
    sims = vecs @ cent.T
    a = np.argmax(sims, axis=1)
    return a, sims[np.arange(len(a)), a]


def _id_sample(ds: "rd.Dataset", id_col: str, vec_col: str,
               below: int) -> np.ndarray:
    """Vectors of the rows with ``id < below``, in id order: the
    deterministic bounded training sample of k-means and IVF."""
    t = (ds.filter(expr=f"{id_col} < {below}")
           .select_columns([id_col, vec_col]).to_pandas()
           .sort_values(id_col))
    return np.asarray(t[vec_col].tolist(), dtype=np.float64)


def _fit_centroids(sample: np.ndarray, nlist: int, iters: int = 5) -> np.ndarray:
    """Deterministic spherical k-means-lite: first-nlist init on the sorted
    sample, ``iters`` Lloyd rounds, centroids re-normalized each round.
    Driver-side on a bounded sample by design (IVF trains on a sample at any
    scale; the assignment pass is the distributed part)."""
    sample = _norm_rows(sample)
    cent = sample[:nlist].copy()
    for _ in range(iters):
        assign, _ = _nearest(sample, cent)
        for c in range(nlist):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _norm_rows(cent)
    return cent


def _ivf_centroids(ds: "rd.Dataset", nlist: int, id_col: str, vec_col: str,
                   train_ids: int) -> np.ndarray:
    """IVF training, shared by every IVF operator: ``_fit_centroids`` on
    the ``id < train_ids`` sample, so every path sees the same lists."""
    sample = _id_sample(ds, id_col, vec_col, train_ids)
    return _fit_centroids(sample, min(nlist, len(sample)))


def _ivf_lists(ds: "rd.Dataset", cent: np.ndarray, id_col: str,
               vec_col: str) -> "rd.Dataset":
    """(id, vector, list_id): every row tagged with its nearest list."""
    cref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        a, _ = _nearest(_norm_rows(_as_matrix(batch[vec_col])),
                        ray.get(cref))
        return batch.append_column(
            "list_id", pa.array(a.astype(np.int32), pa.int32())
        ).replace_schema_metadata(None)

    return (ds.select_columns([id_col, vec_col])
              .map_batches(assign, batch_format="pyarrow"))


def _probe_lists(queries: np.ndarray, cent: np.ndarray,
                 nprobe: int) -> np.ndarray:
    """Sorted union of every query's ``nprobe`` nearest lists; centroid
    ties go to the smaller list id, as in ``_nearest``."""
    q = _norm_rows(np.asarray(queries, dtype=np.float64))
    order = np.argsort(-(q @ cent.T), axis=1, kind="stable")
    return np.unique(order[:, :min(nprobe, cent.shape[0])])


def kmeans_fit(ds: "rd.Dataset", nlist: int = 16, iters: int = 5,
               id_col: str = "vec_id", vec_col: str = "embedding",
               init_ids: int = 2048) -> tuple[np.ndarray, list[float]]:
    """Distributed Lloyd's spherical k-means over the FULL dataset — the
    iterative-algorithm pattern: per iteration, broadcast the centroids
    (``ray.put`` once), every batch computes assignments vectorized and
    emits ONE (nlist x dim) partial sum + count row, and the driver folds
    the tiny partial set into new centroids. No shuffle: partial size is
    O(nlist·dim·batches), independent of row count. Returns (centroids,
    per-iteration mean-cosine history — non-decreasing by Lloyd's
    monotonicity). Init: deterministic STRIDED rows of the sorted
    ``id < init_ids`` sample (first-n would start every centroid inside
    one region when ids correlate with content)."""
    sample = _norm_rows(_id_sample(ds, id_col, vec_col, init_ids))
    nlist = min(nlist, len(sample))
    cent = sample[:: max(1, len(sample) // nlist)][:nlist].copy()
    dim = cent.shape[1]
    history: list[float] = []

    for _ in range(iters):
        cref = ray.put(cent)

        def partial(batch: pa.Table) -> pa.Table:
            vecs = _norm_rows(_as_matrix(batch[vec_col]))
            a, best = _nearest(vecs, ray.get(cref))
            sums = np.zeros((nlist, dim), dtype=np.float64)
            np.add.at(sums, a, vecs)
            counts = np.bincount(a, minlength=nlist).astype(np.int64)
            return pa.table({
                "sums": pa.array([sums.tobytes()], pa.binary()),
                "counts": pa.array([counts.tobytes()], pa.binary()),
                "cos_sum": pa.array([float(best.sum())], pa.float64()),
                "n": pa.array([len(a)], pa.int64()),
            })

        parts = (ds.select_columns([vec_col])
                   .map_batches(partial, batch_format="pyarrow").to_pandas())
        sums = np.zeros((nlist, dim), dtype=np.float64)
        counts = np.zeros(nlist, dtype=np.int64)
        for s, c in zip(parts["sums"], parts["counts"]):
            sums += np.frombuffer(s, dtype=np.float64).reshape(nlist, dim)
            counts += np.frombuffer(c, dtype=np.int64)
        history.append(float(parts["cos_sum"].sum() / max(parts["n"].sum(), 1)))
        nonempty = counts > 0
        cent[nonempty] = sums[nonempty] / counts[nonempty, None]
        cent = _norm_rows(cent)

    return cent, history


def ivf_assign(ds: "rd.Dataset", nlist: int = 16,
               id_col: str = "vec_id", vec_col: str = "embedding",
               train_ids: int = 2048) -> "rd.Dataset":
    """Cluster-assignment pass (k-means inference): broadcast the trained
    centroids once, each batch computes argmax-cosine vectorized. At scale
    this column is persisted (partition key for IVF probing and for
    cluster-balanced sampling of training data)."""
    cent = _ivf_centroids(ds, nlist, id_col, vec_col, train_ids)
    return _ivf_lists(ds, cent, id_col, vec_col).select_columns(
        [id_col, "list_id"])


def knn_ivf(ds: "rd.Dataset", queries: np.ndarray, k: int = 10,
            id_col: str = "vec_id", vec_col: str = "embedding",
            nlist: int = 16, nprobe: int = 4,
            train_ids: int = 2048) -> pd.DataFrame:
    """IVF approximate top-k: train centroids on the vectors with
    ``id < train_ids`` (deterministic sample), then each batch scores only
    vectors whose nearest centroid is among the query's ``nprobe`` closest
    lists. ``ivf_index_write`` persists the list assignment and
    ``knn_ivf_persisted`` turns the probe filter into a directory prune —
    the per-batch math is the same."""
    cent = _ivf_centroids(ds, nlist, id_col, vec_col, train_ids)
    probe = _probe_lists(queries, cent, nprobe)
    return _cosine_topk(
        ds, queries, k, id_col, vec_col,
        keep=lambda vecs: np.isin(_nearest(vecs, cent)[0], probe))


def ivf_index_write(ds: "rd.Dataset", index_dir: str, nlist: int = 16,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    train_ids: int = 2048) -> dict:
    """Persist the IVF layout that ``knn_ivf``'s docstring promises: train
    centroids on the deterministic ``id < train_ids`` sample (same
    ``_ivf_centroids`` as the in-memory path, so assignments are
    identical), assign every vector its nearest list, and write the corpus
    as parquet PARTITIONED BY ``list_id`` — one directory per inverted
    list. One pass, one write; the centroids (nlist x dim floats, tiny)
    land in a JSON manifest beside the data. At 100 TB this is the build
    step you amortize across every later query batch: probing reads only
    ``nprobe`` of ``nlist`` directories (footer-level pruning, the
    lineitem_box_scan pattern) instead of scanning the corpus."""
    import glob as _glob
    import json
    import os
    import shutil

    cent = _ivf_centroids(ds, nlist, id_col, vec_col, train_ids)
    shutil.rmtree(index_dir, ignore_errors=True)
    os.makedirs(index_dir, exist_ok=True)
    _ivf_lists(ds, cent, id_col, vec_col).write_parquet(
        index_dir, partition_cols=["list_id"])
    manifest = {"nlist": int(cent.shape[0]), "dim": int(cent.shape[1]),
                "id_col": id_col, "vec_col": vec_col,
                "centroids": cent.tolist()}
    with open(os.path.join(index_dir, "_ivf_manifest.json"), "w",
              encoding="utf-8") as f:
        json.dump(manifest, f)
    manifest["n_files"] = len(_glob.glob(
        os.path.join(index_dir, "list_id=*", "*.parquet")))
    return manifest


def knn_ivf_persisted(index_dir: str, queries: np.ndarray, k: int = 10,
                      nprobe: int = 4) -> pd.DataFrame:
    """Top-k over a persisted IVF layout (``ivf_index_write``): pick each
    query's ``nprobe`` nearest centroids from the manifest, read ONLY the
    matching ``list_id=<p>`` partition directories, brute-force cosine
    inside them. Result is identical to in-memory ``knn_ivf`` with the
    same (nlist, nprobe, train sample) — pinned by
    tests/test_relational_ops.py — but the scan touches ~nprobe/nlist of the
    corpus bytes instead of reading everything and masking."""
    import glob as _glob
    import json
    import os

    with open(os.path.join(index_dir, "_ivf_manifest.json"),
              encoding="utf-8") as f:
        m = json.load(f)
    id_col = m["id_col"]
    vec_col = m["vec_col"]
    cent = np.asarray(m["centroids"], dtype=np.float64)
    files: list[str] = []
    for p in _probe_lists(queries, cent, nprobe).tolist():
        files.extend(sorted(_glob.glob(
            os.path.join(index_dir, f"list_id={p}", "*.parquet"))))
    if not files:
        return pd.DataFrame(columns=["query_id", id_col, "cos"])
    return _cosine_topk(rd.read_parquet(files, columns=[id_col, vec_col]),
                        queries, k, id_col, vec_col)


def label_centroids(ds: "rd.Dataset", key_col: str = "label",
                    vec_col: str = "embedding") -> pd.DataFrame:
    """Per-label mean embedding (class centroids — the prototype vectors
    of retrieval/cluster-quality checks), combiner-shaped for a vector
    column: each batch emits ONE (label, sum-vector, count) partial row
    (the sum rides as raw float64 bytes, so shuffle volume is
    labels x batches x dim — never the vectors), folded on the driver
    (labels are an enum, the frame is tiny). Output long form
    (label, dim_idx, centroid) rounded to 6 decimals (+0.0 normalizes
    IEEE -0.0), matching the SQL unnest oracle."""
    def partial(t: pa.Table) -> pa.Table:
        vecs = _as_matrix(t[vec_col])
        labels = np.asarray(t[key_col].to_pylist(), dtype=np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), vecs.shape[1]), dtype=np.float64)
        np.add.at(sums, inv, vecs)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            key_col: pa.array(uniq, pa.int64()),
            "__sum": pa.array([s.tobytes() for s in sums], pa.binary()),
            "__n": pa.array(counts, pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    for lbl, g in parts.groupby(key_col):
        acc = None
        for b in g["__sum"]:
            v = np.frombuffer(b, dtype=np.float64)
            acc = v.copy() if acc is None else acc + v
        cent = acc / g["__n"].sum()
        for i, c in enumerate(cent):
            rows.append((int(lbl), i, round(float(c), 6) + 0.0))
    return (pd.DataFrame(rows, columns=[key_col, "dim_idx", "centroid"])
            .sort_values([key_col, "dim_idx"]).reset_index(drop=True))


def _cov_fold(ds: "rd.Dataset", vec_col: str):
    """One (X^T X, column-sum, n) partial per batch, folded on the
    driver: the bounded-size covariance pass shared by
    ``embedding_covariance`` and ``embedding_pca``. Shuffle volume is
    batches x dim^2 bytes — row count never crosses the wire."""
    def partial(t: pa.Table) -> pa.Table:
        x = _as_matrix(t[vec_col])
        return pa.table({
            "__xtx": pa.array([(x.T @ x).tobytes()], pa.binary()),
            "__s": pa.array([x.sum(axis=0).tobytes()], pa.binary()),
            "__n": pa.array([x.shape[0]], pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    dim = len(np.frombuffer(parts["__s"].iloc[0], np.float64))
    xtx = np.zeros((dim, dim), np.float64)
    s = np.zeros(dim, np.float64)
    n = 0
    for bx, bs, bn in zip(parts["__xtx"], parts["__s"], parts["__n"]):
        xtx += np.frombuffer(bx, np.float64).reshape(dim, dim)
        s += np.frombuffer(bs, np.float64)
        n += int(bn)
    mu = s / n
    cov = xtx / n - np.outer(mu, mu)
    return cov, mu, n


def embedding_pca(ds: "rd.Dataset", k: int = 4, id_col: str = "vec_id",
                  vec_col: str = "embedding") -> "rd.Dataset":
    """Distributed PCA projection — dimensionality reduction at corpus
    scale: ONE covariance-partial pass (``_cov_fold``: a dim x dim
    block per batch, never the rows), an eigendecomposition of the tiny
    dim x dim matrix on the driver, and a stateless broadcast-matmul
    pass projecting every vector onto the top-``k`` principal
    components.

    Deterministic sign convention: each component is flipped so its
    largest-magnitude entry is positive (ties broken by lowest index),
    which pins the otherwise-arbitrary eigenvector sign. Output:
    (id, pc_0..pc_{k-1}) rounded to 6 decimals (+0.0 normalizes IEEE
    -0.0); eigenvalue/variance shares are read from
    ``embedding_covariance``. Scale: the driver touches dim^2 floats;
    the projection streams."""
    cov, mu, _n = _cov_fold(ds, vec_col)
    w, v = np.linalg.eigh(cov)          # ascending eigenvalues
    order = np.argsort(w)[::-1][:k]
    comps = v[:, order]                  # dim x k
    flip = np.sign(comps[np.abs(comps).argmax(axis=0),
                         np.arange(comps.shape[1])])
    flip[flip == 0] = 1.0
    comps = comps * flip
    pref = ray.put((mu, comps))

    def project(t: pa.Table) -> pa.Table:
        m, c = ray.get(pref)
        x = _as_matrix(t[vec_col])
        p = np.round((x - m) @ c, 6) + 0.0
        cols = {id_col: t[id_col]}
        for j in range(c.shape[1]):
            cols[f"pc_{j}"] = pa.array(p[:, j], pa.float64())
        return pa.table(cols)

    return (ds.select_columns([id_col, vec_col])
              .map_batches(project, batch_format="pyarrow"))


def embedding_covariance(ds: "rd.Dataset",
                         vec_col: str = "embedding") -> pd.DataFrame:
    """Population covariance matrix of the embedding dimensions — the
    distributed linear-algebra partial every PCA/whitening/feature-drift
    check starts from: each batch emits ONE (X^T X, column-sum, n)
    partial (a dim x dim float64 block as raw bytes), the driver folds
    the tiny partial set, and ``cov = XtX/n - mu mu^T``. Shuffle volume
    is batches x dim^2 bytes, independent of row count; rows are never
    shuffled. Output long form (dim_i, dim_j, cov) for i <= j, rounded
    to 6 decimals (+0.0 normalizes IEEE -0.0) to match the SQL
    covar_pop oracle."""
    cov, mu, n = _cov_fold(ds, vec_col)
    iu = np.triu_indices(cov.shape[0])
    return pd.DataFrame({
        "dim_i": iu[0].astype(np.int64),
        "dim_j": iu[1].astype(np.int64),
        "cov": np.round(cov[iu], 6) + 0.0,
    })


def embedding_near_dup(ds: "rd.Dataset", threshold: float = 0.95,
                       id_col: str = "vec_id", vec_col: str = "embedding",
                       bits: int | None = None, n_bands: int = 4,
                       bucket_cap: int = 500,
                       approx_count: int | None = None) -> pd.DataFrame:
    """Near-identical vector pairs via banded multi-probe LSH + in-bucket
    exact check (the MinHash-LSH shape adapted to hyperplane hashes).

    Scale-aware bucketing: ``bits`` defaults to the corpus size — derived
    so the EXPECTED bucket occupancy is ~``bucket_cap/4`` (``ceil(log2(n /
    (bucket_cap/4)))``), so buckets don't overflow the cap as the corpus
    grows (the fixed-64-bucket failure mode: every bucket is corpus/64 and
    the cap drops rows). Recall lost to the extra planes is recovered by
    ``n_bands`` INDEPENDENT hash tables: a pair is a candidate if it
    co-buckets in ANY band (P_miss = (1-p^bits)^n_bands). Pass
    ``approx_count`` when the caller already knows the corpus size to skip
    the count pass.

    Buckets hotter than ``bucket_cap`` rows are still capped before the
    O(n²) in-bucket check as a backstop; the dropped-row count is carried
    through the pair stream and reported with a logging.warning — no
    silent truncation."""
    import logging
    import math
    if bits is None:
        n = approx_count if approx_count is not None else ds.count()
        target_occ = max(8, bucket_cap // 4)
        bits = max(4, math.ceil(math.log2(max(2, n) / target_occ)))
    planes_holder: dict[str, list[np.ndarray]] = {}

    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = _norm_rows(_as_matrix(batch[vec_col]))
        if "p" not in planes_holder:
            # one independent hyperplane set per band, seeded off the
            # shared LSH seed so every worker derives identical planes
            rng = np.random.default_rng(_LSH_SEED)
            planes_holder["p"] = [
                rng.standard_normal((bits, vecs.shape[1]))
                for _ in range(n_bands)]
        tables = []
        for band, planes in enumerate(planes_holder["p"]):
            buckets = lsh_bucket_ids(vecs, planes)
            tables.append(pa.table({
                id_col: batch[id_col],
                vec_col: batch[vec_col],
                # fold (band, bucket) into one shuffle key
                "bucket": pa.array(buckets * n_bands + band, pa.int64()),
            }))
        return pa.concat_tables(tables)

    def in_bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)  # deterministic under the cap
        ids = g[id_col].to_numpy()
        dropped = max(0, len(ids) - bucket_cap)
        n = min(len(ids), bucket_cap)
        vecs = _norm_rows(np.asarray(g[vec_col].iloc[:n].tolist(),
                                     dtype=np.float64))
        sims = vecs @ vecs.T
        # vectorized upper-triangle threshold scan (no per-pair loop)
        iu, ju = np.triu_indices(n, k=1)
        hit = sims[iu, ju] >= threshold
        a = ids[iu[hit]].astype("int64")
        b = ids[ju[hit]].astype("int64")
        c = sims[iu[hit], ju[hit]].astype("float64")
        t = np.zeros(len(a), dtype="int64")
        if dropped and len(a):
            t[0] = dropped
        out = pd.DataFrame({"id_a": a, "id_b": b, "cos": c, "n_trunc": t})
        if dropped and not len(a):  # truncated bucket with zero pairs
            out = pd.DataFrame({"id_a": [-1], "id_b": [-1], "cos": [-1.0],
                                "n_trunc": [dropped]})
        return out

    # coarse-shard co-group: distinct (band, bucket) keys scale with the
    # corpus, so Ray's per-key machinery (priced by distinct-key count)
    # is replaced by default_partitions() hash shards with an in-shard
    # per-bucket loop
    from credit_ocr_backend_ray.stages.relational import (
        _groupwise, shard_cogroup)
    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")
    pairs = shard_cogroup(bucketed, "bucket",
                          _groupwise(["bucket"], in_bucket_pairs)
                          ).to_pandas()
    if pairs.empty:
        return pairs.reindex(columns=["id_a", "id_b", "cos"])
    total_trunc = int(pairs["n_trunc"].sum())
    if total_trunc:
        logging.getLogger(__name__).warning(
            "embedding_near_dup: %d rows dropped by the %d-row bucket cap",
            total_trunc, bucket_cap)
    pairs = pairs[pairs["id_a"] >= 0].drop(columns=["n_trunc"])
    return (pairs.sort_values(["id_a", "id_b"])
                 .drop_duplicates(["id_a", "id_b"]).reset_index(drop=True))


def mmr_select(ds: "rd.Dataset", query: np.ndarray, k: int = 10,
               lam: float = 0.5, pool: int = 100,
               id_col: str = "vec_id",
               vec_col: str = "embedding") -> pd.DataFrame:
    """Maximal Marginal Relevance diversified top-k (Carbonell &
    Goldstein, SIGIR'98): greedily pick the candidate maximizing
    ``lam * cos(query, c) - (1 - lam) * max_sel cos(c, s)`` — relevance
    minus redundancy. Two-phase at scale: the candidate POOL is the
    distributed exact top-``pool`` (per-batch partial top-k against the
    broadcast query, no shuffle), then the inherently sequential greedy
    loop runs driver-side over the pool only — O(pool * k) dot
    products on a (pool, dim) matrix, never the corpus. One streaming
    filter pass fetches the pool's vectors (bounded by ``pool``).
    Deterministic: ties break on the smaller id."""
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    cands = knn_bruteforce(ds, q, k=pool, id_col=id_col, vec_col=vec_col,
                           round_to=None)
    ids = cands[id_col].to_numpy(np.int64)
    idset = ray.put(ids)

    def fetch(t: pa.Table) -> pa.Table:
        want = ray.get(idset)
        rid = t[id_col].cast(pa.int64())
        mask = pa.array(np.isin(rid.to_numpy(zero_copy_only=False), want))
        return t.select([id_col, vec_col]).filter(mask)

    pooled = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    order = {int(i): r for r, i in enumerate(ids)}
    pooled = pooled.sort_values(id_col,
                                key=lambda s: s.map(order)).reset_index(
                                    drop=True)
    mat = _norm_rows(np.asarray(pooled[vec_col].tolist(), np.float64))
    rel = (mat @ _norm_rows(q).T).ravel()
    pids = pooled[id_col].to_numpy(np.int64)

    selected: list[int] = []
    max_sim = np.full(len(pids), -np.inf)
    taken = np.zeros(len(pids), dtype=bool)
    rows = []
    for rank in range(min(k, len(pids))):
        red = np.where(np.isinf(max_sim), 0.0, max_sim)
        score = lam * rel - (1.0 - lam) * red
        score[taken] = -np.inf
        # deterministic argmax: smallest id wins ties
        best = np.lexsort((pids, -score))[0]
        taken[best] = True
        selected.append(best)
        rows.append({"rank": rank + 1, id_col: int(pids[best]),
                     "mmr_score": float(score[best]),
                     "relevance": float(rel[best])})
        sims = mat @ mat[best]
        max_sim = np.maximum(max_sim, sims)
    out = pd.DataFrame(rows)
    out["mmr_score"] = out["mmr_score"].round(6)
    out["relevance"] = out["relevance"].round(6)
    return out


# ----------------------------------------------------------- product quant

def pq_train(ds: "rd.Dataset", m: int = 4, ksub: int = 16,
             vec_col: str = "embedding", sample_rows: int = 4096,
             iters: int = 8) -> np.ndarray:
    """Train product-quantization codebooks (Jégou et al., "Product
    Quantization for Nearest Neighbor Search", TPAMI'11): split the
    dimension into ``m`` subspaces, k-means each to ``ksub`` centroids.
    Training reads a BOUNDED deterministic sample (first blocks via
    ``limit`` — same bounded-sample contract as IVF); encode/search are
    the distributed parts. Returns ``(m, ksub, dsub)`` float64."""
    sdf = ds.select_columns([vec_col]).limit(sample_rows).to_pandas()
    sample = _norm_rows(np.asarray(sdf[vec_col].tolist(), np.float64))
    dim = sample.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    books = np.empty((m, ksub, dsub))
    for j in range(m):
        sub = np.ascontiguousarray(sample[:, j * dsub:(j + 1) * dsub])
        # deterministic Lloyd on the subspace (no re-normalization:
        # subvectors are not unit vectors)
        cent = sub[:ksub].copy()
        for _ in range(iters):
            d2 = ((sub[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for c in range(ksub):
                members = sub[assign == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
        books[j] = cent
    return books


def pq_encode(ds: "rd.Dataset", codebooks: np.ndarray,
              id_col: str = "vec_id",
              vec_col: str = "embedding") -> "rd.Dataset":
    """Encode every vector to ``m`` uint8 codes (nearest sub-centroid per
    subspace) — 1 byte per subspace instead of 4·dsub: the compressed
    representation a 100 TB embedding corpus actually scans. Broadcast
    codebooks (``ray.put`` once), stateless vectorized assignment per
    batch, no shuffle."""
    bref = ray.put(codebooks)

    def encode(t: pa.Table) -> pa.Table:
        books = ray.get(bref)
        m, ksub, dsub = books.shape
        vecs = _norm_rows(_as_matrix(t[vec_col]))
        codes = np.empty((len(vecs), m), np.uint8)
        for j in range(m):
            sub = vecs[:, j * dsub:(j + 1) * dsub]
            # ||x-c||² argmin == argmax(2<x,c> - ||c||²), one matmul
            score = 2.0 * (sub @ books[j].T) - (books[j] ** 2).sum(axis=1)
            codes[:, j] = np.argmax(score, axis=1).astype(np.uint8)
        flat = pa.array(codes.reshape(-1), pa.uint8())
        return pa.table({
            id_col: t[id_col],
            "pq_code": pa.FixedSizeListArray.from_arrays(flat, m),
        })

    return ds.map_batches(encode, batch_format="pyarrow")


def knn_pq(ds: "rd.Dataset", queries: np.ndarray, codebooks: np.ndarray,
           k: int = 10, id_col: str = "vec_id",
           vec_col: str = "embedding") -> pd.DataFrame:
    """Approximate top-k by asymmetric distance computation (ADC): per
    query, an (m, ksub) inner-product lookup table against the codebooks,
    then every encoded vector scores as m table lookups — the scan
    touches 1-byte codes, never the float vectors. Per-batch partial
    top-k + tiny driver merge, the ``knn_bruteforce`` shape over the
    compressed column (``_scored_topk``). Returns (query_id, vec_id,
    score) with score = approximate cosine (LUT sum), rounded to 5."""
    q = _norm_rows(np.asarray(queries, np.float64))
    m, ksub, dsub = codebooks.shape
    # LUT[qi, j, c] = <q_sub, codebook[j, c]>
    lut = np.einsum("qjd,jcd->qjc",
                    q.reshape(q.shape[0], m, dsub), codebooks)
    lref = ray.put(lut)

    def score(t: pa.Table):
        ids = np.asarray(t[id_col].to_pylist(), np.int64)
        code_col = t["pq_code"]
        if isinstance(code_col, pa.ChunkedArray):
            code_col = code_col.combine_chunks()
        codes = code_col.flatten().to_numpy(
            zero_copy_only=False).astype(np.int64).reshape(len(ids), m)
        return ids, ray.get(lref)[:, np.arange(m)[None, :], codes].sum(
            axis=2).T

    return _scored_topk(pq_encode(ds, codebooks, id_col=id_col,
                                  vec_col=vec_col),
                        score, k, id_col, "score", round_to=5)


def semantic_dedup(ds: "rd.Dataset", threshold: float = 0.92,
                   nlist: int = 8, iters: int = 3,
                   id_col: str = "vec_id", vec_col: str = "embedding",
                   cluster_cap: int = 100_000) -> "rd.Dataset":
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication by k-means partition + within-cluster cosine pruning —
    the embedding-space analogue of ``dedup_exact_sparse``. Keeps, per
    cluster, the greedy id-ascending maximal set in which no kept vector
    has cosine >= ``threshold`` to an earlier kept one (deterministic:
    the smallest id of each near-dup neighborhood survives).

    Scale shape: ``kmeans_fit`` is the shuffle-free broadcast/combiner
    Lloyd's pass; assignment is one vectorized argmax per batch; the only
    all-to-all moves each row ONCE to its cluster's fold (nlist bounded
    groups — not per-key machinery). The in-cluster check is O(|c|^2)
    BY DESIGN (the paper's own step, run inside each cluster, which is
    why nlist must scale with the corpus: size clusters to ~sqrt(n) rows
    at 100 TB). ``cluster_cap`` turns a mis-sized nlist into an explicit
    error instead of a silent quadratic blowup — the
    interval_self_join replication-cap pattern."""
    cent, _ = kmeans_fit(ds, nlist=nlist, iters=iters, id_col=id_col,
                         vec_col=vec_col)
    cref = ray.put(cent)

    def assign(t: pa.Table) -> pa.Table:
        a, _ = _nearest(_norm_rows(_as_matrix(t[vec_col])), ray.get(cref))
        return t.append_column("__cl", pa.array(a, pa.int64()))

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > cluster_cap:
            raise ValueError(
                f"semantic_dedup: cluster of {len(g)} rows exceeds "
                f"cluster_cap={cluster_cap}; raise nlist so clusters "
                f"stay ~sqrt(corpus) before the quadratic in-cluster "
                f"check")
        g = g.sort_values(id_col).reset_index(drop=True)
        vecs = _norm_rows(np.asarray(g[vec_col].tolist(),
                                     dtype=np.float64))
        sims = vecs @ vecs.T
        keep = np.ones(len(g), dtype=bool)
        for i in range(len(g)):
            if keep[i]:
                # writes through: keep[i+1:] is a basic-slice VIEW
                keep[i + 1:][sims[i, i + 1:] >= threshold] = False
        return g[keep].drop(columns="__cl")

    from credit_ocr_backend_ray.stages.relational import (
        _groupwise, shard_cogroup)
    return shard_cogroup(ds.map_batches(assign, batch_format="pyarrow"),
                         "__cl", _groupwise(["__cl"], prune))


def contrastive_pairs(ds: "rd.Dataset", id_col: str = "vec_id",
                      label_col: str = "label") -> "rd.Dataset":
    """Deterministic (anchor, positive, negative) triplet mining for
    metric-learning / contrastive training: every labeled vector is an
    anchor; its POSITIVE is the next same-label row on the md5 ring —
    ring order is ``(h, id)`` with ``h`` the first 32 md5 bits of the
    id (``deterministic_sample``'s engine-independence contract),
    wrapping to the label's first row — and its NEGATIVE is the next
    row of the anchor's cyclic-successor label on the same ring (a
    fixed pseudo-random draw from a guaranteed-different class).
    Anchors whose label has a single member have no positive and are
    excluded.

    Scale shape: TWO shard co-groups, no all-pairs and no global sort.
    Positives co-group by the label itself (successor = per-label
    ``shift(-1)`` over the ring sort, first-row wrap — fully
    vectorized). Negatives co-group anchors (keyed by their successor
    label) WITH the candidate rows of that label in one pass: inside
    each label group, one ``searchsorted`` of anchor ring keys against
    the sorted candidate keys gives every anchor's strict successor,
    ``% n`` wraps. Ring keys pack ``(h << 32) | id`` into uint64, so
    ids must fit 32 bits (asserted).

    Output: (id, label, pos_id, neg_id), one row per anchor."""
    import hashlib

    from credit_ocr_backend_ray.stages.relational import shard_cogroup

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy()
        assert (ids >= 0).all() and (ids < (1 << 32)).all(), \
            "contrastive_pairs packs (h, id) into uint64: ids must fit " \
            "32 bits"
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:4],
                            "big") for i in ids),
            dtype=np.uint64, count=len(b))
        key = (h << np.uint64(32)) | ids.astype(np.uint64)
        return pd.DataFrame({id_col: ids, label_col: b[label_col],
                             "__rk": key})

    tagged = (ds.select_columns([id_col, label_col])
                .map_batches(tag, batch_format="pandas"))

    # bounded label inventory for the cyclic successor map
    labels = sorted(tagged.groupby(label_col).count()
                          .to_pandas()[label_col])
    succ = {l: labels[(i + 1) % len(labels)]
            for i, l in enumerate(labels)}
    succ_ref = ray.put(succ)

    def pos_fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([label_col, "__rk"])
        grp = g.groupby(label_col, sort=False, dropna=False)
        nxt = grp[id_col].shift(-1)
        first = grp[id_col].transform("first")
        g["pos_id"] = nxt.fillna(first).astype(np.int64)
        # single-member labels: successor wraps to self -> no positive
        return g[g["pos_id"] != g[id_col]]

    with_pos = shard_cogroup(tagged, label_col, pos_fold)

    def emit_anchors(b: pd.DataFrame) -> pd.DataFrame:
        sc = ray.get(succ_ref)
        return pd.DataFrame({
            "__g": b[label_col].map(sc),
            "__role": np.zeros(len(b), dtype=np.int64),
            id_col: b[id_col], label_col: b[label_col],
            "__rk": b["__rk"],
            "pos_id": b["pos_id"].astype(np.int64),
        })

    # candidates come from EVERY row (tagged, not with_pos): a
    # single-member label is no anchor but still feeds the previous
    # label's negatives
    def emit_candidates(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "__g": b[label_col],
            "__role": np.ones(len(b), dtype=np.int64),
            id_col: b[id_col], label_col: b[label_col],
            "__rk": b["__rk"],
            "pos_id": np.zeros(len(b), dtype=np.int64),
        })

    def neg_fold(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("__g", sort=False, dropna=False):
            anch = grp[grp["__role"] == 0]
            cand = grp[grp["__role"] == 1].sort_values("__rk")
            if anch.empty or cand.empty:
                continue
            ck = cand["__rk"].to_numpy(np.uint64)
            ci = cand[id_col].to_numpy(np.int64)
            idx = np.searchsorted(ck, anch["__rk"].to_numpy(np.uint64),
                                  side="right") % len(ck)
            outs.append(pd.DataFrame({
                id_col: anch[id_col].to_numpy(np.int64),
                label_col: anch[label_col].to_numpy(),
                "pos_id": anch["pos_id"].to_numpy(np.int64),
                "neg_id": ci[idx],
            }))
        if not outs:
            return pd.DataFrame({
                id_col: pd.Series(dtype=np.int64),
                label_col: pd.Series(dtype=g[label_col].dtype),
                "pos_id": pd.Series(dtype=np.int64),
                "neg_id": pd.Series(dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    roled = (with_pos.map_batches(emit_anchors, batch_format="pandas")
             .union(tagged.map_batches(emit_candidates,
                                       batch_format="pandas")))
    return shard_cogroup(roled, "__g", neg_fold)


def _exact_vs_ivf(ds: "rd.Dataset", queries: np.ndarray, k: int,
                  id_col: str, vec_col: str, nlist: int, nprobe: int):
    """The one evaluation pass of ``knn_recall`` and ``knn_rank_eval``:
    per query, the exact top-k id set (``knn_bruteforce``) and the IVF
    top-k ids in rank order (``knn_ivf``). Both rankers keep their scale
    shapes; the comparison is a bounded 2·k·|queries| driver fold."""
    brute = knn_bruteforce(ds, queries, k=k, id_col=id_col,
                           vec_col=vec_col)
    approx = knn_ivf(ds, queries, k=k, id_col=id_col, vec_col=vec_col,
                     nlist=nlist, nprobe=nprobe)
    return (brute.groupby("query_id")[id_col].agg(set),
            approx.groupby("query_id")[id_col].agg(list))


def knn_recall(ds: "rd.Dataset", queries: np.ndarray, k: int = 10,
               id_col: str = "vec_id", vec_col: str = "embedding",
               nlist: int = 16, nprobe: int = 4) -> pd.DataFrame:
    """ANN quality harness: recall@k of the IVF index against the exact
    brute-force top-k, per query — the evaluation loop every
    ANN deployment runs before trusting an approximate index (and the
    number that decides nprobe). Both sides come from
    ``_exact_vs_ivf``; the comparison itself is a per-query set
    intersection.

    recall_micro is exact-integer ``floor(|hit|/k * 1e6 + 0.5)`` via
    ``(2*|hit|*1e6 + k) // (2*k)``. With ``nprobe == nlist`` the probe
    covers every list, so recall is exactly 1.0 (the unit-test
    invariant)."""
    gold, ranked = _exact_vs_ivf(ds, queries, k, id_col, vec_col, nlist,
                                 nprobe)
    rows = []
    for qi, gset in gold.items():
        hit = len(gset & set(ranked.get(qi, [])))
        rows.append((int(qi), k, hit,
                     (2 * hit * 1_000_000 + k) // (2 * k)))
    return pd.DataFrame(rows, columns=["query_id", "k", "n_hit",
                                       "recall_micro"])


def knn_rank_eval(ds: "rd.Dataset", queries: np.ndarray, k: int = 10,
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  nlist: int = 16, nprobe: int = 4) -> pd.DataFrame:
    """Rank-AWARE ANN evaluation — NDCG@k and MRR of the IVF ranking
    against the exact brute-force top-k as binary relevance (the
    harness knn_recall lacks: recall counts hits, NDCG/MRR weigh WHERE
    they land). Integer-exact given the pinned position weights
    ``w_i = floor(1e6 / log2(i+1))``: ``ndcg_micro = sum(w at hit
    positions) * 1e6 // sum(w_1..w_|gold|)``; ``mrr_micro = 1e6 //
    first-hit rank`` (0 when nothing relevant surfaces). Both rankings
    come from ``_exact_vs_ivf``. With ``nprobe == nlist`` the probe is
    exhaustive, every retrieved position is relevant, and both metrics
    are exactly 1e6 — the unit-test invariant."""
    import math

    w = [int(1_000_000 // math.log2(i + 1)) for i in range(1, k + 1)]
    gold, ranked = _exact_vs_ivf(ds, queries, k, id_col, vec_col, nlist,
                                 nprobe)
    rows = []
    # iterate the GOLD index: a query whose probed lists held no
    # candidates still scores (0 hits), it must not vanish
    for qi, gset in gold.items():
        ids = ranked.get(qi, [])
        hits = [i for i, v in enumerate(ids) if i < k and v in gset]
        dcg = sum(w[i] for i in hits)
        idcg = sum(w[:min(k, len(gset))])
        rows.append((int(qi), k, len(hits),
                     dcg * 1_000_000 // idcg if idcg else 0,
                     1_000_000 // (hits[0] + 1) if hits else 0))
    return pd.DataFrame(rows, columns=[
        "query_id", "k", "n_hit", "ndcg_micro", "mrr_micro"])
