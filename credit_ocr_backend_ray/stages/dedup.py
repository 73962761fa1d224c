"""Deduplication stages: exact (hash / latest-wins) and near-dup
(MinHash+LSH, SimHash, n-gram Jaccard).

Exact dedup parity: the reference's upsert/`ON CONFLICT` semantics keyed by
document id + sha256 content hash (/root/reference/src/ocr/extraction.py:
524-548, schema.sql:8). Near-dup is our scale addition (SURVEY §2.7 marks it
absent in the reference).

Scale notes (the partitioning assumptions, per north rule):
- ``dedup_latest`` is a combiner-pruned shuffle: each batch keeps only
  its local max-``order_col`` rows per key, then one co-group over 64
  key-hash shards keeps the global max rows — shuffle volume is at most
  one winner-candidate row per (key, batch), driver memory O(1). Ties on
  (key, order) all survive.
- The near-dup pair families share one blocking layer. Each explodes its
  rows to bucket keys (MinHash bands, bottom-k shingles, prefix grams,
  signature or string chunks, deletion variants) — ids and keys, never
  text — and pairs them in one ``shard_cogroup`` on the bucket key; the
  fold groups by the full bucket inside the shard. Pairs found in several
  buckets collapse in one more co-group on the left id
  (``_dedup_pairs``). Text pairs are verified by one join back to the
  texts by id (``_verify_pairs_by_join``, one scorer per family): the
  corpus is never materialized on the driver or broadcast; only rows
  whose id appears in a candidate pair carry text past the join.
- Degenerate hot buckets are capped at ``_BUCKET_CAP`` ids; the number of
  dropped ids is carried through the pair stream (``n_trunc``) and
  surfaced as a logging.warning by every public entry point — no silent
  truncation.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from credit_ocr_backend_ray.functions.hashing import (
    hash_strings_u64, jaccard, minhash_band_keys_for_texts,
    shingle_hashes_batch, simhash64,
)
from credit_ocr_backend_ray.stages.relational import (
    default_partitions, global_row_number, grouped_agg, shard_cogroup,
    shuffle_join,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------- exact

def dedup_latest(ds: "rd.Dataset", key: str = "url",
                 order_col: str = "warc_ts") -> "rd.Dataset":
    """Keep the newest row per key (reference J4/S12: latest job per
    document, last-write-wins upsert).

    Combiner-pruned hash shuffle — scale-safe for unbounded key
    cardinality (per-url dedup over the whole web). Rows tying the max
    order of a key all survive (deterministic set semantics under any
    partitioning)."""
    # coarse-shard co-group (see dedup_exact): the per-shard pass is one
    # vectorized transform, never per-key group machinery
    def keep_max(b: pd.DataFrame) -> pd.DataFrame:
        mx = b.groupby(key, sort=False)[order_col].transform("max")
        return b[b[order_col] == mx]

    return shard_cogroup(ds.map_batches(keep_max, batch_format="pandas"),
                         key, keep_max)


def dedup_exact(ds: "rd.Dataset", hash_col: str, tie_col: str) -> "rd.Dataset":
    """Hash-partition by content hash, keep the smallest ``tie_col`` row
    of each group (deterministic representative). Combiner-shaped: each
    batch pre-prunes to its local representative per hash, so duplicate
    payloads within a batch never cross the shuffle. The global pass
    co-groups COARSE key-hash shards, not the hashes themselves: a
    per-hash groupby sent every wide row through fine-grained sort
    machinery (measured 55 s of a 70 s web-corpus run at 100k mostly-
    unique pages); the 64-shard co-group plus a vectorized per-shard
    groupby-head cut it to ~1/5."""
    def first(b: pd.DataFrame) -> pd.DataFrame:
        return (b.sort_values(tie_col, ascending=True)
                 .groupby(hash_col, as_index=False, sort=False).head(1))

    return shard_cogroup(ds.map_batches(first, batch_format="pandas"),
                         hash_col, first)


def dedup_exact_sparse(ds: "rd.Dataset", hash_col: str,
                       tie_col: str) -> "rd.Dataset":
    """``dedup_exact`` for the common crawl case where MOST payloads are
    unique: a cheap fixed-width pre-pass (one (hash, count) combiner row
    per (hash, batch) — never the payload) finds the hashes that
    actually collide; only THOSE rows pay the wide-row shuffle, every
    unique row streams through untouched. The input is materialized
    once (two consumers: the key scan and the row pass — the same
    checkpoint-not-recompute contract as grouped_zscore).

    Scale assumption, stated: the duplicated-key set is broadcast
    (``ray.put`` once), so it must fit a worker's heap — dup CLUSTERS,
    not dup rows (64 B/key: ~15 GB per billion collided keys). For a
    corpus where nearly everything is duplicated, use the unconditional
    ``dedup_exact`` shuffle instead."""
    ds = ds.materialize()

    def key_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(hash_col, as_index=False, sort=False).size()
        return g.rename(columns={"size": "__kn"})

    # the key scan reads ONE column of the cached blocks (zero-copy
    # Arrow projection) — the wide payload never enters this pass.
    counts = grouped_agg(ds.select_columns([hash_col])
                         .map_batches(key_partial, batch_format="pandas"),
                         [hash_col], {"__kn": "__n"}, count_alias=None)
    dup_df = counts.filter(expr="__n > 1").to_pandas()
    # an all-unique corpus yields a ZERO-COLUMN empty frame (Ray's empty
    # grouped-output quirk) — treat it as "no collisions"
    dup_keys = ([] if dup_df.empty else sorted(dup_df[hash_col]))
    if not dup_keys:
        # nothing collides: the input IS the deduped output. Skipping
        # the filter passes + shuffle matters: even over all-EMPTY dup
        # blocks, the dedup machinery costs per-input-block sort setup
        # (measured 33 s across 783 blocks at the 400k-page scale)
        return ds
    ref = ray.put(pa.array(dup_keys, pa.string()))

    import pyarrow.compute as pc

    def uniques(t: pa.Table) -> pa.Table:
        m = pc.is_in(t[hash_col], value_set=ray.get(ref))
        return t.filter(pc.invert(pc.fill_null(m, False)))

    def dup_rows(t: pa.Table) -> pa.Table:
        m = pc.is_in(t[hash_col], value_set=ray.get(ref))
        return t.filter(pc.fill_null(m, False))

    unique_part = ds.map_batches(uniques, batch_format="pyarrow")
    # coalesce the dup rows before the wide shuffle: they are FEW by the
    # sparse-path assumption but spread across every input block, and
    # the co-group's residual cost is per-input-block machinery
    deduped_dups = dedup_exact(ds.map_batches(dup_rows,
                                              batch_format="pyarrow")
                               .repartition(default_partitions()),
                               hash_col, tie_col)
    return unique_part.union(deduped_dups)


# ---------------------------------------------------------------- minhash

_BUCKET_CAP = 200  # max ids per LSH bucket fed to the O(n²) pair expansion


def add_minhash(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id", bands: int = 16) -> pa.Table:
    """(id, band_id, band_key) exploded rows — bands*n output rows of
    small columns; the LSH shuffle moves only these, never text."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch[text_col].to_pylist()
    # whole shingle->minhash->band pipeline in four vectorized kernels
    # (r5: the r4 shape looped docs for the signature + 16 blake2b/doc)
    keys = minhash_band_keys_for_texts(texts, bands=bands)  # (T, bands)
    return pa.table({
        id_col: pa.array(np.repeat(ids, bands), pa.int64()),
        "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32),
                                    len(texts)), pa.int32()),
        "band_key": pa.array(keys.reshape(-1), pa.uint64()),
    })


def _shard_pairs(g: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """All in-bucket pairs of one ``shard_cogroup`` shard of (id,
    band_id, band_key) rows. The shard is keyed by ``band_key``; the
    bucket is (band_id, band_key), grouped inside the shard with pandas,
    so Ray sees few coarse groups instead of millions of tiny ones
    (map_groups-per-bucket measured 20x slower).

    Hot buckets are capped at ``_BUCKET_CAP`` ids; the FIRST pair emitted
    for a truncated bucket carries the dropped-id count in ``n_trunc``
    (0 elsewhere), so summing the column downstream gives the exact total
    of silently-unpaired ids — no silent caps."""
    a_out: list[int] = []
    b_out: list[int] = []
    t_out: list[int] = []
    for _, bucket in g.groupby(["band_id", "band_key"], sort=False):
        ids = sorted(set(bucket[id_col].tolist()))
        dropped = max(0, len(ids) - _BUCKET_CAP)
        ids = ids[:_BUCKET_CAP]
        first = True
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a_out.append(ids[i])
                b_out.append(ids[j])
                t_out.append(dropped if first else 0)
                first = False
    return pd.DataFrame({"id_a": pd.Series(a_out, dtype="int64"),
                         "id_b": pd.Series(b_out, dtype="int64"),
                         "n_trunc": pd.Series(t_out, dtype="int64")})


def _dedup_pairs(pairs: "rd.Dataset", left: str = "id_a",
                 fold=None) -> "rd.Dataset":
    """One row per pair: a pair found in several buckets (bands, chunks,
    grams, deletion variants) collapses in one ``shard_cogroup`` on its
    ``left`` id — every copy of a pair shares it, so they meet in one
    shard. The default fold keeps one (id_a, id_b) row with the max
    ``n_trunc`` (a truncated bucket's carrier row wins over its
    duplicates)."""
    def keep_max_trunc(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["id_a", "id_b"], as_index=False, sort=False)
                 .agg(n_trunc=("n_trunc", "max")))

    return shard_cogroup(pairs, left, fold or keep_max_trunc)


def _band_pairs(rows: "rd.Dataset", id_col: str) -> "rd.Dataset":
    """Candidate pairs (id_a, id_b, n_trunc) of (id, band_id, band_key)
    rows: in-bucket pairs, then one row per pair."""
    return _dedup_pairs(shard_cogroup(rows, "band_key",
                                      lambda g: _shard_pairs(g, id_col)))


def minhash_candidate_pairs(ds: "rd.Dataset", text_col: str = "text",
                            id_col: str = "doc_id",
                            bands: int = 16) -> "rd.Dataset":
    """LSH candidate pairs (columns id_a, id_b, n_trunc), one row per
    pair however many bands found it."""
    sig = ds.map_batches(
        lambda b: add_minhash(b, text_col=text_col, id_col=id_col, bands=bands),
        batch_format="pyarrow")
    return _band_pairs(sig, id_col)


def _word_jaccard(n: int):
    """The word-shingle ``jaccard(a, b, n)`` verify scorer."""
    return lambda a, b: jaccard(a or "", b or "", n)


_BROADCAST_VERIFY_BYTES = 256 << 20   # small-side cutoff for the verify


def _verify_pairs_by_join(cands: "rd.Dataset", ds: "rd.Dataset",
                          id_col: str, text_col: str, scorer, min_keep,
                          score_col: str = "jaccard",
                          score_type: pa.DataType = pa.float64()
                          ) -> pd.DataFrame:
    """Resolve candidate pairs back to their texts BY ID, score each
    pair with ``scorer(text_a, text_b)`` into ``score_col`` (of
    ``score_type``), keep scores >= ``min_keep``, and return the verified
    pairs driver-side. The corpus is never collected or broadcast: one
    streaming semi-join pass prunes the texts to candidate-referenced
    ids only, then — classic join-strategy
    selection — the pruned side is either broadcast (when it fits
    ``_BROADCAST_VERIFY_BYTES``; its size is bounded by the candidate set,
    not the corpus) or hash-shuffle-joined back to the pairs in two
    distributed joins. Also sums the ``n_trunc`` truncation counters and
    logs a warning when any LSH bucket overflowed ``_BUCKET_CAP``."""
    empty = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                          "id_b": pd.Series(dtype="int64"),
                          score_col: pd.Series(
                              dtype=score_type.to_pandas_dtype())})
    n_parts = default_partitions()

    def parts(n_rows: int) -> int:
        return max(1, min(n_parts, -(-n_rows // 64)))

    # The hash-join shuffle broadcasts the left schema via the FIRST shuffle
    # task's empty shards — but an all-empty input block early-returns before
    # broadcasting (ray hash_shuffle.py:223), leaving no-left-row partitions
    # schema-less and crashing pa.Table.join. The LSH pair stream is full of
    # empty blocks (buckets with no pairs), so: pin the pair schema, then
    # materialize + repartition the (small, ids-only — never text) candidate
    # set into guaranteed non-empty blocks. Candidates are a vanishing
    # fraction of the corpus by construction, so this stays object-store
    # sized at any scale; the TEXTS are never collected anywhere.
    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                             ("n_trunc", pa.int64())])

    def coerce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pair_schema.empty_table()
        return t.select(["id_a", "id_b", "n_trunc"]).cast(pair_schema)

    cands = cands.map_batches(coerce, batch_format="pyarrow").materialize()
    n_cands = cands.count()
    if n_cands == 0:
        return empty
    cands = cands.repartition(parts(n_cands))

    # Prune the corpus to candidate ids with a broadcast semi-join BEFORE
    # the shuffle joins: one streaming filter pass over the texts (no
    # shuffle, nothing driver-side but the id set), so only texts that a
    # candidate pair actually references enter the join at all. The pruned
    # side is then bounded by the candidate count, so materializing it into
    # evenly-filled blocks is object-store-cheap and sidesteps the same
    # empty-first-block schema-broadcast bug on the right side.
    idp = cands.to_pandas()
    need_ids = np.unique(np.concatenate([idp["id_a"].to_numpy(np.int64),
                                         idp["id_b"].to_numpy(np.int64)]))
    sref = ray.put(need_ids)

    def keep_needed(t: pa.Table) -> pa.Table:
        need = ray.get(sref)
        rid = t[id_col].cast(pa.int64())
        mask = pa.array(np.isin(rid.to_numpy(zero_copy_only=False), need))
        return pa.table({"__rid": rid, "__text": t[text_col]}).filter(mask)

    texts_needed = (ds.select_columns([id_col, text_col])
                      .map_batches(keep_needed, batch_format="pyarrow")
                      .materialize())

    def verify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        ja = [scorer(a, b)
              for a, b in zip(batch["__text_a"].to_pylist(),
                              batch["__text_b"].to_pylist())]
        drop = [c for c in ("__text_a", "__text_b", "__rid_a", "__rid_b")
                if c in batch.column_names]
        out = batch.drop_columns(drop)
        out = out.append_column(score_col, pa.array(ja, score_type))
        keep = pc.greater_equal(out[score_col], min_keep)
        out = out.append_column("__verified", keep)
        # truncation counters must survive even when their carrier pair
        # fails verification — keep those rows flagged unverified so the
        # driver-side n_trunc fold still sees the count
        return out.filter(pc.or_(keep, pc.greater(out["n_trunc"], 0)))

    small_side = (texts_needed.size_bytes() or 0) < _BROADCAST_VERIFY_BYTES
    if small_side:
        # broadcast path: the candidate-referenced texts (NOT the corpus)
        # fit the object store comfortably — skip the two shuffle joins and
        # their aggregator-pool spin-up; resolve both sides per pair batch
        # from the broadcast map
        tdf = texts_needed.to_pandas()
        tref = ray.put(dict(zip(tdf["__rid"], tdf["__text"])))

        def attach(batch: pa.Table) -> pa.Table:
            tm = ray.get(tref)
            return (batch.append_column("__text_a", pa.array(
                        [tm.get(i) for i in batch["id_a"].to_pylist()],
                        pa.string()))
                         .append_column("__text_b", pa.array(
                        [tm.get(i) for i in batch["id_b"].to_pylist()],
                        pa.string())))

        joined = cands.map_batches(attach, batch_format="pyarrow")
    else:
        texts_needed = texts_needed.repartition(
            parts(texts_needed.count()))

        def as_side(side: str):
            def fn(t: pa.Table) -> pa.Table:
                return pa.table({f"__rid_{side}": t["__rid"],
                                 f"__text_{side}": t["__text"]})
            return fn

        ta = texts_needed.map_batches(as_side("a"), batch_format="pyarrow")
        tb = texts_needed.map_batches(as_side("b"), batch_format="pyarrow")
        joined = shuffle_join(cands, ta, "id_a", "__rid_a")
        # same empty-first-block guard between the joins: join-1 partitions
        # that matched nothing emit empty blocks, which would again suppress
        # the schema broadcast of join-2's left side
        joined = joined.materialize()
        joined = joined.repartition(parts(joined.count()))
        joined = shuffle_join(joined, tb, "id_b", "__rid_b")

    out = joined.map_batches(verify, batch_format="pyarrow").to_pandas()
    if out.empty:
        return empty
    total_trunc = int(out["n_trunc"].sum())
    if total_trunc:
        logger.warning(
            "near-dup LSH: %d ids dropped by the %d-id bucket cap "
            "(hot buckets; salt the band keys or raise _BUCKET_CAP)",
            total_trunc, _BUCKET_CAP)
    out = out[out["__verified"]]
    out = out.drop(columns=["n_trunc", "__verified"])
    # candidates arrive one row per pair, but an id repeated in the corpus
    # joins to each of its texts: keep one row per pair driver-side on
    # the (verified, threshold-filtered, driver-sized) result
    return (out.drop_duplicates(["id_a", "id_b"])
               .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def minhash_dedup_pairs(ds: "rd.Dataset", text_col: str = "text",
                        id_col: str = "doc_id", threshold: float = 0.8,
                        bands: int = 16) -> pd.DataFrame:
    """Verified near-dup pairs (jaccard >= threshold) as a small driver-side
    DataFrame. Verification is a bucket-partitioned join back to the texts
    by id (see ``_verify_pairs_by_join``) — no driver-side or broadcast
    materialization of the corpus at any point."""
    cands = minhash_candidate_pairs(ds, text_col, id_col, bands)
    return _verify_pairs_by_join(cands, ds, id_col, text_col,
                                 _word_jaccard(3), threshold)


def cluster_pairs(pairs: pd.DataFrame) -> dict[int, int]:
    """Union-find over the (small, verified) pair set -> id -> cluster rep
    (min id). Driver-side by design: the candidate set after verification is
    orders of magnitude smaller than the corpus."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"], pairs["id_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in list(parent)}


# ------------------------------------------------------- n-gram jaccard

def ngram_jaccard_pairs(ds: "rd.Dataset", text_col: str = "text",
                        id_col: str = "doc_id", threshold: float = 0.8,
                        bottom_k: int = 8, n: int = 3) -> pd.DataFrame:
    """Exact n-gram-Jaccard near-dup pairs via bottom-k sketch blocking:
    each doc's blocking keys are the ``bottom_k`` smallest shingle hashes
    (a pair with J >= t shares a bottom-k key with prob ~1-(1-t)^k) in
    one band; from there the MinHash path — in-bucket candidate pairs,
    one row per pair, then exact Jaccard over the full shingle sets via
    the same join-back-by-id verify. Distinct from MinHash banding: no
    permutation bank, and the verify step is the true Jaccard, so there
    are no false positives by construction."""
    def add_blocks(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        texts = t[text_col].to_pylist()
        hashes = shingle_hashes_batch(texts, n)
        out_id, out_key = [], []
        for i, hs in zip(ids, hashes):
            for h in np.sort(hs)[:bottom_k]:
                out_id.append(i)
                out_key.append(int(h))
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "band_id": pa.array(np.zeros(len(out_id), dtype=np.int32)),
            "band_key": pa.array(np.array(out_key, dtype=np.uint64),
                                 pa.uint64()),
        })

    cands = _band_pairs(ds.map_batches(add_blocks, batch_format="pyarrow"),
                        id_col)
    return _verify_pairs_by_join(cands, ds, id_col, text_col,
                                 _word_jaccard(n), threshold)


# ------------------------------------------------- exact prefix-filter join

def _char_gram_set(text: str | None, gram_n: int) -> set[str]:
    t = text or ""
    if len(t) < gram_n:
        return set()
    return {t[i:i + gram_n] for i in range(len(t) - gram_n + 1)}


def _common_gram_rank(ds: "rd.Dataset", text_col: str, gram_n: int,
                      common_k: int):
    """The global gram order's frequent-gram table, broadcast: an
    object ref to ``{gram: rank key}`` for the ``common_k`` most frequent
    grams. Per-batch LOCAL top-(2·common_k) gram counts (combiner prune
    — approximate heavy hitters; misranking only costs posting-list
    length), summed driver-side, top common_k kept."""
    def gram_count_partial(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for txt in t[text_col].to_pylist():
            for g in _char_gram_set(txt, gram_n):
                counts[g] = counts.get(g, 0) + 1
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        top = top[:2 * common_k]
        return pa.table({
            "gram": pa.array([g for g, _ in top], pa.string()),
            "n": pa.array([c for _, c in top], pa.int64())})

    parts = (ds.map_batches(gram_count_partial, batch_format="pyarrow")
               .to_pandas())
    folded = (parts.groupby("gram", sort=False)["n"].sum()
                   .sort_values(ascending=False, kind="stable"))
    common = folded.index.to_numpy()[:common_k]
    # common grams sort AFTER all rare grams (top bit set) and the
    # MOST frequent gram gets the LARGEST key, so prefixes always hold
    # each document's rarest grams and posting lists stay short
    return ray.put({g: (1 << 63) + (common_k - i)
                    for i, g in enumerate(common)})


def _ordered_grams(text: str | None, gram_n: int, ranks: dict,
                   threshold_micro: int) -> tuple[np.ndarray, int]:
    """One document's gram set as sorted keys in the global order
    (common-gram rank, else a stable 63-bit hash), and its prefix length
    ``p = m - ceil(t·m) + 1`` (exact integer ceil) for ``m`` grams."""
    grams = sorted(_char_gram_set(text, gram_n))
    m = len(grams)
    if m == 0:
        return np.empty(0, np.uint64), 0
    keys = hash_strings_u64(grams) & np.uint64((1 << 63) - 1)
    for j, g in enumerate(grams):
        r = ranks.get(g)
        if r is not None:
            keys[j] = r
    p = m - (threshold_micro * m + 999_999) // 1_000_000 + 1
    return np.sort(keys), p


def _gram_set_scorer(gram_n: int, score):
    """Verify scorer ``score(A, B)`` over two texts' gram sets. Each doc
    appears in many candidate pairs — re-shingling the text per PAIR was
    the 10M-candidate hot spot — so gram sets are cached per verify
    worker process; the cache ships empty with the closure (a plain
    dict: lru_cache wrappers don't cloudpickle)."""
    cache: dict[str, frozenset] = {}

    def gs(txt: str) -> frozenset:
        s = cache.get(txt)
        if s is None:
            if len(cache) > 65536:
                cache.clear()
            s = cache[txt] = frozenset(_char_gram_set(txt, gram_n))
        return s

    return lambda a, b: score(gs(a or ""), gs(b or ""))


def prefix_jaccard_join(ds: "rd.Dataset", text_col: str = "text",
                        id_col: str = "doc_id",
                        threshold_micro: int = 800_000, gram_n: int = 8,
                        common_k: int = 65536,
                        bucket_cap: int = 4 * _BUCKET_CAP) -> pd.DataFrame:
    """EXACT Jaccard-threshold set-similarity self-join over character
    ``gram_n``-gram sets, via prefix filtering (Bayardo et al.'s AllPairs /
    PPJoin blocking) — the guaranteed-complete sibling of the sketch-blocked
    approximate joins (``ngram_jaccard_pairs`` bottom-k, MinHash bands):
    *no false negatives by construction*, every J >= t pair is emitted.

    Prefix theorem: sort both gram sets by ONE global total order; if
    J(A,B) >= t then |A∩B| >= ceil(t·|A|), so A's first
    ``|A| - ceil(t·|A|) + 1`` grams and B's prefix must share an element.
    Correctness needs only a CONSISTENT order — so the order used here is
    (common-gram rank, stable 64-bit hash): a bounded ``common_k``-entry
    frequent-gram table (combiner-pruned per-batch top lists; approximate,
    which affects only *selectivity*, never completeness) pushes frequent
    grams to the BACK of the order so prefixes hold each document's rarest
    grams and posting lists stay short. No global rank table, no global
    sort — the 100 TB path broadcasts one bounded dict.

    Shape: postings are (prefix-gram key, id, set-size) only — never text;
    in-bucket pairing applies the classic LENGTH filter
    (t·|A| <= |B| <= |A|/t) before emitting; candidate pairs are deduped
    by one coarse shuffle and exact-verified by the shared
    join-back-by-id scaffolding with an integer-micro scorer
    (``jaccard_micro = |A∩B|·10^6 // |A∪B|``, floor-division both engines,
    so ``score >= threshold_micro`` is exactly the SQL predicate
    ``i·10^6 >= t_micro·u``). Unlike the approximate family, hot buckets
    are NOT truncated — truncation would break completeness — a posting
    list over ``bucket_cap`` raises with remediation guidance instead."""
    rank_ref = _common_gram_rank(ds, text_col, gram_n, common_k)

    def postings(t: pa.Table) -> pa.Table:
        ranks = ray.get(rank_ref)
        out_key: list[int] = []
        out_id: list[int] = []
        out_n: list[int] = []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            keys, p = _ordered_grams(txt, gram_n, ranks, threshold_micro)
            for k in keys[:p]:
                out_key.append(int(k))
                out_id.append(i)
                out_n.append(len(keys))
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "__n": pa.array(out_n, pa.int64()),
            "band_key": pa.array(np.array(out_key, dtype=np.uint64),
                                 pa.uint64()),
        })

    def sized_pairs(g: pd.DataFrame) -> pd.DataFrame:
        a_out: list[int] = []
        b_out: list[int] = []
        for key, bucket in g.groupby("band_key", sort=False):
            rows = sorted(set(zip(bucket[id_col].tolist(),
                                  bucket["__n"].tolist())))
            if len(rows) > bucket_cap:
                # completeness is this op's contract: never truncate —
                # fail loudly (interval_self_join's cap-error pattern)
                raise ValueError(
                    f"prefix_jaccard_join: posting list for gram key "
                    f"{key} holds {len(rows)} ids (> bucket_cap="
                    f"{bucket_cap}). Raise bucket_cap, raise common_k "
                    f"(a frequent gram escaped the rank table), or "
                    f"raise threshold_micro to shrink prefixes.")
            for x in range(len(rows)):
                ia, na = rows[x]
                for y in range(x + 1, len(rows)):
                    ib, nb = rows[y]
                    lo, hi = (na, nb) if na <= nb else (nb, na)
                    # length filter: J >= t impossible unless t*hi <= lo
                    if threshold_micro * hi > 1_000_000 * lo:
                        continue
                    a_out.append(ia)
                    b_out.append(ib)
        return pd.DataFrame({"id_a": pd.Series(a_out, dtype="int64"),
                             "id_b": pd.Series(b_out, dtype="int64"),
                             "n_trunc": pd.Series(
                                 np.zeros(len(a_out), dtype=np.int64))})

    pairs = shard_cogroup(ds.map_batches(postings, batch_format="pyarrow"),
                          "band_key", sized_pairs)

    def jaccard_micro(sa: frozenset, sb: frozenset) -> int:
        inter = len(sa & sb)
        u = len(sa) + len(sb) - inter
        return inter * 1_000_000 // u if u else 0

    return _verify_pairs_by_join(
        _dedup_pairs(pairs), ds, id_col, text_col,
        _gram_set_scorer(gram_n, jaccard_micro), threshold_micro,
        "jaccard_micro", pa.int64())


# ---------------------------------------------------------------- simhash

def add_simhash(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    ids = batch[id_col]
    sh = [simhash64(t or "") for t in batch[text_col].to_pylist()]
    arr = np.array(sh, dtype=np.uint64)
    return pa.table({id_col: ids, "simhash": pa.array(arr, pa.uint64())})


def signature_hamming_pairs(sigs: "rd.Dataset", id_col: str,
                            sig_col: str, max_hamming: int = 3,
                            n_chunks: int | None = None) -> pd.DataFrame:
    """Near-dup pairs among 64-bit signatures within ``max_hamming``
    bits — the generic banding engine behind simhash (text) and dhash
    (image) near-dup: split the 64 bits into ``n_chunks`` contiguous
    ranges (default ``max_hamming + 1`` — the pigeonhole guarantee:
    two signatures within distance d differ in at most d chunks, so
    they SHARE at least one of d+1), explode each signature to its
    chunk keys, ONE ``shard_cogroup`` on the chunk key, exact
    full-signature verification in each (chunk_id, chunk_key) bucket
    (the key is raw signature bits, so the bucket needs the chunk id),
    then one row per pair (``_dedup_pairs``). Hot chunk buckets cap at
    ``_BUCKET_CAP`` rows; the dropped count is reported via
    logging.warning."""
    n_chunks = n_chunks or max_hamming + 1
    if n_chunks < max_hamming + 1:
        raise ValueError(
            f"signature_hamming_pairs: n_chunks={n_chunks} < "
            f"max_hamming+1={max_hamming + 1} breaks the pigeonhole "
            f"completeness guarantee")
    # contiguous bit ranges, widths differing by at most 1
    widths = [64 // n_chunks + (1 if c < 64 % n_chunks else 0)
              for c in range(n_chunks)]
    offs = np.concatenate(([0], np.cumsum(widths[:-1])))

    def explode_chunks(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
        sh = np.asarray(t[sig_col].to_pylist(), dtype=np.uint64)
        out_id, out_sh, out_chunk, out_key = [], [], [], []
        for c in range(n_chunks):
            mask = np.uint64((1 << widths[c]) - 1)
            key = ((sh >> np.uint64(offs[c])) & mask).astype(np.int64)
            out_id.append(ids)
            out_sh.append(sh)
            out_chunk.append(np.full(len(ids), c, dtype=np.int32))
            out_key.append(key)
        return pa.table({
            id_col: pa.array(np.concatenate(out_id), pa.int64()),
            "simhash": pa.array(np.concatenate(out_sh), pa.uint64()),
            "chunk_id": pa.array(np.concatenate(out_chunk), pa.int32()),
            "chunk_key": pa.array(np.concatenate(out_key), pa.int64()),
        })

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        a, b, h, t = [], [], [], []
        for _, bucket in g.groupby(["chunk_id", "chunk_key"], sort=False):
            rows = sorted(set(zip(bucket[id_col].astype("int64"),
                                  bucket["simhash"].astype("uint64"))))
            dropped = max(0, len(rows) - _BUCKET_CAP)
            rows = rows[:_BUCKET_CAP]
            first = True
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    d = bin(int(rows[i][1]) ^ int(rows[j][1])).count("1")
                    if d <= max_hamming:
                        a.append(rows[i][0]); b.append(rows[j][0]); h.append(d)
                        t.append(dropped if first else 0)
                        first = False
            if dropped and first:  # truncated bucket with zero pairs: keep
                a.append(-1); b.append(-1); h.append(-1); t.append(dropped)
        return pd.DataFrame({"id_a": pd.Series(a, dtype="int64"),
                             "id_b": pd.Series(b, dtype="int64"),
                             "hamming": pd.Series(h, dtype="int64"),
                             "n_trunc": pd.Series(t, dtype="int64")})

    allp = shard_cogroup(sigs.map_batches(explode_chunks,
                                          batch_format="pyarrow"),
                         "chunk_key", shard_pairs)
    out = _dedup_pairs(allp, "id_a",
                       _cap_finish("simhash", ("id_a", "id_b"))).to_pandas()
    if out.empty:
        return out.reindex(columns=["id_a", "id_b", "hamming"])
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def simhash_candidates(ds: "rd.Dataset", text_col: str = "text",
                       id_col: str = "doc_id",
                       max_hamming: int = 3) -> pd.DataFrame:
    """Text near-dup pairs within ``max_hamming`` simhash bits: compute
    per-doc simhash64, then the generic chunk-key banding
    (``signature_hamming_pairs`` with 4 16-bit chunks — two signatures
    within distance 3 share at least one)."""
    sigs = ds.map_batches(
        lambda b: add_simhash(b, text_col=text_col, id_col=id_col),
        batch_format="pyarrow")
    return signature_hamming_pairs(sigs, id_col, "simhash",
                                   max_hamming=max_hamming, n_chunks=4)


# ------------------------------------------------------- corpus overlap

def corpus_overlap(ds: "rd.Dataset", text_col: str = "text",
                   group_col: str = "source") -> "rd.Dataset":
    """Cross-source content overlap (contamination between crawl dumps /
    data sources): per source, the number of distinct document texts and
    how many of those also appear verbatim in at least one OTHER source.
    The cross-snapshot companion to ``dedup_exact`` — a Common Crawl
    pipeline runs exactly this to measure dump-to-dump duplication before
    deciding what to re-extract.

    Combiner-shaped: each batch reduces to its distinct
    (sha256(text), source) pairs — texts themselves never cross the
    shuffle — then one ``groupby`` on the content hash counts sources per
    text, and a tiny per-source roll-up finishes. At 100 TB the exchanged
    rows are O(distinct texts), 64 hex bytes + source each."""
    import hashlib

    def local_pairs(t: pa.Table) -> pa.Table:
        seen: set = set()
        hs: list[str] = []
        ss: list[str] = []
        for txt, src in zip(t[text_col].to_pylist(),
                            t[group_col].to_pylist()):
            h = hashlib.sha256((txt or "").encode()).hexdigest()
            if (h, src) not in seen:
                seen.add((h, src))
                hs.append(h)
                ss.append(src)
        return pa.table({"th": pa.array(hs, pa.string()),
                         group_col: pa.array(ss, pa.string())})

    def shared_flags(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass per SHARD, not one group call per distinct
        # text: Ray's per-key map_groups prices by distinct-key count
        # (the r5 sf1 measurement — 64-78 s at 400k keys vs ~3 s for 64
        # coarse shards), and distinct texts ~ corpus size at 100 TB
        g = g.drop_duplicates(["th", group_col])
        n_src = g.groupby("th")[group_col].transform("nunique")
        return pd.DataFrame({
            group_col: g[group_col],
            "__shared": (n_src > 1).to_numpy().astype(np.int64),
        })

    pairs = ds.map_batches(local_pairs, batch_format="pyarrow")
    flagged = shard_cogroup(pairs.repartition(default_partitions()), "th",
                            shared_flags)
    return grouped_agg(flagged, [group_col], {"__shared": "n_shared"},
                       count_alias="n_texts")


# ------------------------------------------------------- hamming strings

def _cap_finish(op: str, pair: tuple[str, str] = ("k_a", "k_b")):
    """Pair-dedup fold of the families that verify inside a capped
    bucket (``signature_hamming_pairs``, ``hamming_join``,
    ``edit1_join``): log the bucket-cap truncation, drop the ``-1``
    sentinel rows (truncated buckets with no pair), keep one row per
    ``pair``."""
    def finish(b: pd.DataFrame) -> pd.DataFrame:
        trunc = int(b["n_trunc"].sum())
        if trunc:
            logger.warning("%s: %d rows dropped by the %d-row bucket cap",
                           op, trunc, _BUCKET_CAP)
        b = b[b[pair[0]] >= 0]
        return b.drop(columns=["n_trunc"]).drop_duplicates(list(pair))

    return finish


def hamming_join(ds: "rd.Dataset", id_col: str, str_col: str,
                 max_dist: int = 1) -> "rd.Dataset":
    """Self-join on Hamming distance over a fixed-width string column
    (typo-tolerant key matching): pairs ``(k_a, k_b, dist)`` with
    ``dist <= max_dist`` and ``k_a < k_b``. Blocking is the pigeonhole
    chunk scheme (the SimHash-chunk idea applied to characters): split
    each string into ``max_dist + 1`` contiguous chunks — two strings
    within ``max_dist`` substitutions agree on at least one whole chunk
    — and shuffle only (chunk_id, chunk_hash, id, string) rows; exact
    verification is a vectorized byte-matrix comparison per bucket.
    Strings of unequal length never pair (Hamming is undefined there;
    they also cannot share an aligned chunk scheme, so buckets key on
    the length too). Hot buckets are capped at ``_BUCKET_CAP`` rows
    with the dropped count logged — same no-silent-caps contract as
    the LSH stages. Distance is over BYTES (ascii keys; for multibyte
    text the byte count upper-bounds the character count, so recall is
    unaffected but reported distances can exceed character hamming).

    Blocking scheme, chosen per call: chunk pigeonholing degenerates
    when the keys share a long constant region (every row lands in the
    constant chunk's bucket — e.g. a common "Supplier#" prefix puts the
    WHOLE table in one bucket and the cap then drops true pairs). So
    for ``max_dist == 1`` over short keys (≤64 chars) the blocker is
    the wildcard / deletion-neighborhood scheme instead: one key per
    character position with that character masked; two strings at
    distance ≤1 share a key iff they match with one position
    wildcarded, so buckets are bounded by the alphabet size (plus true
    duplicates) regardless of shared prefixes — exact recall, L keys
    per row. Longer keys or larger distances keep chunk pigeonholing
    (C(L, d) wildcard keys would explode); constant-prefix data at
    max_dist >= 2 will report truncation rather than silently lose
    pairs."""
    n_chunks = max_dist + 1

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        strs = t[str_col].to_pylist()
        out_id, out_s, out_chunk, out_key = [], [], [], []
        for i, s in zip(ids, strs):
            if not s:
                continue
            ln = len(s)
            if max_dist == 1 and ln <= 64:
                for c in range(ln):
                    out_id.append(i)
                    out_s.append(s)
                    out_chunk.append(c)
                    out_key.append(f"{ln}|{c}|{s[:c]}\x00{s[c + 1:]}")
                continue
            for c in range(n_chunks):
                lo = (ln * c) // n_chunks
                hi = (ln * (c + 1)) // n_chunks
                out_id.append(i)
                out_s.append(s)
                out_chunk.append(c)
                # length in the key: unequal-length strings never co-bucket
                out_key.append(f"{ln}|{c}|{s[lo:hi]}")
        keys = hash_strings_u64(out_key) if out_key else np.array([], np.uint64)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            str_col: pa.array(out_s, pa.string()),
            "chunk_id": pa.array(out_chunk, pa.int32()),
            "chunk_key": pa.array(keys, pa.uint64()),
        })

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out, d_out, t_out = [], [], [], []
        for _, bucket in g.groupby(["chunk_id", "chunk_key"], sort=False):
            rows = sorted(set(zip(bucket[id_col].astype("int64"),
                                  bucket[str_col])))
            dropped = max(0, len(rows) - _BUCKET_CAP)
            rows = rows[:_BUCKET_CAP]
            if len(rows) < 2:
                if dropped:
                    a_out.append(-1); b_out.append(-1)
                    d_out.append(-1); t_out.append(dropped)
                continue
            # vectorized verify: byte matrix, pairwise mismatch counts
            mat = np.frombuffer(
                "".join(s for _, s in rows).encode("utf-8", "surrogateescape"),
                dtype=np.uint8).reshape(len(rows), -1)
            ids = np.array([k for k, _ in rows], np.int64)
            first = True
            neq = (mat[:, None, :] != mat[None, :, :]).sum(axis=2)
            ii, jj = np.nonzero(np.triu(neq <= max_dist, k=1))
            for i, j in zip(ii, jj):
                a_out.append(int(ids[i])); b_out.append(int(ids[j]))
                d_out.append(int(neq[i, j]))
                t_out.append(dropped if first else 0)
                first = False
            if dropped and first:
                a_out.append(-1); b_out.append(-1)
                d_out.append(-1); t_out.append(dropped)
        return pd.DataFrame({"k_a": pd.Series(a_out, dtype="int64"),
                             "k_b": pd.Series(b_out, dtype="int64"),
                             "dist": pd.Series(d_out, dtype="int64"),
                             "n_trunc": pd.Series(t_out, dtype="int64")})

    allp = shard_cogroup(ds.map_batches(explode, batch_format="pyarrow"),
                         "chunk_key", shard_pairs)
    return _dedup_pairs(allp, "k_a", _cap_finish("hamming_join"))


def _lev_le1(a: str, b: str) -> int:
    """Exact Levenshtein distance capped at 2 (returns 0, 1, or 2 meaning
    '>1'). O(len) single scan — the only distances the edit1 join needs."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == lb:
        diffs = sum(x != y for x, y in zip(a, b))
        return 1 if diffs == 1 else 2
    if abs(la - lb) != 1:
        return 2
    if la > lb:
        a, b = b, a
        la, lb = lb, la
    # b is a plus one inserted char: skip the first mismatch in b
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1:] else 2


def edit1_join(ds: "rd.Dataset", id_col: str, str_col: str,
               max_len: int = 64) -> "rd.Dataset":
    """Self-join on Levenshtein distance <= 1 (substitution, insertion,
    OR deletion — the typo-join ``hamming_join`` cannot express because
    Hamming is substitution-only over equal lengths). Blocking is the
    FastSS deletion neighborhood (Bocek et al., 2007): each string emits
    itself plus its ``len`` single-character deletions as keys; two
    strings within one edit always share a key (equal -> the string
    itself; substitution -> both delete the substituted position; indel
    -> the shorter string IS a deletion variant of the longer). Shuffle
    carries (key_hash, id, string); verification is the exact O(len)
    ``_lev_le1`` scan per in-bucket candidate pair. Hot buckets cap at
    ``_BUCKET_CAP`` with the dropped count logged (no silent caps), and
    cross-key duplicate pairs collapse in one co-group on the left key
    — the same contract and the same finish as ``hamming_join``. Strings
    longer than ``max_len`` are skipped (reported): L+1 keys per row is
    the blocking cost, linear in string length."""
    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        strs = t[str_col].to_pylist()
        out_id, out_s, out_key = [], [], []
        n_skipped = 0
        for i, s in zip(ids, strs):
            if not s:
                continue
            if len(s) > max_len:
                n_skipped += 1
                continue
            # the string itself + every single-deletion variant; keys are
            # length-tagged so only len/len and len/len+1 rows co-bucket
            out_id.append(i)
            out_s.append(s)
            out_key.append(f"F{len(s)}|{s}")
            for c in range(len(s)):
                out_id.append(i)
                out_s.append(s)
                out_key.append(f"F{len(s) - 1}|{s[:c]}{s[c + 1:]}")
        if n_skipped:
            logger.warning("edit1_join: %d strings longer than %d skipped",
                           n_skipped, max_len)
        keys = (hash_strings_u64(out_key) if out_key
                else np.array([], np.uint64))
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            str_col: pa.array(out_s, pa.string()),
            "del_key": pa.array(keys, pa.uint64()),
        })

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # verification stays a per-CANDIDATE O(len) char scan on purpose:
        # the oracle contract is CHARACTER Levenshtein (SQL levenshtein),
        # and the hamming-style byte-matrix vectorization would count a
        # multibyte substitution as 2+ byte diffs and drop true pairs.
        # Candidates are bounded by the deletion-neighborhood blocking +
        # the bucket cap, so the scan never sees the n^2 of the corpus.
        a_out, b_out, d_out, t_out = [], [], [], []
        for _, bucket in g.groupby("del_key", sort=False):
            rows = sorted(set(zip(bucket[id_col].astype("int64"),
                                  bucket[str_col])))
            dropped = max(0, len(rows) - _BUCKET_CAP)
            rows = rows[:_BUCKET_CAP]
            first = True
            for x in range(len(rows)):
                ida, sa = rows[x]
                for y in range(x + 1, len(rows)):
                    idb, sb = rows[y]
                    if ida == idb:
                        continue
                    d = _lev_le1(sa, sb)
                    if d <= 1:
                        a, b = (ida, idb) if ida < idb else (idb, ida)
                        a_out.append(a)
                        b_out.append(b)
                        d_out.append(d)
                        t_out.append(dropped if first else 0)
                        first = False
            if dropped and first:
                a_out.append(-1)
                b_out.append(-1)
                d_out.append(-1)
                t_out.append(dropped)
        return pd.DataFrame({"k_a": pd.Series(a_out, dtype="int64"),
                             "k_b": pd.Series(b_out, dtype="int64"),
                             "dist": pd.Series(d_out, dtype="int64"),
                             "n_trunc": pd.Series(t_out, dtype="int64")})

    allp = shard_cogroup(ds.map_batches(explode, batch_format="pyarrow"),
                         "del_key", shard_pairs)
    return _dedup_pairs(allp, "k_a", _cap_finish("edit1_join"))


def snm_pairs(ds: "rd.Dataset", key_col: str, id_col: str,
              window: int, bucket_size: int = 65536,
              n_buckets: int = 1024) -> "rd.Dataset":
    """Sorted-neighborhood candidate pairs (Hernandez & Stolfo,
    SIGMOD'95 — the classic record-linkage blocking method): sort the
    corpus by a blocking key and emit every id pair within ``window``
    positions of each other — the cheap O(n*w) complement of the
    similarity-blocked families (MinHash/SimHash/prefix-filter) for
    keys where near-duplicates sort near each other (normalized names,
    lengths, timestamps, zip codes).

    Distributed WITHOUT a global sort: ``global_row_number``'s
    range-bucket enumeration assigns DENSE global ranks 1..n, rows
    bucket by ``rank // bucket_size``, and the first ``window`` ranks
    of each bucket replicate to the previous bucket (boundary overlap)
    — each pair is emitted exactly once, attributed to the LEFT row's
    home bucket; inside a bucket the rank set is contiguous, so the
    j-th neighbor is a plain array shift, no search. Each row moves at
    most twice; pair volume is exactly n*window (minus the tail).

    Nulls in ``key_col`` drop by contract (they have no sort
    position). Output: (a_id, b_id, gap) with a_id the lower-RANK
    row's id and ``gap`` the rank distance in [1, window]."""
    if window < 1:
        raise ValueError("snm_pairs: window must be >= 1")
    if bucket_size <= window:
        raise ValueError("snm_pairs: bucket_size must exceed window")

    def drop_null(b: pd.DataFrame) -> pd.DataFrame:
        return b.dropna(subset=[key_col])[[key_col, id_col]]

    numbered = global_row_number(ds.map_batches(drop_null,
                                                batch_format="pandas"),
                                 key_col, id_col, alias="__rn",
                                 n_buckets=n_buckets)
    B = bucket_size

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["__rn"].to_numpy(np.int64)
        out = pd.DataFrame({id_col: b[id_col].to_numpy(), "__rn": rn,
                            "__bkt": rn // B,
                            "__home": np.ones(len(rn), np.int64)})
        m = ((rn % B) < window) & (rn // B > 0)
        if m.any():
            rep = out[m].copy()
            rep["__bkt"] -= 1
            rep["__home"] = 0
            out = pd.concat([out, rep], ignore_index=True)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("__rn")
        rn = g["__rn"].to_numpy(np.int64)
        ids = g[id_col].to_numpy()
        home = g["__home"].to_numpy(np.int64)
        frames = []
        for j in range(1, window + 1):
            if j >= len(rn):
                break
            a, b2 = ids[:-j], ids[j:]
            ok = (home[:-j] == 1) & (rn[j:] - rn[:-j] == j)
            if ok.any():
                frames.append(pd.DataFrame({
                    "a_id": a[ok], "b_id": b2[ok],
                    "gap": np.full(int(ok.sum()), j, np.int64)}))
        if not frames:
            return pd.DataFrame({"a_id": ids[:0], "b_id": ids[:0],
                                 "gap": pd.array([], dtype="int64")})
        return pd.concat(frames, ignore_index=True)

    # the bucket id is already a balanced dense range — group directly
    return (numbered.map_batches(tag, batch_format="pandas")
                    .groupby("__bkt").map_groups(fold,
                                                 batch_format="pandas"))


def containment_join(ds: "rd.Dataset", text_col: str = "text",
                     id_col: str = "doc_id",
                     threshold_micro: int = 800_000, gram_n: int = 8,
                     common_k: int = 65536,
                     bucket_cap: int = 4 * _BUCKET_CAP) -> pd.DataFrame:
    """EXACT gram-set CONTAINMENT self-join: every ORDERED pair
    (a, b), a != b, with ``|A∩B|·10^6 // |A| >= threshold_micro`` —
    the quote / subset / page-plus-boilerplate detector where Jaccard
    goes blind (a short document fully embedded in a long one has
    J ≈ |A|/|B| → 0 but containment 1.0). The asymmetric sibling of
    ``prefix_jaccard_join``, sharing its order table, cap discipline
    and exact-verify scaffolding.

    Asymmetric prefix theorem: if |A∩B| >= ceil(t·|A|) then A's first
    ``|A| − ceil(t·|A|) + 1`` grams in ANY consistent total order must
    hit B — but containment bounds nothing relative to |B|, so the
    INDEX side posts its FULL gram set (the unavoidable price of
    subset semantics; posting volume is Σ|grams| instead of Σ|prefix|).
    The shared common-gram rank table still pushes frequent grams out
    of probe prefixes, so hot-gram buckets hold many index rows but
    ~zero probes and emit ~zero pairs; per-bucket PROBE counts over
    ``bucket_cap`` raise (completeness contract — never truncate).

    Candidate pruning beyond the prefix: the PPJoin POSITIONAL filter —
    index postings carry the gram's position j_b in B's order; all
    common grams sit at positions >= j_b, so a pair is generated only
    where m_b − j_b still reaches ceil(t·|A|). Sound because the FIRST
    common gram (which the prefix theorem guarantees lies in A's
    prefix) always passes, and pairs are OR-deduped across generating
    grams.

    Verification is exact and positional: candidates keep their
    (probe, index) orientation through the join-back and score
    ``containment_micro = |A∩B|·10^6 // |A|`` (floor-division both
    engines; per-worker gram-set cache — one shingling per DOC, not
    per pair, which was the 10M-candidate hot spot on self-similar
    corpora). Both directions of a mutual near-duplicate emit
    independently — (a,b) when a probes, (b,a) when b probes."""
    rank_ref = _common_gram_rank(ds, text_col, gram_n, common_k)

    def postings(t: pa.Table) -> pa.Table:
        ranks = ray.get(rank_ref)
        out_key: list[int] = []
        out_id: list[int] = []
        out_n: list[int] = []
        out_probe: list[int] = []
        out_pos: list[int] = []
        for i, txt in zip(t[id_col].to_pylist(),
                          t[text_col].to_pylist()):
            keys, p = _ordered_grams(txt, gram_n, ranks, threshold_micro)
            # index role: EVERY gram; probe role: the p rarest only;
            # __j carries the gram's position in the doc's order for
            # the PPJoin positional filter at pairing time
            for j, k in enumerate(keys):
                out_key.append(int(k))
                out_id.append(i)
                out_n.append(len(keys))
                out_probe.append(1 if j < p else 0)
                out_pos.append(j)
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "__n": pa.array(out_n, pa.int64()),
            "__probe": pa.array(out_probe, pa.int64()),
            "__j": pa.array(out_pos, pa.int64()),
            "band_key": pa.array(np.array(out_key, dtype=np.uint64),
                                 pa.uint64()),
        })

    def oriented_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # fully vectorized: most gram buckets hold only index rows (the
        # rank table keeps frequent grams out of probe prefixes), so
        # first cut the shard to probe-ACTIVE keys, then pandas-merge
        # probes x index per key — a per-bucket Python loop over ~1M
        # distinct grams was the 5000-doc hot spot (20x wall)
        base = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "n_trunc": pd.Series(dtype="int64")})
        if not len(g):
            return base
        g = g.drop_duplicates(["band_key", id_col])
        probes = g[g["__probe"] == 1]
        if not len(probes):
            return base
        pc_ = probes["band_key"].value_counts()
        if int(pc_.iloc[0]) > bucket_cap:
            raise ValueError(
                f"containment_join: {int(pc_.iloc[0])} probe ids on "
                f"gram key {pc_.index[0]} (> bucket_cap={bucket_cap}). "
                f"Raise bucket_cap or common_k, or raise "
                f"threshold_micro to shrink prefixes.")
        idx = g[g["band_key"].isin(probes["band_key"].unique())]
        pairs = probes[["band_key", id_col, "__n"]].merge(
            idx[["band_key", id_col, "__n", "__j"]], on="band_key",
            suffixes=("_a", "_b"))
        # PPJoin positional filter (sound at the FIRST common gram,
        # which the prefix theorem guarantees generates the pair): all
        # common grams sit at positions >= j_b in B's order, so
        # |A∩B| <= m_b − j_b must still reach ceil(t·m_a)
        ca = (threshold_micro * pairs["__n_a"].to_numpy(np.int64)
              + 999_999) // 1_000_000
        keep = ((pairs[f"{id_col}_a"] != pairs[f"{id_col}_b"])
                # size filter: t*|A| <= |A∩B| <= min(|A|, |B|)
                & (threshold_micro * pairs["__n_a"]
                   <= 1_000_000 * pairs["__n_b"])
                & (pairs["__n_b"].to_numpy(np.int64)
                   - pairs["__j"].to_numpy(np.int64) >= ca))
        pairs = pairs[keep]
        out = pd.DataFrame({
            "id_a": pairs[f"{id_col}_a"].to_numpy(np.int64),
            "id_b": pairs[f"{id_col}_b"].to_numpy(np.int64),
        }).drop_duplicates()
        out["n_trunc"] = np.zeros(len(out), dtype=np.int64)
        return out

    pairs = shard_cogroup(ds.map_batches(postings, batch_format="pyarrow"),
                          "band_key", oriented_pairs)

    def containment_micro(sa: frozenset, sb: frozenset) -> int:
        return len(sa & sb) * 1_000_000 // len(sa) if sa else 0

    return _verify_pairs_by_join(
        _dedup_pairs(pairs), ds, id_col, text_col,
        _gram_set_scorer(gram_n, containment_micro), threshold_micro,
        "containment_micro", pa.int64())
