"""Relational building blocks: partial (combiner) aggregation, broadcast
joins, top-1-per-key, windowed aggregates.

These re-express the reference's SQL-side operators (ORDER BY ... LIMIT 1
latest-job lookup, extraction.py:455-470; FK joins; listing sorts) with
scale-conscious shapes:

- ``grouped_agg``: the one combiner — pre-aggregates inside
  ``map_batches`` (one partial row per key per batch) and folds the
  partials in a ``shard_cogroup``: the all-to-all moves partials, not
  rows.
- ``broadcast_join``: the small side is put in the object store ONCE
  (``ray.put``) and merged per batch — no shuffle (reference J1).
- ``latest_per_key`` / ``topk_per_group``: groupby + per-group sort/head
  with a total tie-break (reference J4 generalized).
- ``windowed_agg``: event-time tumbling windows as a derived window key +
  grouped aggregate (Ray Data has no event-time machinery; SURVEY §2.9).
- ``shuffle_join``: large-large hash-shuffle join via ``Dataset.join``
  (both sides too big to broadcast). It is the package's ONLY caller of
  ``Dataset.join``: it owns the default partition count and the
  aggregator resources (no CPU reserved, so a 1-CPU cluster can still
  schedule the read tasks that feed the join).
- ``shard_cogroup``: the ONLY hash co-group — tag rows with
  ``shard_ids`` (the one coarse shard hash: Fibonacci mix for numbers,
  ``hash_strings_u64`` otherwise) and fold each shard with vectorized
  pandas or Arrow. Its shard count is ``default_partitions()``, the
  fan-out of ``shuffle_join``. Combiners pass their per-batch prune as
  the fold too; per-group kernels go through ``_groupwise``. A
  two-sided co-group passes ``a.union(b)``; a composite key (bucket and
  salt cell, key and time bucket) is first written into one int64
  column.
- ``grouped_stats``: sum/avg/min/max/count per key, combiner-style.
- ``sessionize``: gap-based session windows — hash-partition by user, one
  per-group sorted linear scan (the streaming-window analogue, SURVEY §2.9).
- ``asof_join``: backward as-of join (nearest earlier right row per left
  row) via aligned-schema union + one co-grouping shuffle + per-group
  ``searchsorted`` — no Ray Data primitive exists for this; the
  partitioning assumption is that one key's rows fit a worker.
- ``distinct``: per-batch dedup combiner + coarse-shard co-group dedup.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd


def grouped_agg(ds: "rd.Dataset", keys: Sequence[str],
                sum_cols: dict[str, str],
                count_alias: str | None = "n") -> "rd.Dataset":
    """groupby(keys) with Sum/Count, combiner-style. ``sum_cols`` maps
    input column -> output alias; ``count_alias=None`` drops the row
    count. The package's one combiner: an Arrow partial per batch (one
    row per key per batch), the partials coalesced to
    ``default_partitions()`` blocks, then one ``shard_cogroup`` on
    ``keys[0]`` whose per-shard fold is a pandas groupby sum cast back
    to the partials' Arrow schema. A null key is one null group, in the
    key column's Arrow type (SQL GROUP BY semantics).

    Why this shape (2,000 distinct keys, 1-CPU local Ray): Ray's
    per-key ``groupby().aggregate()`` took 2.55 s over 8 input blocks
    and 21.1 s over 200, because its sort machinery is priced by block
    and key count; splitting the partials into 64 shards took 4.46 s
    and 8.12 s; coalescing them to 4 blocks and folding 4 shards took
    0.40 s and 2.88 s. A fold on one node was faster on one CPU
    (0.17 s and 2.20 s) but does not scale with key cardinality."""
    keys = list(keys)
    in_cols = list(sum_cols)
    # internal count name when the caller wants no count column — must
    # not collide with any caller-chosen sum alias (e.g. "n")
    cnt = count_alias if count_alias is not None else "__cnt"
    out_cols = keys + list(sum_cols.values()) + [cnt]
    sums = out_cols[len(keys):]

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(keys + in_cols).group_by(keys).aggregate(
            [(c, "sum") for c in in_cols] + [([], "count_all")])
        return g.select(keys + [f"{c}_sum" for c in in_cols]
                        + ["count_all"]).rename_columns(out_cols)

    def fold(t: pa.Table) -> pa.Table:
        # pandas, then back to the partials' Arrow types: pyarrow 16's
        # multi-key group_by splits a null string key into several
        # groups (harmless in the partial, which this fold re-sums)
        g = t.to_pandas().groupby(keys, as_index=False, sort=False,
                                  dropna=False).agg(
            **{a: (a, "sum") for a in sums})
        return pa.Table.from_pandas(g, schema=t.schema.remove_metadata(),
                                    preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = shard_cogroup(partials.repartition(default_partitions()),
                        keys[0], fold, batch_format="pyarrow")
    return out if count_alias is not None else out.drop_columns([cnt])


def broadcast_join(ds: "rd.Dataset", small: pd.DataFrame, on: str,
                   how: str = "inner") -> "rd.Dataset":
    """Map-side join against a broadcast small table (dimension table)."""
    ref = ray.put(small)

    def join_batch(batch: pd.DataFrame) -> pd.DataFrame:
        rhs = ray.get(ref)
        return batch.merge(rhs, on=on, how=how)

    return ds.map_batches(join_batch, batch_format="pandas")


# Fibonacci multiplier of every shard mix in this module
_MIX = np.uint64(0x9E3779B97F4A7C15)


def shard_ids(keys: np.ndarray, n_shards: int) -> np.ndarray:
    """The one coarse shard hash: int64 shard id in ``[0, n_shards)`` of
    every key of a numpy array. Numbers take a Fibonacci mix
    (``state/bucket_store`` buckets with it too) before the mod — an identity
    mod collapses stride-patterned keys (e.g. all multiples of 64) into
    one hot shard. Integer keys hash by value, so the two sides of a
    co-group still co-locate equal keys when their columns differ in
    width. Everything else hashes ``str(key)`` with
    ``hash_strings_u64``."""
    if np.issubdtype(keys.dtype, np.number):
        mixed = (keys.astype(np.int64).view(np.uint64) * _MIX
                 ) >> np.uint64(40)
        return (mixed % np.uint64(n_shards)).astype(np.int64)
    from credit_ocr_backend_ray.functions.hashing import hash_strings_u64
    return (hash_strings_u64([str(x) for x in keys])
            % np.uint64(n_shards)).astype(np.int64)


def shard_cogroup(ds: "rd.Dataset", key: str, fold,
                  batch_format: str = "pandas") -> "rd.Dataset":
    """Coarse key-hash shard co-group — the one single-key co-group of
    this package: tag each row with ``shard_ids(key)`` over
    ``default_partitions()`` shards and run ``fold`` once per SHARD
    (the batch, pandas or ``"pyarrow"``, arrives without the
    ``__shard`` column). The replacement for
    ``ds.groupby(key).map_groups(...)`` whenever key cardinality is
    unbounded — Ray's per-key machinery prices by distinct-key count
    (measured 64-78 s at 400k keys vs ~3 s for 64 shards, r5);
    ``fold`` keeps exact per-key semantics by grouping WITHIN the
    shard with vectorized ops. A combiner-shaped caller whose
    per-batch prune equals its per-shard fold (top-1, top-k, first or
    max per key) maps ``ds`` with that function and passes it again
    as ``fold``."""
    n = default_partitions()
    arrow = batch_format == "pyarrow"

    def tag(b):
        ids = shard_ids(b[key].to_numpy(), n)
        if arrow:
            return b.append_column("__shard", pa.array(ids))
        return b.assign(__shard=ids)

    def run(g):
        return fold(g.drop_columns(["__shard"]) if arrow
                    else g.drop(columns="__shard"))

    return (ds.map_batches(tag, batch_format=batch_format)
              .groupby("__shard").map_groups(run,
                                             batch_format=batch_format))


def _segments(g: pd.DataFrame, keys: Sequence[str]):
    """Per-key segment (start, size) arrays for a frame already sorted
    by ``keys`` — the basis of vectorized per-key order statistics.
    Group order matches ``g.iloc[starts]`` (first row per key)."""
    sizes = (g.groupby(list(keys), sort=False, dropna=False)
              .size().to_numpy(np.int64))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return starts, sizes


def _segment_quantiles(v: np.ndarray, starts: np.ndarray,
                       sizes: np.ndarray, q: float,
                       method: str) -> np.ndarray:
    """Exact quantile of every segment at once; ``v`` must be sorted
    within segments (NaNs last). ``linear`` = quantile_cont
    interpolation, ``inverted_cdf`` = quantile_disc (an element)."""
    if method == "linear":
        t = (sizes - 1) * q
        lo = np.floor(t).astype(np.int64)
        frac = t - lo
        hi = np.minimum(lo + 1, sizes - 1)
        return v[starts + lo] * (1 - frac) + v[starts + hi] * frac
    if method == "inverted_cdf":
        i = np.maximum(np.ceil(q * sizes).astype(np.int64) - 1, 0)
        return v[starts + i]
    raise ValueError(f"unsupported quantile method: {method!r}")


def _nan_segments(v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Boolean per-segment any-NaN mask (np.quantile semantics: any NaN
    in the group poisons its statistic)."""
    return np.add.reduceat(np.isnan(v), starts) > 0


def _groupwise(keys: Sequence[str], kernel):
    """Adapt a per-GROUP kernel into a per-SHARD fold for
    ``shard_cogroup``: group WITHIN the shard (dropna=False so null keys
    survive, matching Arrow group_by semantics) and run the unchanged
    holistic kernel per group. The Python loop is per-shard worker-side
    — ~distinct_keys / shards iterations, not a driver loop."""
    keys = list(keys)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [kernel(grp) for _, grp in
             g.groupby(keys, sort=False, dropna=False)],
            ignore_index=True)

    return fold


def latest_per_key(ds: "rd.Dataset", key: str, order_cols: list[str],
                   ascending: list[bool] | None = None) -> "rd.Dataset":
    """Top-1 per key by order_cols (default: all descending) with the
    order columns doubling as the deterministic tie-break. Combiner-shaped:
    each batch pre-prunes to its local winner per key, so the shuffle
    moves at most one row per (key, batch) instead of every row. The
    global pass co-groups coarse key-hash shards (one vectorized
    groupby-head per shard) instead of paying per-key group machinery."""
    asc = ascending if ascending is not None else [False] * len(order_cols)

    def top1(b: pd.DataFrame) -> pd.DataFrame:
        return (b.sort_values(order_cols, ascending=asc)
                 .groupby(key, as_index=False, sort=False).head(1))

    return shard_cogroup(ds.map_batches(top1, batch_format="pandas"), key,
                         top1)


def windowed_agg(ds: "rd.Dataset", ts_col: str, keys: Sequence[str],
                 window: str, sum_cols: dict[str, str]) -> "rd.Dataset":
    """Tumbling event-time windows: truncate ``ts_col`` to the window
    (pandas freq alias, e.g. "D", "h") and run the combiner aggregate over
    (window_start, *keys)."""
    keys = list(keys)

    def add_window(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["window_start"] = batch[ts_col].dt.floor(window)
        return batch

    windowed = ds.map_batches(add_window, batch_format="pandas")
    return grouped_agg(windowed, ["window_start", *keys], sum_cols)


def hopping_window_agg(ds: "rd.Dataset", ts_col: str, keys: Sequence[str],
                       size_s: int, hop_s: int,
                       sum_cols: dict[str, str],
                       count_alias: str = "n") -> "rd.Dataset":
    """Hopping (sliding) event-time windows: every event lands in
    ``size_s/hop_s`` overlapping windows, derived with integer MICROSECOND
    arithmetic (exactly reproducible in SQL — float epoch math drifts at
    floor boundaries).

    De-amplified shape: each batch first COMBINES rows into partials keyed
    by the hop granule (``ts // hop_us``) x keys — sums + a count — and
    only those bounded partials are exploded into the size/hop overlapping
    windows that contain their granule. Shuffle volume is
    granules x keys x batches x (size/hop), independent of the row count;
    the naive row x k pre-shuffle fan-out (60x at size=1h/hop=1min) never
    materializes."""
    if size_s % hop_s:
        raise ValueError("size_s must be a multiple of hop_s")
    k_count = size_s // hop_s
    hop_us = hop_s * 1_000_000
    keys = list(keys)
    in_cols = list(sum_cols)

    def partial_explode(b: pd.DataFrame) -> pd.DataFrame:
        f = b[keys + in_cols].copy()
        f["__g"] = (b[ts_col].astype("datetime64[us]").astype("int64")
                    // hop_us)
        # dropna=False: a null key must aggregate into a null GROUP (the
        # downstream Arrow group_by keeps null keys, so dropping here
        # would silently lose those rows from every window); the count
        # partial rides __g (always present) so sum_cols may be empty
        # (count-only hopping windows)
        p = f.groupby(["__g", *keys], as_index=False, sort=False,
                      dropna=False).agg(
            **{c: (c, "sum") for c in in_cols},
            __hn=("__g", "size"))
        # the k windows containing granule g start at granules g-k+1 .. g
        g = p["__g"].to_numpy()
        frames = []
        for j in range(k_count):
            q = p.drop(columns="__g").copy()
            q["window_start"] = pd.to_datetime((g - j) * hop_us, unit="us")
            frames.append(q)
        return pd.concat(frames, ignore_index=True)

    partials = ds.map_batches(partial_explode, batch_format="pandas")
    # the count is now a SUM of partial counts, so it rides sum_cols and
    # grouped_agg's own row count is suppressed
    return grouped_agg(partials, ["window_start", *keys],
                       {**sum_cols, "__hn": count_alias},
                       count_alias=None)


def broadcast_anti_join(ds: "rd.Dataset", keys: set, on: str) -> "rd.Dataset":
    """Anti-join against a broadcast key set: keep rows whose ``on`` value
    is NOT in ``keys`` (``ray.put`` once, vectorized isin per batch). The
    small side must fit in the object store; flip to a shuffle
    groupby-based anti-join when it doesn't."""
    ref = ray.put(keys)

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        k = ray.get(ref)
        return b[~b[on].isin(k)]

    return ds.map_batches(filt, batch_format="pandas")


def default_partitions() -> int:
    """The one shuffle fan-out rule: the cluster's CPU count, at least 4."""
    return max(4, int(ray.cluster_resources().get("CPU", 8)))


def shuffle_join(left: "rd.Dataset", right: "rd.Dataset",
                 on: str | tuple[str, ...],
                 right_on: str | tuple[str, ...] | None = None,
                 join_type: str = "inner",
                 num_partitions: int | None = None) -> "rd.Dataset":
    """Large-large hash-shuffle join (``Dataset.join``) — the package's
    ONE join entry. Both sides are hash-partitioned on the key (a column
    name or a tuple of them) — use ``broadcast_join`` whenever one side
    fits in the object store; this is for the fact-fact case (e.g.
    lineitem x orders). ``num_partitions`` is the shuffle fan-out; each
    partition is an aggregator actor, so it defaults to
    ``default_partitions()`` (at 100 TB: blocks-per-core x nodes, set
    explicitly).

    The aggregator actors reserve no CPU. By default Ray 2.49.2 reserves
    a fraction of a CPU per aggregator for the join's whole lifetime, so
    on a 1-CPU cluster (or wherever the reservations leave less than one
    free CPU) the 1-CPU tasks that feed the join are never scheduled and
    the join hangs. Unreserved, the aggregators share the CPUs with the
    tasks that feed them; SPREAD keeps Ray's default placement over
    nodes.

    Empty-block schema race: ray 2.49.2's hash-shuffle loses a side's
    schema broadcast when the first-scheduled block of that side is empty
    (``_shuffle_block`` early-returns before fanning out typed shards),
    and ``pa.Table.join`` then dies with "No match ... for key field
    reference" in aggregators that saw zero rows of it — the r03 driver
    window's one red query. ``compat.install_hash_shuffle_schema_patch``
    (installed at package import) re-arms the broadcast after each
    known-empty block so the first NON-empty block carries it; regression
    test: tests/test_relational_ops.py::test_shuffle_join_empty_leading_blocks.
    A side empty in EVERY block still cannot broadcast (upstream
    limitation) — join output is empty/left-only then anyway."""
    on, right_on = ((c,) if isinstance(c, str) else tuple(c)
                    for c in (on, right_on or on))
    return left.join(right, join_type=join_type,
                     num_partitions=num_partitions or default_partitions(),
                     on=on, right_on=right_on,
                     aggregator_ray_remote_args={
                         "num_cpus": 0, "scheduling_strategy": "SPREAD"})


def grouped_stats(ds: "rd.Dataset", keys: Sequence[str], col: str,
                  alias: str | None = None) -> "rd.Dataset":
    """Per-key count/sum/avg/min/max of ``col``, combiner-style: one
    partial row per key per batch crosses the shuffle, avg derived from
    (sum, count) after the final combine. A null key is one group. Its
    own fold rather than ``grouped_agg``: min and max are not sums."""
    keys = list(keys)
    a = alias or col

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(keys, as_index=False, sort=False,
                             dropna=False).agg(
            __s=(col, "sum"), __n=(col, "size"),
            __mn=(col, "min"), __mx=(col, "max"))

    # shard co-group, not Ray's per-key aggregate: key cardinality is
    # caller-controlled and often unbounded (per-supplier, per-user)
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False, sort=False,
                         dropna=False).agg(
            **{f"sum_{a}": ("__s", "sum")}, n=("__n", "sum"),
            **{f"min_{a}": ("__mn", "min"), f"max_{a}": ("__mx", "max")})

    out = shard_cogroup(ds.map_batches(partial, batch_format="pandas"),
                        keys[0], fold)

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b[f"avg_{a}"] = b[f"sum_{a}"] / b["n"]
        return b

    return out.map_batches(fin, batch_format="pandas")


def grouped_moments(ds: "rd.Dataset", keys: Sequence[str], val_col: str,
                    scale: int = 100) -> "rd.Dataset":
    """Exact per-group raw power sums n, Σc, Σc², Σc³ of the fixed-point
    quantized column (c = ``floor(x·scale + 0.5)``, the gini quantizer)
    — the distributed base of variance / skewness / third-moment
    distribution profiling: every downstream statistic (var numerator
    n·s2 − s1², Fisher m3) derives from these four numbers per group,
    so only they ever cross the wire.

    Exactness contract: Σc³ overflows int64 at a few thousand rows, so
    every power sum is carried as an exact big int (decimal STRING
    across workers — the gini_concentration discipline). The cube term
    is computed without any >63-bit intermediate by limb-splitting
    c² = q·2³¹ + r and folding Σc³ = 2³¹·Σq·c + Σr·c through the
    chunked ``_exact_dot``; this requires c ≤ 2³¹ (≈ $21M at cents) —
    an explicit ValueError says to lower ``scale`` beyond it. Values
    must be non-negative (power-sum profiling of magnitudes; signed
    data needs a shift, which the error message states). Nulls dropped
    by contract. Oracle mirror: HUGEINT SUM(c), SUM(c·c), SUM(c·c·c)
    cast to VARCHAR.

    Shape: pure combiner — one (keys, n, s1, s2, s3) partial per key
    per batch, ONE shard co-group big-int fold; nothing row-sized
    shuffles."""
    keys = list(keys)
    _CAP = 1 << 31

    def _power_sums(c: np.ndarray) -> tuple[int, int, int]:
        ones = np.ones(len(c), np.int64)
        s1 = _exact_dot(c, ones)
        s2 = _exact_dot(c, c)
        c2 = c * c  # c <= 2**31 -> c*c <= 2**62, int64-safe
        q, r = c2 >> 31, c2 & (_CAP - 1)
        s3 = (_exact_dot(q, c) << 31) + _exact_dot(r, c)
        return s1, s2, s3

    def part(b: pd.DataFrame) -> pd.DataFrame:
        f = b[keys + [val_col]].dropna(subset=[val_col])
        base = {**{k: f[k].iloc[:0] for k in keys},
                "__n": pd.Series([], dtype="int64"),
                "__s1": pd.Series([], dtype="object"),
                "__s2": pd.Series([], dtype="object"),
                "__s3": pd.Series([], dtype="object")}
        if not len(f):
            return pd.DataFrame(base)
        v = f[val_col].to_numpy(np.float64)
        c = np.floor(v * scale + 0.5).astype(np.int64)
        if c.min() < 0:
            raise ValueError(
                "grouped_moments: values must be non-negative "
                "(shift signed data before profiling)")
        if c.max() > _CAP:
            raise ValueError(
                "grouped_moments: quantized value exceeds 2**31 — "
                f"lower scale (got max {int(c.max())} at scale {scale})")
        f = f.assign(__c=c).sort_values(keys, kind="stable")
        starts, sizes = _segments(f, keys)
        cc = f["__c"].to_numpy(np.int64)
        rows = {k: f[k].to_numpy()[starts] for k in keys}
        s1s, s2s, s3s = [], [], []
        for st, sz in zip(starts, sizes):
            a, b2, c3 = _power_sums(cc[st:st + sz])
            s1s.append(str(a)); s2s.append(str(b2)); s3s.append(str(c3))
        return pd.DataFrame({**rows,
                             "__n": pd.array(sizes, dtype="int64"),
                             "__s1": s1s, "__s2": s2s, "__s3": s3s})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(keys, as_index=False, sort=False,
                        dropna=False).agg(
            n=("__n", "sum"),
            s1_scaled=("__s1", lambda x: str(sum(int(v) for v in x))),
            s2_scaled=("__s2", lambda x: str(sum(int(v) for v in x))),
            s3_scaled=("__s3", lambda x: str(sum(int(v) for v in x))))
        agg["n"] = agg["n"].astype("int64")
        return agg

    return shard_cogroup(ds.map_batches(part, batch_format="pandas"),
                         keys[0], fold)


def topk_per_group(ds: "rd.Dataset", key: str, order_cols: list[str], k: int,
                   ascending: list[bool] | None = None) -> "rd.Dataset":
    """Top-k rows per key (reference J4's ORDER BY ... LIMIT 1 generalized
    to LIMIT k). ``order_cols`` must end in a unique tie-break column so the
    cut is deterministic."""
    asc = ascending if ascending is not None else [False] * len(order_cols)

    # combiner pre-prune: a global top-k row is a local top-k row in its
    # batch, so at most k rows per (key, batch) cross the shuffle
    def topk(b: pd.DataFrame) -> pd.DataFrame:
        return (b.sort_values(order_cols, ascending=asc)
                 .groupby(key, as_index=False, sort=False).head(k))

    return shard_cogroup(ds.map_batches(topk, batch_format="pandas"), key,
                         topk)


def sessionize(ds: "rd.Dataset", key: str, ts_col: str, gap_s: float,
               tie_col: str, value_col: str) -> "rd.Dataset":
    """Gap-based sessionization: one shuffle on ``key``, then a sorted
    linear scan per group — a new session starts when the gap to the
    previous event exceeds ``gap_s`` seconds. Emits one row per session:
    (key, session_id, session_start, session_end, n_events, sum_value).
    Partitioning assumption: all events of one key fit in a worker (true
    for per-user web logs; salt by time-range for pathological keys)."""
    gap = pd.Timedelta(seconds=gap_s)

    # shard co-group (unbounded per-user keys): the gap scan vectorizes
    # across ALL keys of a shard — per-key diff/cumsum via groupby
    def sess(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tie_col])
        brk = g.groupby(key, sort=False)[ts_col].diff() > gap
        sid = brk.groupby(g[key], sort=False).cumsum().astype("int64")
        return (g.assign(session_id=sid)
                 .groupby([key, "session_id"], as_index=False)
                 .agg(session_start=(ts_col, "min"),
                      session_end=(ts_col, "max"),
                      n_events=(ts_col, "size"),
                      sum_value=(value_col, "sum")))

    return shard_cogroup(ds, key, sess)


def session_assign(ds: "rd.Dataset", key: str, ts_col: str, gap_s: float,
                   tie_col: str) -> "rd.Dataset":
    """Per-EVENT session assignment: every input row comes back with its
    gap-based ``session_id`` (0-based per key; same break rule and
    ordering as ``sessionize``, which returns the per-session summary
    instead). The building block for session-scoped analytics — basket
    pairs, per-session funnels — that need the row stream, not the
    roll-up."""
    gap = pd.Timedelta(seconds=gap_s)

    # shard co-group (unbounded per-user keys), same break rule as
    # sessionize — vectorized per-key diff/cumsum across the shard
    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tie_col])
        brk = g.groupby(key, sort=False)[ts_col].diff() > gap
        return g.assign(session_id=brk.groupby(g[key], sort=False)
                        .cumsum().astype("int64"))

    return shard_cogroup(ds, key, assign)


def _arrow_types(ds: "rd.Dataset", cols: list[str]) -> dict[str, pa.DataType]:
    """Arrow type of each of ``cols`` in ``ds``'s schema; a pandas-block
    schema maps numpy dtypes (object -> string). The two-sided co-groups
    pin their typed-null payload columns with it."""
    s = ds.schema().base_schema
    if isinstance(s, pa.Schema):
        return {c: s.field(c).type for c in cols}
    out = {}
    for name, dt in zip(s.names, s.types):
        if name in cols:
            try:
                out[name] = pa.from_numpy_dtype(dt)
            except (pa.ArrowNotImplementedError, TypeError):
                out[name] = pa.string()
    return out


def asof_join(left: "rd.Dataset", right: "rd.Dataset", left_key: str,
              right_key: str, left_ts: str, right_ts: str,
              left_cols: list[str], right_cols: list[str],
              direction: str = "backward") -> "rd.Dataset":
    """As-of join: each left row picks the nearest right row for the same
    key — ``backward``: greatest ``right_ts`` <= ``left_ts``; ``forward``:
    smallest ``right_ts`` >= ``left_ts`` (inner: unmatched left rows drop).
    Implemented as aligned-schema union + ONE ``shard_cogroup`` over
    COARSE key-hash shards (``default_partitions()`` groups instead of
    one Ray group per key — per-key map_groups overhead dominated at
    high key cardinality) + a
    vectorized ``pd.merge_asof(by=key)`` inside each shard — the standard
    composition when the engine has no as-of primitive. Right-side ties on
    (key, ts) resolve to the row last (backward) / first (forward) in
    ``right_cols[0]`` order, so make that a unique id for determinism."""
    if direction not in ("backward", "forward"):
        raise ValueError(f"unknown direction: {direction}")
    all_payload = left_cols + right_cols

    types = {**_arrow_types(left, left_cols), **_arrow_types(right, right_cols)}

    def align(cols_present: list[str], key: str, ts: str, side: int):
        # typed nulls for the other side's payload so the union's Arrow
        # schemas agree block-for-block
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols: dict[str, pa.Array | pa.ChunkedArray] = {
                "__key": t[key],
                "__ts": t[ts],
                "__side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in all_payload:
                cols[c] = t[c] if c in cols_present else pa.nulls(n, types[c])
            return pa.table(cols)
        return fn

    l = left.map_batches(align(left_cols, left_key, left_ts, 0),
                         batch_format="pyarrow")
    r = right.map_batches(align(right_cols, right_key, right_ts, 1),
                          batch_format="pyarrow")

    # pin per-group output dtypes (a group's pandas view turns nullable
    # int64 payload into float64; cast back so every group block agrees)
    kt = _arrow_types(left, [left_key, left_ts])
    out_dtypes = {"__key": kt[left_key].to_pandas_dtype(),
                  "__ts": kt[left_ts].to_pandas_dtype(),
                  **{c: t.to_pandas_dtype() for c, t in types.items()}}
    out_cols = ["__key", "__ts", *left_cols, *right_cols]

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # one coarse shard: many keys co-located; pd.merge_asof(by=__key)
        # resolves every key's matches in one vectorized C pass. Tie rule:
        # right pre-sorted by (__ts, right_cols[0]) stable, and merge_asof
        # picks the LAST valid right row (backward) / FIRST (forward)
        # among equal timestamps — exactly the documented contract.
        empty = pd.DataFrame(
            {c: pd.Series(dtype=out_dtypes[c]) for c in out_cols})
        lf = g[g["__side"] == 0]
        rf = g[g["__side"] == 1]
        if lf.empty or rf.empty:
            return empty
        lf = (lf[["__key", "__ts", *left_cols]]
              .sort_values("__ts", kind="stable"))
        rf = (rf[["__key", "__ts", *right_cols]]
              .sort_values(["__ts", right_cols[0]], kind="stable")
              .rename(columns={"__ts": "__rts"}))
        out = pd.merge_asof(lf, rf, left_on="__ts", right_on="__rts",
                            by="__key", direction=direction)
        out = out[out[right_cols[0]].notna()]
        if out.empty:
            return empty
        return out[out_cols].astype(out_dtypes)

    return shard_cogroup(l.union(r), "__key", merge)


def asof_join_broadcast(left: "rd.Dataset", right: pd.DataFrame,
                        left_key: str, right_key: str,
                        left_ts: str, right_ts: str,
                        right_cols: list[str],
                        direction: str = "backward") -> "rd.Dataset":
    """As-of join with a broadcast right side: when the right table is
    dimension-sized (fits the object store), pre-sort it per key ONCE on
    the driver, ``ray.put`` the per-key arrays, and every left batch sorts
    by key once and resolves each distinct key's run with ONE vectorized
    ``searchsorted`` — NO shuffle of either side (the streaming analogue
    of `broadcast_join`) and no per-row Python in the probe. Tie rule
    matches ``asof_join``: last (backward) / first (forward) in
    ``right_cols[0]`` order within equal timestamps. Unmatched left rows
    drop (inner). Use the shuffle ``asof_join`` when the right side is
    fact-sized."""
    if direction not in ("backward", "forward"):
        raise ValueError(f"unknown direction: {direction}")
    # columnar broadcast payload: sorted flat arrays + per-key segment
    # bounds. A {key: per-key-arrays} dict was measured ~3.5 s to build +
    # (de)serialize at 15k keys; plain numpy arrays build vectorized and
    # ship zero-copy through the object store.
    rs = right.sort_values([right_key, right_ts, right_cols[0]])
    rkeys = rs[right_key].to_numpy()
    uk, key_start = np.unique(rkeys, return_index=True)
    bounds = np.r_[key_start, len(rkeys)]
    ref = ray.put((uk, bounds, rs[right_ts].to_numpy(),
                   {c: rs[c].to_numpy() for c in right_cols}))

    def probe(b: pd.DataFrame) -> pd.DataFrame:
        # vectorized: sort the batch by key once, then resolve each
        # DISTINCT key's whole run with a single array searchsorted against
        # that key's sorted right-side timestamps — no per-row Python work
        r_uk, r_bounds, r_ts_all, r_cols = ray.get(ref)
        keys = b[left_key].to_numpy()
        tss = b[left_ts].to_numpy()
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        ts_sorted = tss[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        ends = np.r_[starts[1:], len(ks)]

        kept_segments: list[np.ndarray] = []   # positions into `order`
        seg_vals: dict[str, list[np.ndarray]] = {c: [] for c in right_cols}
        for s, e in zip(starts, ends):
            ki = int(np.searchsorted(r_uk, ks[s]))
            if ki >= len(r_uk) or r_uk[ki] != ks[s]:
                continue
            lo, hi = int(r_bounds[ki]), int(r_bounds[ki + 1])
            r_ts = r_ts_all[lo:hi]
            seg_ts = ts_sorted[s:e]
            if direction == "backward":
                j = np.searchsorted(r_ts, seg_ts, side="right") - 1
                ok = j >= 0
            else:
                j = np.searchsorted(r_ts, seg_ts, side="left")
                ok = j < len(r_ts)
            if not ok.any():
                continue
            jj = j[ok] + lo
            kept_segments.append(np.arange(s, e)[ok])
            for c in right_cols:
                seg_vals[c].append(r_cols[c][jj])

        if not kept_segments:
            out = b.iloc[:0].copy()
            for c in right_cols:
                out[c] = pd.Series(dtype=object)
            return out
        kept_sorted = np.concatenate(kept_segments)
        kept_orig = order[kept_sorted]
        perm = np.argsort(kept_orig, kind="stable")  # restore batch order
        out = b.iloc[kept_orig[perm]].reset_index(drop=True)
        for c in right_cols:
            out[c] = np.concatenate(seg_vals[c])[perm]
        return out

    return left.map_batches(probe, batch_format="pandas")


def running_sum(ds: "rd.Dataset", key: str, order_cols: list[str],
                val_col: str, alias: str = "running_total") -> "rd.Dataset":
    """Per-key running (cumulative) sum in ``order_cols`` order — the
    ``SUM() OVER (PARTITION BY key ORDER BY ... ROWS UNBOUNDED PRECEDING)``
    window function as one hash shuffle + a sorted per-group scan.
    ``order_cols`` must end in a unique tie-break for determinism."""
    # shard co-group (unbounded per-key cardinality): the cumulative
    # scan vectorizes across all keys of a shard via groupby.cumsum
    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, *order_cols])
        g[alias] = g.groupby(key, sort=False)[val_col].cumsum()
        return g

    return shard_cogroup(ds, key, scan)


def lag_delta(ds: "rd.Dataset", key: str, order_cols: list[str],
              val_col: str, alias: str = "delta",
              forward: bool = False) -> "rd.Dataset":
    """Per-key difference to the previous row in ``order_cols`` order — the
    ``val - lag(val) OVER (PARTITION BY key ORDER BY ...)`` window function;
    the first row of each key gets NULL. ``forward=True`` flips it to the
    LEAD form (``lead(val) - val``; the LAST row of each key gets NULL)."""
    # shard co-group (unbounded per-key cardinality): per-key lag/lead
    # vectorizes across the shard via groupby.diff
    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, *order_cols])
        d = g.groupby(key, sort=False)[val_col]
        g[alias] = (-d.diff(-1)) if forward else d.diff()
        return g

    return shard_cogroup(ds, key, scan)


def watermark_late_events(ds: "rd.Dataset", ts_col: str = "ts",
                          id_col: str = "event_id",
                          delay_us: int = 7 * 86_400 * 1_000_000,
                          n_buckets: int = 1024) -> "rd.Dataset":
    """Streaming late-data gate under a global high watermark — the
    Flink/Beam ``allowed lateness`` primitive over a batch table: each
    row's watermark is the running max event time over all rows that
    *arrived* before it (inclusive) minus ``delay_us``; a row is late
    iff its own event time has already fallen behind that watermark.

    Arrival order is the engine-independent md5 shuffle of the id
    (first 32 md5 bits, then id — ``deterministic_sample``'s contract),
    a stand-in for network arrival on a table that carries no arrival
    column; real deployments pass the ingest sequence instead.

    Scale shape — a distributed global prefix-max with NO global sort:
    arrival hashes are uniform on [0, 2^32), so fixed-width hash ranges
    are ordered buckets. Pass 1: per-batch per-bucket partial max →
    one bounded (≤ ``n_buckets`` rows) grouped aggregate → the driver
    takes the EXCLUSIVE prefix-max over bucket order (an O(n_buckets)
    scan) and broadcasts it once (~8 KB). Pass 2: one shard co-group by
    bucket — sort by arrival order within the bucket, vectorized
    cummax, max with the broadcast prefix. Nothing driver-side grows
    with rows; size ``n_buckets`` so one bucket fits a worker
    (rows / n_buckets ≈ a block).

    Output: (id, high_watermark_us, late∈{0,1}) for EVERY input row —
    the caller filters ``late == 0`` to keep the on-time stream."""
    import hashlib

    width = (1 << 32) // n_buckets

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        # md5 stays a per-row loop on purpose — the oracle contract is
        # DuckDB's md5() (see deterministic_sample)
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[:4],
                            "big") for i in b[id_col]),
            dtype=np.int64, count=len(b))
        out = pd.DataFrame({
            id_col: b[id_col].to_numpy(),
            "__h": h,
            "__bkt": h // width,
            "__tus": b[ts_col].astype("datetime64[us]").astype(np.int64),
        })
        return out

    tagged = ds.map_batches(tag, batch_format="pandas")

    def bucket_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("__bkt", dropna=False)["__tus"].max()
        return pd.DataFrame({"__bkt": g.index.to_numpy(),
                             "__pm": g.to_numpy()})

    # partials are O(n_buckets x blocks) rows by construction — the
    # driver fold never sees raw rows (grouped_agg is Sum-only, this
    # needs max)
    bmax = (tagged.map_batches(bucket_partial, batch_format="pandas")
                  .to_pandas())
    # exclusive prefix-max over bucket order; empty buckets inherit
    prefix = np.full(n_buckets, np.iinfo(np.int64).min, dtype=np.int64)
    np.maximum.at(prefix, bmax["__bkt"].to_numpy(np.int64),
                  bmax["__pm"].to_numpy(np.int64))
    excl = np.empty(n_buckets, dtype=np.int64)
    excl[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(prefix[:-1], out=excl[1:])
    excl_ref = ray.put(excl)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        pre = ray.get(excl_ref)
        g = g.sort_values(["__bkt", "__h", id_col])
        cm = g.groupby("__bkt", sort=False)["__tus"].cummax() \
              .to_numpy(np.int64)
        hw = np.maximum(cm, pre[g["__bkt"].to_numpy(np.int64)])
        tus = g["__tus"].to_numpy(np.int64)
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "high_watermark_us": hw,
            "late": (tus < hw - delay_us).astype(np.int64),
        })

    return shard_cogroup(tagged, "__bkt", fold)


def global_row_number(ds: "rd.Dataset", val_col: str, tie_col: str,
                      alias: str = "row_num",
                      n_buckets: int = 1024) -> "rd.Dataset":
    """Global 1-based rank of every row in ``(val_col, tie_col)`` order
    — ``row_number() OVER (ORDER BY val, tie)`` — WITHOUT a global
    sort: the enumeration step that gives a corpus contiguous,
    index-addressable sample ids (memory-mapped training datasets,
    pagination cursors, rank features).

    Same range-bucket prefix scheme as ``watermark_late_events``, with
    sum in place of max: one cheap min/max aggregate fixes the value
    domain, fixed-width value ranges are ordered buckets, a bounded
    per-bucket count pass feeds an O(n_buckets) driver exclusive
    prefix-SUM broadcast once, and one shard co-group sorts each bucket
    locally (cumcount + offset). Equal values always share a bucket, so
    the tie-break stays local. ``tie_col`` must be unique.

    Skew note: bucket width is uniform in VALUE space — a heavily
    repeated value concentrates its rows in one bucket, which must then
    fit a worker (the same holistic limit as grouped_quantile). Output:
    (tie_col, val_col, alias)."""

    lo = ds.min(val_col)
    hi = ds.max(val_col)
    # empty input (or no non-null values): degenerate single bucket so
    # the pipeline still yields a well-formed (possibly empty) output
    span = 0.0 if lo is None or hi is None else float(hi) - float(lo)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        v = b[val_col].to_numpy()
        if span > 0:
            bkt = np.minimum(
                ((v.astype(np.float64) - float(lo)) / span
                 * n_buckets).astype(np.int64), n_buckets - 1)
        else:
            bkt = np.zeros(len(b), dtype=np.int64)
        return pd.DataFrame({tie_col: b[tie_col].to_numpy(), val_col: v,
                             "__bkt": bkt})

    tagged = ds.map_batches(tag, batch_format="pandas")

    def bucket_counts(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("__bkt", dropna=False).size()
        return pd.DataFrame({"__bkt": g.index.to_numpy(),
                             "__pn": g.to_numpy()})

    # bounded partials (O(n_buckets x blocks) rows) -> driver fold
    parts = (tagged.map_batches(bucket_counts, batch_format="pandas")
                   .to_pandas())
    counts = np.zeros(n_buckets, dtype=np.int64)
    if "__bkt" in parts.columns:  # empty input -> column-less frame
        np.add.at(counts, parts["__bkt"].to_numpy(np.int64),
                  parts["__pn"].to_numpy(np.int64))
    excl = np.zeros(n_buckets, dtype=np.int64)
    np.cumsum(counts[:-1], out=excl[1:])
    excl_ref = ray.put(excl)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        pre = ray.get(excl_ref)
        g = g.sort_values(["__bkt", val_col, tie_col])
        within = g.groupby("__bkt", sort=False).cumcount().to_numpy()
        g[alias] = pre[g["__bkt"].to_numpy(np.int64)] + within + 1
        return g.drop(columns="__bkt")

    return shard_cogroup(tagged, "__bkt", fold)


def grouped_quantile(ds: "rd.Dataset", keys: Sequence[str], col: str,
                     q: float, alias: str | None = None,
                     method: str = "linear") -> "rd.Dataset":
    """Exact per-group quantile via one hash shuffle + per-group kernel.
    ``method="linear"`` = SQL ``quantile_cont`` interpolation;
    ``method="inverted_cdf"`` = SQL ``quantile_disc`` (an actual element
    of the group — verified equal to DuckDB's quantile_disc). Exact
    quantiles are inherently holistic — the group's values must
    co-locate; for sketch-based approximation at extreme cardinality use a
    t-digest per partition instead (not needed for the reference's scale)."""
    keys = list(keys)
    a = alias or f"q_{col}"

    # shard co-group + fully vectorized per-key order statistic: one
    # sort of the shard, then rank-position interpolation across ALL
    # keys at once (a per-group np.quantile loop costs ~50 us x
    # distinct keys — 22 s at 400k keys; this fold is ~1 s)
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*keys, col], na_position="last")
        v = g[col].to_numpy(np.float64)
        starts, sizes = _segments(g, keys)
        out = g.iloc[starts][keys].reset_index(drop=True)
        out[a] = _segment_quantiles(v, starts, sizes, q, method)
        bad = _nan_segments(v, starts)
        if bad.any():
            out.loc[bad, a] = np.nan
        return out

    return shard_cogroup(ds, keys[0], fold)


def grouped_mad(ds: "rd.Dataset", keys: Sequence[str], col: str,
                alias: str = "mad") -> "rd.Dataset":
    """Median absolute deviation per group — the robust dispersion
    aggregate (``median(abs(x - median(x)))``, DuckDB ``mad()``
    semantics with interpolated medians). Holistic like the exact
    quantile: one coarse-shard co-group co-locates each group. The fold
    is fully vectorized — two sorted passes (per-key median, then
    per-key median of deviations) across all keys of a shard."""
    keys = list(keys)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*keys, col], na_position="last")
        v = g[col].to_numpy(np.float64)
        starts, sizes = _segments(g, keys)
        med = _segment_quantiles(v, starts, sizes, 0.5, "linear")
        dev = np.abs(v - np.repeat(med, sizes))
        # re-sort the deviations within each segment
        seg = np.repeat(np.arange(len(sizes)), sizes)
        dev = dev[np.lexsort((dev, seg))]
        out = g.iloc[starts][keys].reset_index(drop=True)
        out[alias] = _segment_quantiles(dev, starts, sizes, 0.5, "linear")
        bad = _nan_segments(v, starts)
        if bad.any():
            out.loc[bad, alias] = np.nan
        return out

    return shard_cogroup(ds, keys[0], fold)


def histogram(ds: "rd.Dataset", col: str, lo: float, hi: float,
              n_bins: int) -> "rd.Dataset":
    """Fixed-width histogram: derive the bucket id per batch (vectorized),
    then a combiner-grouped count — only (bucket, partial_count) rows cross
    the shuffle. Values outside [lo, hi) clamp into the edge buckets."""
    width = (hi - lo) / n_bins

    def bucketize(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        ids = np.floor((v - lo) / width).astype("int64")
        return pa.table({"bucket": pa.array(np.clip(ids, 0, n_bins - 1))})

    return grouped_agg(ds.map_batches(bucketize, batch_format="pyarrow"),
                       ["bucket"], {}, count_alias="n")


def histogram2d(ds: "rd.Dataset", xcol: str, xlo: float, xhi: float,
                xbins: int, ycol: str, ylo: float, yhi: float,
                ybins: int) -> "rd.Dataset":
    """Fixed-grid 2D histogram (the heatmap / joint-distribution bin
    counts): both bucket ids derive vectorized per batch, then one
    combiner-grouped count over the bounded (xbin, ybin) key space —
    only (cell, partial_count) rows cross the wire, the same shape as
    the 1D ``histogram``. Edge clamping on both axes; only non-empty
    cells emit rows (sparse contract)."""
    xw = (xhi - xlo) / xbins
    yw = (yhi - ylo) / ybins

    def bucketize(t: pa.Table) -> pa.Table:
        x = t[xcol].to_numpy(zero_copy_only=False)
        y = t[ycol].to_numpy(zero_copy_only=False)
        bx = np.clip(np.floor((x - xlo) / xw).astype("int64"), 0, xbins - 1)
        by = np.clip(np.floor((y - ylo) / yw).astype("int64"), 0, ybins - 1)
        return pa.table({"xbin": pa.array(bx), "ybin": pa.array(by)})

    return grouped_agg(ds.map_batches(bucketize, batch_format="pyarrow"),
                       ["xbin", "ybin"], {}, count_alias="n")


def distinct(ds: "rd.Dataset", cols: Sequence[str]) -> "rd.Dataset":
    """DISTINCT over ``cols``: a ``grouped_agg`` with no sums and no
    count — only locally-unique rows cross the shuffle."""
    cols = list(cols)
    return grouped_agg(ds.select_columns(cols), cols, {}, count_alias=None)


def grouped_count_distinct(ds: "rd.Dataset", keys: Sequence[str], col: str,
                           alias: str = "n_distinct") -> "rd.Dataset":
    """COUNT(DISTINCT col) per key, exact, as two combiner passes: first
    ``distinct`` over (keys, col), then a grouped sum of the uniques'
    non-null flags — a NULL ``col`` is not a value (SQL), but a group
    whose values are all NULL stays, with 0. For extreme cardinality use
    ``sketch.approx_count_distinct`` instead."""
    keys = list(keys)

    def flag(t: pa.Table) -> pa.Table:
        return t.select(keys).append_column(
            "__nn", t[col].is_valid().cast(pa.int64()))

    uniq = distinct(ds, keys + [col]).map_batches(flag,
                                                  batch_format="pyarrow")
    return grouped_agg(uniq, keys, {"__nn": alias}, count_alias=None)


def broadcast_semi_join(ds: "rd.Dataset", keys: set, on: str) -> "rd.Dataset":
    """Semi-join (SQL IN / EXISTS) against a broadcast key set: keep rows
    whose ``on`` value IS in ``keys``. Mirror of ``broadcast_anti_join`` —
    ``ray.put`` once, vectorized ``isin`` per batch, no shuffle."""
    ref = ray.put(keys)

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        k = ray.get(ref)
        return b[b[on].isin(k)]

    return ds.map_batches(filt, batch_format="pandas")


def set_op(a: "rd.Dataset", b: "rd.Dataset", cols: Sequence[str],
           op: str) -> "rd.Dataset":
    """Distinct set operations (SQL INTERSECT / EXCEPT) over a projection:
    tag each side with a presence flag, union, then ONE ``grouped_agg``
    sum of the flags decides membership (``> 0``) — no join. A NULL row
    is one group, so it matches a NULL row of the other side, as in
    SQL."""
    if op not in ("intersect", "except"):
        raise ValueError(f"unknown set op: {op}")
    cols = list(cols)

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            out = pa.table({c: t[c] for c in cols})
            out = out.append_column(
                "__a", pa.array(np.full(n, 1 if side == "a" else 0, np.int64)))
            return out.append_column(
                "__b", pa.array(np.full(n, 1 if side == "b" else 0, np.int64)))
        return fn

    u = (a.select_columns(cols).map_batches(tag("a"), batch_format="pyarrow")
         .union(b.select_columns(cols).map_batches(tag("b"),
                                                   batch_format="pyarrow")))
    agg = grouped_agg(u, cols, {"__a": "__in_a", "__b": "__in_b"},
                      count_alias=None)
    keep = ("__in_a > 0 and __in_b > 0" if op == "intersect"
            else "__in_a > 0 and __in_b == 0")
    return agg.filter(expr=keep).select_columns(cols)


def pivot_sum(ds: "rd.Dataset", index: Sequence[str], pivot_col: str,
              value_col: str, values: Sequence[str],
              prefix: str = "sum_") -> "rd.Dataset":
    """PIVOT: one output column ``{prefix}{v}`` per pivot value, summing
    ``value_col`` (the SUM(CASE WHEN pivot=v THEN val ELSE 0 END) family).
    The pivot columns are derived vectorized per batch, so the shuffle is a
    plain combiner ``grouped_agg`` on ``index`` — values outside ``values``
    contribute nothing."""
    index = list(index)
    values = list(values)

    def derive(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        v = pc.cast(t[value_col], pa.float64())
        zero = pa.scalar(0.0, pa.float64())
        cols: dict = {c: t[c] for c in index}
        for name in values:
            cols[f"{prefix}{name}"] = pc.if_else(
                pc.equal(t[pivot_col], name), v, zero)
        return pa.table(cols)

    return grouped_agg(ds.map_batches(derive, batch_format="pyarrow"), index,
                       {f"{prefix}{v}": f"{prefix}{v}" for v in values},
                       count_alias=None)


def range_join_broadcast(ds: "rd.Dataset", bands: pd.DataFrame, col: str,
                         lo_col: str = "lo", hi_col: str = "hi") -> "rd.Dataset":
    """Range (interval) join against a small broadcast band table: each row
    joins the band with ``lo <= col < hi``. Bands must be non-overlapping;
    the per-batch probe is a vectorized ``searchsorted`` over the sorted
    ``lo`` bounds, O(rows·log bands), no shuffle. Rows outside every band
    drop (inner semantics). This is the broadcast form of the reference-less
    range join; a large-large range join would bucketize ``col`` and
    shuffle-join on the bucket id."""
    bands = bands.sort_values(lo_col).reset_index(drop=True)
    los = bands[lo_col].to_numpy(dtype=np.float64)
    his = bands[hi_col].to_numpy(dtype=np.float64)
    if (los[1:] < his[:-1]).any():
        raise ValueError("bands overlap")
    ref = ray.put(bands)

    def probe(b: pd.DataFrame) -> pd.DataFrame:
        bd = ray.get(ref)
        x = b[col].to_numpy(dtype=np.float64)
        idx = np.searchsorted(los, x, side="right") - 1
        ok = (idx >= 0) & (x < his[np.clip(idx, 0, len(his) - 1)])
        out = b[ok].reset_index(drop=True)
        picked = bd.iloc[idx[ok]].reset_index(drop=True)
        for c in bd.columns:
            if c not in (lo_col, hi_col):
                out[c] = picked[c]
        return out

    return ds.map_batches(probe, batch_format="pandas")


def _moment_sums(ds: "rd.Dataset", keys: list[str],
                 moments: dict[str, tuple[str, ...]],
                 count_alias: str) -> "rd.Dataset":
    """``grouped_agg`` of per-row moment columns: each ``moments`` alias
    is the float64 product of its columns (one column: the value
    itself). A row with a null in any of them drops, as SQL's ``corr``,
    ``regr_*`` and ``stddev`` skip it."""
    import pyarrow.compute as pc

    used = sorted({c for cs in moments.values() for c in cs})

    def derive(t: pa.Table) -> pa.Table:
        ok = pc.is_valid(t[used[0]])
        for c in used[1:]:
            ok = pc.and_(ok, pc.is_valid(t[c]))
        t = t.filter(ok)
        f = {c: pc.cast(t[c], pa.float64()) for c in used}
        cols = {k: t[k] for k in keys}
        for a, cs in moments.items():
            cols[a] = f[cs[0]]
            for c in cs[1:]:
                cols[a] = pc.multiply(cols[a], f[c])
        return pa.table(cols)

    return grouped_agg(ds.map_batches(derive, batch_format="pyarrow"), keys,
                       {a: a for a in moments}, count_alias=count_alias)


def grouped_corr(ds: "rd.Dataset", keys: Sequence[str], x: str, y: str,
                 alias: str = "corr") -> "rd.Dataset":
    """Pearson correlation per key via moment sums: the (Σx, Σy, Σx²,
    Σy², Σxy) columns derive per batch and one ``grouped_agg`` sums them
    with the row count, final formula on the per-key result. Sample vs
    population denominators cancel in the ratio, so this matches SQL
    ``corr`` exactly up to float association order."""
    keys = list(keys)
    agg = _moment_sums(ds, keys, {"__sx": (x,), "__sy": (y,),
                                  "__sxx": (x, x), "__syy": (y, y),
                                  "__sxy": (x, y)}, "__n")

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        n = b["__n"]
        cov = b["__sxy"] - b["__sx"] * b["__sy"] / n
        vx = b["__sxx"] - b["__sx"] ** 2 / n
        vy = b["__syy"] - b["__sy"] ** 2 / n
        out = b[keys].copy()
        out[alias] = cov / np.sqrt(vx * vy)
        return out

    return agg.map_batches(fin, batch_format="pandas")


def grouped_multi_quantile(ds: "rd.Dataset", keys: Sequence[str], col: str,
                           qs: dict[str, float]) -> "rd.Dataset":
    """Several exact quantiles per key in one pass (``quantile_cont``
    linear interpolation); same holistic one-shuffle shape as
    ``grouped_quantile``. ``qs`` maps output alias -> quantile."""
    keys = list(keys)

    # vectorized per-key order statistics: one sort per shard, every
    # requested quantile interpolated across all keys at once
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*keys, col], na_position="last")
        v = g[col].to_numpy(np.float64)
        starts, sizes = _segments(g, keys)
        out = g.iloc[starts][keys].reset_index(drop=True)
        bad = _nan_segments(v, starts)
        for a, q in qs.items():
            out[a] = _segment_quantiles(v, starts, sizes, q, "linear")
            if bad.any():
                out.loc[bad, a] = np.nan
        return out

    return shard_cogroup(ds, keys[0], fold)


def ntile(ds: "rd.Dataset", key: str, order_cols: list[str], n: int,
          alias: str = "tile") -> "rd.Dataset":
    """NTILE(n) OVER (PARTITION BY key ORDER BY order_cols): SQL tile
    semantics — as-equal-as-possible buckets, the first ``count % n``
    buckets one row larger. Coarse-shard co-group (unbounded per-key
    cardinality); the tile assignment vectorizes across ALL keys of a
    shard from per-key rank and count. ``order_cols`` must end in a
    unique tie-break for determinism."""
    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, *order_cols])
        grp = g.groupby(key, sort=False)
        r = grp.cumcount().to_numpy()
        c = grp[key].transform("size").to_numpy()
        base, rem = c // n, c % n
        cut = rem * (base + 1)
        # first `rem` tiles get base+1 rows, the rest `base`; base==0
        # (fewer rows than tiles) keeps r < cut so the divisor is safe
        g[alias] = np.where(r < cut, r // (base + 1),
                            rem + (r - cut) // np.maximum(base, 1)) + 1
        return g

    return shard_cogroup(ds, key, scan)


def deterministic_sample(ds: "rd.Dataset", key_col: str,
                         frac: float) -> "rd.Dataset":
    """Deterministic, engine-independent sampling: keep a row iff the
    first 32 bits of ``md5(str(key))`` fall below ``frac``·2³². Unlike
    ``random_sample`` this is reproducible across runs/engines and stable
    under repartitioning (SQL-matchable), and the same key always lands on
    the same side — usable for consistent train/test splits."""
    cut = int(frac * (1 << 32))
    import hashlib
    # md5 stays a per-key loop on purpose: the oracle contract is DuckDB's
    # md5() and no vectorized md5 kernel exists in numpy/pyarrow/polars —
    # swapping to the fast non-cryptographic hash bank would break the
    # engine-independence property this operator exists for

    def filt(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_pylist()
        keep = np.fromiter(
            (int.from_bytes(hashlib.md5(str(k).encode()).digest()[:4],
                            "big") < cut for k in keys),
            dtype=bool, count=len(keys))
        return t.filter(pa.array(keep))

    return ds.map_batches(filt, batch_format="pyarrow")


def weighted_bernoulli_sample(ds: "rd.Dataset", key_col: str,
                              weight_col: str, base_frac_u32: int,
                              weight_cap: int) -> "rd.Dataset":
    """Deterministic weighted (importance) sampling: keep a row iff

        md5_bucket(key) * weight_cap < base_frac_u32 * min(weight, cap)

    i.e. inclusion probability = (base_frac_u32 / 2³²) * min(w, cap)/cap —
    proportional to the row's weight (a crawl-curation primitive: sample
    long / high-quality documents at a higher rate). ENTIRELY integer
    arithmetic on both sides of the oracle contract — no float threshold
    exists to drift by an ulp between engines — and the same
    engine-independence/md5 contract as ``deterministic_sample`` (same
    key + weight always decides the same way, stable under
    repartitioning). Embarrassingly parallel, no shuffle."""
    import hashlib
    cap = np.uint64(weight_cap)
    frac = np.uint64(base_frac_u32)

    def filt(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_pylist()
        buckets = np.fromiter(
            (int.from_bytes(hashlib.md5(str(k).encode()).digest()[:4],
                            "big") for k in keys),
            dtype=np.uint64, count=len(keys))
        w = np.minimum(t[weight_col].to_numpy(zero_copy_only=False)
                        .astype(np.uint64), cap)
        return t.filter(pa.array(buckets * cap < frac * w))

    return ds.map_batches(filt, batch_format="pyarrow")


# 0.8·2³² and 0.9·2³² (floored): the default 80/10/10 split boundaries,
# written as exact integers so the SQL oracle can state the same cuts
SPLIT_CUTS_80_10_10 = (3435973836, 3865470566)


def hash_split(ds: "rd.Dataset", key_col: str,
               cuts: Sequence[int] = SPLIT_CUTS_80_10_10,
               names: Sequence[str] = ("train", "val", "test"),
               split_col: str = "split") -> "rd.Dataset":
    """Deterministic train/val/test assignment: bucket = first 32 bits of
    ``md5(str(key))``, split = the first cut the bucket falls under. Same
    engine-independence contract as ``deterministic_sample`` (md5 on
    purpose — see the note there): reproducible across engines, stable
    under repartitioning, and the same key always lands in the same
    split, so a document can never leak from train into test between
    runs. Embarrassingly parallel — no shuffle; the downstream consumer
    filters on ``split_col`` or groups by it."""
    if len(names) != len(cuts) + 1:
        raise ValueError("need exactly one more name than cut")
    import hashlib

    cut_arr = np.asarray(cuts, dtype=np.uint64)

    def assign(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_pylist()
        buckets = np.fromiter(
            (int.from_bytes(hashlib.md5(str(k).encode()).digest()[:4],
                            "big") for k in keys),
            dtype=np.uint64, count=len(keys))
        idx = np.searchsorted(cut_arr, buckets, side="right")
        lab = np.asarray(list(names), dtype=object)[idx]
        return t.append_column(split_col, pa.array(lab, pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def rollup_agg(ds: "rd.Dataset", keys: Sequence[str],
               sum_cols: dict[str, str],
               count_alias: str = "n") -> "rd.Dataset":
    """GROUP BY ROLLUP(keys): aggregates at every key-prefix level (finest,
    each coarser prefix, grand total), NULL-filling the rolled-up key
    columns — ``grouping_sets_agg`` over the prefixes, longest first, so
    the raw data is read and shuffled exactly once. Keys must be
    string-typed so the NULL fill is type-stable across levels."""
    keys = list(keys)
    return grouping_sets_agg(ds, keys,
                             [keys[:k] for k in range(len(keys), -1, -1)],
                             sum_cols, count_alias=count_alias)


def cube_agg(ds: "rd.Dataset", keys: Sequence[str],
             sum_cols: dict[str, str], count_alias: str = "n") -> "rd.Dataset":
    """GROUP BY CUBE(keys): aggregates at EVERY subset of the key set
    (2^k levels), NULL-filling the cubed-away columns —
    ``grouping_sets_agg`` over all subsets, largest first. Keys must be
    string-typed for a type-stable NULL fill."""
    from itertools import combinations

    keys = list(keys)
    return grouping_sets_agg(
        ds, keys,
        [sub for r in range(len(keys), -1, -1)
         for sub in combinations(keys, r)],
        sum_cols, count_alias=count_alias)


def grouping_sets_agg(ds: "rd.Dataset", keys: Sequence[str],
                      sets: Sequence[Sequence[str]],
                      sum_cols: dict[str, str],
                      count_alias: str = "n") -> "rd.Dataset":
    """GROUP BY GROUPING SETS(...): one aggregate level per listed key
    subset, NULL-filling the grouped-away columns — the general form of
    which ``rollup_agg`` (prefixes) and ``cube_agg`` (all subsets) are
    special cases. Same one-shuffle shape rule: the raw data is read and
    shuffled exactly once, at the UNION of the requested sets; every
    listed set then re-aggregates that (already tiny) result. Keys must
    be string-typed for a type-stable NULL fill. Duplicate sets emit
    duplicate levels, matching SQL semantics."""
    keys = list(keys)
    norm = [tuple(k for k in keys if k in set(s)) for s in sets]
    for s, ns in zip(sets, norm):
        if len(ns) != len(set(s)):
            raise ValueError(f"grouping set {s} has keys outside {keys}")
    union_cols = [k for k in keys if any(k in s for s in norm)]
    finest = grouped_agg(ds, union_cols, sum_cols,
                         count_alias=count_alias)
    vals = [*sum_cols.values(), count_alias]

    levels = []
    for sub in norm:
        if tuple(union_cols) == sub:
            def fill_f(b: pd.DataFrame) -> pd.DataFrame:
                for c in keys:
                    if c not in union_cols:
                        b[c] = None
                return b[keys + vals]
            levels.append(finest.map_batches(fill_f,
                                             batch_format="pandas"))
        elif not sub:
            def total_partial(b: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame({v: [b[v].sum()] for v in vals})

            def total_final(b: pd.DataFrame) -> pd.DataFrame:
                out = pd.DataFrame({v: [b[v].sum()] for v in vals})
                for c in keys:
                    out[c] = None
                return out[keys + vals]

            levels.append(
                finest.map_batches(total_partial, batch_format="pandas")
                      .repartition(1)
                      .map_batches(total_final, batch_format="pandas"))
        else:
            lvl = grouped_agg(finest, list(sub), {v: v for v in vals},
                              count_alias="__lvl")

            def fill(b: pd.DataFrame, _sub=sub) -> pd.DataFrame:
                b = b.drop(columns=["__lvl"])
                for c in keys:
                    if c not in _sub:
                        b[c] = None
                return b[keys + vals]

            levels.append(lvl.map_batches(fill, batch_format="pandas"))
    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out


def validate_rules(ds: "rd.Dataset",
                   rules: Sequence[dict]) -> pd.DataFrame:
    """Deequ/dbt-test-style distributed data-quality validation: each
    rule counts its violating rows; the report is one row per rule —
    the contract gate a pipeline runs before publishing a table.

    Rule forms: ``{"rule": "not_null", "col": c}``,
    ``{"rule": "in_range", "col": c, "lo": x, "hi": y}`` (inclusive),
    ``{"rule": "regex", "col": c, "pattern": p}`` (full-match required),
    ``{"rule": "unique", "col": c}``.

    Shape: every ROW-LOCAL rule evaluates in ONE shared combiner pass
    (one partial row of per-rule violation counts per batch, summed on
    the driver — O(rules x batches) rows move, never values);
    ``unique`` is the one genuinely distributed rule: a grouped count
    on the column, then the extra-copy total ``sum(n - 1)`` folds from
    bounded per-batch partials. Violations = n_rows - n_distinct,
    matching ``count(*) - count(DISTINCT col)``."""
    local = [(i, r) for i, r in enumerate(rules)
             if r["rule"] != "unique"]
    uniq = [(i, r) for i, r in enumerate(rules) if r["rule"] == "unique"]

    def count_local(b: pd.DataFrame) -> pd.DataFrame:
        out = {"__rows": [len(b)]}
        for i, r in local:
            col = b[r["col"]]
            if r["rule"] == "not_null":
                bad = col.isna()
            elif r["rule"] == "in_range":
                bad = ~(col.ge(r["lo"]) & col.le(r["hi"])) | col.isna()
            elif r["rule"] == "regex":
                bad = ~(col.astype("string").fillna("")
                        .str.fullmatch(r["pattern"]).fillna(False)
                        .astype(bool))
            else:
                raise ValueError(f"unknown rule {r['rule']!r}")
            out[f"__v{i}"] = [int(bad.sum())]
        return pd.DataFrame(out)

    partials = (ds.map_batches(count_local, batch_format="pandas")
                  .to_pandas())
    n_rows = int(partials["__rows"].sum())

    results: dict[int, int] = {
        i: int(partials[f"__v{i}"].sum()) for i, _ in local}

    # unique: per-batch value-count partials + coarse-shard co-group —
    # distinct values are unbounded (the whole point of a uniqueness
    # check), so Ray's per-key count machinery is avoided; only
    # (value, partial_count) rows cross the shuffle and each shard
    # folds to ONE scalar
    for i, r in uniq:
        c = r["col"]

        def vpart(b: pd.DataFrame, c=c) -> pd.DataFrame:
            return (b.groupby(c, as_index=False, sort=False, dropna=False)
                     .size().rename(columns={"size": "__c"}))

        def vfold(g: pd.DataFrame, c=c) -> pd.DataFrame:
            n = g.groupby(c, sort=False, dropna=False)["__c"].sum()
            return pd.DataFrame({"__e": [int((n - 1).sum())]})

        part = ds.select_columns([c]).map_batches(vpart,
                                                  batch_format="pandas")
        results[i] = int(
            shard_cogroup(part, c, vfold).to_pandas()["__e"].sum())

    return pd.DataFrame({
        "rule_id": list(range(len(rules))),
        "rule": [r["rule"] for r in rules],
        "col": [r["col"] for r in rules],
        "n_violations": [results[i] for i in range(len(rules))],
        "n_rows": n_rows,
    })


def weighted_ticket_sample(ds: "rd.Dataset", id_col: str,
                           weight_col: str, k: int,
                           max_tickets: int = 12,
                           ticket_unit: int = 500,
                           salt: str = "wts1") -> pd.DataFrame:
    """EXACT-size-k weighted sample without replacement, deterministic
    and engine-independent: each row holds ``w = clip(ceil(weight /
    ticket_unit), 1, max_tickets)`` integer TICKETS, each an independent
    md5 of (id, ticket#, salt); the row's priority is its minimum ticket
    and the sample is the k globally smallest priorities (tie-break id).
    More tickets -> stochastically smaller minimum -> inclusion
    probability rises with weight, with NO floats anywhere (the
    ``weighted_bernoulli_sample`` sibling trades exact size for exact
    inclusion probability; this trades the reverse). Distributed shape:
    per-batch local top-k prune (a global winner is a local winner in
    its batch), tiny candidate pool sorts driver-side — shuffle volume
    k x batches. Returns (id, pri) sorted by (pri, id)."""
    import hashlib

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(np.int64)
        wts = np.clip(-(-b[weight_col].to_numpy(np.int64) // ticket_unit),
                      1, max_tickets)
        pri = np.empty(len(ids), dtype=np.int64)
        for i, (d, w) in enumerate(zip(ids, wts)):
            pri[i] = min(
                int(hashlib.md5(f"{d}-{j}-{salt}".encode())
                    .hexdigest()[:8], 16)
                for j in range(int(w)))
        out = pd.DataFrame({id_col: ids, "pri": pri})
        return out.nsmallest(k, ["pri", id_col])

    pool = (ds.map_batches(local_topk, batch_format="pandas")
              .to_pandas())
    return (pool.sort_values(["pri", id_col]).head(k)
                .reset_index(drop=True))


def interval_self_join(ds: "rd.Dataset", key_col: str, id_col: str,
                       s_col: str, e_col: str, bucket_us: int,
                       max_replication: int = 64) -> "rd.Dataset":
    """Distributed interval-OVERLAP self-join, both sides big: all row
    pairs sharing ``key_col`` whose ``[s, e]`` intervals intersect
    (``s_a <= e_b AND s_b <= e_a``) — the general-interval sibling of
    ``band_self_join`` (whose rows are points ± a constant band).

    Technique: each interval replicates into every ``bucket_us``-wide
    time bucket it touches (``floor(s/W) .. floor(e/W)``), a
    ``shard_cogroup`` on one int64 mix of (key, bucket) coarse-shards
    them (never per-bucket groups), and within a shard
    one vectorized pass sorts by (key, bucket, s) and emits
    prefix-candidate pairs masked by the exact overlap test. Exactly-once
    attribution: a pair is OWNED by the bucket containing the LATER
    start ``max(s_a, s_b)`` — the later row is home there, and the
    earlier row's replication reaches it precisely when the intervals
    overlap, so no dedup shuffle. Intervals longer than
    ``max_replication`` buckets raise (raise ``bucket_us``; an explicit
    error, not a silent cap). Partitioning assumption: one shard's
    replicated rows fit a worker; candidate volume
    within a (key, bucket) segment is the segment's pair count — the
    output's own magnitude for genuinely overlapping data.

    Output: (key, id_a, id_b, overlap_us) with ``id_a < id_b`` and
    ``overlap_us = min(e) - max(s) >= 0``."""

    def bucketize(b: pd.DataFrame) -> pd.DataFrame:
        s = b[s_col].to_numpy("datetime64[us]").astype(np.int64)
        e = b[e_col].to_numpy("datetime64[us]").astype(np.int64)
        if (e < s).any():
            raise ValueError("interval end precedes start")
        b0 = s // bucket_us
        b1 = e // bucket_us
        span = b1 - b0 + 1
        if (span > max_replication).any():
            raise ValueError(
                f"an interval spans {int(span.max())} buckets "
                f"(> {max_replication}): raise bucket_us")
        reps = span.astype(np.int64)
        idx = np.repeat(np.arange(len(b)), reps)
        offs = (np.arange(int(reps.sum()))
                - np.repeat(np.concatenate([[0], np.cumsum(reps)[:-1]]),
                            reps))
        out = b.iloc[idx].copy()
        out["__bk"] = np.repeat(b0, reps) + offs
        # co-group on a (key, bucket) mix so a segment never splits
        kh = pd.util.hash_array(out[key_col].to_numpy()).astype(np.uint64)
        bk = out["__bk"].to_numpy(np.int64).view(np.uint64)
        out["__kb"] = ((kh ^ (bk * _MIX)) >> np.uint64(40)).astype(np.int64)
        return out

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        base = {key_col: pd.Series([], dtype="object"),
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "overlap_us": pd.Series([], dtype="int64")}
        if not len(g):
            return pd.DataFrame(base)
        # exact per-shard key codes (factorize — no hash-collision risk)
        codes, _ = pd.factorize(g[key_col], sort=False)
        g = g.assign(__kc=codes)
        g = g.sort_values(["__kc", "__bk", s_col, id_col],
                          kind="mergesort")
        n = len(g)
        s = g[s_col].to_numpy("datetime64[us]").astype(np.int64)
        e = g[e_col].to_numpy("datetime64[us]").astype(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        kc = g["__kc"].to_numpy(np.int64)
        bk = g["__bk"].to_numpy(np.int64)
        seg_change = np.concatenate(
            [[True], (np.diff(kc) != 0) | (np.diff(bk) != 0)])
        seg_start = np.maximum.accumulate(
            np.where(seg_change, np.arange(n), 0))
        counts = np.arange(n) - seg_start  # preceding rows in segment
        total = int(counts.sum())
        if total == 0:
            return pd.DataFrame(base)
        ia = np.repeat(np.arange(n), counts)          # later-start row
        offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ib = (np.arange(total) - np.repeat(offs, counts)
              + np.repeat(seg_start, counts))         # earlier-start row
        keep = (e[ib] >= s[ia])                       # exact overlap
        keep &= (s[ia] // bucket_us) == bk[ia]        # ownership bucket
        ia, ib = ia[keep], ib[keep]
        if not len(ia):
            return pd.DataFrame(base)
        lo = np.minimum(ids[ia], ids[ib])
        hi = np.maximum(ids[ia], ids[ib])
        ov = np.minimum(e[ia], e[ib]) - s[ia]
        return pd.DataFrame({key_col: g[key_col].to_numpy()[ia],
                             "id_a": lo, "id_b": hi, "overlap_us": ov})

    return shard_cogroup(ds.map_batches(bucketize, batch_format="pandas"),
                         "__kb", pairs)


def cdf_drift(ds: "rd.Dataset", group_col: str, val_col: str,
              lo: float, hi: float, n_bins: int = 50) -> pd.DataFrame:
    """Per-group distribution drift vs the whole corpus: the
    Kolmogorov-Smirnov distance between each group's CDF and the global
    CDF, evaluated exactly on a fixed ``n_bins`` grid over ``[lo, hi)``
    (values clamp into the edge bins) — the data-quality signal that
    catches a source whose length/score distribution shifted, before it
    poisons a training mix.

    Shape: one combiner pass emits per-batch (group, bin) counts; a
    grouped sum reduces them (output is groups x bins rows, bounded);
    the KS fold is driver-side on that tiny frame. All arithmetic stays
    INTEGER until the final scaled division — ``ks_micro =
    floor(1e6 * max_bin |cum_g * N - cum_all * n_g| / (n_g * N))`` — so
    the result is engine-exact (hash-comparable with the SQL oracle; no
    float rounding hazard). int64 bound: needs ``n_g * N < 2^63`` —
    at corpus sizes beyond ~3e9 rows switch the fold to Python ints
    (arbitrary precision), the frame is tiny either way."""
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        v = b[val_col].to_numpy(np.float64)
        width = (hi - lo) / n_bins
        bins = np.clip(np.floor((v - lo) / width), 0,
                       n_bins - 1).astype(np.int64)
        out = pd.DataFrame({group_col: b[group_col], "__bin": bins})
        return out.groupby([group_col, "__bin"], as_index=False,
                           dropna=False).agg(__c=("__bin", "size"))

    counts = (grouped_agg(ds.map_batches(partial, batch_format="pandas"),
                          [group_col, "__bin"], {"__c": "c"},
                          count_alias=None)
              .to_pandas())

    pv = (counts.pivot_table(index=group_col, columns="__bin",
                             values="c", aggfunc="sum", fill_value=0)
          .reindex(columns=range(n_bins), fill_value=0))
    mat = pv.to_numpy(np.int64)
    cum_g = mat.cumsum(axis=1)
    n_g = mat.sum(axis=1)
    cum_all = mat.sum(axis=0).cumsum()
    big_n = int(n_g.sum())
    ks_num = np.abs(cum_g * big_n - cum_all[None, :] * n_g[:, None]
                    ).max(axis=1)
    ks_micro = (ks_num * 1_000_000) // (n_g * big_n)
    return (pd.DataFrame({group_col: pv.index, "n": n_g,
                          "ks_micro": ks_micro})
            .sort_values(group_col).reset_index(drop=True))


def grouped_concat(ds: "rd.Dataset", key: str, order_cols: list[str],
                   val_col: str, sep: str = ",",
                   alias: str = "concat") -> "rd.Dataset":
    """STRING_AGG(val, sep ORDER BY order_cols) per key — a holistic
    (order-sensitive) aggregate: one coarse-shard co-group co-locates
    each key, then a sorted per-key join vectorized across the shard.
    ``order_cols`` must end in a unique tie-break for a deterministic
    concatenation."""
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, *order_cols])
        return (g.assign(__s=g[val_col].astype(str))
                 .groupby(key, as_index=False, sort=False, dropna=False)
                 .agg(**{alias: ("__s", sep.join),
                         f"{alias}_n": ("__s", "size")}))

    return shard_cogroup(ds, key, fold)


def grouped_zscore(ds: "rd.Dataset", keys: Sequence[str], col: str,
                   alias: str = "zscore", ddof: int = 1) -> "rd.Dataset":
    """Per-group standardization (feature scaling): two passes — a
    ``grouped_agg`` of the moments (n, Σx, Σx²) to tiny per-group stats,
    broadcast back (`ray.put` once), then a vectorized normalize map.
    NO shuffle of the data itself; the all-to-all moves one stats row
    per (group, batch). ``ddof=1`` matches SQL ``stddev_samp``.
    Single-member groups (std undefined) get null.

    The input is materialized first so the stats pass and the normalize
    pass read the SAME cached blocks — without it an expensive (or
    non-deterministic) upstream would execute twice and could diverge
    between passes."""
    keys = list(keys)
    ds = ds.materialize()
    agg = _moment_sums(ds, keys, {"__s": (col,), "__ss": (col, col)},
                       "__n").to_pandas()
    n = agg["__n"]
    mean = agg["__s"] / n
    var = (agg["__ss"] - agg["__s"] ** 2 / n) / (n - ddof)
    stats = agg[keys].copy()
    stats["__mean"] = mean
    stats["__std"] = np.sqrt(var)
    ref = ray.put(stats)

    def normalize(b: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(ref)
        b = b.merge(s, on=keys, how="left")
        b[alias] = (b[col] - b["__mean"]) / b["__std"]
        return b.drop(columns=["__mean", "__std"])

    return ds.map_batches(normalize, batch_format="pandas")


def global_topk(ds: "rd.Dataset", order_cols: list[str], k: int,
                ascending: list[bool] | None = None) -> "rd.Dataset":
    """Global ORDER BY ... LIMIT k without a cluster-wide sort: every
    batch keeps its local top-k (a global top-k row is a local top-k row),
    the surviving O(k x blocks) rows collapse to one block, and only that
    tiny set is sorted. ``order_cols`` must end in a unique tie-break."""
    asc = ascending if ascending is not None else [False] * len(order_cols)

    def local(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(order_cols, ascending=asc).head(k)

    pruned = ds.map_batches(local, batch_format="pandas").repartition(1)
    return pruned.map_batches(local, batch_size=None, batch_format="pandas")


def mode_per_key(ds: "rd.Dataset", key: str, col: str,
                 alias: str = "mode", count_alias: str = "n") -> "rd.Dataset":
    """Most frequent ``col`` value per key (ties to the smallest value):
    combiner grouped count of (key, col) pairs, then top-1-per-key over the
    counts — both shuffles move only (key, value, count) triples."""
    counts = grouped_agg(ds.select_columns([key, col]), [key, col], {},
                         count_alias=count_alias)
    top = latest_per_key(counts, key, [count_alias, col],
                         ascending=[False, True])
    return top.map_batches(
        lambda b: b.rename(columns={col: alias}), batch_format="pandas")


def rolling_agg(ds: "rd.Dataset", key: str, order_cols: list[str],
                val_col: str, window_rows: int, how: str = "sum",
                alias: str | None = None) -> "rd.Dataset":
    """Rolling window frame — ``agg(val) OVER (PARTITION BY key ORDER BY
    order_cols ROWS BETWEEN window_rows-1 PRECEDING AND CURRENT ROW)`` —
    as one hash shuffle + a sorted per-group pandas rolling kernel
    (``min_periods=1``: partial frames at the partition head aggregate
    what exists, SQL window semantics). ``order_cols`` must end in a
    unique tie-break. ``how``: "sum" | "mean" | "min" | "max"."""
    a = alias or f"rolling_{how}"

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols)
        r = g[val_col].rolling(window_rows, min_periods=1)
        g = g.copy()
        g[a] = getattr(r, how)()
        return g

    return shard_cogroup(ds, key, _groupwise([key], scan))


def rank_per_key(ds: "rd.Dataset", key: str, order_cols: list[str],
                 ascending: list[bool] | None = None,
                 alias: str = "rank", dense_alias: str | None = None,
                 pct_alias: str | None = None,
                 cume_alias: str | None = None) -> "rd.Dataset":
    """RANK() / DENSE_RANK() / PERCENT_RANK() / CUME_DIST() OVER
    (PARTITION BY key ORDER BY order_cols) in one hash shuffle + sorted
    per-group scan. Rows tying on ALL order columns share a rank (SQL
    semantics; CUME_DIST counts every peer of the run, so ties share the
    run's LAST position / n). The scan itself is vectorized (run-boundary
    cumsum, no Python per row)."""
    asc = ascending if ascending is not None else [True] * len(order_cols)

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, ascending=asc).reset_index(drop=True)
        n = len(g)
        first_of_run = (g[order_cols] != g[order_cols].shift()).any(axis=1)
        first_of_run.iloc[0] = True
        pos = pd.Series(np.arange(1, n + 1), dtype="int64")
        g[alias] = pos.where(first_of_run).ffill().astype("int64")
        if dense_alias:
            g[dense_alias] = first_of_run.cumsum().astype("int64")
        if pct_alias:
            g[pct_alias] = ((g[alias] - 1) / (n - 1)) if n > 1 else 0.0
        if cume_alias:
            last_of_run = first_of_run.shift(-1, fill_value=True)
            g[cume_alias] = (pos.where(last_of_run).bfill()
                             / np.int64(n))
        return g

    return shard_cogroup(ds, key, _groupwise([key], scan))


def first_last_per_key(ds: "rd.Dataset", key: str, order_cols: list[str],
                       val_cols: list[str]) -> "rd.Dataset":
    """FIRST_VALUE / LAST_VALUE per key in ``order_cols`` order, one row
    per key (``first_<c>`` / ``last_<c>`` for each value column, plus
    ``n``). Combiner-shaped: each batch pre-prunes to its local first+last
    rows per key, so at most two rows per (key, batch) cross the shuffle;
    n is summed from per-batch partial counts. ``order_cols`` must end in
    a unique tie-break."""
    def locals_(b: pd.DataFrame) -> pd.DataFrame:
        b = b.sort_values(order_cols)
        g = b.groupby(key, sort=False)
        out = pd.concat([g.head(1), g.tail(1)]).drop_duplicates()
        counts = g.size().rename("__pn")
        out = out.merge(counts, left_on=key, right_index=True)
        # the batch's count rides on exactly ONE of the (up to two)
        # surviving rows per key, so the global fold can plain-sum it
        out = out.sort_values(order_cols)
        dup = out.duplicated(key, keep="first")
        out.loc[dup, "__pn"] = 0
        return out

    # coarse-shard co-group fold, vectorized across all keys of a shard
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, *order_cols])
        grp = g.groupby(key, as_index=False, sort=False, dropna=False)
        return grp.agg(**{f"first_{c}": (c, "first") for c in val_cols},
                       **{f"last_{c}": (c, "last") for c in val_cols},
                       n=("__pn", "sum"))

    pruned = ds.map_batches(locals_, batch_format="pandas")
    return shard_cogroup(pruned, key, fold)


def stratified_sample(ds: "rd.Dataset", key_col: str, strata_col: str,
                      fracs: dict[str, float],
                      default_frac: float = 0.0) -> "rd.Dataset":
    """Deterministic per-stratum sampling (train/test splits balanced by
    language/source): keep a row iff the first 32 bits of
    ``md5(str(key))`` fall below its stratum's cut — the stratified
    generalization of ``deterministic_sample``, engine-independent and
    stable under repartitioning, the same key always lands on the same
    side. Strata absent from ``fracs`` use ``default_frac``."""
    cuts = {s: int(f * (1 << 32)) for s, f in fracs.items()}
    dcut = int(default_frac * (1 << 32))
    import hashlib

    def filt(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_pylist()
        strata = t[strata_col].to_pylist()
        hv = np.fromiter(
            (int.from_bytes(hashlib.md5(str(k).encode()).digest()[:4],
                            "big") for k in keys),
            dtype=np.int64, count=len(keys))
        cut = np.fromiter((cuts.get(s, dcut) for s in strata),
                          dtype=np.int64, count=len(strata))
        return t.filter(pa.array(hv < cut))

    return ds.map_batches(filt, batch_format="pyarrow")


def semi_join_cogroup(left: "rd.Dataset", right: "rd.Dataset", on: str,
                      right_on: str | None = None) -> "rd.Dataset":
    """Exact semi join (SQL ``IN`` with full left rows out) for the case
    where NEITHER side fits the object store: union both sides tagged,
    co-group on coarse key-hash shards (empty-block-safe sort machinery,
    unlike ``Dataset.join``), and keep each shard's left rows whose key
    appears on the right. One all-to-all of left payload + right keys."""
    right_on = right_on or on
    left_cols = list(left.schema().names)
    types = _arrow_types(left, left_cols)

    def tag_left(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in left_cols}
        cols["__key"] = t[on]
        cols["__side"] = pa.array(np.zeros(t.num_rows, np.int8))
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {c: pa.nulls(n, types[c]) for c in left_cols}
        cols["__key"] = t[right_on].cast(types[on])
        cols["__side"] = pa.array(np.ones(n, np.int8))
        return pa.table(cols)

    l = left.map_batches(tag_left, batch_format="pyarrow")
    r = (right.select_columns([right_on])
              .map_batches(tag_right, batch_format="pyarrow"))

    # the union's typed nulls promote int payload columns to float in the
    # per-group pandas view — pin the output dtypes back (asof_join does
    # the same)
    out_dtypes = {c: types[c].to_pandas_dtype() for c in left_cols}

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        keys = g.loc[g["__side"] == 1, "__key"].unique()
        out = g[(g["__side"] == 0) & g["__key"].isin(keys)]
        return out[left_cols].astype(out_dtypes)

    return shard_cogroup(l.union(r), "__key", per_shard)


def grouped_linreg(ds: "rd.Dataset", keys: Sequence[str], x: str, y: str,
                   slope_alias: str = "slope",
                   icept_alias: str = "intercept") -> "rd.Dataset":
    """Per-key simple linear regression (least squares, the SQL
    ``regr_slope``/``regr_intercept`` pair) as a pure combiner aggregate:
    the moment columns (Σx, Σy, Σxy, Σx²) derive per batch and one
    ``grouped_agg`` sums them with the row count, the closed form solves
    after the shuffle — the textbook "ML as a distributed aggregate"
    shape, same as ``grouped_corr``. slope =
    covar_pop/var_pop; groups with zero x-variance return null slope
    (SQL semantics)."""
    keys = list(keys)
    agg = _moment_sums(ds, keys, {"sx": (x,), "sy": (y,), "sxy": (x, y),
                                  "sxx": (x, x)}, "n")

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n"].to_numpy(np.float64)
        sx, sy = b["sx"].to_numpy(np.float64), b["sy"].to_numpy(np.float64)
        var = b["sxx"].to_numpy(np.float64) - sx * sx / n
        cov = b["sxy"].to_numpy(np.float64) - sx * sy / n
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(var > 0, cov / var, np.nan)
        icept = sy / n - slope * sx / n
        out = b[keys].copy()
        out["n"] = b["n"].astype("int64")
        out[slope_alias] = slope
        out[icept_alias] = icept
        return out

    return agg.map_batches(fin, batch_format="pandas")


def salted_shuffle_join(left: "rd.Dataset", right: "rd.Dataset", on: str,
                        right_on: str | None = None, salt: int = 8,
                        num_partitions: int | None = None) -> "rd.Dataset":
    """Skew-resilient inner hash join. In the plain hash shuffle a hot key
    lands EVERY one of its rows on one aggregator — the named failure mode
    of ``groupby``/join skew at 100 TB. Here each left row gets a salt in
    ``[0, salt)`` (position round-robin inside the batch: any assignment
    is valid, the join matches on equality, so salting never changes the
    result set), the right side is replicated ``salt`` times, and the
    shuffle key becomes ``(key, __salt)`` — a hot key's rows now spread
    over ``salt`` aggregators. Cost: ``salt`` x right-side duplication
    across the wire, so use it when the probe side is skewed and the
    build side is modest (but too big / too wide to broadcast). Verified
    hash-identical to the unsalted join by sharing its SQL oracle
    (``orders_lineitem_join_salted``)."""
    def salt_left(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__salt", pa.array(np.arange(t.num_rows, dtype=np.int64)
                               % salt))

    def replicate_right(t: pa.Table) -> pa.Table:
        reps = [t.append_column(
                    "__salt", pa.array(np.full(t.num_rows, s, np.int64)))
                for s in range(salt)]
        return pa.concat_tables(reps)

    l = left.map_batches(salt_left, batch_format="pyarrow")
    r = right.map_batches(replicate_right, batch_format="pyarrow")
    out = shuffle_join(l, r, (on, "__salt"), (right_on or on, "__salt"),
                       num_partitions=num_partitions)
    return out.drop_columns(["__salt"])


def rolling_time_agg(ds: "rd.Dataset", key: str, ts_col: str,
                     val_col: str, window_us: int,
                     alias: str = "rolling_sum") -> "rd.Dataset":
    """Time-RANGE rolling sum — ``SUM(val) OVER (PARTITION BY key ORDER BY
    ts RANGE BETWEEN <interval> PRECEDING AND CURRENT ROW)`` — one hash
    shuffle + a vectorized per-key scan (prefix sums + two
    ``searchsorted``). SQL RANGE-frame peer semantics: rows tying on
    ``ts`` share ONE frame that includes all peers (``side="right"`` on
    the upper bound), where a pandas ``rolling('7D')`` would give each
    peer a different frame."""
    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_col], kind="mergesort").reset_index(drop=True)
        tv = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        csum = np.concatenate(
            [[0], np.cumsum(g[val_col].to_numpy(dtype=np.int64))])
        lo = np.searchsorted(tv, tv - window_us, side="left")
        hi = np.searchsorted(tv, tv, side="right")
        g = g.copy()
        g[alias] = csum[hi] - csum[lo]
        return g

    return shard_cogroup(ds, key, _groupwise([key], scan))


def funnel_steps(ds: "rd.Dataset", key: str, ts_col: str, step_col: str,
                 steps: list[str],
                 within_us: int | None = None) -> "rd.Dataset":
    """Ordered-step conversion funnel: how many keys (users) completed
    step 1, then step 2 STRICTLY AFTER their step-1 time (and within
    ``within_us`` microseconds of it, when given — the conversion
    window), and so on — the product-analytics sequential-pattern query
    (SURVEY §2.9's event-time family; no reference counterpart, scale
    addition).

    Shape: project + pre-filter to the step set (tiny fixed-width rows
    cross the wire), ONE coarse key-shard co-group, then a per-shard
    pass that is vectorized ACROSS keys — per step one groupby-min and
    one mapped comparison, never a per-key loop. Per-shard partial
    counts (each key lives in exactly one shard) sum in a bounded-key
    driver fold (#steps rows)."""
    stepset = list(steps)

    def prefilter(b: pd.DataFrame) -> pd.DataFrame:
        return b[b[step_col].isin(stepset)][[key, step_col, ts_col]]

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        prev = None
        counts: list[int] = []
        for s in stepset:
            rows = g[g[step_col] == s]
            if prev is not None:
                pr = rows[key].map(prev)
                ok = pr.notna().to_numpy() & (rows[ts_col] > pr).to_numpy()
                if within_us is not None:
                    ok &= (rows[ts_col] <= pr + pd.Timedelta(
                        microseconds=within_us)).to_numpy()
                rows = rows[ok]
            prev = rows.groupby(key, sort=False)[ts_col].min()
            counts.append(len(prev))
        return pd.DataFrame({
            "step_idx": pd.Series(range(1, len(stepset) + 1), dtype="int64"),
            "step": stepset,
            "__pn": pd.Series(counts, dtype="int64"),
        })

    partials = shard_cogroup(ds.map_batches(prefilter, batch_format="pandas"),
                             key, per_shard)
    return grouped_agg(partials, ["step_idx", "step"], {"__pn": "n_users"},
                       count_alias=None)


def trimmed_mean_per_key(ds: "rd.Dataset", key: str, val_col: str,
                         frac: float = 0.1,
                         alias: str = "trimmed_mean") -> "rd.Dataset":
    """Exact per-group trimmed mean: drop ``floor(n*frac)`` rows from
    each end of the value-sorted group, average the rest — the
    outlier-robust aggregate a quality-score or latency rollup wants.
    Trim bounds are GLOBAL ranks, so no combiner exists and each group
    co-locates (same bounded-group contract as the exact median in
    ``grouped_multi_quantile``; unbounded groups should clamp with the
    approx-quantile sketch instead). Value ties need no tie-break: the
    trimmed multiset is rank-cut so it is identical under any tie
    order."""
    def scan(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[val_col].to_numpy(np.float64))
        n = len(v)
        k = int(np.floor(n * frac))
        vv = v[k:n - k]
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            alias: [float(vv.mean()) if len(vv) else float("nan")],
            "n_kept": pd.Series([len(vv)], dtype="int64"),
        })

    return shard_cogroup(ds, key, _groupwise([key], scan))


def skyline(ds: "rd.Dataset", minimize: Sequence[str],
            maximize: Sequence[str]) -> "rd.Dataset":
    """Distributed skyline (pareto frontier): rows not strictly dominated
    on the given criteria (dominator <= on every minimized column, >= on
    every maximized one, strict somewhere). Classic two-phase: a LOCAL
    skyline per batch is a true combiner (a globally non-dominated row is
    locally non-dominated), so only each block's frontier — typically
    O(log n) rows — reaches the single final pass. The final pass must
    see all survivors together (one block); frontier size, not input
    size, bounds its memory. Ties equal on ALL criteria dominate nothing
    and all survive."""
    mins = list(minimize)
    maxs = list(maximize)

    def _local(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b
        m = np.column_stack(
            [b[c].to_numpy(np.float64) for c in mins]
            + [-b[c].to_numpy(np.float64) for c in maxs])
        le = (m[:, None, :] <= m[None, :, :]).all(axis=2)
        lt = (m[:, None, :] < m[None, :, :]).any(axis=2)
        dominated = (le & lt).any(axis=0)
        return b[~dominated]

    local = ds.map_batches(_local, batch_format="pandas")
    # final frontier-of-frontiers: one block, whole-block batch
    return local.repartition(1).map_batches(_local, batch_size=None,
                                            batch_format="pandas")


def retention_cohorts(ds: "rd.Dataset", key: str, ts_col: str) -> "rd.Dataset":
    """Cohort retention matrix: users grouped by first-activity day
    (cohort), counted once per (cohort_day, offset_days) they were
    active — the activation/retention curve query. ONE key-shard
    co-group (a user's whole history lands in one shard, so the
    per-user min and the distinct-day set are exact), vectorized across
    users inside the shard; per-shard partial counts are disjoint by
    construction and sum in a driver fold over calendar-bounded keys
    (#days × #offsets rows)."""
    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        fmin = g.groupby(key, sort=False)[ts_col].transform("min")
        cohort = fmin.dt.floor("D")
        day = g[ts_col].dt.floor("D")
        d = pd.DataFrame({
            key: g[key],
            "cohort_day": cohort,
            "offset_days": (day - cohort).dt.days.astype("int64"),
        }).drop_duplicates()
        out = (d.groupby(["cohort_day", "offset_days"], as_index=False)
                .size().rename(columns={"size": "__pn"}))
        out["__pn"] = out["__pn"].astype("int64")
        return out

    partials = shard_cogroup(ds.select_columns([key, ts_col]), key,
                             per_shard)
    return grouped_agg(partials, ["cohort_day", "offset_days"],
                       {"__pn": "n_users"}, count_alias=None)


def transition_matrix(ds: "rd.Dataset", key: str, ts_col: str,
                      state_col: str, id_col: str) -> "rd.Dataset":
    """Global first-order transition counts (the Markov matrix of a
    behavioral stream): for every key's (ts, id)-ordered history, count
    consecutive (from_state, to_state) pairs across all keys. ONE
    key-shard co-group; the per-shard pass is a single sort + shift
    (vectorized across keys — a key's first row is masked out by the
    key-change test, never a per-key loop); per-shard partial counts
    sum in a bounded-key fold (#states² rows)."""
    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, id_col], kind="mergesort")
        st = g[state_col].to_numpy()
        kv = g[key].to_numpy()
        same = np.empty(len(g), dtype=bool)
        same[0] = False
        if len(g) > 1:
            same[1:] = kv[1:] == kv[:-1]
        out = pd.DataFrame({"from_state": st[:-1][same[1:]] if len(g) > 1
                            else st[:0],
                            "to_state": st[1:][same[1:]] if len(g) > 1
                            else st[:0]})
        c = (out.groupby(["from_state", "to_state"], as_index=False)
                .size().rename(columns={"size": "__pn"}))
        c["__pn"] = c["__pn"].astype("int64")
        return c

    partials = shard_cogroup(
        ds.select_columns([key, ts_col, id_col, state_col]), key,
        per_shard)
    return grouped_agg(partials, ["from_state", "to_state"],
                       {"__pn": "n"}, count_alias=None)


def grouped_entropy(ds: "rd.Dataset", key: str, state_col: str,
                    alias: str = "entropy") -> "rd.Dataset":
    """Per-key Shannon entropy (nats) of the ``state_col`` distribution —
    the label-diversity signal a curation mix reads. Two combiner-shaped
    rounds: the (key, state) count shuffle moves one partial row per
    (key, state, batch); the entropy fold co-groups each key's ≤|states|
    count rows in one coarse shard pass, vectorized across keys. The
    float sum spans ≤|states| terms so cross-engine association drift
    is a few ulps — rounded well above it by callers."""
    counts = grouped_agg(ds.select_columns([key, state_col]),
                         [key, state_col], {}, count_alias="__n")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby(key, sort=False)["__n"].transform("sum")
        p = g["__n"].to_numpy(np.float64) / tot.to_numpy(np.float64)
        g = g.assign(__h=-p * np.log(p))
        out = g.groupby(key, as_index=False).agg(
            **{alias: ("__h", "sum")}, n_events=("__n", "sum"))
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return shard_cogroup(counts, key, per_shard)


def band_self_join(ds: "rd.Dataset", ts_col: str, id_col: str,
                   band_us: int,
                   keep_cols: Sequence[str] = (),
                   n_salt: int = 1) -> "rd.Dataset":
    """Distributed band (interval) SELF-join: all row pairs whose
    timestamps lie within ``band_us`` microseconds — the both-sides-big
    sibling of ``range_join_broadcast`` (which needs one side to fit a
    broadcast). Technique: time-bucket COARSE-SHARD co-grouping with
    BOUNDARY REPLICATION — every row lands in its ``band_us``-wide bucket
    AND the next one, so any qualifying pair co-locates in the LATER
    row's home bucket (the earlier row is there as home or as the
    replicated copy); attributing each pair to exactly that bucket makes
    the emission exactly-once with no dedup shuffle.

    The shuffle is ``shard_cogroup`` on the bucket key (ONE vectorized
    pandas pass per shard), never per-bucket groups — a 7-day
    stream at band=1s has ~600k buckets, and per-group machinery at that
    cardinality dominated the wall clock (measured: the r03 sf1 stress).
    Within a shard, rows sort by (bucket, ts) and a composite key
    ``segment * 4*band_us + (ts - bucket*band_us + band_us)`` keeps the
    window expansion one searchsorted over ALL buckets at once: segments
    are >= 2*band_us apart in composite space, so a window can never leak
    into the next bucket. Every row moves exactly twice regardless of
    scale. Output: (id_a, id_b, dt_us) with ``id_a < id_b`` and
    ``dt_us >= 0`` = |ts_a - ts_b|, plus ``keep_cols`` from each side
    suffixed _a/_b. ``id_col`` must be unique per row (it is the pair
    identity). Partitioning assumption: one shard's rows fit a worker
    (a hot bucket spreads with ``n_salt``).

    ``n_salt`` is the hot-bucket salt path: with ``n_salt = s > 1`` each
    row is id-hashed into one of ``s`` groups and replicated into the
    ``s`` CELLS ``(bucket, min(g,h), max(g,h))`` for h = 0..s-1 (the
    triangular block-partitioned self-join); a cell computes only pairs
    whose two group ids match its (i, j), so every pair is produced in
    exactly one cell and the hottest worker holds ~2/s of a pathological
    instant's rows instead of all of them. Cost: 2s copies per row across
    the shuffle (vs 2 unsalted) — use for skew, not by default. Results
    are identical to the unsalted path (pinned by test)."""
    s = int(n_salt)
    ncells = s * (s + 1) // 2 if s > 1 else 1

    def bucketize(b: pd.DataFrame) -> pd.DataFrame:
        ts = b[ts_col].to_numpy("datetime64[us]").astype(np.int64)
        bk = ts // band_us
        if s <= 1:
            out = pd.concat([b.assign(__bk=bk), b.assign(__bk=bk + 1)],
                            ignore_index=True)
            key = out["__bk"].to_numpy(np.int64)
        else:
            grp = ((b[id_col].to_numpy(np.int64).view(np.uint64) * _MIX)
                   >> np.uint64(41)).astype(np.int64) % s
            frames = []
            for h in range(s):
                i = np.minimum(grp, h)
                j = np.maximum(grp, h)
                cell = i * s - i * (i - 1) // 2 + (j - i)  # triangular ix
                frames.append(b.assign(__g=grp, __ci=i, __cj=j,
                                       __cell=cell, __bk=bk))
                frames.append(b.assign(__g=grp, __ci=i, __cj=j,
                                       __cell=cell, __bk=bk + 1))
            out = pd.concat(frames, ignore_index=True)
            key = (out["__bk"].to_numpy(np.int64) * ncells
                   + out["__cell"].to_numpy(np.int64))
        out["__key"] = key
        return out

    cols = list(keep_cols)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        base_cols = {"id_a": pd.Series([], dtype="int64"),
                     "id_b": pd.Series([], dtype="int64"),
                     "dt_us": pd.Series([], dtype="int64")}
        for c in cols:
            base_cols[f"{c}_a"] = pd.Series([], dtype="object")
            base_cols[f"{c}_b"] = pd.Series([], dtype="object")
        if not len(g):
            return pd.DataFrame(base_cols)
        g = g.sort_values(["__key", ts_col, id_col], kind="mergesort")
        n = len(g)
        ts = g[ts_col].to_numpy("datetime64[us]").astype(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        key = g["__key"].to_numpy(np.int64)
        bk = key // ncells if s > 1 else key
        # dense segment index per (bucket, cell) run + in-bucket offset:
        # composite space puts segments >= 2*band apart, so ONE
        # searchsorted handles every bucket in the shard
        seg = np.concatenate([[0], np.cumsum(np.diff(key) != 0)])
        comp = seg * (4 * band_us) + (ts - bk * band_us + band_us)
        hi = np.searchsorted(comp, comp + band_us, side="right")
        counts = np.clip(hi - np.arange(1, n + 1), 0, None)
        total = int(counts.sum())
        if total == 0:
            return pd.DataFrame(base_cols)
        ia = np.repeat(np.arange(n), counts)
        starts = np.arange(n) + 1
        offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ib = (np.arange(total) - np.repeat(offs, counts)
              + np.repeat(starts, counts))
        # exactly-once attribution: the LATER row's home bucket
        keep = (ts[ib] // band_us) == bk[ib]
        if s > 1:
            # a cell (i, j) owns exactly the pairs whose group ids are
            # {i, j} — every pair maps to one cell, so no cross-cell dups
            grp = g["__g"].to_numpy(np.int64)
            ga, gb = grp[ia], grp[ib]
            keep &= ((np.minimum(ga, gb) == g["__ci"].to_numpy(np.int64)[ia])
                     & (np.maximum(ga, gb)
                        == g["__cj"].to_numpy(np.int64)[ia]))
        ia, ib = ia[keep], ib[keep]
        lo_id = np.minimum(ids[ia], ids[ib])
        hi_id = np.maximum(ids[ia], ids[ib])
        out = {"id_a": lo_id, "id_b": hi_id, "dt_us": ts[ib] - ts[ia]}
        for c in cols:
            v = g[c].to_numpy()
            a_first = ids[ia] == lo_id
            out[f"{c}_a"] = np.where(a_first, v[ia], v[ib])
            out[f"{c}_b"] = np.where(a_first, v[ib], v[ia])
        return pd.DataFrame(out)

    return shard_cogroup(ds.map_batches(bucketize, batch_format="pandas"),
                         "__key", pairs)


def profile_columns(ds: "rd.Dataset", cols: Sequence[str],
                    approx_distinct: bool = False) -> pd.DataFrame:
    """Distributed data profiling: one output row per column with
    ``(col_name, n, n_null, n_distinct, min_v, max_v)`` — the ingest-time
    sanity report every large pipeline runs before burning cluster hours
    on bad data. Two combiner-shaped passes share one read:

    - n/nulls/min/max: ONE per-batch Arrow partial row (typed per-column
      columns), folded on the driver — O(cols x blocks) rows ever leave
      a worker;
    - n_distinct (EXACT): per-batch distinct (column, value) pairs, then
      a distributed distinct + per-column count — the one genuinely
      shuffling statistic. Values travel as strings (one type column
      across heterogeneous inputs). ``approx_distinct=True`` replaces
      this with per-column HLL register banks (one fixed-2KB bank per
      column per batch, shuffle volume O(cols x batches) — the 100 TB
      path for high-cardinality columns, +-2%); exact stays the default
      because it is the oracle-checkable contract.

    min/max are returned as strings (CAST semantics — comparable across
    int/string/timestamp columns in one frame)."""
    import pyarrow.compute as pc

    cols = list(cols)

    # counts + typed extrema in ONE partial pass: per batch, one row with
    # per-column columns (__n_c, __null_c, __mn_c, __mx_c). Typed min/max
    # partials live in SEPARATE per-column columns because a stringly
    # fold would compare numerics lexicographically and one shared column
    # cannot hold mixed types; all-null batches keep the column type so
    # batch schemas unify. The fold is O(cols x blocks) rows, driver-side.
    def partial(t: pa.Table) -> pa.Table:
        arrs: dict[str, pa.Array] = {}
        for c in cols:
            col = t[c]
            vals = col.drop_null()
            typ = t.schema.field(c).type
            arrs[f"__n_{c}"] = pa.array([len(col)], pa.int64())
            arrs[f"__null_{c}"] = pa.array([col.null_count], pa.int64())
            arrs[f"__mn_{c}"] = pa.array(
                [pc.min(vals).as_py() if len(vals) else None], type=typ)
            arrs[f"__mx_{c}"] = pa.array(
                [pc.max(vals).as_py() if len(vals) else None], type=typ)
        return pa.table(arrs)

    # fold the partials in ARROW, not pandas: an all-null block's typed
    # int64 partial would force pandas' float64 coercion and the string
    # cast would emit "9.0" for an integer column — breaking the CAST
    # contract. pc.min/max stay typed and null-skipping; one tiny table
    # (one row per input block) is ray.get here, O(cols x blocks).
    ext = pa.concat_tables(
        ray.get(ds.map_batches(partial, batch_format="pyarrow")
                .to_arrow_refs()),
        promote_options="default")

    def _extremum(name: str, fn) -> str | None:
        v = fn(ext[name]).as_py()  # null-skipping; None when all null
        return None if v is None else str(v)

    folded = pd.DataFrame({"col_name": cols})
    folded["n"] = [int(pc.sum(ext[f"__n_{c}"]).as_py()) for c in cols]
    folded["n_null"] = [int(pc.sum(ext[f"__null_{c}"]).as_py())
                        for c in cols]
    folded["min_v"] = [_extremum(f"__mn_{c}", pc.min) for c in cols]
    folded["max_v"] = [_extremum(f"__mx_{c}", pc.max) for c in cols]

    if approx_distinct:
        from credit_ocr_backend_ray.stages.sketch import (
            _estimate, _registers)

        def hll_partial(t: pa.Table) -> pa.Table:
            names, banks = [], []
            for c in cols:
                vals = [str(v) for v in t[c].drop_null().to_pylist()]
                names.append(c)
                banks.append(_registers(vals).tobytes())
            return pa.table({"col_name": pa.array(names, pa.string()),
                             "__regs": pa.array(banks, pa.binary())})

        regs = (ds.map_batches(hll_partial, batch_format="pyarrow")
                  .to_pandas())
        nd = {}
        for c, g in regs.groupby("col_name"):
            acc = None
            for b in g["__regs"]:
                r = np.frombuffer(b, dtype=np.uint8)
                acc = r.copy() if acc is None else np.maximum(acc, r)
            nd[c] = int(round(_estimate(acc)))
        folded["n_distinct"] = [nd[c] for c in folded["col_name"]]
        return (folded[["col_name", "n", "n_null", "n_distinct",
                        "min_v", "max_v"]]
                .sort_values("col_name").reset_index(drop=True))

    def uniq(t: pa.Table) -> pa.Table:
        names, vals = [], []
        for c in cols:
            u = pc.unique(t[c].drop_null())
            names.extend([c] * len(u))
            vals.extend(str(v) for v in u.to_pylist())
        return pa.table({"col_name": pa.array(names, pa.string()),
                         "__val": pa.array(vals, pa.string())})

    # coarse-shard co-group over hash(__val): distinct values are
    # unbounded; each shard dedups and emits per-column partial distinct
    # counts (<= cols rows per shard), summed on the driver
    def dfold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["col_name", "__val"])
        return (d.groupby("col_name", as_index=False, sort=False)
                 .size().rename(columns={"size": "__d"}))

    dist = (shard_cogroup(ds.map_batches(uniq, batch_format="pyarrow"),
                          "__val", dfold).to_pandas()
            .groupby("col_name", as_index=False)["__d"].sum()
            .rename(columns={"__d": "n_distinct"}))
    out = folded.merge(dist, on="col_name", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    return (out[["col_name", "n", "n_null", "n_distinct",
                 "min_v", "max_v"]]
            .sort_values("col_name").reset_index(drop=True))


def iqr_outliers(ds: "rd.Dataset", keys: Sequence[str], col: str,
                 k: float = 1.5) -> "rd.Dataset":
    """Per-key Tukey-fence outlier counts: rows outside
    ``[q1 - k*IQR, q3 + k*IQR]`` with exact linear-interpolation
    quartiles (``percentile_cont`` semantics, same contract as
    ``grouped_multi_quantile``). One coarse-shard co-group, per-group
    vectorized (holistic statistic: one SHARD's rows fit a worker).
    Output: (keys..., n, n_outliers) — integer-only values, no
    float hash drift."""
    keys = list(keys)

    # vectorized: per-key quartiles by rank position, fences expanded
    # back per row, outliers counted segment-wise (NaN fences compare
    # False — same as the per-group np.quantile semantics)
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*keys, col], na_position="last")
        v = g[col].to_numpy(np.float64)
        starts, sizes = _segments(g, keys)
        q1 = _segment_quantiles(v, starts, sizes, 0.25, "linear")
        q3 = _segment_quantiles(v, starts, sizes, 0.75, "linear")
        bad = _nan_segments(v, starts)
        iqr = q3 - q1
        lo, hi = q1 - k * iqr, q3 + k * iqr
        lo[bad] = np.nan
        hi[bad] = np.nan
        outlier = (v < np.repeat(lo, sizes)) | (v > np.repeat(hi, sizes))
        out = g.iloc[starts][keys].reset_index(drop=True)
        out["n"] = sizes
        out["n_outliers"] = np.add.reduceat(outlier, starts).astype(
            np.int64)
        return out

    return shard_cogroup(ds, keys[0], fold)


def time_band_join(left: "rd.Dataset", right: "rd.Dataset",
                   left_key: str, right_key: str,
                   left_ts: str, right_ts: str, band_us: int,
                   left_cols: Sequence[str], right_cols: Sequence[str],
                   n_salt: int = 1) -> "rd.Dataset":
    """Keyed two-table TIME-BAND join (the stream-stream join of a
    streaming engine, batch-shaped): all (left, right) pairs with equal
    key and |ts_l - ts_r| <= ``band_us``. Both sides are big — no
    broadcast; the only shuffle is ONE ``shard_cogroup`` over the tagged
    union of both streams (each row moves exactly once).

    Inside a shard, keys factorize to dense codes and rows map to the
    composite ``code * span + (ts - ts_min) + band`` with ``span =
    ts_range + 2*band + 2`` — segments sit >= band apart on both sides,
    so one vectorized searchsorted of every left row against the sorted
    right composites finds each row's match window without a per-key
    loop. Guard: ``(keys per shard + 1) * span`` must stay below 2^62,
    or the call raises ValueError (explicit — survives ``python -O``).
    Keys spread over ``default_partitions()`` shards, so a 1-CPU host
    (4 shards) trips it at 1/16 of the keys a 64-shard layout did: at a
    30-day span and a 1-day band, about 1.6M keys per shard.

    Output: left_cols + right_cols + ``dt_us`` (right ts minus left ts,
    signed). Partitioning assumption: one key-hash shard's rows fit a
    worker; pair volume is inherently
    |matches| — skewed hot keys produce quadratic OUTPUT for that key,
    which no partitioning can remove — but the COMPUTE of a hot key can
    be spread: ``n_salt = s > 1`` row-hashes each side into ``s`` groups
    and replicates left rows across the ``s`` cells ``(gl, *)`` / right
    rows across ``(*, gr)`` (bipartite block partitioning); cell
    ``(gl, gr)`` produces exactly the pairs between those two groups, so
    every pair appears once and the hottest worker holds ~2/s of the hot
    key's rows. Cost: s copies per row. Results identical to unsalted
    (pinned by test)."""
    lcols = list(left_cols)
    rcols = list(right_cols)
    s = int(n_salt)

    def tag(side: int, key: str, ts: str, keep: list[str]):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({
                "__key": b[key].to_numpy(np.int64),
                "__ts": b[ts].to_numpy("datetime64[us]").astype(np.int64),
                "__side": np.full(len(b), side, dtype=np.int8),
            })
            for c in lcols:
                out[f"l_{c}"] = b[c].to_numpy() if (side == 0 and c in b) \
                    else None
            for c in rcols:
                out[f"r_{c}"] = b[c].to_numpy() if (side == 1 and c in b) \
                    else None
            if s > 1:
                # bipartite block cells: a LEFT row in group g goes to
                # cells (g, 0..s-1); a RIGHT row to cells (0..s-1, g)
                grp = ((out["__key"].to_numpy(np.int64).view(np.uint64)
                        * _MIX) >> np.uint64(23)).astype(np.int64)
                # mix in the row's own id-ish timestamp so one key's rows
                # spread across groups (key alone would put the whole hot
                # key in ONE group, defeating the salt)
                grp = (grp ^ out["__ts"].to_numpy(np.int64)) % s
                frames = []
                for h in range(s):
                    cell = (grp * s + h) if side == 0 else (h * s + grp)
                    frames.append(out.assign(__cell=cell))
                out = pd.concat(frames, ignore_index=True)
            else:
                out["__cell"] = 0
            # a (key, cell) pair is its own segment under salt
            out["__kc"] = (out["__key"].to_numpy(np.int64) * (s * s)
                           + out["__cell"].to_numpy(np.int64))
            return out
        return fn

    tagged = left.map_batches(tag(0, left_key, left_ts, lcols),
                              batch_format="pandas").union(
        right.map_batches(tag(1, right_key, right_ts, rcols),
                          batch_format="pandas"))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        base = {"dt_us": pd.Series([], dtype="int64")}
        for c in lcols:
            base[f"l_{c}"] = pd.Series([], dtype="object")
        for c in rcols:
            base[f"r_{c}"] = pd.Series([], dtype="object")
        if not len(g):
            return pd.DataFrame(base)
        keys = g["__kc"].to_numpy(np.int64)
        ts = g["__ts"].to_numpy(np.int64)
        uniq = np.unique(keys)
        code = np.searchsorted(uniq, keys).astype(np.int64)
        rel = ts - ts.min()
        span = int(rel.max()) + 2 * band_us + 2
        # explicit raise, not assert: under python -O an overflowing
        # code*span would wrap int64 and silently emit wrong pairs
        if (len(uniq) + 1) * span >= 2 ** 62:
            raise ValueError(
                f"composite overflow: {len(uniq)} keys in one shard span "
                f"{span} us; (keys + 1) * span must stay below 2**62")
        comp = code * span + rel + band_us
        is_r = (g["__side"].to_numpy() == 1)
        r_order = np.argsort(comp[is_r], kind="stable")
        r_comp = comp[is_r][r_order]
        r_idx = np.flatnonzero(is_r)[r_order]
        l_idx = np.flatnonzero(~is_r)
        if not len(r_idx) or not len(l_idx):
            return pd.DataFrame(base)
        l_comp = comp[l_idx]
        lo = np.searchsorted(r_comp, l_comp - band_us, side="left")
        hi = np.searchsorted(r_comp, l_comp + band_us, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return pd.DataFrame(base)
        ia = np.repeat(np.arange(len(l_idx)), counts)
        offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ib = (np.arange(total) - np.repeat(offs, counts)
              + np.repeat(lo, counts))
        li = l_idx[ia]
        ri = r_idx[ib]
        out = {"dt_us": ts[ri] - ts[li]}
        for c in lcols:
            out[f"l_{c}"] = g[f"l_{c}"].to_numpy()[li]
        for c in rcols:
            out[f"r_{c}"] = g[f"r_{c}"].to_numpy()[ri]
        return pd.DataFrame(out)

    return shard_cogroup(tagged, "__kc", pairs)


def kfold_assign(ds: "rd.Dataset", key_col: str, k: int = 5,
                 fold_col: str = "fold") -> "rd.Dataset":
    """Deterministic k-fold cross-validation assignment: fold = first 32
    bits of ``md5(str(key))`` mod k — the same engine-independence
    contract as ``hash_split`` (reproducible across engines, stable
    under repartitioning, a key can never migrate between folds between
    runs). Embarrassingly parallel, no shuffle."""
    import hashlib

    def assign(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_pylist()
        folds = np.fromiter(
            (int.from_bytes(hashlib.md5(str(kk).encode()).digest()[:4],
                            "big") % k for kk in keys),
            dtype=np.int64, count=len(keys))
        return t.append_column(fold_col, pa.array(folds, pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow")


def winsorize_per_key(ds: "rd.Dataset", keys: Sequence[str], col: str,
                      p_lo: float = 0.05, p_hi: float = 0.95,
                      alias: str | None = None) -> "rd.Dataset":
    """Per-key winsorization (outlier clamping, the data-cleaning
    sibling of ``iqr_outliers``): values clip to the key's exact
    [p_lo, p_hi] quantiles (``percentile_cont`` linear interpolation).
    One coarse-shard co-group; per-group vectorized clip (holistic
    statistic — one SHARD's rows fit a worker)."""
    keys = list(keys)
    out_col = alias or f"w_{col}"

    # vectorized: per-key clip bounds by rank position, expanded back
    # per row (NaN bounds propagate NaN — np.clip semantics, matching
    # the per-group np.quantile form)
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*keys, col], na_position="last")
        v = g[col].to_numpy(np.float64)
        starts, sizes = _segments(g, keys)
        ql = _segment_quantiles(v, starts, sizes, p_lo, "linear")
        qh = _segment_quantiles(v, starts, sizes, p_hi, "linear")
        bad = _nan_segments(v, starts)
        ql[bad] = np.nan
        qh[bad] = np.nan
        g = g.copy()
        g[out_col] = np.clip(v, np.repeat(ql, sizes), np.repeat(qh, sizes))
        return g

    return shard_cogroup(ds, keys[0], fold)


def grouped_rank_features(ds: "rd.Dataset", keys: Sequence[str],
                          val_col: str, id_col: str,
                          n_tiles: int = 10) -> "rd.Dataset":
    """Per-row rank features within a group — ``rank()`` (min-rank,
    gaps), exact-integer ``percent_rank`` micro-units and ``ntile``:
    the per-group normalization step of feature engineering (score
    percentiles, decile binning) as ONE shard co-group + vectorized
    fold, never a per-key shuffle or a global sort.

    Semantics match SQL exactly: rank over ``(PARTITION BY keys ORDER
    BY val)``; ``pct_rank_micro = (rank - 1) * 10^6 // (n - 1)`` (0 for
    single-row groups — percent_rank's own convention, restated in
    integers so the oracle hashes exactly); ``tile`` = ``ntile(n_tiles)
    OVER (... ORDER BY val, id)`` — the id tie-break makes ntile's
    row-order-dependent assignment deterministic (ties in ``val`` may
    straddle a tile boundary; rank/pct never depend on id). Rows with a
    null value are dropped by contract. Holistic per shard like
    grouped_quantile: a shard's rows must fit a worker.

    Output: (id, keys..., rnk, pct_rank_micro, tile)."""
    keys = list(keys)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.dropna(subset=[val_col])
              .sort_values([*keys, val_col, id_col], kind="stable"))
        starts, sizes = _segments(g, keys)
        n_rows = len(g)
        rn = np.arange(n_rows, dtype=np.int64) - np.repeat(
            starts, sizes)                      # 0-based row_number
        nn = np.repeat(sizes, sizes)
        # min-rank: first row index of each tie run within the segment
        v = g[val_col].to_numpy()
        seg = np.repeat(np.arange(len(sizes)), sizes)
        new = np.ones(n_rows, dtype=bool)
        if n_rows > 1:
            new[1:] = (seg[1:] != seg[:-1]) | (v[1:] != v[:-1])
        # accumulate over GLOBAL indices (monotone across segments —
        # per-segment rn would leak a longer previous segment's max
        # past a boundary), then rebase to the segment start
        gidx = np.arange(n_rows, dtype=np.int64)
        run_start = np.maximum.accumulate(np.where(new, gidx, -1))
        rnk = run_start - np.repeat(starts, sizes) + 1
        pct = np.where(nn > 1,
                       (rnk - 1) * 1_000_000 // np.maximum(nn - 1, 1), 0)
        # ntile: first (n % t) tiles get size q+1, the rest q
        q, r = nn // n_tiles, nn % n_tiles
        big = r * (q + 1)
        in_big = rn < big
        tile = np.where(
            in_big, rn // np.maximum(q + 1, 1),
            r + np.where(q > 0, (rn - big) // np.maximum(q, 1), 0)) + 1
        out = g[[id_col, *keys]].reset_index(drop=True)
        out["rnk"] = rnk
        out["pct_rank_micro"] = pct.astype(np.int64)
        out["tile"] = tile.astype(np.int64)
        return out

    return shard_cogroup(ds, keys[0], fold)


def scd2_intervals(ds: "rd.Dataset", key: str, ts_col: str,
                   attr_col: str, id_col: str) -> "rd.Dataset":
    """SCD-type-2 history build: turn an event stream into one validity
    interval per attribute CHANGE — the warehouse dimension-history op
    (and the state-timeline builder behind session replay / feature
    backfills). Per key, events order by ``(ts, id)``; an event whose
    attribute equals the immediately-previous event's is a no-op update
    and collapses into the open interval (runs collapse transitively,
    so "equal to previous event" == "equal to previous change");
    ``valid_from`` = the change's ts, ``valid_to`` = the next change's
    ts (NULL while current). Rows with a null attribute are dropped by
    contract (a null is an absent update, not a state).

    One shard co-group on the key; the fold is vectorized shift
    compares — never a per-key shuffle. Output:
    (key, attr, valid_from, valid_to)."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.dropna(subset=[attr_col])
              .sort_values([key, ts_col, id_col], kind="stable"))
        same_key = g[key].eq(g[key].shift())
        no_op = same_key & g[attr_col].eq(g[attr_col].shift())
        c = g[~no_op.to_numpy()]
        nxt = c[ts_col].shift(-1)
        valid_to = nxt.where(c[key].eq(c[key].shift(-1)))
        out = pd.DataFrame({
            key: c[key].to_numpy(),
            attr_col: c[attr_col].to_numpy(),
            "valid_from": c[ts_col].to_numpy(),
            "valid_to": valid_to.to_numpy()})
        return out

    return shard_cogroup(ds, key, fold)


def equidepth_histogram(ds: "rd.Dataset", val_col: str, id_col: str,
                        n_bins: int = 16,
                        n_buckets: int = 1024) -> pd.DataFrame:
    """Global equi-DEPTH histogram — ``ntile(n_bins)`` over the whole
    table in ``(val, id)`` order, rolled up to one row per bin with
    (bin, n, min_v, max_v): the optimizer/drift-monitor statistic an
    equi-width histogram can't give on skewed data (every bin holds the
    same row count; bin BOUNDARIES move with the distribution).

    No global sort: ``global_row_number``'s range-bucket prefix scheme
    enumerates rows, the exact ntile split formula (first ``n % bins``
    bins take one extra row) assigns bins arithmetically from the
    global row number, and a bounded per-bin combiner (n_bins rows per
    block) folds counts and typed extrema. Null values are dropped by
    contract (SQL window NULLS would sort last and poison min/max)."""

    filtered = ds.map_batches(
        lambda b: b.dropna(subset=[val_col])[[id_col, val_col]],
        batch_format="pandas")
    # materialize once: both the total count and the bin partials
    # consume the numbered rows (two executions of the enumeration
    # co-group otherwise); the block set is only (id, val, rn)
    numbered = global_row_number(filtered, val_col, id_col,
                                 alias="__rn",
                                 n_buckets=n_buckets).materialize()
    total = numbered.count()
    q, r = total // n_bins, total % n_bins
    big = r * (q + 1)

    def to_bins(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["__rn"].to_numpy(np.int64) - 1  # 0-based
        in_big = rn < big
        tile = np.where(
            in_big, rn // max(q + 1, 1),
            r + np.where(q > 0, (rn - big) // max(q, 1), 0)) + 1
        g = (b.assign(bin=tile).groupby("bin")[val_col]
              .agg(n="size", min_v="min", max_v="max").reset_index())
        g["n"] = g["n"].astype(np.int64)
        return g

    parts = numbered.map_batches(to_bins,
                                 batch_format="pandas").to_pandas()
    out = (parts.groupby("bin", as_index=False)
                .agg(n=("n", "sum"), min_v=("min_v", "min"),
                     max_v=("max_v", "max"))
                .sort_values("bin").reset_index(drop=True))
    out["bin"] = out["bin"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out


def _exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Exact Σ a_i·b_i of two non-negative int64 arrays as a Python
    big int: int64 chunk sums sized so no chunk can overflow, folded
    into arbitrary precision — the roc_auc big-int discipline without
    per-element Python math (chunks stay numpy-vectorized)."""
    if len(a) == 0:
        return 0
    peak = int(a.max()) * int(b.max())
    if peak == 0:
        return 0
    m = max(1, (1 << 62) // peak)
    total = 0
    for i in range(0, len(a), m):
        total += int(np.sum(a[i:i + m] * b[i:i + m]))
    return total


def gini_concentration(ds: "rd.Dataset", val_col: str,
                       scale: int = 100,
                       n_buckets: int = 1024) -> pd.DataFrame:
    """Exact Gini coefficient of a non-negative value column — the
    concentration/inequality audit a corpus-balance report publishes
    (how concentrated is revenue across orders, tokens across sources,
    bytes across hosts): G = (2·Σ rank·x − (n+1)·Σx) / (n·Σx) over
    ascending ranks, in integer micro-units.

    Exactness contract: values are fixed-point quantized ONCE via
    ``floor(x·scale + 0.5)`` (identical in numpy and DuckDB — never
    bankers' rounding), ranks come from ``global_row_number``'s
    range-bucket enumeration (no global sort; the rank-weighted sum is
    tie-invariant, equal values commute), and every product crosses
    workers as an exact big int — rank·cents overflows int64 at
    ~10^12 rows, so per-block partials carry Σ rank·cents as decimal
    STRINGS (``_exact_dot`` chunk sums) and the driver folds
    arbitrary-precision. ``gini_micro = (2W − (n+1)S)·10^6 // (n·S)``
    with Python big-int floor division, mirrored by HUGEINT ``//`` in
    the oracle. Nulls dropped by contract; returns a one-row frame
    (n, sum_scaled, gini_micro); n == 0 or S == 0 → gini null.

    Shape: one min/max aggregate + the bounded bucket-count pass of
    global_row_number + ONE shard co-group; each block then emits a
    three-cell partial — nothing row-sized ever reaches the driver."""

    def quantize(b: pd.DataFrame) -> pd.DataFrame:
        v = b[val_col].to_numpy(np.float64)
        v = v[~np.isnan(v)]
        c = np.floor(v * scale + 0.5).astype(np.int64)
        if len(c) and c.min() < 0:
            raise ValueError(
                "gini_concentration: values must be non-negative "
                "(Gini is undefined for signed data, and the big-int "
                "rank fold requires it)")
        return pd.DataFrame({"__cents": c,
                             "__qid": np.arange(len(c), dtype=np.int64)})

    # __qid is only a per-batch tie filler: global_row_number needs a
    # tie column, but Σ rank·cents is invariant under tie order, so
    # uniqueness across batches is NOT required for correctness
    q = ds.map_batches(quantize, batch_format="pandas")
    numbered = global_row_number(q, "__cents", "__qid", alias="__rn",
                                 n_buckets=n_buckets)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        rn = b["__rn"].to_numpy(np.int64)
        c = b["__cents"].to_numpy(np.int64)
        return pd.DataFrame({
            "__n": pd.array([len(c)], dtype="int64"),
            "__s": [str(int(c.sum(dtype=object)) if len(c) else 0)],
            "__w": [str(_exact_dot(rn, c))]})

    parts = numbered.map_batches(part, batch_format="pandas").to_pandas()
    if "__n" not in parts.columns:  # empty input -> column-less frame
        parts = pd.DataFrame({"__n": pd.array([], dtype="int64"),
                              "__s": [], "__w": []})
    n = int(parts["__n"].sum())
    s1 = sum(int(x) for x in parts["__s"])
    w = sum(int(x) for x in parts["__w"])
    gini = ((2 * w - (n + 1) * s1) * 1_000_000 // (n * s1)
            if n > 0 and s1 > 0 else None)
    return pd.DataFrame({
        "n": pd.array([n], dtype="int64"),
        "sum_scaled": pd.array([s1], dtype="int64"),
        "gini_micro": pd.array([gini], dtype="Int64")})


def grouped_weighted_median(ds: "rd.Dataset", keys: Sequence[str],
                            val_col: str, weight_col: str) -> "rd.Dataset":
    """Exact per-group WEIGHTED (lower) median: the smallest value v
    whose cumulative weight reaches half the group total
    (``2*cumw(v) >= W``) — the robust center under duplication weights
    (revenue-weighted price, token-weighted quality). Weights must be
    integral-valued (cast to int64; the half-total compare is exact
    integer, no float boundary).

    Combiner-shaped BEFORE the holistic step: each batch pre-aggregates
    to (keys, value, weight-sum) rows, ONE shard co-group folds each
    key's distinct-VALUE table (cumsum over value order), never the raw
    rows — the same distinct-table trick as roc_auc. Nulls in value or
    weight drop by contract. Output: (keys..., wmedian, total_w)."""
    keys = list(keys)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=[val_col, weight_col])
        g = (b.assign(__w=b[weight_col].astype(np.int64))
              .groupby([*keys, val_col], sort=False, dropna=False)
              ["__w"].sum().reset_index())
        return g

    partials = ds.map_batches(partial, batch_format="pandas")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (g.groupby([*keys, val_col], as_index=False, sort=False,
                         dropna=False)["__w"].sum()
                .sort_values([*keys, val_col], kind="stable"))
        grp = cnt.groupby(keys, sort=False, dropna=False)
        cum = grp["__w"].cumsum()
        tot = grp["__w"].transform("sum")
        hit = (cnt[2 * cum >= tot]
               .groupby(keys, as_index=False, sort=False).first()
               .rename(columns={val_col: "wmedian"})
               .drop(columns="__w"))
        full = (cnt.groupby(keys, as_index=False, sort=False)["__w"]
                .sum().rename(columns={"__w": "total_w"}))
        return hit.merge(full, on=keys)

    return shard_cogroup(partials, keys[0], fold)


def welch_t_pairs(ds: "rd.Dataset", key: str, val_col: str,
                  scale: int = 100) -> pd.DataFrame:
    """Pairwise Welch two-sample t statistic between every ordered pair
    of groups (key_a < key_b) — the A/B-test / cohort-comparison
    evaluator, derived entirely from ``grouped_moments``' exact power
    sums (the distributed work is ONE combiner pass; the pairing is a
    bounded driver fold over groups², so ``key`` must be
    low-cardinality — priorities, experiment arms, sources).

    Determinism contract: means/variances come from the exact integer
    sums via a FIXED float expression mirrored operation for operation
    in SQL — mean = s1/n, var = (s2 − s1·mean)/(n−1), se2 = v1/n1 +
    v2/n2, t = (mean_a − mean_b)/sqrt(se2) (IEEE sqrt is correctly
    rounded, so libm and DuckDB agree bit for bit), Welch–Satterthwaite
    df likewise; both reported as ``floor(x·10^6)`` micro units (floor
    toward −inf on both engines, t may be negative). Pairs need n ≥ 2
    on both sides; ``se2 == 0`` (both groups constant) yields null t
    and df. The t statistic is scale-invariant up to quantization, and
    both engines share the one quantization.

    Output: (key_a, key_b, n_a, n_b, t_micro, df_micro), key-ordered."""
    import math

    mom = grouped_moments(ds, [key], val_col, scale=scale).to_pandas()
    mom = mom.sort_values(key).reset_index(drop=True)
    rows = []
    for i in range(len(mom)):
        for j in range(i + 1, len(mom)):
            a, b = mom.iloc[i], mom.iloc[j]
            na, nb = int(a["n"]), int(b["n"])
            if na < 2 or nb < 2:
                continue
            ma = float(int(a["s1_scaled"])) / float(na)
            mb = float(int(b["s1_scaled"])) / float(nb)
            va = ((float(int(a["s2_scaled"]))
                   - float(int(a["s1_scaled"])) * ma) / float(na - 1))
            vb = ((float(int(b["s2_scaled"]))
                   - float(int(b["s1_scaled"])) * mb) / float(nb - 1))
            sa = va / float(na)
            sb = vb / float(nb)
            se2 = sa + sb
            if se2 > 0.0:
                t_micro = math.floor((ma - mb) / math.sqrt(se2) * 1e6)
                den = (sa * sa / float(na - 1)
                       + sb * sb / float(nb - 1))
                df_micro = (math.floor(se2 * se2 / den * 1e6)
                            if den > 0.0 else None)
            else:
                t_micro = None
                df_micro = None
            rows.append((a[key], b[key], na, nb, t_micro, df_micro))
    return pd.DataFrame(rows, columns=["key_a", "key_b", "n_a", "n_b",
                                       "t_micro", "df_micro"]).astype(
        {"n_a": "int64", "n_b": "int64", "t_micro": "Int64",
         "df_micro": "Int64"})


def theil_index(ds: "rd.Dataset", val_col: str, group_col: str,
                scale: int = 100) -> pd.DataFrame:
    """Theil T inequality index of a positive value column, with the
    BETWEEN-group component over ``group_col`` — the decomposable
    sibling of ``gini_concentration`` (Theil's T splits exactly into
    between- + within-group terms, so a corpus-balance report can say
    how much concentration the source mix itself explains).

    T = (1/n)·Σ (x_i/μ)·ln(x_i/μ); between-group
    B = Σ_g s_g·ln(s_g/p_g) with s_g the group's value share and p_g
    its count share. Exactness contract (the ``source_js_divergence``
    discipline): values fixed-point quantized once, every transcendental
    is libm ln (math.log == DuckDB ln bit for bit) inside a FIXED
    expression mirrored operation for operation by the oracle, each
    row/group term floored ONCE to pico units and only integers summed
    (order-free); the final division TRUNCATES toward zero (DuckDB's
    ``//`` semantics; the floored sum can undershoot 0 by < n pico).
    Two passes:
    one bounded per-group (n, Σc) combiner fixes n, A and μ = A/n,
    then a per-row floored-contribution pass sums per batch — three
    integers per batch reach the driver. Rows with a null or
    non-positive value drop by contract (ln needs x > 0); a null group
    is a group of its own, as in the oracle's GROUP BY.

    Output: one row (n, sum_scaled, theil_pico, between_pico)."""
    import math

    def totals(b: pd.DataFrame) -> pd.DataFrame:
        f = b[[group_col, val_col]].dropna(subset=[val_col])
        v = f[val_col].to_numpy(np.float64)
        c = np.floor(v * scale + 0.5).astype(np.int64)
        keep = c > 0
        f = f.iloc[keep.nonzero()[0]].assign(__c=c[keep])
        g = f.groupby(group_col, as_index=False, dropna=False).agg(
            __n=("__c", "size"), __s=("__c", "sum"))
        g["__n"] = g["__n"].astype("int64")
        return g

    tot = (ds.map_batches(totals, batch_format="pandas").to_pandas())
    empty = pd.DataFrame({
        "n": pd.array([0], dtype="int64"),
        "sum_scaled": pd.array([0], dtype="int64"),
        "theil_pico": pd.array([None], dtype="Int64"),
        "between_pico": pd.array([None], dtype="Int64")})
    if "__n" not in tot.columns or not len(tot):
        return empty
    grp = tot.groupby(group_col, as_index=False, dropna=False).agg(
        n_g=("__n", "sum"), s_g=("__s", "sum"))
    n = int(grp["n_g"].sum())
    a = int(grp["s_g"].sum())
    if n == 0 or a == 0:
        return empty
    mu = float(a) / float(n)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        f = b[[val_col]].dropna()
        v = f[val_col].to_numpy(np.float64)
        c = np.floor(v * scale + 0.5).astype(np.int64)
        c = c[c > 0]
        # libm per DISTINCT quantized value (np.log is an ulp off
        # DuckDB's ln, so no vectorized log): the floored pico term is
        # a function of c alone, so count*term per unique c sums to
        # exactly the per-row result the oracle computes
        uniq, cnt = np.unique(c, return_counts=True)
        s = sum(int(k) * math.floor((float(x) / mu)
                                    * math.log(float(x) / mu) * 1e12)
                for x, k in zip(uniq, cnt))
        return pd.DataFrame({"__t": [str(s)]})

    parts = ds.map_batches(part, batch_format="pandas").to_pandas()
    t_sum = (sum(int(x) for x in parts["__t"])
             if "__t" in parts.columns else 0)
    between = 0
    for ng, sg in zip(grp["n_g"], grp["s_g"]):
        share = float(int(sg)) / float(a)
        pg = float(int(ng)) / float(n)
        between += math.floor(share * math.log(share / pg) * 1e12)
    tp = abs(t_sum) // n if t_sum >= 0 else -(abs(t_sum) // n)
    return pd.DataFrame({
        "n": pd.array([n], dtype="int64"),
        "sum_scaled": pd.array([a], dtype="int64"),
        "theil_pico": pd.array([tp], dtype="Int64"),
        "between_pico": pd.array([between], dtype="Int64")})


def time_decayed_sum(ds: "rd.Dataset", keys: Sequence[str],
                     ts_col: str, val_col: str, anchor_us: int,
                     half_life_days: float = 14.0,
                     scale: int = 100) -> "rd.Dataset":
    """Per-key exponentially time-decayed value sum — the recency-
    weighted engagement / revenue feature every feature store ships
    (recent activity counts full, activity one half-life old counts
    half): Σ value · 2^(−age/half_life), ages in whole days before a
    fixed ``anchor_us`` (must be ≥ every timestamp so the integer day
    difference is non-negative and ``//`` matches on both engines).

    Exactness contract: value fixed-point quantized; each row's decayed
    weight is ``floor(c · exp(−d · (ln2/half_life)) · 10^6)`` — exp/ln
    are the only transcendentals and both engines call the same libm
    (verified bit-equal over the full day range); the float MULTIPLIES
    are IEEE-exact-rounded so the vectorized numpy product equals
    DuckDB's scalar product bit for bit (unlike log, where numpy's SIMD
    variant drifts — exp here is computed via ``math.exp`` per DISTINCT
    day, not per row). Floored per row, integer sums only; per-key
    partials travel as decimal strings (the grouped_moments discipline —
    micro-weighted cents overflow int64 around 10^6 rows per key).

    Shape: pure combiner — per-batch per-key (n, Σw) partials, ONE
    shard co-group big-int fold. Output: (keys..., n, decayed_micro)."""
    import math

    keys = list(keys)
    lam = math.log(2.0) / float(half_life_days)

    def part(b: pd.DataFrame) -> pd.DataFrame:
        f = b[keys + [ts_col, val_col]].dropna(
            subset=[ts_col, val_col])
        base = {**{k: f[k].iloc[:0] for k in keys},
                "__n": pd.Series([], dtype="int64"),
                "__w": pd.Series([], dtype="object")}
        if not len(f):
            return pd.DataFrame(base)
        ts = f[ts_col].to_numpy("datetime64[us]").astype(np.int64)
        d = (anchor_us - ts) // 86_400_000_000
        if d.min() < 0:
            raise ValueError("time_decayed_sum: anchor_us must be >= "
                             "every timestamp (negative age breaks "
                             "the // parity between engines)")
        v = f[val_col].to_numpy(np.float64)
        c = np.floor(v * scale + 0.5).astype(np.int64)
        uniq, inv = np.unique(d, return_inverse=True)
        fac = np.array([math.exp(-float(x) * lam) for x in uniq],
                       dtype=np.float64)[inv]
        w = np.floor(c.astype(np.float64) * fac * 1e6).astype(np.int64)
        f = f.assign(__w=w).sort_values(keys, kind="stable")
        starts, sizes = _segments(f, keys)
        ww = f["__w"].to_numpy(np.int64)
        rows = {k: f[k].to_numpy()[starts] for k in keys}
        ones_all = np.ones(len(ww), np.int64)
        # signed weights: big-int sum as (positive part) - (negative
        # part), each through the non-negative chunked _exact_dot
        sums = [str(_exact_dot(np.maximum(ww[s:s + z], 0),
                               ones_all[:z])
                    - _exact_dot(np.maximum(-ww[s:s + z], 0),
                                 ones_all[:z]))
                for s, z in zip(starts, sizes)]
        return pd.DataFrame({**rows,
                             "__n": pd.array(sizes, dtype="int64"),
                             "__w": sums})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(keys, as_index=False, sort=False,
                        dropna=False).agg(
            n=("__n", "sum"),
            decayed_micro=("__w", lambda x: str(sum(int(v)
                                                    for v in x))))
        agg["n"] = agg["n"].astype("int64")
        return agg

    return shard_cogroup(ds.map_batches(part, batch_format="pandas"),
                         keys[0], fold)


def global_cumsum(ds: "rd.Dataset", val_col: str, tie_col: str,
                  sum_col: str, alias: str = "cum",
                  n_buckets: int = 1024) -> "rd.Dataset":
    """Global inclusive running SUM of ``sum_col`` in ``(val_col,
    tie_col)`` order — ``SUM(x) OVER (ORDER BY val, tie)`` — WITHOUT a
    global sort: ``global_row_number``'s ordered value-range buckets
    with SUM partials in place of counts (one min/max aggregate fixes
    the domain, bounded per-bucket int64 sum partials → O(n_buckets)
    driver exclusive prefix-SUM broadcast once, one shard co-group
    sorts each bucket locally and adds cumsum + offset). The prefix
    primitive of contribution / Pareto / cumulative-share analyses;
    descending order = negate ``val_col`` at the caller. ``tie_col``
    must be unique; ``sum_col`` must be int64 (exactness contract —
    the running sum never leaves integers; int64 bounds the TOTAL, so
    quantize accordingly). Same skew note as global_row_number: a
    heavily repeated sort value concentrates its rows in one bucket.
    Output: (tie_col, val_col, sum_col, alias)."""
    lo = ds.min(val_col)
    hi = ds.max(val_col)
    span = 0.0 if lo is None or hi is None else float(hi) - float(lo)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        v = b[val_col].to_numpy()
        if span > 0:
            bkt = np.minimum(
                ((v.astype(np.float64) - float(lo)) / span
                 * n_buckets).astype(np.int64), n_buckets - 1)
        else:
            bkt = np.zeros(len(b), dtype=np.int64)
        return pd.DataFrame({tie_col: b[tie_col].to_numpy(),
                             val_col: v,
                             sum_col: b[sum_col].to_numpy(np.int64),
                             "__bkt": bkt})

    tagged = ds.map_batches(tag, batch_format="pandas")

    def bucket_sums(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("__bkt", dropna=False)[sum_col].sum()
        return pd.DataFrame({"__bkt": g.index.to_numpy(),
                             "__ps": g.to_numpy(np.int64)})

    parts = (tagged.map_batches(bucket_sums, batch_format="pandas")
                   .to_pandas())
    sums = np.zeros(n_buckets, dtype=np.int64)
    if "__bkt" in parts.columns:  # empty input -> column-less frame
        np.add.at(sums, parts["__bkt"].to_numpy(np.int64),
                  parts["__ps"].to_numpy(np.int64))
    excl = np.zeros(n_buckets, dtype=np.int64)
    np.cumsum(sums[:-1], out=excl[1:])
    excl_ref = ray.put(excl)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        pre = ray.get(excl_ref)
        g = g.sort_values(["__bkt", val_col, tie_col])
        within = (g.groupby("__bkt", sort=False)[sum_col].cumsum()
                   .to_numpy(np.int64))
        g[alias] = pre[g["__bkt"].to_numpy(np.int64)] + within
        return g.drop(columns="__bkt")

    return shard_cogroup(tagged, "__bkt", fold)
