"""Approximate (sketch-based) aggregates for cardinalities where exact
holistic operators stop scaling: HyperLogLog count-distinct.

The reference has no sketches (SURVEY.md §2.5); this is a scale addition.
At 100 TB an exact COUNT(DISTINCT user) must co-locate every distinct
value; an HLL register bank is a few KB per group and merges with a
pointwise max, so the shuffle moves one fixed-size row per (key, batch)
regardless of input cardinality.

Determinism: value hashing goes through ``hash_strings_u64`` (pandas'
vectorized siphash kernel, fixed key) — one
call per batch instead of one hashlib object per value (the per-value
loop was 10-100x slower). Estimates are bit-identical across runs, batch
sizes, and cluster shapes within one environment (register max and CMS
addition are commutative/associative); sketches are approximate by
contract, so cross-version hash drift only perturbs the estimate within
its stated error bound.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from credit_ocr_backend_ray.functions.hashing import hash_strings_u64


_P = 11                 # 2^11 = 2048 registers, ~2.3% standard error
_M = 1 << _P
_ALPHA = 0.7213 / (1 + 1.079 / _M) * _M * _M


def _hash64(values) -> np.ndarray:
    """Deterministic 64-bit hashes of arbitrary values (via str), one
    vectorized kernel call for the whole list."""
    return hash_strings_u64([str(v) for v in values])


def _registers(values) -> np.ndarray:
    """HLL register bank (uint8[M]) for a list of values."""
    regs = np.zeros(_M, dtype=np.uint8)
    if len(values) == 0:
        return regs
    h = _hash64(values)
    idx = (h >> np.uint64(64 - _P)).astype(np.int64)
    rest = (h << np.uint64(_P)) | np.uint64((1 << _P) - 1)
    # rank = leading zeros of the remaining 64-P bits, + 1
    nlz = np.zeros(len(h), dtype=np.uint8)
    x = rest.copy()
    top = np.uint64(1) << np.uint64(63)
    live = np.ones(len(h), dtype=bool)
    for _ in range(64 - _P + 1):
        hit = live & ((x & top) == 0)
        nlz[hit] += 1
        live &= hit
        if not live.any():
            break
        x = x << np.uint64(1)
    rank = nlz + 1
    np.maximum.at(regs, idx, rank)
    return regs


def _estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction — exact enough for bench-scale groups too."""
    est = _ALPHA / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * _M and zeros:
        est = _M * np.log(_M / zeros)
    return float(est)


_CMS_W = 8192        # count-min width: eps ~ e/W ~ 0.03% of total count
_CMS_D = 4           # depth: failure prob ~ e^-D
# fixed odd multipliers + offsets: D independent row hashes derived from ONE
# vectorized base hash per value via multiply-shift mixing (u64 wraparound)
_CMS_A = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                   0x165667B19E3779F9, 0x27D4EB2F165667C5], dtype=np.uint64)
_CMS_B = np.array([0x85EBCA6B, 0xC2B2AE35, 0x9E3779B1, 0x27D4EB2D],
                  dtype=np.uint64)


def _cms_row_hashes(base: np.ndarray) -> np.ndarray:
    """(D, n) int64 bucket ids from the base hashes: h_d = mix(a_d*h + b_d),
    top bits mod W (top bits avoid the multiply's weak low bits)."""
    mixed = base[None, :] * _CMS_A[:, None] + _CMS_B[:, None]
    mixed ^= mixed >> np.uint64(33)
    return (mixed >> np.uint64(32)).astype(np.int64) % _CMS_W


def _cms_rows(values) -> np.ndarray:
    """Count-min sketch (int64[D, W]) of a value list — one vectorized base
    hash per batch, D derived row hashes."""
    sk = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
    if len(values) == 0:
        return sk
    rows = _cms_row_hashes(_hash64(values))
    for d in range(_CMS_D):
        np.add.at(sk[d], rows[d], 1)
    return sk


def cms_heavy_hitters(ds: "rd.Dataset", col: str, k: int = 20,
                      candidate_pool: int = 200) -> pd.DataFrame:
    """Approximate top-k heavy hitters of ``col`` via a mergeable
    count-min sketch: each batch emits ONE (D x W) counter block plus its
    local top-``candidate_pool`` values (a global heavy hitter is a local
    heavy hitter in at least one batch); sketches sum across batches; the
    candidate union is scored against the merged sketch and the top-k are
    verified with an exact count (one broadcast-set filtered aggregation).
    Shuffle volume: one fixed 256 KB sketch row per batch + small
    candidate lists — independent of cardinality."""
    import ray

    def partial(t: pa.Table) -> pa.Table:
        vals = [str(v) for v in t[col].to_pylist()]
        sk = _cms_rows(vals)
        uniq, counts = np.unique(np.asarray(vals, dtype=object),
                                 return_counts=True)
        top = uniq[np.argsort(-counts)][:candidate_pool]
        return pa.table({
            "sketch": pa.array([sk.tobytes()], pa.binary()),
            "cands": pa.array([list(map(str, top))],
                              pa.list_(pa.string())),
        })

    parts = (ds.map_batches(partial, batch_format="pyarrow")
               .repartition(1).to_pandas())
    sk = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
    cands: set[str] = set()
    for b, c in zip(parts["sketch"], parts["cands"]):
        sk += np.frombuffer(b, dtype=np.int64).reshape(_CMS_D, _CMS_W)
        cands.update(c)

    def estimate(v: str) -> int:
        rows = _cms_row_hashes(_hash64([v]))
        return int(min(sk[d][rows[d, 0]] for d in range(_CMS_D)))

    scored = sorted(cands, key=lambda v: (-estimate(v), v))[:k]

    # exact verification pass for the k winners (broadcast set filter)
    ref = ray.put(set(scored))

    def count_hits(t: pa.Table) -> pa.Table:
        keep = ray.get(ref)
        vals = [str(v) for v in t[col].to_pylist()]
        hits = [v for v in vals if v in keep]
        u, c = np.unique(np.asarray(hits, dtype=object), return_counts=True)
        return pa.table({"value": pa.array(list(map(str, u)), pa.string()),
                         "n": pa.array(c.astype("int64"), pa.int64())})

    exact = (ds.map_batches(count_hits, batch_format="pyarrow").to_pandas()
               .groupby("value", as_index=False)["n"].sum())
    exact["est"] = exact["value"].map(estimate).astype("int64")
    return (exact.sort_values(["n", "value"], ascending=[False, True])
                 .reset_index(drop=True))


_QBINS = 4096


def _bin_quantiles(banks, qs: dict[str, float], lo: float,
                   width: float) -> dict[str, float]:
    """Sum ``_QBINS``-bin count banks (raw int64 bytes) and interpolate
    each quantile linearly inside its winning bin; NaN when the banks
    count nothing."""
    acc = np.zeros(_QBINS, dtype=np.int64)
    for b in banks:
        acc += np.frombuffer(b, dtype=np.int64)
    total = int(acc.sum())
    cum = np.cumsum(acc)
    out: dict[str, float] = {}
    for alias, q in qs.items():
        if total == 0:
            out[alias] = float("nan")
            continue
        target = q * total
        i = int(np.searchsorted(cum, target, side="left"))
        prev = cum[i - 1] if i else 0
        out[alias] = lo + (i + (target - prev) / (acc[i] or 1)) * width
    return out


def approx_quantile(ds: "rd.Dataset", col: str, qs: dict[str, float],
                    lo: float, hi: float) -> "rd.Dataset":
    """Approximate quantiles of ``col`` via a mergeable fixed-grid
    histogram sketch over [lo, hi]: each batch emits one 4096-bin count
    row; bins sum across the shuffle; quantiles interpolate linearly
    inside the winning bin. Error is bounded by the bin width — the
    streaming-scale alternative to the exact (holistic) grouped_quantile,
    which must co-locate every value. Values outside [lo, hi] clamp to
    the edge bins."""
    import ray.data as rd  # noqa: F401 (signature type)

    width = (hi - lo) / _QBINS

    def partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col].to_pylist(), dtype=np.float64)
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, _QBINS - 1)
        counts = np.bincount(idx, minlength=_QBINS).astype(np.int64)
        return pa.table({"counts": pa.array([counts.tobytes()], pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow").repartition(1)

    def finish(t: pa.Table) -> pa.Table:
        out = _bin_quantiles(t["counts"].to_pylist(), qs, lo, width)
        return pa.table({a: pa.array([v], pa.float64())
                         for a, v in out.items()})

    return partials.map_batches(finish, batch_format="pyarrow")


def grouped_approx_quantile(ds: "rd.Dataset", keys: Sequence[str],
                            col: str, qs: dict[str, float], lo: float,
                            hi: float) -> "rd.Dataset":
    """Per-key approximate quantiles via the same mergeable fixed-grid
    histogram as ``approx_quantile``: each batch emits ONE 4096-bin row
    per key (32 KB fixed width — use for BOUNDED key cardinality: enums,
    windows, priorities; per-user keys want the exact holistic
    ``grouped_quantile`` or a smaller grid), bins sum elementwise inside
    one grouped ``map_groups``. Shuffle volume O(keys × batches),
    independent of row count — the per-key form of the streaming-scale
    quantile path."""
    keys = list(keys)
    width = (hi - lo) / _QBINS

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({k: t[k].to_pylist() for k in keys})
        df["__v"] = np.asarray(t[col].to_pylist(), dtype=np.float64)
        rows_k: dict[str, list] = {k: [] for k in keys}
        banks: list[bytes] = []
        for kv, g in df.groupby(keys, sort=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            for k, v in zip(keys, kv):
                rows_k[k].append(v)
            idx = np.clip(((g["__v"].to_numpy() - lo) / width)
                          .astype(np.int64), 0, _QBINS - 1)
            banks.append(np.bincount(idx, minlength=_QBINS)
                         .astype(np.int64).tobytes())
        out = {k: pa.array(rows_k[k]) for k in keys}
        out["__bins"] = pa.array(banks, pa.binary())
        return pa.table(out)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.iloc[:1][keys].assign(
            **_bin_quantiles(g["__bins"], qs, lo, width))

    from credit_ocr_backend_ray.stages.relational import (
        _groupwise, shard_cogroup)
    return shard_cogroup(partials, keys[0], _groupwise(keys, merge))


def approx_count_distinct(ds: "rd.Dataset", keys: Sequence[str], col: str,
                          alias: str = "approx_distinct") -> "rd.Dataset":
    """APPROX COUNT(DISTINCT col) per key: each batch emits one register
    bank per key (fixed 2 KB), banks merge with elementwise max inside one
    grouped ``map_groups``, the estimate finishes per group. The combiner
    shape means shuffle volume is O(groups × batches), independent of the
    number of distinct values."""
    keys = list(keys)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({k: t[k].to_pylist() for k in keys})
        df["__v"] = t[col].to_pylist()
        rows_k: dict[str, list] = {k: [] for k in keys}
        banks: list[bytes] = []
        for kv, g in df.groupby(keys, sort=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            for k, v in zip(keys, kv):
                rows_k[k].append(v)
            banks.append(_registers(g["__v"].to_list()).tobytes())
        out = {k: pa.array(rows_k[k]) for k in keys}
        out["__regs"] = pa.array(banks, pa.binary())
        return pa.table(out)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    # vectorized merge: all banks of a shard as one uint8 matrix,
    # per-key max via reduceat, estimator evaluated for every key at
    # once (chunked so the float64 blow-up stays ~64 MB); matches the
    # scalar _estimate bit-for-bit (same exp2/log, same half-even round)
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys)
        from credit_ocr_backend_ray.stages.relational import _segments
        starts, sizes = _segments(g, keys)
        raw = np.frombuffer(b"".join(g["__regs"]),
                            dtype=np.uint8).reshape(len(g), _M)
        n_seg = len(sizes)
        est = np.empty(n_seg, dtype=np.float64)
        step = 4096
        for s0 in range(0, n_seg, step):
            s1 = min(s0 + step, n_seg)
            r0 = starts[s0]
            r1 = starts[s1 - 1] + sizes[s1 - 1]
            acc = np.maximum.reduceat(raw[r0:r1], starts[s0:s1] - r0,
                                      axis=0)
            e = _ALPHA / np.sum(np.exp2(-acc.astype(np.float64)), axis=1)
            zeros = (acc == 0).sum(axis=1)
            small = (e <= 2.5 * _M) & (zeros > 0)
            e[small] = _M * np.log(_M / zeros[small])
            est[s0:s1] = e
        out = g.iloc[starts][keys].reset_index(drop=True)
        out[alias] = np.round(est).astype("int64")
        return out

    from credit_ocr_backend_ray.stages.relational import shard_cogroup
    return shard_cogroup(partials, keys[0], fold)


def kmv_source_overlap(ds: "rd.Dataset", source_col: str = "source",
                       text_col: str = "text", k: int = 256):
    """Approximate cross-source overlap via K-Minimum-Values sketches —
    the sketch companion to the exact ``corpus_overlap``: per source,
    keep the k smallest u64 hashes of its texts (a mergeable uniform
    sample of the distinct-value space; fixed k·8 bytes per (source,
    batch) crosses the shuffle regardless of corpus size). Per pair
    (bounded: sources are web domains, not documents — the pairwise
    combine runs on the driver over k-sized arrays):

      distinct(A) ≈ (k-1) / kth_smallest(A)   (normalized to [0,1))
      J(A,B)      ≈ |X ∩ A ∩ B| / k,  X = k smallest of A ∪ B
      shared(A,B) ≈ J · distinct(A ∪ B)

    Returns a pandas DataFrame (source_a, source_b, est_jaccard,
    est_shared) for every unordered pair. Deterministic (hash-based),
    rows-only contract: the estimator is approximate by design; the
    error bound (~1/√k relative on J) is asserted in tests against a
    planted overlap."""
    from credit_ocr_backend_ray.functions.hashing import hash_strings_u64

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"s": t[source_col].to_pylist(),
                           "x": t[text_col].to_pylist()})
        srcs, blobs = [], []
        for s, g in df.groupby("s", sort=False):
            h = np.unique(hash_strings_u64([x or "" for x in g["x"]]))
            srcs.append(s)
            blobs.append(h[:k].tobytes())
        return pa.table({source_col: pa.array(srcs, pa.string()),
                         "__kmv": pa.array(blobs, pa.binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        arrs = [np.frombuffer(b, dtype=np.uint64) for b in g["__kmv"]]
        u = np.unique(np.concatenate(arrs))[:k]
        out = g.iloc[:1][[source_col]].copy()
        out["__kmv"] = [u.tobytes()]
        return out

    from credit_ocr_backend_ray.stages.relational import (
        _groupwise, shard_cogroup)
    sketches = shard_cogroup(partials, source_col,
                             _groupwise([source_col], merge)).to_pandas()

    scale = float(2**64)

    def distinct_est(a: np.ndarray) -> float:
        if len(a) < k:
            return float(len(a))  # exact below sketch capacity
        return (k - 1) / (float(a[k - 1]) / scale)

    rows = []
    s_arr = {r[source_col]: np.frombuffer(r["__kmv"], dtype=np.uint64)
             for _, r in sketches.iterrows()}
    names = sorted(s_arr)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ha, hb = s_arr[a], s_arr[b]
            union = np.unique(np.concatenate([ha, hb]))[:k]
            inter = np.intersect1d(union, np.intersect1d(ha, hb))
            j = len(inter) / max(len(union), 1)
            rows.append({"source_a": a, "source_b": b,
                         "est_jaccard": j,
                         "est_shared": j * distinct_est(union)})
    return pd.DataFrame(rows)


# ------------------------------------------------------------- bloom filter

_BLOOM_BITS = 1 << 23    # 1 MiB bitmap; ~0.02% fp at 100k keys, k=4
_BLOOM_K = 4


def _bloom_positions(base: np.ndarray, n_bits: int) -> np.ndarray:
    """(K, n) bit positions from one base hash per value (multiply-shift
    derived rows, same construction as the CMS)."""
    mixed = base[None, :] * _CMS_A[:_BLOOM_K, None] + _CMS_B[:_BLOOM_K, None]
    mixed ^= mixed >> np.uint64(33)
    return (mixed >> np.uint64(24)).astype(np.int64) % n_bits


def bloom_build(keys_ds: "rd.Dataset", col: str,
                n_bits: int = _BLOOM_BITS) -> np.ndarray:
    """Mergeable distributed Bloom filter of a key column: every batch
    emits ONE fixed-size partial bitmap; bitmaps OR-fold on the driver.
    Shuffle volume is O(batches) bitmaps regardless of key cardinality
    (tree-merge the fold across nodes when batches number in the
    millions). Returns the uint8 bitmap."""
    def partial(t: pa.Table) -> pa.Table:
        bits = np.zeros(n_bits // 8, dtype=np.uint8)
        vals = [str(v) for v in t[col].to_pylist()]
        if vals:
            pos = _bloom_positions(_hash64(vals), n_bits).ravel()
            np.bitwise_or.at(bits, pos >> 3,
                             np.left_shift(1, pos & 7).astype(np.uint8))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    parts = keys_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    acc = np.zeros(n_bits // 8, dtype=np.uint8)
    for b in parts["bits"]:
        np.bitwise_or(acc, np.frombuffer(b, dtype=np.uint8), out=acc)
    return acc


def bloom_might_contain(bits: np.ndarray, values: list) -> np.ndarray:
    """Vectorized membership probe: True = maybe present (fp possible),
    False = definitely absent."""
    if not values:
        return np.zeros(0, dtype=bool)
    n_bits = len(bits) * 8
    pos = _bloom_positions(_hash64([str(v) for v in values]), n_bits)
    hit = (bits[pos >> 3] & np.left_shift(1, pos & 7).astype(np.uint8)) != 0
    return hit.all(axis=0)


def bloom_semi_join(ds: "rd.Dataset", keys_ds: "rd.Dataset", on: str,
                    right_on: str | None = None,
                    n_bits: int = _BLOOM_BITS) -> "rd.Dataset":
    """EXACT semi join with a Bloom pre-filter: build the (fixed-size,
    mergeable) bloom over the right keys, broadcast it once, drop every
    left row the bloom rejects (no false negatives, so nothing valid is
    lost), then verify the tiny surviving fraction exactly with the
    co-group semi join. At scale this cuts the all-to-all to
    selectivity + fp-rate of the left volume, for one 1 MiB broadcast —
    the classic join pre-filter, composed from the engine's own parts."""
    import ray

    right_on = right_on or on
    bits = bloom_build(keys_ds, right_on, n_bits)
    bref = ray.put(bits)

    def prefilter(t: pa.Table) -> pa.Table:
        b = ray.get(bref)
        return t.filter(pa.array(
            bloom_might_contain(b, t[on].to_pylist())))

    from credit_ocr_backend_ray.stages.relational import semi_join_cogroup
    survivors = ds.map_batches(prefilter, batch_format="pyarrow")
    return semi_join_cogroup(survivors, keys_ds, on, right_on)


# ------------------------------------------------------------- KLL sketch

_KLL_K = 256  # base level capacity; rank error ~1/K in practice


class KLLSketch:
    """Range-free mergeable quantile sketch (Karnin-Lang-Liberty shape,
    deterministic variant): level h holds items of weight 2^h; a full
    level sorts and promotes alternating items to h+1, with the kept
    parity alternating per compaction (the reproducible stand-in for
    KLL's random coin — rank error stays ~1/k on real data, pinned by
    tests, while runs stay bit-identical, which the oracle/rerun
    contract here requires). Unlike ``approx_quantile``'s fixed-grid
    histogram, NO [lo, hi] range is needed up front — the 100 TB case
    where value ranges are unknown before the scan.

    Capacity schedule: a fixed per-level cap of k (the simple KLL
    variant); memory is O(k log(n/k)) float64s, a few KB at any corpus
    size."""

    def __init__(self, k: int = _KLL_K):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self.n = 0
        self._flips = 0

    def _compact_level(self, h: int) -> None:
        buf = np.sort(self.levels[h])
        keep_from = self._flips & 1
        self._flips += 1
        promoted = buf[keep_from::2]
        left = buf[1 - keep_from::2][: (len(buf) % 2)]
        # odd leftover item stays at level h (weight must not change)
        self.levels[h] = left
        if h + 1 == len(self.levels):
            self.levels.append(np.empty(0, np.float64))
        self.levels[h + 1] = np.concatenate([self.levels[h + 1], promoted])

    def _cascade(self) -> None:
        h = 0
        while h < len(self.levels):
            if len(self.levels[h]) > self.k:
                self._compact_level(h)
            h += 1

    def update(self, values: np.ndarray) -> "KLLSketch":
        v = np.asarray(values, np.float64)
        v = v[~np.isnan(v)]
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._cascade()
        return self

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.float64))
        for h, buf in enumerate(other.levels):
            self.levels[h] = np.concatenate([self.levels[h], buf])
        self.n += other.n
        self._flips += other._flips  # keep parity state deterministic
        self._cascade()
        return self

    def quantile(self, q: float) -> float:
        items = np.concatenate(self.levels)
        weights = np.concatenate([
            np.full(len(buf), 1 << h, np.float64)
            for h, buf in enumerate(self.levels)])
        if not len(items):
            return float("nan")
        order = np.argsort(items, kind="mergesort")
        items, weights = items[order], weights[order]
        cum = np.cumsum(weights)
        target = q * cum[-1]
        return float(items[np.searchsorted(cum, target, side="left")])

    def to_bytes(self) -> bytes:
        import struct as _struct
        head = _struct.pack("<qqq", self.n, self._flips, len(self.levels))
        sizes = np.array([len(b) for b in self.levels], np.int64)
        return (head + sizes.tobytes()
                + np.concatenate(self.levels).tobytes())

    @classmethod
    def from_bytes(cls, data: bytes, k: int = _KLL_K) -> "KLLSketch":
        import struct as _struct
        n, flips, nlev = _struct.unpack_from("<qqq", data, 0)
        sizes = np.frombuffer(data, np.int64, nlev, 24)
        flat = np.frombuffer(data, np.float64, int(sizes.sum()),
                             24 + 8 * nlev)
        s = cls(k)
        s.n, s._flips = int(n), int(flips)
        s.levels = []
        off = 0
        for sz in sizes:
            s.levels.append(flat[off:off + int(sz)].copy())
            off += int(sz)
        return s


def _merge_kll(blobs) -> KLLSketch:
    """Fold serialized KLL sketches in order; an empty sketch when there
    are none."""
    acc: KLLSketch | None = None
    for b in blobs:
        s = KLLSketch.from_bytes(b)
        acc = s if acc is None else acc.merge(s)
    return KLLSketch() if acc is None else acc


def kll_quantiles(ds: "rd.Dataset", col: str,
                  qs: dict[str, float]) -> pd.DataFrame:
    """Range-free approximate quantiles: one KLL sketch per batch (a few
    KB each) crosses the shuffle, merged on the driver — same mergeable
    shape as ``approx_quantile`` but with NO [lo, hi] prior. Rank error
    ~1/256, pinned by tests against exact quantiles."""
    def partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col].to_pylist(), dtype=np.float64)
        return pa.table({"sk": pa.array([KLLSketch().update(v).to_bytes()],
                                        pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    acc = _merge_kll(parts["sk"])
    return pd.DataFrame({alias: [acc.quantile(q)]
                         for alias, q in qs.items()})


def grouped_kll_quantiles(ds: "rd.Dataset", keys: Sequence[str], col: str,
                          qs: dict[str, float]) -> pd.DataFrame:
    """Per-key range-free approximate quantiles: one KLL sketch per
    (key, batch) crosses the shuffle (~4 KB each, independent of row
    count), merged per key on the driver (bounded-cardinality keys —
    the same contract as ``grouped_approx_quantile``, minus its [lo, hi]
    prior)."""
    keys = list(keys)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in b.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            sk = KLLSketch().update(g[col].to_numpy(np.float64))
            rows.append((*kv, sk.to_bytes()))
        return pd.DataFrame(rows, columns=[*keys, "__sk"])

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = []
    for kv, g in parts.groupby(keys, sort=True, dropna=False):
        kv = kv if isinstance(kv, tuple) else (kv,)
        acc = _merge_kll(g["__sk"])
        out.append((*kv, *[acc.quantile(q) for q in qs.values()]))
    return (pd.DataFrame(out, columns=[*keys, *qs.keys()])
            .reset_index(drop=True))
