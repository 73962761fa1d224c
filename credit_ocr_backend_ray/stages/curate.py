"""Web-corpus curation operators: per-key quotas, benchmark
decontamination, quality heuristics, BM25 retrieval.

The reference has no curation layer (its corpus is one credit request
per document, `/root/reference/src/pipeline/document_pipeline.py`); this
module extends the training-data-pipeline surface of SURVEY §2.10a —
the operations a crawl-to-training-set pipeline runs between ingest and
packing, each built from the engine's own combiner/broadcast/semi-join
parts so the scale shapes are inherited, not re-derived:

- ``quota_sample_per_key``: cap every key (host/domain/source) at N
  rows, deterministically — the per-domain quota step of crawl curation.
- ``decontamination_stats``: n-gram overlap of every corpus document
  against a benchmark set (the GPT-3/C4-style train-test leakage check;
  Lee et al. 2022, "Deduplicating Training Data Makes Language Models
  Better", uses the same n-gram machinery).
- ``doc_quality_stats``: Gopher-rule-style repetition/shape heuristics
  (Rae et al. 2021 §A1.1): duplicate-token fraction, mean token length.
- ``bm25_topk``: Okapi BM25 retrieval of the k best documents for a
  term query — corpus statistics via one bounded partial pass, scores
  vectorized per batch, global top-k without a cluster sort.

Determinism contract (shared with the tf-idf op in ``stages/text.py``):
every float score is reported in integer micro-units with per-term
``floor(x*1e6 + 0.5)`` rounding BEFORE any summation, so the DuckDB
oracle hash-matches despite engine float-association differences.
"""

from __future__ import annotations

import hashlib
import math

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from credit_ocr_backend_ray.functions.textstats import tokens
from credit_ocr_backend_ray.stages.relational import (
    global_topk, grouped_agg, shard_cogroup,
)
from credit_ocr_backend_ray.stages.sketch import bloom_semi_join


def quota_sample_per_key(ds: "rd.Dataset", key_col: str, id_col: str,
                         n: int) -> "rd.Dataset":
    """Keep at most ``n`` rows per key, deterministically: rows are
    ranked by ``(md5(str(id)), id)`` — the same engine-independent
    pseudo-random order as ``relational.deterministic_sample``, so the
    kept set is stable under repartitioning and reproducible in any
    engine with an md5 (the oracle is one SQL ``row_number()``).

    Combiner-pruned: each batch keeps its local top-n per key first, so
    at most ``n`` rows per (key, batch) cross the single shuffle — the
    per-domain quota of a crawl curation pass at O(keys·n) shuffle
    volume, never O(rows). md5 stays a per-row loop on purpose (same
    rationale as ``deterministic_sample``: the contract is DuckDB's
    ``md5()`` and no vectorized md5 kernel exists in numpy/pyarrow)."""

    def top_n(b: pd.DataFrame) -> pd.DataFrame:
        return (b.sort_values(["__h", id_col])
                 .groupby(key_col, sort=False).head(n))

    def local(b: pd.DataFrame) -> pd.DataFrame:
        h = [hashlib.md5(str(k).encode()).hexdigest() for k in b[id_col]]
        return top_n(b.assign(__h=h))

    # coarse-shard co-group, not per-key map_groups: the quota key is
    # per-domain — unbounded at crawl scale, and Ray prices groupby(key)
    # by distinct-key count (measured 64-78 s at 400k keys)
    return shard_cogroup(ds.map_batches(local, batch_format="pandas"),
                         key_col, top_n).drop_columns(["__h"])


def ngram_pairs(ds: "rd.Dataset", n: int, text_col: str = "text",
                id_col: str = "doc_id", dedup: bool = False) -> "rd.Dataset":
    """(id, gram) pairs of every length-``n`` token window (whitespace
    tokenization, space-joined grams). ``dedup=True`` emits each gram
    once per document (document-level set semantics)."""

    def emit(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        grams: list[str] = []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            gs = (" ".join(toks[j:j + n])
                  for j in range(len(toks) - n + 1))
            if dedup:
                gs = set(gs)
            for g in gs:
                ids.append(i)
                grams.append(g)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "gram": pa.array(grams, pa.string())})

    return ds.map_batches(emit, batch_format="pyarrow")


def decontamination_stats(corpus: "rd.Dataset", benchmark: "rd.Dataset",
                          n: int = 5, text_col: str = "text",
                          id_col: str = "doc_id") -> "rd.Dataset":
    """Benchmark decontamination check: for every corpus document with
    at least one ``n``-gram, count its total n-gram positions and how
    many of them also occur in the benchmark corpus. Returned as
    ``(id, n_grams, n_contaminated)`` — always one row per eligible
    document, so the result is non-empty whether or not any overlap
    exists (downstream decides the drop threshold).

    Scale shape: the benchmark gram set is pre-filtered with the
    mergeable 1 MiB Bloom broadcast and exact-verified with the
    co-grouped semi join (``sketch.bloom_semi_join`` — no false
    negatives, false positives verified away), so only the surviving
    fraction of corpus grams crosses the all-to-all. The two per-doc
    counts merge by a tagged union + one combiner groupby — no
    Dataset.join (empty-block-safe)."""
    grams = ngram_pairs(corpus, n, text_col, id_col)
    bench = (ngram_pairs(benchmark, n, text_col, id_col, dedup=True)
             .select_columns(["gram"]))
    hits = bloom_semi_join(grams, bench, on="gram")

    def _count(colname: str):
        def f(t: pa.Table) -> pa.Table:
            g = t.group_by([id_col]).aggregate([([], "count_all")])
            cnt = g["count_all"].to_numpy(zero_copy_only=False)
            zero = np.zeros(len(g), np.int64)
            tot = cnt if colname == "__tot" else zero
            con = cnt if colname == "__cont" else zero
            return pa.table({id_col: g[id_col],
                             "__tot": pa.array(tot, pa.int64()),
                             "__cont": pa.array(con, pa.int64())})
        return f

    u = (grams.map_batches(_count("__tot"), batch_format="pyarrow")
              .union(hits.map_batches(_count("__cont"),
                                      batch_format="pyarrow")))
    return grouped_agg(u, [id_col],
                       {"__tot": "n_grams", "__cont": "n_contaminated"},
                       count_alias=None)


def doc_quality_stats(ds: "rd.Dataset", text_col: str = "text",
                      id_col: str = "doc_id") -> "rd.Dataset":
    """Gopher-style repetition/shape heuristics per document (Rae et
    al. 2021 §A1.1 family): token count, distinct-token count,
    duplicate-token fraction and mean token length — the latter two in
    integer micro-units (``floor(x*1e6 + 0.5)``) for engine-independent
    hashing. Documents with no tokens are excluded (they carry no
    signal and match the oracle's ``len > 0`` gate). Stateless
    single-pass map — no shuffle."""

    def stats(t: pa.Table) -> pa.Table:
        ids, nt, nd, dup, mlen = [], [], [], [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            if not toks:
                continue
            n_tok = len(toks)
            n_dis = len(set(toks))
            ids.append(i)
            nt.append(n_tok)
            nd.append(n_dis)
            dup.append(int(math.floor((1.0 - n_dis / n_tok) * 1e6 + 0.5)))
            mlen.append(int(math.floor(
                sum(len(tk) for tk in toks) / n_tok * 1e6 + 0.5)))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_tokens": pa.array(nt, pa.int64()),
                         "n_distinct_tokens": pa.array(nd, pa.int64()),
                         "dup_token_frac_micro": pa.array(dup, pa.int64()),
                         "mean_token_len_micro": pa.array(mlen, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow")


def source_reputation(ds: "rd.Dataset", key_col: str = "source",
                      text_col: str = "text",
                      id_col: str = "doc_id") -> "rd.Dataset":
    """Per-source quality roll-up (the source-level filtering signal of
    RefinedWeb-style curation): for every ``key_col`` value, the number
    of tokenized documents, their total token count, and the mean
    duplicate-token fraction — reported as the floor of the per-doc
    micro-unit mean (``sum_dup_micro // n_docs``, integer-exact on both
    engine and oracle). Zero-token documents are excluded, matching
    ``doc_quality_stats``.

    Combiner shape: each batch collapses to one fixed-width row per
    (source, batch) before the single small ``groupby(source)`` — the
    shuffle volume is O(sources·batches), never O(docs)."""

    def partial(t: pa.Table) -> pa.Table:
        agg: dict[str, list[int]] = {}
        for k, txt in zip(t[key_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            if not toks:
                continue
            n_tok = len(toks)
            dup = int(math.floor(
                (1.0 - len(set(toks)) / n_tok) * 1e6 + 0.5))
            a = agg.setdefault(k, [0, 0, 0])
            a[0] += 1
            a[1] += n_tok
            a[2] += dup
        keys = sorted(agg)
        return pa.table({
            key_col: pa.array(keys, pa.string()),
            "n_docs": pa.array([agg[k][0] for k in keys], pa.int64()),
            "total_tokens": pa.array([agg[k][1] for k in keys], pa.int64()),
            "__dup": pa.array([agg[k][2] for k in keys], pa.int64()),
        })

    summed = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"), [key_col],
        {"n_docs": "n_docs", "total_tokens": "total_tokens",
         "__dup": "__dup"},
        count_alias=None)

    def finish(t: pa.Table) -> pa.Table:
        nd = t["n_docs"].to_numpy(zero_copy_only=False)
        dup = t["__dup"].to_numpy(zero_copy_only=False)
        return pa.table({key_col: t[key_col],
                         "n_docs": t["n_docs"],
                         "total_tokens": t["total_tokens"],
                         "mean_dup_micro": pa.array(dup // nd, pa.int64())})

    return summed.map_batches(finish, batch_format="pyarrow")


def bm25_topk(ds: "rd.Dataset", query_terms: list[str], k: int = 20,
              k1: float = 1.2, b: float = 0.75, text_col: str = "text",
              id_col: str = "doc_id") -> "rd.Dataset":
    """Okapi BM25 top-``k`` documents for a bag-of-terms query:
    ``score = Σ_t idf(t)·tf·(k1+1)/(tf + k1·(1-b+b·dl/avgdl))`` with
    ``idf(t) = ln((N-df+0.5)/(df+0.5) + 1)``. Per-term scores round to
    integer micro-units BEFORE the sum (determinism contract above);
    ties break doc-id-ascending. Documents containing none of the query
    terms are never scored.

    Scale shape: corpus statistics (N, Σdl, per-term df) come from ONE
    bounded partial pass — each batch emits a single fixed-width row, so
    the driver folds O(batches) rows no matter the corpus size (same
    pattern as ``sketch.bloom_build``). The scoring pass is stateless
    with the tiny (term→idf, avgdl) closure shipped once per worker;
    the top-k needs no cluster sort (``relational.global_topk``)."""
    terms = list(dict.fromkeys(query_terms))  # stable order, unique
    t_index = {t: j for j, t in enumerate(terms)}

    def partial(t: pa.Table) -> pa.Table:
        n_docs, sum_dl = 0, 0
        df = np.zeros(len(terms), np.int64)
        for txt in t[text_col].to_pylist():
            toks = tokens(txt)
            if not toks:
                continue
            n_docs += 1
            sum_dl += len(toks)
            seen = set(toks)
            for term, j in t_index.items():
                if term in seen:
                    df[j] += 1
        cols = {"__nd": pa.array([n_docs], pa.int64()),
                "__dl": pa.array([sum_dl], pa.int64())}
        for term, j in t_index.items():
            cols[f"__df{j}"] = pa.array([int(df[j])], pa.int64())
        return pa.table(cols)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n_total = int(parts["__nd"].sum())
    avgdl = float(parts["__dl"].sum()) / n_total
    idf = {t: math.log((n_total - int(parts[f"__df{j}"].sum()) + 0.5)
                       / (int(parts[f"__df{j}"].sum()) + 0.5) + 1.0)
           for t, j in t_index.items()}

    def score(t: pa.Table) -> pa.Table:
        ids, scores = [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            if not toks:
                continue
            dl = len(toks)
            norm = k1 * (1.0 - b + b * dl / avgdl)
            s, any_hit = 0, False
            for term, w in idf.items():
                tf = toks.count(term)
                if tf:
                    any_hit = True
                    s += int(math.floor(
                        w * tf * (k1 + 1.0) / (tf + norm) * 1e6 + 0.5))
            if any_hit:
                ids.append(i)
                scores.append(s)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "score_micro": pa.array(scores, pa.int64())})

    scored = ds.map_batches(score, batch_format="pyarrow")
    return global_topk(scored, ["score_micro", id_col], k,
                       ascending=[False, True])


def rrf_fuse(rank_lists: list[pd.DataFrame], id_col: str = "doc_id",
             k_const: int = 60, topn: int = 20) -> pd.DataFrame:
    """Reciprocal-rank fusion (Cormack/Clarke/Buettcher 2009) of top-K
    ranked lists: ``rrf(d) = Σ_r 1/(k + rank_r(d))`` over the rankers
    that returned d, in exact integer micro-units
    (``10^6 // (k + rank)``, floor-division both engines) so the fused
    scores and the topn cut are engine-independent — the standard way to
    combine a lexical (BM25) and a dense (embedding-cosine) retriever
    without score calibration.

    Each input frame is an already-TRUNCATED top-K list carrying
    ``(id_col, rank)`` with rank starting at 1; the fusion itself is
    O(Σ K) driver-side — bounded by the rankers' K, never corpus-sized
    (the distributed work lives in the rankers: ``bm25_topk``'s bounded
    partial pass + ``knn_bruteforce``, which runs on the one top-k layer
    of ``stages/similarity.py``, ``_scored_topk``: a per-batch top-k
    and a driver merge, ties by id)."""
    scores: dict[int, int] = {}
    for rl in rank_lists:
        for i, r in zip(rl[id_col].tolist(), rl["rank"].tolist()):
            scores[i] = scores.get(i, 0) + 1_000_000 // (k_const + int(r))
    top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:topn]
    return pd.DataFrame({
        id_col: pd.Series([i for i, _ in top], dtype="int64"),
        "rrf_micro": pd.Series([s for _, s in top], dtype="int64")})


def temperature_mix_sample(ds: "rd.Dataset", group_col: str = "source",
                           id_col: str = "doc_id",
                           target_frac_denom: int = 2) -> "rd.Dataset":
    """Temperature-based source mixing (the data-mixing step of an LLM
    corpus: sample source s with probability ∝ n_s^alpha, alpha = 0.5,
    so small sources are UP-weighted relative to their share — the
    multilingual/multi-domain rebalancing rule). Target size is
    ``ntot // target_frac_denom`` rows.

    Engine-independence: weights use the INTEGER square root
    (floor(sqrt(n)) — exact for n < 2^52), and each source's keep
    threshold is computed in exact integer arithmetic
    ``min(2^32, (2^32 * T * isqrt(n_s)) // (S * n_s))`` with
    ``S = Σ isqrt(n_t)`` — no float sum whose association order could
    drift between engines. Row selection is the md5-u32 rule of
    ``deterministic_sample`` (same per-key md5-on-purpose contract).

    Shape: one combiner count aggregate (driver-sized by the bounded
    source cardinality — sources are a mixing decision, not data), a
    closure-captured threshold map, then a single stateless filter pass
    — no shuffle of the payload stream."""
    cdf = grouped_agg(ds.select_columns([group_col]), [group_col], {},
                      count_alias="n").to_pandas()
    counts = {str(r[group_col]): int(r["n"]) for _, r in cdf.iterrows()}
    ntot = sum(counts.values())
    target = ntot // target_frac_denom
    ssum = sum(math.isqrt(n) for n in counts.values())
    thr = {
        s: min(1 << 32, ((1 << 32) * target * math.isqrt(n)) // (ssum * n))
        for s, n in counts.items()
    }

    def filt(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        srcs = t[group_col].to_pylist()
        keep = np.fromiter(
            (int.from_bytes(
                hashlib.md5(str(i).encode()).digest()[:4], "big")
             < thr.get(str(s), 0) for i, s in zip(ids, srcs)),
            dtype=bool, count=len(ids))
        return t.filter(pa.array(keep))

    return ds.map_batches(filt, batch_format="pyarrow")


def duplicate_gram_stats(ds: "rd.Dataset", n: int = 8,
                         text_col: str = "text", id_col: str = "doc_id"
                         ) -> "rd.Dataset":
    """Fine-grained exact-substring duplication statistics (the signal
    behind Lee et al., "Deduplicating Training Data Makes Language
    Models Better", ACL'22): per document, its total count of length-
    ``n`` token windows and how many of those positions carry a gram
    that occurs at least twice ANYWHERE in the corpus (within the same
    document counts too). Downstream decides whether to cut spans or
    drop documents.

    Shape: per-batch (gram, doc, count) combiner rows (each position
    counted, but one row per distinct (gram, doc) per batch crosses the
    wire), ONE gram-shard co-group in which each gram's corpus-wide
    total is known — a vectorized transform-sum, no per-gram loop —
    then a per-doc combiner sum. Gram STRINGS are the shuffle key here
    (exactness contract shared with ``decontamination_stats``); at
    extreme scale swap the key for a 128-bit gram hash and accept the
    astronomically-small collision odds."""
    def local_counts(t: pa.Table) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            for j in range(len(toks) - n + 1):
                c[(" ".join(toks[j:j + n]), i)] += 1
        return pa.table({
            "gram": pa.array([k[0] for k in c], pa.string()),
            id_col: pa.array([k[1] for k in c], pa.int64()),
            "__c": pa.array(list(c.values()), pa.int64()),
        })

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("gram", sort=False)["__c"].transform("sum")
        dup = np.where(tot.to_numpy(np.int64) >= 2,
                       g["__c"].to_numpy(np.int64), 0)
        out = pd.DataFrame({id_col: g[id_col],
                            "__pos": g["__c"].astype("int64"),
                            "__dup": dup})
        return (out.groupby(id_col, as_index=False)
                   .agg(__pos=("__pos", "sum"), __dup=("__dup", "sum")))

    parted = shard_cogroup(
        ds.map_batches(local_counts, batch_format="pyarrow"), "gram",
        per_shard)
    return grouped_agg(parted, [id_col],
                       {"__pos": "n_grams", "__dup": "n_dup_grams"},
                       count_alias=None)


def substring_dedup(ds: "rd.Dataset", n: int = 8,
                    text_col: str = "text",
                    id_col: str = "doc_id") -> "rd.Dataset":
    """Exact-substring span dedup — the CUT step of Lee et al. (ACL'22)
    next to ``duplicate_gram_stats``'s counting step: every token
    position covered by a length-``n`` token window whose exact text
    occurs at least twice ANYWHERE in the corpus (same document counts)
    is removed from the document. This is the aggressive deterministic
    variant (all occurrences cut, no canonical survivor) used as a
    strong repetition filter; documents shorter than ``n`` tokens pass
    through untouched. The reference has no counterpart (its corpus is
    one credit request per document) — a §2.10a training-data addition.

    Shape: (1) window emit — one (gram, doc, start) row per token
    position, sharded by gram hash; the one-row-per-position shuffle is
    the inherent cost of exact-substring dedup (swap the string key for
    a 128-bit gram hash at extreme scale, the contract shared with
    ``duplicate_gram_stats``); (2) one vectorized transform-count per
    gram shard keeps only duplicated starts — the output is bounded by
    the duplicated mass, typically a small fraction of the corpus;
    (3) ONE doc-keyed co-group of the docs table against the duplicated
    starts: interval union via a +1/-1 difference array, text rebuilt
    from the uncovered positions. No stage holds more than a shard.

    Output: (doc_id, n_tokens, n_dup_tokens, text_cut)."""
    def emit(t: pa.Table) -> pa.Table:
        grams: list[str] = []
        ids: list[int] = []
        starts: list[int] = []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            for j in range(len(toks) - n + 1):
                grams.append(" ".join(toks[j:j + n]))
                ids.append(i)
                starts.append(j)
        return pa.table({
            "gram": pa.array(grams, pa.string()),
            id_col: pa.array(ids, pa.int64()),
            "__start": pa.array(starts, pa.int64()),
        })

    def dup_starts(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("gram", sort=False)["gram"].transform("size")
        out = g.loc[tot.to_numpy(np.int64) >= 2, [id_col, "__start"]]
        return (out.astype({id_col: "int64", "__start": "int64"})
                   .reset_index(drop=True))

    dups = shard_cogroup(ds.map_batches(emit, batch_format="pyarrow"),
                         "gram", dup_starts)

    def tag_docs(b: pd.DataFrame) -> pd.DataFrame:
        # positional arrays throughout: incoming blocks may carry a
        # non-default index and pandas would align Series against it
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(np.int64),
            text_col: pd.array(b[text_col].tolist(), dtype=object),
            "__start": np.full(len(b), -1, np.int64),
            "__side": np.zeros(len(b), np.int8),
        })

    def tag_dups(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(np.int64),
            text_col: pd.array([None] * len(b), dtype=object),
            "__start": b["__start"].to_numpy(np.int64),
            "__side": np.ones(len(b), np.int8),
        })

    def cut(g: pd.DataFrame) -> pd.DataFrame:
        side = g["__side"].to_numpy(np.int8)
        starts_by_doc = {
            did: grp["__start"].to_numpy(np.int64)
            for did, grp in g[side == 1].groupby(id_col, sort=False)}
        docs = g[side == 0]
        ids_out: list[int] = []
        ntok: list[int] = []
        ndup: list[int] = []
        txts: list[str] = []
        for did, txt in zip(docs[id_col].to_numpy(np.int64),
                            docs[text_col]):
            toks = tokens(txt)
            length = len(toks)
            s = starts_by_doc.get(did)
            if s is None or length == 0:
                covered_n, cut_txt = 0, " ".join(toks)
            else:
                diff = np.zeros(length + 1, np.int64)
                np.add.at(diff, s, 1)
                np.add.at(diff, s + n, -1)
                covered = np.cumsum(diff[:length]) > 0
                covered_n = int(covered.sum())
                cut_txt = " ".join(
                    tok for tok, c in zip(toks, covered) if not c)
            ids_out.append(int(did))
            ntok.append(length)
            ndup.append(covered_n)
            txts.append(cut_txt)
        return pd.DataFrame({
            id_col: pd.array(ids_out, dtype="int64"),
            "n_tokens": pd.array(ntok, dtype="int64"),
            "n_dup_tokens": pd.array(ndup, dtype="int64"),
            "text_cut": pd.array(txts, dtype=object),
        })

    docs_side = (ds.select_columns([id_col, text_col])
                   .map_batches(tag_docs, batch_format="pandas"))
    dups_side = dups.map_batches(tag_dups, batch_format="pandas")
    return shard_cogroup(docs_side.union(dups_side), id_col, cut)


def nb_source_score(ds: "rd.Dataset", pos_source: str,
                    text_col: str = "text", id_col: str = "doc_id",
                    source_col: str = "source",
                    max_vocab_rows: int = 50_000_000,
                    keep_cols: Sequence[str] = ()) -> "rd.Dataset":
    """Quality-classifier filter, the GPT-3/PaLM shape (Brown et al.
    2020 §A: a linear classifier trained to separate a curated source
    from raw CommonCrawl, then used to score every crawl document) —
    restated as multinomial naive-Bayes log-odds, the deterministic
    shuffle-free sibling of that logistic model. The reference has no
    counterpart; §2.10a training-data addition.

    Exactness contract (the ``unigram_nll`` trick): the transcendental
    stays OFF the distributed path. Each token weight is quantized ONCE
    on the driver to int64 micro-nats
    ``floor((ln((cpos+1)/(Npos+V)) - ln((cneg+1)/(Nneg+V))) * 1e6)``
    (Laplace smoothing, V = corpus distinct-token count), the class
    prior ``floor(ln(Dpos/Dneg) * 1e6)`` likewise; scoring is an exact
    int64 sum — order-independent and bit-equal to the DuckDB
    restatement (same libm ln).

    Scale: training is ONE combiner token-count pass (per-batch Counter
    → (token, cpos, cneg) partial rows; per-batch DOC counts ride the
    same table as a single null-token row, which ``grouped_agg`` keeps
    as one null group).
    The weight table is the corpus distinct vocabulary — guarded by
    ``max_vocab_rows`` (learn_bpe's cap pattern; raise it consciously
    or pre-prune the corpus) — broadcast once via ``ray.put``; scoring
    is a stateless vectorized map (Series.map + np.add.reduceat).

    Output: (doc_id, n_tokens, score_micro, is_pos) over every input
    document; zero-token documents carry the bare prior."""
    import itertools
    from collections import Counter

    def count_partial(t: pa.Table) -> pa.Table:
        cp: Counter = Counter()
        cn: Counter = Counter()
        dp = dn = 0
        for src, txt in zip(t[source_col].to_pylist(),
                            t[text_col].to_pylist()):
            if src == pos_source:
                cp.update(tokens(txt))
                dp += 1
            else:
                cn.update(tokens(txt))
                dn += 1
        vocab = list(cp.keys() | cn.keys())
        return pa.table({
            "token": pa.array(vocab + [None], pa.string()),
            "__cp": pa.array([cp.get(k, 0) for k in vocab] + [dp],
                             pa.int64()),
            "__cn": pa.array([cn.get(k, 0) for k in vocab] + [dn],
                             pa.int64()),
        })

    counts = grouped_agg(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["token"], {"__cp": "cp", "__cn": "cn"},
        count_alias=None).materialize()
    n_rows = counts.count()
    if n_rows - 1 > max_vocab_rows:
        raise ValueError(
            f"nb_source_score: corpus vocabulary {n_rows - 1} exceeds "
            f"max_vocab_rows={max_vocab_rows}; the weight table must "
            "stay driver-bounded — prune the corpus or raise the cap "
            "consciously")
    pdf = counts.to_pandas()
    null_row = pdf[pdf["token"].isna()]
    d_pos = int(null_row["cp"].iloc[0])
    d_neg = int(null_row["cn"].iloc[0])
    if d_pos == 0 or d_neg == 0:
        raise ValueError("nb_source_score: both classes need at least "
                         f"one document (pos={d_pos}, neg={d_neg})")
    vocab_pdf = pdf[pdf["token"].notna()]
    v = len(vocab_pdf)
    n_pos = int(vocab_pdf["cp"].sum())
    n_neg = int(vocab_pdf["cn"].sum())
    lut: dict[str, int] = {
        tok: math.floor((math.log((cp + 1) / (n_pos + v))
                         - math.log((cn + 1) / (n_neg + v))) * 1e6)
        for tok, cp, cn in zip(vocab_pdf["token"], vocab_pdf["cp"],
                               vocab_pdf["cn"])}
    unseen = math.floor((math.log(1 / (n_pos + v))
                         - math.log(1 / (n_neg + v))) * 1e6)
    prior = math.floor(math.log(d_pos / d_neg) * 1e6)
    lut_ref = ray.put(lut)

    def score(t: pa.Table) -> pa.Table:
        mdl = ray.get(lut_ref)
        doc_ids = t[id_col].to_pylist()
        doc_toks = [tokens(txt) for txt in t[text_col].to_pylist()]
        lens = np.fromiter((len(x) for x in doc_toks), dtype=np.int64,
                           count=len(doc_toks))
        totals = np.full(len(doc_ids), prior, np.int64)
        nz = lens > 0
        if nz.any():
            flat = list(itertools.chain.from_iterable(doc_toks))
            wm = (pd.Series(flat, dtype=object).map(mdl)
                    .fillna(unseen).to_numpy(dtype=np.int64))
            bounds = np.concatenate(([0], np.cumsum(lens[nz])[:-1]))
            totals[nz] += np.add.reduceat(wm, bounds)
        out = {
            id_col: pa.array(doc_ids, pa.int64()),
            "n_tokens": pa.array(lens),
            "score_micro": pa.array(totals),
            "is_pos": pa.array((totals > 0).astype(np.int32)),
        }
        for c in keep_cols:  # pass-through (e.g. the gold label source)
            out[c] = t[c]
        return pa.table(out)

    return ds.map_batches(score, batch_format="pyarrow")


# ------------------------------------------------- importance resampling

def doc_importance(ds: "rd.Dataset", target_source: str,
                   n_buckets: int = 4096, text_col: str = "text",
                   id_col: str = "doc_id",
                   source_col: str = "source") -> "rd.Dataset":
    """DSIR-style hashed-unigram importance weights (Xie et al. 2023,
    arXiv:2302.03169): score every document by how target-like its
    token distribution is, using +1-smoothed hashed-bucket unigram LMs —
    importance(d) = sum over d's tokens of
    ``ln p_target(bucket) - ln p_raw(bucket)``. High scores mark raw
    documents that look like the ``target_source`` slice; feed them to
    ``weighted-ticket`` sampling (``relational.weighted_sample``) for the
    actual resample.

    Integer-exact contract (the repo's micro-unit convention): each log
    factor is floored to micro-nats SEPARATELY —
    ``floor(1e6*ln(n+1)) - floor(1e6*ln(total+B))`` — so every per-token
    weight is an int64 and the per-doc sum is order-independent; DuckDB
    computes the identical floors from the identical integer counts (the
    ``user_event_entropy`` ln-equality precedent, hardened by flooring
    before the sum instead of rounding after it). Buckets use the
    engine-independent ``md5 hex[:15] -> BIGINT`` hash shared with
    ``epoch_packed_sequences``.

    Scale shape: one combiner pass emits <= ``n_buckets`` fixed-width
    partial rows per batch (bounded keys); the ratio
    table (B int64s) broadcasts via ``ray.put``; the scoring pass is
    stateless per batch. No shuffle anywhere; per-batch md5 work is
    memoized per distinct token."""
    memo: dict[str, int] = {}

    def bucket(tok: str) -> int:
        b = memo.get(tok)
        if b is None:
            if len(memo) > 1_000_000:
                memo.clear()
            b = int(hashlib.md5(tok.encode()).hexdigest()[:15], 16) \
                % n_buckets
            memo[tok] = b
        return b

    def partial(t: pa.Table) -> pa.Table:
        from collections import Counter
        raw: Counter = Counter()
        tgt: Counter = Counter()
        for txt, src in zip(t[text_col].to_pylist(),
                            t[source_col].to_pylist()):
            is_t = src == target_source
            for tok in tokens(txt):
                b = bucket(tok)
                raw[b] += 1
                if is_t:
                    tgt[b] += 1
        ks = sorted(raw)
        return pa.table({
            "bk": pa.array(ks, pa.int64()),
            "__r": pa.array([raw[k] for k in ks], pa.int64()),
            "__t": pa.array([tgt.get(k, 0) for k in ks], pa.int64()),
        })

    hist = grouped_agg(ds.select_columns([text_col, source_col])
                       .map_batches(partial, batch_format="pyarrow"),
                       ["bk"], {"__r": "n_raw", "__t": "n_tgt"},
                       count_alias=None).to_pandas()
    r_total = int(hist["n_raw"].sum())
    t_total = int(hist["n_tgt"].sum())

    def micro_ln(x: np.ndarray | int) -> np.ndarray:
        # math.log, not np.log: numpy's SIMD log differs from libm by
        # an ulp on ~27% of integer inputs, and DuckDB's ln IS libm —
        # a micro-floor one ulp below an integer would flip the oracle
        # (~1e-9/value lottery; the bucket table is ~n_buckets rows, so
        # the scalar loop is free)
        arr = np.asarray(x, np.float64).reshape(-1)
        return np.array([math.floor(1e6 * math.log(v)) for v in arr],
                        dtype=np.int64)

    w = ((micro_ln(hist["n_tgt"].to_numpy() + 1)
          - micro_ln(t_total + n_buckets))
         - (micro_ln(hist["n_raw"].to_numpy() + 1)
            - micro_ln(r_total + n_buckets)))
    wmap = dict(zip(hist["bk"].astype(int), w.astype(int)))
    ref = ray.put(wmap)

    def score(t: pa.Table) -> pa.Table:
        wm = ray.get(ref)
        ids: list[int] = []
        nt: list[int] = []
        imp: list[int] = []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            if not toks:
                continue
            ids.append(i)
            nt.append(len(toks))
            imp.append(sum(wm[bucket(tok)] for tok in toks))
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "importance_micro": pa.array(imp, pa.int64()),
        })

    return (ds.select_columns([id_col, text_col])
              .map_batches(score, batch_format="pyarrow"))


# Gopher's repetition table also gates on the character share of the
# single most frequent n-gram and on stop-word presence (Rae et al.
# 2021 Table A1, rows "top n-gram character fraction" and the MassiveWeb
# stop-word rule).  ``doc_quality_stats`` above covers the token-level
# shape rules; this op covers the argmax-gram family.  The same list
# Gopher uses, plus bare "a" (the synthetic corpus' only other
# function word):
_STOPWORDS = ("a", "and", "be", "have", "of", "that", "the", "to", "with")


def gopher_topgram_stats(ds: "rd.Dataset", text_col: str = "text",
                         id_col: str = "doc_id") -> "rd.Dataset":
    """Per-document top-n-gram character fractions (n = 2, 3) and
    stop-word counts — the remaining Gopher repetition signals.

    For each document: the most frequent token n-gram (ties broken by
    lexicographically smallest space-joined gram, so the argmax itself
    is deterministic and oracle-checkable), and the fraction of the
    document's characters its occurrences cover::

        frac = count(gram) * chars(gram) / total_token_chars

    where ``chars`` counts token characters only (no separators) — the
    fraction can exceed 1 for heavily-overlapping repeats, which is
    fine: Gopher thresholds it, it never treats it as a probability.
    Fractions are integer micro-units via exact integer rounding
    ``(2*num*1e6 + den) // (2*den)`` (== floor(num/den*1e6 + 0.5) with
    no float in the loop), so the DuckDB oracle hash-matches bit-exactly.

    Documents with no tokens are excluded; a document shorter than n
    tokens reports frac 0 and an empty-string gram for that n.

    Scale shape: stateless single-pass ``map_batches`` — per-doc
    Counters over a bounded token list, nothing crosses the wire but
    one output row per document.  No shuffle."""
    from collections import Counter

    sw = frozenset(_STOPWORDS)

    def top_gram(toks: list[str], n: int) -> tuple[str, int]:
        if len(toks) < n:
            return "", 0
        c = Counter(" ".join(toks[j:j + n]) for j in range(len(toks) - n + 1))
        best = max(c.values())
        gram = min(g for g, k in c.items() if k == best)
        return gram, best

    def stats(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        cols: dict[str, list] = {k: [] for k in (
            "top2_gram", "top2_frac_micro", "top3_gram", "top3_frac_micro",
            "stopword_count", "stopword_frac_micro")}
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            if not toks:
                continue
            n_chars = sum(len(tk) for tk in toks)
            ids.append(i)
            for n in (2, 3):
                gram, cnt = top_gram(toks, n)
                glen = len(gram) - (n - 1) if gram else 0
                num = cnt * glen
                cols[f"top{n}_gram"].append(gram)
                cols[f"top{n}_frac_micro"].append(
                    (2 * num * 1_000_000 + n_chars) // (2 * n_chars))
            nsw = sum(tk in sw for tk in toks)
            cols["stopword_count"].append(nsw)
            cols["stopword_frac_micro"].append(
                (2 * nsw * 1_000_000 + len(toks)) // (2 * len(toks)))
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "top2_gram": pa.array(cols["top2_gram"], pa.string()),
            "top2_frac_micro": pa.array(cols["top2_frac_micro"], pa.int64()),
            "top3_gram": pa.array(cols["top3_gram"], pa.string()),
            "top3_frac_micro": pa.array(cols["top3_frac_micro"], pa.int64()),
            "stopword_count": pa.array(cols["stopword_count"], pa.int64()),
            "stopword_frac_micro": pa.array(cols["stopword_frac_micro"],
                                            pa.int64()),
        })

    return (ds.select_columns([id_col, text_col])
              .map_batches(stats, batch_format="pyarrow"))


def label_balanced_sample(ds: "rd.Dataset", key_col: str = "label",
                          id_col: str = "vec_id") -> "rd.Dataset":
    """Class-balanced training subset: downsample EVERY class to the
    global minority-class count — the standard rebalancing step before
    training a classifier on skewed labels (the data-dependent-quota
    sibling of ``quota_sample_per_key``, whose quota is a constant).

    Pass 1 is a combiner label count (labels are a bounded enum, so the
    partials stay tiny and the minimum is a driver scalar); pass 2
    reuses ``quota_sample_per_key`` with that count — per-class rank by
    ``(md5(str(id)), id)``, the engine-independent order every sampler
    in this repo shares, combiner-pruned so at most ``n`` rows per
    (class, batch) cross the one shuffle. Scale: nothing here grows
    with rows beyond the pruned shuffle; the kept set is stable under
    repartitioning."""
    counts = grouped_agg(ds.select_columns([key_col]), [key_col], {},
                         count_alias="n").to_pandas()
    if counts.empty:
        return ds.select_columns([id_col, key_col]).limit(0)
    n = int(counts["n"].min())
    return quota_sample_per_key(ds.select_columns([id_col, key_col]),
                                key_col, id_col, n)


def k_anonymity(ds: "rd.Dataset", qi_cols: list[str],
                sensitive_col: str, k: int = 5, l: int = 2) -> "rd.Dataset":
    """k-anonymity / l-diversity release audit (Sweeney 2002;
    Machanavajjhala et al. 2007) — the governance gate next to
    ``redact_pii``: before a corpus/metadata table leaves the pipeline,
    every quasi-identifier combination should blend among >= k rows
    (re-identification risk) and carry >= l distinct sensitive values
    (attribute-disclosure risk). The reference stores applicant PII
    (`/root/reference/src/database/schema.sql` borrower fields) but has
    no release audit; this is the §2.10a governance addition.

    Emits ONE ROW PER QI GROUP with (n, n_sensitive, violates_k,
    violates_l) — the full audit report, not just violations, so the
    result is non-degenerate at every scale and the caller filters.

    Shape: per-batch combiner pre-aggregation to distinct
    (qi..., sensitive) partial counts — the only thing that crosses the
    wire, bounded by the group structure rather than the row count —
    then ONE shard co-group on the leading QI column finishes exact
    per-group totals and distinct-sensitive counts (``nunique``
    excludes nulls, matching SQL ``count(DISTINCT ...)``)."""
    cols = list(qi_cols) + [sensitive_col]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = (b.groupby(cols, dropna=False, as_index=False)
              .size().rename(columns={"size": "__pn"}))
        return g

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # the same (qi, sensitive) combo may arrive from many batches;
        # nunique over the partial rows is still the exact distinct
        agg = (g.groupby(list(qi_cols), dropna=False, as_index=False)
                .agg(n=("__pn", "sum"),
                     n_sensitive=(sensitive_col, "nunique")))
        agg["n"] = agg["n"].astype(np.int64)
        agg["n_sensitive"] = agg["n_sensitive"].astype(np.int64)
        agg["violates_k"] = agg["n"] < k
        agg["violates_l"] = agg["n_sensitive"] < l
        return agg

    parted = (ds.select_columns(cols)
                .map_batches(partial, batch_format="pandas"))
    return shard_cogroup(parted, qi_cols[0], fold)


def lr_source_fit(ds: "rd.Dataset", pos_source: str = "src0",
                  d: int = 64, iters: int = 20, lr: float = 2.0,
                  momentum: float = 0.9, id_col: str = "doc_id",
                  text_col: str = "text", source_col: str = "source"):
    """Distributed logistic-regression quality classifier — the
    trainable sibling of ``nb_source_score`` and the GPT-3-recipe shape
    (Brown et al. 2020 Appendix A trains a linear classifier over
    hashed features to score Common-Crawl quality; fastText/Vowpal
    Wabbit are the same model): features are ``hashed_features``'s
    signed md5 buckets (token-count-normalized, plus a bias), the label
    is ``source == pos_source``, and the fit is full-batch gradient
    descent where each iteration broadcasts the weights and every batch
    returns ONE partial-gradient row (O(d·batches) driver traffic, the
    ``kmeans_fit`` iterative pattern — no shuffle anywhere).

    Bit-reproducibility across cluster sizes: float partial sums would
    depend on block boundaries, so every per-ROW gradient component and
    per-row loss is quantized to fixed point (scale 2**24; micro-nats
    for the loss) BEFORE summation — integer addition is associative,
    so the summed gradient, hence the whole training trajectory, is
    IDENTICAL under any partitioning (pinned by a repartition test).
    |component| <= 2 after normalization, so int64 is exact up to
    ~2.7e11 rows per batch dimension — far past any single fit.

    The feature pass runs ONCE and is materialized — (d+2)·8 bytes per
    doc, the small product of the heavy tokenize pass; at extreme scale
    write it to parquet once (the knn_ivf_persisted contract) and point
    the iterations at that.

    Returns (scored dataset (doc_id, label, p_pos), weights, loss
    history in mean micro-nats)."""
    import hashlib
    from collections import Counter

    S = float(1 << 24)

    def featurize(t: pa.Table) -> pa.Table:
        cache: dict[str, tuple[int, int]] = {}
        ids: list[int] = []
        xs: list[bytes] = []
        ys: list[int] = []
        for i, txt, src in zip(t[id_col].to_pylist(),
                               t[text_col].to_pylist(),
                               t[source_col].to_pylist()):
            toks = tokens(txt)
            x = np.zeros(d + 1, dtype=np.float64)
            x[d] = 1.0
            if toks:
                for w, c in Counter(toks).items():
                    bs = cache.get(w)
                    if bs is None:
                        u = int.from_bytes(
                            hashlib.md5(w.encode()).digest()[:4], "big")
                        bs = (u % d, 1 if (u >> 16) & 1 == 0 else -1)
                        cache[w] = bs
                    x[bs[0]] += bs[1] * c
                x[:d] /= len(toks)
            ids.append(i)
            xs.append(x.tobytes())
            ys.append(1 if src == pos_source else 0)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "__x": pa.array(xs, pa.binary()),
            "__y": pa.array(ys, pa.int8()),
        })

    feats = (ds.select_columns([id_col, text_col, source_col])
               .map_batches(featurize, batch_format="pyarrow")
               .materialize())
    n_docs = feats.count()

    w = np.zeros(d + 1, dtype=np.float64)
    vel = np.zeros(d + 1, dtype=np.float64)
    history: list[float] = []
    for _ in range(iters):
        wref = ray.put(w)

        def grad_partial(t: pa.Table) -> pa.Table:
            wv = ray.get(wref)
            X = np.frombuffer(b"".join(t["__x"].to_pylist()),
                              dtype=np.float64).reshape(-1, d + 1)
            y = t["__y"].to_numpy().astype(np.float64)
            z = X @ wv
            p = 1.0 / (1.0 + np.exp(-z))
            # per-ROW fixed-point quantization -> partition-independent
            gq = np.floor((p - y)[:, None] * X * S + 0.5).astype(np.int64)
            loss = -(y * np.log(np.maximum(p, 1e-300))
                     + (1 - y) * np.log(np.maximum(1 - p, 1e-300)))
            lq = np.floor(loss * 1e6 + 0.5).astype(np.int64)
            return pa.table({
                "g": pa.array([gq.sum(axis=0).tobytes()], pa.binary()),
                "l": pa.array([int(lq.sum())], pa.int64()),
            })

        parts = feats.map_batches(grad_partial,
                                  batch_format="pyarrow").to_pandas()
        g = np.zeros(d + 1, dtype=np.int64)
        for b in parts["g"]:
            g += np.frombuffer(b, dtype=np.int64)
        history.append(float(parts["l"].sum()) / max(n_docs, 1))
        # heavy-ball momentum runs entirely on the driver over the
        # partition-independent integer gradient, so the trajectory
        # stays bit-reproducible under any blocking
        vel = momentum * vel + (g.astype(np.float64) / S) / max(n_docs, 1)
        w = w - lr * vel

    wref = ray.put(w)

    def score(t: pa.Table) -> pa.Table:
        wv = ray.get(wref)
        X = np.frombuffer(b"".join(t["__x"].to_pylist()),
                          dtype=np.float64).reshape(-1, d + 1)
        p = 1.0 / (1.0 + np.exp(-(X @ wv)))
        return pa.table({
            id_col: t[id_col],
            "label": pa.array(t["__y"].to_numpy().astype(np.int64),
                              pa.int64()),
            "p_pos": pa.array(p, pa.float64()),
        })

    scored = feats.map_batches(score, batch_format="pyarrow")
    return scored, w, history


def budget_select(ds: "rd.Dataset", score_col: str, cost_col: str,
                  id_col: str, budget: int,
                  n_buckets: int = 1024) -> "rd.Dataset":
    """Token-budget-constrained corpus selection: keep the
    highest-``score_col`` rows whose cumulative ``cost_col`` (in
    ``score DESC, id ASC`` order) stays within ``budget`` — the
    data-selection step of every budgeted pretraining run ("take the
    best N-token subset"), exactly equal to
    ``SUM(cost) OVER (ORDER BY score DESC, id) <= budget``.

    No global sort: the ``global_row_number`` range-bucket prefix
    scheme with cost-SUM in place of count — one min/max aggregate
    fixes the score domain, fixed-width DESC-ordered value buckets get
    a bounded per-bucket cost-sum pass, the driver computes the
    O(n_buckets) exclusive prefix, and ONLY buckets whose prefix has
    not yet exhausted the budget are shuffled into the per-bucket exact
    sort+cumsum fold (everything below the boundary bucket is dropped
    before the shuffle, so the co-group moves ~budget worth of rows,
    not the corpus). Equal scores share a bucket, so tie-breaks stay
    local. Skew note: one bucket must fit a worker (grouped_quantile's
    holistic limit).

    Output: (id, score, cost, cum_cost) for the selected rows."""
    lo = ds.min(score_col)
    hi = ds.max(score_col)
    span = float(hi) - float(lo)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        v = b[score_col].to_numpy()
        if span > 0:
            bkt = np.minimum(
                ((float(hi) - v.astype(np.float64)) / span
                 * n_buckets).astype(np.int64), n_buckets - 1)
        else:
            bkt = np.zeros(len(b), dtype=np.int64)
        return pd.DataFrame({id_col: b[id_col].to_numpy(),
                             score_col: v,
                             cost_col: b[cost_col].to_numpy(),
                             "__bkt": bkt})

    tagged = ds.map_batches(tag, batch_format="pandas")

    def bucket_costs(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("__bkt", dropna=False)[cost_col].sum()
        return pd.DataFrame({"__bkt": g.index.to_numpy(),
                             "__pc": g.to_numpy(np.int64)})

    parts = (tagged.map_batches(bucket_costs, batch_format="pandas")
                   .to_pandas())
    costs = np.zeros(n_buckets, dtype=np.int64)
    np.add.at(costs, parts["__bkt"].to_numpy(np.int64),
              parts["__pc"].to_numpy(np.int64))
    excl = np.zeros(n_buckets, dtype=np.int64)
    np.cumsum(costs[:-1], out=excl[1:])
    excl_ref = ray.put(excl)

    def live(b: pd.DataFrame) -> pd.DataFrame:
        pre = ray.get(excl_ref)
        return b[pre[b["__bkt"].to_numpy(np.int64)] <= budget]

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        pre = ray.get(excl_ref)
        outs = []
        for bkt, grp in g.groupby("__bkt", sort=False):
            grp = grp.sort_values([score_col, id_col],
                                  ascending=[False, True])
            cum = pre[int(bkt)] + np.cumsum(
                grp[cost_col].to_numpy(np.int64))
            keep = cum <= budget
            sel = grp[keep].drop(columns="__bkt").copy()
            sel["cum_cost"] = cum[keep]
            outs.append(sel)
        if not outs:
            return pd.DataFrame({
                id_col: pd.Series(dtype=g[id_col].dtype),
                score_col: pd.Series(dtype=g[score_col].dtype),
                cost_col: pd.Series(dtype=g[cost_col].dtype),
                "cum_cost": pd.Series(dtype=np.int64)})
        return pd.concat(outs, ignore_index=True)

    pruned = tagged.map_batches(live, batch_format="pandas")
    return shard_cogroup(pruned, "__bkt", fold)


def roc_auc(ds: "rd.Dataset", score_col: str, pos_col: str,
            keys: list[str] | None = None,
            n_buckets: int = 1024) -> pd.DataFrame | "rd.Dataset":
    """Exact ROC-AUC (Mann-Whitney rank-sum form) of an integer score
    against a binary label — the evaluation step for every trained
    filter this engine ships (lr_source_fit, nb_source_score, the
    quality heuristics): AUC = (2*sum(avg-rank of positives)
    - n_pos*(n_pos+1)) / (2*n_pos*n_neg) with tie-AVERAGED ranks, in
    exact integer micro-units (arbitrary-precision // — 2*sum(rank)
    reaches ~2*n^2 and overflows int64 long before 10^12 rows, so every
    rank-sum is carried as a Python big int and crosses workers as a
    decimal string). Rows with a null score or label are dropped by
    contract; a class-degenerate population (no positives or no
    negatives) is dropped (grouped) / returns an empty frame (global)
    — the statistic is undefined there.

    Never ranks rows individually: a per-batch combiner collapses to
    (score, n, n_pos) distinct-score partials first, so only the
    distinct-score table ever shuffles.

    - ``keys=None`` (global): the ``global_row_number`` range-bucket
      prefix scheme over the score domain — one min/max aggregate, a
      bounded O(n_buckets x blocks) count pass, driver exclusive
      prefix, ONE shard co-group where each bucket folds its
      distinct-score partials locally (equal scores share a bucket, so
      tie groups never split). Each shard emits ONE partial rank-sum
      row; the driver adds up O(shards) big ints. Returns a one-row
      pandas frame (n_pos, n_neg, auc_micro).
    - ``keys=[...]`` (grouped, e.g. per-source eval): shard co-group on
      the first key; the fold sorts each key's distinct-score rows and
      computes the rank-sum per key (grouped_quantile's holistic limit,
      but on the DISTINCT-SCORE table, not the rows). Returns a Dataset
      of (keys..., n_pos, n_neg, auc_micro)."""
    gkeys = list(keys or [])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[*gkeys, score_col, pos_col]].dropna(
            subset=[score_col, pos_col])
        g = (b.assign(__pp=b[pos_col].astype(np.int64))
              .groupby([*gkeys, score_col], sort=False, dropna=False))
        out = g["__pp"].agg(__pn="size", __pp="sum").reset_index()
        out["__pn"] = out["__pn"].astype(np.int64)
        return out

    partials = ds.map_batches(partial, batch_format="pandas")

    def _rank_sum(sub: pd.DataFrame, base: int) -> int:
        """2*sum(avg rank of positives) for one ordered distinct-score
        frame, ranks offset by ``base`` rows before it. Big-int exact:
        object dtype keeps every product arbitrary-precision."""
        n_ = sub["__pn"].astype(object)
        cum = n_.cumsum() - n_ + base
        return int((sub["__pp"].astype(object) * (2 * cum + n_ + 1)).sum())

    if gkeys:
        def fold(g: pd.DataFrame) -> pd.DataFrame:
            cnt = (g.groupby([*gkeys, score_col], as_index=False,
                             sort=False, dropna=False)[["__pn", "__pp"]]
                    .sum()
                    .sort_values([*gkeys, score_col], kind="stable"))
            rows = []
            # dropna=False: a null KEY is a real group (null scores were
            # already dropped by contract in the combiner)
            for kv, sub in cnt.groupby(gkeys, sort=False, dropna=False):
                kv = kv if isinstance(kv, tuple) else (kv,)
                n = int(sub["__pn"].sum())
                npos = int(sub["__pp"].sum())
                nneg = n - npos
                if npos == 0 or nneg == 0:
                    continue
                r2 = _rank_sum(sub, 0)
                auc = ((r2 - npos * (npos + 1)) * 1_000_000
                       // (2 * npos * nneg))
                rows.append((*kv, npos, nneg, auc))
            out = pd.DataFrame(rows, columns=[*gkeys, "n_pos", "n_neg",
                                              "auc_micro"])
            if out.empty:
                return pd.DataFrame({
                    **{k: pd.Series(dtype=g[k].dtype) for k in gkeys},
                    "n_pos": pd.Series(dtype="int64"),
                    "n_neg": pd.Series(dtype="int64"),
                    "auc_micro": pd.Series(dtype="int64")})
            out[["n_pos", "n_neg", "auc_micro"]] = out[
                ["n_pos", "n_neg", "auc_micro"]].astype("int64")
            return out

        return shard_cogroup(partials, gkeys[0], fold)

    # global path: range buckets over the score domain
    lo = ds.min(score_col)
    hi = ds.max(score_col)
    span = float(hi) - float(lo)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        v = b[score_col].to_numpy()
        if span > 0:
            bkt = np.minimum(
                ((v.astype(np.float64) - float(lo)) / span
                 * n_buckets).astype(np.int64), n_buckets - 1)
        else:
            bkt = np.zeros(len(b), dtype=np.int64)
        return b.assign(__bkt=bkt)

    tagged = partials.map_batches(tag, batch_format="pandas")

    def bucket_counts(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("__bkt", dropna=False)["__pn"].sum()
        return pd.DataFrame({"__bkt": g.index.to_numpy(),
                             "__pc": g.to_numpy(np.int64)})

    parts = (tagged.map_batches(bucket_counts, batch_format="pandas")
                   .to_pandas())
    counts = np.zeros(n_buckets, dtype=np.int64)
    np.add.at(counts, parts["__bkt"].to_numpy(np.int64),
              parts["__pc"].to_numpy(np.int64))
    excl = np.zeros(n_buckets, dtype=np.int64)
    np.cumsum(counts[:-1], out=excl[1:])
    excl_ref = ray.put(excl)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        pre = ray.get(excl_ref)
        cnt = (g.groupby(["__bkt", score_col], as_index=False,
                         sort=False)[["__pn", "__pp"]].sum()
                .sort_values(["__bkt", score_col], kind="stable"))
        r2 = npos = n = 0
        for bkt, sub in cnt.groupby("__bkt", sort=False):
            r2 += _rank_sum(sub, int(pre[int(bkt)]))
            npos += int(sub["__pp"].sum())
            n += int(sub["__pn"].sum())
        return pd.DataFrame({"__r2": [str(r2)], "__np": [npos],
                             "__n": [n]})

    shard = shard_cogroup(tagged, "__bkt", fold).to_pandas()
    r2 = sum(int(s) for s in shard["__r2"])
    npos = int(shard["__np"].sum())
    nneg = int(shard["__n"].sum()) - npos
    if npos == 0 or nneg == 0:
        return pd.DataFrame({"n_pos": pd.Series(dtype="int64"),
                             "n_neg": pd.Series(dtype="int64"),
                             "auc_micro": pd.Series(dtype="int64")})
    auc = (r2 - npos * (npos + 1)) * 1_000_000 // (2 * npos * nneg)
    return pd.DataFrame({"n_pos": [npos], "n_neg": [nneg],
                         "auc_micro": [np.int64(auc)]})


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero — DuckDB's ``//``
    semantics (Python's ``//`` floors, which differs on negatives; a
    negative kappa must match the oracle bit for bit)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def confusion_matrix(ds: "rd.Dataset", gold_col: str,
                     pred_col: str) -> pd.DataFrame:
    """Distributed confusion matrix: one row per observed
    ``(gold, pred)`` pair with its count — the base table of every
    classifier evaluation. Pure combiner shape: each batch emits its
    own bounded (gold, pred, n) partial (classes^2 rows at most), the
    driver folds O(classes^2 x blocks) partial rows — no shuffle, rows
    never leave the worker. Null golds/preds are REAL groups
    (dropna=False) so coverage holes stay visible."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = (b.groupby([gold_col, pred_col], sort=False, dropna=False)
              .size().rename("n").reset_index())
        g["n"] = g["n"].astype(np.int64)
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return (parts.groupby([gold_col, pred_col], as_index=False,
                          dropna=False)["n"].sum()
                 .sort_values([gold_col, pred_col])
                 .reset_index(drop=True))


def classification_report(ds: "rd.Dataset", gold_col: str,
                          pred_col: str) -> pd.DataFrame:
    """Per-class precision / recall / F1 in exact integer micro-units
    over the distributed confusion matrix: ``precision = tp // n_pred``,
    ``recall = tp // n_gold``, ``f1 = 2*tp // (n_pred + n_gold)`` (the
    harmonic mean collapses to that exactly). Classes must appear on
    BOTH margins (n_gold > 0 and n_pred > 0) — one-sided classes have an
    undefined precision or recall and are dropped by contract. All math
    on the bounded classes^2 driver table; the distributed work is the
    confusion combiner."""
    cm = confusion_matrix(ds, gold_col, pred_col)
    gold = cm.groupby(gold_col, dropna=False)["n"].sum()
    pred = cm.groupby(pred_col, dropna=False)["n"].sum()
    diag = {g: int(n) for g, p, n in cm.itertuples(index=False)
            if g == p}
    rows = []
    both = [c for c in set(gold.index) & set(pred.index)
            if not pd.isna(c)]
    for cls in sorted(both):
        ng, npd = int(gold[cls]), int(pred[cls])
        tp = diag.get(cls, 0)
        rows.append((cls, ng, npd, tp,
                     tp * 1_000_000 // npd,
                     tp * 1_000_000 // ng,
                     2 * tp * 1_000_000 // (npd + ng)))
    return pd.DataFrame(rows, columns=[
        "class", "n_gold", "n_pred", "tp",
        "precision_micro", "recall_micro", "f1_micro"]).astype(
            {c: "int64" for c in ["n_gold", "n_pred", "tp",
                                  "precision_micro", "recall_micro",
                                  "f1_micro"]})


def cohen_kappa(ds: "rd.Dataset", gold_col: str,
                pred_col: str) -> pd.DataFrame:
    """Cohen's kappa + accuracy of a predicted label column against
    gold, exact integer micro-units: ``kappa = (N*sum_diag - S) /
    (N^2 - S)`` with ``S = sum_k rowtotal_k * coltotal_k`` — one
    fraction, no intermediate float. Division TRUNCATES toward zero
    (kappa can be negative; DuckDB ``//`` truncates while Python
    floors, so the kernel mirrors DuckDB). Null labels count toward N
    and the margins as their own class, never toward the diagonal.
    Degenerate ``N^2 == S`` (a constant margin — chance agreement is
    total) returns a null kappa. Same combiner shape as
    confusion_matrix; the fold is O(classes^2) on the driver."""
    cm = confusion_matrix(ds, gold_col, pred_col)
    n = int(cm["n"].sum())
    # NaN == NaN is False: null-vs-null never lands on the diagonal
    # (SQL's NULL = NULL), but nulls DO margin as their own class below
    # (sentinel fill keeps the set intersection deterministic)
    diag = int(cm.loc[(cm[gold_col] == cm[pred_col]), "n"].sum())
    sent = "\x00null"
    g_m = cm[gold_col].astype(object).where(cm[gold_col].notna(), sent)
    p_m = cm[pred_col].astype(object).where(cm[pred_col].notna(), sent)
    gold = cm.groupby(g_m)["n"].sum()
    pred = cm.groupby(p_m)["n"].sum()
    s = sum(int(gold[c]) * int(pred[c])
            for c in set(gold.index) & set(pred.index))
    acc = diag * 1_000_000 // n
    den = n * n - s
    kappa = (_trunc_div((n * diag - s) * 1_000_000, den)
             if den != 0 else None)
    return pd.DataFrame({"n": pd.array([n], dtype="int64"),
                         "accuracy_micro": pd.array([acc], dtype="int64"),
                         "kappa_micro": pd.array([kappa],
                                                 dtype="Int64")})


def calibration_bins(ds: "rd.Dataset", score_col: str, label_col: str,
                     n_bins: int = 10) -> pd.DataFrame:
    """Reliability-diagram bins of an integer classifier score against
    a 0/1 gold label — the calibration check an eval layer runs before
    a score becomes a filter threshold (is a higher NB/LR quality score
    actually a higher empirical positive rate?). Equal-width bins over
    the OBSERVED score range in pure integer arithmetic:
    ``bin = (s − lo)·n_bins // (hi − lo + 1)`` (always in
    [0, n_bins−1]; mirrored digit for digit by BIGINT ``//`` in SQL).

    Per bin: n, n_pos, ``pos_rate_micro = n_pos·10^6 // n`` and the
    exact big-int score sum (signed log-odds sums overflow int64 at
    ~10^13 rows, so partials carry the SHIFTED non-negative sum
    Σ(s−lo) via the chunked ``_exact_dot`` and the driver adds n·lo
    back — decimal-string discipline of ``gini_concentration``).
    Output rows only for non-empty bins, by contract (SQL GROUP BY
    shape). Nulls dropped. Pure combiner: one ≤n_bins-row partial per
    batch, driver fold; nothing row-sized leaves the workers."""
    from credit_ocr_backend_ray.stages.relational import _exact_dot

    # lo/hi over exactly the rows that get binned
    ds = ds.map_batches(lambda b: b[[score_col, label_col]].dropna(),
                        batch_format="pandas")
    lo = ds.min(score_col)
    hi = ds.max(score_col)
    if lo is None:
        return pd.DataFrame({"bin": pd.array([], dtype="int64"),
                             "n": pd.array([], dtype="int64"),
                             "n_pos": pd.array([], dtype="int64"),
                             "pos_rate_micro": pd.array([], dtype="int64"),
                             "sum_score_micro": pd.Series([], dtype="object")})
    lo, hi = int(lo), int(hi)
    span = hi - lo + 1
    if span * n_bins >= 2 ** 62:
        raise ValueError("calibration_bins: score span x n_bins "
                         "overflows int64 — rescale the score")

    def part(b: pd.DataFrame) -> pd.DataFrame:
        s = b[score_col].to_numpy(np.int64)
        y = b[label_col].to_numpy(np.int64)
        if len(y) and not ((y == 0) | (y == 1)).all():
            raise ValueError("calibration_bins: label_col must be "
                             "0/1 (n_pos would silently corrupt)")
        bins = (s - lo) * n_bins // span
        rows = []
        for bv in np.unique(bins):
            m = bins == bv
            shifted = s[m] - lo
            rows.append((int(bv), int(m.sum()), int(y[m].sum()),
                         str(_exact_dot(shifted,
                                        np.ones(len(shifted), np.int64)))))
        return pd.DataFrame(rows, columns=["__b", "__n", "__p", "__s"])

    parts = ds.map_batches(part, batch_format="pandas").to_pandas()
    if "__b" not in parts.columns:
        parts = pd.DataFrame({"__b": pd.array([], dtype="int64"),
                              "__n": pd.array([], dtype="int64"),
                              "__p": pd.array([], dtype="int64"),
                              "__s": pd.Series([], dtype="object")})
    out_rows = []
    for bv, g in parts.groupby("__b", sort=True):
        n = int(g["__n"].sum())
        p = int(g["__p"].sum())
        tot = sum(int(x) for x in g["__s"]) + n * lo  # un-shift exactly
        out_rows.append((int(bv), n, p, p * 1_000_000 // n, str(tot)))
    return pd.DataFrame(out_rows, columns=[
        "bin", "n", "n_pos", "pos_rate_micro", "sum_score_micro"]
    ).astype({"bin": "int64", "n": "int64", "n_pos": "int64",
              "pos_rate_micro": "int64"})


def benford_digits(ds: "rd.Dataset", col: str) -> pd.DataFrame:
    """Benford first-significant-digit audit of a positive numeric
    column (Newcomb 1881 / Benford 1938; Nigrini 2012 uses it as the
    standard forensic data-quality screen) — a one-pass anomaly check
    for fabricated or truncated value distributions before a table
    feeds training: real multiplicative data (prices, populations,
    account balances) follows P(d) = log10(1 + 1/d); uniform synthetic
    fills and clipped extracts do not.

    Emits exactly nine rows, one per leading digit 1-9:
    ``(digit, n, observed_micro, expected_micro, delta_micro)`` — all
    exact integers. The digit is taken from the INTEGER part
    (``floor(x)`` then repeated ``//10``, bit-identical to the first
    character of the decimal string the SQL oracle reads); rows with a
    null or non-finite value or ``x < 1`` have no leading integer digit
    and are dropped by contract. ``observed_micro = n_d * 10^6 // N``
    (integer floor both sides); ``expected_micro =
    floor(log10((d+1)/d)*10^6 + 0.5)`` — one libm log10 of a
    small-integer ratio, identical in CPython and DuckDB on this
    platform.

    Shape: a per-batch ``np.bincount`` partial (nine int64 cells per
    batch — the smallest combiner in the engine) and a driver fold over
    O(blocks) tiny rows; nothing shuffles, nothing scales with the row
    count. Returns the nine-row pandas frame directly (bounded
    result)."""

    def partial(t: pa.Table) -> pa.Table:
        x = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        x = x[np.isfinite(x)]
        x = x[x >= 1.0]
        f = np.floor(x).astype(np.int64)
        # vectorized leading digit: strip trailing decimal digits
        while True:
            m = f >= 10
            if not m.any():
                break
            f[m] //= 10
        cnt = np.bincount(f, minlength=10)[1:10]
        return pa.table({"digit": pa.array(np.arange(1, 10), pa.int64()),
                         "__pn": pa.array(cnt.astype(np.int64),
                                          pa.int64())})

    parts = (ds.select_columns([col])
               .map_batches(partial, batch_format="pyarrow").to_pandas())
    if "digit" not in parts.columns:
        parts = pd.DataFrame({"digit": [], "__pn": []}, dtype="int64")
    cnt = parts.groupby("digit")["__pn"].sum().reindex(
        range(1, 10), fill_value=0)
    n_total = int(cnt.sum())
    rows = []
    for d in range(1, 10):
        n_d = int(cnt[d])
        obs = n_d * 1_000_000 // n_total if n_total else 0
        exp = math.floor(math.log10((d + 1.0) / d) * 1_000_000 + 0.5)
        rows.append((d, n_d, obs, exp, obs - exp))
    out = pd.DataFrame(rows, columns=["digit", "n", "observed_micro",
                                      "expected_micro", "delta_micro"])
    return out.astype({c: "int64" for c in out.columns})


def contingency_chi2(ds: "rd.Dataset", a_col: str,
                     b_col: str) -> pd.DataFrame:
    """Global chi-squared independence audit of two categorical columns
    (the r×c contingency test — are priority and status independent?
    does source predict language?) in EXACT integer micro units. The
    r×c generalization of ``term_label_chi2``'s per-term 2×2: the
    statistic is DEFINED as the integer sum of per-cell floored
    contributions ``(n_ij·N − r_i·c_j)²·10^6 // (N·r_i·c_j)`` over the
    FULL margin grid (unobserved combinations enter with n_ij = 0 —
    their expected-count term is not zero), every product an
    arbitrary-precision Python int (the squared numerator overflows
    int64 at ~10^3 rows), mirrored by HUGEINT in SQL — floor-per-cell
    then integer sum, so both engines agree bit for bit regardless of
    summation order. Null category values drop by contract.

    Shape: pure combiner — one bounded (a, b, n) partial per batch
    (≤ r·c rows), driver fold over the bounded grid. Output: one row
    (n, a_levels, b_levels, dof, chi2_micro); fewer than 2 levels on
    either side → chi2 null (the test is undefined)."""

    def part(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"__a": t[a_col].to_pylist(),
                           "__b": t[b_col].to_pylist()}).dropna()
        g = df.groupby(["__a", "__b"], as_index=False).size()
        return pa.table({"__a": pa.array(g["__a"], pa.string()),
                         "__b": pa.array(g["__b"], pa.string()),
                         "__n": pa.array(g["size"].to_numpy(np.int64))})

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    empty = pd.DataFrame({
        "n": pd.array([0], dtype="int64"),
        "a_levels": pd.array([0], dtype="int64"),
        "b_levels": pd.array([0], dtype="int64"),
        "dof": pd.array([0], dtype="int64"),
        "chi2_micro": pd.array([None], dtype="Int64")})
    if "__a" not in parts.columns or not len(parts):
        return empty
    cells = (parts.groupby(["__a", "__b"], as_index=False)["__n"]
                  .sum())
    ra = cells.groupby("__a")["__n"].sum()
    cb = cells.groupby("__b")["__n"].sum()
    n = int(cells["__n"].sum())
    if len(ra) < 2 or len(cb) < 2 or n == 0:
        empty.loc[0, ["n", "a_levels", "b_levels"]] = \
            [n, len(ra), len(cb)]
        return empty
    obs = {(a, b): int(v) for a, b, v in zip(cells["__a"], cells["__b"],
                                             cells["__n"])}
    chi2 = 0
    for a, ri in ra.items():
        for b, cj in cb.items():
            nij = obs.get((a, b), 0)
            num = nij * n - int(ri) * int(cj)
            chi2 += num * num * 1_000_000 // (n * int(ri) * int(cj))
    return pd.DataFrame({
        "n": pd.array([n], dtype="int64"),
        "a_levels": pd.array([len(ra)], dtype="int64"),
        "b_levels": pd.array([len(cb)], dtype="int64"),
        "dof": pd.array([(len(ra) - 1) * (len(cb) - 1)],
                        dtype="int64"),
        "chi2_micro": pd.array([chi2], dtype="Int64")})
