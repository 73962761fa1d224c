"""Text-analysis stages over a text column: token/char stats, quality
score, language ID, fingerprints, corpus word counts and the operators
built on them. Every operator tokenizes with ``textstats.tokens``, and
every corpus word count is one ``token_counts`` pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from credit_ocr_backend_ray.functions.textstats import (
    bpe_token_count, char_stats, fingerprint_md5, lang_id, quality_score,
    rolling_fingerprint, token_count, tokens,
)


def text_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = [t or "" for t in batch[text_col].to_pylist()]
    stats = [char_stats(t) for t in texts]
    return (batch
            .append_column("n_chars_calc",
                           pa.array([s[0] for s in stats], pa.int64()))
            .append_column("n_tokens",
                           pa.array([token_count(t) for t in texts], pa.int64()))
            .append_column("n_bpe_tokens",
                           pa.array([bpe_token_count(t) for t in texts],
                                    pa.int64()))
            .append_column("n_digits",
                           pa.array([s[1] for s in stats], pa.int64()))
            .append_column("n_upper",
                           pa.array([s[2] for s in stats], pa.int64()))
            .append_column("n_punct",
                           pa.array([s[3] for s in stats], pa.int64())))


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = [t or "" for t in batch[text_col].to_pylist()]
    return batch.append_column(
        "quality", pa.array([quality_score(t) for t in texts], pa.float64()))


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = [t or "" for t in batch[text_col].to_pylist()]
    return batch.append_column(
        "pred_lang", pa.array([lang_id(t) for t in texts], pa.string()))


def token_counts(ds, text_col: str = "text"):
    """Corpus word count ``(token, c)``: per-batch ``Counter`` partials
    (one (token, n) row per distinct token per batch crosses the
    shuffle — the classic combiner word count), then one grouped sum on
    a coarse token-hash co-group. Every corpus-count operator below
    reads this one pass (``bigram_counts`` is its bigram twin)."""
    from collections import Counter

    from credit_ocr_backend_ray.stages.relational import grouped_agg

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for txt in t[text_col].to_pylist():
            c.update(tokens(txt))
        return pa.table({
            "token": pa.array(list(c.keys()), pa.string()),
            "__pn": pa.array(list(c.values()), pa.int64()),
        })

    return grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                       ["token"], {"__pn": "c"}, count_alias=None)


def bigram_counts(ds, text_col: str = "text"):
    """Corpus adjacent-token bigram count ``(w1, w2, n)``, the
    ``token_counts`` pass one n-gram up: per-batch ``Counter`` partials
    of ``zip(toks, toks[1:])``, then one ``grouped_agg`` sum."""
    from collections import Counter

    from credit_ocr_backend_ray.stages.relational import grouped_agg

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for txt in t[text_col].to_pylist():
            toks = tokens(txt)
            c.update(zip(toks, toks[1:]))
        return pa.table({
            "w1": pa.array([p[0] for p in c], pa.string()),
            "w2": pa.array([p[1] for p in c], pa.string()),
            "__pn": pa.array(list(c.values()), pa.int64()),
        })

    return grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                       ["w1", "w2"], {"__pn": "n"}, count_alias=None)


def top_terms(ds, k: int = 50, text_col: str = "text"):
    """Global top-k most frequent whitespace tokens across the corpus:
    the ``token_counts`` word count, then a cluster sort + limit. Ties
    break token-ascending for a deterministic cut. Empty tokens are
    dropped on both the Ray and the SQL side."""
    return (token_counts(ds, text_col).rename_columns({"c": "n"})
            .sort(["n", "token"], descending=[True, False]).limit(k))


def _term_label_top(ds, label_col: str, text_col: str, min_df: int,
                    k: int, stat_col: str, stat) -> "pd.DataFrame":
    """The 2×2 term–label contingency scaffold of ``term_label_chi2``
    and ``term_label_ig``: one bounded label-count pass (N docs and
    per-label doc counts), per-batch (term, label, n) presence partials,
    ONE coarse token-hash co-group that folds each term's label vector
    (df is a per-term sum inside the fold, pruned by ``min_df`` and
    ``df < N``), then top-``k`` terms per label by ``stat_col``, locally
    per shard and again on the driver. ``stat(n11, df, n_label, N)``
    gives each cell's int64 statistic; a label covering every document
    is skipped (its statistic is undefined)."""
    from collections import Counter

    import pandas as pd
    import ray

    from credit_ocr_backend_ray.stages.relational import shard_cogroup

    def label_counts(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for lab, txt in zip(t[label_col].to_pylist(),
                            t[text_col].to_pylist()):
            if lab is not None and txt and txt.strip():
                c[lab] += 1
        return pa.table({
            label_col: pa.array(list(c.keys()), pa.string()),
            "__pn": pa.array(list(c.values()), pa.int64())})

    lc = (ds.map_batches(label_counts, batch_format="pyarrow")
            .to_pandas().groupby(label_col)["__pn"].sum())
    n_label = {str(lab): int(n) for lab, n in lc.items()}
    n_total = int(lc.sum())
    nl_ref = ray.put(n_label)

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for lab, txt in zip(t[label_col].to_pylist(),
                            t[text_col].to_pylist()):
            if lab is None:
                continue
            for tok in set(tokens(txt)):
                c[(tok, lab)] += 1
        keys = list(c.keys())
        return pa.table({
            "token": pa.array([t_ for t_, _ in keys], pa.string()),
            label_col: pa.array([l_ for _, l_ in keys], pa.string()),
            "__pn": pa.array(list(c.values()), pa.int64())})

    def empty() -> pd.DataFrame:
        return pd.DataFrame({label_col: pd.Series(dtype=object),
                             "token": pd.Series(dtype=object),
                             stat_col: pd.Series(dtype="int64")})

    def top_k(out: pd.DataFrame) -> pd.DataFrame:
        return (out.sort_values([stat_col, "token"],
                                ascending=[False, True], kind="stable")
                   .groupby(label_col, sort=False).head(k))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        nl = ray.get(nl_ref)
        cnt = (g.groupby(["token", label_col], as_index=False,
                         sort=False)["__pn"].sum())
        df_tok = cnt.groupby("token", sort=False)["__pn"].transform("sum")
        cnt = cnt[(df_tok >= min_df) & (df_tok < n_total)]
        df_tok = df_tok[cnt.index]
        rows = [(lab, tok, stat(int(n11), int(df), nl[lab], n_total))
                for tok, lab, n11, df in zip(cnt["token"], cnt[label_col],
                                             cnt["__pn"], df_tok)
                if nl[lab] < n_total]
        if not rows:
            return empty()
        out = pd.DataFrame(rows, columns=[label_col, "token", stat_col])
        out[stat_col] = out[stat_col].astype("int64")
        # local top-k per label: only k·labels rows leave the shard
        return top_k(out)

    local = shard_cogroup(ds.map_batches(partial, batch_format="pyarrow"),
                          "token", fold).to_pandas()
    if local.empty:  # e.g. one label covering every doc: all undefined
        return empty()
    return (top_k(local)
            .sort_values([label_col, stat_col, "token"],
                         ascending=[True, False, True])
            .reset_index(drop=True))


def term_label_chi2(ds, label_col: str = "lang", text_col: str = "text",
                    min_df: int = 5, k: int = 10):
    """Chi-squared term–label association (the classic feature-selection
    statistic — Yang & Pedersen 1997): for every (term, label) the 2×2
    presence table chi², top-``k`` terms per label. Exact integer
    micro-units: ``chi2_micro = N·(n11·n00 − n10·n01)²·10^6 //
    (df·(N−df)·Nl·(N−Nl))`` computed with arbitrary-precision Python
    ints (the numerator overflows int64 at any real corpus size) so the
    SQL HUGEINT restatement is hash-exact. Degenerate margins
    (``df == N`` or a label covering every document) are dropped — the
    statistic is undefined there — as part of the contract.

    Shape: the ``_term_label_top`` contingency scaffold; ``min_df``
    prunes the tail before any Python big-int math."""
    def chi2(n11: int, df: int, nlab: int, n_total: int) -> int:
        n10 = df - n11
        n01 = nlab - n11
        n00 = n_total - df - nlab + n11
        diff = n11 * n00 - n10 * n01
        den = df * (n_total - df) * nlab * (n_total - nlab)
        return n_total * diff * diff * 1_000_000 // den

    return _term_label_top(ds, label_col, text_col, min_df, k,
                           "chi2_micro", chi2)


def term_label_ig(ds, label_col: str = "lang", text_col: str = "text",
                  min_df: int = 5, k: int = 10):
    """Information-gain term–label feature selection — the OTHER of the
    two statistics Yang & Pedersen 1997 rank as top-tier (next to
    ``term_label_chi2``, whose distributed scaffold this reuses): for
    every (term, label) the 2×2 presence-table mutual information
    IG = Σ_cells (n_ij/N)·ln(n_ij·N / (r_i·c_j)), zero cells
    contributing zero, top-``k`` terms per label.

    Determinism contract: the statistic is reported in integer
    micro-NATS with ``floor(x·10^6 + 0.5)`` applied once after a
    FIXED-ORDER four-term float sum (n11, n10, n01, n00), and every
    intermediate mirrors the SQL restatement operation for operation —
    each integer product is cast to double BEFORE the division
    (``float(nij)·N / (float(ri)·float(cj))``), never divided as exact
    rationals, so CPython and DuckDB produce the same IEEE doubles and
    the oracle is hash-exact. Same contract edges as chi2: ``min_df``
    prune, and degenerate margins (``df == N`` or a label covering
    every document) dropped — IG is zero-information there.

    Shape: the ``_term_label_top`` contingency scaffold shared with
    chi2."""
    import math

    def ig(n11: int, df: int, nlab: int, n_total: int) -> int:
        nn_f = float(n_total)
        cells = ((n11, df, nlab),
                 (df - n11, df, n_total - nlab),
                 (nlab - n11, n_total - df, nlab),
                 (n_total - df - nlab + n11, n_total - df,
                  n_total - nlab))
        t_ = 0.0
        for nij, ri, cj in cells:
            if nij > 0:
                t_ += ((nij / nn_f)
                       * math.log(float(nij) * nn_f
                                  / (float(ri) * float(cj))))
        return math.floor(t_ * 1_000_000 + 0.5)

    return _term_label_top(ds, label_col, text_col, min_df, k,
                           "ig_micro", ig)


def token_frequency_spectrum(ds, text_col: str = "text"):
    """Vocabulary frequency spectrum (the count-of-counts curve a Zipf
    fit or a BPE-vocabulary budget reads): for every occurrence count
    ``c``, how many distinct tokens appear exactly ``c`` times in the
    corpus. Two combiner-shaped rounds: the ``token_counts`` word count
    (one (token, n) row per distinct token per batch), then a second
    tiny shuffle keyed on the count itself — its partials are one row
    per distinct c per batch, and distinct counts grow ~log(corpus), so
    round two is never the bottleneck at any scale."""
    from credit_ocr_backend_ray.stages.relational import grouped_agg

    def to_spectrum(t: pa.Table) -> pa.Table:
        g = t.group_by(["c"]).aggregate([([], "count_all")])
        return pa.table({"occurrences": g["c"], "__pc": g["count_all"]})

    spectrum_partials = token_counts(ds, text_col).map_batches(
        to_spectrum, batch_format="pyarrow")
    return grouped_agg(spectrum_partials, ["occurrences"],
                       {"__pc": "n_tokens"}, count_alias=None)


def inverted_index(ds, text_col: str = "text", id_col: str = "doc_id",
                   min_df: int = 1):
    """Inverted index build (the canonical web-scale MapReduce): token ->
    (document frequency, comma-joined sorted posting list). Tokenization
    is the same whitespace split as ``top_terms``.

    Shape: per-batch the (token, id) pairs are deduped (a doc contributes
    a token once) — that's the combiner — then ONE groupby(token) builds
    each posting list. The all-to-all moves (token, id) int/string pairs,
    never text. Skew note: stopword-grade tokens concentrate the largest
    groups; at extreme scale cap or segment hot postings (emit
    (token, segment_no, postings) rows) and/or prune with ``min_df`` —
    the combiner and groupby shapes carry over unchanged."""
    import numpy as np
    import pandas as pd

    def pairs(t: pa.Table) -> pa.Table:
        toks, ids = [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            for tok in set(tokens(txt)):
                toks.append(tok)
                ids.append(i)
        return pa.table({"token": pa.array(toks, pa.string()),
                         id_col: pa.array(ids, pa.int64())})

    # coarse-shard co-group over hash(token) — distinct-token count is
    # unbounded (Ray's per-key machinery prices by it); postings build
    # vectorizes across all tokens of a shard
    def postings(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["token", id_col])
              .sort_values(["token", id_col]))
        out = (g.assign(__s=g[id_col].astype(str))
                .groupby("token", as_index=False, sort=False)
                .agg(df=(id_col, "size"), postings=("__s", ",".join)))
        out["df"] = out["df"].astype(np.int64)
        return out[out["df"] >= min_df] if min_df > 1 else out

    from credit_ocr_backend_ray.stages.relational import shard_cogroup
    return shard_cogroup(ds.map_batches(pairs, batch_format="pyarrow"),
                         "token", postings)


def tfidf_top_term(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Highest-tf-idf token per document: ``score = tf * ln(N/df)``,
    reported in integer micro-units (``floor(score*1e6 + 0.5)``) so the
    DuckDB oracle hash-matches despite engine float association; ties
    break token-ascending.

    Shape: document frequencies come from one combiner-deduped
    groupby(token) count (only unique (token, doc) pairs cross the wire,
    then only (token, df) rows come back); the df table is broadcast via
    ``ray.put`` and each batch computes its docs' argmax locally — the
    per-document term vectors NEVER shuffle. The broadcast assumes a
    bounded vocabulary (true for natural-language corpora after min-df
    pruning); at open-vocabulary scale swap the broadcast for a
    shuffle-join of (doc, token, tf) against (token, df) — the df
    computation side is already the scale shape."""
    import math
    from collections import Counter

    import numpy as np
    import ray

    from credit_ocr_backend_ray.stages.relational import grouped_agg

    n_docs = ds.count()

    def pairs(t: pa.Table) -> pa.Table:
        toks, ids = [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            for tok in set(tokens(txt)):
                toks.append(tok)
                ids.append(i)
        return pa.table({"token": pa.array(toks, pa.string()),
                         "__one": pa.array(np.ones(len(toks), np.int64))})

    df_tbl = grouped_agg(ds.map_batches(pairs, batch_format="pyarrow"),
                         ["token"], {}, count_alias="df").to_pandas()
    df_map = dict(zip(df_tbl["token"], df_tbl["df"].astype(np.int64)))
    ref = ray.put(df_map)

    def top_of(t: pa.Table) -> pa.Table:
        dfm = ray.get(ref)
        out_id, out_tok, out_score = [], [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            tf = Counter(tokens(txt))
            if not tf:
                continue
            best_tok, best = None, None
            for tok, n in tf.items():
                s = int(math.floor(n * math.log(n_docs / dfm[tok])
                                   * 1e6 + 0.5))
                if best is None or s > best or (s == best
                                                and tok < best_tok):
                    best_tok, best = tok, s
            out_id.append(i)
            out_tok.append(best_tok)
            out_score.append(best)
        return pa.table({id_col: pa.array(out_id, pa.int64()),
                         "top_token": pa.array(out_tok, pa.string()),
                         "score_micro": pa.array(out_score, pa.int64())})

    return ds.map_batches(top_of, batch_format="pyarrow")


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = [t or "" for t in batch[text_col].to_pylist()]
    return (batch
            .append_column("fingerprint",
                           pa.array([fingerprint_md5(t) for t in texts],
                                    pa.string()))
            .append_column("rolling_fp",
                           pa.array([rolling_fingerprint(t) for t in texts],
                                    pa.uint64())))


def winnow_fingerprints(ds, k: int = 4, w: int = 4,
                        id_col: str = "doc_id",
                        text_col: str = "text"):
    """Winnowing document fingerprints (Schleimer, Wilkerson, Aiken,
    SIGMOD'03 — the MOSS local-similarity algorithm): hash every
    k-token gram, slide a w-gram window, select each window's minimal
    hash (RIGHTMOST occurrence on ties — the paper's rule, which both
    bounds fingerprint density and keeps selection position-robust),
    dedupe selected positions. Guarantees any shared token run of
    length >= k + w - 1 yields at least one shared fingerprint — the
    local complement of the global rolling_fingerprint.

    Exactness contract: the gram hash is the first 16 hex chars of
    md5(gram), compared LEXICOGRAPHICALLY — the python min over hex
    strings equals DuckDB's varchar min, so the whole selection is
    bit-exactly SQL-oracled (no engine hash involved). Documents with
    fewer than k tokens emit nothing; documents with fewer than w grams
    form a single window (at least one fingerprint per non-trivial doc,
    per the paper).

    Stateless one-pass map — the per-doc sliding-window minimum runs a
    monotonic deque, O(grams) per document, worker-side. Output: one
    row per selected fingerprint (doc_id, pos, fp), pos the 0-based
    token index of the gram start."""
    import hashlib
    from collections import deque

    def emit(t: pa.Table) -> pa.Table:
        out_id: list[int] = []
        out_pos: list[int] = []
        out_fp: list[str] = []
        for did, txt in zip(t[id_col].to_pylist(),
                            t[text_col].to_pylist()):
            toks = tokens(txt)
            nh = len(toks) - k + 1
            if nh <= 0:
                continue
            hs = [hashlib.md5(" ".join(toks[i:i + k]).encode("utf-8"))
                  .hexdigest()[:16] for i in range(nh)]
            selected: set[int] = set()
            dq: deque[int] = deque()
            first_end = min(w, nh) - 1   # short docs: one whole window
            for i in range(nh):
                while dq and hs[dq[-1]] >= hs[i]:
                    dq.pop()             # >= : rightmost minimum wins
                dq.append(i)
                if i >= first_end:
                    while dq[0] <= i - w:
                        dq.popleft()
                    selected.add(dq[0])
            for i in sorted(selected):
                out_id.append(did)
                out_pos.append(i)
                out_fp.append(hs[i])
        return pa.table({
            id_col: pa.array(out_id, pa.int64()),
            "pos": pa.array(out_pos, pa.int64()),
            "fp": pa.array(out_fp, pa.string()),
        })

    return ds.map_batches(emit, batch_format="pyarrow")


def winnow_overlap(ds, k: int = 4, w: int = 4, min_shared: int = 2,
                   id_col: str = "doc_id", text_col: str = "text",
                   max_bucket: int = 1024):
    """Cross-document local-similarity pairs from winnowing
    fingerprints (the MOSS match step): documents sharing at least
    ``min_shared`` distinct fingerprint values, with the shared count —
    plagiarism/mirror detection that exact-dedup and MinHash both miss
    (MinHash estimates GLOBAL Jaccard; winnowing guarantees hits on
    LOCAL shared runs of >= k + w - 1 tokens).

    Shape: fingerprint emit (stateless map) → distinct (doc, fp) →
    one fp-shard co-group producing within-bucket pairs (a fingerprint
    shared by m docs yields m·(m-1)/2 pairs; any bucket over
    ``max_bucket`` docs raises an explicit ValueError rather than
    silently exploding — the interval_self_join cap pattern; raise it
    consciously for pathological corpora) → one pair-keyed combine for
    the shared counts. Output: (doc_a, doc_b, n_shared), doc_a <
    doc_b."""
    import itertools

    import pandas as pd

    from credit_ocr_backend_ray.stages.relational import (
        grouped_agg, shard_cogroup)

    fps = winnow_fingerprints(ds, k=k, w=w, id_col=id_col,
                              text_col=text_col)

    def local_distinct(b: pd.DataFrame) -> pd.DataFrame:
        return (b[[id_col, "fp"]].drop_duplicates()
                .reset_index(drop=True))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        a_out: list[int] = []
        b_out: list[int] = []
        for fp, grp in g.groupby("fp", sort=False):
            docs = np.unique(grp[id_col].to_numpy(np.int64))
            if len(docs) > max_bucket:
                raise ValueError(
                    f"winnow_overlap: fingerprint {fp!r} shared by "
                    f"{len(docs)} documents exceeds max_bucket="
                    f"{max_bucket}; pairs would explode quadratically "
                    "— raise the cap consciously or pre-dedup exact "
                    "duplicates first")
            for x, y in itertools.combinations(docs, 2):
                a_out.append(int(x))
                b_out.append(int(y))
        return pd.DataFrame({"doc_a": pd.array(a_out, dtype="int64"),
                             "doc_b": pd.array(b_out, dtype="int64"),
                             "__n": np.ones(len(a_out), np.int64)})

    pair_rows = shard_cogroup(
        fps.map_batches(local_distinct, batch_format="pandas"), "fp", pairs)
    counted = grouped_agg(pair_rows, ["doc_a", "doc_b"],
                          {"__n": "n_shared"}, count_alias=None)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        return (b[b["n_shared"].to_numpy(np.int64) >= min_shared]
                .reset_index(drop=True))

    return counted.map_batches(keep, batch_format="pandas")


def doc_mean_token_freq(ds, id_col: str = "doc_id",
                        text_col: str = "text"):
    """Per-document mean corpus-frequency of its tokens — the
    integer-exact cousin of a unigram-LM "surprisal" filter (CCNet-style
    curation drops documents whose tokens are unusually rare/common;
    this scores commonness without a transcendental log that could
    drift an ulp between engines). Three combiner-shaped stages:

    1. corpus word count (one (token, n) row per distinct token per
       batch crosses the shuffle),
    2. per-doc DISTINCT token weights (doc_id, token, k) — k = in-doc
       occurrences, so the join below moves one row per distinct
       (doc, token), never per instance,
    3. a token-keyed hash join back to the counts (the honest
       large-large path: the vocabulary is unbounded, so it must NOT
       broadcast), then one grouped sum per doc.

    Output: (doc_id, n_tokens, mean_freq_micro) with mean_freq_micro =
    floor(1e6 * sum(k*c) / n_tokens) in int64 (sum(k*c) ≤ corpus_tokens²
    per doc slice — rescale before the multiply if a corpus approaches
    2^31 token instances)."""
    from collections import Counter

    from credit_ocr_backend_ray.stages.relational import (
        grouped_agg, shuffle_join)

    counts = token_counts(ds, text_col)

    def doc_pairs(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        toks: list[str] = []
        ks: list[int] = []
        for i, txt in zip(t[id_col].to_pylist(),
                          t[text_col].to_pylist()):
            for tok, k in Counter(tokens(txt)).items():
                ids.append(i)
                toks.append(tok)
                ks.append(k)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "token": pa.array(toks, pa.string()),
                         "k": pa.array(ks, pa.int64())})

    pairs = ds.map_batches(doc_pairs, batch_format="pyarrow")
    joined = shuffle_join(pairs, counts, on="token")

    import pandas as pd

    def contrib(b: "pd.DataFrame") -> "pd.DataFrame":
        b = b.copy()
        b["kc"] = b["k"] * b["c"]
        return b[[id_col, "k", "kc"]]

    per_doc = grouped_agg(joined.map_batches(contrib,
                                             batch_format="pandas"),
                          [id_col], {"k": "n_tokens", "kc": "sum_freq"},
                          count_alias=None)

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["mean_freq_micro"] = (b["sum_freq"] * 1_000_000
                                // b["n_tokens"]).astype("int64")
        return b[[id_col, "n_tokens", "mean_freq_micro"]]

    return per_doc.map_batches(fin, batch_format="pandas")


def unigram_nll(ds, id_col: str = "doc_id", text_col: str = "text",
                top_vocab: int = 65_536):
    """Per-document unigram-LM negative log-likelihood — the CCNet-style
    perplexity filter (Wenzek et al. 2019: score documents with a
    language model and drop outliers; the reference has no counterpart —
    a training-data-funnel scale addition next to doc_mean_token_freq,
    which deliberately avoids the log).

    The transcendental is kept OFF the distributed path so the result
    is order-independent and bit-exactly SQL-oracled: the model is the
    corpus's own top-``top_vocab`` unigrams (bounded by construction —
    the tokenizer-vocab convention), each entry's log-prob is quantized
    ONCE on the driver to int64 micro-nats (floor(ln(c/N) * 1e6)), and
    every out-of-vocab token shares one UNK symbol carrying the entire
    pruned mass. Per-document scoring is then an exact int64 sum.

    Stages: (1) corpus token counts (combiner partial + cogroup merge),
    materialized once because two consumers read it; (2) top-V prune via
    ``global_topk`` (per-batch prune + tiny final sort — never a full
    vocabulary sort) plus a scalar total from the same counts table;
    (3) the <= top_vocab micro-nat table broadcast once (``ray.put``),
    per-batch vectorized lookup (``Series.map``) + ``np.add.reduceat``
    per doc.

    Output: (doc_id, n_tokens, nll_micro, nll) with ``nll_micro`` the
    exact int64 total and ``nll = nll_micro / (1e6 * n_tokens)`` — a
    deterministic float64 division of exact integers. Zero-token
    documents are excluded (no likelihood to take)."""
    import itertools
    import math

    import pandas as pd
    import ray

    from credit_ocr_backend_ray.stages.relational import global_topk

    counts = token_counts(ds, text_col).materialize()
    total = int(counts.sum("c") or 0)
    kept = global_topk(counts, ["c", "token"], top_vocab,
                       ascending=[False, True]).to_pandas()

    lut: dict[str, int] = {
        tok: math.floor(math.log(c / total) * 1e6)
        for tok, c in zip(kept["token"], kept["c"])}
    unk_mass = total - int(kept["c"].sum())
    unk_mlp = (math.floor(math.log(unk_mass / total) * 1e6)
               if unk_mass > 0 else 0)
    lut_ref = ray.put(lut)

    schema = pa.schema([(id_col, pa.int64()), ("n_tokens", pa.int64()),
                        ("nll_micro", pa.int64()), ("nll", pa.float64())])

    def score(t: pa.Table) -> pa.Table:
        mdl = ray.get(lut_ref)
        doc_ids: list[int] = []
        doc_toks: list[list[str]] = []
        for i, txt in zip(t[id_col].to_pylist(),
                          t[text_col].to_pylist()):
            toks = tokens(txt)
            if toks:
                doc_ids.append(i)
                doc_toks.append(toks)
        if not doc_ids:
            return schema.empty_table()
        lens = np.fromiter((len(x) for x in doc_toks), dtype=np.int64,
                           count=len(doc_toks))
        flat = list(itertools.chain.from_iterable(doc_toks))
        mlp = (pd.Series(flat, dtype=object).map(mdl)
                 .fillna(unk_mlp).to_numpy(dtype=np.int64))
        bounds = np.concatenate(([0], np.cumsum(lens)[:-1]))
        nll_micro = -np.add.reduceat(mlp, bounds)
        return pa.table({
            id_col: pa.array(doc_ids, pa.int64()),
            "n_tokens": pa.array(lens),
            "nll_micro": pa.array(nll_micro),
            "nll": pa.array(nll_micro.astype(np.float64) / (1e6 * lens)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def compression_ratio_batch(batch: pa.Table,
                            text_col: str = "text") -> pa.Table:
    """Gopher-style compressibility signal: zlib(level 6) compressed
    size over raw utf-8 size in integer micro-units (floor) — highly
    repetitive boilerplate compresses far below normal prose. Stateless
    in-row map; zlib is deterministic at a fixed level so the column is
    reproducible, but no SQL engine exposes it (rows-only contract)."""
    import zlib

    ratios = []
    for txt in batch[text_col].to_pylist():
        raw = (txt or "").encode("utf-8")
        if not raw:
            ratios.append(0)
            continue
        comp = zlib.compress(raw, 6)
        ratios.append(len(comp) * 1_000_000 // len(raw))
    return batch.append_column("compress_ratio_micro",
                               pa.array(ratios, pa.int64()))


def top_bigrams(ds, k: int = 30, text_col: str = "text"):
    """Global top-k adjacent-token bigrams — the collocation counter a
    tokenizer-vocabulary or BPE-merge builder runs over a corpus. Same
    combiner shape as ``top_terms``: the ``bigram_counts`` pass, then a
    cluster sort + limit. Tie-break (w1, w2) ascending for a
    deterministic cut."""
    return (bigram_counts(ds, text_col)
            .sort(["n", "w1", "w2"], descending=[True, False, False])
            .limit(k))


def source_vocab_jaccard(ds, text_col: str = "text",
                         group_col: str = "source"):
    """Pairwise vocabulary Jaccard between sources — the cross-corpus
    lexical-overlap matrix a mixing-weights decision reads (are two
    crawl dumps the same register, or disjoint domains?).

    Shape: per-batch distinct (token, source) pairs (texts never cross
    the wire), ONE coarse token-shard co-group in which each token's
    global source set is known — so per shard a vectorized self-merge
    emits pair-intersection partials AND per-source vocab partials
    (encoded as self-pairs (s, s)), then one tiny bounded-key aggregate
    (#source² rows) finishes on the driver. Jaccard is computed from
    the exact integer counts in ONE double division, so the rounded
    column is engine-independent. Sparse contract: a source pair with
    ZERO shared tokens emits no row at all (like a SQL inner join on
    the token)."""
    import pandas as pd

    from credit_ocr_backend_ray.stages.relational import (
        grouped_agg, shard_cogroup)

    def local_pairs(t: pa.Table) -> pa.Table:
        seen: set = set()
        for txt, src in zip(t[text_col].to_pylist(),
                            t[group_col].to_pylist()):
            for tok in tokens(txt):
                seen.add((tok, src))
        return pa.table({
            "token": pa.array([p[0] for p in seen], pa.string()),
            "src": pa.array([p[1] for p in seen], pa.string()),
        })

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["token", "src"]].drop_duplicates()
        m = d.merge(d, on="token")
        m = m[m["src_x"] <= m["src_y"]]  # self-pairs carry vocab sizes
        c = (m.groupby(["src_x", "src_y"], as_index=False).size()
              .rename(columns={"size": "__pn", "src_x": "src_a",
                               "src_y": "src_b"}))
        c["__pn"] = c["__pn"].astype("int64")
        return c

    parted = shard_cogroup(ds.map_batches(local_pairs, batch_format="pyarrow"),
                           "token", per_shard)
    counts = grouped_agg(parted, ["src_a", "src_b"], {"__pn": "n_common"},
                         count_alias=None)

    def fin(b: pd.DataFrame) -> pd.DataFrame:
        vocab = dict(zip(b.loc[b["src_a"] == b["src_b"], "src_a"],
                         b.loc[b["src_a"] == b["src_b"], "n_common"]))
        out = b[b["src_a"] < b["src_b"]].copy()
        n_a = out["src_a"].map(vocab).to_numpy(np.int64)
        n_b = out["src_b"].map(vocab).to_numpy(np.int64)
        nc = out["n_common"].to_numpy(np.int64)
        out["jaccard"] = np.round(nc / (n_a + n_b - nc), 6)
        return out[["src_a", "src_b", "n_common", "jaccard"]]

    # bounded output (#source² rows): single-block finish
    return counts.repartition(1).map_batches(fin, batch_size=None,
                                             batch_format="pandas")


def normalize_text(ds: "rd.Dataset", col: str = "text",
                   out_col: str = "norm_text") -> "rd.Dataset":
    """Corpus text normalization — the canonical form dedup/tokenize
    stages key on: Unicode lowercase, whitespace runs collapsed to one
    space, trimmed, then NFC composition. Lower/collapse/trim are pure
    Arrow kernels (one C call each per batch); NFC falls back to
    ``unicodedata.normalize`` per STRING because this build's
    ``pc.utf8_normalize`` is a no-op (verified: it returns its input for
    every form) — with an ``isascii`` fast path, so pure-ASCII batches
    never enter Python at all. Matches DuckDB
    ``nfc_normalize(trim(regexp_replace(lower(x), '\\s+', ' ', 'g')))``
    operation-for-operation."""
    import unicodedata

    import pyarrow.compute as pc

    def norm(t: pa.Table) -> pa.Table:
        col_arr = t[col]
        if pa.types.is_null(col_arr.type):  # all-null block
            col_arr = col_arr.cast(pa.string())
        arr = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(pc.utf8_lower(col_arr),
                                       r"\s+", " "))
        vals = arr.to_pylist()
        out = [v if (v is None or v.isascii())
               else unicodedata.normalize("NFC", v) for v in vals]
        return t.append_column(out_col, pa.array(out, pa.string()))

    return ds.map_batches(norm, batch_format="pyarrow")


# PII patterns shared verbatim with the SQL oracle: RE2-compatible
# syntax (no lookahead/backreference), leftmost-first alternation-free
# shapes so python re and DuckDB RE2 produce identical replacements.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IBAN = r"\b[A-Z]{2}[0-9]{2}[A-Z0-9]{11,30}\b"
PII_PHONE = r"\+[0-9]{2}[0-9 ]{7,14}[0-9]"


def redact_pii(ds: "rd.Dataset", text_col: str = "text",
               id_col: str = "doc_id") -> "rd.Dataset":
    """PII scrubbing for training corpora: replace emails, IBANs, and
    international phone numbers with typed placeholder tokens and count
    what was removed — the pre-training privacy gate. Stateless
    map_batches; patterns compile once per worker process (module
    constants). Replacement ORDER is part of the contract (email ->
    IBAN -> phone: an email's host must not be re-matched, placeholders
    contain no digits so later passes can't touch earlier redactions).
    Output: (id, redacted, n_emails, n_ibans, n_phones)."""
    import hashlib
    import re as _re

    pats = [(_re.compile(PII_EMAIL), "<EMAIL>"),
            (_re.compile(PII_IBAN), "<IBAN>"),
            (_re.compile(PII_PHONE), "<PHONE>")]

    def scrub(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        out_txt, counts = [], [[], [], []]
        for s in t[text_col].to_pylist():
            s = s or ""
            for k, (pat, tok) in enumerate(pats):
                s, n = pat.subn(tok, s)
                counts[k].append(n)
            out_txt.append(s)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "redacted_sha": pa.array(
                [hashlib.sha256(s.encode("utf-8")).hexdigest()
                 for s in out_txt], pa.string()),
            "n_emails": pa.array(counts[0], pa.int64()),
            "n_ibans": pa.array(counts[1], pa.int64()),
            "n_phones": pa.array(counts[2], pa.int64()),
        })

    return ds.map_batches(scrub, batch_format="pyarrow")


def bigram_lift(ds, k: int = 30, min_count: int = 5,
                text_col: str = "text"):
    """Top-k collocations by LIFT — ``N * n(w1,w2) / (n(w1,*) * n(*,w2))``
    with positional marginals — the association measure that surfaces
    genuinely bound pairs instead of pairs of frequent words (raw-count
    top_bigrams' failure mode). Integer-exact: lift is reported in
    floor-divided micro-units computed with arbitrary-precision Python
    ints (n * 1e6 * N overflows int64 at web scale; the frame it runs
    on is the min_count-filtered bigram table, already reduced).

    Shape: the distributed bigram count materializes ONCE (it feeds
    three consumers: both marginals and the main stream — without the
    materialize each would re-run the corpus scan), marginals are
    grouped sums of that table, two hash joins attach them, and the
    driver folds only the bounded filtered frame for the final exact
    arithmetic + top-k."""
    import pandas as pd

    from credit_ocr_backend_ray.stages.relational import (
        grouped_agg, shuffle_join)

    counts = bigram_counts(ds, text_col).materialize()

    big_n = int(counts.sum("n"))
    m1 = grouped_agg(counts, ["w1"], {"n": "nx"}, count_alias=None)
    m2 = grouped_agg(counts, ["w2"], {"n": "ny"}, count_alias=None)
    filtered = counts.filter(expr=f"n >= {min_count}")
    joined = shuffle_join(shuffle_join(filtered, m1, "w1", num_partitions=8),
                          m2, "w2", num_partitions=8).to_pandas()
    lifts = [
        (int(r.n) * 1_000_000 * big_n) // (int(r.nx) * int(r.ny))
        for r in joined.itertuples(index=False)]
    joined["lift_micro"] = pd.array(lifts, dtype="int64")
    return (joined.sort_values(["lift_micro", "w1", "w2"],
                               ascending=[False, True, True])
            .head(k)[["w1", "w2", "n", "lift_micro"]]
            .reset_index(drop=True))


def learn_bpe(ds, n_merges: int = 50, text_col: str = "text",
              min_pair_count: int = 2, min_word_count: int = 2,
              max_vocab_rows: int = 2_000_000) -> list[tuple[str, str]]:
    """Distributed BPE vocabulary learning (Sennrich et al.'s byte-pair
    encoding, the standard subword-tokenizer trainer): the corpus-scale
    work is ONE distributed word count (``token_counts``); the merge
    loop then runs driver-side over the bounded distinct-word frequency
    table — each round picks the most frequent adjacent symbol pair
    (count desc, pair asc tie-break: deterministic) and rewrites ONLY
    the words containing it, keeping pair counts incrementally via a
    pair->words index (never a full O(vocab) rescan per merge).

    The bounded-vocab contract is ENFORCED, not assumed: words rarer
    than ``min_word_count`` are pruned DISTRIBUTED (Dataset.filter on
    the combiner output) before anything reaches the driver — a real
    web corpus has 10^8-10^9+ distinct whitespace tokens (typos, URLs,
    hex ids), almost all singletons that cannot influence any merge
    that also clears ``min_pair_count``; the surviving table is then
    counted and, if it still exceeds ``max_vocab_rows``, raises with
    the knob to turn (raise ``min_word_count``) instead of OOMing the
    driver fold.

    NOTE pruning IS a semantic knob: a pair occurring once in each of
    10^6 distinct singleton words has corpus count 10^6, which exact
    BPE would see. ``min_word_count=1`` restores exact Sennrich
    behavior (the cap still protects the driver); the default of 2
    matches production trainers (subword-nmt/SentencePiece vocab
    thresholds) where sub-``min_pair_count`` tails are noise."""
    from collections import Counter, defaultdict

    freqs_ds = token_counts(ds, text_col)
    if min_word_count > 1:
        freqs_ds = freqs_ds.filter(expr=f"c >= {min_word_count}")
    freqs_ds = freqs_ds.materialize()     # blocks spill; driver heap safe
    n_rows = freqs_ds.count()
    if n_rows > max_vocab_rows:
        raise ValueError(
            f"learn_bpe: {n_rows} distinct words survive "
            f"min_word_count={min_word_count} (> max_vocab_rows="
            f"{max_vocab_rows}); the driver merge fold would not be "
            "bounded — raise min_word_count (or max_vocab_rows if you "
            "have the driver memory)")
    freqs = freqs_ds.to_pandas()

    # driver loop over the bounded word table: incremental pair counts
    # + a pair->word-ids index so each merge touches only affected words
    words: list[list] = [
        [tuple(w) + ("</w>",), int(n)]
        for w, n in zip(freqs["token"], freqs["c"])]
    pair_counts: Counter = Counter()
    pair_words: dict = defaultdict(set)
    for wi, (sym, n) in enumerate(words):
        for p in zip(sym, sym[1:]):
            pair_counts[p] += n
            pair_words[p].add(wi)
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        if not pair_counts:
            break
        best, cnt = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if cnt < min_pair_count:
            break
        merges.append(best)
        joined = best[0] + best[1]
        # pair_words is maintained lazily (stale ids are skipped here),
        # so pop — a later merge re-adding this pair re-indexes cleanly
        for wi in sorted(pair_words.pop(best, ())):
            sym, n = words[wi]
            if best not in zip(sym, sym[1:]):
                continue                         # stale index entry
            for p in zip(sym, sym[1:]):          # retire old pairs
                pair_counts[p] -= n
                if pair_counts[p] <= 0:
                    del pair_counts[p]
            new: list[str] = []
            i = 0
            while i < len(sym):
                if (i + 1 < len(sym)
                        and (sym[i], sym[i + 1]) == best):
                    new.append(joined)
                    i += 2
                else:
                    new.append(sym[i])
                    i += 1
            sym = tuple(new)
            words[wi][0] = sym
            for p in zip(sym, sym[1:]):
                pair_counts[p] += n
                pair_words[p].add(wi)
    return merges


def apply_bpe(ds, merges: list[tuple[str, str]], text_col: str = "text",
              id_col: str = "doc_id"):
    """Tokenize a corpus with a learned BPE merge list — the stateful
    broadcast-apply stage: the merge-rank dict ships once via
    ``ray.put`` and each batch segments its words greedily by merge
    rank (the standard BPE encoder). Emits (id, n_tokens, n_subwords):
    the compression diagnostic (subwords per whitespace token) every
    tokenizer change is judged by."""
    import ray

    ranks = {m: i for i, m in enumerate(merges)}
    rref = ray.put(ranks)

    def encode_word(word: str, rk: dict) -> int:
        sym = list(word) + ["</w>"]
        while len(sym) > 1:
            best_i, best_r = -1, len(rk)
            for i in range(len(sym) - 1):
                r = rk.get((sym[i], sym[i + 1]), len(rk))
                if r < best_r:
                    best_i, best_r = i, r
            if best_i < 0 or best_r >= len(rk):
                break
            sym[best_i:best_i + 2] = [sym[best_i] + sym[best_i + 1]]
        return len(sym)

    def apply(t: pa.Table) -> pa.Table:
        rk = ray.get(rref)
        cache: dict[str, int] = {}
        ids, nt, nsw = [], [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            total = 0
            for w in toks:
                if w not in cache:
                    cache[w] = encode_word(w, rk)
                total += cache[w]
            ids.append(i)
            nt.append(len(toks))
            nsw.append(total)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "n_subwords": pa.array(nsw, pa.int64()),
        })

    return ds.map_batches(apply, batch_format="pyarrow")


def hashed_features(ds, d: int = 64, id_col: str = "doc_id",
                    text_col: str = "text"):
    """Feature hashing — the "hashing trick" (Weinberger et al. 2009):
    project each document's bag of tokens into a fixed ``d``-dimensional
    signed-count vector with NO vocabulary pass, the standard cheap
    featurizer for linear quality classifiers at corpus scale (Vowpal
    Wabbit's input layer; what nb_source_score would use when even a
    capped vocabulary is too big).

    Per token occurrence: ``u = first-32-md5-bits(token)``; bucket
    ``u % d`` gains sign ``+1`` if bit 16 of ``u`` is 0 else ``-1``
    (the sign bit is taken well above the bucket bits so the two are
    independent — low bits alone would make sign a function of bucket).
    md5 keeps the engine-independence contract of
    ``relational.deterministic_sample``; the per-distinct-token hash is
    cached per batch, so the loop runs over the batch vocabulary, not
    over occurrences.

    Output is sparse long form (doc_id, bucket, feat) with zero-sum
    cells dropped — at most ``d`` rows per document. Stateless single
    ``map_batches`` pass, no shuffle; downstream consumers pivot or
    gather per doc as needed."""
    import hashlib
    from collections import Counter

    def featurize(t: pa.Table) -> pa.Table:
        cache: dict[str, tuple[int, int]] = {}
        ids: list[int] = []
        buckets: list[int] = []
        feats: list[int] = []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            if not toks:
                continue
            acc: Counter = Counter()
            for w, c in Counter(toks).items():
                bs = cache.get(w)
                if bs is None:
                    u = int.from_bytes(
                        hashlib.md5(w.encode()).digest()[:4], "big")
                    bs = (u % d, 1 if (u >> 16) & 1 == 0 else -1)
                    cache[w] = bs
                acc[bs[0]] += bs[1] * c
            for b in sorted(acc):
                if acc[b]:
                    ids.append(i)
                    buckets.append(b)
                    feats.append(acc[b])
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "bucket": pa.array(buckets, pa.int64()),
            "feat": pa.array(feats, pa.int64()),
        })

    return (ds.select_columns([id_col, text_col])
              .map_batches(featurize, batch_format="pyarrow"))


def bigram_nll(ds, id_col: str = "doc_id", text_col: str = "text",
               top_vocab: int = 65_536, min_count: int = 1,
               max_model_rows: int = 5_000_000):
    """Per-document bigram-LM negative log-likelihood — the next step of
    the CCNet perplexity ladder after ``unigram_nll`` (Wenzek et al.
    2019 score with a KenLM n-gram model; this is the n=2 rung with
    Laplace smoothing, self-trained on the corpus like its sibling).

    Model: vocabulary = the corpus's top-``top_vocab`` unigrams plus one
    UNK symbol (``\\x01`` — whitespace tokenization can never produce
    it); every transition probability is
    ``P(w|v) = (c(v,w)+1) / (cv(v)+V1)`` with ``cv(v)`` the total
    transitions out of ``v`` and ``V1`` the vocabulary size including
    UNK. Observed bigrams with ``c < min_count`` are DEFINED as unseen
    (the prune is part of the scoring contract, not an approximation),
    which bounds the broadcast model on heavy-tailed corpora; if the
    pruned table still exceeds ``max_model_rows`` the op raises
    ValueError (learn_bpe's explicit-cap pattern) rather than melting
    the driver. All log-probs are quantized ONCE on the driver to int64
    micro-nats (floor(ln(p)*1e6)), so per-document scoring is an exact
    integer sum — order-independent and bit-exactly SQL-oracled.

    Stages: (1) unigram counts (combiner + cogroup) → top-V vocab via
    ``global_topk``; (2) vocab broadcast, one transition-count pass
    (consecutive in-document pairs, OOV collapsed to UNK — the count
    table is keyed by vocab², already collapsed, never raw tokens);
    (3) driver quantization of the ≤ max_model_rows bigram LUT plus a
    V1-sized per-context unseen default; (4) broadcast both, vectorized
    lookup per batch, ``np.add.reduceat`` per doc.

    Output: (doc_id, n_transitions, nll_micro, nll); documents with
    fewer than 2 tokens have no transitions and are excluded."""
    import itertools
    import math
    from collections import Counter

    import pandas as pd
    import ray

    from credit_ocr_backend_ray.stages.relational import (
        global_topk, grouped_agg)

    UNK = "\x01"
    SEP = "\x02"

    kept = global_topk(token_counts(ds, text_col), ["c", "token"], top_vocab,
                       ascending=[False, True]).to_pandas()
    vocab = frozenset(kept["token"])
    v1 = len(vocab) + 1
    vocab_ref = ray.put(vocab)

    def bigram_partial(t: pa.Table) -> pa.Table:
        vset = ray.get(vocab_ref)
        c: Counter = Counter()
        for txt in t[text_col].to_pylist():
            toks = tokens(txt)
            if len(toks) < 2:
                continue
            m = [tok if tok in vset else UNK for tok in toks]
            c.update(zip(m, m[1:]))
        return pa.table({
            "bg": pa.array([v + SEP + w for v, w in c.keys()],
                           pa.string()),
            "__pn": pa.array(list(c.values()), pa.int64()),
        })

    # the transition table is keyed by (vocab+UNK)^2 — collapsed before
    # it ever crosses the wire; raw tokens never shuffle
    bgc = grouped_agg(ds.map_batches(bigram_partial,
                                     batch_format="pyarrow"),
                      ["bg"], {"__pn": "c"}, count_alias=None).to_pandas()
    # context totals from the FULL (unpruned) table — cv is V1-bounded
    ctx = (bgc.assign(__v=bgc["bg"].str.split(SEP).str[0])
              .groupby("__v")["c"].sum())
    cv = {v: int(n) for v, n in ctx.items()}

    pruned = bgc[bgc["c"] >= min_count]
    if len(pruned) > max_model_rows:
        raise ValueError(
            f"bigram model has {len(pruned)} rows after the "
            f"min_count={min_count} prune — above max_model_rows="
            f"{max_model_rows}; raise min_count (or max_model_rows if "
            f"the driver can hold the table)")
    lut = {bg: math.floor(math.log((int(c) + 1)
                                   / (cv[bg.split(SEP, 1)[0]] + v1))
                          * 1e6)
           for bg, c in zip(pruned["bg"], pruned["c"])}
    dflt = {v: math.floor(math.log(1.0 / (n + v1)) * 1e6)
            for v, n in cv.items()}
    # a vocab word appearing ONLY doc-final never occurs as a context,
    # so it has no cv entry; scoring such a context (possible in a doc
    # the model-side pass never saw a transition for — not at
    # self-train time, but keep it total) uses cv=0: ln(1/(0+v1))
    zero_mlp = math.floor(math.log(1.0 / v1) * 1e6)
    model_ref = ray.put((lut, dflt))

    schema = pa.schema([(id_col, pa.int64()),
                        ("n_transitions", pa.int64()),
                        ("nll_micro", pa.int64()), ("nll", pa.float64())])

    def score(t: pa.Table) -> pa.Table:
        vset = ray.get(vocab_ref)
        mdl, de = ray.get(model_ref)
        doc_ids: list[int] = []
        doc_bgs: list[list[str]] = []
        doc_vs: list[list[str]] = []
        for i, txt in zip(t[id_col].to_pylist(),
                          t[text_col].to_pylist()):
            toks = tokens(txt)
            if len(toks) < 2:
                continue
            m = [tok if tok in vset else UNK for tok in toks]
            doc_ids.append(i)
            doc_bgs.append([v + SEP + w for v, w in zip(m, m[1:])])
            doc_vs.append(m[:-1])
        if not doc_ids:
            return schema.empty_table()
        lens = np.fromiter((len(x) for x in doc_bgs), dtype=np.int64,
                           count=len(doc_bgs))
        flat_bg = list(itertools.chain.from_iterable(doc_bgs))
        flat_v = list(itertools.chain.from_iterable(doc_vs))
        mlp = pd.Series(flat_bg, dtype=object).map(mdl)
        miss = mlp.isna()
        if miss.any():
            fall = (pd.Series(np.asarray(flat_v, dtype=object)[miss])
                      .map(de).fillna(zero_mlp))
            mlp[miss] = fall.to_numpy()
        mlp = mlp.to_numpy(dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(lens)[:-1]))
        nll_micro = -np.add.reduceat(mlp, bounds)
        return pa.table({
            id_col: pa.array(doc_ids, pa.int64()),
            "n_transitions": pa.array(lens),
            "nll_micro": pa.array(nll_micro),
            "nll": pa.array(nll_micro.astype(np.float64) / (1e6 * lens)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def trigram_nll(ds, id_col: str = "doc_id", text_col: str = "text",
                top_vocab: int = 65_536, min_count: int = 1,
                max_model_rows: int = 5_000_000, alpha: float = 0.4):
    """Per-document trigram stupid-backoff score — the n=3 rung of the
    CCNet perplexity ladder, using the backoff designed FOR distributed
    corpus-scale LMs (Brants et al., EMNLP 2007 "Large Language Models
    in Machine Translation": Google's 2-trillion-token MapReduce LM;
    the same count-don't-normalize trick this engine needs at 100 TB).
    Unlike ``bigram_nll``'s Laplace smoothing, stupid backoff never
    normalizes: S(w|u,v) = c(uvw)/c(uv) if the trigram survives the
    ``min_count`` prune, else alpha*c(vw)/c(v), else
    alpha^2*c(w)/N — so the model is nothing but count tables, which
    merge associatively across any number of workers.

    Exactness contract (shared with its siblings): vocabulary = the
    corpus's top-``top_vocab`` unigrams (count DESC, token ASC) plus
    UNK (``\\x01``); trigrams AND bigrams with ``c < min_count`` are
    DEFINED as backed-off (Brants et al. prune every count table; the
    prune is the contract, bounding the broadcast model — and without
    it the unigram branch would be unreachable self-trained, since any
    scored (v,w) is by definition an observed bigram). Denominators
    always use the RAW context counts: c2(u,v) for surviving trigrams,
    c1(v) for surviving bigrams. Every branch's log-score is quantized
    ONCE on the driver to
    int64 micro-nats (floor(ln(S)*1e6)), so per-document scoring is an
    exact integer sum — bit-exactly SQL-oracled and order-independent.
    If the retained trigram+bigram tables exceed ``max_model_rows`` the
    op raises ValueError (learn_bpe's explicit-cap pattern).

    Stages: (1) unigram counts (``token_counts``), materialized once:
    N is their sum and the vocabulary their ``global_topk(top_vocab)``;
    (2) vocab broadcast, ONE collapsed-count pass emitting tagged
    trigram AND bigram keys (the tables are keyed by (vocab+UNK)^n —
    collapsed before they cross the wire, raw tokens never shuffle);
    (3) driver micro-nat LUTs for all three branches; (4) broadcast,
    vectorized cascade lookup per batch, ``np.add.reduceat`` per doc.

    Output: (doc_id, n_transitions, nll_micro, nll); documents with
    fewer than 3 tokens have no trigram transitions and are excluded."""
    import itertools
    import math
    from collections import Counter

    import pandas as pd
    import ray

    from credit_ocr_backend_ray.stages.relational import (
        global_topk, grouped_agg)

    UNK = "\x01"
    SEP = "\x02"

    counts = token_counts(ds, text_col).materialize()
    n_tok = int(counts.sum("c") or 0)
    kept = global_topk(counts, ["c", "token"], top_vocab,
                       ascending=[False, True]).to_pandas()
    vocab = frozenset(kept["token"])
    c1 = {tok: int(n) for tok, n in zip(kept["token"], kept["c"])}
    unk_n = n_tok - sum(c1.values())
    if unk_n > 0:
        c1[UNK] = unk_n
    vocab_ref = ray.put(vocab)

    def gram_partial(t: pa.Table) -> pa.Table:
        vset = ray.get(vocab_ref)
        c: Counter = Counter()
        for txt in t[text_col].to_pylist():
            toks = tokens(txt)
            if len(toks) < 2:
                continue
            m = [tok if tok in vset else UNK for tok in toks]
            c.update("2" + SEP + v + SEP + w for v, w in zip(m, m[1:]))
            c.update("3" + SEP + u + SEP + v + SEP + w
                     for u, v, w in zip(m, m[1:], m[2:]))
        return pa.table({
            "gram": pa.array(list(c.keys()), pa.string()),
            "__pn": pa.array(list(c.values()), pa.int64()),
        })

    gc = grouped_agg(ds.map_batches(gram_partial,
                                    batch_format="pyarrow"),
                     ["gram"], {"__pn": "c"}, count_alias=None).to_pandas()
    tg = gc[gc["gram"].str.startswith("3")]
    bg = gc[gc["gram"].str.startswith("2")]
    c2 = {g[2:]: int(n) for g, n in zip(bg["gram"], bg["c"])}
    tg = tg[tg["c"] >= min_count]
    if len(tg) + len(bg) > max_model_rows:
        raise ValueError(
            f"trigram model has {len(tg) + len(bg)} rows after the "
            f"min_count={min_count} prune — above max_model_rows="
            f"{max_model_rows}; raise min_count (or max_model_rows if "
            f"the driver can hold the tables)")
    # three micro-nat LUTs; floats follow the same left-to-right op
    # order the SQL oracle states, so floor(ln(.)*1e6) is bit-equal
    lut3 = {}
    for g, c in zip(tg["gram"], tg["c"]):
        key = g[2:]
        uv = key.rsplit(SEP, 1)[0]
        lut3[key] = math.floor(math.log(int(c) / c2[uv]) * 1e6)
    lut2 = {vw: math.floor(math.log(alpha * n
                                    / c1[vw.split(SEP, 1)[0]]) * 1e6)
            for vw, n in c2.items() if n >= min_count}
    lut1 = {w: math.floor(math.log(alpha * alpha * n / n_tok) * 1e6)
            for w, n in c1.items()}
    model_ref = ray.put((lut3, lut2, lut1))

    schema = pa.schema([(id_col, pa.int64()),
                        ("n_transitions", pa.int64()),
                        ("nll_micro", pa.int64()), ("nll", pa.float64())])

    def score(t: pa.Table) -> pa.Table:
        vset = ray.get(vocab_ref)
        m3, m2, m1 = ray.get(model_ref)
        doc_ids: list[int] = []
        doc_tgs: list[list[str]] = []
        doc_vws: list[list[str]] = []
        doc_wss: list[list[str]] = []
        for i, txt in zip(t[id_col].to_pylist(),
                          t[text_col].to_pylist()):
            toks = tokens(txt)
            if len(toks) < 3:
                continue
            m = [tok if tok in vset else UNK for tok in toks]
            doc_ids.append(i)
            doc_tgs.append([u + SEP + v + SEP + w
                            for u, v, w in zip(m, m[1:], m[2:])])
            doc_vws.append([v + SEP + w for v, w in zip(m[1:], m[2:])])
            doc_wss.append(m[2:])
        if not doc_ids:
            return schema.empty_table()
        lens = np.fromiter((len(x) for x in doc_tgs), dtype=np.int64,
                           count=len(doc_tgs))
        flat_tg = list(itertools.chain.from_iterable(doc_tgs))
        mlp = pd.Series(flat_tg, dtype=object).map(m3)
        miss = mlp.isna().to_numpy()
        if miss.any():
            flat_vw = np.asarray(
                list(itertools.chain.from_iterable(doc_vws)),
                dtype=object)[miss]
            fall2 = pd.Series(flat_vw).map(m2)
            m2miss = fall2.isna().to_numpy()
            if m2miss.any():
                flat_w = np.asarray(
                    list(itertools.chain.from_iterable(doc_wss)),
                    dtype=object)[miss][m2miss]
                fall2[m2miss] = pd.Series(flat_w).map(m1).to_numpy()
            mlp[miss] = fall2.to_numpy()
        mlp = mlp.to_numpy(dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(lens)[:-1]))
        nll_micro = -np.add.reduceat(mlp, bounds)
        return pa.table({
            id_col: pa.array(doc_ids, pa.int64()),
            "n_transitions": pa.array(lens),
            "nll_micro": pa.array(nll_micro),
            "nll": pa.array(nll_micro.astype(np.float64) / (1e6 * lens)),
        })

    return ds.map_batches(score, batch_format="pyarrow")


def zipf_slope(ds, text_col: str = "text", top_n: int = 100):
    """Corpus power-law diagnostic: the Zipf exponent — the slope of
    ln(frequency) against ln(rank) over the top-``top_n`` tokens — the
    one-number sanity check that a scraped corpus still looks like
    natural language (clean prose sits near -1; boilerplate floods and
    template spam bend it).

    Bit-exact contract (the micro-nat convention of ``unigram_nll``):
    rank and count logs are each quantized to int64 micro-nats
    (floor(ln(v)*1e6)) BEFORE the least-squares fold, so the slope's
    numerator n·Σxy − Σx·Σy and denominator n·Σxx − (Σx)² are exact
    integers (safe in int64 for top_n ≤ 1000, asserted) and the slope
    itself is one float64 division of exact integers. Scale shape: one
    combiner count pass + ``global_topk`` (never a full vocabulary
    sort); the fit touches top_n rows on the driver.

    Output: one row (n_terms, slope_num, slope_den, slope)."""
    import math

    import pandas as pd

    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import global_topk

    assert top_n <= 1000, "int64 exactness bound: top_n <= 1000"
    kept = global_topk(token_counts(ds, text_col), ["c", "token"], top_n,
                       ascending=[False, True]).to_pandas()
    n = len(kept)
    if n < 2:
        return rd.from_pandas(pd.DataFrame({
            "n_terms": pd.Series([n], dtype="int64"),
            "slope_num": pd.Series([0], dtype="int64"),
            "slope_den": pd.Series([0], dtype="int64"),
            "slope": pd.Series([float("nan")], dtype="float64")}))
    x = [math.floor(math.log(r) * 1e6) for r in range(1, n + 1)]
    y = [math.floor(math.log(int(c)) * 1e6) for c in kept["c"]]
    sx, sy = sum(x), sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx = sum(a * a for a in x)
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    # float64 BOTH operands before dividing (not python int/int, which
    # is correctly-rounded on the exact integers): the SQL oracle can
    # only cast-then-divide, and the operands exceed 2^53
    return rd.from_pandas(pd.DataFrame({
        "n_terms": pd.Series([n], dtype="int64"),
        "slope_num": pd.Series([num], dtype="int64"),
        "slope_den": pd.Series([den], dtype="int64"),
        "slope": pd.Series([float(num) / float(den)],
                           dtype="float64")}))


def source_js_divergence(ds, group_col: str = "source",
                         text_col: str = "text"):
    """Per-group Jensen–Shannon divergence between the group's unigram
    token distribution P and the WHOLE corpus distribution Q — the
    text-level drift/imbalance audit of a mixed-source corpus (the
    numeric sibling is ``cdf_drift``): JS = ½KL(P‖M) + ½KL(Q‖M),
    M = (P+Q)/2, in exact-summable integer PICO-nats.

    Determinism contract (the ``term_label_ig`` discipline, summed at
    corpus width): every per-token contribution
    ``½(p·ln(2p/m) + q·ln(2q/m))`` is computed with ``math.log`` (the
    same libm double as DuckDB's ``ln`` — numpy's SIMD log differs by
    an ulp and breaks the floor) in an expression mirrored operation
    for operation by the SQL oracle, floored ONCE to pico-nats
    (int64-safe: |contrib| ≤ ln2, Σ ≤ vocab·0.7·10¹² ≪ 2⁶³), and only
    integers are summed — so the result is independent of summation
    order on both engines. Tokens OUTSIDE the group's support enter
    KL(Q‖M) in closed form: Σ_{i∉P} q_i·ln2 = (1 − S_b/B)·ln2 with
    S_b the exact integer corpus count of the group's support — one
    extra floored term per group, no full-vocab pass per group.

    Shape: one bounded per-group token-total pass (combiner), one
    (token, group, tf) combiner partial per batch, ONE token-hash
    shard co-group (each token's corpus count folds locally), per-group
    integer partials to the driver. Output: (group, vocab, support_q_b,
    js_pico), ordered by group."""
    import math
    from collections import Counter

    import pandas as pd
    import ray

    from credit_ocr_backend_ray.stages.relational import shard_cogroup

    def totals(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for grp, txt in zip(t[group_col].to_pylist(),
                            t[text_col].to_pylist()):
            if grp is not None:
                c[grp] += len(tokens(txt))
        return pa.table({
            group_col: pa.array(list(c.keys()), pa.string()),
            "__tn": pa.array(list(c.values()), pa.int64())})

    tp = ds.map_batches(totals, batch_format="pyarrow").to_pandas()
    if group_col in tp.columns:
        tot = tp.groupby(group_col)["__tn"].sum()
        a_tot = {str(g): int(n) for g, n in tot.items() if int(n) > 0}
        b_tot = int(tot.sum())
    else:  # empty input -> column-less frame
        a_tot, b_tot = {}, 0
    if b_tot == 0:
        return pd.DataFrame({group_col: pd.Series([], dtype="object"),
                             "vocab": pd.array([], dtype="int64"),
                             "support_q_b": pd.array([], dtype="int64"),
                             "js_pico": pd.array([], dtype="int64")})
    at_ref = ray.put(a_tot)

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for grp, txt in zip(t[group_col].to_pylist(),
                            t[text_col].to_pylist()):
            if grp is None:
                continue
            for tok in tokens(txt):
                c[(tok, grp)] += 1
        keys = list(c.keys())
        return pa.table({
            "token": pa.array([k for k, _ in keys], pa.string()),
            group_col: pa.array([g for _, g in keys], pa.string()),
            "__a": pa.array(list(c.values()), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        at = ray.get(at_ref)
        cnt = (g.groupby(["token", group_col], as_index=False,
                         sort=False)["__a"].sum())
        b_of = cnt.groupby("token", sort=False)["__a"].transform("sum")
        rows: dict[str, list[int]] = {}
        for grp, a, b in zip(cnt[group_col], cnt["__a"], b_of):
            # mirrored operation for operation by the SQL oracle:
            # ints cast to double, divided, logged with libm ln
            p = float(int(a)) / float(at[grp])
            q = float(int(b)) / float(b_tot)
            m = p + q
            c = 0.5 * (p * math.log(2.0 * p / m)
                       + q * math.log(2.0 * q / m))
            r = rows.setdefault(grp, [0, 0, 0])
            r[0] += 1
            r[1] += int(b)
            r[2] += math.floor(c * 1e12)
        return pd.DataFrame({
            group_col: list(rows.keys()),
            "__v": pd.array([r[0] for r in rows.values()],
                            dtype="int64"),
            "__sb": pd.array([r[1] for r in rows.values()],
                             dtype="int64"),
            "__c": pd.array([r[2] for r in rows.values()],
                            dtype="int64")})

    parts = shard_cogroup(partials, "token", fold).to_pandas()
    out = (parts.groupby(group_col, as_index=False)
                .agg(vocab=("__v", "sum"), support_q_b=("__sb", "sum"),
                     js_pico=("__c", "sum")))
    rem = [math.floor(0.5 * (1.0 - float(sb) / float(b_tot))
                      * math.log(2.0) * 1e12)
           for sb in out["support_q_b"]]
    out["js_pico"] = (out["js_pico"].astype("int64")
                      + pd.array(rem, dtype="int64"))
    return (out.astype({"vocab": "int64", "support_q_b": "int64",
                        "js_pico": "int64"})
               .sort_values(group_col).reset_index(drop=True))
