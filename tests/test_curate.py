"""Curation operators (stages/curate.py): per-key quota sampling,
n-gram decontamination, quality heuristics, BM25 retrieval."""

import hashlib
import math

import numpy as np
import pandas as pd
import pytest


def test_quota_sample_caps_and_is_deterministic(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import quota_sample_per_key
    df = pd.DataFrame({
        "doc_id": range(40),
        "source": [f"s{i % 4}" for i in range(40)],
    })
    out1 = quota_sample_per_key(rd.from_pandas(df).repartition(5),
                                "source", "doc_id", 3).to_pandas()
    out2 = quota_sample_per_key(rd.from_pandas(df).repartition(2),
                                "source", "doc_id", 3).to_pandas()
    assert out1.groupby("source").size().max() == 3
    assert len(out1) == 12
    # partitioning-independent: same kept set under a different layout
    assert (sorted(out1["doc_id"]) == sorted(out2["doc_id"]))
    # matches the md5 rank rule exactly
    for src, grp in df.groupby("source"):
        ranked = sorted(grp["doc_id"],
                        key=lambda k: (hashlib.md5(str(k).encode())
                                       .hexdigest(), k))
        assert sorted(ranked[:3]) == sorted(
            out1.loc[out1["source"] == src, "doc_id"])


def test_quota_sample_small_group_kept_whole(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import quota_sample_per_key
    df = pd.DataFrame({"doc_id": [1, 2], "source": ["a", "a"]})
    out = quota_sample_per_key(rd.from_pandas(df), "source", "doc_id", 5) \
        .to_pandas()
    assert sorted(out["doc_id"]) == [1, 2]


def test_decontamination_planted_overlap(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import decontamination_stats
    corpus = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [
            "a b c d e f",      # shares the bench 3-gram "a b c" (1 pos)
            "x y z w v u",      # clean
            "a b c a b c x",    # "a b c" occurs at positions 0 and 3
        ],
    })
    bench = pd.DataFrame({"doc_id": [100], "text": ["q a b c r"]})
    out = decontamination_stats(rd.from_pandas(corpus).repartition(2),
                                rd.from_pandas(bench), n=3) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = pd.DataFrame({"doc_id": [1, 2, 3],
                         "n_grams": [4, 4, 5],
                         "n_contaminated": [1, 0, 2]})
    pd.testing.assert_frame_equal(
        out.astype({"n_grams": "int64", "n_contaminated": "int64"}), want)


def test_decontamination_short_docs_excluded(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import decontamination_stats
    corpus = pd.DataFrame({"doc_id": [1, 2],
                           "text": ["a b", "a b c d"]})  # doc 1: no 3-gram
    bench = pd.DataFrame({"doc_id": [9], "text": ["z z z"]})
    out = decontamination_stats(rd.from_pandas(corpus),
                                rd.from_pandas(bench), n=3).to_pandas()
    assert out["doc_id"].tolist() == [2]


def test_doc_quality_stats_planted(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import doc_quality_stats
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["aa bb aa", "xyz", None],  # doc 3 excluded
    })
    out = doc_quality_stats(rd.from_pandas(docs).repartition(2)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2]
    assert out["n_tokens"].tolist() == [3, 1]
    assert out["n_distinct_tokens"].tolist() == [2, 1]
    assert out["dup_token_frac_micro"].tolist() == [
        int(math.floor((1 - 2 / 3) * 1e6 + 0.5)), 0]
    assert out["mean_token_len_micro"].tolist() == [
        2_000_000, 3_000_000]


def test_gopher_topgram_stats_planted(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import gopher_topgram_stats
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        # doc 1: 2-gram tie ("the cat" x2 vs "cat the" x2) -> lexic. min;
        #        top 3-gram overlaps itself so frac > 1 is exercised
        # doc 2: single token -> empty grams, zero fracs
        # doc 3: excluded (null text)
        # doc 4: one bigram covering every char -> frac exactly 1e6
        "text": ["the cat the cat the", "xy", None, "a b"],
    })
    out = gopher_topgram_stats(rd.from_pandas(docs).repartition(2)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2, 4]
    assert out["top2_gram"].tolist() == ["cat the", "", "a b"]
    # doc 1: 2 occurrences x 6 token chars / 15 total chars
    assert out["top2_frac_micro"].tolist() == [800_000, 0, 1_000_000]
    assert out["top3_gram"].tolist() == ["the cat the", "", ""]
    # doc 1: 2 x 9 / 15 = 1.2 -- overlapping repeats exceed 1 by design
    assert out["top3_frac_micro"].tolist() == [1_200_000, 0, 0]
    assert out["stopword_count"].tolist() == [3, 0, 1]
    assert out["stopword_frac_micro"].tolist() == [600_000, 0, 500_000]


def test_bm25_matches_direct_formula(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import bm25_topk
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["cat dog cat", "dog dog dog fish", "fish bird", "bird"],
    })
    k1, b = 1.2, 0.75
    out = bm25_topk(rd.from_pandas(docs).repartition(2), ["cat", "fish"],
                    k=10, k1=k1, b=b).to_pandas()

    # direct single-process reference
    toks = {r.doc_id: r.text.split() for r in docs.itertuples()}
    n = len(toks)
    avgdl = sum(len(t) for t in toks.values()) / n
    df = {q: sum(q in set(t) for t in toks.values())
          for q in ("cat", "fish")}
    want = {}
    for d, t in toks.items():
        s, hit = 0, False
        for q in ("cat", "fish"):
            tf = t.count(q)
            if tf:
                hit = True
                idf = math.log((n - df[q] + 0.5) / (df[q] + 0.5) + 1)
                s += int(math.floor(
                    idf * tf * (k1 + 1) /
                    (tf + k1 * (1 - b + b * len(t) / avgdl)) * 1e6 + 0.5))
        if hit:
            want[d] = s
    got = dict(zip(out["doc_id"], out["score_micro"]))
    assert got == want
    # descending score, doc_id tie-break ascending
    order = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
    assert out["doc_id"].tolist() == [d for d, _ in order]


def test_bm25_k_limits_output(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import bm25_topk
    docs = pd.DataFrame({"doc_id": range(10),
                         "text": ["cat"] * 10})
    out = bm25_topk(rd.from_pandas(docs), ["cat"], k=3).to_pandas()
    assert len(out) == 3
    assert out["doc_id"].tolist() == [0, 1, 2]  # equal scores: id asc


def test_source_reputation_planted(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import source_reputation
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "source": ["a", "a", "b", "b"],
        # a: dup fracs 0 and 1/3 -> mean = (0 + 333333) // 2 = 166666
        "text": ["x y z", "p q p", "m m m m", None],  # doc 4 excluded
    })
    out = source_reputation(rd.from_pandas(docs).repartition(3)) \
        .to_pandas().sort_values("source").reset_index(drop=True)
    assert out["source"].tolist() == ["a", "b"]
    assert out["n_docs"].tolist() == [2, 1]
    assert out["total_tokens"].tolist() == [6, 4]
    assert out["mean_dup_micro"].tolist() == [166666, 750000]


def test_substring_dedup_planted_span(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import substring_dedup
    # docs 1 and 2 share the 4-token run "a b c d" (planted); doc 3 is
    # unique; doc 4 is shorter than n and passes through; doc 5 empty.
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["x a b c d y", "a b c d z w", "p q r s t u",
                 "one two", None],
    })
    out = (substring_dedup(rd.from_pandas(docs).repartition(3), n=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["doc_id"].tolist() == [1, 2, 3, 4, 5]
    assert out["n_tokens"].tolist() == [6, 6, 6, 2, 0]
    # the shared window covers positions 1-4 in doc 1, 0-3 in doc 2
    assert out["n_dup_tokens"].tolist() == [4, 4, 0, 0, 0]
    assert out["text_cut"].tolist() == ["x y", "z w", "p q r s t u",
                                        "one two", ""]


def test_substring_dedup_overlapping_windows_union(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import substring_dedup
    # "a b c" appears twice WITHIN one doc (within-doc repeats count);
    # overlapping duplicated windows must union, not double-count.
    docs = pd.DataFrame({
        "doc_id": [1],
        "text": ["a b c a b c"],
    })
    out = substring_dedup(rd.from_pandas(docs), n=3).to_pandas()
    # windows: (a b c)@0, (b c a)@1, (c a b)@2, (a b c)@3 -> only
    # "a b c" repeats; covered = {0,1,2} U {3,4,5} = all 6 tokens
    assert out["n_dup_tokens"].tolist() == [6]
    assert out["text_cut"].tolist() == [""]


def test_substring_dedup_is_layout_independent(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import substring_dedup
    rng = np.random.default_rng(7)
    vocab = list("abcdefgh")
    texts = [" ".join(rng.choice(vocab, size=12)) for _ in range(60)]
    docs = pd.DataFrame({"doc_id": range(60), "text": texts})
    a = (substring_dedup(rd.from_pandas(docs).repartition(1), n=3)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (substring_dedup(rd.from_pandas(docs).repartition(7), n=3)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert (a["n_tokens"] - a["n_dup_tokens"]
            == a["text_cut"].str.split().str.len().fillna(0)).all()


def test_nb_source_score_matches_direct_formula(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import nb_source_score
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "source": ["wiki", "wiki", "crawl", "crawl"],
        "text": ["good clean prose", "good good text",
                 "spam spam spam junk", None],
    })
    out = (nb_source_score(rd.from_pandas(docs).repartition(2), "wiki")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # direct recomputation
    from collections import Counter
    cp = Counter("good clean prose".split()) \
        + Counter("good good text".split())
    cn = Counter("spam spam spam junk".split())
    vocab = set(cp) | set(cn)
    v, npos, nneg = len(vocab), sum(cp.values()), sum(cn.values())
    w = {t: math.floor((math.log((cp[t] + 1) / (npos + v))
                        - math.log((cn[t] + 1) / (nneg + v))) * 1e6)
         for t in vocab}
    prior = math.floor(math.log(2 / 2) * 1e6)
    exp = {1: prior + sum(w[t] for t in "good clean prose".split()),
           2: prior + sum(w[t] for t in "good good text".split()),
           3: prior + sum(w[t] for t in "spam spam spam junk".split()),
           4: prior}
    assert out["score_micro"].tolist() == [exp[i] for i in [1, 2, 3, 4]]
    assert out["n_tokens"].tolist() == [3, 3, 4, 0]
    # curated-source docs score positive, crawl docs negative
    assert out["is_pos"].tolist() == [1, 1, 0, 0]


def test_nb_source_score_single_class_raises(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import nb_source_score
    docs = pd.DataFrame({"doc_id": [1], "source": ["only"],
                         "text": ["x"]})
    with pytest.raises(Exception):
        nb_source_score(rd.from_pandas(docs), "only").to_pandas()


def test_nb_source_score_vocab_cap_raises(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import nb_source_score
    docs = pd.DataFrame({
        "doc_id": [1, 2],
        "source": ["a", "b"],
        "text": ["t0 t1 t2 t3 t4 t5 t6 t7", "u0 u1 u2 u3"],
    })
    with pytest.raises(Exception, match="max_vocab_rows"):
        nb_source_score(rd.from_pandas(docs), "a",
                        max_vocab_rows=4).to_pandas()


def test_label_balanced_sample_planted(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import label_balanced_sample

    rows = pd.DataFrame({
        "vec_id": range(100),
        "label": [0] * 70 + [1] * 20 + [2] * 10,
    })
    out = (label_balanced_sample(rd.from_pandas(rows).repartition(4))
           .to_pandas())
    # every class cut to the minority count, deterministically
    assert out["label"].value_counts().to_dict() == {0: 10, 1: 10, 2: 10}
    out2 = (label_balanced_sample(rd.from_pandas(rows).repartition(7))
            .to_pandas())
    assert sorted(out["vec_id"]) == sorted(out2["vec_id"])


def test_k_anonymity_hand_computed_with_nulls(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import k_anonymity

    df = pd.DataFrame({
        "seg": ["a", "a", "a", "b", None, None],
        "nat": [1, 1, 2, 1, 9, 9],
        "bal": [10.0, 20.0, 10.0, None, 5.0, 5.0],
    })
    out = (k_anonymity(rd.from_pandas(df).repartition(3),
                       ["seg", "nat"], "bal", k=2, l=2)
           .to_pandas()
           .sort_values(["seg", "nat"], na_position="last")
           .reset_index(drop=True))

    # groups: (a,1) n=2 dist=2 | (a,2) n=1 dist=1 | (b,1) n=1 dist=0
    # (null bal excluded, matching SQL count(DISTINCT)) |
    # (None,9) n=2 dist=1 (null QI keys must survive the fold)
    assert len(out) == 4
    assert out["n"].tolist() == [2, 1, 1, 2]
    assert out["n_sensitive"].tolist() == [2, 1, 0, 1]
    assert out["violates_k"].tolist() == [False, True, True, False]
    assert out["violates_l"].tolist() == [False, True, True, True]
    assert out["seg"].isna().tolist() == [False, False, False, True]


def test_lr_source_fit_restatement_and_partition_invariance(ray_session):
    import hashlib
    import re
    from collections import Counter

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import lr_source_fit

    rng = np.random.RandomState(7)
    good = ["good fine clean solid"] * 30
    bad = ["bad junk spam noise"] * 30
    texts = [f"{g} {w}" for g, w in zip(good, rng.choice(
        ["alpha", "beta", "gamma"], 30))] + [
        f"{b} {w}" for b, w in zip(bad, rng.choice(
            ["alpha", "beta", "gamma"], 30))]
    df = pd.DataFrame({
        "doc_id": np.arange(60, dtype=np.int64),
        "text": texts,
        "source": ["keep"] * 30 + ["drop"] * 30,
    })

    d, iters, lr, mu = 32, 25, 2.0, 0.9
    s1, w1, h1 = lr_source_fit(rd.from_pandas(df).repartition(2),
                               pos_source="keep", d=d, iters=iters,
                               lr=lr, momentum=mu)
    s2, w2, h2 = lr_source_fit(rd.from_pandas(df).repartition(9),
                               pos_source="keep", d=d, iters=iters,
                               lr=lr, momentum=mu)
    # the integer-quantized gradient makes the whole trajectory
    # partition-independent — bitwise, not approximately
    assert np.array_equal(w1, w2)
    assert h1 == h2
    assert h1[-1] < h1[0]

    # exact local numpy restatement of the same quantized algorithm
    ws = re.compile(r"\s+")
    S = float(1 << 24)
    X = np.zeros((60, d + 1))
    y = np.zeros(60)
    for r, (txt, src) in enumerate(zip(df.text, df.source)):
        toks = [w for w in ws.split(txt.strip()) if w]
        X[r, d] = 1.0
        for w, c in Counter(toks).items():
            u = int.from_bytes(hashlib.md5(w.encode()).digest()[:4],
                               "big")
            X[r, u % d] += (1 if (u >> 16) & 1 == 0 else -1) * c
        X[r, :d] /= len(toks)
        y[r] = 1.0 if src == "keep" else 0.0
    wv = np.zeros(d + 1)
    vel = np.zeros(d + 1)
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(X @ wv)))
        gq = np.floor((p - y)[:, None] * X * S + 0.5).astype(
            np.int64).sum(axis=0)
        vel = mu * vel + (gq.astype(np.float64) / S) / 60
        wv = wv - lr * vel
    assert np.array_equal(w1, wv)

    # a separable problem must actually separate
    out = s1.to_pandas()
    assert (out[out.label == 1].p_pos > 0.5).all()
    assert (out[out.label == 0].p_pos < 0.5).all()


def test_budget_select_prefix_semantics(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import budget_select

    df = pd.DataFrame({
        "id": np.arange(1, 6, dtype=np.int64),
        "score": np.array([9, 9, 5, 5, 1], dtype=np.int64),
        "cost": np.array([4, 3, 5, 2, 10], dtype=np.int64),
    })
    out = (budget_select(rd.from_pandas(df).repartition(3),
                         "score", "cost", "id", budget=9)
           .to_pandas().sort_values("id").reset_index(drop=True))
    # strict window-cumsum prefix (NOT knapsack): order by (score desc,
    # id) is 1(cum 4), 2(cum 7), 3(cum 12 > 9 stops the prefix)
    assert out["id"].tolist() == [1, 2]
    assert out["cum_cost"].tolist() == [4, 7]

    # span == 0 (all scores equal): pure id-order prefix
    df2 = pd.DataFrame({
        "id": np.arange(4, dtype=np.int64),
        "score": np.full(4, 7, dtype=np.int64),
        "cost": np.full(4, 3, dtype=np.int64),
    })
    out2 = (budget_select(rd.from_pandas(df2).repartition(2),
                          "score", "cost", "id", budget=7)
            .to_pandas().sort_values("id").reset_index(drop=True))
    assert out2["id"].tolist() == [0, 1]
    assert out2["cum_cost"].tolist() == [3, 6]


def test_rrf_fuse_exact_micro_and_bounds():
    import pandas as pd

    from credit_ocr_backend_ray.stages.curate import rrf_fuse

    a = pd.DataFrame({"doc_id": [1, 2, 3], "rank": [1, 2, 3]})
    b = pd.DataFrame({"doc_id": [3, 4], "rank": [1, 2]})
    out = rrf_fuse([a, b], k_const=60, topn=3)
    # exact integer micro contributions: floor(1e6/(60+rank))
    c = {r: 1_000_000 // (60 + r) for r in range(1, 4)}
    want = {3: c[3] + c[1], 1: c[1], 2: c[2], 4: c[2]}
    got = dict(zip(out["doc_id"], out["rrf_micro"]))
    assert got[3] == want[3]
    # doc 3 fused from both rankers ranks first; topn=3 cuts the tail,
    # ties (1 vs nothing) broken by doc_id ascending
    assert out["doc_id"].tolist()[0] == 3
    assert len(out) == 3
    assert out["rrf_micro"].is_monotonic_decreasing


def test_roc_auc_exact_global_and_grouped(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import roc_auc

    # hand case: scores [1,2,2,3], pos [0,1,0,1] -> avg ranks
    # 1, 2.5, 2.5, 4; 2*sum(r_pos) = 2*(2.5+4) = 13; np=nn=2
    # auc = (13 - 2*3) / (2*2*2) = 7/8
    df = pd.DataFrame({"s": [1, 2, 2, 3], "p": [0, 1, 0, 1]})
    out = roc_auc(rd.from_pandas(df).repartition(3), "s", "p",
                  n_buckets=4)
    assert out[["n_pos", "n_neg", "auc_micro"]].values.tolist() == [
        [2, 2, 875_000]]

    # all-tied scores -> auc exactly 1/2; perfect separation -> 1.0;
    # null score and null label rows dropped by contract
    tied = pd.DataFrame({"s": [7, 7, 7, 7, None],
                         "p": [0, 1, 0, 1, 1]})
    out = roc_auc(rd.from_pandas(tied), "s", "p")
    assert out["auc_micro"].tolist() == [500_000]
    sep = pd.DataFrame({"s": [1, 2, 3, 4], "p": [0, 0, 1, 1]})
    out = roc_auc(rd.from_pandas(sep).repartition(2), "s", "p")
    assert out["auc_micro"].tolist() == [1_000_000]

    # degenerate: one class only -> empty frame
    mono = pd.DataFrame({"s": [1, 2], "p": [1, 1]})
    assert len(roc_auc(rd.from_pandas(mono), "s", "p")) == 0

    # grouped: group a = the hand case, group b = perfect separation,
    # group c = degenerate (dropped), null key = a real group
    g = pd.DataFrame({
        "k": ["a", "a", "a", "a", "b", "b", "b", "b", "c", None, None],
        "s": [1, 2, 2, 3, 1, 2, 3, 4, 9, 5, 6],
        "p": [0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0]})
    out = (roc_auc(rd.from_pandas(g).repartition(4), "s", "p",
                   keys=["k"])
           .to_pandas().sort_values("k", na_position="last")
           .reset_index(drop=True))
    assert out["k"].tolist()[:2] == ["a", "b"]
    assert pd.isna(out["k"][2])
    assert out["auc_micro"].tolist() == [875_000, 1_000_000, 0]
    assert out["n_pos"].tolist() == [2, 2, 1]

    # big-int exactness: ranks large enough that 2*sum(rank) would be
    # fine in int64 but products in the fold hit object math anyway —
    # cross-check vs a direct tie-averaged restatement
    import numpy as np
    rng = np.random.default_rng(7)
    big = pd.DataFrame({"s": rng.integers(0, 50, 5000),
                        "p": rng.integers(0, 2, 5000)})
    out = roc_auc(rd.from_pandas(big).repartition(8), "s", "p",
                  n_buckets=16)
    r = pd.Series(big["s"]).rank(method="average")
    npos = int(big["p"].sum())
    nneg = len(big) - npos
    r2 = int(round(2 * r[big["p"] == 1].sum()))
    want = (r2 - npos * (npos + 1)) * 1_000_000 // (2 * npos * nneg)
    assert out["auc_micro"].tolist() == [want]


def test_confusion_report_kappa_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import (
        classification_report, cohen_kappa, confusion_matrix)

    df = pd.DataFrame({"g": ["a", "a", "b", "b", "c"],
                       "p": ["a", "b", "b", "b", "a"]})
    ds = rd.from_pandas(df).repartition(3)

    cm = confusion_matrix(ds, "g", "p")
    assert cm.values.tolist() == [["a", "a", 1], ["a", "b", 1],
                                  ["b", "b", 2], ["c", "a", 1]]

    # c is gold-only -> dropped by the both-margins contract
    rep = classification_report(ds, "g", "p")
    assert rep["class"].tolist() == ["a", "b"]
    assert rep[["n_gold", "n_pred", "tp"]].values.tolist() == [
        [2, 2, 1], [2, 3, 2]]
    assert rep["precision_micro"].tolist() == [500_000, 666_666]
    assert rep["recall_micro"].tolist() == [500_000, 1_000_000]
    assert rep["f1_micro"].tolist() == [500_000, 800_000]

    # kappa: gold [a,a,b,b] pred [a,b,b,b] -> S=8, kappa=4e6//8
    k = cohen_kappa(rd.from_pandas(df.head(4)).repartition(2), "g", "p")
    assert k.values.tolist() == [[4, 750_000, 500_000]]

    # negative kappa must TRUNCATE toward zero (DuckDB //), not floor:
    # gold [a,b] pred [a,c] with disjoint-ish margins -> den=3,
    # num=-1e6 -> -333333 (floor would give -333334)
    neg = pd.DataFrame({"g": ["a", "b"], "p": ["c", "a"]})
    k = cohen_kappa(rd.from_pandas(neg), "g", "p")
    assert k["kappa_micro"].tolist() == [-333_333]

    # nulls: never diagonal, but DO margin as their own class
    nl = pd.DataFrame({"g": ["a", "a", None], "p": ["a", None, None]})
    k = cohen_kappa(rd.from_pandas(nl), "g", "p")
    assert k.values.tolist() == [[3, 333_333, -200_000]]
    cm = confusion_matrix(rd.from_pandas(nl), "g", "p")
    assert int(cm["n"].sum()) == 3 and len(cm) == 3


def test_calibration_bins_exact(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import calibration_bins

    # lo=0 hi=19 span=20, bin = s*2//20: {0,9}->0, {10,19}->1
    df = pd.DataFrame({"s": [0, 9, 10, 19], "y": [0, 1, 1, 1]})
    out = calibration_bins(rd.from_pandas(df).repartition(3), "s", "y",
                           n_bins=2)
    assert out["bin"].tolist() == [0, 1]
    assert out["n"].tolist() == [2, 2]
    assert out["n_pos"].tolist() == [1, 2]
    assert out["pos_rate_micro"].tolist() == [500_000, 1_000_000]
    assert out["sum_score_micro"].tolist() == ["9", "29"]

    # lo/hi come from the binned rows only: the null-label score 100
    # must not stretch the range into one bin
    df = pd.DataFrame({"s": [0, 9, 10, 19, 100], "y": [0, 1, 1, 1, None]})
    out = calibration_bins(rd.from_pandas(df).repartition(3), "s", "y",
                           n_bins=2)
    assert out["bin"].tolist() == [0, 1]
    assert out["n"].tolist() == [2, 2]
    assert out["sum_score_micro"].tolist() == ["9", "29"]

    # negative log-odds scores: the shifted big-int sum un-shifts back
    # to the signed exact total
    df = pd.DataFrame({"s": [-10, -1, 5], "y": [0, 0, 1]})
    out = calibration_bins(rd.from_pandas(df).repartition(2), "s", "y",
                           n_bins=2)
    assert out["bin"].tolist() == [0, 1]
    assert out["sum_score_micro"].tolist() == ["-10", "4"]
    assert out["pos_rate_micro"].tolist() == [0, 500_000]

    # all-null / empty input -> empty frame with the output schema
    out = calibration_bins(
        rd.from_pandas(pd.DataFrame({"s": [None], "y": [None]})), "s",
        "y")
    assert len(out) == 0
    assert list(out.columns) == ["bin", "n", "n_pos", "pos_rate_micro",
                                 "sum_score_micro"]


def test_contingency_chi2_exact(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import contingency_chi2

    # balanced margins, E=15 per cell, |num|=300 everywhere:
    # per-cell micro = 300^2*1e6 // (60*30*30) = 1_666_666, x4 cells
    df = pd.DataFrame({"a": ["x"] * 30 + ["y"] * 30,
                       "b": ["p"] * 10 + ["q"] * 20
                            + ["p"] * 20 + ["q"] * 10})
    out = contingency_chi2(rd.from_pandas(df).repartition(3), "a", "b")
    assert out["n"].tolist() == [60]
    assert out["dof"].tolist() == [1]
    assert out["chi2_micro"].tolist() == [4 * 1_666_666]

    # an unobserved (a,b) combination still contributes its expected
    # mass: y never sees q -> zero cell enters the sum
    df = pd.DataFrame({"a": ["x", "x", "y", "y"],
                       "b": ["p", "q", "p", "p"]})
    out = contingency_chi2(rd.from_pandas(df), "a", "b")
    n, rx, ry, cp, cq = 4, 2, 2, 3, 1
    cells = {("x", "p"): 1, ("x", "q"): 1, ("y", "p"): 2,
             ("y", "q"): 0}
    want = 0
    for (a, b), nij in cells.items():
        ri = rx if a == "x" else ry
        cj = cp if b == "p" else cq
        num = nij * n - ri * cj
        want += num * num * 1_000_000 // (n * ri * cj)
    assert out["chi2_micro"].tolist() == [want]

    # a single level on one side: undefined -> null
    one = pd.DataFrame({"a": ["x", "x"], "b": ["p", "q"]})
    out = contingency_chi2(rd.from_pandas(one), "a", "b")
    assert out["chi2_micro"].isna().all()
    assert out["a_levels"].tolist() == [1]
