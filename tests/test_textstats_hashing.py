"""Text-analysis and signature kernels."""

import re

import numpy as np

from credit_ocr_backend_ray.functions.hashing import (
    hamming64, jaccard, minhash_bands, minhash_signature, sha256_hex,
    simhash64, word_shingles,
)
from credit_ocr_backend_ray.functions.textstats import (
    char_stats, fingerprint_md5, lang_id, quality_score, rolling_fingerprint,
    token_count, tokens,
)


def _regex_tokens(s):
    """The regex tokenizer ``tokens`` replaced."""
    return [t for t in re.split(r"\s+", s.strip()) if t] if s else []


def test_token_count():
    assert token_count("  a b\tc\nd ") == 4
    assert token_count("") == 0
    assert token_count("   ") == 0
    # tokens == the regex split it replaced, for every code point
    for s in (None, "", " ", "\t\n\x0b\x0c\r\x1c\x85\xa0\u2028\u3000"):
        assert tokens(s) == _regex_tokens(s) == []
    n_space = 0
    for i in range(0x110000):
        c = chr(i)
        s = c + "a" + c + c + "b" + c
        got = tokens(s)
        assert got == _regex_tokens(s), hex(i)
        n_space += got == ["a", "b"]
    assert n_space == sum(chr(i).isspace() for i in range(0x110000)) > 20


def test_char_stats():
    n, d, u, p = char_stats("Ab1! x")
    assert (n, d, u, p) == (6, 1, 1, 1)


def test_quality_score_bounds():
    assert 0.0 <= quality_score("") <= 1.0
    good = "the quick brown fox jumps over the lazy dog " * 5
    assert quality_score(good) > quality_score("1234 5678 9012 3456")


def test_lang_id():
    assert lang_id("the cat and the dog are in the house") == "en"
    assert lang_id("der Hund und die Katze sind nicht im Haus") == "de"
    assert lang_id("le chat est dans la maison pour le jour") == "fr"
    assert lang_id("el perro y el gato en la casa") == "es"
    assert lang_id("这是中文文本") == "zh"
    assert lang_id("") == "und"


def test_fingerprints_deterministic():
    assert fingerprint_md5("  A  b ") == fingerprint_md5("a B")  # normalized
    assert rolling_fingerprint("a b c d e f g h i j") == \
        rolling_fingerprint("a b c d e f g h i j")
    assert rolling_fingerprint("short") != 0


def test_sha256_matches_known():
    assert sha256_hex("a") == (
        "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb")


def test_shingles_and_jaccard():
    assert word_shingles("a b c d", 3) == ["a b c", "b c d"]
    assert word_shingles("a b", 3) == ["a b"]
    assert word_shingles("", 3) == []
    assert jaccard("a b c d", "a b c d") == 1.0
    assert jaccard("a b c d e", "x y z w v") == 0.0


def test_minhash_similarity_correlates():
    base = " ".join(f"tok{i}" for i in range(100))
    near = " ".join(f"tok{i}" for i in range(98))  # drop 2 tokens
    far = " ".join(f"other{i}" for i in range(100))
    s0, s1, s2 = (minhash_signature(t) for t in (base, near, far))
    sim_near = float(np.mean(s0 == s1))
    sim_far = float(np.mean(s0 == s2))
    assert sim_near > 0.8
    assert sim_far < 0.1
    # near-dups share at least one LSH band
    assert set(minhash_bands(s0)) & set(minhash_bands(s1))


def test_simhash_hamming():
    base = " ".join(f"tok{i}" for i in range(100))
    near = " ".join(f"tok{i}" for i in range(99))
    far = " ".join(f"other{i}" for i in range(100))
    assert hamming64(simhash64(base), simhash64(near)) <= 6
    assert hamming64(simhash64(base), simhash64(far)) > 10
    assert simhash64(base) == simhash64(base)


def test_compression_ratio_orders_repetitive_below_prose():
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.text import compression_ratio_batch

    import random
    rng = random.Random(3)
    prose = " ".join("".join(rng.choice("abcdefghijklmnop")
                             for _ in range(8)) for _ in range(200))
    t = pa.table({"text": ["spam " * 400, prose, "", None]})
    out = compression_ratio_batch(t)
    r = out["compress_ratio_micro"].to_pylist()
    assert r[0] < r[1]          # repetition compresses far better
    assert r[0] < 100_000       # <10% of raw
    assert r[1] > 300_000       # high-entropy text stays large
    assert r[2] == 0 and r[3] == 0


def test_doc_mean_token_freq_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd
    from credit_ocr_backend_ray.stages.text import doc_mean_token_freq

    # corpus counts: a=3, b=2, c=1
    df = pd.DataFrame({"doc_id": [1, 2],
                       "text": ["a a b", "a b c"]})
    out = (doc_mean_token_freq(rd.from_pandas(df))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # doc 1: instances a,a,b -> (3+3+2)/3 = 8/3
    assert out.loc[0, "n_tokens"] == 3
    assert out.loc[0, "mean_freq_micro"] == 8 * 1_000_000 // 3
    # doc 2: a,b,c -> (3+2+1)/3 = 2.0
    assert out.loc[1, "mean_freq_micro"] == 2_000_000


def test_unigram_nll_hand_computed(ray_session):
    import math
    import pandas as pd
    import ray.data as rd
    from credit_ocr_backend_ray.stages.text import unigram_nll

    # corpus counts: a=3, b=2, c=1 -> N=6; full vocab (no truncation)
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["a a b", "a b c", "   "]})
    out = (unigram_nll(rd.from_pandas(df))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # the all-whitespace doc has no likelihood -> excluded
    assert list(out["doc_id"]) == [1, 2]
    m = {t: math.floor(math.log(c / 6) * 1e6)
         for t, c in {"a": 3, "b": 2, "c": 1}.items()}
    assert out.loc[0, "n_tokens"] == 3
    assert out.loc[0, "nll_micro"] == -(2 * m["a"] + m["b"])
    assert out.loc[1, "nll_micro"] == -(m["a"] + m["b"] + m["c"])
    assert out.loc[1, "nll"] == out.loc[1, "nll_micro"] / 3e6


def test_unigram_nll_top_vocab_unk_mass(ray_session):
    import math
    import pandas as pd
    import ray.data as rd
    from credit_ocr_backend_ray.stages.text import unigram_nll

    # top_vocab=2 keeps a (3) and b (2); c and d (1 each) share the
    # pruned UNK mass 2/7
    df = pd.DataFrame({"doc_id": [1, 2],
                       "text": ["a a a b c", "b d"]})
    out = (unigram_nll(rd.from_pandas(df), top_vocab=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    ma = math.floor(math.log(3 / 7) * 1e6)
    mb = math.floor(math.log(2 / 7) * 1e6)
    mu = math.floor(math.log(2 / 7) * 1e6)   # unk mass = 1+1 of 7
    assert out.loc[0, "nll_micro"] == -(3 * ma + mb + mu)
    assert out.loc[1, "nll_micro"] == -(mb + mu)
    # rarer tokens -> strictly higher per-token surprise for doc 2
    assert out.loc[1, "nll"] > out.loc[0, "nll"]


def test_normalize_text_unicode_and_nulls(ray_session):
    import pandas as pd
    import ray.data as rd
    import unicodedata
    from credit_ocr_backend_ray.stages.text import normalize_text

    decomposed = "décomposed Été"  # NFD accents
    df = pd.DataFrame({"text": ["  Straße\tviel   WEISS\n",
                                decomposed, "plain ASCII", None]})
    out = normalize_text(rd.from_pandas(df)).to_pandas()
    assert out["norm_text"][0] == "straße viel weiss"
    # NFC composes the combining accents after lowering
    assert out["norm_text"][1] == unicodedata.normalize(
        "NFC", decomposed.lower())
    assert [hex(ord(c)) for c in out["norm_text"][1][1]] == ["0xe9"]
    assert out["norm_text"][2] == "plain ascii"
    assert pd.isna(out["norm_text"][3])


def test_winnow_constant_text_rightmost_tiebreak(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import winnow_fingerprints
    # all grams identical -> every window's min ties -> rightmost index
    # selected per window -> positions w-1 .. nh-1
    docs = pd.DataFrame({"doc_id": [1], "text": [" ".join(["a"] * 10)]})
    out = (winnow_fingerprints(rd.from_pandas(docs), k=3, w=3)
           .to_pandas().sort_values("pos"))
    # nh = 8 grams, windows start at i>=w-1=2 -> selected {2..7}
    assert out["pos"].tolist() == [2, 3, 4, 5, 6, 7]
    assert out["fp"].nunique() == 1


def test_winnow_shared_run_guarantee(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import winnow_fingerprints
    # the winnowing guarantee: a shared token run of length >= k+w-1
    # (here 3+3-1=5: "p q r s t") must yield >=1 shared fingerprint
    docs = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["x y p q r s t z w v", "m n o p q r s t u k"],
    })
    out = (winnow_fingerprints(rd.from_pandas(docs), k=3, w=3)
           .to_pandas())
    shared = (set(out[out.doc_id == 1]["fp"])
              & set(out[out.doc_id == 2]["fp"]))
    assert len(shared) >= 1


def test_winnow_short_doc_single_window(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import winnow_fingerprints
    docs = pd.DataFrame({
        "doc_id": [1, 2],
        # doc 1: 4 tokens, k=3 -> 2 grams < w=4 -> ONE window, 1 fp
        # doc 2: 2 tokens < k -> no grams -> absent from output
        "text": ["a b c d", "a b"],
    })
    out = (winnow_fingerprints(rd.from_pandas(docs), k=3, w=4)
           .to_pandas())
    assert out["doc_id"].tolist() == [1]
    assert len(out) == 1


def test_winnow_layout_independent(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import winnow_fingerprints
    rng = np.random.default_rng(11)
    vocab = list("abcdef")
    docs = pd.DataFrame({
        "doc_id": range(40),
        "text": [" ".join(rng.choice(vocab, size=15)) for _ in range(40)],
    })
    a = (winnow_fingerprints(rd.from_pandas(docs).repartition(1))
         .to_pandas().sort_values(["doc_id", "pos"])
         .reset_index(drop=True))
    b = (winnow_fingerprints(rd.from_pandas(docs).repartition(7))
         .to_pandas().sort_values(["doc_id", "pos"])
         .reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_winnow_overlap_planted_and_cap(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import winnow_overlap
    shared = "p q r s t u v w"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [f"x1 y1 {shared} z1", f"x2 {shared} z2 w2",
                 "completely different tokens here now ok fine yes"],
    })
    out = (winnow_overlap(rd.from_pandas(docs).repartition(2),
                          k=3, w=3, min_shared=2)
           .to_pandas())
    assert out[["doc_a", "doc_b"]].values.tolist() == [[1, 2]]
    assert int(out["n_shared"].iloc[0]) >= 2
    # the quadratic-blowup guard trips on a hot fingerprint bucket
    many = pd.DataFrame({
        "doc_id": range(10),
        "text": ["same same same same same same"] * 10,
    })
    with pytest.raises(Exception, match="max_bucket"):
        winnow_overlap(rd.from_pandas(many), k=3, w=3,
                       max_bucket=4).to_pandas()


def test_mirror_clusters_two_components(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.dedup import cluster_pairs
    from credit_ocr_backend_ray.stages.text import winnow_overlap
    run1 = "p q r s t u v w"
    run2 = "m n o k l j h g"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 10, 11, 20],
        "text": [f"a1 b1 {run1}", f"a2 {run1} c2", f"{run1} d3 e3",
                 f"x1 y1 {run2}", f"x2 {run2} y2",
                 "totally unrelated words only here right now ok"],
    })
    pairs = (winnow_overlap(rd.from_pandas(docs).repartition(3),
                            k=3, w=3, min_shared=2)
             .to_pandas()
             .rename(columns={"doc_a": "id_a", "doc_b": "id_b"}))
    reps = cluster_pairs(pairs)
    # component {1,2,3} -> rep 1; {10,11} -> rep 10; 20 absent
    assert {i: reps[i] for i in sorted(reps)} == {
        1: 1, 2: 1, 3: 1, 10: 10, 11: 10}


def test_hashed_features_planted(ray_session):
    import hashlib

    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import hashed_features

    def bs(w, d=8):
        u = int.from_bytes(hashlib.md5(w.encode()).digest()[:4], "big")
        return u % d, 1 if (u >> 16) & 1 == 0 else -1

    # find two words with the same bucket and opposite signs so the
    # zero-sum drop is actually exercised
    words = [f"w{i}" for i in range(200)]
    pair = None
    for a in words:
        for b in words:
            ba, sa = bs(a)
            bb, sb = bs(b)
            if a != b and ba == bb and sa == -sb:
                pair = (a, b)
                break
        if pair:
            break
    assert pair, "no cancelling pair in probe vocabulary"
    a, b = pair

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [f"{a} {b}",        # cancels -> doc 1 emits nothing
                 f"{a} {a} {b}",    # partial cancel -> one residual
                 None],             # excluded
    })
    out = (hashed_features(rd.from_pandas(docs).repartition(2), d=8)
           .to_pandas().sort_values(["doc_id", "bucket"])
           .reset_index(drop=True))
    assert out["doc_id"].tolist() == [2]
    assert out["bucket"].tolist() == [bs(a)[0]]
    assert out["feat"].tolist() == [bs(a)[1]]


def test_bigram_nll_hand_computed(ray_session):
    import math

    import pandas as pd
    import pytest
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import bigram_nll

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        # vocab (top 3 by count desc, token asc): a, b, c; x -> UNK
        # d3 has a single token -> no transitions -> excluded
        "text": ["a b a b c", "b a x", "z"],
    })
    out = (bigram_nll(rd.from_pandas(docs).repartition(2),
                      top_vocab=3, min_count=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    v1 = 4  # |{a,b,c}| + UNK
    m_ab = math.floor(math.log(3 / (3 + v1)) * 1e6)  # c(a,b)=2, cv(a)=3
    m_ba = math.floor(math.log(3 / (3 + v1)) * 1e6)  # c(b,a)=2, cv(b)=3
    d_a = math.floor(math.log(1 / (3 + v1)) * 1e6)   # unseen from a
    d_b = math.floor(math.log(1 / (3 + v1)) * 1e6)   # unseen from b

    assert out["doc_id"].tolist() == [1, 2]
    assert out["n_transitions"].tolist() == [4, 2]
    # d1: (a,b)+(b,a)+(a,b) kept, (b,c) pruned at min_count=2
    assert out["nll_micro"].tolist() == [
        -(m_ab + m_ba + m_ab + d_b), -(m_ba + d_a)]
    assert out["nll"].tolist() == [
        out["nll_micro"][0] / 4e6, out["nll_micro"][1] / 2e6]

    with pytest.raises(ValueError, match="max_model_rows"):
        bigram_nll(rd.from_pandas(docs), top_vocab=3, max_model_rows=1)


def test_trigram_nll_hand_computed(ray_session):
    import math

    import pandas as pd
    import pytest
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import trigram_nll

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        # vocab (top 2): a (c=5), b (c=4); x -> UNK (c=1); N=10
        # d3 has 2 tokens (feeds bigram counts, no trigram -> excluded)
        "text": ["a b a b a", "a b x", "a b", None],
    })
    out = (trigram_nll(rd.from_pandas(docs).repartition(2),
                       top_vocab=2, min_count=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    # counts: c2(a,b)=4, c2(b,a)=2, c2(b,U)=1; c3(a,b,a)=2,
    # c3(b,a,b)=1, c3(a,b,U)=1; c1: a=5, b=4, U=1; N=10
    t_aba = math.floor(math.log(2 / 4) * 1e6)        # tri survives
    m2_ab = math.floor(math.log(0.4 * 4 / 5) * 1e6)  # (b,a,b) -> bg(a,b)
    # (a,b,U) -> bg(b,U) pruned at min_count=2 -> unigram branch on U
    m1_u = math.floor(math.log(0.4 * 0.4 * 1 / 10) * 1e6)

    assert out["doc_id"].tolist() == [1, 2]
    assert out["n_transitions"].tolist() == [3, 1]
    assert out["nll_micro"].tolist() == [
        -(t_aba + m2_ab + t_aba), -m1_u]
    assert out["nll"].tolist() == [
        out["nll_micro"][0] / 3e6, out["nll_micro"][1] / 1e6]

    with pytest.raises(ValueError, match="max_model_rows"):
        trigram_nll(rd.from_pandas(docs), top_vocab=2, max_model_rows=1)


def test_zipf_slope_planted_power_law(ray_session):
    import math

    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import zipf_slope

    # plant an exact power law: token w_r repeated floor(1000/r) times
    toks = []
    for r in range(1, 21):
        toks.extend([f"w{r:02d}"] * (1000 // r))
    docs = pd.DataFrame({"text": [" ".join(toks)]})
    out = zipf_slope(rd.from_pandas(docs).repartition(1),
                     top_n=20).to_pandas()
    assert out["n_terms"].tolist() == [20]
    # direct restatement of the integer least squares
    x = [math.floor(math.log(r) * 1e6) for r in range(1, 21)]
    y = [math.floor(math.log(1000 // r) * 1e6) for r in range(1, 21)]
    n, sx, sy = 20, sum(x), sum(y)
    num = n * sum(a * b for a, b in zip(x, y)) - sx * sy
    den = n * sum(a * a for a in x) - sx * sx
    assert out["slope_num"].tolist() == [num]
    assert out["slope_den"].tolist() == [den]
    # a 1/r law fits slope ~ -1 (floor(1000/r) bends it only slightly)
    assert abs(out["slope"][0] + 1.0) < 0.02


def test_term_label_chi2_exact_and_contracts(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import term_label_chi2

    # 6 docs: 3 en / 3 de. "both" appears in every doc (df == N ->
    # dropped); "hallo" only in de; "hello" in 2 en docs + 1 de doc;
    # "rare" once (pruned at min_df=2). A null-label and an empty-text
    # row must not count toward N.
    docs = pd.DataFrame({
        "doc_id": range(8),
        "text": ["hello both x1", "hello both x2", "both x3",
                 "hallo both hello y1", "hallo both y2", "hallo both y3",
                 "ignored", "   "],
        "lang": ["en", "en", "en", "de", "de", "de", None, "en"],
    })

    out = term_label_chi2(rd.from_pandas(docs).repartition(3),
                          min_df=2, k=10)

    def chi(n11, df, nlab, n=6):
        n10, n01 = df - n11, nlab - n11
        n00 = n - df - nlab + n11
        diff = n11 * n00 - n10 * n01
        return (n * diff * diff * 1_000_000
                // (df * (n - df) * nlab * (n - nlab)))

    got = {(r.lang, r.token): r.chi2_micro
           for r in out.itertuples(index=False)}
    # "both" (df=6=N) dropped; "rare"/x*/y* singletons pruned (min_df=2);
    # only OBSERVED (term, label) cells score (n11=0 anti-association
    # cells never emit a row — matches the SQL oracle's GROUP BY)
    assert set(got) == {("de", "hallo"),
                        ("de", "hello"), ("en", "hello")}
    assert got[("de", "hallo")] == chi(3, 3, 3) == 6_000_000
    assert got[("de", "hello")] == chi(1, 3, 3)
    assert got[("en", "hello")] == chi(2, 3, 3)
    # ordering contract: per label desc chi2 then token asc
    assert out["lang"].is_monotonic_increasing
    de = out[out["lang"] == "de"]
    assert de["token"].tolist() == ["hallo", "hello"]

    # single-label corpus: label covers every doc -> chi2 undefined,
    # everything dropped
    mono = docs.head(3).assign(lang="en")
    out2 = term_label_chi2(rd.from_pandas(mono), min_df=1, k=5)
    assert len(out2) == 0

    # k truncation: k=1 keeps exactly one row per label
    out3 = term_label_chi2(rd.from_pandas(docs).repartition(2),
                           min_df=2, k=1)
    assert len(out3) == 2
    assert out3.groupby("lang").size().tolist() == [1, 1]


def test_term_label_ig_exact_and_contracts(ray_session):
    import math

    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import term_label_ig

    # same fixture/contracts as the chi2 test: "both" df==N dropped,
    # singletons pruned at min_df=2, null-label/empty-text excluded
    docs = pd.DataFrame({
        "doc_id": range(8),
        "text": ["hello both x1", "hello both x2", "both x3",
                 "hallo both hello y1", "hallo both y2", "hallo both y3",
                 "ignored", "   "],
        "lang": ["en", "en", "en", "de", "de", "de", None, "en"],
    })

    out = term_label_ig(rd.from_pandas(docs).repartition(3),
                        min_df=2, k=10)

    def ig(n11, df, nlab, n=6):
        cells = ((n11, df, nlab), (df - n11, df, n - nlab),
                 (nlab - n11, n - df, nlab),
                 (n - df - nlab + n11, n - df, n - nlab))
        t = 0.0
        for nij, ri, cj in cells:
            if nij > 0:
                t += (nij / float(n)) * math.log(
                    float(nij) * float(n) / (float(ri) * float(cj)))
        return math.floor(t * 1_000_000 + 0.5)

    got = {(r.lang, r.token): r.ig_micro
           for r in out.itertuples(index=False)}
    assert set(got) == {("de", "hallo"),
                        ("de", "hello"), ("en", "hello")}
    # perfect association: IG == H(label) == ln(2) nats
    assert got[("de", "hallo")] == ig(3, 3, 3) == 693_147
    assert got[("de", "hello")] == ig(1, 3, 3)
    assert got[("en", "hello")] == ig(2, 3, 3)
    de = out[out["lang"] == "de"]
    assert de["token"].tolist() == ["hallo", "hello"]

    # single-label corpus -> degenerate margins, everything dropped
    mono = docs.head(3).assign(lang="en")
    assert len(term_label_ig(rd.from_pandas(mono), min_df=1,
                             k=5)) == 0


def test_benford_digits_exact(ray_session):
    import math

    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import benford_digits

    # 10 usable values with known leading digits; null and x<1 dropped
    vals = [1.5, 19.0, 123.4, 2.0, 25.0, 3.99, 31.0, 4.0, 900.0, 9999.0,
            0.5, None]
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(3)
    out = benford_digits(ds, "v")

    assert out["digit"].tolist() == list(range(1, 10))
    assert out["n"].tolist() == [3, 2, 2, 1, 0, 0, 0, 0, 2]
    assert int(out["n"].sum()) == 10
    exp = [math.floor(math.log10((d + 1.0) / d) * 1e6 + 0.5)
           for d in range(1, 10)]
    assert out["expected_micro"].tolist() == exp
    assert exp[0] == 301_030  # log10(2) in micro-units, round-half-up
    obs = [n * 1_000_000 // 10 for n in out["n"]]
    assert out["observed_micro"].tolist() == obs
    assert out["delta_micro"].tolist() == [o - e for o, e in
                                           zip(obs, exp)]
    assert all(out[c].dtype == "int64" for c in out.columns)


def test_benford_digits_non_finite_and_empty(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import benford_digits

    # inf has no leading digit and drops like a null
    ds = rd.from_pandas(pd.DataFrame({"v": [1.5, float("inf"), 23.0]}))
    out = benford_digits(ds, "v")
    assert out["n"].tolist() == [1, 1, 0, 0, 0, 0, 0, 0, 0]

    # zero rows: still the nine-row frame, every count 0
    ds = rd.from_pandas(pd.DataFrame({"v": [1.0]})).filter(lambda r: False)
    out = benford_digits(ds, "v")
    assert out["digit"].tolist() == list(range(1, 10))
    assert out["n"].tolist() == [0] * 9
    assert out["observed_micro"].tolist() == [0] * 9


def test_source_js_divergence_exact(ray_session):
    import math

    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import source_js_divergence

    # source x: tokens a a b; source y: tokens b c — verify against a
    # direct full-vocab JS computed independently (no closed-form
    # shortcut), contribution-floored the same way
    df = pd.DataFrame({"source": ["x", "x", "y"],
                       "text": ["a a", "b", "b c"]})
    out = source_js_divergence(rd.from_pandas(df).repartition(2))
    assert out["source"].tolist() == ["x", "y"]
    assert out["vocab"].tolist() == [2, 2]

    corpus = {"a": 2, "b": 2, "c": 1}
    B = 5

    def expect(counts, A):
        tot = 0
        sb = 0
        for t, a in counts.items():
            p = float(a) / float(A)
            q = float(corpus[t]) / float(B)
            m = p + q
            c = 0.5 * (p * math.log(2.0 * p / m)
                       + q * math.log(2.0 * q / m))
            tot += math.floor(c * 1e12)
            sb += corpus[t]
        tot += math.floor(0.5 * (1.0 - float(sb) / float(B))
                          * math.log(2.0) * 1e12)
        return tot, sb

    ex_x, sb_x = expect({"a": 2, "b": 1}, 3)
    ex_y, sb_y = expect({"b": 1, "c": 1}, 2)
    assert out["js_pico"].tolist() == [ex_x, ex_y]
    assert out["support_q_b"].tolist() == [sb_x, sb_y]
    # sanity: both divergences positive and < ln2
    assert 0 < ex_x < 0.6932e12 and 0 < ex_y < 0.6932e12

    # single source -> P == Q -> JS exactly 0
    one = pd.DataFrame({"source": ["s", "s"], "text": ["a b", "b c c"]})
    out = source_js_divergence(rd.from_pandas(one).repartition(2))
    assert out["js_pico"].tolist() == [0]

    # empty / all-null input -> empty frame
    out = source_js_divergence(rd.from_pandas(
        pd.DataFrame({"source": [None], "text": [None]})))
    assert len(out) == 0
