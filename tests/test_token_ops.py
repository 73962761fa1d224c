"""Output parity of the corpus token operators in ``stages/text.py``.

One seeded corpus runs through the eight operators built on the
``token_counts`` word count plus ``inverted_index``, ``tfidf_top_term``
and ``term_label_chi2``; each output is pinned by a sha256 over its rows
with columns and rows sorted. The corpus separates tokens with every
kind of whitespace ``str.split()`` knows (tab, ``\\x0b``, ``\\x1c``,
``\\xa0``, ``\\u2028``, ...) and holds whitespace-only, empty and null
texts and null labels. The digests were taken from the regex tokenizer
(``re.split(r"\\s+", text.strip())`` with empty pieces dropped) and the
per-operator count passes that ``textstats.tokens`` and
``text.token_counts`` replace; a change that moves one must say why.
"""

import hashlib

import numpy as np
import pandas as pd

# sha256 over each output (columns and rows sorted, see _digest)
PINNED = {
    "top_terms":
        "fd30dcb3e1ce9330635fb232ffb238379777f858b7da4c156f3422c3c2696d9d",
    "token_frequency_spectrum":
        "5b6f1218ee57a3fd2048d3032c03dc2147e4ce836b5cfd7d6e87c3ba39b51c2a",
    "doc_mean_token_freq":
        "267942dd4aa42bd475d34b56250ed0de98932e3b702fb3136076d024d1b684ce",
    "unigram_nll":
        "ece32914b0ad70f18513bbcffd15430f19e0cc3a6b43c512e041172757e5ee32",
    "learn_bpe":
        "804e971467471ebfa52a7948695ee18180f22ca7ad15d412a3be8abfba8f1098",
    "bigram_nll":
        "8e942254dec8df3932f7b56d0f4362553e25c4cf08f305ff64af5b6b0a821d28",
    "trigram_nll":
        "0642b4b8e20e7aa8c89c3d4631792d52d59e9e7d8385cd70fa0a71ccb478b202",
    "zipf_slope":
        "78ddb600c0cd3f6e3fad5e92f996969347e185835b93d6e846b0aedc6b014a51",
    "inverted_index":
        "9f6361b508cc150588d8e88841f7dc7b69b10b6b0dea1cc76e940c5e1c94de7b",
    "tfidf_top_term":
        "37dddfe6660d8651a33d8605f8389560434859e41c35ae6a28a0f2aec431f28d",
    "term_label_chi2":
        "33f0b6503fe2146da4a0a804a64be55682025730b77486bc2347d3f6ad7acfdc",
}

# separators: each is one run of characters for which str.isspace() holds
_SEPS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
         "\u2028", "\u3000", "\r\n", " \t\xa0 "]


def _docs() -> pd.DataFrame:
    rng = np.random.default_rng(16)
    vocab = [f"w{i}" for i in range(50)] + ["Straße", "café", "x-y", "a.b"]
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    texts: list = []
    for _ in range(110):
        toks = rng.choice(vocab, int(rng.integers(1, 30)), p=p)
        seps = rng.choice(_SEPS, len(toks) + 1)
        texts.append(seps[0] * int(rng.integers(0, 2))
                     + "".join(t + s for t, s in zip(toks, seps[1:]))
                     [:None if rng.integers(2) else -1])
    texts += [None, None, "", "   ", "\t\xa0 ", "\x1c", "w0",
              "\xa0w1\xa0", "w2\x0bw3"]
    n = len(texts)
    labels = [None if i % 17 == 0 else ["en", "de", "fr"][i % 3]
              for i in range(n)]
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "text": pd.Series(texts, dtype=object),
                         "lang": pd.Series(labels, dtype=object)})


def _digest(out) -> str:
    if isinstance(out, list):
        return hashlib.sha256(repr(out).encode()).hexdigest()
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    cols = sorted(df.columns)
    df = df[cols].sort_values(cols).reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def _outputs() -> dict:
    import ray.data as rd

    from credit_ocr_backend_ray.stages import text

    ds = rd.from_pandas(_docs()).repartition(4)
    return {
        "top_terms": text.top_terms(ds, k=20),
        "token_frequency_spectrum": text.token_frequency_spectrum(ds),
        "doc_mean_token_freq": text.doc_mean_token_freq(ds),
        "unigram_nll": text.unigram_nll(ds, top_vocab=30),
        "learn_bpe": text.learn_bpe(ds, n_merges=20),
        "bigram_nll": text.bigram_nll(ds, top_vocab=30, min_count=2),
        "trigram_nll": text.trigram_nll(ds, top_vocab=30, min_count=2),
        "zipf_slope": text.zipf_slope(ds, top_n=40),
        "inverted_index": text.inverted_index(ds),
        "tfidf_top_term": text.tfidf_top_term(ds),
        "term_label_chi2": text.term_label_chi2(ds, min_df=2, k=5),
    }


def test_token_operator_outputs_match_pinned_digests(ray_session):
    got = {k: _digest(v) for k, v in _outputs().items()}
    assert got == PINNED
