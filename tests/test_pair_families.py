"""Output parity of the near-duplicate pair families in ``stages/dedup.py``.

One seeded corpus runs through all seven entry points; each output is
pinned by a sha256 over its rows with columns and rows sorted. The
corpus holds planted word-level near-duplicates, a short document
embedded in a long one, a block of identical documents and keys hotter
than ``_BUCKET_CAP`` (so truncation and its carrier rows are exercised),
and fixed-width keys with substitution, insertion and deletion typos.
A refactor of the blocking, pair dedup or verify layers must keep every
digest; a semantic change must say why it moved one.
"""

import hashlib

import numpy as np
import pandas as pd

# sha256 over each output (columns and rows sorted, see _digest)
PINNED = {
    "minhash_dedup_pairs":
        "56b5d71c8c26649343cf450a3750d6c7fa285a24c3c7e3fa86d033925ba57868",
    "ngram_jaccard_pairs":
        "56b5d71c8c26649343cf450a3750d6c7fa285a24c3c7e3fa86d033925ba57868",
    "prefix_jaccard_join":
        "182ad8e73507b8c61450564728658f81d35e621e9b2db89f72fdfb68c2fbb44d",
    "containment_join":
        "88c866c959c993bae14b6e90541eada53be908cb4646d6bdebad8fbdec3bc915",
    "simhash_candidates":
        "fa96e0dc0d13446bfae3193e52c4bc5a6993fe4ccc1fab66323a61a7ce96a78b",
    "hamming_join":
        "7e99578fe3cde4ec8bf63964442b84795cb0dd7503ab2e1eefc372087b4b9914",
    "hamming_join_d2":
        "3749cd32006841531a9e8787dd90bacbaaebd78da8989de3ba4c071f06133847",
    "edit1_join":
        "c50e5ee3cb9c26998deea2019cb493207bd5084dc4ce01420ff31734de5cf511",
}

_HOT = 205  # identical rows in the hot bucket (> _BUCKET_CAP = 200)


def _docs() -> pd.DataFrame:
    rng = np.random.default_rng(15)
    vocab = [f"w{i}" for i in range(400)]
    base = [list(rng.choice(vocab, 40)) for _ in range(60)]
    rows = [" ".join(w) for w in base]
    for i in range(8):                      # one word substituted
        w = list(base[i])
        w[int(rng.integers(40))] = "zz"
        rows.append(" ".join(w))
    for i in range(8, 12):                  # last word dropped
        rows.append(" ".join(base[i][:-1]))
    rows.append(" ".join(base[12][:20]))    # embedded in doc 12
    rows += ["alpha beta gamma delta epsilon zeta eta theta"] * _HOT
    return pd.DataFrame({"doc_id": np.arange(len(rows), dtype=np.int64),
                         "text": rows})


def _keys() -> pd.DataFrame:
    rng = np.random.default_rng(16)
    keys = [f"SUP#{int(x):06d}" for x in rng.integers(0, 10**6, 300)]
    for i in range(10):                     # substitution typo
        k = keys[i]
        p = int(rng.integers(4, 10))
        keys.append(k[:p] + "X" + k[p + 1:])
    for i in range(10, 20):                 # insertion typo
        k = keys[i]
        p = int(rng.integers(4, 10))
        keys.append(k[:p] + "7" + k[p:])
    for i in range(20, 25):                 # deletion typo
        k = keys[i]
        keys.append(k[:6] + k[7:])
    keys += ["SUP#000000"] * _HOT
    return pd.DataFrame({"id": np.arange(len(keys), dtype=np.int64),
                         "s": keys})


def _digest(df: pd.DataFrame) -> str:
    cols = sorted(df.columns)
    df = df[cols].sort_values(cols).reset_index(drop=True)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def _outputs() -> dict[str, pd.DataFrame]:
    import ray.data as rd

    from credit_ocr_backend_ray.stages import dedup

    docs = rd.from_pandas(_docs()).repartition(4)
    keys = rd.from_pandas(_keys()).repartition(4)
    return {
        "minhash_dedup_pairs": dedup.minhash_dedup_pairs(docs),
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs(docs),
        "prefix_jaccard_join": dedup.prefix_jaccard_join(docs),
        "containment_join": dedup.containment_join(docs),
        "simhash_candidates": dedup.simhash_candidates(docs),
        "hamming_join": dedup.hamming_join(keys, "id", "s").to_pandas(),
        "hamming_join_d2": dedup.hamming_join(keys, "id", "s",
                                              max_dist=2).to_pandas(),
        "edit1_join": dedup.edit1_join(keys, "id", "s").to_pandas(),
    }


def test_pair_family_outputs_match_pinned_digests(ray_session):
    got = {k: _digest(v) for k, v in _outputs().items()}
    assert got == PINNED
