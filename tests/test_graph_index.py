"""Distributed connected components (stages/graph.py) and the
inverted-index / tf-idf text operators (stages/text.py)."""

import math
import random

import numpy as np
import pandas as pd
import pytest


def _cc(edges: pd.DataFrame, **kw):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.graph import connected_components
    ds = rd.from_pandas(edges).repartition(3)
    labels, rounds = connected_components(ds, **kw)
    out = labels.to_pandas().sort_values("node").reset_index(drop=True)
    return dict(zip(out["node"], out["comp"])), rounds


def _reference_cc(edges: pd.DataFrame) -> dict:
    """Driver union-find (stages/dedup.py:cluster_pairs) as the oracle —
    and every node maps to the min id of its component."""
    from credit_ocr_backend_ray.stages.dedup import cluster_pairs
    pairs = edges.rename(columns={"src": "id_a", "dst": "id_b"})
    got = cluster_pairs(pairs)
    # cluster_pairs skips pure self-loop nodes; add them as singletons
    for n in set(edges["src"]) | set(edges["dst"]):
        got.setdefault(int(n), int(n))
    return got


def test_cc_chain_ring_and_singleton(ray_session):
    edges = pd.DataFrame({
        "src": [0, 1, 2, 3, 4, 10, 11, 12, 20],
        "dst": [1, 2, 3, 4, 5, 11, 12, 10, 20],  # chain, ring, self-loop
    })
    labels, rounds = _cc(edges)
    assert labels == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0,
                      10: 10, 11: 10, 12: 10, 20: 20}
    # chain of 6 has diameter 5: 5 propagation rounds + 1 fixpoint check
    assert rounds == 6


def test_cc_star_converges_fast(ray_session):
    # star centered on 50 with min id at a leaf: constant rounds, any size
    leaves = [7] + list(range(51, 80))
    edges = pd.DataFrame({"src": [50] * len(leaves), "dst": leaves})
    labels, rounds = _cc(edges)
    assert set(labels.values()) == {7}
    assert rounds <= 4


def test_cc_matches_union_find_on_random_graph(ray_session):
    rng = random.Random(42)
    edges = pd.DataFrame({
        "src": [rng.randrange(200) for _ in range(150)],
        "dst": [rng.randrange(200) for _ in range(150)],
    })
    labels, _ = _cc(edges)
    assert labels == _reference_cc(edges)


def test_cc_max_iter_caps_rounds(ray_session):
    edges = pd.DataFrame({"src": range(9), "dst": range(1, 10)})
    _, rounds = _cc(edges, max_iter=3)
    assert rounds == 3  # capped before the chain converges


def test_session_star_edges(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.graph import session_star_edges
    base = np.datetime64("2024-01-01T00:00:00", "us")
    h = np.timedelta64(3600, "s").astype("timedelta64[us]")
    ev = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2, 2],
        "event_id": [10, 11, 12, 13, 20, 21],
        # user 1: two sessions (gap 5h > 4h between 11 and 12);
        # user 2: one session; all gaps within a session are 1h
        "ts": [base, base + h, base + 6 * h, base + 7 * h,
               base, base + h],
    })
    edges = session_star_edges(rd.from_pandas(ev).repartition(2),
                               gap_s=4 * 3600)
    got = edges.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    want = pd.DataFrame({"src": [10, 10, 12, 12, 20, 20],
                         "dst": [10, 11, 12, 13, 20, 21]})
    pd.testing.assert_frame_equal(got, want)


def test_inverted_index_planted(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import inverted_index
    docs = pd.DataFrame({
        "doc_id": [3, 1, 2],
        "text": ["b a b", "a c", None],  # repeated token counts once
    })
    out = inverted_index(rd.from_pandas(docs).repartition(2)) \
        .to_pandas().sort_values("token").reset_index(drop=True)
    want = pd.DataFrame({"token": ["a", "b", "c"],
                         "df": [2, 1, 1],
                         "postings": ["1,3", "3", "1"]})
    pd.testing.assert_frame_equal(out, want)


def test_inverted_index_min_df_prunes(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import inverted_index
    docs = pd.DataFrame({"doc_id": [1, 2], "text": ["a b", "a"]})
    out = inverted_index(rd.from_pandas(docs), min_df=2).to_pandas()
    assert out["token"].tolist() == ["a"]


def test_tfidf_top_term_planted(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.text import tfidf_top_term
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["rare common common", "common common", "other common"],
    })
    out = tfidf_top_term(rd.from_pandas(docs).repartition(2)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # df: common=3 (score 0), rare=1, other=1 -> ln(3) scores win
    s = int(math.floor(math.log(3.0) * 1e6 + 0.5))
    assert out["top_token"].tolist() == ["rare", "common", "other"]
    assert out["score_micro"].tolist() == [s, 0, s]
    # doc 2 ties at 0 for its only token; tie-break is token-ascending
    # (single token here; cross-token ties covered by the sf oracle gate)
