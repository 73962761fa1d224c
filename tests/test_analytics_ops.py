"""Unit tests for the analytics operator batch: funnel, trimmed mean,
skyline, co-occurrence + triangle count, bigrams, vocab jaccard,
retention cohorts. Small planted inputs with hand-checked expectations;
the DuckDB oracle gate (tools/check_correctness.py) covers the same
operators at sf scale."""

import numpy as np
import pandas as pd
import pytest


def _ds(df):
    import ray.data as rd
    return rd.from_pandas(df).repartition(3)


def test_funnel_steps_window_and_order(ray_session):
    from credit_ocr_backend_ray.stages.relational import funnel_steps

    t0 = pd.Timestamp("2024-01-01")
    h = pd.Timedelta(hours=1)
    rows = []
    # u1 completes all three within windows
    rows += [(1, "view", t0), (1, "click", t0 + h), (1, "buy", t0 + 2 * h)]
    # u2's only click precedes the view -> funnel stops after step 1
    rows += [(2, "click", t0), (2, "view", t0 + h), (2, "buy", t0 + 2 * h)]
    # u3 clicks too late (outside the 2h window)
    rows += [(3, "view", t0), (3, "click", t0 + 5 * h)]
    # u4 never views
    rows += [(4, "click", t0), (4, "buy", t0 + h)]
    ev = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    out = funnel_steps(_ds(ev), "user_id", "ts", "event_type",
                       ["view", "click", "buy"],
                       within_us=2 * 3600 * 1_000_000).to_pandas()
    out = out.sort_values("step_idx").reset_index(drop=True)
    assert out["step"].tolist() == ["view", "click", "buy"]
    # views: u1, u2, u3; clicks-after-view within 2h: u1 only (u2's click
    # precedes the view, u3's is 5h later); buys: u1
    assert out["n_users"].tolist() == [3, 1, 1]


def test_funnel_strictly_after(ray_session):
    from credit_ocr_backend_ray.stages.relational import funnel_steps

    t0 = pd.Timestamp("2024-01-01")
    ev = pd.DataFrame({
        "user_id": [1, 1],
        "event_type": ["a", "b"],
        "ts": [t0, t0],  # simultaneous: b is NOT strictly after a
    })
    out = funnel_steps(_ds(ev), "user_id", "ts", "event_type",
                       ["a", "b"]).to_pandas()
    assert out.sort_values("step_idx")["n_users"].tolist() == [1, 0]


def test_trimmed_mean_per_key_exact(ray_session):
    from credit_ocr_backend_ray.stages.relational import trimmed_mean_per_key

    vals = list(range(1, 11))  # 1..10, 10% trim drops 1 and 10
    df = pd.DataFrame({"k": ["a"] * 10 + ["b"] * 3,
                       "v": vals + [5, 100, -100]})
    out = trimmed_mean_per_key(_ds(df), "k", "v", frac=0.1) \
        .to_pandas().set_index("k")
    assert out.loc["a", "trimmed_mean"] == pytest.approx(np.mean(vals[1:-1]))
    assert out.loc["a", "n_kept"] == 8
    # n=3, floor(0.3)=0 -> nothing trimmed
    assert out.loc["b", "trimmed_mean"] == pytest.approx(5 / 3)
    assert out.loc["b", "n_kept"] == 3


def test_skyline_dominance_and_ties(ray_session):
    from credit_ocr_backend_ray.stages.relational import skyline

    df = pd.DataFrame({
        "id": [1, 2, 3, 4, 5],
        "price": [10.0, 20.0, 10.0, 5.0, 10.0],
        "size": [5, 5, 7, 3, 7],
    })
    # 4 (5,3): cheapest -> frontier. 3 and 5 (10,7): tie on both, both
    # survive (neither strictly dominates). 1 (10,5): dominated by 3/5
    # (same price, bigger size). 2 (20,5): dominated by 1.
    out = skyline(_ds(df), minimize=["price"], maximize=["size"]).to_pandas()
    assert sorted(out["id"].tolist()) == [3, 4, 5]


def test_cooccurrence_edges_and_triangles(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.graph import (
        cooccurrence_edges, triangle_count)

    # baskets: {1,2,3} -> triangle; {3,4} -> pendant edge; {1,2} dup pair
    basket = pd.DataFrame({
        "g": [10, 10, 10, 11, 11, 12, 12],
        "i": [1, 2, 3, 3, 4, 1, 2],
    })
    edges = cooccurrence_edges(_ds(basket), "g", "i").to_pandas()
    eset = set(map(tuple, edges[["src", "dst"]].to_numpy()))
    assert eset == {(1, 2), (1, 3), (2, 3), (3, 4)}
    # duplicate (1,2) edge present twice in the raw stream
    assert len(edges) == 5

    n_edges, n_tri = triangle_count(
        rd.from_pandas(edges).repartition(2))
    assert (n_edges, n_tri) == (4, 1)


def test_triangle_count_k4_with_noise(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.graph import triangle_count

    # K4 = 4 triangles; add self-loop, reversed duplicates
    e = pd.DataFrame({
        "src": [1, 1, 1, 2, 2, 3, 3, 4, 2],
        "dst": [2, 3, 4, 3, 4, 4, 3, 1, 2],
    })
    n_edges, n_tri = triangle_count(rd.from_pandas(e).repartition(3))
    assert (n_edges, n_tri) == (6, 4)


def test_top_bigrams(ray_session):
    from credit_ocr_backend_ray.stages.text import top_bigrams

    df = pd.DataFrame({"text": ["a b a b", "b a", "", None, "a"]})
    out = top_bigrams(_ds(df), k=10).to_pandas()
    got = {(r.w1, r.w2): r.n for r in out.itertuples()}
    assert got == {("a", "b"): 2, ("b", "a"): 2}


def test_source_vocab_jaccard(ray_session):
    from credit_ocr_backend_ray.stages.text import source_vocab_jaccard

    df = pd.DataFrame({
        "text": ["a b c", "c d", "c d e", "x"],
        "source": ["s1", "s1", "s2", "s3"],
    })
    out = source_vocab_jaccard(_ds(df)).to_pandas()
    out = out.set_index(["src_a", "src_b"])
    # V(s1)={a,b,c,d}, V(s2)={c,d,e}, V(s3)={x}; zero-overlap pairs
    # (s1,s3), (s2,s3) emit NO row (sparse-matrix contract, same as the
    # oracle's inner join on token)
    assert out.loc[("s1", "s2"), "n_common"] == 2
    assert out.loc[("s1", "s2"), "jaccard"] == pytest.approx(2 / 5)
    assert len(out) == 1


def test_retention_cohorts(ray_session):
    from credit_ocr_backend_ray.stages.relational import retention_cohorts

    d0 = pd.Timestamp("2024-03-01")
    day = pd.Timedelta(days=1)
    rows = [
        (1, d0), (1, d0 + pd.Timedelta(hours=3)),  # same day: once
        (1, d0 + 2 * day),
        (2, d0), (2, d0 + day),
        (3, d0 + day),
    ]
    ev = pd.DataFrame(rows, columns=["user_id", "ts"])
    out = retention_cohorts(_ds(ev), "user_id", "ts").to_pandas()
    out["cohort_day"] = out["cohort_day"].astype("datetime64[ns]")
    got = {(r.cohort_day, r.offset_days): r.n_users
           for r in out.itertuples()}
    assert got == {
        (d0, 0): 2,          # users 1, 2 on their first day
        (d0, 1): 1,          # user 2 returned next day
        (d0, 2): 1,          # user 1 returned on day 2
        (d0 + day, 0): 1,    # user 3's cohort
    }


def test_hamming_join_planted(ray_session):
    from credit_ocr_backend_ray.stages.dedup import hamming_join

    df = pd.DataFrame({
        "id": [1, 2, 3, 4, 5],
        "name": ["abcdef", "abcdeX", "abXdef", "XYZdef", "abcde"],
    })
    # (1,2) dist 1, (1,3) dist 1, (2,3) dist 2 -> excluded at max_dist=1,
    # 4 is dist 3 from 1; 5 has different LENGTH -> never pairs
    out = hamming_join(_ds(df), "id", "name", max_dist=1).to_pandas()
    got = {(r.k_a, r.k_b): r.dist for r in out.itertuples()}
    assert got == {(1, 2): 1, (1, 3): 1}


def test_hamming_join_dist2(ray_session):
    from credit_ocr_backend_ray.stages.dedup import hamming_join

    df = pd.DataFrame({
        "id": [1, 2],
        "name": ["aXcdeY", "abcdef"],  # differs at positions 1 and 5:
    })                                 # no shared HALF, but a shared
    # middle third exists with 3 chunks (max_dist=2 -> 3 chunks)
    out = hamming_join(_ds(df), "id", "name", max_dist=2).to_pandas()
    assert {(r.k_a, r.k_b, r.dist) for r in out.itertuples()} == {(1, 2, 2)}


def test_transition_matrix(ray_session):
    from credit_ocr_backend_ray.stages.relational import transition_matrix

    t0 = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    ev = pd.DataFrame({
        "u": [1, 1, 1, 2, 2],
        "ts": [t0, t0 + s, t0 + 2 * s, t0, t0 + s],
        "eid": [1, 2, 3, 4, 5],
        "st": ["a", "b", "a", "b", "b"],
    })
    out = transition_matrix(_ds(ev), "u", "ts", "st", "eid").to_pandas()
    got = {(r.from_state, r.to_state): r.n for r in out.itertuples()}
    # u1: a->b, b->a ; u2: b->b ; NO cross-user a->b from (u1 last, u2 first)
    assert got == {("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1}


def test_grouped_entropy(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_entropy

    df = pd.DataFrame({"u": [1, 1, 1, 1, 2, 2],
                       "st": ["a", "a", "b", "b", "a", "a"]})
    out = grouped_entropy(_ds(df), "u", "st").to_pandas().set_index("u")
    assert out.loc[1, "entropy"] == pytest.approx(np.log(2))
    assert out.loc[1, "n_events"] == 4
    assert out.loc[2, "entropy"] == pytest.approx(0.0)


def test_grouped_agg_sum_alias_n_no_collision(ray_session):
    """Regression: a caller-chosen sum alias 'n' must not collide with
    grouped_agg's internal count name when count_alias=None."""
    from credit_ocr_backend_ray.stages.relational import grouped_agg

    df = pd.DataFrame({"k": ["a", "a", "b"], "v": [1, 2, 3]})
    out = grouped_agg(_ds(df), ["k"], {"v": "n"},
                      count_alias=None).to_pandas().set_index("k")
    assert out.loc["a", "n"] == 3
    assert out.loc["b", "n"] == 3
    assert list(out.columns) == ["n"]


def test_hamming_join_constant_prefix_no_cap_loss(ray_session):
    """Regression: chunk blocking puts every row of a constant-prefix
    key set into one bucket (the shared-prefix chunk), and the bucket
    cap then silently drops true pairs; the wildcard blocker used at
    max_dist=1 is immune. 300 keys > _BUCKET_CAP with a 12-char shared
    prefix; every consecutive id pair differing in one digit must
    appear."""
    from credit_ocr_backend_ray.stages.dedup import hamming_join

    names = [f"CommonPrefix{i:04d}" for i in range(300)]
    df = pd.DataFrame({"id": range(300), "name": names})
    out = hamming_join(_ds(df), "id", "name", max_dist=1).to_pandas()
    got = set(zip(out["k_a"], out["k_b"]))
    # 0001 vs 0002 etc.: same except last digit -> 30 decades x C(10,2)
    # pairs on the last digit, plus tens/hundreds-digit families
    assert (0, 1) in got and (290, 299) in got
    expected_last_digit = 30 * 45
    assert sum(1 for a, b in got if a // 10 == b // 10) \
        == expected_last_digit


def test_mmr_prefers_diverse_second_pick(ray_session):
    from credit_ocr_backend_ray.stages.similarity import mmr_select

    # When the query direction equals the first pick, every candidate's
    # redundancy equals its relevance and MMR degenerates — so the
    # discriminating case needs lam < 0.5: id2 is nearly a duplicate of
    # id1 (redundancy ~= relevance ~= 0.995), id3 is ORTHOGONAL to both
    # query and id1 (relevance 0, redundancy 0). At lam=0.4 id2 scores
    # 0.995*(2*0.4-1) < 0 while id3 scores 0 -> the diverse id3 ranks
    # second; pure relevance would rank it last.
    df = pd.DataFrame({
        "vec_id": [1, 2, 3],
        "embedding": [[1.0, 0.0], [0.995, 0.0999], [0.0, 1.0]],
    })
    out = mmr_select(_ds(df), np.array([1.0, 0.0]), k=3, lam=0.4, pool=3)
    assert out["vec_id"].tolist() == [1, 3, 2]
    assert out["rank"].tolist() == [1, 2, 3]
    # relevance column is the plain cosine
    assert out.loc[out["vec_id"] == 1, "relevance"].iloc[0] == \
        pytest.approx(1.0)
    assert out.loc[out["vec_id"] == 3, "relevance"].iloc[0] == \
        pytest.approx(0.0)


def test_temperature_mix_upweights_small_sources(ray_session):
    import hashlib

    from credit_ocr_backend_ray.stages.curate import temperature_mix_sample

    # A: 100 docs, B: 4 docs. isqrt weights 10 and 2, S=12, T=52:
    # thr_A = 2^32*52*10 // (12*100) ~ 0.433*2^32 ;
    # thr_B = 2^32*52*2 // (12*4) > 2^32 -> capped, B kept ENTIRELY.
    df = pd.DataFrame({
        "doc_id": range(104),
        "source": ["A"] * 100 + ["B"] * 4,
    })
    out = temperature_mix_sample(_ds(df)).to_pandas()
    by_src = out["source"].value_counts().to_dict()
    assert by_src.get("B", 0) == 4  # rare source fully kept
    thr_a = ((1 << 32) * 52 * 10) // (12 * 100)
    expect_a = sum(
        1 for i in range(100)
        if int.from_bytes(hashlib.md5(str(i).encode()).digest()[:4],
                          "big") < thr_a)
    assert by_src.get("A", 0) == expect_a
    assert 0 < by_src["A"] < 100


def test_pq_recall_vs_bruteforce(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.similarity import (
        knn_bruteforce, knn_pq, pq_train)

    # clustered synthetic embeddings: 4 well-separated centers + noise,
    # dim 8 -> m=4 subspaces of 2
    rng = np.random.default_rng(7)
    centers = np.eye(4).repeat(2, axis=1) * 5.0  # (4, 8)
    vecs = (centers[np.arange(200) % 4]
            + rng.standard_normal((200, 8)) * 0.3)
    df = pd.DataFrame({"vec_id": range(200),
                       "embedding": [v.tolist() for v in vecs]})
    ds = rd.from_pandas(df).repartition(4)
    books = pq_train(ds, m=4, ksub=8, sample_rows=200)
    assert books.shape == (4, 8, 2)
    q = vecs[:2]
    exact = knn_bruteforce(ds, q, k=10)
    approx = knn_pq(ds, q, books, k=10)
    for qi in (0, 1):
        # PQ's contract here is CLUSTER-level recall: within a cluster
        # the members are near-ties (cos ~0.997+) whose fine ranking the
        # 1-byte codes cannot preserve, so exact-top-10 overlap is not
        # the right assertion — landing every hit in the query's cluster
        # (and never in another) is.
        hits = approx[approx.query_id == qi]["vec_id"].to_numpy()
        assert len(hits) == 10
        assert (hits % 4 == qi % 4).all(), hits
        # the exact top-10 lives in the same cluster too (sanity that
        # the fixture separates clusters)
        ehits = exact[exact.query_id == qi]["vec_id"].to_numpy()
        assert (ehits % 4 == qi % 4).all()


def test_duplicate_gram_stats(ray_session):
    from credit_ocr_backend_ray.stages.curate import duplicate_gram_stats

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [
            "a b c d",      # grams: "a b c", "b c d"
            "x a b c y",    # grams: "x a b", "a b c", "b c y"
            "z z z z",      # grams: "z z z" x2 (within-doc repeat)
        ],
    })
    out = duplicate_gram_stats(_ds(df), n=3).to_pandas().set_index("doc_id")
    # "a b c" occurs in docs 1 and 2 -> dup for both; "z z z" occurs
    # twice WITHIN doc 3 -> both its positions are dup
    assert out.loc[1, "n_grams"] == 2 and out.loc[1, "n_dup_grams"] == 1
    assert out.loc[2, "n_grams"] == 3 and out.loc[2, "n_dup_grams"] == 1
    assert out.loc[3, "n_grams"] == 2 and out.loc[3, "n_dup_grams"] == 2


def test_lead_and_mad_and_disc_quantile(ray_session):
    from credit_ocr_backend_ray.stages.relational import (
        grouped_mad, grouped_quantile, lag_delta)

    t0 = pd.Timestamp("2024-01-01")
    s = pd.Timedelta(seconds=1)
    df = pd.DataFrame({
        "k": [1, 1, 1],
        "ts": [t0, t0 + s, t0 + 2 * s],
        "id": [1, 2, 3],
        "v": [10.0, 13.0, 11.0],
    })
    out = lag_delta(_ds(df), "k", ["ts", "id"], "v", alias="nd",
                    forward=True).to_pandas().sort_values("id")
    assert out["nd"].tolist()[:2] == [3.0, -2.0]
    assert pd.isna(out["nd"].iloc[2])  # last row of the key

    vals = pd.DataFrame({"k": ["a"] * 4, "v": [1.0, 2.0, 3.0, 10.0]})
    mad = grouped_mad(_ds(vals), ["k"], "v").to_pandas()
    assert mad["mad"].iloc[0] == pytest.approx(1.0)  # med 2.5, devs median
    q = grouped_quantile(_ds(vals), ["k"], "v", 0.9, alias="p90",
                         method="inverted_cdf").to_pandas()
    assert q["p90"].iloc[0] == 10.0  # an actual element, not interpolated


def test_k_core_peels_tail(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.graph import k_core

    # K5 clique (degree 4 inside) + a pendant chain 5-100-101
    e = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    e += [(5, 100), (100, 101)]
    df = pd.DataFrame(e, columns=["src", "dst"])
    nodes, rounds = k_core(rd.from_pandas(df).repartition(3), k=3)
    out = nodes.to_pandas().sort_values("node")
    assert out["node"].tolist() == [1, 2, 3, 4, 5]
    assert (out["deg"] == 4).all()
    assert rounds >= 2  # chain peeled in round 1, fixpoint verified

    # k higher than any degree -> empty core
    empty, _ = k_core(rd.from_pandas(df).repartition(2), k=10)
    assert empty.count() == 0


def test_bucket_store_colocation_and_join(ray_session, tmp_path):
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from credit_ocr_backend_ray.state.bucket_store import (
        bucket_of_int, bucketed_join, write_bucketed)

    # int64 extremes too: negative and near-2**63 keys
    ks = list(range(50)) + [-2**63, -5, -1, 2**63 - 2, 2**63 - 1]
    a = pd.DataFrame({"k": ks * 2, "va": range(2 * len(ks))})
    b = pd.DataFrame({"k2": range(0, 100, 3), "vb": range(34)})
    pa_, pb_ = str(tmp_path / "ta"), str(tmp_path / "tb")
    assert write_bucketed(rd.from_pandas(a).repartition(4), pa_, "k", 8) \
        == len(a)
    # co-location: every key's rows live in exactly ONE bucket dir,
    # and it is the bucket the hash says
    for f in glob.glob(pa_ + "/bucket=*/*.parquet"):
        bucket = int(f.split("bucket=")[1].split("/")[0])
        keys = pq.read_table(f)["k"].to_numpy(zero_copy_only=False)
        assert (bucket_of_int(keys.astype(np.int64), 8) == bucket).all()
    # the persisted layout itself: pinned buckets of the int64 extremes
    ext = np.array([-2**63, -5, -1, 0, 1, 63, 2**62, 2**63 - 2, 2**63 - 1],
                   np.int64)
    assert bucket_of_int(ext, 8).tolist() == [0, 7, 6, 0, 1, 4, 0, 4, 6]

    write_bucketed(rd.from_pandas(b), pb_, "k2", 8)
    out = bucketed_join(pa_, pb_, "k", "k2", 8,
                        cols=["k", "va", "vb"]).to_pandas()
    exp = a.merge(b, left_on="k", right_on="k2")[["k", "va", "vb"]]
    assert len(out) == len(exp)
    assert (out.sort_values(["k", "va"]).reset_index(drop=True)
            == exp.sort_values(["k", "va"]).reset_index(drop=True)).all().all()


def test_cc_bucketed_matches_inmemory(ray_session, tmp_path):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.graph import (
        connected_components, connected_components_bucketed)

    # two components (1-2-3 chain, 10-11) + a self-loop + dup edges
    e = pd.DataFrame({"src": [1, 2, 10, 2, 5, 1],
                      "dst": [2, 3, 11, 1, 5, 2]})
    ds = rd.from_pandas(e).repartition(3)
    mem, _ = connected_components(ds, max_iter=20)
    bkt, rounds = connected_components_bucketed(
        ds, str(tmp_path / "adj"), max_iter=20, n_buckets=8)
    a = mem.to_pandas().sort_values("node").reset_index(drop=True)
    b = bkt.to_pandas().sort_values("node").reset_index(drop=True)
    assert a.equals(b)
    assert set(b[b["comp"] == 1]["node"]) == {1, 2, 3}
    assert set(b[b["comp"] == 10]["node"]) == {10, 11}
    assert rounds >= 2


def test_scene_cut_detector(ray_session):
    import ray.data as rd

    from credit_ocr_backend_ray.stages.multimodal import SceneCutDetector

    def ppm(shade, w=8, h=6):
        px = np.full((h, w, 3), shade, np.uint8)
        return b"P6\n%d %d\n255\n" % (w, h) + px.tobytes()

    two_scene = b"".join([ppm(10)] * 3 + [ppm(220)] * 2)   # cut at 3
    flat = b"".join([ppm(99)] * 4)                         # no cut
    df = pd.DataFrame({
        "media_id": ["a", "b", "c"],
        "payload": [two_scene, flat, b"garbage"],
    })
    out = (rd.from_pandas(df)
           .map_batches(SceneCutDetector, batch_format="pyarrow",
                        batch_size=2, concurrency=1)
           .to_pandas().set_index("media_id"))
    assert out.loc["a", "n_frames"] == 5
    assert out.loc["a", "n_cuts"] == 1
    assert out.loc["a", "cut_indexes"] == "3"
    assert out.loc["b", "n_cuts"] == 0
    assert out.loc["c", "n_frames"] == -1  # poison row captured


def test_bucketed_agg_matches_pandas(ray_session, tmp_path):
    import ray.data as rd

    from credit_ocr_backend_ray.state.bucket_store import (
        bucketed_agg, write_bucketed)

    df = pd.DataFrame({"k": [1, 1, 2, 3, 3, 3], "v": [10, 5, 7, 1, 2, 4]})
    p = str(tmp_path / "t")
    write_bucketed(rd.from_pandas(df).repartition(3), p, "k", 4)
    out = (bucketed_agg(p, "k", {"v": "sv"}, count_alias="cnt")
           .to_pandas())
    out = out[out["cnt"] > 0].sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 2, 3]
    assert out["sv"].tolist() == [15, 7, 7]
    assert out["cnt"].tolist() == [2, 1, 3]


def test_range_partitioned_layout_and_pruned_scan(ray_session, tmp_path):
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from credit_ocr_backend_ray.state.bucket_store import (
        read_value_range, write_range_partitioned)

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"id": range(2000),
                       "v": rng.uniform(0, 1000, 2000)})
    p = str(tmp_path / "rt")
    bounds = write_range_partitioned(rd.from_pandas(df).repartition(4),
                                     p, "v", n_parts=8)
    assert len(bounds) == 7 and (np.diff(bounds) >= 0).all()
    # disjointness: each partition's values fall inside its boundary slot
    total = 0
    for d in glob.glob(p + "/part=*"):
        part = int(d.split("part=")[1])
        vals = pa.concat_tables(
            [pq.read_table(f) for f in glob.glob(d + "/*.parquet")])["v"] \
            .to_numpy(zero_copy_only=False)
        total += len(vals)
        lo = -np.inf if part == 0 else bounds[part - 1]
        hi = np.inf if part == len(bounds) else bounds[part]
        assert (vals > lo).all() or part == 0
        assert (vals <= hi).all()
    assert total == 2000

    # pruned scan returns exactly the rows in range
    got = read_value_range(p, "v", 100.0, 300.0, bounds).to_pandas()
    exp = df[(df.v >= 100.0) & (df.v <= 300.0)]
    assert len(got) == len(exp)
    assert set(got["id"]) == set(exp["id"])


def test_histogram2d_clamps_edges(ray_session):
    from credit_ocr_backend_ray.stages.relational import histogram2d

    df = pd.DataFrame({
        "x": [-5.0, 0.0, 9.9, 100.0],   # below-range, edge, in, above
        "y": [0.5, 0.5, 0.5, 2.0],
    })
    out = histogram2d(_ds(df), "x", 0.0, 10.0, 2,
                      "y", 0.0, 1.0, 2).to_pandas()
    got = {(r.xbin, r.ybin): r.n for r in out.itertuples()}
    # x: -5 and 0 clamp/fall in bin 0; 9.9 bin 1; 100 clamps to bin 1
    # y: 0.5 -> bin 1 (floor(0.5/0.5)=1); 2.0 clamps to bin 1
    assert got == {(0, 1): 2, (1, 1): 2}


def test_band_self_join_exactly_once_across_buckets(ray_session):
    from credit_ocr_backend_ray.stages.relational import band_self_join

    rng = np.random.default_rng(11)
    t0 = pd.Timestamp("2024-01-01").value // 1000  # us
    # 200 events over ~20 bucket widths, including exact-boundary times
    offs = np.sort(rng.integers(0, 20 * 60_000_000, 196))
    offs = np.concatenate([offs, [0, 60_000_000, 60_000_001,
                                  119_999_999]])
    ev = pd.DataFrame({
        "event_id": range(len(offs)),
        "ts": pd.to_datetime((t0 + offs) * 1000),
    })
    band = 60_000_000  # 1 minute
    out = band_self_join(_ds(ev), "ts", "event_id", band).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    # brute force
    us = ev["ts"].to_numpy("datetime64[us]").astype(np.int64)
    exp = set()
    for i in range(len(ev)):
        for j in range(i + 1, len(ev)):
            if abs(int(us[i]) - int(us[j])) <= band:
                a, b = sorted((i, j))
                exp.add((a, b))
    assert got == exp              # no pair lost across bucket borders
    assert len(out) == len(got)    # and none emitted twice
    assert (out["dt_us"] >= 0).all() and (out["dt_us"] <= band).all()


def test_band_self_join_salted_matches_unsalted(ray_session):
    """Hot-bucket salt path (triangular block cells): identical pair set
    to the unsalted plan, including on a pathological hot instant where
    200 rows share ONE timestamp (the case salting exists for)."""
    from credit_ocr_backend_ray.stages.relational import band_self_join

    rng = np.random.default_rng(13)
    t0 = pd.Timestamp("2024-01-01").value // 1000
    offs = np.concatenate([
        np.sort(rng.integers(0, 10 * 60_000_000, 150)),
        np.full(200, 3 * 60_000_000 + 17),   # hot instant
    ])
    ev = pd.DataFrame({"event_id": range(len(offs)),
                       "ts": pd.to_datetime((t0 + offs) * 1000)})
    band = 60_000_000
    plain = (band_self_join(_ds(ev), "ts", "event_id", band)
             .to_pandas().sort_values(["id_a", "id_b"])
             .reset_index(drop=True))
    salted = (band_self_join(_ds(ev), "ts", "event_id", band, n_salt=4)
              .to_pandas().sort_values(["id_a", "id_b"])
              .reset_index(drop=True))
    pd.testing.assert_frame_equal(plain, salted)
    assert len(plain) >= 200 * 199 // 2  # the hot instant's own pairs


@pytest.mark.parametrize("n", [1500, 6000])
def test_embedding_near_dup_planted_recall_no_truncation(ray_session, caplog,
                                                         n):
    """Scale-aware LSH: bits derives from the corpus count so buckets stay
    under the cap at BOTH corpus sizes (zero truncation warnings), and the
    banded multi-probe recovers every planted near-identical pair."""
    import logging

    import ray.data as rd
    from credit_ocr_backend_ray.stages.similarity import embedding_near_dup

    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((n, 16))
    n_pairs = 20
    rows = [{"vec_id": i, "embedding": v.tolist()}
            for i, v in enumerate(vecs)]
    for j in range(n_pairs):  # planted near-duplicates of the first 20
        rows.append({"vec_id": n + j,
                     "embedding": (vecs[j] + 1e-4).tolist()})
    ds = rd.from_items(rows).repartition(8)

    with caplog.at_level(logging.WARNING,
                         logger="credit_ocr_backend_ray.stages.similarity"):
        pairs = embedding_near_dup(ds, threshold=0.98)
    assert not any("bucket cap" in r.message for r in caplog.records)
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    planted = {(j, n + j) for j in range(n_pairs)}
    assert planted <= found, planted - found


def test_edit1_join_all_three_edit_kinds(ray_session):
    """Blocking recall for every edit kind the Hamming join cannot
    express: substitution, insertion, AND deletion — plus exact-dup
    (dist 0) and a dist-2 pair that must NOT appear."""
    from credit_ocr_backend_ray.stages.dedup import _lev_le1, edit1_join

    assert _lev_le1("abc", "abc") == 0
    assert _lev_le1("abc", "abd") == 1      # substitution
    assert _lev_le1("abc", "abxc") == 1     # insertion
    assert _lev_le1("abc", "ac") == 1       # deletion
    assert _lev_le1("abc", "xyc") == 2      # two substitutions
    assert _lev_le1("abc", "abcde") == 2    # length gap 2

    rows = [
        {"k": 1, "s": "kreditantrag"},
        {"k": 2, "s": "kreditantrag"},    # dist 0 of 1
        {"k": 3, "s": "kreditentrag"},    # substitution of 1
        {"k": 4, "s": "kreditanttrag"},   # insertion into 1
        {"k": 5, "s": "kreditntrag"},     # deletion from 1
        {"k": 6, "s": "darlehen"},        # unrelated
        {"k": 7, "s": "kredituntrug"},    # dist 2 from 1 — excluded
    ]
    import ray.data as rd
    out = (edit1_join(rd.from_items(rows).repartition(4), "k", "s")
           .to_pandas())
    got = {(a, b): d for a, b, d in zip(out["k_a"], out["k_b"],
                                        out["dist"])}
    assert got[(1, 2)] == 0
    assert got[(1, 3)] == 1 and got[(1, 4)] == 1 and got[(1, 5)] == 1
    assert (1, 7) not in got and (1, 6) not in got
    # the planted variants of the SAME base also pair with each other
    # when within one edit: 2 is identical to 1, so 2-3/2-4/2-5 too
    assert got[(2, 3)] == 1 and got[(2, 4)] == 1 and got[(2, 5)] == 1


def test_dedup_exact_sparse_matches_dense_and_shortcircuits(ray_session):
    """The sparse path (key scan -> dup-only shuffle) must agree with the
    unconditional dedup_exact on a mixed corpus, and an all-unique corpus
    must short-circuit: the r5 sf1 run measured 78 s of pure machinery
    (45 s per-key-sort key scan + 33 s empty-block shuffle) on a 400k-page
    corpus with ZERO duplicates before the scan went cogroup and the
    no-collision case returned the input directly."""
    from credit_ocr_backend_ray.stages.dedup import (dedup_exact,
                                                     dedup_exact_sparse)

    rng = np.random.default_rng(7)
    uniq = [f"sha{i:04d}" for i in range(50)]
    dup_clusters = {"dupA": 3, "dupB": 2, "dupC": 4}
    rows = [{"h": h, "u": f"u{i:03d}"} for i, h in enumerate(uniq)]
    i = len(rows)
    for h, k in dup_clusters.items():
        for _ in range(k):
            rows.append({"h": h, "u": f"u{i:03d}"})
            i += 1
    df = pd.DataFrame(rows).sample(frac=1.0, random_state=3)

    sparse = (dedup_exact_sparse(_ds(df).repartition(11), "h", "u")
              .to_pandas().sort_values("h").reset_index(drop=True))
    dense = (dedup_exact(_ds(df).repartition(11), "h", "u")
             .to_pandas().sort_values("h").reset_index(drop=True))
    pd.testing.assert_frame_equal(sparse[["h", "u"]], dense[["h", "u"]])
    assert len(sparse) == 53  # 50 uniques + one winner per cluster
    # deterministic representative: smallest tie_col per cluster
    for h in dup_clusters:
        expect = df.loc[df["h"] == h, "u"].min()
        assert sparse.loc[sparse["h"] == h, "u"].iloc[0] == expect

    # all-unique corpus: every row survives (short-circuit path)
    df_u = pd.DataFrame({"h": uniq, "u": [f"u{i}" for i in range(50)]})
    out = dedup_exact_sparse(_ds(df_u).repartition(7), "h", "u").to_pandas()
    assert sorted(out["h"]) == sorted(uniq)
    assert list(out.columns) == ["h", "u"]


def test_semantic_dedup_planted_neighborhoods(ray_session):
    """SemDeDup contract: planted near-duplicate neighborhoods collapse
    to their smallest id; well-separated vectors all survive; the
    result is deterministic across runs."""
    from credit_ocr_backend_ray.stages.similarity import semantic_dedup

    rng = np.random.default_rng(13)
    base = rng.standard_normal((40, 16))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    vecs = [base[i] for i in range(40)]
    ids = list(range(40))
    # plant: ids 100/101 are tiny perturbations of id 0 (cos ~ 0.999);
    # id 200 perturbs id 7
    for new, src in ((100, 0), (101, 0), (200, 7)):
        v = base[src] + 0.01 * rng.standard_normal(16)
        vecs.append(v / np.linalg.norm(v))
        ids.append(new)
    df = pd.DataFrame({"vec_id": ids,
                       "embedding": [v.astype(np.float32).tolist()
                                     for v in vecs]})

    out1 = semantic_dedup(_ds(df), threshold=0.95, nlist=4, iters=2) \
        .to_pandas()
    kept = set(out1["vec_id"])
    assert {100, 101, 200}.isdisjoint(kept)  # planted dups pruned
    assert {0, 7}.issubset(kept)             # smallest ids survive
    # random unit vectors in 16-d are far below cos 0.95 of each other
    assert kept == set(range(40))

    out2 = semantic_dedup(_ds(df), threshold=0.95, nlist=4, iters=2) \
        .to_pandas()
    assert sorted(out2["vec_id"]) == sorted(out1["vec_id"])


def test_semantic_dedup_cluster_cap_raises(ray_session):
    from credit_ocr_backend_ray.stages.similarity import semantic_dedup

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "vec_id": range(30),
        "embedding": [rng.standard_normal(8).tolist() for _ in range(30)],
    })
    with pytest.raises(Exception, match="cluster_cap"):
        semantic_dedup(_ds(df), nlist=1, iters=1,
                       cluster_cap=10).to_pandas()


def test_doc_importance_targets_score_higher(ray_session):
    """DSIR semantics: documents sharing the target slice's vocabulary
    score higher than off-target documents; scores are integer
    micro-nats and deterministic."""
    from credit_ocr_backend_ray.stages.curate import doc_importance

    rows = []
    for i in range(10):   # target slice: vocabulary A
        rows.append({"doc_id": i, "source": "tgt",
                     "text": "alpha beta gamma delta"})
    for i in range(10, 20):  # raw slice 1: same vocabulary A
        rows.append({"doc_id": i, "source": "raw1",
                     "text": "alpha beta gamma delta"})
    for i in range(20, 30):  # raw slice 2: disjoint vocabulary B
        rows.append({"doc_id": i, "source": "raw2",
                     "text": "omega sigma tau upsilon"})
    rows.append({"doc_id": 99, "source": "raw1", "text": "   "})
    df = pd.DataFrame(rows)

    out = doc_importance(_ds(df), target_source="tgt") \
        .to_pandas().set_index("doc_id")
    assert 99 not in out.index            # no-token doc excluded
    assert len(out) == 30
    assert str(out["importance_micro"].dtype) == "int64"
    # every vocabulary-A doc outscores every vocabulary-B doc
    a = out.loc[list(range(20)), "importance_micro"]
    b = out.loc[list(range(20, 30)), "importance_micro"]
    assert a.min() > b.max()
    # same text -> identical integer score (order-independent sum)
    assert a.nunique() == 1 and b.nunique() == 1


def test_embedding_pca_matches_direct(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.similarity import embedding_pca

    rng = np.random.default_rng(3)
    # anisotropic cloud so component order is unambiguous
    base = rng.normal(size=(240, 6)) * np.array([9, 5, 2, 1, 0.5, 0.1])
    rot = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    x = base @ rot + rng.normal(size=6)
    df = pd.DataFrame({"vec_id": np.arange(240, dtype=np.int64),
                       "embedding": [r.astype(np.float32) for r in x]})
    k = 3
    out = (embedding_pca(rd.from_pandas(df).repartition(5), k=k)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))

    # direct single-process PCA with the same sign convention
    xf = np.stack([np.asarray(v, np.float64) for v in df["embedding"]])
    mu = xf.mean(axis=0)
    cov = (xf - mu).T @ (xf - mu) / len(xf)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    comps = v[:, order]
    flip = np.sign(comps[np.abs(comps).argmax(axis=0), np.arange(k)])
    comps = comps * flip
    want = (xf - mu) @ comps

    got = out[[f"pc_{j}" for j in range(k)]].to_numpy()
    assert np.allclose(got, want, atol=2e-5)
    # projected variance tracks the top eigenvalues, in order
    ev = np.sort(w)[::-1][:k]
    assert np.allclose(got.var(axis=0), ev, rtol=1e-3)
    assert ev[0] > ev[1] > ev[2]


def test_contrastive_pairs_brute_force(ray_session):
    import hashlib

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.similarity import contrastive_pairs

    rng = np.random.default_rng(5)
    n = 120
    labels = np.concatenate([rng.integers(0, 3, n - 1), [7]])  # 7: single
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "label": labels.astype(np.int64)})
    out = (contrastive_pairs(rd.from_pandas(df).repartition(4))
           .to_pandas().sort_values("vec_id").reset_index(drop=True))

    # brute force on the ring
    h = df["vec_id"].map(lambda i: int.from_bytes(
        hashlib.md5(str(i).encode()).digest()[:4], "big"))
    rk = (h.to_numpy(np.uint64) << np.uint64(32)) \
        | df["vec_id"].to_numpy(np.uint64)
    o = df.assign(rk=rk)
    ls = sorted(o["label"].unique())
    succ = {l: ls[(i + 1) % len(ls)] for i, l in enumerate(ls)}

    want = []
    for _, a in o.iterrows():
        same = o[(o["label"] == a["label"])
                 & (o["vec_id"] != a["vec_id"])]
        if same.empty:
            continue  # single-member label: no anchor
        aft = same[same["rk"] > a["rk"]].sort_values("rk")
        pos = int((aft if not aft.empty
                   else same.sort_values("rk")).iloc[0]["vec_id"])
        cand = o[o["label"] == succ[a["label"]]]
        aft = cand[cand["rk"] > a["rk"]].sort_values("rk")
        neg = int((aft if not aft.empty
                   else cand.sort_values("rk")).iloc[0]["vec_id"])
        want.append((int(a["vec_id"]), int(a["label"]), pos, neg))
    w = pd.DataFrame(want, columns=["vec_id", "label", "pos_id",
                                    "neg_id"])
    assert out["vec_id"].tolist() == w["vec_id"].tolist()
    assert out["pos_id"].tolist() == w["pos_id"].tolist()
    assert out["neg_id"].tolist() == w["neg_id"].tolist()
    # the single-member label appears as a negative pool, not an anchor
    assert 7 not in set(out["label"])
    prev = ls[ls.index(7) - 1]
    assert (out.loc[out["label"] == prev, "neg_id"] == n - 1).all()


def test_knn_recall_full_probe_is_exact(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.similarity import knn_recall

    rng = np.random.default_rng(13)
    n, dim = 400, 16
    df = pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": [r.astype(np.float32)
                      for r in rng.normal(size=(n, dim))],
    })
    q = rng.normal(size=(3, dim))
    ds = rd.from_pandas(df).repartition(4)

    # probing every list makes IVF exhaustive -> recall exactly 1
    full = knn_recall(ds, q, k=10, nlist=8, nprobe=8)
    assert full["recall_micro"].tolist() == [1_000_000] * 3
    assert full["n_hit"].tolist() == [10] * 3

    # a 1-of-8 probe must lose SOME neighbors on gaussian data
    part = knn_recall(ds, q, k=10, nlist=8, nprobe=1)
    assert (part["recall_micro"] < 1_000_000).any()
    assert (part["n_hit"] <= 10).all() and (part["n_hit"] >= 0).all()


def test_knn_rank_eval_invariants(ray_session):
    import math

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.similarity import knn_rank_eval

    rng = np.random.default_rng(13)
    n, dim = 400, 16
    df = pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": [r.astype(np.float32)
                      for r in rng.normal(size=(n, dim))],
    })
    q = rng.normal(size=(3, dim))
    ds = rd.from_pandas(df).repartition(4)

    # exhaustive probe: every position relevant -> NDCG = MRR = 1.0
    full = knn_rank_eval(ds, q, k=10, nlist=8, nprobe=8)
    assert full["ndcg_micro"].tolist() == [1_000_000] * 3
    assert full["mrr_micro"].tolist() == [1_000_000] * 3
    assert full["n_hit"].tolist() == [10] * 3

    # 1-of-8 probe loses neighbors; metrics stay in [0, 1e6] and NDCG
    # must dominate plain hit-fraction only via position weighting —
    # cross-check one query against a direct restatement
    part = knn_rank_eval(ds, q, k=10, nlist=8, nprobe=1)
    assert (part["ndcg_micro"] <= 1_000_000).all()
    assert (part["ndcg_micro"] >= 0).all()
    assert (part["n_hit"] < 10).any()
    w = [int(1_000_000 // math.log2(i + 1)) for i in range(1, 11)]
    # a query with h hits all in the TOP h positions would hit the
    # max possible ndcg for that h; verify the bound holds
    for r in part.itertuples(index=False):
        best = sum(w[:r.n_hit]) * 1_000_000 // sum(w[:10])
        assert r.ndcg_micro <= best
        if r.n_hit:
            assert r.mrr_micro >= 1_000_000 // 10
        else:
            assert r.mrr_micro == 0
