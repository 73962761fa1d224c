"""Relational building blocks added beyond the reference's operator set:
shuffle join, grouped stats, top-k per group, sessionization, as-of join,
distinct — plus the n-gram-Jaccard and IVF scale additions.

Each test is a small in-memory fixture with a hand-computable expected
result; the sf0.01 DuckDB oracle cross-check runs via
tools/check_correctness.py (driver contract).
"""

import numpy as np
import pandas as pd
import pytest


def _ds(df):
    import ray.data as rd
    return rd.from_pandas(df)


def _sql(query, **tables):
    """Run ``query`` in DuckDB over the given pandas frames."""
    import duckdb
    con = duckdb.connect()
    for name, frame in tables.items():
        con.register(name, frame)
    return con.execute(query).df()


def _rows(frame, cols):
    """Rows of ``cols`` as tuples, nulls as None, in one total order."""
    rows = [tuple(None if pd.isna(v) else v for v in r)
            for r in frame[cols].itertuples(index=False)]
    return sorted(rows, key=lambda r: [(v is None, v if v is not None
                                        else 0) for v in r])


def _assert_close_rows(got, want, key, cols):
    """Same key set (a null key included) and values within 1e-9."""
    got, want = _rows(got, [key, *cols]), _rows(want, [key, *cols])
    assert [r[0] for r in got] == [r[0] for r in want]
    for g, w in zip(got, want):
        assert g[1:] == pytest.approx(w[1:], abs=1e-9, nan_ok=True)


def test_shuffle_join_inner(ray_session):
    from credit_ocr_backend_ray.stages.relational import shuffle_join

    left = pd.DataFrame({"k": [1, 2, 3, 3], "a": [10, 20, 30, 31]})
    right = pd.DataFrame({"rk": [2, 3, 4], "b": ["x", "y", "z"]})
    out = (shuffle_join(_ds(left), _ds(right), on="k", right_on="rk",
                        num_partitions=2)
           .to_pandas().sort_values(["k", "a"]).reset_index(drop=True))
    assert out[["k", "a", "b"]].values.tolist() == [
        [2, 20, "x"], [3, 30, "y"], [3, 31, "y"]]


def test_grouped_agg_null_string_key(ray_session):
    """A null string key is one group that comes back as None in a string
    column, as DuckDB's GROUP BY does, whatever the input blocks."""
    import pyarrow as pa

    from credit_ocr_backend_ray.stages.relational import grouped_agg

    df = pd.DataFrame({"s": ["a", None, "b", None, "a"],
                       "v": [1, 2, 3, 4, 5]})
    out = grouped_agg(_ds(df).repartition(3), ["s"], {"v": "sum_v"})
    assert out.schema().base_schema.field("s").type == pa.string()
    got = out.to_pandas()
    assert None in got["s"].tolist()
    want = _sql("SELECT s, sum(v) AS sum_v, count(*) AS n FROM t "
                "GROUP BY s", t=df)
    cols = ["s", "sum_v", "n"]
    assert _rows(got, cols) == _rows(want, cols)


def test_grouped_stats(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_stats

    cols = ["g", "sum_v", "n", "min_v", "max_v", "avg_v"]
    # the second input has a null-key group, kept as one group
    for g in (["a", "a", "b", "a", "b"], ["a", None, "b", None, "a"]):
        df = pd.DataFrame({"g": g, "v": [1.0, 3.0, 10.0, 2.0, 30.0]})
        out = grouped_stats(_ds(df).repartition(2), ["g"], "v").to_pandas()
        want = _sql("SELECT g, sum(v) AS sum_v, count(*) AS n, "
                    "min(v) AS min_v, max(v) AS max_v, avg(v) AS avg_v "
                    "FROM t GROUP BY g", t=df)
        assert _rows(out, cols) == _rows(want, cols), g


def test_topk_per_group_deterministic_ties(ray_session):
    from credit_ocr_backend_ray.stages.relational import topk_per_group

    df = pd.DataFrame({"g": ["a"] * 4 + ["b"] * 2,
                       "score": [5.0, 5.0, 4.0, 6.0, 1.0, 2.0],
                       "id": [4, 2, 1, 3, 9, 8]})
    out = (topk_per_group(_ds(df), "g", ["score", "id"], k=2,
                          ascending=[False, True])
           .to_pandas().sort_values(["g", "score", "id"],
                                    ascending=[True, False, True]))
    # group a: 6.0(id 3) then the 5.0 tie broken by smaller id (2)
    assert out[out.g == "a"]["id"].tolist() == [3, 2]
    assert out[out.g == "b"]["id"].tolist() == [8, 9]


def test_sessionize_gap_split(ray_session):
    from credit_ocr_backend_ray.stages.relational import sessionize

    t0 = pd.Timestamp("2024-01-01")
    df = pd.DataFrame({
        "u": [1, 1, 1, 2],
        "eid": [1, 2, 3, 4],
        "ts": [t0, t0 + pd.Timedelta("10min"), t0 + pd.Timedelta("2h"),
               t0],
        "v": [1.0, 2.0, 4.0, 8.0],
    })
    out = (sessionize(_ds(df), "u", "ts", gap_s=3600, tie_col="eid",
                      value_col="v")
           .to_pandas().sort_values(["u", "session_id"]).reset_index(drop=True))
    # user 1: events 1,2 in session 0 (10min gap), event 3 alone (110min gap)
    assert out[out.u == 1]["n_events"].tolist() == [2, 1]
    assert out[out.u == 1]["sum_value"].tolist() == [3.0, 4.0]
    assert out[out.u == 2]["n_events"].tolist() == [1]
    assert out.loc[0, "session_start"] == t0
    assert out.loc[0, "session_end"] == t0 + pd.Timedelta("10min")


def test_asof_join_backward(ray_session):
    from credit_ocr_backend_ray.stages.relational import asof_join

    left = pd.DataFrame({
        "k": [1, 1, 2, 3],
        "lts": pd.to_datetime(["2024-01-05", "2024-01-20", "2024-01-05",
                               "2024-01-05"]),
        "eid": [100, 101, 102, 103],
    })
    right = pd.DataFrame({
        "rk": [1, 1, 1, 2],
        "rts": pd.to_datetime(["2024-01-01", "2024-01-10", "2024-01-10",
                               "2024-02-01"]),
        "oid": [7, 8, 9, 10],
    })
    out = (asof_join(_ds(left), _ds(right), left_key="k", right_key="rk",
                     left_ts="lts", right_ts="rts",
                     left_cols=["eid"], right_cols=["oid", "rts"])
           .to_pandas().sort_values("eid").reset_index(drop=True))
    # eid 100 -> oid 7 (only right row <= 01-05); eid 101 -> max-id tie row
    # of 01-10 (oid 9); eid 102: right ts 02-01 is AFTER -> dropped (inner);
    # eid 103: key 3 has no right rows -> dropped
    assert out["eid"].tolist() == [100, 101]
    assert out["oid"].tolist() == [7, 9]

    # equal keys share a shard when the key columns differ in width
    n = 200
    left = pd.DataFrame({"k": np.arange(n, dtype=np.int64),
                         "lts": pd.Timestamp("2024-01-02"),
                         "eid": np.arange(n)})
    right = pd.DataFrame({"rk": np.arange(n, dtype=np.int32),
                          "rts": pd.Timestamp("2024-01-01"),
                          "oid": np.arange(n)})
    out = asof_join(_ds(left), _ds(right), left_key="k", right_key="rk",
                    left_ts="lts", right_ts="rts", left_cols=["eid"],
                    right_cols=["oid"]).to_pandas()
    assert sorted(out["oid"].tolist()) == list(range(n))


def test_distinct(ray_session):
    from credit_ocr_backend_ray.stages.relational import distinct

    df = pd.DataFrame({"a": [1, 1, 2, 2, 2], "b": ["x", "x", "y", "y", "z"]})
    out = (distinct(_ds(df), ["a", "b"])
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    assert out.values.tolist() == [[1, "x"], [2, "y"], [2, "z"]]


def test_ngram_jaccard_pairs_recall_and_exactness(ray_session):
    from credit_ocr_backend_ray.functions.hashing import jaccard
    from credit_ocr_backend_ray.stages.dedup import ngram_jaccard_pairs

    base = ("der schnelle braune fuchs springt über den faulen hund "
            "und läuft weiter durch den dunklen wald nach hause").split()
    docs = []
    for i in range(20):
        words = [f"doc{i}w{k}" for k in range(25)]
        docs.append((i, " ".join(words)))
    # plant near-dup: doc 100 = doc 0's text minus last word
    docs.append((100, docs[0][1].rsplit(" ", 1)[0]))
    docs.append((101, " ".join(base)))
    docs.append((102, " ".join(base[:-1])))
    df = pd.DataFrame(docs, columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(_ds(df), threshold=0.8)
    got = set(zip(out["id_a"], out["id_b"]))
    assert (0, 100) in got and (101, 102) in got
    # reported jaccard is the exact value
    row = out[(out.id_a == 0) & (out.id_b == 100)].iloc[0]
    assert row["jaccard"] == pytest.approx(
        jaccard(docs[0][1], docs[20][1]), abs=1e-12)
    # no false positives: every reported pair really is >= threshold
    texts = dict(docs)
    for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"]):
        assert jaccard(texts[a], texts[b]) >= 0.8 and j >= 0.8


def test_knn_ivf_matches_bruteforce_on_probed_lists(ray_session):
    from credit_ocr_backend_ray.stages.similarity import knn_bruteforce, knn_ivf

    rng = np.random.default_rng(7)
    # 4 well-separated clusters so IVF with nprobe=2 has perfect recall
    # for queries at cluster centers
    centers = np.eye(4, 8) * 10
    vecs, ids = [], []
    for c in range(4):
        for j in range(50):
            ids.append(c * 50 + j)
            vecs.append(centers[c] + rng.normal(0, 0.1, 8))
    df = pd.DataFrame({"vec_id": ids,
                       "embedding": [v.tolist() for v in vecs]})
    queries = np.stack([centers[0], centers[2]])
    bf = knn_bruteforce(_ds(df), queries, k=5)
    ivf = knn_ivf(_ds(df), queries, k=5, nlist=8, nprobe=2, train_ids=200)
    assert bf[["query_id", "vec_id"]].values.tolist() == \
        ivf[["query_id", "vec_id"]].values.tolist()


def test_knn_ivf_persisted_matches_in_memory(ray_session, tmp_path):
    """The persisted layout (partition dirs per inverted list + manifest
    centroids) must return the in-memory knn_ivf result exactly, while
    reading only the probed list_id partitions."""
    import os
    from credit_ocr_backend_ray.stages.similarity import (
        ivf_index_write, knn_ivf, knn_ivf_persisted)

    rng = np.random.default_rng(11)
    centers = np.eye(4, 8) * 10
    rows = [{"vec_id": c * 60 + j,
             "embedding": (centers[c] + rng.normal(0, 0.1, 8)).tolist()}
            for c in range(4) for j in range(60)]
    df = pd.DataFrame(rows)
    queries = np.stack([centers[1], centers[3]])
    idx = str(tmp_path / "ivf")
    man = ivf_index_write(_ds(df), idx, nlist=8, train_ids=240)
    assert man["nlist"] == 8 and man["n_files"] > 0
    per = knn_ivf_persisted(idx, queries, k=5, nprobe=2)
    mem = knn_ivf(_ds(df), queries, k=5, nlist=8, nprobe=2, train_ids=240)
    pd.testing.assert_frame_equal(per.reset_index(drop=True),
                                  mem.reset_index(drop=True))
    # the prune is real: fewer list dirs than nlist are ever opened
    n_dirs = len([d for d in os.listdir(idx) if d.startswith("list_id=")])
    assert n_dirs == 8


def test_grouped_quantile_linear_interp(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_quantile

    df = pd.DataFrame({"g": ["a"] * 4 + ["b"] * 3,
                       "v": [1.0, 2.0, 3.0, 10.0, 5.0, 7.0, 9.0]})
    out = (grouped_quantile(_ds(df), ["g"], "v", 0.5, alias="med")
           .to_pandas().sort_values("g").reset_index(drop=True))
    assert out.loc[0, "med"] == 2.5   # even count -> linear midpoint
    assert out.loc[1, "med"] == 7.0   # odd count -> middle value


def test_histogram_clamps_edges(ray_session):
    from credit_ocr_backend_ray.stages.relational import histogram

    df = pd.DataFrame({"v": [-5.0, 0.0, 9.9, 10.0, 25.0, 99.9, 100.0, 140.0]})
    out = (histogram(_ds(df), "v", lo=0.0, hi=100.0, n_bins=10)
           .to_pandas().set_index("bucket")["n"].to_dict())
    # -5 clamps into bucket 0; 100 and 140 clamp into bucket 9
    assert out[0] == 3   # -5.0, 0.0, 9.9
    assert out[1] == 1   # 10.0
    assert out[2] == 1   # 25.0
    assert out[9] == 3   # 99.9, 100.0, 140.0


def test_running_sum_and_lag_delta(ray_session):
    from credit_ocr_backend_ray.stages.relational import lag_delta, running_sum

    df = pd.DataFrame({
        "k": [1, 1, 1, 2],
        "o": [3, 1, 2, 1],
        "id": [30, 10, 20, 40],
        "v": [5.0, 1.0, 2.0, 7.0],
    })
    rs = (running_sum(_ds(df), "k", ["o", "id"], "v")
          .to_pandas().sort_values(["k", "o"]).reset_index(drop=True))
    assert rs["running_total"].tolist() == [1.0, 3.0, 8.0, 7.0]

    ld = (lag_delta(_ds(df), "k", ["o", "id"], "v")
          .to_pandas().sort_values(["k", "o"]).reset_index(drop=True))
    deltas = ld["delta"].tolist()
    assert pd.isna(deltas[0]) and deltas[1] == 1.0 and deltas[2] == 3.0
    assert pd.isna(deltas[3])


def test_hopping_window_membership(ray_session):
    from credit_ocr_backend_ray.stages.relational import hopping_window_agg

    # one event at 01:10 with size=1h hop=15m -> windows 00:15..01:00
    df = pd.DataFrame({
        "ts": [pd.Timestamp("2024-01-01 01:10:00")],
        "g": ["x"],
        "v": [2.0],
    })
    out = (hopping_window_agg(_ds(df), "ts", ["g"], 3600, 900, {"v": "s"})
           .to_pandas().sort_values("window_start").reset_index(drop=True))
    starts = [str(t) for t in out["window_start"]]
    assert starts == ["2024-01-01 00:15:00", "2024-01-01 00:30:00",
                      "2024-01-01 00:45:00", "2024-01-01 01:00:00"]
    assert (out["s"] == 2.0).all() and (out["n"] == 1).all()


def test_hopping_window_high_fanout_stress(ray_session):
    """size=1h / hop=1min (k=60): the de-amplified combiner shape must
    match a direct explode-then-groupby reference without ever shipping
    rows x 60 across the shuffle (partials are granule x key bounded)."""
    from credit_ocr_backend_ray.stages.relational import hopping_window_agg

    rng = np.random.default_rng(7)
    n = 5000
    base = pd.Timestamp("2024-03-01").value // 1000  # us
    us = base + rng.integers(0, 6 * 3600, n) * 1_000_000
    df = pd.DataFrame({
        "ts": pd.to_datetime(us, unit="us"),
        "g": rng.choice(["a", "b", "c"], n),
        "v": rng.integers(1, 100, n).astype("float64"),
    })

    out = (hopping_window_agg(_ds(df), "ts", ["g"], 3600, 60, {"v": "s"})
           .to_pandas().sort_values(["window_start", "g"])
           .reset_index(drop=True))

    # direct reference: explode every row into its 60 windows, groupby
    hop_us, size_us = 60 * 1_000_000, 3600 * 1_000_000
    frames = []
    for j in range(60):
        off = j * hop_us
        ws = (us - off) // size_us * size_us + off
        frames.append(pd.DataFrame({
            "window_start": pd.to_datetime(ws, unit="us"),
            "g": df["g"], "v": df["v"]}))
    ref = (pd.concat(frames).groupby(["window_start", "g"], as_index=False)
           .agg(s=("v", "sum"), n=("v", "size"))
           .sort_values(["window_start", "g"]).reset_index(drop=True))

    assert len(out) == len(ref)
    pd.testing.assert_frame_equal(
        out[["window_start", "g", "s", "n"]].astype({"n": "int64"}),
        ref.astype({"n": "int64"}), check_dtype=False)


def test_broadcast_anti_join(ray_session):
    from credit_ocr_backend_ray.stages.relational import broadcast_anti_join

    df = pd.DataFrame({"k": [1, 2, 3, 4], "v": list("abcd")})
    out = (broadcast_anti_join(_ds(df), {2, 4}, on="k")
           .to_pandas().sort_values("k"))
    assert out["k"].tolist() == [1, 3]


def test_grouped_count_distinct(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_count_distinct

    # SQL count(DISTINCT v): a NULL is no value, and a group whose
    # values are all NULL keeps its row with 0 (as DuckDB)
    df = pd.DataFrame({"g": ["a", "a", "a", "a", "b", "b", "c", "c"],
                       "v": pd.array([1, 1, 2, None, 7, 7, None, None],
                                     dtype="Int64")})
    out = (grouped_count_distinct(_ds(df), ["g"], "v", alias="nd")
           .to_pandas().sort_values("g").reset_index(drop=True))
    assert out["g"].tolist() == ["a", "b", "c"]
    assert out["nd"].tolist() == [2, 1, 0]


def test_broadcast_semi_join(ray_session):
    from credit_ocr_backend_ray.stages.relational import broadcast_semi_join

    df = pd.DataFrame({"k": [1, 2, 3, 4], "v": ["a", "b", "c", "d"]})
    out = (broadcast_semi_join(_ds(df), {2, 4, 9}, on="k")
           .to_pandas().sort_values("k"))
    assert out["v"].tolist() == ["b", "d"]


def test_set_op_intersect_and_except(ray_session):
    from credit_ocr_backend_ray.stages.relational import set_op

    cases = [([1, 1, 2, 3], [2, 3, 3, 4]),
             (["x", None, "y", None], [None, "y", "z"]),  # NULL both sides
             (["x", None], ["x"])]                        # NULL only in a
    for ka, kb in cases:
        a, b = pd.DataFrame({"k": ka}), pd.DataFrame({"k": kb})
        for op in ("intersect", "except"):
            got = (set_op(_ds(a).repartition(2), _ds(b), ["k"], op)
                   .to_pandas())
            want = _sql(f"SELECT k FROM a {op.upper()} SELECT k FROM b",
                        a=a, b=b)
            assert _rows(got, ["k"]) == _rows(want, ["k"]), (ka, kb, op)
    with pytest.raises(ValueError):
        set_op(_ds(a), _ds(b), ["k"], "union")


def test_pivot_sum(ray_session):
    from credit_ocr_backend_ray.stages.relational import pivot_sum

    df = pd.DataFrame({"u": [1, 1, 1, 2],
                       "t": ["x", "y", "x", "y"],
                       "v": [1.0, 2.0, 3.0, 4.0]})
    out = (pivot_sum(_ds(df), ["u"], "t", "v", ["x", "y"])
           .to_pandas().sort_values("u").reset_index(drop=True))
    assert out["sum_x"].tolist() == [4.0, 0.0]
    assert out["sum_y"].tolist() == [2.0, 4.0]


def test_range_join_broadcast(ray_session):
    from credit_ocr_backend_ray.stages.relational import range_join_broadcast

    bands = pd.DataFrame({"band": ["lo", "hi"],
                          "lo": [0.0, 10.0], "hi": [10.0, 20.0]})
    df = pd.DataFrame({"x": [-1.0, 0.0, 9.99, 10.0, 19.9, 20.0]})
    out = range_join_broadcast(_ds(df), bands, "x").to_pandas()
    # -1 and 20 drop (outside); boundaries are half-open [lo, hi)
    assert out["x"].tolist() == [0.0, 9.99, 10.0, 19.9]
    assert out["band"].tolist() == ["lo", "lo", "hi", "hi"]
    with pytest.raises(ValueError):
        range_join_broadcast(_ds(df), pd.DataFrame(
            {"band": ["a", "b"], "lo": [0.0, 5.0], "hi": [6.0, 9.0]}), "x")


def test_grouped_corr_matches_numpy(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_corr

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"g": ["a"] * 50 + ["b"] * 50,
                       "x": rng.normal(10, 2, 100),
                       "y": rng.normal(5, 1, 100)})
    df.loc[df.g == "b", "y"] = df.loc[df.g == "b", "x"] * 2 + 1  # corr=1
    out = (grouped_corr(_ds(df), ["g"], "x", "y")
           .to_pandas().sort_values("g").reset_index(drop=True))
    exp_a = np.corrcoef(df[df.g == "a"]["x"], df[df.g == "a"]["y"])[0, 1]
    assert abs(out.loc[0, "corr"] - exp_a) < 1e-9
    assert abs(out.loc[1, "corr"] - 1.0) < 1e-9

    # a null-key group is one group and a row with a null x drops, as in
    # DuckDB
    df.loc[::7, "g"] = None
    df.loc[::11, "x"] = None
    out = grouped_corr(_ds(df).repartition(3), ["g"], "x", "y").to_pandas()
    want = _sql("SELECT g, corr(y, x) AS corr FROM t GROUP BY g", t=df)
    _assert_close_rows(out, want, "g", ["corr"])


def test_grouped_multi_quantile(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_multi_quantile

    df = pd.DataFrame({"g": ["a"] * 5, "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    out = grouped_multi_quantile(_ds(df), ["g"], "v",
                                 {"p25": 0.25, "p50": 0.5}).to_pandas()
    assert out.loc[0, "p25"] == 2.0 and out.loc[0, "p50"] == 3.0


def test_ntile_uneven_buckets(ray_session):
    from credit_ocr_backend_ray.stages.relational import ntile

    df = pd.DataFrame({"g": ["a"] * 5, "v": [10, 20, 30, 40, 50],
                       "id": [1, 2, 3, 4, 5]})
    out = (ntile(_ds(df), "g", ["v", "id"], 3)
           .to_pandas().sort_values("v"))
    # 5 rows / 3 tiles -> sizes 2,2,1 (first tiles take the extras)
    assert out["tile"].tolist() == [1, 1, 2, 2, 3]


def test_deterministic_sample_stability(ray_session):
    from credit_ocr_backend_ray.stages.relational import deterministic_sample

    df = pd.DataFrame({"k": list(range(1000))})
    out1 = set(deterministic_sample(_ds(df), "k", 0.2).to_pandas()["k"])
    out2 = set(deterministic_sample(
        _ds(df.sample(frac=1.0, random_state=1)), "k", 0.2)
        .to_pandas()["k"])
    assert out1 == out2                      # order/partition independent
    assert 120 <= len(out1) <= 280           # ~20%
    sub = set(deterministic_sample(_ds(df), "k", 0.1).to_pandas()["k"])
    assert sub <= out1                       # nested fractions


def test_mode_per_key_tie_breaks_smallest(ray_session):
    from credit_ocr_backend_ray.stages.relational import mode_per_key

    df = pd.DataFrame({"u": [1, 1, 1, 2, 2],
                       "t": ["b", "a", "a", "z", "y"]})
    out = (mode_per_key(_ds(df), "u", "t", alias="m")
           .to_pandas().sort_values("u").reset_index(drop=True))
    assert out["m"].tolist() == ["a", "y"]   # u=2 ties 1-1 -> smaller value
    assert out["n"].tolist() == [2, 1]


def test_asof_join_forward(ray_session):
    from credit_ocr_backend_ray.stages.relational import asof_join

    left = pd.DataFrame({
        "k": [1, 1, 1, 2],
        "lts": pd.to_datetime(["2024-01-01", "2024-01-05", "2024-02-01",
                               "2024-01-01"]).astype("datetime64[us]"),
        "lid": [10, 11, 12, 20]})
    right = pd.DataFrame({
        "k": [1, 1, 2],
        "rts": pd.to_datetime(["2024-01-03", "2024-01-05",
                               "2023-12-01"]).astype("datetime64[us]"),
        "rid": [100, 101, 200]})
    out = (asof_join(_ds(left), _ds(right), "k", "k", "lts", "rts",
                     ["lid"], ["rid"], direction="forward")
           .to_pandas().sort_values("lid").reset_index(drop=True))
    # lid=10 -> first rts >= 01-01 is 01-03 (rid 100); lid=11 exact match
    # 01-05 (rid 101); lid=12 has no later right row -> drops; k=2's only
    # right row is earlier -> drops
    assert out["lid"].tolist() == [10, 11]
    assert out["rid"].tolist() == [100, 101]


def test_approx_count_distinct_accuracy(ray_session):
    from credit_ocr_backend_ray.stages.sketch import approx_count_distinct

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": ["small"] * 2000 + ["big"] * 8000,
        "v": np.concatenate([rng.integers(0, 100, 2000),      # ~100 distinct
                             rng.integers(0, 50_000, 8000)]),  # ~7350 distinct
    })
    out = (approx_count_distinct(_ds(df), ["g"], "v", alias="ad")
           .to_pandas().set_index("g")["ad"])
    exact = df.groupby("g")["v"].nunique()
    for g in ("small", "big"):
        rel = abs(out[g] - exact[g]) / exact[g]
        assert rel < 0.05, (g, out[g], exact[g])


def test_top_terms_combiner(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.text import top_terms

    df = pd.DataFrame({"text": ["a b b", "  b a\t c ", None, "", "c b"]})
    out = top_terms(rd.from_pandas(df), k=2).to_pandas()
    assert out["token"].tolist() == ["b", "a"]  # b=4; a=2 ties c=2 -> 'a'
    assert out["n"].tolist() == [4, 2]


def test_token_frequency_spectrum(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.text import token_frequency_spectrum

    # b appears 4x, a 2x, c 2x, d 1x -> spectrum: c=4 has 1 token,
    # c=2 has 2 tokens, c=1 has 1 token. Split across blocks so both
    # combiner rounds actually merge cross-batch partials.
    df = pd.DataFrame({"text": ["a b b", "  b a\t c ", None, "", "c b d"]})
    ds = rd.from_pandas(df).repartition(3)
    out = (token_frequency_spectrum(ds).to_pandas()
           .sort_values("occurrences").reset_index(drop=True))
    assert out["occurrences"].tolist() == [1, 2, 4]
    assert out["n_tokens"].tolist() == [1, 2, 1]


def test_corpus_overlap_planted(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.dedup import corpus_overlap

    # "dup" appears in A and B (shared for both); "x" twice inside A only
    # (1 distinct text, not shared); "y" only in B.
    df = pd.DataFrame({
        "text": ["dup", "x", "x", "dup", "y"],
        "source": ["A", "A", "A", "B", "B"],
    })
    out = (corpus_overlap(rd.from_pandas(df).repartition(3)).to_pandas()
           .sort_values("source").reset_index(drop=True))
    assert out["source"].tolist() == ["A", "B"]
    assert out["n_texts"].tolist() == [2, 2]
    assert out["n_shared"].tolist() == [1, 1]


def test_hash_split_deterministic(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.relational import hash_split

    df = pd.DataFrame({"doc_id": list(range(500))})
    a = (hash_split(rd.from_pandas(df), "doc_id").to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (hash_split(rd.from_pandas(df).repartition(7), "doc_id")
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # stable under repartitioning, roughly 80/10/10, all three present
    assert a["split"].tolist() == b["split"].tolist()
    frac = a["split"].value_counts(normalize=True)
    assert 0.7 < frac["train"] < 0.9
    assert set(a["split"]) == {"train", "val", "test"}


def test_rollup_agg_levels(ray_session):
    from credit_ocr_backend_ray.stages.relational import rollup_agg

    df = pd.DataFrame({"a": ["x", "x", "y"], "b": ["1", "2", "1"],
                       "v": [10.0, 20.0, 5.0]})
    out = rollup_agg(_ds(df), ["a", "b"], {"v": "sum_v"}).to_pandas()
    finest = out.dropna(subset=["a", "b"]).sort_values(["a", "b"])
    assert finest["sum_v"].tolist() == [10.0, 20.0, 5.0]
    mid = out[out["a"].notna() & out["b"].isna()].sort_values("a")
    assert mid["sum_v"].tolist() == [30.0, 5.0]
    assert mid["n"].tolist() == [2, 1]
    total = out[out["a"].isna()]
    assert len(total) == 1
    assert total["sum_v"].iloc[0] == 35.0 and total["n"].iloc[0] == 3


def test_grouped_concat_ordered(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_concat

    df = pd.DataFrame({"k": [1, 1, 1, 2], "o": [3, 1, 2, 9],
                       "id": [30, 10, 20, 90],
                       "v": ["c", "a", "b", "z"]})
    out = (grouped_concat(_ds(df), "k", ["o", "id"], "v", alias="h")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["h"].tolist() == ["a,b,c", "z"]
    assert out["h_n"].tolist() == [3, 1]


def test_approx_quantile_error_bound(ray_session):
    from credit_ocr_backend_ray.stages.sketch import approx_quantile

    rng = np.random.default_rng(11)
    # continuous support: the sketch's error is bounded by bin width ONLY
    # where the quantile function is continuous (a density gap at the
    # quantile makes any value in the gap a valid answer)
    v = rng.uniform(0, 1000, 10_000)
    df = pd.DataFrame({"x": v})
    out = approx_quantile(_ds(df), "x", {"p50": 0.5, "p90": 0.9},
                          lo=0.0, hi=1000.0).to_pandas()
    exact50, exact90 = np.quantile(v, [0.5, 0.9])
    # bin width = 1000/4096 ~ 0.25; allow a few bins of slack
    assert abs(out["p50"].iloc[0] - exact50) < 1.0
    assert abs(out["p90"].iloc[0] - exact90) < 1.0


def test_kmeans_fit_monotone_and_separates_blobs(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.similarity import kmeans_fit

    rng = np.random.default_rng(9)
    dim = 8
    centers = np.eye(3, dim) * 5
    vecs = np.concatenate([
        centers[i] + rng.normal(0, 0.1, (60, dim)) for i in range(3)])
    df = pd.DataFrame({
        "vec_id": np.arange(len(vecs), dtype="int64"),
        "embedding": [v.tolist() for v in vecs],
    })
    cent, hist = kmeans_fit(rd.from_pandas(df), nlist=3, iters=4)
    # Lloyd on the spherical objective is monotone non-decreasing
    assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:])), hist
    # converged: three well-separated blobs -> mean cosine ~1
    assert hist[-1] > 0.99
    # each blob center is closest to a distinct centroid
    import numpy.linalg as la
    norm_centers = centers / la.norm(centers, axis=1, keepdims=True)
    best = np.argmax(norm_centers @ cent.T, axis=1)
    assert len(set(best)) == 3


def test_cms_heavy_hitters_finds_true_top(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.sketch import cms_heavy_hitters

    rng = np.random.default_rng(13)
    # zipf-ish: a few heavy values + a long uniform tail
    heavy = np.repeat([f"hot{i}" for i in range(5)], [900, 700, 500, 300, 200])
    tail = [f"cold{i}" for i in rng.integers(0, 5000, 4000)]
    vals = np.concatenate([heavy, tail])
    rng.shuffle(vals)
    df = pd.DataFrame({"v": vals})
    out = cms_heavy_hitters(rd.from_pandas(df), "v", k=5)
    assert out["value"].tolist() == ["hot0", "hot1", "hot2", "hot3", "hot4"]
    assert out["n"].tolist() == [900, 700, 500, 300, 200]   # exact counts
    # CMS estimate only overcounts, within eps*total
    assert ((out["est"] >= out["n"]) & (out["est"] - out["n"] < 50)).all()


def test_grouped_zscore_matches_pandas(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_zscore

    rng = np.random.default_rng(21)
    df = pd.DataFrame({"g": rng.integers(0, 4, 200),
                       "id": np.arange(200),
                       "v": rng.normal(50, 10, 200)})
    # add a single-member group: std undefined -> null zscore
    df = pd.concat([df, pd.DataFrame({"g": [99], "id": [999], "v": [1.0]})],
                   ignore_index=True)
    out = (grouped_zscore(_ds(df), ["g"], "v")
           .to_pandas().sort_values("id").reset_index(drop=True))
    exp = df.sort_values("id").reset_index(drop=True)
    gstats = df.groupby("g")["v"].agg(["mean", "std"])
    expected = (exp["v"] - exp["g"].map(gstats["mean"])) / exp["g"].map(
        gstats["std"])
    ok = expected.notna()
    assert np.allclose(out["zscore"][ok], expected[ok], atol=1e-9)
    assert out.loc[out["g"] == 99, "zscore"].isna().all()


def test_rolling_agg_matches_pandas(ray_session):
    from credit_ocr_backend_ray.stages.relational import rolling_agg

    rng = np.random.default_rng(41)
    df = pd.DataFrame({
        "k": rng.integers(0, 20, 400),
        "o": np.arange(400),
        "v": rng.integers(0, 1000, 400).astype("int64"),
    })
    out = (rolling_agg(_ds(df), "k", ["o"], "v", 3, how="sum", alias="rs")
           .to_pandas().sort_values(["k", "o"]).reset_index(drop=True))
    want = df.sort_values(["k", "o"]).reset_index(drop=True)
    want["rs"] = (want.groupby("k")["v"]
                  .transform(lambda s: s.rolling(3, min_periods=1).sum()))
    assert (out["rs"].to_numpy() == want["rs"].to_numpy()).all()

    # null partition keys form their own partition
    nk = pd.DataFrame({"k": ["a", None, "a", None, None],
                       "o": [0, 1, 2, 3, 4], "v": [1, 10, 2, 20, 30]})
    out = (rolling_agg(_ds(nk), "k", ["o"], "v", 2, how="sum", alias="rs")
           .to_pandas().sort_values("o"))
    assert out["rs"].tolist() == [1, 10, 3, 30, 50]


_ONE_CPU_JOIN = """
import logging
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
logging.getLogger("ray.data").setLevel(logging.ERROR)
from credit_ocr_backend_ray.stages.relational import shuffle_join
left = rd.range(40).map_batches(
    lambda t: t.append_column("a", t["id"]), batch_format="pyarrow")
right = rd.range(20).map_batches(
    lambda t: t.append_column("b", t["id"]), batch_format="pyarrow")
print("rows", shuffle_join(left, right, "id", num_partitions=2).count())
ray.shutdown()
"""


def test_shuffle_join_finishes_on_one_cpu_cluster():
    """A join's aggregator actors reserve no CPU, so on a 1-CPU cluster
    the 1-CPU read tasks feeding the join still get scheduled (with
    Ray's default reservation this join never finishes)."""
    import os
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen([sys.executable, "-c", _ONE_CPU_JOIN],
                            cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True,
                            env={**os.environ, "PYTHONPATH": root})
    try:
        out, _ = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        # the child's own session holds its Ray head: end all of it
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("shuffle_join did not finish in 90 s on 1 CPU")
    assert proc.returncode == 0, out
    assert "rows 20" in out


def test_rank_per_key_sql_tie_semantics(ray_session):
    from credit_ocr_backend_ray.stages.relational import rank_per_key

    df = pd.DataFrame({
        "k": [1, 1, 1, 1, 2],
        "id": [10, 11, 12, 13, 20],
        "v": [5.0, 5.0, 3.0, 1.0, 9.0],
    })
    out = (rank_per_key(_ds(df), "k", ["v"], ascending=[False],
                        alias="r", dense_alias="d", pct_alias="p")
           .to_pandas().sort_values(["k", "id"]).reset_index(drop=True))
    k1 = out[out["k"] == 1].sort_values("id")
    assert k1["r"].tolist() == [1, 1, 3, 4]       # RANK with gap
    assert k1["d"].tolist() == [1, 1, 2, 3]       # DENSE_RANK
    assert k1["p"].tolist() == [0.0, 0.0, 2 / 3, 1.0]  # PERCENT_RANK
    assert out[out["k"] == 2]["p"].tolist() == [0.0]   # single-row group

    # null partition keys form their own partition, as in DuckDB
    import duckdb
    nk = pd.DataFrame({"k": ["a", "a", None, None], "id": [1, 2, 3, 4],
                       "v": [2.0, 1.0, 7.0, 7.0]})
    got = (rank_per_key(_ds(nk), "k", ["v"], alias="r", dense_alias="d")
           .to_pandas().sort_values("id")[["id", "r", "d"]])
    want = duckdb.sql(
        "SELECT id, rank() OVER (PARTITION BY k ORDER BY v) AS r, "
        "dense_rank() OVER (PARTITION BY k ORDER BY v) AS d "
        "FROM nk ORDER BY id").df()
    assert got.values.tolist() == want.values.tolist()


def test_first_last_per_key_combiner(ray_session):
    from credit_ocr_backend_ray.stages.relational import first_last_per_key

    rng = np.random.default_rng(42)
    df = pd.DataFrame({
        "k": rng.integers(0, 15, 300),
        "ts": rng.permutation(300),
        "v": rng.random(300),
    })
    out = (first_last_per_key(_ds(df), "k", ["ts"], ["v", "ts"])
           .to_pandas().sort_values("k").reset_index(drop=True))
    g = df.sort_values("ts").groupby("k")
    want_first = g["v"].first()
    want_last = g["v"].last()
    want_n = g.size()
    for _, row in out.iterrows():
        k = row["k"]
        assert row["first_v"] == want_first[k]
        assert row["last_v"] == want_last[k]
        assert row["n"] == want_n[k]


def test_semi_join_cogroup_matches_isin(ray_session):
    from credit_ocr_backend_ray.stages.relational import semi_join_cogroup

    rng = np.random.default_rng(7)
    left = pd.DataFrame({"k": rng.integers(0, 100, 500),
                         "v": rng.random(500)})
    right = pd.DataFrame({"rk": rng.integers(50, 80, 60)})
    out = (semi_join_cogroup(_ds(left), _ds(right), on="k", right_on="rk")
           .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    want = (left[left["k"].isin(set(right["rk"]))]
            .sort_values(["k", "v"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(out, want)


def test_bloom_semi_join_exact_and_prefilter_sound(ray_session):
    """Bloom has false positives but NO false negatives; the exact verify
    makes the composed join exact. Also check the bloom itself never
    rejects a present key."""
    from credit_ocr_backend_ray.stages.sketch import (
        bloom_build, bloom_might_contain, bloom_semi_join)

    rng = np.random.default_rng(13)
    left = pd.DataFrame({"k": rng.integers(0, 10_000, 2000),
                         "v": np.arange(2000)})
    right = pd.DataFrame({"k": rng.choice(left["k"].unique(), 150,
                                          replace=False)})
    out = (bloom_semi_join(_ds(left), _ds(right), on="k")
           .to_pandas().sort_values("v").reset_index(drop=True))
    want = (left[left["k"].isin(set(right["k"]))]
            .sort_values("v").reset_index(drop=True))
    pd.testing.assert_frame_equal(out, want)

    bits = bloom_build(_ds(right), "k")
    present = bloom_might_contain(bits, right["k"].tolist())
    assert present.all()  # no false negatives, ever


def test_stratified_sample_rates_and_determinism(ray_session):
    from credit_ocr_backend_ray.stages.relational import stratified_sample

    n = 6000
    df = pd.DataFrame({"id": np.arange(n),
                       "s": np.tile(["a", "b", "c"], n // 3)})
    ds = _ds(df)
    out1 = stratified_sample(ds, "id", "s",
                             {"a": 0.5, "b": 0.1}).to_pandas()
    out2 = stratified_sample(ds, "id", "s",
                             {"a": 0.5, "b": 0.1}).to_pandas()
    assert sorted(out1["id"]) == sorted(out2["id"])  # deterministic
    rates = out1.groupby("s").size() / (n // 3)
    assert abs(rates.get("a", 0) - 0.5) < 0.05
    assert abs(rates.get("b", 0) - 0.1) < 0.03
    assert "c" not in set(out1["s"])  # default_frac=0 drops the stratum
    # same key keeps the same fate across runs/strata fracs supersets
    out3 = stratified_sample(ds, "id", "s",
                             {"a": 0.5, "b": 0.1, "c": 0.0}).to_pandas()
    assert sorted(out3["id"]) == sorted(out1["id"])


def test_salted_join_matches_unsalted(ray_session):
    """Salting is result-invariant: a hot key (80% of left rows) joined
    salted vs plain must produce the identical multiset of rows."""
    from credit_ocr_backend_ray.stages.relational import (
        salted_shuffle_join, shuffle_join)

    left = pd.DataFrame({"k": [7] * 80 + list(range(20)),
                         "a": np.arange(100)})
    right = pd.DataFrame({"rk": list(range(25)), "b": np.arange(25) * 10})
    plain = (shuffle_join(_ds(left), _ds(right), on="k", right_on="rk",
                          num_partitions=3)
             .to_pandas().sort_values(["k", "a"]).reset_index(drop=True))
    salted = (salted_shuffle_join(_ds(left), _ds(right), on="k",
                                  right_on="rk", salt=4, num_partitions=3)
              .to_pandas().sort_values(["k", "a"]).reset_index(drop=True))
    assert "__salt" not in salted.columns
    pd.testing.assert_frame_equal(
        plain[["k", "a", "b"]], salted[["k", "a", "b"]])
    # the hot key survived intact: 80 planted + 1 from range(20)
    assert (salted["k"] == 7).sum() == 81


def test_rolling_time_agg_range_peers(ray_session):
    """RANGE-frame semantics: equal-timestamp peers share ONE frame that
    includes every peer; the window cut is closed on [ts-W, ts]."""
    from credit_ocr_backend_ray.stages.relational import rolling_time_agg

    day = 86400 * 10**6
    base = pd.Timestamp("2020-01-01")
    df = pd.DataFrame({
        "k": ["a"] * 4 + ["b"],
        "ts": [base, base + pd.Timedelta(days=1),
               base + pd.Timedelta(days=1),  # peer of the row above
               base + pd.Timedelta(days=10), base],
        "v": [1, 2, 4, 8, 100],
    })
    out = (rolling_time_agg(_ds(df), "k", "ts", "v", window_us=7 * day,
                            alias="s")
           .to_pandas().sort_values(["k", "ts", "v"])
           .reset_index(drop=True))
    a = out[out["k"] == "a"]["s"].tolist()
    # day0: 1 | day1 peers: both see 1+2+4 | day10: 7d window excludes day1
    assert a == [1, 7, 7, 8]
    assert out[out["k"] == "b"]["s"].tolist() == [100]


def test_rank_per_key_cume_dist_peers(ray_session):
    """CUME_DIST ties: peers share the run's last position / n."""
    from credit_ocr_backend_ray.stages.relational import rank_per_key

    df = pd.DataFrame({"g": ["a"] * 4, "v": [1.0, 2.0, 2.0, 3.0]})
    out = (rank_per_key(_ds(df), "g", ["v"], alias="r", cume_alias="c")
           .to_pandas().sort_values("v").reset_index(drop=True))
    assert out["c"].tolist() == [0.25, 0.75, 0.75, 1.0]


def test_weighted_bernoulli_sample_deterministic_and_monotone(ray_session):
    """Same key+weight always decides the same way; a zero weight is never
    kept; raising every weight to the cap can only ADD rows (monotone in
    weight, the integer-threshold property)."""
    from credit_ocr_backend_ray.stages.relational import (
        weighted_bernoulli_sample)

    n = 2000
    df = pd.DataFrame({"id": np.arange(n),
                       "w": np.concatenate([np.zeros(200, np.int64),
                                            np.full(1800, 500)])})
    frac = 2576980377  # floor(0.6 * 2^32)
    out1 = weighted_bernoulli_sample(_ds(df), "id", "w", frac,
                                     1000).to_pandas()
    out2 = weighted_bernoulli_sample(_ds(df), "id", "w", frac,
                                     1000).to_pandas()
    assert sorted(out1["id"]) == sorted(out2["id"])
    assert (out1["w"] > 0).all()  # zero weight -> probability 0
    # w=500 at cap 1000 -> rate ~0.3
    assert abs(len(out1) / 1800 - 0.3) < 0.05
    full = weighted_bernoulli_sample(
        _ds(df.assign(w=1000)), "id", "w", frac, 1000).to_pandas()
    assert set(out1["id"]).issubset(set(full["id"]))
    assert abs(len(full) / n - 0.6) < 0.04


def test_grouped_approx_quantile_within_bin_width(ray_session):
    from credit_ocr_backend_ray.stages.sketch import grouped_approx_quantile

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "g": np.repeat(["a", "b"], 5000),
        "v": np.concatenate([rng.uniform(0, 1000, 5000),
                             rng.uniform(2000, 4000, 5000)]),
    })
    out = (grouped_approx_quantile(_ds(df), ["g"], "v",
                                   {"p50": 0.5, "p90": 0.9},
                                   lo=0.0, hi=4096.0)
           .to_pandas().set_index("g"))
    bin_w = 4096.0 / 4096  # 1.0
    for g, grp in df.groupby("g"):
        for alias, q in (("p50", 0.5), ("p90", 0.9)):
            exact = np.quantile(grp["v"], q)
            assert abs(out.loc[g, alias] - exact) <= bin_w + 1e-9, \
                (g, alias, out.loc[g, alias], exact)


def test_windowed_hll_distinct_error_bound(ray_session):
    """Sketch-in-window composition: per-day HLL distinct within 5% of
    exact on two days with different cardinalities."""
    from credit_ocr_backend_ray.stages.sketch import approx_count_distinct

    d1 = pd.Timestamp("2024-03-01")
    d2 = pd.Timestamp("2024-03-02")
    df = pd.DataFrame({
        "day": [d1] * 8000 + [d2] * 4000,
        # day 1: 2000 distinct users; day 2: 500 distinct
        "user_id": list(np.arange(8000) % 2000)
                   + list(np.arange(4000) % 500),
    })
    out = (approx_count_distinct(_ds(df), ["day"], "user_id",
                                 alias="approx_users")
           .to_pandas().set_index("day"))
    assert abs(out.loc[d1, "approx_users"] - 2000) / 2000 < 0.05
    assert abs(out.loc[d2, "approx_users"] - 500) / 500 < 0.05


def test_grouped_linreg_exact_fit_and_degenerate_group(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_linreg

    df = pd.DataFrame({
        "g": ["a"] * 4 + ["b"] * 3,
        "x": [0.0, 1.0, 2.0, 3.0, 5.0, 5.0, 5.0],
        "y": [1.0, 3.0, 5.0, 7.0, 9.0, 10.0, 11.0],
    })
    out = (grouped_linreg(_ds(df), ["g"], "x", "y")
           .to_pandas().set_index("g"))
    # group a lies exactly on y = 2x + 1
    assert out.loc["a", "slope"] == pytest.approx(2.0, abs=1e-12)
    assert out.loc["a", "intercept"] == pytest.approx(1.0, abs=1e-12)
    assert out.loc["a", "n"] == 4
    # group b has zero x-variance -> null slope (SQL regr_slope semantics)
    assert np.isnan(out.loc["b", "slope"])

    # a null-key group is one group and a row with a null y drops, as in
    # DuckDB
    nulls = pd.DataFrame({"g": [None] * 4, "x": [1.0, 2.0, 4.0, 5.0],
                          "y": [0.0, 1.0, 5.0, None]})
    df = pd.concat([df, nulls], ignore_index=True)
    out = grouped_linreg(_ds(df).repartition(3), ["g"], "x",
                         "y").to_pandas()
    want = _sql("SELECT g, regr_count(y, x) AS n, "
                "regr_slope(y, x) AS slope, "
                "regr_intercept(y, x) AS intercept FROM t GROUP BY g",
                t=df)
    _assert_close_rows(out, want, "g", ["n", "slope", "intercept"])


def test_cube_agg_all_subsets(ray_session):
    from credit_ocr_backend_ray.stages.relational import cube_agg

    df = pd.DataFrame({"a": ["x", "x", "y"], "b": ["p", "q", "p"],
                       "v": [1, 2, 4]})
    out = (cube_agg(_ds(df), ["a", "b"], {"v": "s"})
           .to_pandas())
    assert len(out) == 3 + 2 + 2 + 1  # finest + by-a + by-b + total
    total = out[out["a"].isna() & out["b"].isna()]
    assert total["s"].iloc[0] == 7 and total["n"].iloc[0] == 3
    by_b = out[out["a"].isna() & (out["b"] == "p")]
    assert by_b["s"].iloc[0] == 5 and by_b["n"].iloc[0] == 2
    by_a = out[(out["a"] == "x") & out["b"].isna()]
    assert by_a["s"].iloc[0] == 3


def test_kmv_source_overlap_planted(ray_session):
    """KMV sketch overlap: planted 1/3 Jaccard between two sources must
    estimate within ~2/sqrt(k); a disjoint pair estimates ~0."""
    from credit_ocr_backend_ray.stages.sketch import kmv_source_overlap

    rows = ([{"source": "A", "text": f"t{i}"} for i in range(4000)]
            + [{"source": "B", "text": f"t{i}"} for i in range(2000, 6000)]
            + [{"source": "C", "text": f"c{i}"} for i in range(1000)])
    out = kmv_source_overlap(_ds(pd.DataFrame(rows)), k=256)
    out = out.set_index(["source_a", "source_b"])
    ab = out.loc[("A", "B")]
    assert abs(ab["est_jaccard"] - 1 / 3) < 2 / np.sqrt(256)
    assert abs(ab["est_shared"] - 2000) / 2000 < 0.25
    assert out.loc[("A", "C"), "est_jaccard"] < 0.05
    # deterministic: same input -> same estimate
    out2 = kmv_source_overlap(_ds(pd.DataFrame(rows)), k=256)
    assert out2.set_index(["source_a", "source_b"]).loc[
        ("A", "B"), "est_jaccard"] == ab["est_jaccard"]


def test_profile_columns(ray_session):
    from credit_ocr_backend_ray.stages.relational import profile_columns

    df = pd.DataFrame({
        "k": [1, 2, 2, 3, None],
        "s": ["b", "a", None, "a", "c"],
    })
    out = profile_columns(_ds(df), ["k", "s"]).set_index("col_name")
    assert out.loc["k", "n"] == 5 and out.loc["k", "n_null"] == 1
    assert out.loc["k", "n_distinct"] == 3
    # typed extrema: numeric min/max, not lexicographic
    assert out.loc["k", "min_v"] == "1.0" and out.loc["k", "max_v"] == "3.0"
    assert out.loc["s", "n_distinct"] == 3
    assert out.loc["s", "min_v"] == "a" and out.loc["s", "max_v"] == "c"


def test_profile_columns_numeric_not_lexicographic(ray_session):
    # 9 < 100 numerically but "9" > "100" as strings — the bug a stringly
    # fold would reintroduce
    from credit_ocr_backend_ray.stages.relational import profile_columns

    df = pd.DataFrame({"k": [9, 100, 25]})
    out = profile_columns(_ds(df), ["k"]).set_index("col_name")
    assert out.loc["k", "min_v"] == "9" and out.loc["k", "max_v"] == "100"


def test_iqr_outliers(ray_session):
    from credit_ocr_backend_ray.stages.relational import iqr_outliers

    # group a: tight cluster + one far point; group b: no outliers
    df = pd.DataFrame({
        "g": ["a"] * 9 + ["b"] * 4,
        "v": [10.0, 11, 12, 13, 14, 15, 16, 17, 1000] + [1.0, 2, 3, 4],
    })
    out = (iqr_outliers(_ds(df), ["g"], "v").to_pandas()
           .set_index("g"))
    assert out.loc["a", "n"] == 9 and out.loc["a", "n_outliers"] == 1
    assert out.loc["b", "n"] == 4 and out.loc["b", "n_outliers"] == 0


def test_compact_dataset_roundtrip(ray_session, tmp_path):
    import ray.data as rd
    from credit_ocr_backend_ray.state.bucket_store import compact_dataset

    df = pd.DataFrame({"k": range(1000), "v": [f"x{i}" for i in range(1000)]})
    frag = str(tmp_path / "frag")
    rd.from_pandas(df).repartition(32).write_parquet(frag)
    comp = str(tmp_path / "comp")
    info = compact_dataset(frag, comp, target_rows_per_file=400)
    assert info["rows"] == 1000
    assert info["files_out"] <= 3 < info["files_in"]
    back = rd.read_parquet(comp).to_pandas().sort_values("k")
    assert back["v"].tolist() == df["v"].tolist()


def test_zorder_box_scan_prunes_and_is_exact(ray_session, tmp_path):
    """Z-order layout: a small query box must (a) return exactly the
    brute-force filter result and (b) SKIP most partitions — the
    2-D data-skipping property the layout exists for."""
    import ray.data as rd
    from credit_ocr_backend_ray.state.bucket_store import (
        read_box, write_zorder)

    rng = np.random.default_rng(31)
    n = 20_000
    df = pd.DataFrame({
        "id": np.arange(n),
        "x": rng.uniform(0, 100, n),
        "y": rng.uniform(0, 100, n),
    })
    base = str(tmp_path / "z")
    manifest = write_zorder(rd.from_pandas(df).repartition(8), base,
                            "x", "y", n_parts=16)
    out, n_hit = read_box(base, 10.0, 20.0, 60.0, 70.0, manifest)
    got = out.to_pandas().sort_values("id").reset_index(drop=True)
    exp = df[(df.x >= 10) & (df.x <= 20) & (df.y >= 60) & (df.y <= 70)] \
        .sort_values("id").reset_index(drop=True)
    assert got["id"].tolist() == exp["id"].tolist()
    # a 10x10 box of a 100x100 uniform space: Morton locality must let
    # the manifest skip well over half the 16 partitions
    assert n_hit <= 6, n_hit
    # empty box -> zero partitions read
    _, n0 = read_box(base, 200.0, 300.0, 0.0, 1.0, manifest)
    assert n0 == 0


def test_time_band_join_planted(ray_session):
    """Keyed two-table band join: matches only same-key rows within the
    band, both directions, no per-key loop (composite searchsorted)."""
    from credit_ocr_backend_ray.stages.relational import time_band_join

    t0 = pd.Timestamp("2024-01-01")
    m = pd.Timedelta(minutes=1)
    left = pd.DataFrame({
        "k": [1, 1, 2, 3],
        "ts": [t0, t0 + 10 * m, t0, t0],
        "lid": [100, 101, 102, 103],
    })
    right = pd.DataFrame({
        "k": [1, 1, 2, 9],
        "ts": [t0 + 2 * m, t0 + 30 * m, t0 - 3 * m, t0],
        "rid": [7, 8, 9, 10],
    })
    out = (time_band_join(_ds(left), _ds(right), "k", "k", "ts", "ts",
                          band_us=5 * 60_000_000,
                          left_cols=["lid"], right_cols=["rid"])
           .to_pandas())
    got = {(a, b): d for a, b, d in
           zip(out["l_lid"], out["r_rid"], out["dt_us"])}
    # lid 100 (k=1, t0): rid 7 at +2m in band; rid 8 at +30m out
    # lid 101 (k=1, +10m): nothing within 5m (rid 7 is -8m, rid 8 +20m)
    # lid 102 (k=2, t0): rid 9 at -3m in band (negative dt)
    # lid 103 (k=3): no right rows; rid 10 has no left key
    assert got == {(100, 7): 2 * 60_000_000,
                   (102, 9): -3 * 60_000_000}


def test_kfold_assign_deterministic_and_balanced(ray_session):
    import hashlib
    from credit_ocr_backend_ray.stages.relational import kfold_assign

    df = pd.DataFrame({"k": range(500)})
    out = kfold_assign(_ds(df), "k", k=5).to_pandas()
    # exact md5 contract
    for kk, f in zip(out["k"], out["fold"]):
        exp = int.from_bytes(
            hashlib.md5(str(kk).encode()).digest()[:4], "big") % 5
        assert f == exp
    # roughly balanced and stable under repartitioning
    sizes = out["fold"].value_counts()
    assert len(sizes) == 5 and sizes.min() > 50
    again = kfold_assign(_ds(df).repartition(7), "k", k=5).to_pandas()
    assert dict(zip(again["k"], again["fold"])) == \
        dict(zip(out["k"], out["fold"]))


def test_winsorize_per_key(ray_session):
    from credit_ocr_backend_ray.stages.relational import winsorize_per_key

    vals = np.arange(1.0, 101.0)  # 1..100
    df = pd.DataFrame({"g": ["a"] * 100, "v": vals})
    out = (winsorize_per_key(_ds(df), ["g"], "v", 0.05, 0.95)
           .to_pandas().sort_values("v").reset_index(drop=True))
    ql = np.quantile(vals, 0.05, method="linear")
    qh = np.quantile(vals, 0.95, method="linear")
    assert out["w_v"].min() == ql and out["w_v"].max() == qh
    # interior values unchanged
    mid = out[(out.v > ql) & (out.v < qh)]
    assert (mid["w_v"] == mid["v"]).all()


def test_time_band_join_salted_matches_unsalted(ray_session):
    """Bipartite block-cell salt: identical pair set to the unsalted
    plan, including on a hot key carrying most rows of both sides."""
    from credit_ocr_backend_ray.stages.relational import time_band_join

    rng = np.random.default_rng(61)
    t0 = pd.Timestamp("2024-05-01").value // 1000
    span = 3600 * 1_000_000

    def mk(n, seed):
        r = np.random.default_rng(seed)
        k = r.integers(0, 20, n)
        k[: n // 2] = 7  # hot key holds half of each side
        return pd.DataFrame({
            "k": k,
            "ts": pd.to_datetime((t0 + r.integers(0, span, n)) * 1000),
            "rid": np.arange(n, dtype=np.int64),
        })

    left, right = mk(400, 1), mk(300, 2)
    kw = dict(band_us=60_000_000, left_cols=["rid"], right_cols=["rid"])
    plain = (time_band_join(_ds(left), _ds(right), "k", "k", "ts", "ts",
                            **kw).to_pandas()
             .sort_values(["l_rid", "r_rid"]).reset_index(drop=True))
    salted = (time_band_join(_ds(left), _ds(right), "k", "k", "ts", "ts",
                             n_salt=4, **kw).to_pandas()
              .sort_values(["l_rid", "r_rid"]).reset_index(drop=True))
    assert len(plain) > 1000  # the hot key really is quadratic-ish
    pd.testing.assert_frame_equal(
        plain[["l_rid", "r_rid", "dt_us"]].astype("int64"),
        salted[["l_rid", "r_rid", "dt_us"]].astype("int64"))


def test_profile_columns_approx_distinct(ray_session):
    """The 100 TB path: HLL per-column distinct within a few percent of
    exact, shuffle volume O(cols x batches) not O(values)."""
    from credit_ocr_backend_ray.stages.relational import profile_columns

    rng = np.random.default_rng(71)
    df = pd.DataFrame({
        "hi": rng.integers(0, 1_000_000, 30_000),  # ~29.6k distinct
        "lo": rng.choice(["a", "b", "c"], 30_000),
    })
    import ray.data as rd
    out = profile_columns(rd.from_pandas(df).repartition(8),
                          ["hi", "lo"],
                          approx_distinct=True).set_index("col_name")
    exact_hi = df["hi"].nunique()
    assert abs(out.loc["hi", "n_distinct"] - exact_hi) / exact_hi < 0.05
    assert abs(out.loc["lo", "n_distinct"] - 3) <= 1
    assert out.loc["hi", "n"] == 30_000


def test_shuffle_join_empty_leading_blocks(ray_session):
    """Regression for the r03 driver window's one red query
    (doc_mean_token_freq): ray 2.49.2's hash shuffle consumes a side's
    one schema-broadcast opportunity on the first-SCHEDULED block, and
    _shuffle_block early-returns on empty blocks without fanning out the
    typed shards — so a right side whose leading blocks are empty (here 7
    of 8, the shape a selective filter/groupby produces) makes
    pa.Table.join die with "No match ... for key field reference" in
    every aggregator that received zero right rows. Without
    compat.install_hash_shuffle_schema_patch (installed at package
    import) this failed 6/6 runs; with it the broadcast is re-armed
    after each known-empty block and the join is deterministic."""
    import ray.data as rd
    from credit_ocr_backend_ray.compat import install_hash_shuffle_schema_patch
    from credit_ocr_backend_ray.stages.relational import shuffle_join

    assert install_hash_shuffle_schema_patch()  # idempotent: already on

    for trial in range(3):
        left = rd.range(200, override_num_blocks=4).map_batches(
            lambda b: {"token": [f"t{i % 50}" for i in b["id"]],
                       "v": [int(i) for i in b["id"]]})
        # 8 right blocks, only the last non-empty: the schema broadcast
        # is guaranteed to be attempted on an empty block first
        right = rd.range(800, override_num_blocks=8).map_batches(
            lambda b: {"token": [f"t{i % 50}" for i in b["id"] if i >= 790],
                       "w": [int(i) for i in b["id"] if i >= 790]})
        out = shuffle_join(left, right, on="token", num_partitions=8)
        df = out.to_pandas()
        # tokens t40..t49 appear 4x on the left and 1x on the right
        assert len(df) == 40, f"trial {trial}: got {len(df)} rows"
        assert set(df["token"]) == {f"t{i}" for i in range(40, 50)}


def test_empty_pandas_block_size_bytes(ray_session):
    """Regression for the r04 sweep's worker-log spam ("Error
    calculating size for column 'n_name': cannot call vectorize on size
    0 inputs"): ray 2.49.2's PandasBlockAccessor.size_bytes samples
    object columns with np.vectorize, which raises on a 0-row block.
    compat.install_pandas_size_bytes_patch (installed at package import)
    short-circuits empty frames to their shallow scaffolding size."""
    import logging

    from ray.data._internal.pandas_block import PandasBlockAccessor

    from credit_ocr_backend_ray.compat import install_pandas_size_bytes_patch

    assert install_pandas_size_bytes_patch()  # idempotent: already on

    empty = pd.DataFrame({"n_name": pd.Series([], dtype=object),
                          "v": pd.Series([], dtype="int64")})
    records: list[logging.LogRecord] = []

    class _Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    lg = logging.getLogger("ray.data._internal.pandas_block")
    h = _Capture()
    lg.addHandler(h)
    try:
        size = PandasBlockAccessor(empty).size_bytes()
    finally:
        lg.removeHandler(h)
    assert size >= 0
    assert not [r for r in records
                if "Error calculating size" in r.getMessage()]
    # non-empty blocks keep the stock deep-sampled path
    full = pd.DataFrame({"n_name": ["GERMANY", "FRANCE"], "v": [1, 2]})
    assert PandasBlockAccessor(full).size_bytes() > \
        PandasBlockAccessor(empty).size_bytes()


def test_worker_patch_propagation(ray_session):
    """Regression for the residual r5 worker-log spam: the import-time
    patch installs only reach workers that IMPORT the package, but a
    nested closure referencing no package global (broadcast_semi_join's
    pure-pandas filt) is pickled by value, so its worker stayed
    unpatched and empty output blocks sprayed "Error calculating size
    for column 'c_name'". compat.install_worker_patch_propagation rides
    the DataContext instead: Ray deep-copies the context per dataset
    (and again per derived dataset) and ships it in every task spec; the
    _WorkerPatchShipment attribute survives every copy as itself and its
    __reduce__ makes the WORKER-side unpickle import the package — so
    the patches install there before the first block is built."""
    import copy
    import types

    from ray.data import DataContext

    from credit_ocr_backend_ray import compat

    assert compat.install_worker_patch_propagation()  # idempotent
    ctx = DataContext.get_current()
    hook = ctx._cob_worker_patch_hook
    assert isinstance(hook, compat._WorkerPatchShipment)

    # stage 1: per-dataset copies (including copies OF copies — derived
    # datasets re-copy their parent's context) keep the placeholder
    copied = copy.deepcopy(copy.deepcopy(ctx))
    assert isinstance(copied._cob_worker_patch_hook,
                      compat._WorkerPatchShipment)

    # stage 2: cloudpickle honors __reduce__ — the payload reconstructs
    # via pydoc.safeimport("credit_ocr_backend_ray"), so a worker
    # unpickling the context performs the import (= runs the installs)
    from ray import cloudpickle as cp
    payload = cp.dumps(copied)
    assert b"credit_ocr_backend_ray" in payload
    assert b"safeimport" in payload
    restored = cp.loads(payload)
    assert isinstance(restored._cob_worker_patch_hook, types.ModuleType)

    # graceful degradation: a worker that cannot import the package gets
    # None, not an exception (pydoc.safeimport contract)
    import pydoc
    assert pydoc.safeimport("credit_ocr_backend_ray_nonexistent") is None

    # behavioral: the exact r5 repro (every block emptied by a broadcast
    # semi-join whose closure references nothing from the package) runs
    # clean — with the worker patched, an empty pandas block's
    # size_bytes short-circuits instead of logging per string column
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import broadcast_semi_join

    ds = rd.from_pandas(pd.DataFrame(
        {"c_name": [f"n{i}" for i in range(400)],
         "k": list(range(400))})).repartition(4)
    assert broadcast_semi_join(ds, {-1}, "k").count() == 0


def test_hopping_window_null_key_and_count_only(ray_session):
    """ADVICE r3: (a) the pandas partial groupby must pass dropna=False
    or rows with a null key silently vanish from every window; (b) the
    count partial must ride __g so count-only hopping windows (empty
    sum_cols) work instead of IndexError."""
    from credit_ocr_backend_ray.stages.relational import hopping_window_agg

    ts = pd.to_datetime([0, 600, 1800, 3000], unit="s")
    df = pd.DataFrame({"ts": ts,
                       "g": ["a", None, "a", None],
                       "v": [1.0, 10.0, 2.0, 20.0]})
    out = (hopping_window_agg(_ds(df), "ts", ["g"], 3600, 1800,
                              {"v": "s"})
           .to_pandas())
    null_rows = out[out["g"].isna()]
    # each null-key event lands in 2 windows of the 3600/1800 hop
    assert null_rows["n"].sum() == 4, out
    assert null_rows["s"].sum() == 60.0  # (10+20) counted in 2 windows

    cnt = (hopping_window_agg(_ds(df[["ts", "g"]]), "ts", ["g"],
                              3600, 1800, {})
           .to_pandas())
    assert cnt["n"].sum() == 8  # 4 events x 2 windows


def test_profile_columns_int_extrema_with_all_null_block(ray_session):
    """ADVICE r3: an all-null block's typed int64 partial must not force
    a float fold — min_v/max_v stay '9'/'100', not '9.0'/'100.0'
    (CAST-to-VARCHAR contract)."""
    import ray.data as rd
    from credit_ocr_backend_ray.stages.relational import profile_columns

    a = pd.DataFrame({"x": pd.array([9, 100, 50], dtype="Int64")})
    b = pd.DataFrame({"x": pd.array([None, None], dtype="Int64")})
    ds = rd.from_pandas(a).union(rd.from_pandas(b))
    out = profile_columns(ds, ["x"]).set_index("col_name")
    assert out.loc["x", "min_v"] == "9"
    assert out.loc["x", "max_v"] == "100"
    assert out.loc["x", "n_null"] == 2


def test_merge_into_copy_on_write(ray_session, tmp_path):
    """Lakehouse MERGE INTO on the bucket store: updates win on key,
    inserts land, untouched buckets HARD-LINK into the snapshot (zero
    bytes copied), and the snapshot carries a completion marker."""
    import os
    import ray.data as rd
    from credit_ocr_backend_ray.state.bucket_store import (
        bucket_files, bucket_of_int, merge_into, write_bucketed)

    base = pd.DataFrame({"k": np.arange(1000, dtype="int64"),
                         "v": np.arange(1000, dtype="float64"),
                         "tag": ["base"] * 1000})
    tdir = str(tmp_path / "target")
    write_bucketed(rd.from_pandas(base), tdir, "k", n_buckets=8)

    upd = pd.DataFrame({
        "k": np.array([3, 11, 500, 2000, 2001], dtype="int64"),
        "v": np.array([-3.0, -11.0, -500.0, -2000.0, -2001.0]),
        "tag": ["upd"] * 5})
    out = str(tmp_path / "snap")
    stats = merge_into(tdir, rd.from_pandas(upd), "k", out, n_buckets=8)
    assert stats["rows_updated"] == 3 and stats["rows_inserted"] == 2
    assert stats["buckets_touched"] + stats["buckets_linked"] == 8
    assert os.path.exists(os.path.join(out, "_done"))

    got = (rd.read_parquet(out).to_pandas()
           .sort_values("k").reset_index(drop=True))
    expected = (pd.concat([upd, base[~base["k"].isin(upd["k"])]])
                .sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["k", "v", "tag"]], expected[["k", "v", "tag"]])

    # untouched buckets are hard links of the target's files (same inode)
    touched = set(bucket_of_int(upd["k"].to_numpy(np.int64), 8).tolist())
    linked_b = next(b for b in range(8) if b not in touched)
    src = bucket_files(tdir, linked_b)
    dst = bucket_files(out, linked_b)
    assert src and [os.stat(a).st_ino for a in src] == \
        [os.stat(a).st_ino for a in dst]


def test_grouping_sets_matches_manual(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouping_sets_agg

    df = pd.DataFrame({"a": ["x", "x", "y", "y", "y"],
                       "b": ["p", "q", "p", "p", "q"],
                       "v": [1, 2, 3, 4, 5]})
    out = (grouping_sets_agg(_ds(df), ["a", "b"],
                             [("a", "b"), ("a",), ("b",), ()],
                             {"v": "s"})
           .to_pandas())
    finest = out.dropna(subset=["a", "b"]).set_index(["a", "b"])
    assert finest.loc[("y", "p"), "s"] == 7 and \
        finest.loc[("y", "p"), "n"] == 2
    by_a = out[out["a"].notna() & out["b"].isna()].set_index("a")
    assert by_a.loc["x", "s"] == 3 and by_a.loc["y", "s"] == 12
    by_b = out[out["a"].isna() & out["b"].notna()].set_index("b")
    assert by_b.loc["p", "s"] == 8 and by_b.loc["q", "s"] == 7
    total = out[out["a"].isna() & out["b"].isna()]
    assert len(total) == 1 and total["s"].iloc[0] == 15
    assert len(out) == 4 + 2 + 2 + 1


def test_cdf_drift_integer_exact(ray_session):
    from credit_ocr_backend_ray.stages.relational import cdf_drift

    rng = np.random.default_rng(5)
    # group "hi" shifted right by 2 bins vs the bulk
    a = rng.uniform(0, 50, 4000)
    b = rng.uniform(20, 70, 500)
    df = pd.DataFrame({"g": ["bulk"] * 4000 + ["hi"] * 500,
                       "v": np.concatenate([a, b])})
    out = cdf_drift(_ds(df), "g", "v", lo=0.0, hi=100.0,
                    n_bins=10).set_index("g")
    # exact reference computation
    bins_all = np.clip((df["v"] // 10).astype(int), 0, 9)
    big_n = len(df)
    for g in ["bulk", "hi"]:
        sel = df["g"] == g
        n_g = int(sel.sum())
        cg = np.bincount(bins_all[sel], minlength=10).cumsum()
        ca = np.bincount(bins_all, minlength=10).cumsum()
        ks_num = np.abs(cg.astype(np.int64) * big_n
                        - ca.astype(np.int64) * n_g).max()
        assert out.loc[g, "ks_micro"] == (ks_num * 1_000_000) // (
            n_g * big_n)
        assert out.loc[g, "n"] == n_g
    # the shifted group genuinely drifts, the bulk barely does
    assert out.loc["hi", "ks_micro"] > out.loc["bulk", "ks_micro"]


def test_snapshot_diff_cdc(ray_session, tmp_path):
    """CDC between two snapshots: added/removed/changed classification,
    and hard-linked (untouched) buckets skipped on inode identity."""
    import ray.data as rd
    from credit_ocr_backend_ray.state.bucket_store import (
        merge_into, snapshot_diff, write_bucketed)

    base = pd.DataFrame({"k": np.arange(600, dtype="int64"),
                         "v": np.arange(600, dtype="float64")})
    a = str(tmp_path / "a")
    write_bucketed(rd.from_pandas(base), a, "k", n_buckets=8)
    upd = pd.DataFrame({"k": np.array([5, 77, 900], dtype="int64"),
                        "v": np.array([-5.0, -77.0, -900.0])})
    b = str(tmp_path / "b")
    merge_into(a, rd.from_pandas(upd), "k", b, n_buckets=8)

    d = (snapshot_diff(a, b, "k", n_buckets=8).to_pandas()
         .sort_values("k").reset_index(drop=True))
    got = dict(zip(d["k"], d["change"]))
    assert got == {5: "changed", 77: "changed", 900: "added"}

    # removed: diff the snapshots the other way round
    rev = snapshot_diff(b, a, "k", n_buckets=8).to_pandas()
    assert dict(zip(rev["k"], rev["change"])) == {
        5: "changed", 77: "changed", 900: "removed"}

    # identical snapshots diff to empty without reading a byte
    empty = snapshot_diff(a, a, "k", n_buckets=8).to_pandas()
    assert len(empty) == 0


def test_interval_self_join_exact(ray_session):
    """Hand-computable overlaps incl. an interval spanning many buckets,
    bucket-boundary pairs, touching endpoints (inclusive), and key
    separation; brute-force cross-check."""
    from credit_ocr_backend_ray.stages.relational import interval_self_join

    rows = [
        # key, id, start_s, end_s
        ("k1", 1, 0, 10),
        ("k1", 2, 5, 15),       # overlaps 1
        ("k1", 3, 15, 20),      # touches 2 at 15 (inclusive)
        ("k1", 4, 100, 400),    # long: spans several 60s buckets
        ("k1", 5, 350, 360),    # inside 4's tail
        ("k1", 6, 401, 410),    # NOT overlapping 4
        ("k2", 7, 0, 10),       # other key: no cross pairs
    ]
    df = pd.DataFrame({
        "k": [r[0] for r in rows],
        "id": [r[1] for r in rows],
        "s": pd.to_datetime([r[2] for r in rows], unit="s"),
        "e": pd.to_datetime([r[3] for r in rows], unit="s"),
    })
    out = (interval_self_join(_ds(df), "k", "id", "s", "e",
                              bucket_us=60_000_000)
           .to_pandas().sort_values(["id_a", "id_b"])
           .reset_index(drop=True))
    got = set(zip(out["id_a"], out["id_b"]))
    # brute force
    expect = set()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            if a[0] == b[0] and a[2] <= b[3] and b[2] <= a[3]:
                expect.add((min(a[1], b[1]), max(a[1], b[1])))
    assert got == expect == {(1, 2), (2, 3), (4, 5)}
    ov = dict(zip(zip(out["id_a"], out["id_b"]), out["overlap_us"]))
    assert ov[(1, 2)] == 5_000_000 and ov[(2, 3)] == 0
    assert ov[(4, 5)] == 10_000_000

    with pytest.raises(Exception, match="raise bucket_us"):
        long_df = df.assign(e=df["s"] + pd.Timedelta(days=300))
        (interval_self_join(_ds(long_df), "k", "id", "s", "e",
                            bucket_us=60_000_000).to_pandas())


def test_kll_sketch_rank_error_and_merge(ray_session):
    """Range-free KLL: <=2% rank error at extreme and central quantiles
    on uniform and heavy-tail data, through both the sequential-update
    and the merge path, with deterministic serialization."""
    from credit_ocr_backend_ray.stages.sketch import KLLSketch, kll_quantiles

    rng = np.random.default_rng(13)
    data = rng.lognormal(0, 2, 120_000)
    parts = [KLLSketch().update(c) for c in np.array_split(data, 16)]
    acc = parts[0]
    for p in parts[1:]:
        acc.merge(p)
    srt = np.sort(data)
    for q in (0.01, 0.5, 0.99):
        rank = np.searchsorted(srt, acc.quantile(q)) / len(srt)
        assert abs(rank - q) < 0.02
    rt = KLLSketch.from_bytes(acc.to_bytes())
    assert rt.quantile(0.5) == acc.quantile(0.5) and rt.n == acc.n

    # distributed path over a Dataset
    df = pd.DataFrame({"v": rng.uniform(0, 100, 30_000)})
    import ray.data as rd
    out = kll_quantiles(rd.from_pandas(df).repartition(8), "v",
                        {"p50": 0.5})
    rank = (df["v"] < out["p50"].iloc[0]).mean()
    assert abs(rank - 0.5) < 0.02


def test_weighted_ticket_sample_properties(ray_session):
    """Exact size k; higher weight raises inclusion; deterministic
    across block layouts (the engine-independence contract)."""
    from credit_ocr_backend_ray.stages.relational import (
        weighted_ticket_sample)

    df = pd.DataFrame({"id": np.arange(2000, dtype="int64"),
                       "w": np.where(np.arange(2000) < 200, 6000, 500)})
    out1 = weighted_ticket_sample(_ds(df), "id", "w", k=100)
    out2 = weighted_ticket_sample(_ds(df).repartition(7), "id", "w",
                                  k=100)
    pd.testing.assert_frame_equal(out1, out2)  # layout-independent
    assert len(out1) == 100 and out1["pri"].is_monotonic_increasing
    heavy_rate = (out1["id"] < 200).mean() / (200 / 2000)
    assert heavy_rate > 3  # 12x tickets -> strongly over-represented


def test_redact_pii_exact(ray_session):
    from credit_ocr_backend_ray.stages.text import redact_pii

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [
            "write to max.muster+x@bank-intern.de or call +49 30 1234567",
            "IBAN DE44500105175407324931 pays, DE12 not (too short)",
            "no pii here",
        ]})
    out = (redact_pii(_ds(df)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "n_emails"] == 1 and out.loc[0, "n_phones"] == 1
    assert out.loc[1, "n_ibans"] == 1 and out.loc[1, "n_emails"] == 0
    assert out.loc[2, ["n_emails", "n_ibans", "n_phones"]].sum() == 0
    # the redacted text is what got hashed — recompute one
    import hashlib
    red = ("write to <EMAIL> or call <PHONE>")
    assert out.loc[0, "redacted_sha"] == hashlib.sha256(
        red.encode()).hexdigest()


def test_image_augmenter_deterministic_pixels(ray_session):
    import numpy as np
    from credit_ocr_backend_ray.functions.png import decode_png, encode_png
    from credit_ocr_backend_ray.stages.multimodal import ImageAugmenter

    rng = np.random.default_rng(21)
    arr = rng.integers(0, 256, (64, 80, 3), dtype=np.uint8)
    png = encode_png(arr)
    aug = ImageAugmenter(id_col="url", col="img", crop_frac=0.875)
    import pyarrow as pa
    batch = pa.table({"url": ["u1", "u1", "poison"],
                      "img": [png, png, b"JFIF-garbage"]})
    out = aug(batch)
    # deterministic: same id -> same bytes; poison row captured per-row
    assert out["augmented"][0].as_py() == out["augmented"][1].as_py()
    assert out["error"][2].as_py() is not None
    # reproduce the declared ops by hand and compare pixels
    ops = out["aug_ops"][0].as_py().split("+")
    got = decode_png(out["augmented"][0].as_py())
    ref = arr
    if "hflip" in ops:
        ref = ref[:, ::-1]
    ch, cw = int(64 * 0.875), int(80 * 0.875)
    corner = int(next(o for o in ops if o.startswith("crop"))[4:])
    oy = 0 if corner < 2 else 64 - ch
    ox = 0 if corner % 2 == 0 else 80 - cw
    ref = ref[oy:oy + ch, ox:ox + cw]
    b = next((o for o in ops if o.startswith("bright")), None)
    if b:
        ref = np.clip(ref.astype(np.int32) * (10 + int(b[6:])) // 10,
                      0, 255).astype(np.uint8)
    assert (got == ref).all()
    # a different salt (epoch) draws a different augmentation for >=1 id
    aug2 = ImageAugmenter(id_col="url", col="img", salt="aug-e1")
    out2 = aug2(batch)
    assert (out2["aug_ops"][0].as_py() != out["aug_ops"][0].as_py()
            or out2["augmented"][0].as_py() != out["augmented"][0].as_py())


def test_validate_rules_exact(ray_session):
    from credit_ocr_backend_ray.stages.relational import validate_rules

    df = pd.DataFrame({
        "k": [1, 2, 2, 3, 3, 3],
        "v": [5.0, None, 50.0, 500.0, -1.0, 10.0],
        "s": ["1-HIGH", "9-BAD", "2-LOW", None, "3-MED", "x"],
    })
    out = validate_rules(_ds(df), [
        {"rule": "not_null", "col": "v"},
        {"rule": "in_range", "col": "v", "lo": 0.0, "hi": 100.0},
        {"rule": "regex", "col": "s", "pattern": r"[1-5]-[A-Z]+"},
        {"rule": "unique", "col": "k"},
    ]).set_index("rule_id")
    assert out.loc[0, "n_violations"] == 1          # one null v
    assert out.loc[1, "n_violations"] == 3          # null, 500, -1
    assert out.loc[2, "n_violations"] == 3          # 9-BAD, None, x
    assert out.loc[3, "n_violations"] == 3          # extra copies of 2,3
    assert (out["n_rows"] == 6).all()


def test_bpe_learn_and_apply(ray_session):
    """The classic Sennrich fixture: merges must come out (e,s), (es,t),
    (est,</w>), (l,o) in order; applying them compresses the corpus."""
    from credit_ocr_backend_ray.stages.text import apply_bpe, learn_bpe

    rows = (["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3)
    df = pd.DataFrame({"doc_id": range(len(rows)), "text": rows})
    merges = learn_bpe(_ds(df), n_merges=4)
    assert merges == [("e", "s"), ("es", "t"), ("est", "</w>"),
                      ("l", "o")]
    out = (apply_bpe(_ds(df), merges).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    # 'newest': n-e-w-est</w> = 4 subwords; 'low': lo-w-</w> = 3
    assert out.loc[7, "n_subwords"] == 4   # a 'newest' row
    assert out.loc[0, "n_subwords"] == 3   # a 'low' row
    assert (out["n_tokens"] == 1).all()
    # determinism across block layouts
    m2 = learn_bpe(_ds(df).repartition(5), n_merges=4)
    assert m2 == merges


def test_interval_join_random_brute_force(ray_session):
    """Property-style: 60 random fixtures x exhaustive brute force —
    the interval join must emit exactly the overlapping same-key pairs,
    regardless of lengths, boundaries, and bucket alignment."""
    from credit_ocr_backend_ray.stages.relational import interval_self_join

    rng = np.random.default_rng(77)
    for trial in range(3):
        n = 400
        s = rng.integers(0, 3600, n)
        ln = rng.integers(0, 180, n)
        k = rng.integers(0, 4, n)
        df = pd.DataFrame({
            "k": [f"g{v}" for v in k],
            "id": np.arange(n, dtype="int64"),
            "s": pd.to_datetime(s, unit="s"),
            "e": pd.to_datetime(s + ln, unit="s"),
        })
        out = interval_self_join(_ds(df), "k", "id", "s", "e",
                                 bucket_us=200_000_000).to_pandas()
        got = set(zip(out["id_a"], out["id_b"]))
        expect = set()
        for i in range(n):
            for j in range(i + 1, n):
                if (k[i] == k[j] and s[i] <= s[j] + ln[j]
                        and s[j] <= s[i] + ln[i]):
                    expect.add((i, j))
        assert got == expect, f"trial {trial}: {len(got)} vs {len(expect)}"


def test_grouping_sets_matches_duckdb_random(ray_session):
    """Random frame vs DuckDB GROUPING SETS — the same comparison the
    driver's oracle makes, on adversarial (null-key-free) data."""
    import duckdb
    from credit_ocr_backend_ray.stages.relational import grouping_sets_agg

    rng = np.random.default_rng(31)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], 500),
        "b": rng.choice(["p", "q"], 500),
        "v": rng.integers(0, 100, 500).astype("int64"),
    })
    out = (grouping_sets_agg(_ds(df), ["a", "b"],
                             [("a", "b"), ("b",), ()], {"v": "s"})
           .to_pandas())
    con = duckdb.connect()
    con.register("t", df)
    ref = con.execute(
        "SELECT a, b, sum(v) AS s, count(*) AS n FROM t "
        "GROUP BY GROUPING SETS ((a, b), (b), ())").df()
    key = ["a", "b"]
    o = (out.fillna("∅").sort_values(key + ["s"]).reset_index(drop=True))
    r = (ref.fillna("∅").sort_values(key + ["s"]).reset_index(drop=True))
    assert len(o) == len(r)
    assert (o["s"].to_numpy() == r["s"].to_numpy()).all()
    assert (o["n"].to_numpy().astype("int64")
            == r["n"].to_numpy().astype("int64")).all()


def test_bpe_prune_and_cap(ray_session):
    """The bounded-vocab contract (r5): min_word_count prunes singleton
    words DISTRIBUTED before the driver fold and is a no-op on the
    classic fixture (all word counts >= 2); max_vocab_rows raises the
    documented error instead of OOMing the fold; and the incremental
    pair-index merge loop matches a brute-force full-rescan reference
    on randomized corpora."""
    from credit_ocr_backend_ray.stages.text import learn_bpe

    rows = (["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3)
    df = pd.DataFrame({"doc_id": range(len(rows)), "text": rows})
    base = learn_bpe(_ds(df), n_merges=4)
    assert learn_bpe(_ds(df), n_merges=4, min_word_count=1) == base
    assert learn_bpe(_ds(df), n_merges=4, min_word_count=2) == base

    # singleton flood: 500 distinct one-off words + the repeated core;
    # the prune keeps only the 4 core words -> same merges, and the cap
    # is measured against the PRUNED table (4 rows clears cap=10)
    flood = df.copy()
    noise = pd.DataFrame({
        "doc_id": range(1000, 1500),
        "text": [f"zq{i}x" for i in range(500)]})
    flood = pd.concat([flood, noise], ignore_index=True)
    assert learn_bpe(_ds(flood), n_merges=4, max_vocab_rows=10) == base

    # cap error: min_word_count=1 keeps all 504 words > cap
    with pytest.raises(ValueError, match="min_word_count"):
        learn_bpe(_ds(flood), n_merges=4, min_word_count=1,
                  max_vocab_rows=100)

    # incremental == full rescan (the pre-r5 algorithm) on random data
    def brute(word_freqs, n_merges, min_pair_count=2):
        segs = {tuple(w) + ("</w>",): int(n) for w, n in word_freqs}
        merges = []
        for _ in range(n_merges):
            pairs = {}
            for sym, n in segs.items():
                for p in zip(sym, sym[1:]):
                    pairs[p] = pairs.get(p, 0) + n
            if not pairs:
                break
            best, cnt = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
            if cnt < min_pair_count:
                break
            merges.append(best)
            out = {}
            for sym, n in segs.items():
                new, i = [], 0
                while i < len(sym):
                    if i + 1 < len(sym) and (sym[i], sym[i + 1]) == best:
                        new.append(best[0] + best[1])
                        i += 2
                    else:
                        new.append(sym[i])
                        i += 1
                out[tuple(new)] = out.get(tuple(new), 0) + n
            segs = out
        return merges

    rng = np.random.default_rng(42)
    for trial in range(4):
        vocab = ["".join(rng.choice(list("abcd"),
                                    rng.integers(1, 7)))
                 for _ in range(40)]
        counts = rng.integers(2, 9, len(vocab))
        corpus = []
        for w, c in zip(vocab, counts):
            corpus.extend([w] * int(c))
        cdf = pd.DataFrame({"doc_id": range(len(corpus)),
                            "text": corpus})
        got = learn_bpe(_ds(cdf).repartition(3), n_merges=12,
                        min_word_count=1)
        # brute reference dedups identical words itself
        want = brute(
            [(w, c) for w, c in
             pd.Series(corpus).value_counts().items()], 12)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_watermark_late_events_brute_force(ray_session):
    import hashlib

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import (
        watermark_late_events)

    rng = np.random.default_rng(7)
    n = 400
    base = 1_700_000_000_000_000
    ev = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.to_datetime(
            base + rng.integers(0, 3_600_000_000, n), unit="us"),
    })
    delay = 600_000_000  # 10 min
    out = (watermark_late_events(rd.from_pandas(ev).repartition(5),
                                 delay_us=delay, n_buckets=8)
           .to_pandas().sort_values("event_id").reset_index(drop=True))

    # brute force: one local scan in md5-arrival order
    h = ev["event_id"].map(lambda i: int.from_bytes(
        hashlib.md5(str(i).encode()).digest()[:4], "big"))
    o = ev.assign(__h=h,
                  tus=ev["ts"].astype("datetime64[us]").astype("int64")) \
          .sort_values(["__h", "event_id"])
    o["hw"] = o["tus"].cummax()
    o["late"] = (o["tus"] < o["hw"] - delay).astype(np.int64)
    o = o.sort_values("event_id").reset_index(drop=True)

    assert out["event_id"].tolist() == o["event_id"].tolist()
    assert out["high_watermark_us"].tolist() == o["hw"].tolist()
    assert out["late"].tolist() == o["late"].tolist()
    assert 0 < out["late"].sum() < n  # the gate actually splits the set


def test_global_row_number_matches_argsort(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import global_row_number

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "id": np.arange(300, dtype=np.int64),
        # heavy ties: only 12 distinct values, exercises in-bucket order
        "v": rng.integers(0, 12, 300).astype(np.float64),
    })
    out = (global_row_number(rd.from_pandas(df).repartition(6),
                             "v", "id", n_buckets=16)
           .to_pandas().sort_values("row_num").reset_index(drop=True))
    want = df.sort_values(["v", "id"]).reset_index(drop=True)
    assert out["id"].tolist() == want["id"].tolist()
    assert out["row_num"].tolist() == list(range(1, 301))


def test_global_row_number_constant_column(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import global_row_number

    df = pd.DataFrame({"id": np.arange(50, dtype=np.int64),
                       "v": np.zeros(50)})
    out = (global_row_number(rd.from_pandas(df).repartition(3), "v", "id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert out["row_num"].tolist() == list(range(1, 51))


def test_prefix_jaccard_join_complete_vs_bruteforce(ray_session):
    from credit_ocr_backend_ray.stages.dedup import (
        _char_gram_set, prefix_jaccard_join)

    # deterministic corpus with planted near-dups AND heavy shared
    # vocabulary (every doc shares the same stem, so frequent grams
    # exercise the common-rank table ordering)
    rng = np.random.default_rng(11)
    stem = "the quick brown fox jumps over the lazy dog again and again "
    docs = []
    for i in range(40):
        tail = "".join(chr(97 + c) for c in rng.integers(0, 26, size=30))
        docs.append((i, stem + tail))
    docs.append((100, docs[0][1] + "x"))          # near-dup of 0
    docs.append((101, docs[1][1][:-2]))           # near-dup of 1
    docs.append((102, None))                      # null text
    docs.append((103, "short"))                   # < gram_n chars
    df = pd.DataFrame(docs, columns=["doc_id", "text"])

    tau = 700_000
    out = prefix_jaccard_join(_ds(df).repartition(4), threshold_micro=tau,
                              gram_n=8, common_k=16)
    got = {(a, b): m for a, b, m in
           zip(out["id_a"], out["id_b"], out["jaccard_micro"])}

    # brute-force ground truth: EVERY pair, exact integer micro score
    sets = {i: _char_gram_set(t, 8) for i, t in docs}
    want = {}
    ids = sorted(sets)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = ids[x], ids[y]
            u = len(sets[a] | sets[b])
            if u == 0:
                continue
            m = len(sets[a] & sets[b]) * 1_000_000 // u
            if m >= tau:
                want[(a, b)] = m
    assert got == want           # complete (no false negatives) AND exact
    assert (0, 100) in got and (1, 101) in got


def test_prefix_jaccard_join_bucket_cap_raises(ray_session):
    from credit_ocr_backend_ray.stages.dedup import prefix_jaccard_join

    # every doc identical -> one posting list holds all ids -> with a
    # tiny cap the op must FAIL LOUDLY, never silently truncate
    df = pd.DataFrame({"doc_id": np.arange(30, dtype=np.int64),
                       "text": ["abcdefghij klmnopqrst"] * 30})
    with pytest.raises(Exception, match="bucket_cap"):
        prefix_jaccard_join(_ds(df), threshold_micro=900_000, gram_n=8,
                            bucket_cap=8)


def test_empty_schema_dedupe_warning_suppressed(ray_session):
    """Regression for the "new schema: ." log spam: ray 2.49.2's
    dedupe_schemas_with_validation returns silently when the OLD schema
    is empty but warns when the NEW bundle's schema is empty — a
    zero-row bundle carries no schema information, so that is not a
    divergence either. compat.install_schema_dedupe_warning_patch
    (installed at package import) passes warn=False for that case only;
    real divergences (two non-empty mismatched schemas) still warn."""
    import logging

    import pyarrow as pa
    from ray.data._internal.execution import streaming_executor_state as ses

    from credit_ocr_backend_ray.compat import (
        install_schema_dedupe_warning_patch)

    assert install_schema_dedupe_warning_patch()  # idempotent: already on

    class _Bundle:
        # duck-typed RefBundle: the divergence path rebuilds the bundle
        # from these attributes after (maybe) warning
        def __init__(self, schema):
            self.schema = schema
            self.blocks = ()
            self.owns_blocks = False
            self.output_split_idx = None
            self._cached_object_meta = None
            self._cached_preferred_locations = None

    records: list[logging.LogRecord] = []

    class _Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    lg = ses.logger
    h = _Capture()
    lg.addHandler(h)
    prev_level = lg.level
    lg.setLevel(logging.WARNING)  # the test session raises it to ERROR
    old = pa.schema([("a", pa.int64())])
    try:
        # empty new schema: silent
        ses.dedupe_schemas_with_validation(old, _Bundle(None), warn=True)
        n_after_empty = len([r for r in records
                             if "different schema" in r.getMessage()])
        # genuinely divergent non-empty schema: still warns
        ses.dedupe_schemas_with_validation(
            old, _Bundle(pa.schema([("b", pa.string())])), warn=True)
        n_after_diverged = len([r for r in records
                                if "different schema" in r.getMessage()])
    finally:
        lg.removeHandler(h)
        lg.setLevel(prev_level)
    assert n_after_empty == 0
    assert n_after_diverged == 1


def test_grouped_rank_features_sql_semantics(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import (
        grouped_rank_features)

    # group a: values [5, 7, 7, 9] -> rank 1,2,2,4 (min-rank, gaps);
    # n=4 -> pct = 0, 333333, 333333, 1000000; ntile(3) over
    # (val, id): sizes 2,1,1 -> tiles 1,1,2,3
    # group b: single row -> rank 1, pct 0 (percent_rank convention),
    # tile 1; a null value row is dropped by contract
    df = pd.DataFrame({
        "k": ["a", "a", "a", "a", "b", "b"],
        "v": [7.0, 5.0, 9.0, 7.0, 3.0, None],
        "id": [2, 1, 4, 3, 9, 10]})
    out = (grouped_rank_features(rd.from_pandas(df).repartition(3),
                                 ["k"], "v", "id", n_tiles=3)
           .to_pandas().sort_values(["k", "rnk", "id"])
           .reset_index(drop=True))
    assert out["id"].tolist() == [1, 2, 3, 4, 9]
    assert out["rnk"].tolist() == [1, 2, 2, 4, 1]
    assert out["pct_rank_micro"].tolist() == [
        0, 333_333, 333_333, 1_000_000, 0]
    assert out["tile"].tolist() == [1, 1, 2, 3, 1]

    # randomized differential vs DuckDB window functions
    import duckdb
    rng = np.random.default_rng(11)
    big = pd.DataFrame({
        "k": rng.choice(list("pqrs"), 400),
        "v": rng.integers(0, 25, 400).astype(float),
        "id": np.arange(400)})
    out = (grouped_rank_features(rd.from_pandas(big).repartition(5),
                                 ["k"], "v", "id", n_tiles=7)
           .to_pandas().sort_values("id").reset_index(drop=True))
    want = duckdb.sql("""
        SELECT id, k,
               CAST(rank() OVER w1 AS BIGINT) AS rnk,
               CAST(CASE WHEN n > 1
                    THEN (rank() OVER w1 - 1) * 1000000 // (n - 1)
                    ELSE 0 END AS BIGINT) AS pct_rank_micro,
               CAST(ntile(7) OVER w2 AS BIGINT) AS tile
        FROM (SELECT *, count(*) OVER (PARTITION BY k) AS n FROM big)
        WINDOW w1 AS (PARTITION BY k ORDER BY v),
               w2 AS (PARTITION BY k ORDER BY v, id)
        ORDER BY id
    """).df()
    pd.testing.assert_frame_equal(
        out[["id", "k", "rnk", "pct_rank_micro", "tile"]],
        want, check_dtype=False)


def test_scd2_intervals_collapse_and_current(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import scd2_intervals

    ts = pd.to_datetime(
        ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04",
         "2024-01-05", "2024-01-01", "2024-01-02"])
    df = pd.DataFrame({
        "u": [1, 1, 1, 1, 1, 2, 2],
        "ts": ts,
        "st": ["A", "A", "B", None, "A", "X", "X"],
        "id": [10, 11, 12, 13, 14, 20, 21]})
    out = (scd2_intervals(rd.from_pandas(df).repartition(3),
                          "u", "ts", "st", "id")
           .to_pandas().sort_values(["u", "valid_from"])
           .reset_index(drop=True))
    # u1: A (01-01, run of 2 collapses; null row dropped) -> B (01-03)
    # -> A again (01-05, re-entry is a NEW interval); u2: one X run
    assert out["u"].tolist() == [1, 1, 1, 2]
    assert out["st"].tolist() == ["A", "B", "A", "X"]
    assert [str(v)[:10] for v in out["valid_from"]] == [
        "2024-01-01", "2024-01-03", "2024-01-05", "2024-01-01"]
    assert [str(v)[:10] for v in out["valid_to"][:2]] == [
        "2024-01-03", "2024-01-05"]
    assert pd.isna(out["valid_to"][2]) and pd.isna(out["valid_to"][3])

    # same-ts tie breaks by id: (ts, id) order is the contract
    tie = pd.DataFrame({
        "u": [5, 5], "ts": pd.to_datetime(["2024-02-01", "2024-02-01"]),
        "st": ["P", "Q"], "id": [2, 1]})
    out = (scd2_intervals(rd.from_pandas(tie), "u", "ts", "st", "id")
           .to_pandas().sort_values("valid_from").reset_index(drop=True))
    assert out["st"].tolist() == ["Q", "P"]


def test_equidepth_histogram_exact_split(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import (
        equidepth_histogram)

    # 10 rows, 3 bins -> sizes 4, 3, 3 (first n%bins bins get +1);
    # a null value drops
    df = pd.DataFrame({"id": range(11),
                       "v": [5.0, 1, 9, 3, 7, 2, 8, 4, 6, 0, None]})
    out = equidepth_histogram(rd.from_pandas(df).repartition(3),
                              "v", "id", n_bins=3, n_buckets=8)
    assert out["bin"].tolist() == [1, 2, 3]
    assert out["n"].tolist() == [4, 3, 3]
    assert out["min_v"].tolist() == [0.0, 4.0, 7.0]
    assert out["max_v"].tolist() == [3.0, 6.0, 9.0]

    # heavy ties: equal values share buckets, counts still exact
    tied = pd.DataFrame({"id": range(9), "v": [1.0] * 6 + [2.0] * 3})
    out = equidepth_histogram(rd.from_pandas(tied).repartition(2),
                              "v", "id", n_bins=3, n_buckets=4)
    assert out["n"].tolist() == [3, 3, 3]
    assert out["min_v"].tolist() == [1.0, 1.0, 2.0]


def test_grouped_weighted_median_exact(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import (
        grouped_weighted_median)

    # group a: values 1(w3), 2(w1), 5(w2); W=6, half=3 -> cum at v=1 is
    # 3, 2*3 >= 6 -> wmedian = 1 (lower weighted median). group b:
    # 10(w1), 20(w1) -> cum at 10 is 1, 2 >= 2 -> 10. null value and
    # null weight rows drop
    df = pd.DataFrame({
        "k": ["a", "a", "a", "a", "b", "b", "b", "b"],
        "v": [1.0, 1.0, 2.0, 5.0, 10.0, 20.0, None, 30.0],
        "w": [2, 1, 1, 2, 1, 1, 5, None]})
    out = (grouped_weighted_median(rd.from_pandas(df).repartition(3),
                                   ["k"], "v", "w")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == ["a", "b"]
    assert out["wmedian"].tolist() == [1.0, 10.0]
    assert out["total_w"].tolist() == [6, 2]

    # duplicated rows across partitions combine exactly (the combiner
    # pre-agg must sum weights per (k, v), not keep per-batch rows)
    big = pd.DataFrame({"k": ["x"] * 1000,
                        "v": [float(i % 10) for i in range(1000)],
                        "w": [1] * 1000})
    out = (grouped_weighted_median(rd.from_pandas(big).repartition(8),
                                   ["k"], "v", "w")
           .to_pandas())
    # uniform weights over 0..9 -> cum at v=4 is 500, 2*500 >= 1000
    assert out["wmedian"].tolist() == [4.0]
    assert out["total_w"].tolist() == [1000]


def test_gini_concentration_exact(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import (
        _exact_dot, gini_concentration)

    # values 1, 1, 8 at scale 100 -> cents 100, 100, 800; ascending
    # ranks 1,2,3 (tie order irrelevant: equal values commute in
    # sum(rank*x)); W = 100 + 200 + 2400 = 2700, S = 1000, n = 3 ->
    # gini_micro = (5400 - 4000) * 1e6 // 3000 = 466666. A null drops.
    df = pd.DataFrame({"v": [1.0, 8.0, None, 1.0]})
    out = gini_concentration(rd.from_pandas(df).repartition(3), "v",
                             scale=100, n_buckets=4)
    assert out["n"].tolist() == [3]
    assert out["sum_scaled"].tolist() == [1000]
    assert out["gini_micro"].tolist() == [466666]

    # perfectly equal distribution -> exactly 0
    eq = pd.DataFrame({"v": [5.0] * 4})
    out = gini_concentration(rd.from_pandas(eq).repartition(2), "v")
    assert out["gini_micro"].tolist() == [0]

    # all-null input -> n 0, gini null
    out = gini_concentration(
        rd.from_pandas(pd.DataFrame({"v": [None, None]})), "v")
    assert out["n"].tolist() == [0]
    assert out["gini_micro"].isna().all()

    # _exact_dot stays exact where a straight int64 dot overflows:
    # five products of 2**62 each (chunk size degrades to 1)
    import numpy as np
    a = np.full(5, 2**31, dtype=np.int64)
    assert _exact_dot(a, a) == 5 * (2**62)
    assert _exact_dot(np.array([], dtype=np.int64),
                      np.array([], dtype=np.int64)) == 0


def test_time_band_join_composite_overflow_guard(ray_session):
    """ADVICE r4: the code*span int64-overflow guard must be an explicit
    ValueError (an assert vanishes under python -O and the wrapped
    composite silently emits wrong pairs). One key whose rows span ~4e18
    us pushes (n_keys+1)*span past 2**62 in whichever shard holds it."""
    import pandas as pd
    import pytest

    from credit_ocr_backend_ray.stages.relational import time_band_join

    t0 = pd.Timestamp(0).as_unit("us")
    far = pd.Timestamp(4 * 10**18, unit="us")
    left = pd.DataFrame({"k": [1, 1], "ts": [t0, far], "lid": [1, 2]})
    right = pd.DataFrame({"k": [1, 1], "ts": [t0, far], "rid": [7, 8]})
    with pytest.raises(Exception, match="composite overflow"):
        (time_band_join(_ds(left), _ds(right), "k", "k", "ts", "ts",
                        band_us=1_000_000, left_cols=["lid"],
                        right_cols=["rid"])
         .to_pandas())


def test_grouped_moments_exact(ray_session):
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import grouped_moments

    # group a: cents 100, 200 -> s1=300, s2=50000, s3=9_000_000;
    # group b: 3.005 quantizes floor(300.5+0.5)=301; null drops
    df = pd.DataFrame({"k": ["a", "a", "b", "b"],
                       "v": [1.0, 2.0, 3.005, None]})
    out = (grouped_moments(rd.from_pandas(df).repartition(3), ["k"], "v",
                           scale=100)
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["n"].tolist() == [2, 1]
    assert out["s1_scaled"].tolist() == ["300", "301"]
    assert out["s2_scaled"].tolist() == ["50000", "90601"]
    assert out["s3_scaled"].tolist() == [str(100**3 + 200**3),
                                         str(301**3)]

    # limb-split cube fold stays exact at the 2**31 cap where a straight
    # int64 dot would overflow after two rows
    c = 2**31 - 1
    big = pd.DataFrame({"k": ["x"] * 1000, "v": [float(c)] * 1000})
    out = (grouped_moments(rd.from_pandas(big).repartition(8), ["k"],
                           "v", scale=1).to_pandas())
    assert out["s3_scaled"].tolist() == [str(1000 * c**3)]
    assert out["s2_scaled"].tolist() == [str(1000 * c**2)]

    # guards: over-cap quantized value and negative input raise
    with pytest.raises(Exception, match="lower scale"):
        grouped_moments(rd.from_pandas(pd.DataFrame(
            {"k": ["a"], "v": [float(2**33)]})), ["k"], "v",
            scale=1).to_pandas()
    with pytest.raises(Exception, match="non-negative"):
        grouped_moments(rd.from_pandas(pd.DataFrame(
            {"k": ["a"], "v": [-1.0]})), ["k"], "v").to_pandas()


def test_snm_pairs_exact(ray_session):
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from credit_ocr_backend_ray.stages.dedup import snm_pairs

    # 10 rows, shuffled input, key == 10*id so sort order == id order;
    # bucket_size=4 forces boundary replication between rank buckets
    rng = np.random.default_rng(7)
    ids = np.arange(1, 11)
    perm = rng.permutation(10)
    df = pd.DataFrame({"id": ids[perm], "k": (ids * 10.0)[perm]})
    out = (snm_pairs(rd.from_pandas(df).repartition(3), "k", "id",
                     window=2, bucket_size=4, n_buckets=8)
           .to_pandas().sort_values(["a_id", "gap"])
           .reset_index(drop=True))
    expect = [(a, a + j, j) for a in range(1, 11) for j in (1, 2)
              if a + j <= 10]
    got = list(zip(out["a_id"], out["b_id"], out["gap"]))
    assert sorted(got) == sorted(expect)

    # a null key has no sort position and drops
    df2 = pd.DataFrame({"id": [1, 2, 3], "k": [1.0, None, 3.0]})
    out = (snm_pairs(rd.from_pandas(df2), "k", "id", window=1)
           .to_pandas())
    assert list(zip(out["a_id"], out["b_id"])) == [(1, 3)]

    with pytest.raises(ValueError, match="bucket_size"):
        snm_pairs(rd.from_pandas(df2), "k", "id", window=8,
                  bucket_size=4)


def test_containment_join_planted_and_differential(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.dedup import (_char_gram_set,
                                                     containment_join)

    base = ("the quick brown fox jumps over the lazy dog while "
            "seventeen green bottles stand on the wall near the old "
            "stone bridge by the river bend in late autumn light")
    quote = base[20:80]  # short doc fully embedded in the long one
    other = "completely unrelated text about distributed query engines"
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": [base, quote, other]})
    out = containment_join(rd.from_pandas(df).repartition(2),
                           threshold_micro=900_000, gram_n=8)
    got = set(zip(out["id_a"], out["id_b"]))
    # the quote is contained in the base (2 -> 1); not vice versa
    assert (2, 1) in got
    assert (1, 2) not in got
    assert not any(3 in p for p in got)

    # mutual near-duplicates emit BOTH orientations
    df = pd.DataFrame({"doc_id": [1, 2], "text": [base, base + "x"]})
    out = containment_join(rd.from_pandas(df), threshold_micro=900_000)
    assert {(1, 2), (2, 1)} <= set(zip(out["id_a"], out["id_b"]))

    # randomized completeness differential vs brute force
    rng = np.random.default_rng(11)
    frags = ["".join(rng.choice(list("abcdef gh"), 30)) for _ in range(8)]
    texts = ["".join(rng.choice(frags,
                                rng.integers(1, 4), replace=True))
             for _ in range(40)]
    df = pd.DataFrame({"doc_id": range(40), "text": texts})
    t = 700_000
    out = containment_join(rd.from_pandas(df).repartition(4),
                           threshold_micro=t, gram_n=8)
    got = set(zip(out["id_a"], out["id_b"]))
    sets = {i: _char_gram_set(s, 8) for i, s in enumerate(texts)}
    expect = set()
    for a in range(40):
        for b in range(40):
            if a != b and sets[a]:
                if len(sets[a] & sets[b]) * 1_000_000 // len(sets[a]) >= t:
                    expect.add((a, b))
    assert got == expect


def test_welch_t_pairs_exact(ray_session):
    import math

    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import welch_t_pairs

    # groups: a=[1..4], b=[10,10,11], c=[5] (n=1 -> excluded)
    df = pd.DataFrame({
        "k": ["a"] * 4 + ["b"] * 3 + ["c"],
        "v": [1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 11.0, 5.0]})
    out = welch_t_pairs(rd.from_pandas(df).repartition(3), "k", "v",
                        scale=1)
    assert list(zip(out["key_a"], out["key_b"])) == [("a", "b")]

    def expect(xa, xb):
        na, nb = len(xa), len(xb)
        s1a, s2a = sum(xa), sum(x * x for x in xa)
        s1b, s2b = sum(xb), sum(x * x for x in xb)
        ma = float(s1a) / float(na)
        mb = float(s1b) / float(nb)
        va = (float(s2a) - float(s1a) * ma) / float(na - 1)
        vb = (float(s2b) - float(s1b) * mb) / float(nb - 1)
        sa, sb = va / float(na), vb / float(nb)
        se2 = sa + sb
        t = math.floor((ma - mb) / math.sqrt(se2) * 1e6)
        den = sa * sa / float(na - 1) + sb * sb / float(nb - 1)
        return t, math.floor(se2 * se2 / den * 1e6)

    t, dfm = expect([1, 2, 3, 4], [10, 10, 11])
    assert out["t_micro"].tolist() == [t]
    assert out["df_micro"].tolist() == [dfm]
    assert t < 0  # mean(a) < mean(b)

    # two constant groups: se2 == 0 -> null t and df
    cg = pd.DataFrame({"k": ["x", "x", "y", "y"],
                       "v": [2.0, 2.0, 7.0, 7.0]})
    out = welch_t_pairs(rd.from_pandas(cg), "k", "v", scale=1)
    assert out["t_micro"].isna().all()
    assert out["df_micro"].isna().all()


def test_theil_index_exact(ray_session):
    import math

    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import theil_index

    # groups: a=[1,1], b=[6] at scale 1 -> cents 1,1,6; n=3 A=8
    df = pd.DataFrame({"g": ["a", "a", "b", "b"],
                       "v": [1.0, 1.0, 6.0, None]})
    out = theil_index(rd.from_pandas(df).repartition(3), "v", "g",
                      scale=1)
    n, a = 3, 8
    mu = float(a) / float(n)
    tsum = sum(math.floor((float(x) / mu) * math.log(float(x) / mu)
                          * 1e12) for x in (1, 1, 6))
    bet = 0
    for ng, sg in ((2, 2), (1, 6)):
        share = float(sg) / float(a)
        pg = float(ng) / float(n)
        bet += math.floor(share * math.log(share / pg) * 1e12)
    assert out["n"].tolist() == [3]
    assert out["sum_scaled"].tolist() == [8]
    want_t = abs(tsum) // n if tsum >= 0 else -(abs(tsum) // n)
    assert out["theil_pico"].tolist() == [want_t]
    assert out["between_pico"].tolist() == [bet]
    # within-group inequality is 0 here, so between == total up to
    # independent pico floors (each floored separately, +-n pico slack)
    assert want_t > 0 and bet > 0 and abs(bet - want_t) <= n

    # perfectly equal values -> T == 0 and between == 0
    eq = pd.DataFrame({"g": ["a", "b"], "v": [3.0, 3.0]})
    out = theil_index(rd.from_pandas(eq), "v", "g", scale=1)
    assert out["theil_pico"].tolist() == [0]
    assert out["between_pico"].tolist() == [0]

    # empty / all-null -> n 0, nulls
    out = theil_index(rd.from_pandas(
        pd.DataFrame({"g": [None], "v": [None]})), "v", "g")
    assert out["n"].tolist() == [0]
    assert out["theil_pico"].isna().all()

    # a null group is a group of its own (the oracle's GROUP BY keeps
    # NULL): a=[1,3], NULL=[6] -> n=3, A=10
    nul = pd.DataFrame({"g": ["a", None, "a"], "v": [1.0, 6.0, 3.0]})
    out = theil_index(rd.from_pandas(nul).repartition(2), "v", "g",
                      scale=1)
    assert out["n"].tolist() == [3]
    assert out["sum_scaled"].tolist() == [10]
    assert out["theil_pico"].tolist() == [200666563810]
    assert out["between_pico"].tolist() == [148341749434]


def test_time_decayed_sum_exact(ray_session):
    import math

    import pandas as pd
    import pytest
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import time_decayed_sum

    anchor = pd.Timestamp("2024-02-01").value // 1000
    lam = math.log(2.0) / 14.0

    def w(cents, days):
        return math.floor(float(cents)
                          * math.exp(-float(days) * lam) * 1e6)

    df = pd.DataFrame({
        "u": [1, 1, 2, 2],
        "ts": [pd.Timestamp("2024-01-31 12:00"),   # d=0
               pd.Timestamp("2024-01-18"),          # d=14 (half-life)
               pd.Timestamp("2024-01-04"),          # d=28
               pd.Timestamp("2024-01-10")],
        "v": [1.0, 2.0, 3.0, None]})                # null drops
    out = (time_decayed_sum(rd.from_pandas(df).repartition(3), ["u"],
                            "ts", "v", anchor_us=anchor,
                            half_life_days=14.0, scale=100)
           .to_pandas().sort_values("u").reset_index(drop=True))
    assert out["n"].tolist() == [2, 1]
    assert out["decayed_micro"].tolist() == [
        str(w(100, 0) + w(200, 14)), str(w(300, 28))]
    # half-life sanity: the 14-day-old 2.00 decays to ~the fresh 1.00
    assert abs(w(200, 14) - w(100, 0)) <= 1

    # timestamps after the anchor violate the // parity contract
    late = pd.DataFrame({"u": [1],
                         "ts": [pd.Timestamp("2024-03-01")],
                         "v": [1.0]})
    with pytest.raises(Exception, match="anchor_us"):
        time_decayed_sum(rd.from_pandas(late), ["u"], "ts", "v",
                         anchor_us=anchor).to_pandas()


def test_global_cumsum_exact(ray_session):
    import pandas as pd
    import ray.data as rd

    from credit_ocr_backend_ray.stages.relational import global_cumsum

    # running sum over (v, id) order without a global sort; ties on v
    # break by id; 3 partitions + 8 value buckets exercise the
    # cross-bucket prefix offsets
    df = pd.DataFrame({"id": [3, 1, 2, 5, 4],
                       "v": [10.0, 5.0, 5.0, 20.0, 10.0],
                       "x": [7, 1, 2, 100, 3]})
    out = (global_cumsum(rd.from_pandas(df).repartition(3), "v", "id",
                         "x", n_buckets=8)
           .to_pandas().sort_values("cum").reset_index(drop=True))
    # order: (5,1),(5,2),(10,3),(10,4),(20,5) -> cums 1,3,10,13,113
    assert out["id"].tolist() == [1, 2, 3, 4, 5]
    assert out["cum"].tolist() == [1, 3, 10, 13, 113]

    # empty input -> empty output, no crash
    out = global_cumsum(rd.from_pandas(
        pd.DataFrame({"id": pd.array([], dtype="int64"),
                      "v": pd.array([], dtype="float64"),
                      "x": pd.array([], dtype="int64")})), "v", "id",
        "x")
    assert out.count() == 0


def test_gini_and_calibration_guards(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from credit_ocr_backend_ray.stages.curate import calibration_bins
    from credit_ocr_backend_ray.stages.relational import (
        gini_concentration)

    with pytest.raises(Exception, match="non-negative"):
        gini_concentration(rd.from_pandas(
            pd.DataFrame({"v": [1.0, -2.0]})), "v", scale=1)
    with pytest.raises(Exception, match="0/1"):
        calibration_bins(rd.from_pandas(
            pd.DataFrame({"s": [1, 2], "y": [0, 3]})), "s", "y")


@pytest.mark.parametrize("n", [1, 3])
def test_order_price_pctrank_tiny_orders_matches_oracle(ray_session, tmp_path,
                                                        n):
    """``order_price_pctrank`` on a 1-row and a 3-row ``orders`` table:
    the kernel and DuckDB running its oracle SQL agree, and a lone row
    ranks 0 on both sides (no division by n - 1 = 0)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    orders = pd.DataFrame({"o_orderkey": [7, 3, 5][:n],
                           "o_totalprice": [10.5, 99.25, 10.5][:n]})
    pq.write_table(pa.Table.from_pandas(orders, preserve_index=False),
                   str(tmp_path / "orders.parquet"))
    got = (entry.queries()["order_price_pctrank"](str(tmp_path))
           .to_pandas().sort_values("o_orderkey"))
    con = duckdb.connect()
    con.register("orders", orders)
    want = (con.execute(entry.oracle_sql()["order_price_pctrank"]).df()
            .sort_values("o_orderkey"))
    cols = ["o_orderkey", "o_totalprice", "pctrank_micro"]
    assert got[cols].values.tolist() == want[cols].values.tolist()
    if n == 1:
        assert want["pctrank_micro"].tolist() == [0]
