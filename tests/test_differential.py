"""Differential tests: distributed operators vs independent single-process
reference implementations (pandas/numpy) on randomized inputs — beyond the
reference repo's fixture-only test strategy (SURVEY §5: it has no
property-based/randomized testing)."""

import numpy as np
import pandas as pd


def _ds(df):
    import ray.data as rd
    return rd.from_pandas(df)


def _rand_frames(seed):
    rng = np.random.default_rng(seed)
    n_l, n_r = rng.integers(5, 60), rng.integers(3, 40)
    keys = rng.integers(0, 6, n_l)
    left = pd.DataFrame({
        "k": keys,
        "lts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 10_000, n_l), unit="m"),
        "lid": np.arange(n_l, dtype="int64"),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 6, n_r),
        "rts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 10_000, n_r), unit="m"),
        "rid": np.arange(n_r, dtype="int64") + 1000,
    })
    left["lts"] = left["lts"].astype("datetime64[us]")
    right["rts"] = right["rts"].astype("datetime64[us]")
    # unique (k, rts) on the right so tie rules don't diverge from
    # merge_asof (which keeps the LAST row of equal timestamps)
    right = right.drop_duplicates(["k", "rts"]).reset_index(drop=True)
    return left, right


def test_asof_backward_matches_pandas_merge_asof(ray_session):
    from credit_ocr_backend_ray.stages.relational import asof_join

    for seed in range(8):
        left, right = _rand_frames(seed)
        ours = (asof_join(_ds(left), _ds(right), "k", "k", "lts", "rts",
                          ["lid"], ["rid"])
                .to_pandas().sort_values("lid").reset_index(drop=True))
        exp = pd.merge_asof(left.sort_values("lts"),
                            right.sort_values("rts"),
                            left_on="lts", right_on="rts", by="k",
                            direction="backward")
        exp = (exp[exp["rid"].notna()].sort_values("lid")
               .reset_index(drop=True))
        assert ours["lid"].tolist() == exp["lid"].tolist(), f"seed {seed}"
        assert ours["rid"].tolist() == [int(x) for x in exp["rid"]], (
            f"seed {seed}")


def test_asof_forward_matches_pandas_merge_asof(ray_session):
    from credit_ocr_backend_ray.stages.relational import asof_join

    for seed in range(8):
        left, right = _rand_frames(100 + seed)
        ours = (asof_join(_ds(left), _ds(right), "k", "k", "lts", "rts",
                          ["lid"], ["rid"], direction="forward")
                .to_pandas().sort_values("lid").reset_index(drop=True))
        exp = pd.merge_asof(left.sort_values("lts"),
                            right.sort_values("rts"),
                            left_on="lts", right_on="rts", by="k",
                            direction="forward")
        exp = (exp[exp["rid"].notna()].sort_values("lid")
               .reset_index(drop=True))
        assert ours["lid"].tolist() == exp["lid"].tolist(), f"seed {seed}"
        assert ours["rid"].tolist() == [int(x) for x in exp["rid"]], (
            f"seed {seed}")


def test_set_ops_match_pandas(ray_session):
    from credit_ocr_backend_ray.stages.relational import set_op

    rng = np.random.default_rng(7)
    for seed in range(5):
        a = pd.DataFrame({"k": rng.integers(0, 30, 50)})
        b = pd.DataFrame({"k": rng.integers(0, 30, 50)})
        inter = sorted(set_op(_ds(a), _ds(b), ["k"], "intersect")
                       .to_pandas()["k"])
        exc = sorted(set_op(_ds(a), _ds(b), ["k"], "except")
                     .to_pandas()["k"])
        sa, sb = set(a["k"]), set(b["k"])
        assert inter == sorted(sa & sb), f"seed {seed}"
        assert exc == sorted(sa - sb), f"seed {seed}"


def test_grouped_agg_matches_pandas(ray_session):
    from credit_ocr_backend_ray.stages.relational import grouped_agg

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": rng.integers(0, 10, 500),
        "v": rng.integers(0, 1000, 500).astype("int64"),  # int: exact sums
    })
    ours = (grouped_agg(_ds(df), ["g"], {"v": "sum_v"})
            .to_pandas().sort_values("g").reset_index(drop=True))
    exp = (df.groupby("g", as_index=False)
           .agg(sum_v=("v", "sum"), n=("v", "size"))
           .sort_values("g").reset_index(drop=True))
    assert ours["sum_v"].tolist() == exp["sum_v"].tolist()
    assert ours["n"].tolist() == exp["n"].tolist()


def test_grouped_agg_matches_pandas_with_null_key(ray_session):
    """grouped_agg (Arrow partials, coarse key-hash shard co-group, Arrow
    fold) matches pandas on multi-column keys, string keys, a null key
    group and keys spread across many input blocks."""
    from credit_ocr_backend_ray.stages.relational import grouped_agg

    rng = np.random.default_rng(11)
    n = 2_000
    df = pd.DataFrame({
        "s": [f"tok{int(i)}" if i % 17 else None
              for i in rng.integers(0, 400, n)],
        "g": rng.integers(0, 50, n),
        "v": rng.integers(0, 1000, n).astype("int64"),
    })

    src = _ds(df).repartition(37)  # many small partial blocks
    got = grouped_agg(src, ["s", "g"], {"v": "sum_v"}).to_pandas()
    got["s"] = got["s"].fillna("<null>")
    got = (got.sort_values(["s", "g"]).reset_index(drop=True)
           [["s", "g", "sum_v", "n"]])
    exp = (df.groupby(["s", "g"], as_index=False, dropna=False)
           .agg(sum_v=("v", "sum"), n=("v", "size")))
    exp["s"] = exp["s"].fillna("<null>")
    exp = exp.sort_values(["s", "g"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp[["s", "g", "sum_v", "n"]],
                                  check_dtype=False)


def test_running_sum_matches_pandas_window(ray_session):
    from credit_ocr_backend_ray.stages.relational import running_sum

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "k": rng.integers(0, 5, 200),
        "o": rng.permutation(200).astype("int64"),
        "v": rng.integers(0, 100, 200).astype("int64"),
    })
    ours = (running_sum(_ds(df), "k", ["o"], "v")
            .to_pandas().sort_values(["k", "o"]).reset_index(drop=True))
    exp = df.sort_values(["k", "o"]).reset_index(drop=True)
    exp["running_total"] = exp.groupby("k")["v"].cumsum()
    assert ours["running_total"].tolist() == exp["running_total"].tolist()


def test_asof_broadcast_matches_shuffle_version(ray_session):
    from credit_ocr_backend_ray.stages.relational import (
        asof_join, asof_join_broadcast)

    for seed in range(6):
        left, right = _rand_frames(200 + seed)
        shuffle = (asof_join(_ds(left), _ds(right), "k", "k", "lts", "rts",
                             ["lid"], ["rid"])
                   .to_pandas().sort_values("lid").reset_index(drop=True))
        bc = (asof_join_broadcast(_ds(left), right, "k", "k", "lts", "rts",
                                  ["rid"])
              .to_pandas().sort_values("lid").reset_index(drop=True))
        assert shuffle["lid"].tolist() == bc["lid"].tolist(), f"seed {seed}"
        assert shuffle["rid"].tolist() == bc["rid"].tolist(), f"seed {seed}"
        fwd_s = (asof_join(_ds(left), _ds(right), "k", "k", "lts", "rts",
                           ["lid"], ["rid"], direction="forward")
                 .to_pandas().sort_values("lid").reset_index(drop=True))
        fwd_b = (asof_join_broadcast(_ds(left), right, "k", "k", "lts",
                                     "rts", ["rid"], direction="forward")
                 .to_pandas().sort_values("lid").reset_index(drop=True))
        assert fwd_s["rid"].tolist() == fwd_b["rid"].tolist(), f"seed {seed}"
