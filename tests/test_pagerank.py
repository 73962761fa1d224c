"""Distributed PageRank (stages/graph.py): known closed forms on tiny
graphs, dangling-mass conservation, convergence. Iteration counts are
capped (each iteration is two co-group shuffles; the fixture cluster has
4 CPUs) and tolerances sized to the d^k residual at that cap."""

import numpy as np
import pandas as pd
import pytest


def _ds(df):
    import ray.data as rd
    return rd.from_pandas(df)


def _ranks(edges, **kw):
    from credit_ocr_backend_ray.stages.graph import pagerank
    out, iters = pagerank(_ds(pd.DataFrame(edges)), **kw)
    df = out.to_pandas().sort_values("node").reset_index(drop=True)
    return df, iters


def test_pagerank_cycle_is_uniform(ray_session):
    # 0 -> 1 -> 2 -> 0: perfectly symmetric; the uniform start IS the
    # fixpoint, so the delta check exits after ONE iteration
    df, iters = _ranks({"src": [0, 1, 2], "dst": [1, 2, 0]})
    assert df["rank"].to_numpy() == pytest.approx([1.0, 1.0, 1.0],
                                                  abs=1e-9)
    assert iters == 1


def test_pagerank_star_hub_dominates_and_mass_conserved(ray_session):
    # leaves 1..4 all point at hub 0; hub points back at leaf 1
    edges = {"src": [1, 2, 3, 4, 0], "dst": [0, 0, 0, 0, 1]}
    df, _ = _ranks(edges, max_iter=15)
    r = dict(zip(df["node"], df["rank"]))
    assert r[0] == max(r.values())
    assert r[1] > r[2]          # leaf 1 gets the hub's whole out-vote
    assert r[2] == pytest.approx(r[3], abs=1e-12)  # exact symmetry
    # pure sinks hold exactly (1-d): nothing links back to 2,3,4
    assert r[2] == pytest.approx(0.15, abs=1e-12)
    # rank mass is conserved EVERY iteration (not just at the fixpoint)
    assert df["rank"].sum() == pytest.approx(5.0, abs=1e-9)


def test_pagerank_dangling_mass_redistributed(ray_session):
    # 0 -> 1 and 1 has no out-edges (dangling): mass must not leak.
    # Closed form: r0 = 0.15 + d*r1/2, r1 = 0.15 + d*(r0 + r1/2)
    df, _ = _ranks({"src": [0], "dst": [1]}, max_iter=20)
    assert df["rank"].sum() == pytest.approx(2.0, abs=1e-9)
    r = dict(zip(df["node"], df["rank"]))
    assert r[1] > r[0]
    d = 0.85
    a = np.array([[1, -d / 2], [-d, 1 - d / 2]])
    exp = np.linalg.solve(a, np.array([0.15, 0.15]))
    assert r[0] == pytest.approx(exp[0], abs=0.05)
    assert r[1] == pytest.approx(exp[1], abs=0.05)
