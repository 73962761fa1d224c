"""Distributed graph operators: connected components over an edge list.

The reference has no graph stage; this belongs to the training-data-
pipeline layer (SURVEY §2.10a): near-dup candidate pairs, session graphs
and host/link graphs all reduce to "find the components of an edge set
too large for one node". ``stages/dedup.py:cluster_pairs`` deliberately
runs union-find on the driver because verified near-dup pairs are tiny;
this module is the path for when the EDGE SET itself is cluster-scale.

Algorithm: min-label propagation (the MapReduce-CC classic — Kiveris et
al., "Connected Components in MapReduce and Beyond", SoCC'14, describes
this family). Every node keeps a label = the smallest node id it has
heard of; each round every node sends its label to its neighbors and
keeps the minimum of what arrives. Fixpoint = component minima. Rounds
needed = graph diameter — small for the star/near-clique components of
dedup and session graphs; the same paper's alternating large-star /
small-star variant drops it to O(log² n) if a deep-chain workload shows
up (not implemented; the round structure below would carry it
unchanged).

Scale shape per round (two ``relational.shard_cogroup`` shuffles on
``node``, the co-group every keyed shuffle of this package uses):

- **send**: labels co-grouped with the adjacency on ``node``; one
  vectorized merge per shard emits (neighbor, label) messages. Moves
  O(E + V) fixed-width int64 rows — never payloads.
- **receive**: messages + current labels co-grouped on ``node``; one
  vectorized groupby-min per shard. A per-batch combiner prunes to one
  candidate row per (node, batch) before the shuffle.
- The V-row frontier is materialized per round (bounded state, same
  pattern as the k-means iteration in ``stages/similarity.py``); the
  convergence check is a single Sum aggregate over an int `changed`
  column, not a driver-side scan.

Known cost, stated: Ray Data's groupby cannot pin a cached partitioning,
so the static adjacency re-crosses the wire every round (O(E) int rows).
A multi-node engine with partition-persistent state would shuffle the
adjacency once; with Ray Data the idiomatic fix at extreme E is to
pre-bucket the adjacency into hive-partitioned parquet by shard and read
per-shard inside the round — not needed at tested scales.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Sum

from credit_ocr_backend_ray.stages.relational import grouped_agg, shard_cogroup


def connected_components(edges: "rd.Dataset", src: str = "src",
                         dst: str = "dst", max_iter: int = 50
                         ) -> tuple["rd.Dataset", int]:
    """Connected components of the undirected graph given as an edge
    list. Returns ``(labels, rounds)`` where ``labels`` has columns
    ``(node, comp)`` (both int64) covering every id that appears in
    ``src`` or ``dst``, with ``comp`` = the minimum node id of the
    component; ``rounds`` is the number of propagation rounds executed
    (diameter + 1: the last round verifies the fixpoint).

    Self-loops register a node but propagate nothing; duplicate edges
    are harmless (min is idempotent) and are locally deduped per batch
    before the send shuffle.
    """

    def sym(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        node = np.concatenate([a, b])
        nbr = np.concatenate([b, a])
        # local dedup: repeated edges inside a batch would only re-send
        # identical messages
        u = pd.DataFrame({"node": node, "nbr": nbr}).drop_duplicates()
        return pa.table({
            "node": pa.array(u["node"].to_numpy(), pa.int64()),
            "nbr": pa.array(u["nbr"].to_numpy(), pa.int64()),
            "comp": pa.array(np.zeros(len(u), np.int64)),
            "kind": pa.array(np.zeros(len(u), np.int8)),  # 0 = edge
        })

    adj = edges.map_batches(sym, batch_format="pyarrow").materialize()

    def init_nodes(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t[src].to_numpy(zero_copy_only=False).astype(np.int64),
            t[dst].to_numpy(zero_copy_only=False).astype(np.int64)])
        u = np.unique(both)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "comp": pa.array(u, pa.int64())})

    # cogroup, not Ray's per-key sort aggregate: node cardinality is
    # unbounded (measured 64-78 s at 400k distinct keys vs ~3 s sharded)
    labels = grouped_agg(
        edges.map_batches(init_nodes, batch_format="pyarrow"),
        ["node"], {"comp": "__s"}, count_alias=None)

    def dedup_init(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": pa.array(node, pa.int64()),
                         "comp": pa.array(node, pa.int64())})

    labels = labels.map_batches(dedup_init,
                                batch_format="pyarrow").materialize()

    def tag_labels(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"],
            "nbr": pa.array(np.full(len(t), -1, np.int64)),
            "comp": t["comp"],
            "kind": pa.array(np.ones(len(t), np.int8)),  # 1 = label
        })

    def send(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):  # map_groups pads empty shard groups
            return _empty_msgs()
        lab = g[g["kind"] == 1][["node", "comp"]]
        edge = g[g["kind"] == 0][["node", "nbr"]]
        msgs = edge.merge(lab, on="node")[["nbr", "comp"]] \
            .rename(columns={"nbr": "node"})
        msgs["kind"] = np.int8(0)
        lab = lab.copy()
        lab["kind"] = np.int8(1)
        return pd.concat([msgs, lab], ignore_index=True)

    def receive(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                                 "comp": pd.Series([], dtype=np.int64),
                                 "changed": pd.Series([], dtype=np.int64)})
        mins = g.groupby("node", as_index=False)["comp"].min() \
            .rename(columns={"comp": "new"})
        old = g[g["kind"] == 1][["node", "comp"]]
        m = old.merge(mins, on="node")
        return pd.DataFrame({
            "node": m["node"].to_numpy(np.int64),
            "comp": m["new"].to_numpy(np.int64),
            "changed": (m["new"] < m["comp"]).astype(np.int64),
        })

    rounds = 0
    for _ in range(max_iter):
        rounds += 1
        tagged = labels.map_batches(tag_labels, batch_format="pyarrow")
        sent = shard_cogroup(adj.union(tagged), "node", send)
        pruned = sent.map_batches(_combine_local, batch_format="pandas")
        new_labels = shard_cogroup(pruned, "node", receive).materialize()
        changed = new_labels.aggregate(Sum("changed",
                                           alias_name="c"))["c"] or 0
        labels = new_labels.drop_columns(["changed"]).materialize()
        if changed == 0:
            break
    return labels, rounds


def _empty_msgs() -> pd.DataFrame:
    return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                         "comp": pd.Series([], dtype=np.int64),
                         "kind": pd.Series([], dtype=np.int8)})


def _combine_local(b: pd.DataFrame) -> pd.DataFrame:
    """Per-batch combiner before the receive shuffle (module-level so
    the closure pickles once per worker)."""
    msgs = b[b["kind"] == 0]
    parts = []
    if len(msgs):
        msgs = msgs.groupby("node", as_index=False)["comp"].min()
        msgs["kind"] = np.int8(0)
        parts.append(msgs)
    lab = b[b["kind"] == 1][["node", "comp", "kind"]]
    if len(lab):
        parts.append(lab)
    out = pd.concat(parts, ignore_index=True) if parts else _empty_msgs()
    out["node"] = out["node"].astype(np.int64)
    out["comp"] = out["comp"].astype(np.int64)
    return out


def session_star_edges(events: "rd.Dataset", user_col: str = "user_id",
                       id_col: str = "event_id", ts_col: str = "ts",
                       gap_s: float = 4 * 3600) -> "rd.Dataset":
    """Per-user session graph as star edges: each event connects to the
    first event of its gap-based session (strictly-greater-than ``gap_s``
    breaks, ordered by (ts, id) — the same rule as
    ``relational.sessionize``). Session starts get a self-edge so
    singleton sessions still register as nodes. One ``shard_cogroup``
    on the user; per-user work is a vectorized sorted scan."""
    gap = np.timedelta64(int(gap_s * 1_000_000), "us")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col])
        ts = g[ts_col].to_numpy()
        eid = g[id_col].to_numpy(np.int64)
        users = g[user_col].to_numpy(np.int64)
        brk = np.ones(len(g), bool)
        if len(g) > 1:
            same_user = users[1:] == users[:-1]
            within = (ts[1:] - ts[:-1]) <= gap
            brk[1:] = ~(same_user & within)
        sid = np.cumsum(brk) - 1
        first = eid[brk][sid]
        return pd.DataFrame({"src": first, "dst": eid})

    return shard_cogroup(events, user_col, per_shard)


def pagerank(edges: "rd.Dataset", src: str = "src", dst: str = "dst",
             damping: float = 0.85, max_iter: int = 20,
             tol: float = 1e-6) -> tuple["rd.Dataset", int]:
    """Distributed PageRank by power iteration over an int64 edge list.
    Returns ``(ranks, iters)`` with ``ranks`` = (node, rank) covering
    every id in ``src`` or ``dst``; sum(rank) == #nodes (the "rank mass
    N" convention: a node with no structure has rank 1.0).

    Same message-passing skeleton as ``connected_components`` — per
    iteration two ``shard_cogroup`` shuffles on ``node`` (send: ranks
    meet the adjacency at src, each edge emits rank/outdeg to its dst;
    receive: contributions meet the rank rows at dst, one vectorized
    sum per shard), a per-batch combiner summing
    contributions per (node, batch) before the second shuffle, and a
    materialized V-row frontier per iteration (bounded state, the
    k-means/CC checkpoint pattern). Dangling mass (outdeg-0 nodes) is
    one Sum aggregate per iteration, redistributed uniformly —
    O(1) driver state. Convergence = L1 delta Sum aggregate < tol·N.
    The static adjacency re-crosses the wire per iteration — same
    stated cost (and same hive-partition fix at extreme E) as
    ``connected_components``."""

    def edge_rows(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "node": pa.array(a, pa.int64()),
            "nbr": pa.array(b, pa.int64()),
            "val": pa.array(np.zeros(len(a)), pa.float64()),
            "outdeg": pa.array(np.zeros(len(a), np.int64)),
            "kind": pa.array(np.zeros(len(a), np.int8)),  # 0 = edge
        })

    adj = edges.map_batches(edge_rows, batch_format="pyarrow").materialize()

    # node universe + out-degree, combiner-style: one (node, partial-deg)
    # row per batch crosses the degree shuffle
    def deg_partial(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        su, sc = np.unique(a, return_counts=True)
        du = np.unique(b)
        return pa.table({
            "node": pa.array(np.concatenate([su, du]), pa.int64()),
            "__d": pa.array(np.concatenate(
                [sc.astype(np.int64), np.zeros(len(du), np.int64)])),
        })

    nodes = grouped_agg(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"], {"__d": "outdeg"}, count_alias=None)

    def init_rank(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "node": t["node"],
            "val": pa.array(np.ones(n), pa.float64()),
            "outdeg": t["outdeg"].cast(pa.int64()),
        })

    ranks = nodes.map_batches(init_rank, batch_format="pyarrow").materialize()
    n_nodes = ranks.count()

    def tag_ranks(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"],
            "nbr": pa.array(np.full(len(t), -1, np.int64)),
            "val": t["val"],
            "outdeg": t["outdeg"],
            "kind": pa.array(np.ones(len(t), np.int8)),  # 1 = rank
        })

    def send(g: pd.DataFrame) -> pd.DataFrame:
        rk = g[g["kind"] == 1][["node", "val", "outdeg"]]
        ed = g[g["kind"] == 0][["node", "nbr"]]
        srcs = rk[rk["outdeg"] > 0]
        msgs = ed.merge(srcs, on="node")
        out_m = pd.DataFrame({
            "node": msgs["nbr"].to_numpy(np.int64, copy=False),
            "val": (msgs["val"] / msgs["outdeg"]).to_numpy(np.float64),
            "outdeg": np.zeros(len(msgs), np.int64),
            "kind": np.full(len(msgs), np.int8(0)),
        }) if len(msgs) else _pr_empty()
        rk = rk.copy()
        rk["kind"] = np.int8(1)
        return pd.concat([out_m, rk[["node", "val", "outdeg", "kind"]]],
                         ignore_index=True)

    def combine(b: pd.DataFrame) -> pd.DataFrame:
        msgs = b[b["kind"] == 0]
        parts = []
        if len(msgs):
            s = msgs.groupby("node", as_index=False)["val"].sum()
            s["outdeg"] = np.int64(0)
            s["kind"] = np.int8(0)
            parts.append(s)
        rk = b[b["kind"] == 1][["node", "val", "outdeg", "kind"]]
        if len(rk):
            parts.append(rk)
        out = (pd.concat(parts, ignore_index=True) if parts
               else _pr_empty())
        out["node"] = out["node"].astype(np.int64)
        return out

    base = (1.0 - damping)
    iters = 0
    for _ in range(max_iter):
        iters += 1
        # dangling mass: one filtered Sum over the V-row frontier
        dang = ranks.map_batches(
            lambda t: pa.table({"__dv": pa.compute.if_else(
                pa.compute.equal(t["outdeg"], 0), t["val"],
                pa.scalar(0.0))}),
            batch_format="pyarrow").aggregate(Sum("__dv",
                                                  alias_name="d"))["d"] or 0.0
        share = damping * dang / n_nodes

        def receive(g: pd.DataFrame, _share=share) -> pd.DataFrame:
            if not len(g):
                return pd.DataFrame({
                    "node": pd.Series([], dtype=np.int64),
                    "val": pd.Series([], dtype=np.float64),
                    "outdeg": pd.Series([], dtype=np.int64),
                    "delta": pd.Series([], dtype=np.float64)})
            msum = (g[g["kind"] == 0].groupby("node")["val"].sum()
                    if (g["kind"] == 0).any() else None)
            rk = g[g["kind"] == 1]
            got = (rk["node"].map(msum).fillna(0.0).to_numpy(np.float64)
                   if msum is not None else np.zeros(len(rk)))
            new = base + damping * got + _share
            return pd.DataFrame({
                "node": rk["node"].to_numpy(np.int64),
                "val": new,
                "outdeg": rk["outdeg"].to_numpy(np.int64),
                "delta": np.abs(new - rk["val"].to_numpy(np.float64)),
            })

        tagged = ranks.map_batches(tag_ranks, batch_format="pyarrow")
        sent = shard_cogroup(adj.union(tagged), "node", send)
        pruned = sent.map_batches(combine, batch_format="pandas")
        new_ranks = shard_cogroup(pruned, "node", receive).materialize()
        delta = new_ranks.aggregate(Sum("delta", alias_name="s"))["s"] or 0.0
        ranks = new_ranks.drop_columns(["delta"]).materialize()
        if delta < tol * n_nodes:
            break

    return ranks.select_columns(["node", "val"]) \
        .rename_columns({"val": "rank"}), iters


def _pr_empty() -> pd.DataFrame:
    return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                         "val": pd.Series([], dtype=np.float64),
                         "outdeg": pd.Series([], dtype=np.int64),
                         "kind": pd.Series([], dtype=np.int8)})


def cooccurrence_edges(ds: "rd.Dataset", group_col: str,
                       item_col: str) -> "rd.Dataset":
    """Undirected co-occurrence edges (src < dst, int64, with cross-group
    duplicates) between items sharing a group — the market-basket /
    co-citation graph constructor. One ``shard_cogroup`` on the group
    id; the per-shard pass is a vectorized self-merge.

    Partitioning assumption, stated: the pair fan-out is quadratic in the
    per-GROUP item count, so groups must be small (order baskets, page
    link lists) — the shuffle itself only moves the distinct
    (group, item) pairs, never payloads."""

    def local_distinct(t: pa.Table) -> pa.Table:
        g = t[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        i = t[item_col].to_numpy(zero_copy_only=False).astype(np.int64)
        u = pd.DataFrame({"g": g, "i": i}).drop_duplicates()
        return pa.table({
            "g": pa.array(u["g"].to_numpy(np.int64), pa.int64()),
            "i": pa.array(u["i"].to_numpy(np.int64), pa.int64()),
        })

    def per_shard(b: pd.DataFrame) -> pd.DataFrame:
        b = b[["g", "i"]].drop_duplicates()  # cross-batch dupes co-shard
        m = b.merge(b, on="g")
        m = m[m["i_x"] < m["i_y"]]
        return pd.DataFrame({"src": m["i_x"].to_numpy(np.int64),
                             "dst": m["i_y"].to_numpy(np.int64)})

    return shard_cogroup(
        ds.map_batches(local_distinct, batch_format="pyarrow"), "g",
        per_shard)


def _simple_edges(edges: "rd.Dataset", src: str, dst: str) -> "rd.Dataset":
    """Distinct simple edges (canonical u < v; self-loops and duplicate
    /reversed edges dropped) via a co-group on ``u``."""
    def canon(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        d = pd.DataFrame({"u": u, "v": v}).drop_duplicates()
        return pa.table({
            "u": pa.array(d["u"].to_numpy(np.int64), pa.int64()),
            "v": pa.array(d["v"].to_numpy(np.int64), pa.int64()),
        })

    def shard_dedup(b: pd.DataFrame) -> pd.DataFrame:
        return b[["u", "v"]].drop_duplicates()

    return shard_cogroup(edges.map_batches(canon, batch_format="pyarrow"),
                         "u", shard_dedup)


def _degrees(simple: "rd.Dataset") -> "rd.Dataset":
    """(node, deg) of a simple (u, v) edge set — combiner partials, one
    distributed aggregate (unbounded V: never driver-side)."""
    def deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t["u"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["v"].to_numpy(zero_copy_only=False).astype(np.int64)])
        n, c = np.unique(both, return_counts=True)
        return pa.table({"node": pa.array(n, pa.int64()),
                         "__d": pa.array(c.astype(np.int64), pa.int64())})

    return grouped_agg(
        simple.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"], {"__d": "deg"}, count_alias=None)


def _attach_degrees(work: "rd.Dataset", degs: "rd.Dataset", key: str,
                    deg_name: str) -> "rd.Dataset":
    """Join deg(node) onto edge rows by ``key`` via ONE co-group on
    ``__key`` (the union+kind pattern of connected_components — no
    broadcast, so V never needs to fit anywhere). Edge rows whose key
    has no degree row are dropped (inner semantics)."""
    def tag_edges(t: pa.Table) -> pa.Table:
        k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {c: t[c] for c in t.column_names}
        cols["__key"] = pa.array(k, pa.int64())
        cols["__deg"] = pa.array(np.full(len(k), -1, np.int64))
        cols["kind"] = pa.array(np.zeros(len(k), np.int8))
        return pa.table(cols)

    def tag_degs(t: pa.Table) -> pa.Table:
        k = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "__key": pa.array(k, pa.int64()),
            "__deg": t["deg"].cast(pa.int64()),
            "kind": pa.array(np.ones(len(k), np.int8)),
        })

    def join_shard(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g["kind"] == 0].drop(columns=["kind", "__deg"])
        d = g[g["kind"] == 1][["__key", "__deg"]]
        out = e.merge(d, on="__key")
        return (out.drop(columns=["__key"])
                   .rename(columns={"__deg": deg_name}))

    tagged_e = work.map_batches(tag_edges, batch_format="pyarrow")
    tagged_d = degs.map_batches(tag_degs, batch_format="pyarrow")
    return shard_cogroup(tagged_e.union(tagged_d), "__key", join_shard)


def triangle_count(edges: "rd.Dataset", src: str = "src",
                   dst: str = "dst") -> tuple[int, int]:
    """Exact triangle count of the undirected graph, degree-ordered
    node-iterator style (Schank & Wagner's forward algorithm / the
    MapReduce NodeIterator++ of Suri & Vassilvitskii, WWW'11): orient
    every edge from its lower-(degree, id) endpoint to the higher, emit
    each node's out-neighbor pairs as wedges, and count wedges whose
    closing pair is itself an oriented edge. Orientation bounds the
    per-node wedge fan-out by O(sqrt(E)) amortized — the property that
    keeps hub nodes from exploding the wedge set at web scale.

    Everything distributed: edge dedup, the degree aggregate, two
    degree-attach co-group shuffles, the wedge self-merge, and the
    closure count are all ``shard_cogroup`` shuffles over fixed-width
    int64 rows with per-batch combiners; the driver sees two scalars.
    Returns ``(n_edges, n_triangles)`` over the deduped simple graph.
    Duplicate input edges and self-loops are dropped."""
    simple = _simple_edges(edges, src, dst).materialize()
    n_edges = simple.count()
    if n_edges == 0:
        return 0, 0

    degs = _degrees(simple)
    work = simple
    for key, deg_name in (("u", "deg_u"), ("v", "deg_v")):
        work = _attach_degrees(work, degs, key, deg_name)

    # --- orient lower-(deg, id) -> higher; key wedge/closure rows by the
    # ORIENTED pair so both sides agree
    def orient(b: pd.DataFrame) -> pd.DataFrame:
        u = b["u"].to_numpy(np.int64)
        v = b["v"].to_numpy(np.int64)
        du = b["deg_u"].to_numpy(np.int64)
        dv = b["deg_v"].to_numpy(np.int64)
        u_first = (du < dv) | ((du == dv) & (u < v))
        a = np.where(u_first, u, v)
        bb = np.where(u_first, v, u)
        da = np.where(u_first, du, dv)
        db = np.where(u_first, dv, du)
        return pd.DataFrame({"a": a, "b": bb, "deg_a": da, "deg_b": db})

    oriented = work.map_batches(orient, batch_format="pandas").materialize()

    # --- wedges: per source node a, out-neighbor pairs in rank order
    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["a", "b", "deg_b"]]
        m = g.merge(g, on="a")
        lt = ((m["deg_b_x"] < m["deg_b_y"])
              | ((m["deg_b_x"] == m["deg_b_y"]) & (m["b_x"] < m["b_y"])))
        m = m[lt]
        # combiner: the closure shuffle moves (pair, multiplicity), not
        # one row per wedge
        c = (pd.DataFrame({"x": m["b_x"].to_numpy(np.int64),
                           "y": m["b_y"].to_numpy(np.int64)})
               .groupby(["x", "y"], as_index=False).size())
        return pd.DataFrame({"x": c["x"], "y": c["y"],
                             "n": c["size"].astype(np.int64)})

    wedge_counts = shard_cogroup(oriented, "a", wedges)

    # --- closure: wedge pairs meet oriented edges on the pair key, in
    # the shard of its first node
    def tag_wedges(t: pa.Table) -> pa.Table:
        x = t["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["y"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "x": pa.array(x, pa.int64()), "y": pa.array(y, pa.int64()),
            "n": t["n"].cast(pa.int64()),
            "kind": pa.array(np.zeros(len(x), np.int8)),
        })

    def tag_closing(t: pa.Table) -> pa.Table:
        x = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "x": pa.array(x, pa.int64()), "y": pa.array(y, pa.int64()),
            "n": pa.array(np.zeros(len(x), np.int64)),
            "kind": pa.array(np.ones(len(x), np.int8)),
        })

    def close_shard(g: pd.DataFrame) -> pd.DataFrame:
        w = g[g["kind"] == 0][["x", "y", "n"]]
        e = g[g["kind"] == 1][["x", "y"]].drop_duplicates()
        hit = w.merge(e, on=["x", "y"])
        return pd.DataFrame({"tri": pd.Series([hit["n"].sum()],
                                              dtype=np.int64)})

    tw = wedge_counts.map_batches(tag_wedges, batch_format="pyarrow")
    te = oriented.map_batches(tag_closing, batch_format="pyarrow")
    total = (shard_cogroup(tw.union(te), "x", close_shard)
             .aggregate(Sum("tri", alias_name="t"))["t"] or 0)
    return int(n_edges), int(total)


def k_core(edges: "rd.Dataset", k: int, src: str = "src",
           dst: str = "dst", max_iter: int = 100
           ) -> tuple["rd.Dataset", int]:
    """k-core decomposition membership: iteratively peel nodes of degree
    < k until a fixpoint (the standard distributed peeling — each round
    recomputes degrees over the SURVIVING edge set and drops every edge
    touching a sub-k node; rounds = peeling depth). Returns
    ``(nodes, rounds)`` where ``nodes`` is the (node, deg) frontier of
    the k-core (possibly empty) and ``rounds`` counts peeling passes
    including the fixpoint check.

    Scale shape per round: one combiner degree aggregate + two
    degree-attach co-group shuffles (shared machinery with
    ``triangle_count``) over fixed-width int rows; the edge frontier is
    materialized per round (bounded state, the CC/pagerank checkpoint
    pattern) and only shrinks. No broadcast: sub-k filtering happens
    inside the attach join, so V never needs to fit anywhere."""
    work = _simple_edges(edges, src, dst).materialize()
    n_prev = work.count()
    rounds = 0
    for _ in range(max_iter):
        rounds += 1
        if n_prev == 0:
            break
        degs = _degrees(work)
        both = work
        for key, deg_name in (("u", "deg_u"), ("v", "deg_v")):
            both = _attach_degrees(both, degs, key, deg_name)

        def keep(b: pd.DataFrame) -> pd.DataFrame:
            m = (b["deg_u"].to_numpy(np.int64) >= k) \
                & (b["deg_v"].to_numpy(np.int64) >= k)
            return b.loc[m, ["u", "v"]]

        work = both.map_batches(keep, batch_format="pandas").materialize()
        n_now = work.count()
        if n_now == n_prev:
            break
        n_prev = n_now

    return _degrees(work), rounds


def connected_components_bucketed(edges: "rd.Dataset", adj_path: str,
                                  src: str = "src", dst: str = "dst",
                                  max_iter: int = 50,
                                  n_buckets: int = 64
                                  ) -> tuple["rd.Dataset", int]:
    """``connected_components`` with the static adjacency PRE-BUCKETED to
    parquet (``state/bucket_store`` layout, bucketed by node): the
    module-docstring's stated fix realized. Per round only the V-row
    label frontier crosses the wire — each bucket's send task reads its
    adjacency slice from disk (footer-pruned parquet, no shuffle), so
    the O(E)-rows-per-round adjacency movement of the in-memory variant
    goes to zero. Same min-label semantics, same fixpoint rule; returns
    ``(labels, rounds)``.

    The adjacency is written once per ``adj_path`` (idempotent replace);
    a long iterative job on a 100 TB edge set amortizes that single
    write-time shuffle across every round of every run."""
    from credit_ocr_backend_ray.state.bucket_store import (
        bucket_files, bucket_of_int, write_bucketed)

    def sym(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        u = pd.DataFrame({"node": np.concatenate([a, b]),
                          "nbr": np.concatenate([b, a])}).drop_duplicates()
        return pa.table({
            "node": pa.array(u["node"].to_numpy(np.int64), pa.int64()),
            "nbr": pa.array(u["nbr"].to_numpy(np.int64), pa.int64()),
        })

    adj = edges.map_batches(sym, batch_format="pyarrow")
    write_bucketed(adj, adj_path, "node", n_buckets)

    def init_nodes(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t[src].to_numpy(zero_copy_only=False).astype(np.int64),
            t[dst].to_numpy(zero_copy_only=False).astype(np.int64)])
        u = np.unique(both)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "comp": pa.array(u, pa.int64())})

    # node dedup via coarse-shard co-group (node count is unbounded;
    # Ray's per-key aggregate prices by distinct keys); comp == node at
    # init so dedup alone yields the label table
    labels = shard_cogroup(
        edges.map_batches(init_nodes, batch_format="pyarrow"),
        "node", lambda g: g.drop_duplicates("node")).materialize()

    def tag_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["bucket"] = bucket_of_int(b["node"].to_numpy(np.int64),
                                    n_buckets)
        return b

    def _empty_out() -> pd.DataFrame:
        return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                             "comp": pd.Series([], dtype=np.int64),
                             "kind": pd.Series([], dtype=np.int8),
                             "bucket": pd.Series([], dtype=np.int64)})

    def send(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):  # map_groups pads empty groups (zero-column)
            return _empty_out()
        # the adjacency slice comes from DISK, not the shuffle
        import pyarrow.parquet as pq
        bucket = int(g["bucket"].iloc[0])
        g = g[["node", "comp"]]
        files = bucket_files(adj_path, bucket)
        if files:
            adj_b = pa.concat_tables(
                [pq.read_table(f) for f in files]).to_pandas()
            msgs = adj_b.merge(g, on="node")[["nbr", "comp"]] \
                .rename(columns={"nbr": "node"})
            # local combine: one candidate per destination node
            msgs = msgs.groupby("node", as_index=False)["comp"].min()
            msgs["kind"] = np.int8(0)
        else:
            msgs = pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                                 "comp": pd.Series([], dtype=np.int64),
                                 "kind": pd.Series([], dtype=np.int8)})
        lab = g.copy()
        lab["kind"] = np.int8(1)
        out = pd.concat([msgs, lab], ignore_index=True)
        out["bucket"] = bucket_of_int(out["node"].to_numpy(np.int64),
                                      n_buckets)
        return out

    def receive(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"node": pd.Series([], dtype=np.int64),
                                 "comp": pd.Series([], dtype=np.int64),
                                 "changed": pd.Series([], dtype=np.int64)})
        mins = g.groupby("node", as_index=False)["comp"].min() \
            .rename(columns={"comp": "new"})
        old = g[g["kind"] == 1][["node", "comp"]]
        m = old.merge(mins, on="node")
        return pd.DataFrame({
            "node": m["node"].to_numpy(np.int64),
            "comp": m["new"].to_numpy(np.int64),
            "changed": (m["new"] < m["comp"]).astype(np.int64),
        })

    rounds = 0
    for _ in range(max_iter):
        rounds += 1
        sent = (labels.map_batches(tag_bucket, batch_format="pandas")
                      .groupby("bucket")
                      .map_groups(send, batch_format="pandas"))
        new_labels = (sent.groupby("bucket")
                          .map_groups(receive, batch_format="pandas")
                          .materialize())
        changed = new_labels.aggregate(Sum("changed",
                                           alias_name="c"))["c"] or 0
        labels = new_labels.drop_columns(["changed"]).materialize()
        if changed == 0:
            break
    return labels, rounds
