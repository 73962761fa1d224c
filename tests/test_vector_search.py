"""Output parity and tie order of the vector-search operators in
``stages/similarity.py``.

One seeded corpus of Gaussian vectors (plus planted near-duplicates for
``semantic_dedup``) has no tied score at any rank cut, so every output
is pinned by a sha256 over its rows with columns and rows sorted and
floats rounded to 9 places. A refactor of the top-k, IVF or k-means
layers must keep every digest; a semantic change must say why it moved
one.

A second corpus holds 30 copies of the query vector among 10 other
rows: every operator must keep the copies with the smallest ids, as
``np.lexsort((ids, -scores))`` and the ``knn_cosine`` SQL oracle
(``ORDER BY cos DESC, vec_id ASC``) do, at every block count.
"""

import ast
import hashlib
import pathlib

import numpy as np
import pandas as pd
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIMILARITY = ROOT / "credit_ocr_backend_ray" / "stages" / "similarity.py"

# sha256 over each output (columns and rows sorted, see _digest)
PINNED = {
    "knn_bruteforce":
        "0831c108de4ffe8e16a0a39799149bbdbb3df4c33b05be537ddd5456f008b5f2",
    "knn_lsh":
        "02c955dbcb62d5cb5dcea0b642a1f6e5ccfd6de1996810fbb0cd43a0e91a0e4c",
    "knn_ivf":
        "b457035e86851aea9c8bd06b267f1cd23fdd0b156926b5544316cbbefced4710",
    "knn_ivf_persisted":
        "b457035e86851aea9c8bd06b267f1cd23fdd0b156926b5544316cbbefced4710",
    "knn_pq":
        "13343baba00dcf5a032ad68fe5dea349e86d8c9a933a7f9a1c55e5345179b4b9",
    "ivf_assign":
        "3fb3a12827f6094858438a68e2e8b63367eb7acd22c0923d100031a81b8df527",
    "kmeans_fit":
        "1a94db7dd57a077cc5ed7ad4a08362c5fac012f528af9498113ba587773459fd",
    "knn_recall":
        "b8580d6304d4a495fe088458cf46a6c9fa79e0e097f14994b522a92a2ef3bac0",
    "knn_rank_eval":
        "9460379600da5047b2190ad3d6394a113a7cc15cb1878d0a20a717201c0b1772",
    "semantic_dedup":
        "453d5e2afe124d6f43160cace0fa9cb1bde73e5327629404d152f64decfbc082",
    "mmr_select":
        "02de91fe22b46bd34393c2c696aeb5fbb2950ba1cb67b359ded8ca89864d2551",
}

_K = 5


def _corpus() -> tuple[pd.DataFrame, np.ndarray]:
    rng = np.random.default_rng(19)
    vecs = rng.standard_normal((300, 16))
    dups = vecs[:30] + 0.01 * rng.standard_normal((30, 16))
    vecs = np.vstack([vecs, dups])
    df = pd.DataFrame({"vec_id": np.arange(len(vecs), dtype=np.int64),
                       "embedding": [v.tolist() for v in vecs]})
    return df, rng.standard_normal((3, 16))


def _digest(df: pd.DataFrame) -> str:
    cols = sorted(df.columns)
    df = df[cols].sort_values(cols).reset_index(drop=True)
    df = df.apply(lambda c: c.round(9) if c.dtype.kind == "f" else c)
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def _outputs(tmp_path) -> dict[str, pd.DataFrame]:
    import ray.data as rd

    from credit_ocr_backend_ray.stages import similarity as s

    df, q = _corpus()
    ds = rd.from_pandas(df).repartition(4)
    idx = str(tmp_path / "ivf")
    s.ivf_index_write(ds, idx, nlist=8, train_ids=200)
    cent, history = s.kmeans_fit(ds, nlist=4, iters=3)
    kmeans = pd.DataFrame(cent, columns=[f"c{j}" for j in range(16)])
    kmeans["history"] = history[-1]
    return {
        "knn_bruteforce": s.knn_bruteforce(ds, q, k=_K),
        "knn_lsh": s.knn_lsh(ds, q, k=_K, bits=4),
        "knn_ivf": s.knn_ivf(ds, q, k=_K, nlist=8, nprobe=2,
                             train_ids=200),
        "knn_ivf_persisted": s.knn_ivf_persisted(idx, q, k=_K, nprobe=2),
        "knn_pq": s.knn_pq(ds, q, s.pq_train(ds, m=4, ksub=16), k=_K),
        "ivf_assign": s.ivf_assign(ds, nlist=8, train_ids=200).to_pandas(),
        "kmeans_fit": kmeans,
        "knn_recall": s.knn_recall(ds, q, k=_K, nlist=8, nprobe=2),
        "knn_rank_eval": s.knn_rank_eval(ds, q, k=_K, nlist=8, nprobe=1),
        "semantic_dedup": s.semantic_dedup(ds, threshold=0.99, nlist=4,
                                           iters=2)
                           .select_columns(["vec_id"]).to_pandas(),
        "mmr_select": s.mmr_select(ds, q[0], k=_K, pool=20),
    }


def test_vector_search_outputs_match_pinned_digests(ray_session, tmp_path):
    got = {k: _digest(v) for k, v in _outputs(tmp_path).items()}
    assert got == PINNED


def _tie_corpus() -> tuple[pd.DataFrame, np.ndarray]:
    """30 copies of the query e_0 and 10 random rows, at ids spread so
    the five smallest copy ids are not 0..4."""
    rng = np.random.default_rng(7)
    others = {1, 4, 9, 15, 22, 27, 31, 34, 36, 39}
    q = np.zeros(8)
    q[0] = 1.0
    vecs = [rng.standard_normal(8) if i in others else q
            for i in range(40)]
    df = pd.DataFrame({"vec_id": np.arange(40, dtype=np.int64),
                       "embedding": [v.tolist() for v in vecs]})
    return df, q.reshape(1, -1)


def _reference(ids: np.ndarray, scores: np.ndarray) -> list[int]:
    return ids[np.lexsort((ids, -scores))[:_K]].tolist()


@pytest.mark.parametrize("blocks", [1, 2, 4])
def test_ties_break_by_id_at_every_block_count(ray_session, tmp_path,
                                               blocks):
    import ray.data as rd

    from credit_ocr_backend_ray.stages import similarity as s

    df, q = _tie_corpus()
    ds = rd.from_pandas(df).repartition(blocks)
    ids = df["vec_id"].to_numpy()
    vecs = s._norm_rows(np.asarray(df["embedding"].tolist()))
    want = _reference(ids, (vecs @ q.T).ravel())
    assert want == [0, 2, 3, 5, 6]

    idx = str(tmp_path / "ivf")
    s.ivf_index_write(ds, idx, nlist=4)
    got = {
        "knn_bruteforce": s.knn_bruteforce(ds, q, k=_K, round_to=None),
        "knn_lsh": s.knn_lsh(ds, q, k=_K),
        "knn_ivf": s.knn_ivf(ds, q, k=_K, nlist=4, nprobe=1),
        "knn_ivf_persisted": s.knn_ivf_persisted(idx, q, k=_K, nprobe=1),
    }
    for name, out in got.items():
        assert out["vec_id"].tolist() == want, name

    books = s.pq_train(ds, m=4, ksub=8)
    m, _, dsub = books.shape
    codes = (s.pq_encode(ds, books).to_pandas().sort_values("vec_id")
             ["pq_code"].map(list).tolist())
    lut = np.einsum("qjd,jcd->qjc", q.reshape(1, m, dsub), books)
    pq_scores = lut[0, np.arange(m)[None, :], np.asarray(codes)].sum(axis=1)
    assert (s.knn_pq(ds, q, books, k=_K)["vec_id"].tolist()
            == _reference(ids, pq_scores))


def _calls_in(tree: ast.AST, dotted: str) -> list[ast.Call]:
    mod, attr = dotted.split(".")
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == attr and isinstance(n.func.value, ast.Name)
            and n.func.value.id == mod]


def test_one_top_k_layer_and_one_centroid_fit():
    """No Ray: the per-batch selection and the driver merge live only in
    the top-k layer, and IVF trains its centroids in one place."""
    tree = ast.parse(SIMILARITY.read_text(encoding="utf-8"))
    defs = {d.name: d for d in tree.body if isinstance(d, ast.FunctionDef)}
    for dotted, home in [("np.argpartition", "_batch_topk"),
                         ("heapq.nsmallest", "_scored_topk")]:
        sites = [name for name, d in defs.items()
                 for _ in _calls_in(d, dotted)]
        assert sites == [home], (dotted, sites)
    callers = [name for name, d in defs.items() for n in ast.walk(d)
               if isinstance(n, ast.Call)
               and getattr(n.func, "id", None) == "_fit_centroids"]
    assert callers == ["_ivf_centroids"], callers
