"""Guard for the one shuffle layer (no Ray session): ``Dataset.join`` is
called only from ``relational.shuffle_join``, and a hand-written
coarse-shard co-group (a ``groupby`` on a column whose name ends in
``shard``: ``"__shard"``, ``"pair_shard"``, ``["band_id", "shard"]``)
appears only in ``shard_cogroup`` and in the operators that replicate
rows or shard on something other than one key's hash. Aggregation has
one path and one fan-out: no call passes a ``combine=`` hint, only
``graph.py``'s node layout takes a literal ``n_shards=``, and
``relational.py`` does not import Ray's aggregate functions."""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (file, top-level function) pairs allowed to tag and group their own
# shards: row-replicating joins, the two-sided substring cut, the
# id-range prefix-sum shards and the WARC file shards
OWN_SHARDS = {
    ("relational.py", "shard_cogroup"),
    ("relational.py", "interval_self_join"),
    ("relational.py", "band_self_join"),
    ("relational.py", "time_band_join"),
    ("curate.py", "substring_dedup"),
    ("chunking.py", "pack_sequences"),
    ("__ray_entry__.py", "_q_documents_from_warc"),
    # graph operators: several tagged inputs (labels + adjacency, wedges
    # + closing edges) co-group under graph._shard_of, the node layout
    # the iterative rounds keep
    ("graph.py", "connected_components"),
    ("graph.py", "session_star_edges"),
    ("graph.py", "pagerank"),
    ("graph.py", "cooccurrence_edges"),
    ("graph.py", "_simple_edges"),
    ("graph.py", "_attach_degrees"),
    ("graph.py", "triangle_count"),
}


def _is_shard_key(arg) -> bool:
    """A string constant ending in ``shard``, or a list/tuple holding one."""
    elts = arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else [arg]
    return any(isinstance(e, ast.Constant) and isinstance(e.value, str)
               and e.value.endswith("shard") for e in elts)


@functools.lru_cache(maxsize=None)
def _trees():
    """(file, parsed module) of the package and the query registry."""
    files = sorted((ROOT / "credit_ocr_backend_ray").rglob("*.py"))
    files.append(ROOT / "__ray_entry__.py")
    return [(f, ast.parse(f.read_text(encoding="utf-8"))) for f in files]


def _keyword_calls(name: str):
    """(file, callee, keyword value node, line) of every call that passes
    keyword ``name``."""
    out = []
    for f, tree in _trees():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                callee = getattr(n.func, "id", getattr(n.func, "attr", None))
                out += [(f.name, callee, k.value, n.lineno)
                        for k in n.keywords if k.arg == name]
    return out


@functools.lru_cache(maxsize=None)
def _calls():
    """(kind, file, top-level def, line) of every ``Dataset.join`` call
    (a ``.join(`` with ``join_type=``) and every ``groupby`` on a shard
    column."""
    out = []
    for f, tree in _trees():
        for top in tree.body:
            for n in ast.walk(top):
                if not (isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)):
                    continue
                if (n.func.attr == "join"
                        and any(k.arg == "join_type" for k in n.keywords)):
                    kind = "join"
                elif (n.func.attr == "groupby" and n.args
                        and _is_shard_key(n.args[0])):
                    kind = "shard"
                else:
                    continue
                out.append((kind, f.name, getattr(top, "name", None),
                            n.lineno))
    return out


def test_dataset_join_only_in_shuffle_join():
    joins = [c for c in _calls() if c[0] == "join"]
    assert joins and {c[1:3] for c in joins} == {
        ("relational.py", "shuffle_join")}, joins


def test_shard_groupby_only_in_shard_cogroup():
    shards = [c for c in _calls() if c[0] == "shard"]
    stray = [c for c in shards if c[1:3] not in OWN_SHARDS]
    assert shards and not stray, stray


def test_no_combine_hint():
    assert not _keyword_calls("combine")


def test_literal_shard_counts_only_for_graph_layout():
    graph = dict(_trees())[ROOT / "credit_ocr_backend_ray/stages/graph.py"]
    graph_ops = {d.name for d in graph.body if isinstance(d, ast.FunctionDef)}
    literal = [(f, callee, line)
               for f, callee, v, line in _keyword_calls("n_shards")
               if isinstance(v, ast.Constant) and f != "graph.py"
               and callee not in graph_ops]
    assert not literal, literal


def test_relational_does_not_import_ray_aggregates():
    rel = dict(_trees())[ROOT / "credit_ocr_backend_ray/stages/relational.py"]
    mods = {n.module for n in ast.walk(rel) if isinstance(n, ast.ImportFrom)}
    mods |= {a.name for n in ast.walk(rel) if isinstance(n, ast.Import)
             for a in n.names}
    assert "ray.data.aggregate" not in mods
