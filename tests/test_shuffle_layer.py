"""Guard for the one shuffle layer (no Ray session): ``Dataset.join`` is
called only from ``relational.shuffle_join``, and a hand-written
co-group (a ``.groupby(<key>).map_groups(`` chain) appears
only in ``shard_cogroup`` and in the passes that group on something
other than a key hash: dense range buckets and persisted bucket files.
Aggregation has one path and one fan-out: no call passes a
``combine=`` hint or an ``n_shards=`` count, no function but
``shard_ids`` takes an ``n_shards`` parameter, and ``relational.py``
does not import Ray's aggregate functions."""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (file, top-level function) allowed to write
# ``.groupby(<key>).map_groups(``, and why
OWN_GROUPS = {
    ("relational.py", "shard_cogroup"):
        "the co-group itself",
    ("dedup.py", "snm_pairs"):
        "range buckets: row-number // bucket_size, dense and balanced",
    ("chunking.py", "pack_sequences"):
        "range buckets: doc-id // shard_width, the prefix-sum offsets "
        "are per range",
    ("incremental.py", "minhash_index_query"):
        "persisted bucket files: both passes read the bucket_store "
        "files of their bucket",
    ("graph.py", "connected_components_bucketed"):
        "persisted bucket files: send reads the bucketed adjacency",
    ("__ray_entry__.py", "_q_documents_from_warc"):
        "one WARC file per doc_id % 8 shard",
}


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


def _is_group_chain(n: ast.Call) -> bool:
    """``<ds>.groupby(<key>).map_groups(...)``, whatever the key
    expression: a constant, a variable or a list."""
    inner = n.func.value
    return (n.func.attr == "map_groups" and isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "groupby" and bool(inner.args))


@functools.lru_cache(maxsize=None)
def _calls():
    """(kind, file, top-level def, line) of every ``Dataset.join`` call
    (a ``.join(`` with ``join_type=``) and every hand-written co-group
    chain."""
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
                elif _is_group_chain(n):
                    kind = "group"
                else:
                    continue
                out.append((kind, f.name, getattr(top, "name", None),
                            n.lineno))
    return out


def test_dataset_join_only_in_shuffle_join():
    joins = [c for c in _calls() if c[0] == "join"]
    assert joins and {c[1:3] for c in joins} == {
        ("relational.py", "shuffle_join")}, joins


def test_group_chains_only_in_shard_cogroup_and_bucket_passes():
    groups = [c for c in _calls() if c[0] == "group"]
    stray = [c for c in groups if c[1:3] not in OWN_GROUPS]
    assert groups and not stray, stray


def test_no_combine_hint():
    assert not _keyword_calls("combine")


def test_no_shard_count_knob():
    assert not _keyword_calls("n_shards")
    takers = [(f.name, d.name, d.lineno) for f, tree in _trees()
              for d in ast.walk(tree)
              if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
              and "n_shards" in {a.arg for a in (*d.args.posonlyargs,
                                                 *d.args.args,
                                                 *d.args.kwonlyargs)}]
    assert [t[:2] for t in takers] == [("relational.py", "shard_ids")], \
        takers


def test_relational_does_not_import_ray_aggregates():
    rel = dict(_trees())[ROOT / "credit_ocr_backend_ray/stages/relational.py"]
    mods = {n.module for n in ast.walk(rel) if isinstance(n, ast.ImportFrom)}
    mods |= {a.name for n in ast.walk(rel) if isinstance(n, ast.Import)
             for a in n.names}
    assert "ray.data.aggregate" not in mods
