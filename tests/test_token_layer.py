"""Guard for the one token layer (no Ray session): ``textstats.tokens`` is
the only whitespace tokenizer, so no ``re.compile``/``re.split`` of
exactly ``r"\\s+"`` appears in the package or in ``__ray_entry__.py``;
and ``text.token_counts`` is the only corpus word count, so no other
operator builds ``Counter`` partials and sums them with
``grouped_agg(..., ["token"], {...})``."""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (file, top-level function) pairs allowed a grouped sum keyed on token
# over Counter partials: the one word count, and the naive-Bayes trainer,
# whose per-class partials carry each batch's document counts in a null
# token row
OWN_COUNTS = {
    ("text.py", "token_counts"),
    ("curate.py", "nb_source_score"),
}


def _is_token_sum(call: ast.Call) -> bool:
    """``grouped_agg(ds, ["token"], {<at least one sum>}, ...)``."""
    if len(call.args) < 3:
        return False
    keys, sums = call.args[1], call.args[2]
    return (isinstance(keys, (ast.List, ast.Tuple)) and len(keys.elts) == 1
            and isinstance(keys.elts[0], ast.Constant)
            and keys.elts[0].value == "token"
            and isinstance(sums, ast.Dict) and bool(sums.keys))


@functools.lru_cache(maxsize=None)
def _sites():
    """(kind, file, top-level def, line) of every whitespace regex split
    or compile and every Counter + grouped token sum."""
    files = sorted((ROOT / "credit_ocr_backend_ray").rglob("*.py"))
    files.append(ROOT / "__ray_entry__.py")
    out = []
    for f in files:
        for top in ast.parse(f.read_text(encoding="utf-8")).body:
            name = getattr(top, "name", None)
            nodes = list(ast.walk(top))
            counter = any(isinstance(n, ast.Name) and n.id == "Counter"
                          for n in nodes)
            for n in nodes:
                if not isinstance(n, ast.Call):
                    continue
                fn = getattr(n.func, "attr", getattr(n.func, "id", None))
                if (fn in ("compile", "split") and n.args
                        and isinstance(n.args[0], ast.Constant)
                        and n.args[0].value == r"\s+"):
                    out.append(("ws", f.name, name, n.lineno))
                elif fn == "grouped_agg" and counter and _is_token_sum(n):
                    out.append(("count", f.name, name, n.lineno))
    return out


def test_no_whitespace_regex_tokenizer():
    stray = [s for s in _sites() if s[0] == "ws"]
    assert not stray, stray


def test_token_count_pass_only_in_token_counts():
    counts = [s for s in _sites() if s[0] == "count"]
    stray = [s for s in counts if s[1:3] not in OWN_COUNTS]
    assert not stray, stray
    assert ("count", "text.py", "token_counts") in {s[:3] for s in counts}
