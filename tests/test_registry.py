"""Guards on the query registry in ``__ray_entry__`` (no Ray session).

``queries()`` and ``oracle_sql()`` are an outside contract: their keys,
key order and SQL text are pinned by digests taken before the registry
was derived from its ``_q_`` functions. An intended change to either
recomputes the digest and says why."""

import hashlib
import json

import __ray_entry__ as entry


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_query_order_digest():
    assert _sha(list(entry.queries())) == (
        "65fb02b967ec65dace1945346f5d40ba144594a81216239f635462860b702212")


def test_oracle_sql_digest():
    assert _sha(list(entry.oracle_sql().items())) == (
        "c875eee1c712b68294413bffa2d41468782eacdce06bb9631bb1419e4ac69a4a")


def test_every_query_function_is_registered():
    # a _q_ function missing from all three order lists would otherwise
    # drop out of queries() silently
    names = {k[3:] for k in vars(entry) if k.startswith("_q_")}
    assert set(entry.queries()) == names
