"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf_dir and compare against oracle_sql() via DuckDB
(row count + column names + order-insensitive value hash). A query with
no oracle prints its row count, columns and the first 16 hex digits of
its value hash, so two runs can show its output did not change.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import logging
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd
    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def value_hash(df: pd.DataFrame) -> str:
    df = df.reindex(sorted(df.columns), axis=1)
    rows = sorted(
        tuple(repr(v) for v in row) for row in df.itertuples(index=False))
    h = hashlib.sha256()
    for r in rows:
        h.update("|".join(r).encode("utf-8"))
    return h.hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * "
                    f"FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    sqls = e.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL  {name}: query raised {type(exc).__name__}: {exc}")
            failures.append(name)
            continue
        wall = time.perf_counter() - t0
        if name not in sqls:
            print(f"rows  {name}: {len(mine)} rows, cols={list(mine.columns)}"
                  f" ({wall:.1f}s) [no oracle] hash={value_hash(mine)[:16]}")
            continue
        oracle = con.execute(sqls[name]).df()
        ok_rows = len(mine) == len(oracle)
        ok_cols = sorted(mine.columns) == sorted(oracle.columns)
        ok_hash = ok_rows and ok_cols and value_hash(mine) == value_hash(oracle)
        status = "OK  " if (ok_rows and ok_cols and ok_hash) else "FAIL"
        print(f"{status}  {name}: rows {len(mine)}/{len(oracle)} "
              f"cols={'ok' if ok_cols else (list(mine.columns), list(oracle.columns))} "
              f"hash={'ok' if ok_hash else 'MISMATCH'} ({wall:.1f}s)")
        if status == "FAIL":
            failures.append(name)
            if ok_cols and ok_rows:
                m = mine.reindex(sorted(mine.columns), axis=1)
                o = oracle.reindex(sorted(oracle.columns), axis=1)
                key = sorted(mine.columns)[0]
                m = m.sort_values(list(m.columns)).reset_index(drop=True)
                o = o.sort_values(list(o.columns)).reset_index(drop=True)
                diff = (m != o) & ~(m.isna() & o.isna())
                bad = diff.any(axis=1)
                print(m[bad].head(3))
                print(o[bad].head(3))
    ray.shutdown()
    print("FAILURES:", failures if failures else "none")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
