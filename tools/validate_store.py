"""Extraction-store integrity validation — the operational check a
100 TB resumable store needs after any crash/resume/delete/compaction
cycle:

- every manifest group directory exists and holds only complete files
  (no ``*.tmp`` leftovers from an interrupted atomic replace);
- parquet FOOTER row counts per group match the manifest's recorded
  ``rows`` (metadata-only — no data I/O for the count check);
- the per-group ``_lineage`` roll-up totals match the footers, and its
  schema (metadata removed) is ``state.manifest.LINEAGE``;
- urls are globally unique (one DuckDB aggregation over the url column
  only — the single column-read pass in the tool).

Prints ONE JSON line; exit 0 iff everything holds.

Run:  python tools/validate_store.py <out_dir>
"""

from __future__ import annotations

import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    out_dir = sys.argv[1]
    import duckdb
    import pyarrow.parquet as pq

    from credit_ocr_backend_ray.state.manifest import LINEAGE

    problems: list[str] = []
    man_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(man_path):
        print(json.dumps({"probe": "validate_store", "ok": False,
                          "problems": ["manifest.json missing"]}))
        return 1
    with open(man_path, encoding="utf-8") as f:
        manifest = json.load(f)

    total_rows = 0
    n_files = 0
    for key, rec in manifest.items():
        gdir = os.path.join(out_dir, f"group-{key}")
        if not os.path.isdir(gdir):
            problems.append(f"group {key}: dir missing")
            continue
        if glob.glob(os.path.join(gdir, "*.tmp")):
            problems.append(f"group {key}: leftover .tmp files")
        files = sorted(glob.glob(os.path.join(gdir, "*.parquet")))
        n_files += len(files)
        try:
            rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        except Exception as exc:  # noqa: BLE001 — corrupt footer
            problems.append(f"group {key}: unreadable footer ({exc})")
            continue
        if rows != rec.get("rows"):
            problems.append(
                f"group {key}: footer rows {rows} != manifest "
                f"{rec.get('rows')}")
        total_rows += rows
        lin = glob.glob(os.path.join(gdir, "_lineage", "*.parquet"))
        if not lin:
            problems.append(f"group {key}: lineage missing")
        else:
            lrows = duckdb.sql(
                f"SELECT sum(rows) FROM read_parquet({lin!r})"
            ).fetchone()[0]
            if int(lrows or 0) != rows:
                problems.append(
                    f"group {key}: lineage total {lrows} != {rows}")
            for f in lin:
                schema = pq.read_schema(f).remove_metadata()
                if not schema.equals(LINEAGE):
                    problems.append(
                        f"group {key}: lineage schema is not LINEAGE: "
                        + ", ".join(f"{c.name} {c.type}" for c in schema))

    all_files = sorted(glob.glob(os.path.join(out_dir, "group-*",
                                              "*.parquet")))
    if all_files:
        n, nd = duckdb.sql(
            f"SELECT count(*), count(DISTINCT url) "
            f"FROM read_parquet({all_files!r})").fetchone()
        if n != nd:
            problems.append(f"duplicate urls: {n - nd}")

    rec = {"probe": "validate_store", "groups": len(manifest),
           "files": n_files, "rows": total_rows,
           "ok": not problems, "problems": problems}
    print(json.dumps(rec))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
