"""sf1 (10x bench scale) end-to-end evidence run.

The driver benches sf0.1 (100k docs / 1.67 GB pages; 150k orders / 600k
lineitem / 100k events). This tool runs the flagship extraction at sf1
(1M docs, ~16 GB of raw pages) plus the four heaviest shuffle queries on
10x-replicated tables, sampling peak host memory from /proc/meminfo —
the whole-pipeline evidence that the sf0.1 numbers extrapolate (no
spill-driven collapse, kernel-bound profile).

Scaled tables are the sf0.1 parquet replicated 10x with per-copy key
shifts (join fan-out and group cardinality grow the way real data does:
10x keys, same per-key density; event timestamps keep their range so
windows get 10x rows each). Layout cached under /tmp/sf1_tables.

Run:  python tools/sf1_bench.py [--skip-e2e]
Emits one JSON line per measurement; paste the summary into BASELINE.md.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SF1_DIR = "/tmp/sf1_tables"
_SHIFTS = {
    "orders": {"o_orderkey": 10_000_000, "o_custkey": 1_000_000},
    "lineitem": {"l_orderkey": 10_000_000},
    "customer": {"c_custkey": 1_000_000},
    "events": {"event_id": 100_000_000, "user_id": 1_000_000},
    "documents": {"doc_id": 100_000},
}
_COPIES = 10


class MemSampler:
    """Peak host memory-in-use sampler (MemTotal - MemAvailable)."""

    def __init__(self, period_s: float = 0.25):
        self.period = period_s
        self.peak_gb = 0.0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _used_gb() -> float:
        info = {}
        with open("/proc/meminfo") as f:
            for line in f:
                k, v = line.split(":", 1)
                info[k] = int(v.split()[0])
        return (info["MemTotal"] - info["MemAvailable"]) / 1e6

    def _run(self):
        while not self._stop.is_set():
            self.peak_gb = max(self.peak_gb, self._used_gb())
            self._stop.wait(self.period)

    def __enter__(self):
        self.base_gb = self._used_gb()
        self._t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._t.join()


def build_sf1_tables(src_dir: str = "/root/testdata/sf0.1") -> None:
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    marker = os.path.join(SF1_DIR, "_done")
    if os.path.exists(marker):
        return
    os.makedirs(SF1_DIR, exist_ok=True)
    for t, shifts in _SHIFTS.items():
        tbl = pq.read_table(os.path.join(src_dir, f"{t}.parquet"))
        copies = []
        for c in range(_COPIES):
            cp = tbl
            for col, step in shifts.items():
                i = cp.schema.get_field_index(col)
                cp = cp.set_column(i, col,
                                   pc.add(cp.column(col), c * step))
            copies.append(cp)
        out = pa.concat_tables(copies).replace_schema_metadata(None)
        pq.write_table(out, os.path.join(SF1_DIR, f"{t}.parquet"),
                       row_group_size=200_000)
        print(f"built {t}: {out.num_rows} rows", file=sys.stderr)
    with open(marker, "w", encoding="utf-8") as f:
        f.write("ok")


def build_docs_big(copies: int, src: str = "/root/testdata/sf0.1") -> str:
    """``copies`` shifted copies of the sf0.1 documents table (5k docs;
    200 copies = 1M docs — r5, VERDICT r04 item 5): per-doc gates see
    ``copies*5k`` distinct ids; the source axis keeps its cardinality
    with ``copies``x density, which is how real web sources grow.
    Cached under /tmp/sf1_tables/docs{N}."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    out_dir = os.path.join(SF1_DIR, f"docs{copies}x")
    marker = os.path.join(out_dir, "_done")
    if os.path.exists(marker):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    tbl = pq.read_table(os.path.join(src, "documents.parquet"))
    parts = []
    for c in range(copies):
        i = tbl.schema.get_field_index("doc_id")
        parts.append(tbl.set_column(
            i, "doc_id", pc.add(tbl.column("doc_id"), c * 100_000)))
    out = pa.concat_tables(parts).replace_schema_metadata(None)
    pq.write_table(out, os.path.join(out_dir, "documents.parquet"),
                   row_group_size=50_000)
    print(f"built docs{copies}x: {out.num_rows} rows", file=sys.stderr)
    with open(marker, "w", encoding="utf-8") as f:
        f.write("ok")
    return out_dir


def main() -> int:
    skip_e2e = "--skip-e2e" in sys.argv
    curation_only = "--curation-only" in sys.argv
    import ray
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    build_sf1_tables()
    import __ray_entry__ as e
    q = e._all_queries()

    results = []

    def timed(name: str, fn, n_rows_hint=None):
        with MemSampler() as ms:
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
        rec = {"op": name, "wall_s": round(wall, 2),
               "peak_host_gb": round(ms.peak_gb, 2),
               "baseline_gb": round(ms.base_gb, 2)}
        if n_rows_hint:
            rec["rows"] = n_rows_hint
        if isinstance(out, dict):
            rec.update(out)
        print(json.dumps(rec), flush=True)
        results.append(rec)

    if not skip_e2e and not curation_only:
        import shutil
        from credit_ocr_backend_ray.pipelines.extraction import (
            ExtractionConfig, run_extraction)
        from credit_ocr_backend_ray.sources.synth import synthesize_pages

        inp = synthesize_pages(1_000_000)  # cached
        out_dir = "/tmp/sf1_extract_out"
        shutil.rmtree(out_dir, ignore_errors=True)

        def e2e():
            s = run_extraction(inp, out_dir, ExtractionConfig(),
                               n_groups=8)
            return {"docs": s["rows"],
                    "docs_per_s": round(s["rows"] / s["wall_s"], 1)}

        timed("extract_e2e_sf1_1M_docs", e2e)

    sf = SF1_DIR
    if not curation_only:
        for name in ["orders_lineitem_join", "asof_latest_order",
                     "events_hopping_window", "dedup_minhash"]:
            def run(name=name):
                import pandas as pd
                r = q[name](sf)
                df = r if isinstance(r, pd.DataFrame) else r.to_pandas()
                return {"out_rows": len(df)}
            timed(f"{name}_sf1", run)

    # r5 (VERDICT r04 item 5): the composite curation funnels a
    # training-data user runs end-to-end, at 100k AND 1M docs with
    # peak-memory sampling (the pair gives the linearity ratio) —
    # curated_pack over replicated documents tables, web_corpus over
    # the flagship page input (extraction -> quality gate -> sparse
    # exact dedup, one streaming plan).
    import ray.data as rd

    def curated(docs_dir):
        from credit_ocr_backend_ray.pipelines.curation import curate_pack
        ds = rd.read_parquet(
            os.path.join(docs_dir, "documents.parquet"),
            columns=["doc_id", "source", "text"])
        out = curate_pack(ds, min_tokens=20, max_dup_micro=600_000,
                          max_source_mean_dup_micro=520_000,
                          window=16, budget=512, shard_width=1000)
        return {"out_rows": out.count()}

    def webc(n_docs):
        from credit_ocr_backend_ray.pipelines.web import web_corpus_ds
        from credit_ocr_backend_ray.sources.synth import synthesize_pages
        inp = synthesize_pages(n_docs)  # cached
        return {"out_rows": web_corpus_ds(inp).count()}

    for copies, tag in ((20, "100k"), (200, "1M")):
        d = build_docs_big(copies)
        timed(f"curated_pack_{tag}_docs", lambda d=d: curated(d))
    for n, tag in ((100_000, "100k"), (1_000_000, "1M")):
        timed(f"web_corpus_{tag}_docs", lambda n=n: webc(n))

    print(json.dumps({"summary": results}), flush=True)
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
