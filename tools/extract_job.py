"""The cluster job entry point — what a user submits with ``ray job submit``
(north rule: the engine runs as a Ray job on a fixed-size cluster):

    ray job submit --working-dir . -- \
        python tools/extract_job.py --input /data/pages --out /data/extracted \
        --groups 64 [--dedup] [--chunk-budget-mb N]

Single-node/local dev runs work identically (``RAY_ADDRESS=local``). The
job is resumable: re-submitting with the same ``--out`` skips every shard
group whose manifest is complete (the Parquet analogue of the reference's
``blob_exists`` checks, /root/reference/src/creditsystem/storage.py:177-194).
Prints one JSON summary line on success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="dir (or file) of input parquet shards "
                         "(url, warc_ts, html, text, lang)")
    ap.add_argument("--out", required=True, help="output dataset root")
    ap.add_argument("--groups", type=int, default=16,
                    help="shard groups (resume granularity)")
    ap.add_argument("--dedup", action="store_true",
                    help="exact dedup by url: keep the newest warc_ts "
                         "across all input files")
    ap.add_argument("--chunk-budget-mb", type=int, default=32,
                    help="per-sub-batch payload byte budget (skew guard)")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():  # ray job submit initializes the runtime
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"),
                 include_dashboard=False)

    from credit_ocr_backend_ray.pipelines.extraction import (
        ExtractionConfig, run_extraction)

    cfg = ExtractionConfig(dedup=args.dedup,
                           chunk_budget_mb=args.chunk_budget_mb)
    summary = run_extraction(args.input, args.out, cfg, n_groups=args.groups)
    print(json.dumps({"job": "extract", **summary}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
