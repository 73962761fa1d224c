"""Fault-tolerance probe: SIGKILL an extraction task's worker process
mid-run and verify the job still completes with every row present and
correct. Ray retries the killed worker's task; the task's fused writer
names each chunk file by its input file and a digest of its keys, so the
retry overwrites what the killed attempt wrote instead of adding to it,
and the driver counts a re-reported chunk once. A group commits only
after all of its files' rows are written.

Usage: python tools/chaos_probe.py [n_pages]
Prints one JSON line: {"probe": "chaos", "rows": ..., "killed_pid": ...,
"ok": true}
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    n_pages = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000

    import logging

    import ray
    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from credit_ocr_backend_ray.pipelines.extraction import run_extraction
    from credit_ocr_backend_ray.sources.synth import synthesize_pages

    inp = synthesize_pages(n_pages)
    out = "/tmp/chaos_out"
    shutil.rmtree(out, ignore_errors=True)

    killed: dict[str, int] = {}

    def _extract_worker_pids() -> list[int]:
        """Ray titles a worker process ray::<task name> while it executes;
        scan /proc (the dashboard state API is off). The extract stage runs
        fused with the read, prepass and group writer, as
        ray::ReadParquet->MapBatches(prepass_batch)->MapBatches(DocExtractor)
        ->MapBatches(GroupWriter)."""
        pids = []
        for p in os.listdir("/proc"):
            if not p.isdigit():
                continue
            try:
                with open(f"/proc/{p}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if b"MapBatches(DocExtractor)" in cmd:
                pids.append(int(p))
        return sorted(pids)

    def assassin() -> None:
        """Once two extract workers are busy, SIGKILL one of them."""
        deadline = time.time() + 60
        while time.time() < deadline:
            pids = _extract_worker_pids()
            if len(pids) >= 2:
                time.sleep(1.0)  # let it take work first
                victim = pids[0]
                try:
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed["pid"] = victim
                return
            time.sleep(0.25)

    t = threading.Thread(target=assassin, daemon=True)
    t.start()
    summary = run_extraction(inp, out, n_groups=2)
    t.join(timeout=5)

    import ray.data as rd
    res = rd.read_parquet(glob.glob(os.path.join(out, "group-*", "*.parquet")))
    rows = res.count()
    statuses = res.groupby("status").count().to_pandas()
    ok = (rows == n_pages and summary["rows"] == n_pages
          and killed.get("pid") is not None
          and statuses["status"].tolist() == ["Fertig"])
    print(json.dumps({"probe": "chaos", "rows": rows,
                      "killed_pid": killed.get("pid"),
                      "statuses": statuses.to_dict("records"), "ok": ok}))
    ray.shutdown()
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
