"""Driver-failure resume probe: SIGKILL the whole extraction DRIVER
mid-run, then re-submit and verify the output is complete, duplicate-free
and byte-correct — the end-to-end proof of the shard-group checkpoint
design. The run is one streaming execution over all 8 groups; the driver
commits a group to the manifest once all of its files are written, and
the probe kills it after 1-6 groups have committed. The re-submit skips
the committed groups and wipes and redoes the rest.

Usage: python tools/resume_probe.py [n_pages]
Prints one JSON line.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_CHILD = """
import logging, sys
import ray
ray.init(address="local", num_cpus=16, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
logging.getLogger("ray.data").setLevel(logging.ERROR)
sys.path.insert(0, {repo!r})
from credit_ocr_backend_ray.pipelines.extraction import run_extraction
from credit_ocr_backend_ray.sources.synth import synthesize_pages
inp = synthesize_pages({n_pages})
s = run_extraction(inp, {out!r}, n_groups=8)
print("SUMMARY", s)
"""


def main() -> int:
    n_pages = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = "/tmp/resume_probe_out"
    shutil.rmtree(out, ignore_errors=True)
    code = _CHILD.format(repo=repo, n_pages=n_pages, out=out)

    # run 1: kill the driver once some (but not all) groups are complete
    p = subprocess.Popen([sys.executable, "-c", code],
                         stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL,
                         start_new_session=True)
    manifest_path = os.path.join(out, "manifest.json")
    killed_after = None
    deadline = time.time() + 300
    while time.time() < deadline:
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as f:
                try:
                    done = len(json.load(f))
                except json.JSONDecodeError:
                    done = 0
            if 1 <= done <= 6:
                os.killpg(p.pid, signal.SIGKILL)
                killed_after = done
                break
        if p.poll() is not None:
            break
        time.sleep(0.2)
    p.wait()
    # clean up the orphaned first Ray session
    subprocess.run(["ray", "stop", "--force"], capture_output=True)
    partial_files = len(glob.glob(os.path.join(out, "group-*", "*.parquet")))

    # run 2: plain re-submit must finish from the checkpoint
    r2 = subprocess.run([sys.executable, "-c", code], capture_output=True,
                        text=True)
    ok_run2 = r2.returncode == 0

    # validate: full row count, no duplicate urls, statuses clean
    import duckdb
    files = glob.glob(os.path.join(out, "group-*", "*.parquet"))
    con = duckdb.connect()
    rows, uniq, bad = con.execute(
        "SELECT count(*), count(DISTINCT url), "
        "sum(CASE WHEN status <> 'Fertig' THEN 1 ELSE 0 END) "
        f"FROM read_parquet({files!r})").fetchone()
    with open(manifest_path, encoding="utf-8") as f:
        groups_done = len(json.load(f))

    ok = (killed_after is not None and ok_run2 and rows == n_pages
          and uniq == n_pages and (bad or 0) == 0 and groups_done == 8)
    print(json.dumps({
        "probe": "driver_kill_resume", "killed_after_groups": killed_after,
        "partial_files_at_kill": partial_files, "rows": rows,
        "distinct_urls": uniq, "non_fertig": int(bad or 0),
        "groups_done": groups_done, "ok": ok,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
