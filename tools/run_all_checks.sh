#!/usr/bin/env bash
# Everything the engine claims, in one command (well over 20 min on a
# 1-CPU host, where the pytest step alone takes 18-25 min):
#   unit/differential/property tests, the DuckDB oracle gate at two
#   scales, fault-tolerance probes, and the historical 32-CPU bench.py
#   run (the performance yardstick is benchmark/run.py, see
#   benchmark/README.md).
set -e
cd "$(dirname "$0")/.."
echo "== pytest =="
python -m pytest tests/ -q
echo "== QUERIES.md matches the registry =="
python tools/gen_queries_md.py && git diff --exit-code QUERIES.md
echo "== benchmark smoke test =="
python -m pytest benchmark/test_smoke.py -q
echo "== oracle gate sf0.01 =="
python tools/check_correctness.py /root/testdata/sf0.01 | tail -1
echo "== oracle gate sf0.1 =="
python tools/check_correctness.py /root/testdata/sf0.1 | tail -1
echo "== extract-worker-kill probe =="
python tools/chaos_probe.py 20000
echo "== driver-kill resume probe =="
python tools/resume_probe.py 20000
echo "== store integrity after the two probes =="
python tools/validate_store.py /tmp/chaos_out
python tools/validate_store.py /tmp/resume_probe_out
echo "== historical bench.py run (32-cpu figures, sf0.1) =="
python bench.py
