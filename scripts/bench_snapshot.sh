#!/usr/bin/env bash
# Snapshot the serving benchmarks into a committed JSON reference.
#
# Runs the serve benches under BENCH_JSON=1 (the vendored criterion shim's
# machine-readable JSONL mode) and writes BENCH_serve.json at the repo
# root: per-benchmark mean/p50/p99 (ns) plus derived elems_per_s, alongside
# the frozen pre-sharded-queue (PR 7) numbers for before/after comparison.
# CI's throughput smoke reads the committed file and fails if
# serve_throughput/service_batch_128 regresses by more than 20%.
#
# Usage: scripts/bench_snapshot.sh [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-BENCH_serve.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

BENCH_JSON=1 cargo bench -p concorde-bench --bench serve_throughput 2>/dev/null \
    | grep '^{' >"$TMP"

python3 - "$TMP" "$OUT" <<'PY'
import json
import sys

jsonl, out = sys.argv[1], sys.argv[2]
results = {}
with open(jsonl) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        results[row.pop("id")] = row

# The serving hot path before the sharded-queue/slot-slab rewrite (one
# global Mutex<VecDeque> + Condvar, per-request mpsc channels, double-parse
# wire decode). Frozen so the before/after delta stays visible in-repo.
baseline_pr7 = {
    "serve_throughput/sequential_direct_x128": {"mean_ns": 4185014.6, "p50_ns": 4774310.0, "p99_ns": 5982049.7, "samples": 12, "elements": 128, "elems_per_s": 30585.3},
    "serve_throughput/service_batch_1": {"mean_ns": 387909.3, "p50_ns": 367683.6, "p99_ns": 547150.9, "samples": 12, "elements": 1, "elems_per_s": 2577.9},
    "serve_throughput/service_batch_16": {"mean_ns": 258329.0, "p50_ns": 255077.2, "p99_ns": 335780.3, "samples": 12, "elements": 16, "elems_per_s": 61936.5},
    "serve_throughput/service_batch_128": {"mean_ns": 2037391.1, "p50_ns": 2016717.2, "p99_ns": 2621355.0, "samples": 12, "elements": 128, "elems_per_s": 62825.4},
    "serve_throughput/service_batch_128_int8": {"mean_ns": 3462367.3, "p50_ns": 3472378.0, "p99_ns": 3658990.5, "samples": 12, "elements": 128, "elems_per_s": 36968.9},
    "serve_cold_warm/warm16_p50_under_cold_churn/async_pool": {"mean_ns": 1018374.6, "p50_ns": 918605.3, "p99_ns": 1883573.7, "samples": 12, "elements": 16, "elems_per_s": 15711.3},
    "serve_cold_warm/warm16_p50_under_cold_churn/inline_miss": {"mean_ns": 8583829.1, "p50_ns": 8597739.0, "p99_ns": 8936625.0, "samples": 12, "elements": 16, "elems_per_s": 1864.0},
}

doc = {
    "_generated_by": "scripts/bench_snapshot.sh (BENCH_JSON=1 serve benches)",
    "_note": "numbers are host-dependent; regenerate on the comparison host",
    "baseline_pr7": baseline_pr7,
    "results": results,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} ({len(results)} benchmarks)")
PY
