#!/usr/bin/env bash
# Run the scaling benchmark into BENCH_scaling.json so successive PRs leave a
# comparable perf trajectory.  Usage:
#
#   bench/run_bench.sh [build-dir] [extra google-benchmark args...]
#
# Builds the bench target if needed, then overwrites BENCH_scaling.json at
# the repository root (set BENCH_OUT to write elsewhere — CI uses this to
# produce a fresh run for bench/compare_bench.py without touching the
# checked-in baseline).  The checked-in baseline is the median of five
# interleaved repetitions per benchmark, which bench/compare_bench.py reads
# in place of a single run:
#
#   bench/run_bench.sh build --benchmark_repetitions=5 \
#     --benchmark_enable_random_interleaving=true \
#     --benchmark_report_aggregates_only=true
#
# Compare two checkouts with e.g.:
#
#   jq -r '.benchmarks[] | "\(.name) \(.real_time)"' BENCH_scaling.json

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true
out_file="${BENCH_OUT:-$repo_root/BENCH_scaling.json}"

if [[ ! -d "$build_dir" ]]; then
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" --target bench_scaling -j"$(nproc)"

"$build_dir/bench_scaling" \
  --benchmark_format=console \
  --benchmark_out="$out_file" \
  --benchmark_out_format=json \
  "$@"

# Stamp the host shape into the report.  compare_bench.py uses host.nproc to
# decide whether thread-scaling benchmarks are comparable at all: a baseline
# from a single-core host says nothing about 8-thread speedups.
cpu_model="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null \
  | head -1)"
[[ -n "$cpu_model" ]] || cpu_model="$(uname -m)"
nproc_now="$(nproc)" cpu_model="$cpu_model" python3 - "$out_file" <<'PY'
import json
import os
import sys

path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    report = json.load(fh)
report["host"] = {
    "nproc": int(os.environ["nproc_now"]),
    "fingerprint": os.environ["cpu_model"],
}
with open(path, "w", encoding="utf-8") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
PY

echo "wrote $out_file"
