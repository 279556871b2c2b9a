#!/usr/bin/env sh
# Refresh the checked-in suite timing baseline (BENCH_suite.json).
#
# One command, run from the repo root on a quiet machine:
#
#   tools/refresh_bench_suite.sh
#
# Builds the Release benchmark binaries and rewrites BENCH_suite.json
# with --threads 1 stage timings, the serving plane's SLO curve
# (bench_service_slo req/s-at-p99 rows) and sweep throughput, stamped
# with the current git SHA. Commit the refreshed file together with
# the change that moved the numbers.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j"$(nproc)" --target bench_fig15_nachos_vs_lsq \
    bench_service_slo bench_sweep

./build/bench/bench_fig15_nachos_vs_lsq --threads 1 \
    --json BENCH_suite.json > /dev/null

./build/bench/bench_service_slo --json build/service_slo.json \
    > /dev/null

./build/bench/bench_sweep --json build/sweep_timing.json > /dev/null

echo "refreshed BENCH_suite.json:"
python3 - <<'EOF'
import json

# Merge the SLO and sweep rows into the baseline, keeping the one-
# compact-row-per-line layout all writers emit so diffs stay
# line-per-row.
rows = json.load(open("BENCH_suite.json"))
rows += json.load(open("build/service_slo.json"))
rows += json.load(open("build/sweep_timing.json"))
with open("BENCH_suite.json", "w") as fh:
    fh.write("[\n")
    fh.write(",\n".join(
        "  " + json.dumps(r, separators=(",", ":")) for r in rows))
    fh.write("\n]\n")

sim = sum(r["seconds"] for r in rows if r["stage"] == "sim")
slo = [r for r in rows if r["workload"] == "service"]
sweep = [r for r in rows if r["workload"] == "sweep"]
benches = {r["workload"] for r in rows} - {"service", "sweep"}
shas = {r.get("git_sha", "?") for r in rows}
print(f"  git_sha {','.join(sorted(shas))}, "
      f"{len(benches)} workloads, "
      f"sim total {sim:.3f}s at --threads 1, "
      f"{len(slo)} service SLO rows, {len(sweep)} sweep rows")
EOF
