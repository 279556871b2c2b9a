#!/usr/bin/env bash
# Determinism check over the full bench suite: every suite bench must
# print byte-identical stdout no matter how many workers carry it.
#
# usage: check_determinism.sh <bench-dir>
#
# Timing lines go to stderr by design (printSuiteTiming), so stdout is
# the deterministic surface. Excluded: bench_micro (google-benchmark,
# timing-only output).
#
# The final pass checks the serving plane: result lines served by a
# two-worker nachosd (region cache enabled) must be byte-identical to
# nachos_client --direct, which runs the same decode/run/encode path
# in-process — on a cache miss, on a cache hit, and under a parallel
# burst of identical requests.

set -u

BENCH_DIR=${1:?usage: check_determinism.sh <bench-dir>}

# Every bench that accepts --threads (drives a worker pool).
THREADED_BENCHES="
bench_table2
bench_fig06_stage1
bench_fig07_stage2
bench_fig09_stage3
bench_fig10_memmay
bench_fig11_sw_vs_lsq
bench_fig12_baseline_compiler
bench_fig14_fanin
bench_fig15_nachos_vs_lsq
bench_fig16_mde_counts
bench_fig17_nachos_energy
bench_fig18_lsq_energy
bench_scope_growth
bench_appendix_model
bench_ablation_comparator
bench_ablation_lsq
bench_ablation_stages
"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

failures=0

check() {
    local name=$1 ref=$2 got=$3 what=$4
    if ! cmp -s "$ref" "$got"; then
        echo "FAIL: $name stdout differs ($what)" >&2
        diff "$ref" "$got" | head -20 >&2
        failures=$((failures + 1))
    else
        echo "ok: $name ($what)"
    fi
}

for bench in $THREADED_BENCHES; do
    bin="$BENCH_DIR/$bench"
    if [ ! -x "$bin" ]; then
        echo "FAIL: missing bench binary $bin" >&2
        failures=$((failures + 1))
        continue
    fi
    "$bin" --threads 1 > "$TMP/$bench.t1" 2>/dev/null || {
        echo "FAIL: $bench --threads 1 exited non-zero" >&2
        failures=$((failures + 1))
        continue
    }
    "$bin" --threads 2 > "$TMP/$bench.t2" 2>/dev/null || {
        echo "FAIL: $bench --threads 2 exited non-zero" >&2
        failures=$((failures + 1))
        continue
    }
    check "$bench" "$TMP/$bench.t1" "$TMP/$bench.t2" "1 vs 2 threads"
done

# Daemon vs direct: every result line a two-worker daemon serves must be
# byte-identical to the in-process reference. Each client connection
# numbers requests from 1, matching --direct's fixed id, so whole raw
# lines compare with cmp. The first daemon run per workload misses the
# region cache, the second hits it, and the parallel burst at the end
# drives both workers at once.
BIN_DIR="$BENCH_DIR/../bin"
NACHOSD_PID=
stop_daemon() {
    if [ -n "$NACHOSD_PID" ]; then
        kill -TERM "$NACHOSD_PID" 2>/dev/null
        wait "$NACHOSD_PID" 2>/dev/null
        NACHOSD_PID=
    fi
}
trap 'stop_daemon; rm -rf "$TMP"' EXIT

if [ ! -x "$BIN_DIR/nachosd" ] || [ ! -x "$BIN_DIR/nachos_client" ]; then
    echo "FAIL: missing serving binaries in $BIN_DIR" >&2
    failures=$((failures + 1))
else
    SOCK="$TMP/nachosd.sock"
    "$BIN_DIR/nachosd" --socket "$SOCK" --workers 2 \
        --region-cache 16 --quiet &
    NACHOSD_PID=$!
    for _ in $(seq 1 100); do
        [ -S "$SOCK" ] && break
        sleep 0.1
    done
    if [ ! -S "$SOCK" ]; then
        echo "FAIL: nachosd did not open $SOCK" >&2
        failures=$((failures + 1))
    else
        for spec in "179.art nachos 2" "164.gzip lsq 1" \
                    "183.equake sw 1"; do
            set -- $spec
            wl=$1 backend=$2 inv=$3
            ref="$TMP/direct.$wl.$backend"
            if ! "$BIN_DIR/nachos_client" --direct --raw run \
                --workload "$wl" --seed 3 --backend "$backend" \
                --invocations "$inv" --class bulk > "$ref"; then
                echo "FAIL: nachos_client --direct $wl/$backend" \
                     "exited non-zero" >&2
                failures=$((failures + 1))
                continue
            fi
            for pass in cache-miss cache-hit; do
                got="$TMP/daemon.$wl.$backend.$pass"
                if ! "$BIN_DIR/nachos_client" --socket "$SOCK" --raw \
                    run --workload "$wl" --seed 3 \
                    --backend "$backend" --invocations "$inv" \
                    --class bulk > "$got"; then
                    echo "FAIL: daemon run $wl/$backend ($pass)" \
                         "exited non-zero" >&2
                    failures=$((failures + 1))
                    continue
                fi
                check "$wl/$backend" "$ref" "$got" \
                    "daemon vs direct, $pass"
            done
        done

        # Parallel burst: identical bulk requests arriving together are
        # served concurrently; every response must still match.
        ref="$TMP/direct.179.art.nachos"
        pids=""
        for i in 1 2 3 4; do
            "$BIN_DIR/nachos_client" --socket "$SOCK" --raw run \
                --workload 179.art --seed 3 --backend nachos \
                --invocations 2 --class bulk \
                > "$TMP/burst.$i" &
            pids="$pids $!"
        done
        burst_ok=1
        for pid in $pids; do
            wait "$pid" || burst_ok=0
        done
        if [ "$burst_ok" -ne 1 ]; then
            echo "FAIL: burst client exited non-zero" >&2
            failures=$((failures + 1))
        else
            for i in 1 2 3 4; do
                check "179.art/nachos" "$ref" "$TMP/burst.$i" \
                    "daemon vs direct, burst $i/4"
            done
        fi

        # Machine overrides must ride the same daemon-vs-direct
        # identity: an overridden request served by the daemon is
        # byte-identical to --direct with the same overrides.
        MACHINE="--machine dramLatency=400 --machine lsqBanks=2"
        ref="$TMP/direct.machine"
        if ! "$BIN_DIR/nachos_client" --direct --raw run \
            --workload 179.art --seed 3 --backend lsq \
            --invocations 2 $MACHINE --class bulk > "$ref"; then
            echo "FAIL: nachos_client --direct with --machine" \
                 "exited non-zero" >&2
            failures=$((failures + 1))
        else
            got="$TMP/daemon.machine"
            if ! "$BIN_DIR/nachos_client" --socket "$SOCK" --raw run \
                --workload 179.art --seed 3 --backend lsq \
                --invocations 2 $MACHINE --class bulk > "$got"; then
                echo "FAIL: daemon run with --machine exited" \
                     "non-zero" >&2
                failures=$((failures + 1))
            else
                check "179.art/lsq" "$ref" "$got" \
                    "daemon vs direct, machine overrides"
            fi
        fi
    fi
    stop_daemon
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures determinism failure(s)" >&2
    exit 1
fi
echo "all benches deterministic across thread counts, and the daemon" \
     "serves byte-identical results to --direct"
