#!/usr/bin/env bash
# Serving-plane determinism check: result lines served by a two-worker
# nachosd (region cache enabled) must be byte-identical to
# nachos_client --direct, which runs the same decode/run/encode path
# in-process — on a cache miss, on a cache hit, under a parallel burst
# of identical requests and with machine overrides — and so must the
# error line for an unknown workload, with exit code 2 from both.
#
# usage: check_determinism.sh <bench-dir>
#
# The serving binaries are found in <bench-dir>/../bin. The benches'
# own 1-vs-2-thread identity is pinned by tools/check_golden.sh, which
# checks every golden bench at both thread counts.

set -u

BENCH_DIR=${1:?usage: check_determinism.sh <bench-dir>}

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

        # A NACHOS run on a region with no MAY edge is derived from the
        # NACHOS-SW run of the same request rather than simulated
        # (cgra/mde_backend). Its summary must equal that of a
        # NACHOS-only request, which simulates it, both over the
        # daemon and --direct. gzip has no MDE at all; equake has
        # ORDER and FORWARD edges but no MAY edge.
        nachos_summary() {
            grep -o '"nachos":{[^}]*}' "$1"
        }
        for wl in 164.gzip 183.equake; do
            for side in daemon direct; do
                if [ "$side" = direct ]; then
                    via="--direct"
                else
                    via="--socket $SOCK"
                fi
                for backends in "sw nachos" "nachos"; do
                    flags=""
                    for b in $backends; do
                        flags="$flags --backend $b"
                    done
                    out="$TMP/derive.$wl.$side.${backends// /-}"
                    if ! "$BIN_DIR/nachos_client" $via --raw run \
                        --workload "$wl" --seed 3 $flags \
                        --invocations 2 --class bulk > "$out.raw"; then
                        echo "FAIL: $side run $wl/$backends exited" \
                             "non-zero" >&2
                        failures=$((failures + 1))
                    fi
                    nachos_summary "$out.raw" > "$out"
                done
                ref="$TMP/derive.$wl.$side.nachos"
                if [ ! -s "$ref" ]; then
                    echo "FAIL: no nachos summary for $wl ($side)" >&2
                    failures=$((failures + 1))
                    continue
                fi
                check "$wl/nachos" "$ref" "$TMP/derive.$wl.$side.sw-nachos" \
                    "derived from NACHOS-SW vs simulated, $side"
            done
        done

        # Error lines too: --direct writes them with the daemon's error
        # encoder, so an unknown workload must give byte-identical
        # error lines, and exit code 2, from both sides.
        ref="$TMP/direct.error"
        "$BIN_DIR/nachos_client" --direct --raw run \
            --workload no-such-workload --seed 3 > "$ref"
        direct_rc=$?
        got="$TMP/daemon.error"
        "$BIN_DIR/nachos_client" --socket "$SOCK" --raw run \
            --workload no-such-workload --seed 3 > "$got"
        daemon_rc=$?
        if [ "$direct_rc" -ne 2 ] || [ "$daemon_rc" -ne 2 ]; then
            echo "FAIL: unknown workload exited $direct_rc (--direct)" \
                 "and $daemon_rc (daemon); want 2 from both" >&2
            failures=$((failures + 1))
        else
            check "no-such-workload" "$ref" "$got" \
                "daemon vs direct, error line"
        fi
    fi
    stop_daemon
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures determinism failure(s)" >&2
    exit 1
fi
echo "the daemon serves byte-identical results to --direct"
