#!/usr/bin/env bash
# Golden-output check over the figure benches: each bench's stdout at
# --threads 1 and at --threads 2 must match its checked-in golden file
# byte for byte. Together the two runs also pin the 1-vs-2-thread
# identity of every bench's stdout.
#
# usage: check_golden.sh <bench-dir> <golden-dir>
#
# The golden directory holds one <bench>.txt per bench; that file list
# is the set of benches checked. Timing lines go to stderr by design
# (printSuiteTiming), so stdout is the deterministic surface; bench_micro
# (google-benchmark, timing-only output) has no golden file. On a
# mismatch the diff is printed and the script exits 1. A change that
# alters bench output on purpose regenerates the files in the same
# commit and explains the change:
#
#   for g in tests/golden/*.txt; do
#       build/bench/"$(basename "$g" .txt)" --threads 2 > "$g"
#   done

set -u

BENCH_DIR=${1:?usage: check_golden.sh <bench-dir> <golden-dir>}
GOLDEN_DIR=${2:?usage: check_golden.sh <bench-dir> <golden-dir>}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

failures=0
checked=0
for golden in "$GOLDEN_DIR"/*.txt; do
    [ -e "$golden" ] || break
    bench=$(basename "$golden" .txt)
    bin="$BENCH_DIR/$bench"
    checked=$((checked + 1))
    if [ ! -x "$bin" ]; then
        echo "FAIL: missing bench binary $bin" >&2
        failures=$((failures + 1))
        continue
    fi
    for threads in 1 2; do
        got="$TMP/$bench.t$threads"
        if ! "$bin" --threads "$threads" > "$got" 2>/dev/null; then
            echo "FAIL: $bench --threads $threads exited non-zero" >&2
            failures=$((failures + 1))
        elif ! cmp -s "$golden" "$got"; then
            echo "FAIL: $bench --threads $threads stdout differs" \
                 "from $golden" >&2
            diff -u "$golden" "$got" >&2
            failures=$((failures + 1))
        else
            echo "ok: $bench --threads $threads"
        fi
    done
done

if [ "$checked" -eq 0 ]; then
    echo "FAIL: no golden files in $GOLDEN_DIR" >&2
    exit 1
fi
if [ "$failures" -ne 0 ]; then
    echo "$failures golden mismatch(es)" >&2
    exit 1
fi
echo "all $checked bench outputs match their golden files at 1 and 2" \
     "threads"
