#!/usr/bin/env bash
# Golden-output check over the figure benches: each bench's stdout at
# --threads 2 must match its checked-in golden file byte for byte.
#
# usage: check_golden.sh <bench-dir> <golden-dir>
#
# The golden directory holds one <bench>.txt per bench; that file list
# is the set of benches checked. On a mismatch the diff is printed and
# the script exits 1. A change that alters bench output on purpose
# regenerates the files in the same commit and explains the change:
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
    if ! "$bin" --threads 2 > "$TMP/$bench.txt" 2>/dev/null; then
        echo "FAIL: $bench exited non-zero" >&2
        failures=$((failures + 1))
        continue
    fi
    if ! cmp -s "$golden" "$TMP/$bench.txt"; then
        echo "FAIL: $bench stdout differs from $golden" >&2
        diff -u "$golden" "$TMP/$bench.txt" >&2
        failures=$((failures + 1))
    else
        echo "ok: $bench"
    fi
done

if [ "$checked" -eq 0 ]; then
    echo "FAIL: no golden files in $GOLDEN_DIR" >&2
    exit 1
fi
if [ "$failures" -ne 0 ]; then
    echo "$failures golden mismatch(es)" >&2
    exit 1
fi
echo "all $checked bench outputs match their golden files"
