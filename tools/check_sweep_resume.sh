#!/usr/bin/env bash
# Sweep kill/resume check: a design-space sweep served by a live
# nachosd is SIGKILLed mid-flight, its store is additionally torn mid
# record (simulating a kill inside append), and the resumed sweep must
# finish with exactly one record per point and a report byte-identical
# to an uninterrupted run's. The uninterrupted run must fill the 8
# points its backends cannot tell apart from others instead of
# simulating them. Finally `nachos_sweep verify` recomputes a sample of
# the daemon-produced records, and every record of the uninterrupted
# store, in-process and must find no drift.
#
# usage: check_sweep_resume.sh <bin-dir>   # holds nachosd, nachos_sweep

set -u

BIN_DIR=${1:?usage: check_sweep_resume.sh <bin-dir>}

TMP=$(mktemp -d)
NACHOSD_PID=
cleanup() {
    if [ -n "$NACHOSD_PID" ]; then
        kill -TERM "$NACHOSD_PID" 2>/dev/null
        wait "$NACHOSD_PID" 2>/dev/null
        NACHOSD_PID=
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

for bin in nachosd nachos_sweep; do
    [ -x "$BIN_DIR/$bin" ] || fail "missing binary $BIN_DIR/$bin"
done

# 24 points: 3 backends x (2 x 2 x 2) machines on one workload. The
# invocation count is tuned so the whole sweep takes seconds — long
# enough that the mid-flight SIGKILL below reliably lands while
# records are still being produced.
SPEC="$TMP/spec.json"
cat > "$SPEC" <<'EOF'
{"name": "resume-smoke",
 "workloads": ["183.equake"],
 "invocations": 2000,
 "axes": {"lsqBanks": [1, 4],
          "dramLatency": [100, 400],
          "l1SizeBytes": [16384, 65536]},
 "constraints": [{"lhs": "l1SizeBytes", "op": "le",
                  "rhs": "llcSizeBytes"}]}
EOF

SOCK="$TMP/nachosd.sock"
"$BIN_DIR/nachosd" --socket "$SOCK" --workers 2 --region-cache 16 \
    --quiet &
NACHOSD_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || fail "nachosd did not open $SOCK"

# Reference: straight through, no interruptions. NACHOS-SW and NACHOS
# read no LSQ field, so their lsqBanks=4 points (8 of the 24) are
# filled from the lsqBanks=1 results instead of simulated.
STRAIGHT="$TMP/straight.jsonl"
"$BIN_DIR/nachos_sweep" run --spec "$SPEC" --store "$STRAIGHT" \
    --socket "$SOCK" --window 4 > "$TMP/straight.txt" 2>/dev/null \
    || fail "uninterrupted sweep run exited non-zero"
grep -q ': 24 points, 0 already done, 24 run, 8 reused, 0 failed$' \
    "$TMP/straight.txt" \
    || fail "expected 8 reused of 24: $(cat "$TMP/straight.txt")"
"$BIN_DIR/nachos_sweep" report --store "$STRAIGHT" > "$TMP/report.ref" \
    || fail "report on the uninterrupted store exited non-zero"

# Victim: SIGKILL the orchestrator once a few records have landed.
VICTIM="$TMP/victim.jsonl"
"$BIN_DIR/nachos_sweep" run --spec "$SPEC" --store "$VICTIM" \
    --socket "$SOCK" --window 4 2>/dev/null &
SWEEP_PID=$!
for _ in $(seq 1 200); do
    [ -f "$VICTIM" ] && [ "$(wc -l < "$VICTIM")" -ge 3 ] && break
    sleep 0.05
done
kill -KILL "$SWEEP_PID" 2>/dev/null
wait "$SWEEP_PID" 2>/dev/null
LINES=$(wc -l < "$VICTIM")
[ "$LINES" -ge 1 ] || fail "victim store empty before the kill"
[ "$LINES" -lt 24 ] || fail "victim finished before the kill landed"
echo "killed the sweep after $LINES of 24 records"

# Tear the tail the way a kill inside append would: half a record,
# no trailing newline. The resume must drop and re-run that point.
printf '{"id":"workload=183.equake torn","hash":99' >> "$VICTIM"

"$BIN_DIR/nachos_sweep" run --spec "$SPEC" --store "$VICTIM" \
    --socket "$SOCK" --window 4 2>/dev/null \
    || fail "resumed sweep run exited non-zero"

# Exactly one record per expanded point, none lost, none duplicated.
"$BIN_DIR/nachos_sweep" expand --spec "$SPEC" --store "$VICTIM" \
    > "$TMP/expand.txt" || fail "expand exited non-zero"
grep -q ' 24 done, 0 pending' "$TMP/expand.txt" \
    || fail "resume left points undone: $(tail -1 "$TMP/expand.txt")"
python3 - "$VICTIM" <<'EOF' || exit 1
import json, sys
hashes = [json.loads(line)["hash"] for line in open(sys.argv[1])]
assert len(hashes) == 24, f"expected 24 records, got {len(hashes)}"
assert len(set(hashes)) == 24, "duplicate point records after resume"
EOF

# The kill/tear/resume history must be invisible in the report.
"$BIN_DIR/nachos_sweep" report --store "$VICTIM" > "$TMP/report.got" \
    || fail "report on the resumed store exited non-zero"
cmp -s "$TMP/report.ref" "$TMP/report.got" || {
    diff "$TMP/report.ref" "$TMP/report.got" | head -20 >&2
    fail "resumed report differs from the uninterrupted one"
}

# And the daemon-produced numbers must match in-process execution.
"$BIN_DIR/nachos_sweep" verify --store "$VICTIM" --sample 5 \
    || fail "verify found daemon-vs-direct drift"

# Every record of the straight store, the filled ones included, must
# match its own point simulated directly, without projection.
"$BIN_DIR/nachos_sweep" verify --store "$STRAIGHT" --sample 1 \
    || fail "verify found a filled record that differs from direct"

echo "sweep resume check passed: 24/24 points exactly once," \
     "8 filled, byte-identical report, no daemon-vs-direct drift"
