#!/usr/bin/env python3
"""Report-only perf comparison of two suite timing JSONs.

Compares the sim-stage seconds of a fresh run against the checked-in
baseline (BENCH_suite.json) and prints a per-workload ratio table plus
stage totals. Timing is machine-dependent, so this NEVER gates CI: the
exit code is 0 whenever both inputs parse. Output-byte determinism is
what CI fails on (see the perf-smoke job); this table just makes the
perf trajectory visible per commit.

Usage: perf_report.py BASELINE.json CURRENT.json
"""

import json
import subprocess
import sys
from collections import defaultdict

STAGES = ("synth", "analysis", "mde", "sim")


def load(path):
    """-> ({workload: {stage: seconds}}, {slo stage: row},
           {sweep stage: row}, git_sha set).

    Service SLO rows (workload == "service", emitted by
    bench_service_slo and the loadgen) carry req/s-at-p99 fields and
    sweep rows (workload == "sweep", emitted by bench_sweep) carry
    points/s — neither is pipeline-stage seconds, so each gets its own
    table and stays out of the per-workload stage math. Rows without
    `seconds` (event-count rows of older baselines) are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    table = defaultdict(dict)
    service = {}
    sweep = {}
    shas = set()
    for row in rows:
        if row["workload"] == "service":
            service[row["stage"]] = row
        elif row["workload"] == "sweep":
            sweep[row["stage"]] = row
        elif "seconds" in row:
            table[row["workload"]][row["stage"]] = row["seconds"]
        if "git_sha" in row:
            shas.add(row["git_sha"])
    return table, service, sweep, shas


def warn_if_stale_baseline(base_shas):
    """Shout when the baseline predates none of HEAD's history.

    A baseline whose git_sha is not an ancestor of HEAD was recorded on
    another branch (or never rebased), so its ratios compare against
    code that is not in this commit's past — the table below would be
    quietly meaningless. Report-only like everything here: warn loudly,
    never fail. Unknown/absent SHAs and non-git environments skip the
    check."""
    stale = []
    for sha in sorted(base_shas):
        if not sha or sha == "unknown":
            continue
        try:
            probe = subprocess.run(
                ["git", "merge-base", "--is-ancestor", sha, "HEAD"],
                capture_output=True, text=True)
        except OSError:
            return  # no git in PATH: nothing to verify against
        if probe.returncode == 1:
            stale.append(sha)
        # 128 etc.: unknown object (shallow clone) — can't judge, skip.
    if not stale:
        return
    bar = "!" * 72
    print(bar, file=sys.stderr)
    print(f"!! STALE BASELINE: git_sha {', '.join(stale)} is not an "
          "ancestor of HEAD.", file=sys.stderr)
    print("!! The baseline was recorded on another line of history; "
          "speedup ratios", file=sys.stderr)
    print("!! below are not meaningful. Re-run "
          "tools/refresh_bench_suite.sh and commit", file=sys.stderr)
    print("!! the refreshed BENCH_suite.json.", file=sys.stderr)
    print(bar, file=sys.stderr)


def fmt_ratio(base, cur):
    if cur <= 0:
        return "   n/a"
    return f"{base / cur:5.2f}x"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base, base_svc, base_sweep, base_shas = load(argv[1])
        cur, cur_svc, cur_sweep, cur_shas = load(argv[2])
    except (OSError, ValueError, KeyError) as err:
        print(f"perf_report: cannot read inputs: {err}", file=sys.stderr)
        return 2

    warn_if_stale_baseline(base_shas)
    print(f"baseline: {argv[1]} (git {','.join(sorted(base_shas)) or '?'})")
    print(f"current:  {argv[2]} (git {','.join(sorted(cur_shas)) or '?'})")
    print()
    print(f"{'workload':<22} {'base sim':>10} {'cur sim':>10} {'speedup':>8}")
    print("-" * 54)

    totals = {s: [0.0, 0.0] for s in STAGES}
    for workload in sorted(set(base) | set(cur)):
        b = base.get(workload, {})
        c = cur.get(workload, {})
        for stage in STAGES:
            totals[stage][0] += b.get(stage, 0.0)
            totals[stage][1] += c.get(stage, 0.0)
        b_sim = b.get("sim")
        c_sim = c.get("sim")
        if b_sim is None or c_sim is None:
            print(f"{workload:<22} {'(only in one input)':>30}")
            continue
        print(f"{workload:<22} {b_sim:>9.4f}s {c_sim:>9.4f}s "
              f"{fmt_ratio(b_sim, c_sim):>8}")

    print("-" * 54)
    for stage in STAGES:
        b_total, c_total = totals[stage]
        print(f"{'TOTAL ' + stage:<22} {b_total:>9.4f}s {c_total:>9.4f}s "
              f"{fmt_ratio(b_total, c_total):>8}")
    print_service_slo(base_svc, cur_svc)
    print_sweep_throughput(base_sweep, cur_sweep)

    print()
    print("report-only: timing never fails CI; byte-identical output does.")
    return 0


def print_service_slo(base_svc, cur_svc):
    """Render req/s-at-p99 serving rows, if either input carries any."""
    if not base_svc and not cur_svc:
        return
    print()
    print("Service SLO (req/s at p99 tail latency)")
    print(f"{'config':<26} {'base req/s':>11} {'cur req/s':>11} "
          f"{'ratio':>7} {'base p99':>10} {'cur p99':>10}")
    print("-" * 80)

    def cell(row, field, suffix=""):
        if row is None or field not in row:
            return "-"
        value = row[field]
        if field == "p99Micros":
            return f"{value / 1000.0:.2f}ms"
        return f"{value:.0f}{suffix}"

    for stage in sorted(set(base_svc) | set(cur_svc)):
        b = base_svc.get(stage)
        c = cur_svc.get(stage)
        if b and c and b.get("reqps", 0) > 0 and "reqps" in c:
            ratio = f"{c['reqps'] / b['reqps']:5.2f}x"
        else:
            ratio = "n/a"
        print(f"{stage:<26} {cell(b, 'reqps'):>11} {cell(c, 'reqps'):>11} "
              f"{ratio:>7} {cell(b, 'p99Micros'):>10} "
              f"{cell(c, 'p99Micros'):>10}")
    print("-" * 80)
    print("ratio is current/base req/s (higher is better); "
          "p99 from the same run.")


def print_sweep_throughput(base_sweep, cur_sweep):
    """Render sweep points/s rows, if either input carries any."""
    if not base_sweep and not cur_sweep:
        return
    print()
    print("Sweep throughput (design-space points per second)")
    print(f"{'mode':<26} {'base pts/s':>11} {'cur pts/s':>11} "
          f"{'ratio':>7} {'points':>8}")
    print("-" * 68)

    def rate(row):
        if row is None or "pointsPerSec" not in row:
            return "-"
        return f"{row['pointsPerSec']:.1f}"

    for stage in sorted(set(base_sweep) | set(cur_sweep)):
        b = base_sweep.get(stage)
        c = cur_sweep.get(stage)
        if b and c and b.get("pointsPerSec", 0) > 0 \
                and "pointsPerSec" in c:
            ratio = f"{c['pointsPerSec'] / b['pointsPerSec']:5.2f}x"
        else:
            ratio = "n/a"
        points = (c or b or {}).get("points", "-")
        print(f"{stage:<26} {rate(b):>11} {rate(c):>11} {ratio:>7} "
              f"{points:>8}")
    print("-" * 68)
    print("ratio is current/base points per second (higher is better).")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
