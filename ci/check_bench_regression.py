#!/usr/bin/env python3
"""Bench regression gate: compare a CI --quick run against the committed
baseline and fail on a large single-thread throughput drop.

Usage:
    check_bench_regression.py QUICK.json BASELINE.json [--min-ratio 0.75]

Both files hold one JSON object per line (the bench binaries' format).
Rows are matched on their identity fields (everything except measured
metrics); only matched rows that

  * are single-thread (threads == 1, and callers == 1 when present), and
  * carry a throughput metric (rows_per_sec or queries_per_sec)

are gated — multi-thread rows depend on the machine's core count and the
committed baselines were measured on a different box, so they are reported
but never gated. The threshold is deliberately loose (default: fail below
0.75x baseline, i.e. a >25% regression) because CI runners and the
baseline machine differ; the gate exists to catch real algorithmic
regressions, not scheduling noise.

The gate also checks baseline coverage: every row *shape* in the baseline
(its descriptive identity — bench/variant/method/priority, size fields
dropped) must appear in the quick run. A bench that silently stops
emitting a variant would otherwise pass forever on the rows it no longer
measures.

Exit codes: 0 ok (or nothing to compare), 1 regression or lost coverage,
2 usage/IO error.
"""

import argparse
import json
import sys

# Measured outputs; every other field is identity. Keep in sync with the
# EmitJson writers in bench/.
METRIC_FIELDS = {
    "rows_per_sec",
    "queries_per_sec",
    "speedup_vs_seed",
    "speedup_vs_full",
    "speedup_vs_dense",
    "speedup_vs_separate",
    # Informational, not measured — but machine-dependent (the SIMD backend
    # the dispatcher picked), so it must not take part in row matching or a
    # baseline recorded on an AVX-512 box would never match an AVX2 runner.
    "backend",
    "seconds",
    "projection_seconds",
    "update_seconds",
    "iterations",
    "final_j",
    "j_rel_diff_vs_full",
    "max_score_diff_vs_full",
    "ranking_matches_full",
    "cold_seconds",
    "warm_seconds",
    "speedup_vs_cold",
    "refreshes",
    "p50_refresh_seconds",
    "p99_refresh_seconds",
    "replayed_records",
    "recover_seconds",
    "time_to_first_query_seconds",
    "replicated_records",
    "catchup_seconds",
    "standby_lag_events",
    "promote_seconds",
    "promotion_to_serving_seconds",
    "p50_us",
    "p99_us",
    "p999_us",
    "completed",
    "shed",
    "deadline_expired",
    "overhead_pct",
}

# Metrics the gate checks, in preference order (gate on the first present).
GATED_METRICS = ("rows_per_sec", "queries_per_sec")

# A row's *shape* keeps only the descriptive identity fields — which bench,
# which variant, which algorithm/class — and drops every size/scale field
# (n, d, threads, batch, shards, initial_rows, ...): quick runs shrink
# those freely and runners vary in core count, so coverage is checked per
# variant shape, not per exact configuration. A keep-list, not an
# exclude-list, so benches can grow new size knobs without breaking the
# coverage check.
SHAPE_FIELDS = ("bench", "variant", "method", "priority")


def load_rows(path):
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as error:
                    print(f"{path}:{line_number}: unparseable line: {error}")
                    sys.exit(2)
    except OSError as error:
        print(f"cannot read {path}: {error}")
        sys.exit(2)
    return rows


def identity(row):
    return tuple(sorted((k, v) for k, v in row.items()
                        if k not in METRIC_FIELDS))


def shape(row):
    return tuple((k, row[k]) for k in SHAPE_FIELDS if k in row)


def is_single_thread(row):
    return row.get("threads") == 1 and row.get("callers", 1) == 1


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("quick", help="--quick run output (JSON lines)")
    parser.add_argument("baseline", help="committed BENCH_*.json baseline")
    parser.add_argument("--min-ratio", type=float, default=0.75,
                        help="fail when quick/baseline falls below this "
                             "(default: 0.75, i.e. a >25%% regression)")
    try:
        options = parser.parse_args(argv[1:])
    except SystemExit:
        sys.exit(2)
    min_ratio = options.min_ratio
    quick_path, baseline_path = options.quick, options.baseline

    quick_rows = load_rows(quick_path)
    baseline_rows = load_rows(baseline_path)
    baselines = {}
    for row in baseline_rows:
        baselines[identity(row)] = row

    # Coverage: a baseline shape the quick run no longer emits means a
    # variant was renamed or dropped without refreshing the baseline — the
    # gate would silently stop measuring it.
    quick_shapes = {shape(row) for row in quick_rows}
    missing_shapes = sorted(
        {shape(row) for row in baseline_rows} - quick_shapes)
    if missing_shapes:
        print(f"COVERAGE: {len(missing_shapes)} baseline row shape(s) "
              f"missing from {quick_path}:")
        for missing in missing_shapes:
            print("  " + " ".join(f"{k}={v}" for k, v in missing))
        print("(rename/drop of a bench variant must refresh "
              f"{baseline_path} in the same change)")
        return 1

    failures = []
    compared = 0
    skipped = 0
    for row in quick_rows:
        base = baselines.get(identity(row))
        if base is None or not is_single_thread(row):
            skipped += 1
            continue
        metric = next((m for m in GATED_METRICS
                       if m in row and m in base), None)
        if metric is None or not base[metric]:
            skipped += 1
            continue
        ratio = row[metric] / base[metric]
        compared += 1
        tag = " ".join(f"{k}={v}" for k, v in sorted(row.items())
                       if k not in METRIC_FIELDS)
        verdict = "FAIL" if ratio < min_ratio else "ok"
        print(f"[{verdict}] {tag}: {metric} {row[metric]:.0f} vs "
              f"baseline {base[metric]:.0f} (x{ratio:.2f})")
        if ratio < min_ratio:
            failures.append(tag)

    print(f"compared {compared} single-thread row(s), skipped {skipped} "
          f"(multi-thread / no baseline match), threshold x{min_ratio:.2f}")
    if failures:
        print(f"REGRESSION: {len(failures)} row(s) below x{min_ratio:.2f} "
              f"of the committed baseline:")
        for tag in failures:
            print(f"  {tag}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
