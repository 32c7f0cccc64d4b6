#!/usr/bin/env python3
"""Read result records written by ``run.py`` (``.perfbench/records.jsonl``).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl   # one row per (workload, metric)
    python3 perfbench/compare.py RUNS.jsonl             # spread of one set of runs
    python3 perfbench/compare.py --overhead RUNS.jsonl  # traced minus untraced

A comparison prints each side's median and quartiles, the relative delta of
the medians and a verdict against the metric's bound in ``BENCHMARK.json``:

- ``unresolved``: either side's quartile spread (IQR / median) exceeds the
  bound, unless every new run beats every base run (then ``better``);
- ``worse``: the new median is worse than the base median by more than the
  bound;
- ``better``: the new median is better by more than the larger of the two
  spreads;
- ``unchanged``: otherwise.

Records whose fingerprints differ in cores or BLAS threads are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from env import MUST_MATCH, mismatch  # noqa: E402

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path, trace=0) -> list:
    records = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record.get("trace", 0) == trace:
                    records.append(record)
    return records


def check_fingerprints(records, label) -> dict:
    first = records[0]["fingerprint"]
    for record in records[1:]:
        differs = mismatch(first, record["fingerprint"])
        if differs:
            raise SystemExit(f"error: {label} mixes fingerprints that differ in {differs}")
    return first


def series(records) -> dict:
    """``{(workload, metric): [values]}`` of the end-to-end metrics."""
    values = defaultdict(list)
    for record in records:
        for metric, value in record["end_to_end"].items():
            values[(record["workload"], metric)].append(float(value))
    return values


def summary(values) -> tuple:
    """``(median, q1, q3, spread)``; spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, bound, lower_is_better) -> tuple:
    b_med, _, _, b_spread = summary(base)
    n_med, _, _, n_spread = summary(new)
    delta = (n_med - b_med) / abs(b_med) if b_med else 0.0
    gain = -delta if lower_is_better else delta
    if lower_is_better:
        dominates = max(new) < min(base)
    else:
        dominates = min(new) > max(base)
    if max(b_spread, n_spread) > bound:
        return delta, "better" if dominates else "unresolved"
    if gain < -bound:
        return delta, "worse"
    if gain > max(b_spread, n_spread):
        return delta, "better"
    return delta, "unchanged"


def metric_specs() -> dict:
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def fmt(value) -> str:
    return f"{value:.6g}"


def compare(base_path, new_path) -> int:
    base, new = load(base_path), load(new_path)
    if not base or not new:
        raise SystemExit("error: both files need untraced records")
    base_fp = check_fingerprints(base, base_path)
    new_fp = check_fingerprints(new, new_path)
    differs = mismatch(base_fp, new_fp)
    if differs:
        raise SystemExit(
            f"error: fingerprints differ in {differs}: "
            + ", ".join(f"{k} {base_fp.get(k)} vs {new_fp.get(k)}" for k in MUST_MATCH)
        )
    specs = metric_specs()
    base_values, new_values = series(base), series(new)
    print(f"{'workload':<13} {'metric':<18} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'delta':>8}  verdict")
    worse = 0
    for key in sorted(set(base_values) & set(new_values)):
        workload, metric = key
        if metric not in specs:
            continue
        spec = specs[metric]
        b, n = base_values[key], new_values[key]
        delta, word = verdict(b, n, spec["bound"], spec["better"] == "lower")
        worse += word == "worse"
        bm, bq1, bq3, _ = summary(b)
        nm, nq1, nq3, _ = summary(n)
        print(f"{workload:<13} {metric:<18} "
              f"{fmt(bm) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':<34} "
              f"{fmt(nm) + ' [' + fmt(nq1) + ', ' + fmt(nq3) + ']':<34} "
              f"{delta:>+8.2%}  {word}")
    return 1 if worse else 0


def spreads(path) -> int:
    """Acceptance check on one set of runs: every spread within its bound
    (and below a third of it, the target for a steady benchmark)."""
    records = load(path)
    check_fingerprints(records, path)
    specs = metric_specs()
    over = 0
    print(f"{'workload':<13} {'metric':<18} {'n':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  status")
    for (workload, metric), values in sorted(series(records).items()):
        if metric not in specs:
            continue
        median, _, _, spread = summary(values)
        bound = specs[metric]["bound"]
        status = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        if metric != "setup_s" and spread > bound:
            over += 1
        print(f"{workload:<13} {metric:<18} {len(values):>3} {fmt(median):>12} "
              f"{spread:>8.2%} {bound:>6.0%}  {status}")
    return 1 if over else 0


def overhead(path) -> int:
    """Tracing overhead per workload: traced result minus untraced median."""
    untraced = series(load(path, trace=0))
    traced = series(load(path, trace=1))
    print(f"{'workload':<13} {'metric':<18} {'untraced':>12} {'traced':>12} {'overhead':>9}")
    for key in sorted(set(untraced) & set(traced)):
        plain = statistics.median(untraced[key])
        with_trace = statistics.median(traced[key])
        share = (with_trace - plain) / abs(plain) if plain else 0.0
        print(f"{key[0]:<13} {key[1]:<18} {fmt(plain):>12} {fmt(with_trace):>12} "
              f"{share:>+9.2%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--overhead", action="store_true",
                        help="traced minus untraced records of one file")
    args = parser.parse_args(argv)
    if args.overhead:
        return overhead(args.files[0])
    if len(args.files) == 1:
        return spreads(args.files[0])
    if len(args.files) == 2:
        return compare(*args.files)
    parser.error("give one or two record files")


if __name__ == "__main__":
    sys.exit(main())
