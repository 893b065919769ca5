#!/usr/bin/env python3
"""Compare a micro-benchmark run against a pinned baseline.

Usage: bench_compare.py --baseline bench/baseline_micro.json \
                        --current BENCH_micro.json [--tol 1.15]

Both files are BENCH_micro.json exports from bench/micro_overheads
({"benchmarks": {name: {"ns_per_op": ...}}}). Every benchmark present
in BOTH files is compared as current/baseline; a ratio above the
tolerance is a regression. A baseline entry may carry its own
"tolerance" field (huge-footprint benchmarks are noisier than in-LLC
ones), which overrides --tol for that benchmark. Benchmarks present
on only one side are reported but never fail the comparison (new
benchmarks must be able to land before the baseline is re-pinned).

Exits 0 when no benchmark regresses beyond the tolerance, 1 on any
regression, 2 on usage/parse errors. Intended both for local use and
as the CI bench-smoke gate; it is the only micro-benchmark gate
(micro_overheads itself only measures and exports).
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: {path}: {e}")
    bench = obj.get("benchmarks")
    if not isinstance(bench, dict) or not bench:
        sys.exit(f"bench_compare: {path}: no 'benchmarks' object")
    out = {}
    for name, entry in bench.items():
        ns = entry.get("ns_per_op") if isinstance(entry, dict) else None
        if not isinstance(ns, (int, float)) or ns <= 0:
            sys.exit(f"bench_compare: {path}: bad ns_per_op for {name}")
        tol = entry.get("tolerance")
        if tol is not None and (
                not isinstance(tol, (int, float)) or tol <= 1.0):
            sys.exit(f"bench_compare: {path}: bad tolerance for {name}")
        out[name] = (float(ns), float(tol) if tol is not None else None)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="pinned baseline BENCH_micro.json")
    ap.add_argument("--current", required=True,
                    help="freshly produced BENCH_micro.json")
    ap.add_argument("--tol", type=float, default=1.15,
                    help="max current/baseline ratio (default 1.15)")
    args = ap.parse_args()
    if args.tol <= 0:
        sys.exit("bench_compare: --tol must be positive")

    base = load(args.baseline)
    cur = load(args.current)

    regressions = []
    width = max(len(n) for n in sorted(set(base) | set(cur)))
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            print(f"{name:<{width}}  (new: no baseline)")
            continue
        if name not in cur:
            print(f"{name:<{width}}  (missing from current run)")
            continue
        base_ns, entry_tol = base[name]
        tol = entry_tol if entry_tol is not None else args.tol
        ratio = cur[name][0] / base_ns
        flag = ""
        if ratio > tol:
            flag = "  REGRESSION"
            regressions.append((name, ratio, tol))
        elif ratio < 1.0 / tol:
            flag = "  improved"
        print(f"{name:<{width}}  {base_ns:>12.1f} -> "
              f"{cur[name][0]:>12.1f} ns/op  x{ratio:.3f} "
              f"(tol x{tol:.2f}){flag}")

    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s):",
              file=sys.stderr)
        for name, ratio, tol in regressions:
            print(f"  {name}: x{ratio:.3f} > x{tol:.2f}",
                  file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({len(set(base) & set(cur))} compared, "
          f"default tolerance x{args.tol:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
