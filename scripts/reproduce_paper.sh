#!/bin/sh
# Paper-scale reproduction driver.
#
# The default bench configuration is scaled to finish in minutes on a
# single core. This script re-runs every figure at (or near) the
# paper's scale: 10 mixes per class (350 workloads per machine), every
# class, and long measured runs. Expect many hours of runtime; results
# are written to results/.
set -eu

BUILD=${BUILD:-build}
OUT=${OUT:-results}
SCRIPTS=$(dirname "$0")
mkdir -p "$OUT"

export VANTAGE_MIX_SEEDS=${VANTAGE_MIX_SEEDS:-10}
export VANTAGE_CLASS_STRIDE=1
export VANTAGE_INSTRS=${VANTAGE_INSTRS:-20000000}
export VANTAGE_WARMUP=${VANTAGE_WARMUP:-1000000}
export VANTAGE_BENCH_DIR="$OUT"
# Suite benches fan independent mixes across cores; results are
# bit-identical at any job count. Override with VANTAGE_JOBS=N.
export VANTAGE_JOBS=${VANTAGE_JOBS:-$(nproc 2>/dev/null || echo 1)}
echo "reproduce_paper: running suites with VANTAGE_JOBS=$VANTAGE_JOBS"

for bench in \
    fig01_associativity fig02_managed_region fig03_threshold_table \
    fig05_unmanaged_sizing fig06_4core fig07_32core \
    fig08_size_tracking fig09_unmanaged_sweep fig10_cache_designs \
    fig11_rrip table1_properties table2_configs table3_workloads \
    model_validation ablation_feedback fairness_metrics
do
    echo "=== $bench ==="
    "$BUILD/bench/$bench" | tee "$OUT/$bench.txt"
done

# Microbenchmarks of the serial hot paths (exports BENCH_micro.json).
# Compare against a previous run's export with
#   python3 scripts/bench_compare.py --baseline OLD.json \
#       --current BENCH_micro.json
echo "=== micro_overheads ==="
"$BUILD/bench/micro_overheads" | tee "$OUT/micro_overheads.txt"

# One instrumented vsim run: full stats registry + controller trace
# + Chrome event trace (load vsim_mix0.events.json in Perfetto) +
# live heartbeats on stderr.
echo "=== vsim observability run ==="
"$BUILD/src/sim/vsim" --mix 0 --jobs "$VANTAGE_JOBS" \
    --stats-out "$OUT/vsim_mix0.stats.json" \
    --trace-out "$OUT/vsim_mix0.trace.csv" \
    --events-out "$OUT/vsim_mix0.events.json" \
    --heartbeat 1000000

# Fail the reproduction if any machine-readable export is malformed.
for f in "$OUT"/BENCH_*.json; do
    case "$f" in
      */BENCH_micro.json)
        python3 "$SCRIPTS/check_json.py" --require benchmarks "$f" ;;
      *)
        python3 "$SCRIPTS/check_json.py" --require configs "$f" ;;
    esac
done
python3 "$SCRIPTS/check_json.py" --require cache.l2.vantage \
    --require sim.realloc_gap_accesses \
    "$OUT/vsim_mix0.stats.json"
python3 "$SCRIPTS/check_trace.py" "$OUT/vsim_mix0.events.json" \
    --require-cat sim --require-cat pool

echo "Paper-scale outputs written to $OUT/"
