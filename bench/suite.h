/**
 * @file
 * Shared harness for the figure benchmarks: runs a set of L2
 * configurations over the multiprogrammed mix suite and reports
 * normalized throughput curves the way the paper plots them.
 *
 * Scale knobs (environment):
 *   VANTAGE_MIX_SEEDS     mixes per class (paper: 10; default 1)
 *   VANTAGE_INSTRS        measured instructions per core
 *   VANTAGE_WARMUP        warmup memory accesses per core
 *   VANTAGE_CLASS_STRIDE  run every k-th mix class (default 1)
 *   VANTAGE_JOBS          parallel runMix jobs (default: hardware
 *                         concurrency); results are bit-identical
 *                         at any job count
 *   VANTAGE_BENCH_DIR     directory for BENCH_<name>.json exports
 *                         (default: current directory)
 *   VANTAGE_EVENTS_OUT    write a Chrome trace_event timeline of the
 *                         suite run (mix spans, pool jobs) here
 *   VANTAGE_TRACE_CATEGORIES  category filter for the timeline
 *                         (comma list; default all)
 */

#ifndef VANTAGE_BENCH_SUITE_H_
#define VANTAGE_BENCH_SUITE_H_

#include <map>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace vantage {
namespace bench {

/** One mix's throughput under every configuration. */
struct MixRow
{
    std::string mix;
    double baseline = 0.0;                ///< Baseline throughput.
    std::vector<double> normalized;       ///< Per config, vs baseline.
};

/** Suite controls. */
struct SuiteOptions
{
    CmpConfig machine;
    std::uint32_t coresPerSlot = 1; ///< 1 => 4-core, 8 => 32-core.
    RunScale scale;
    std::uint32_t classStride = 1;  ///< Run every k-th class.

    /** Read scale + stride overrides from the environment. */
    static SuiteOptions fromEnv(const CmpConfig &machine,
                                std::uint32_t cores_per_slot,
                                const RunScale &defaults,
                                std::uint32_t default_stride = 1);
};

/**
 * Run `baseline` and each of `configs` over the mix suite.
 *
 * Mixes are independent simulations, so they fan out across a
 * ThreadPool of `opts.scale.jobs` workers (0 = auto: $VANTAGE_JOBS,
 * else hardware concurrency). Every job owns its RNG seeds, caches
 * and scratch state, and rows are collected by job index, so the
 * output is bit-identical regardless of the job count or completion
 * order. Progress goes to stderr; rows come back in class order.
 */
std::vector<MixRow> runSuite(const SuiteOptions &opts,
                             const L2Spec &baseline,
                             const std::vector<L2Spec> &configs);

/** Geometric mean of normalized column `idx`. */
double geomean(const std::vector<MixRow> &rows, std::size_t idx);

/** Fraction of mixes with normalized throughput > 1 in column idx. */
double fractionImproved(const std::vector<MixRow> &rows,
                        std::size_t idx);

/** Min / max of a normalized column. */
std::pair<double, double> minMax(const std::vector<MixRow> &rows,
                                 std::size_t idx);

/**
 * Print the paper's sorted-curve representation (Figs. 6a/7): for
 * each config, the normalized throughputs sorted ascending, sampled
 * at `points` workload indices, one row per sample.
 */
void printSortedCurves(const std::vector<MixRow> &rows,
                       const std::vector<std::string> &names,
                       std::size_t points = 20);

/** Print a per-config summary table (geomean, %improved, min, max). */
void printSummary(const std::vector<MixRow> &rows,
                  const std::vector<std::string> &names);

/** Print per-mix rows (Fig. 6b style). */
void printPerMix(const std::vector<MixRow> &rows,
                 const std::vector<std::string> &names);

/**
 * Export the suite results as BENCH_<bench>.json (written into
 * $VANTAGE_BENCH_DIR, default the current directory): per-config
 * geomean / fraction-improved / min / max plus every per-mix
 * normalized throughput. These files are the machine-readable
 * counterpart of the printed tables and serve as the perf-trajectory
 * baseline across PRs.
 */
void writeBenchJson(const std::string &bench,
                    const std::vector<MixRow> &rows,
                    const std::vector<std::string> &names);

/** One microbenchmark measurement for writeMicroJson(). */
struct MicroResult
{
    std::string name;        ///< Benchmark name, e.g. "BM_H3Hash".
    double nsPerOp = 0.0;    ///< Real time per iteration.
    std::uint64_t iterations = 0;
};

/**
 * Export microbenchmark results as BENCH_<bench>.json (same
 * $VANTAGE_BENCH_DIR resolution as writeBenchJson): a "benchmarks"
 * object mapping each benchmark to its ns/op and iteration count,
 * so serial hot-path changes show up in the bench trajectory
 * (scripts/bench_compare.py compares two such files).
 */
void writeMicroJson(const std::string &bench,
                    const std::vector<MicroResult> &results);

} // namespace bench
} // namespace vantage

#endif // VANTAGE_BENCH_SUITE_H_
