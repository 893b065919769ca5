/**
 * @file
 * Shared plumbing of the vbench driver: host timing, sample
 * statistics, the per-call layer timers the traced run accumulates,
 * and the result record every workload fills in.
 */

#ifndef VBENCH_HARNESS_H_
#define VBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace vbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Cycle counter for per-call layer timers: the TSC on x86-64, where a
 * read costs a few ns against ~30 ns for steady_clock, so calls of a
 * few ns stay resolvable; steady_clock nanoseconds elsewhere.
 */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(nowNs());
#endif
}

/** Nanoseconds per ticks() unit, calibrated once against steady_clock. */
double nsPerTick();

/**
 * Cost of one ticks() read in ticks, measured once per process
 * (median of back-to-back reads). Per-call layer timings subtract it.
 */
double timerSelfCostTicks();

/** Median of `v` (by copy); 0 for an empty vector. */
double median(std::vector<double> v);

/**
 * Quantile `q` in [0, 1] with linear interpolation between order
 * statistics; 0 for an empty vector.
 */
double quantile(std::vector<double> v, double q);

/**
 * One layer's per-call timer: count of calls and their summed host
 * time, each call's reading corrected for the timer's own cost.
 */
struct LayerTimer
{
    std::uint64_t calls = 0;
    double totalNs = 0.0;

    /** One call timed as the ticks() span [t0, t1). */
    void
    add(std::uint64_t t0, std::uint64_t t1)
    {
        ++calls;
        totalNs += (static_cast<double>(t1 - t0) - timerSelfCostTicks()) *
                   nsPerTick();
    }

    /** One call timed as two spans [t0, t1) and [t2, t3). */
    void
    add(std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
        std::uint64_t t3)
    {
        ++calls;
        totalNs += (static_cast<double>((t1 - t0) + (t3 - t2)) -
                    2.0 * timerSelfCostTicks()) *
                   nsPerTick();
    }

    double
    perCallNs() const
    {
        return calls ? totalNs / static_cast<double>(calls) : 0.0;
    }
};

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run hands back to main(). */
struct RunResult
{
    /** Outcome digest of the workload at this seed (every rep). */
    std::uint64_t digest = 0;
    /** Digest-checked executions (reps, replays) and their failures. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check, for the detail record. */
    std::vector<std::string> failures;
    /** Metrics run.py reports: BENCHMARK.json's end-to-end or
     *  per-layer list. */
    std::map<std::string, Metric> metrics;
    /**
     * Workload-specific figures that are not BENCHMARK.json metrics
     * (sample counts, layer totals, the IPC sum of the cmp machine).
     */
    std::map<std::string, double> detail;

    /** Record one checked execution; `ok` false counts a failure. */
    void check(bool ok, const std::string &what);

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /**
     * Set `name` to the median of per-rep `samples`, recording their
     * interquartile range as a share of the median in the detail.
     */
    void setMedian(const std::string &name,
                   const std::vector<double> &samples, const char *unit);

    /**
     * Set `name` to the highest of per-rep rate `samples`. On a shared
     * host, interference only ever slows a rep down, so the
     * least-disturbed rep is the steadiest estimate of the program's
     * own speed (the min-of-N time); the median and its spread go to
     * the detail.
     */
    void setBest(const std::string &name,
                 const std::vector<double> &samples, const char *unit);

    /**
     * Batch latency detail from per-pass batch latencies (µs): each
     * pass's own p50 and p99, best pass and median over passes.
     */
    void setBatchLatency(const std::vector<std::vector<double>> &passes);
};

/** Command-line knobs shared by every workload. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrunk work units for the fidelity self-test. */
    bool selftest = false;
    /** Scratch directory for journals (inside the checkout). */
    std::string workDir;
};

/** Format a double with every significant digit. */
std::string fmtDouble(double v);

/** Escape `s` as a JSON string body (no surrounding quotes). */
std::string jsonEscape(const std::string &s);

} // namespace vbench

#endif // VBENCH_HARNESS_H_
