/**
 * @file
 * Experiment plumbing shared by the benchmark harnesses: named L2
 * configurations (array x scheme), mix runners, and run-scale
 * controls.
 *
 * Run scale: the quick defaults finish each figure in minutes. The
 * environment overrides let a user reproduce paper-scale runs:
 *   VANTAGE_MIX_SEEDS     mixes per class (paper: 10)
 *   VANTAGE_INSTRS        measured instructions per core
 *   VANTAGE_WARMUP        warmup memory accesses per core
 *   VANTAGE_STATS_PERIOD  controller accesses between trace samples
 *   VANTAGE_JOBS          parallel runMix jobs for suite runs
 *                         (default: hardware concurrency)
 *   VANTAGE_HEARTBEAT     memory accesses between one-line JSON
 *                         progress records on stderr (0 = off)
 */

#ifndef VANTAGE_SIM_EXPERIMENT_H_
#define VANTAGE_SIM_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/banked_cache.h"
#include "cache/cache.h"
#include "core/vantage.h"
#include "sim/cmp_sim.h"

namespace vantage {

/** Cache-array designs used in the evaluation. */
enum class ArrayKind {
    Z4_52, ///< 4-way zcache, 52 candidates (the paper's default).
    Z4_16, ///< 4-way zcache, 16 candidates.
    SA16,  ///< 16-way hashed set-associative.
    SA64,  ///< 64-way hashed set-associative.
    Random ///< Idealized uniform-candidates array (R = 52).
};

/** Management schemes used in the evaluation. */
enum class SchemeKind {
    UnpartLru,    ///< Shared cache, LRU (baseline).
    UnpartSrrip,  ///< Shared cache, SRRIP.
    UnpartDrrip,  ///< Shared cache, DRRIP.
    UnpartTaDrrip,///< Shared cache, TA-DRRIP.
    WayPart,      ///< Way-partitioning + LRU.
    Pipp,         ///< PIPP.
    Vantage,      ///< Vantage-LRU.
    VantageDrrip, ///< Vantage-DRRIP (RRIP ranks + dueling monitors).
    VantageOracle ///< Perfect-aperture validation variant.
};

const char *arrayKindName(ArrayKind k);
const char *schemeKindName(SchemeKind k);

/** Full description of one shared-L2 configuration. */
struct L2Spec
{
    ArrayKind array = ArrayKind::Z4_52;
    SchemeKind scheme = SchemeKind::Vantage;
    std::uint64_t lines = 32768;
    std::uint32_t numPartitions = 4;
    /** Vantage knobs (u, Amax, slack); ignored by other schemes. */
    VantageConfig vantage;
    std::uint64_t seed = 0x12;

    std::string name() const;
};

/** Construct the array for a spec. */
std::unique_ptr<CacheArray> buildArray(const L2Spec &spec);

/** Construct the full L2 cache for a spec. */
std::unique_ptr<Cache> buildL2(const L2Spec &spec);

/**
 * Construct a banked L2 for a spec: `banks` banks of lines/banks
 * lines each (lines must divide evenly), every bank its own complete
 * Cache with a bank-distinct seed, routed by an H3 hash derived from
 * the spec seed. Matches the fuzz driver's banked construction so a
 * (spec, banks) pair means the same cache everywhere.
 */
std::unique_ptr<BankedCache> buildBankedL2(const L2Spec &spec,
                                           std::uint32_t banks);

/**
 * Check a spec against every precondition that buildL2() and the
 * array, scheme and controller constructors assert on, for
 * spec.numPartitions partitions. vsim's command line and a serve
 * journal's header both pass through here first, so a bad value
 * fails with a message instead of an abort.
 * @return false with `error` set on the first violation.
 */
bool validateL2Spec(const L2Spec &spec, std::string &error);

/** Scale of a simulation run. */
struct RunScale
{
    std::uint64_t warmupAccesses = 50'000;  ///< Per core.
    std::uint64_t instructions = 1'500'000; ///< Measured, per core.
    std::uint32_t mixSeedsPerClass = 1;
    /** Controller accesses between ControllerTrace samples. */
    std::uint64_t statsPeriod = 10'000;
    /**
     * Parallel runMix jobs for suite-style runs (each simulation
     * stays single-threaded). 0 = auto: $VANTAGE_JOBS if set, else
     * hardware concurrency. Results are independent of this value —
     * a parallel suite run is bit-identical to a serial one.
     */
    std::uint32_t jobs = 0;
    /**
     * Emit a single-line JSON heartbeat to stderr every this many
     * memory accesses stepped (0 = disabled). Observational only:
     * results and digests are unaffected.
     */
    std::uint64_t heartbeatEvery = 0;

    /** Defaults overridden by VANTAGE_* environment variables. */
    static RunScale fromEnv();
};

/** Result of one mix under one configuration. */
struct MixResult
{
    std::string mix;
    std::string config;
    double throughput = 0.0;
    std::vector<CoreResult> cores;
};

class MetricsService;

/**
 * Observability hooks for one runMix invocation. All optional and
 * purely observational — results and digests are unaffected.
 */
struct MixHooks
{
    /**
     * Receives each heartbeat record (one complete JSON line, no
     * trailing newline) instead of stderr. Suite runners route
     * heartbeats through their progress display so parallel jobs
     * never interleave mid-line.
     */
    std::function<void(const std::string &)> heartbeatSink;

    /**
     * When set, the run registers its live stats with the service
     * under `job` for its duration, so one endpoint exposes every
     * in-flight mix of a suite run.
     */
    MetricsService *metrics = nullptr;
    std::string job;
};

/**
 * Run one mix: build the L2, warm up, measure.
 * @param cfg machine model (numCores must match apps.size()).
 */
MixResult runMix(const CmpConfig &cfg, const L2Spec &spec,
                 const std::vector<AppSpec> &apps,
                 const RunScale &scale, const std::string &mix_name,
                 std::uint64_t seed = 1,
                 const MixHooks &hooks = MixHooks());

} // namespace vantage

#endif // VANTAGE_SIM_EXPERIMENT_H_
