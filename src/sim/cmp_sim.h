/**
 * @file
 * Execution-driven CMP simulator.
 *
 * Models the paper's machine (Table 2): in-order cores at IPC = 1
 * except on memory accesses, private L1s, a shared partitioned L2 and
 * a bandwidth-limited memory. Each core runs one synthetic
 * application; UCP repartitions the L2 on a fixed cycle interval.
 *
 * The simulator is access-driven: cores are advanced in timestamp
 * order one memory access at a time, which serializes the shared L2
 * exactly as a cycle-by-cycle interleaving would at this modeling
 * fidelity, while running millions of accesses per second.
 *
 * The shared L2 is a SharedL2: a flat cache or a BankedCache (paper
 * Table 2's per-bank controllers). Either way one thread steps every
 * core, so flat and banked runs share a single execution path;
 * banking only changes where an access lands.
 */

#ifndef VANTAGE_SIM_CMP_SIM_H_
#define VANTAGE_SIM_CMP_SIM_H_

#include <functional>
#include <memory>
#include <vector>

#include "cache/shared_l2.h"
#include "obs/epoch_clock.h"
#include "sim/cmp_config.h"
#include "sim/core_heap.h"
#include "stats/histogram.h"
#include "workload/access_stream.h"
#include "workload/app_model.h"

namespace vantage {

/** Per-core results after a measured run. */
struct CoreResult
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** L2 misses per kilo-instruction. */
    double
    mpki() const
    {
        return instructions ? 1000.0 * static_cast<double>(l2Misses) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/** Cores + L1s + shared L2 + memory + allocation policy. */
class CmpSim
{
  public:
    /**
     * @param cfg machine parameters; apps.size() must equal
     *        cfg.numCores.
     * @param apps one application per core.
     * @param l2 the shared cache (scheme partition count must equal
     *        the core count).
     * @param seed base seed for the app generators.
     */
    CmpSim(const CmpConfig &cfg, std::vector<AppSpec> apps,
           std::unique_ptr<Cache> l2, std::uint64_t seed = 1);

    /**
     * Trace-driven (or custom-stream) construction: one AccessStream
     * per core instead of synthetic app specs.
     */
    CmpSim(const CmpConfig &cfg,
           std::vector<std::unique_ptr<AccessStream>> streams,
           std::unique_ptr<Cache> l2);

    /**
     * Organization-agnostic construction: any SharedL2 (flat or
     * banked).
     */
    CmpSim(const CmpConfig &cfg, std::vector<AppSpec> apps,
           std::unique_ptr<SharedL2> l2, std::uint64_t seed = 1);

    CmpSim(const CmpConfig &cfg,
           std::vector<std::unique_ptr<AccessStream>> streams,
           std::unique_ptr<SharedL2> l2);

    /**
     * Run until every core has issued `accesses` memory accesses,
     * without recording results (cache warmup).
     */
    void warmup(std::uint64_t accesses);

    /**
     * Measured run: every core executes until it retires
     * `instructions`; cores that finish keep running (keeping
     * pressure on the shared cache, as in the paper's methodology)
     * until all have finished. Results snapshot at each core's
     * completion point.
     */
    void run(std::uint64_t instructions);

    const CoreResult &result(std::uint32_t core) const;

    /** Sum of per-core IPCs — the paper's throughput metric. */
    double throughput() const;

    /** Weighted speedup vs the provided single-core baseline IPCs. */
    double weightedSpeedup(const std::vector<double> &alone_ipc) const;

    /**
     * Harmonic mean of weighted speedups — the fairness-leaning
     * metric other partitioning studies report (Sec. 5 mentions it;
     * the paper found it tracks throughput under UCP).
     */
    double hmeanSpeedup(const std::vector<double> &alone_ipc) const;

    /** The flat shared cache; asserts when the L2 is banked. */
    Cache &l2();
    const Cache &l2() const;

    /** The shared L2, whatever its organization. */
    SharedL2 &sharedL2() { return *l2_; }
    const SharedL2 &sharedL2() const { return *l2_; }

    Ucp *ucp() { return ucp_.get(); }

    /** Current global cycle (max over cores). */
    Cycle now() const;

    /** Instructions retired by all cores so far, warmup included. */
    std::uint64_t instructions() const;

    /** The phase being stepped: "warmup" or "run". */
    const char *phase() const { return phase_; }

    /**
     * Fire read-only `obs` (a Heartbeat, a QosStepper) every `every`
     * accesses stepped across all cores, warmup included, after any
     * repartition (see obs/epoch_clock.h). `obs` must outlive the runs.
     */
    void
    addObserver(EpochObserver *obs, std::uint64_t every)
    {
        clock_.add(obs, every);
    }

    /**
     * Register live-readable state for the metrics service: per-core
     * progress counters (instructions, cycles, L2 accesses/misses)
     * and an IPC gauge under core.N, the shared cache's counters
     * under "cache", the partitioning scheme's introspection subtree
     * under "vantage" (Vantage controllers) or "scheme" (others;
     * banked L2s add a .bankB segment), UCP's monitors under "umon",
     * and simulator-level gauges under "sim". The registry must be
     * fully built before any sampler thread reads it and must not
     * outlive this simulator.
     */
    void registerLiveStats(StatsRegistry &reg) const;

    /**
     * Distribution of shared-L2 accesses between UCP reallocations
     * (the repartition interval is fixed in cycles, so the access gap
     * is the interesting distribution). Empty when UCP is off.
     */
    const Histogram &reallocGapHistogram() const
    {
        return reallocGap_;
    }

    /**
     * Invoked after every repartitioning with the current cycle —
     * hook for time-series capture (Fig. 8).
     */
    std::function<void(Cycle)> onRepartition;

  private:
    struct CoreState
    {
        Cycle cycle = 0;
        std::uint64_t instructions = 0;
        double instrCarry = 0.0; ///< Fractional instruction gap.
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Misses = 0;
        bool done = false;
        CoreResult snapshot;
        Cycle startCycle = 0;
        std::uint64_t startInstructions = 0;
        std::uint64_t startL2Accesses = 0;
        std::uint64_t startL2Misses = 0;
    };

    /** Advance the lowest-timestamp core by one memory access. */
    void step(std::uint32_t core);

    void fillSnapshot(CoreState &cs);

    /**
     * Core with the smallest local clock (lowest index on ties) —
     * O(1) off the scheduling heap.
     */
    std::uint32_t nextCore() const { return clockHeap_.top(); }

    void maybeRepartition();
    void markStart();

    void buildCaches();

    CmpConfig cfg_;
    std::vector<std::unique_ptr<AccessStream>> apps_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<SharedL2> l2_;
    std::unique_ptr<Ucp> ucp_;

    std::vector<CoreState> cores_;
    CoreClockHeap clockHeap_;
    Cycle memFree_ = 0;
    std::uint64_t l2WritebacksSeen_ = 0;
    Cycle nextRepartition_;

    // Accesses between reallocations (telemetry; cold path).
    Histogram reallocGap_;
    std::uint64_t lastReallocAccesses_ = 0;

    // Stepped accesses and the read-only observers they fire.
    EpochClock clock_;
    const char *phase_ = "warmup";
};

} // namespace vantage

#endif // VANTAGE_SIM_CMP_SIM_H_
