/**
 * @file
 * UCP: utility-based cache partitioning (Qureshi & Patt, MICRO'06),
 * as configured in the paper's evaluation (Sec. 5): one UMON-DSS per
 * core (64 sampled sets), Lookahead allocation, repartitioning every
 * interval, and — when driving Vantage — 256-point interpolated
 * miss-rate curves. The RRIP mode swaps in UMON-RRIP monitors and
 * additionally reports the per-partition SRRIP/BRRIP dueling winner
 * (for Vantage-DRRIP, Sec. 6.2).
 */

#ifndef VANTAGE_ALLOC_UCP_H_
#define VANTAGE_ALLOC_UCP_H_

#include <memory>
#include <string>
#include <vector>

#include "alloc/lookahead.h"
#include "alloc/umon.h"
#include "alloc/umon_rrip.h"
#include "common/check.h"

namespace vantage {

class StatsRegistry;

/** UCP configuration. */
struct UcpConfig
{
    /** Monitored ways (the partitioning granularity of the cache). */
    std::uint32_t umonWays = 16;
    /** Sampled monitor sets per core. */
    std::uint32_t umonSets = 64;
    /** Nominal set count of the monitored cache (power of two). */
    std::uint64_t modeledSets = 2048;
    /**
     * DSS sampling period: one in (samplePeriod / umonSets) accesses
     * is monitored. 0 means "use modeledSets", the paper's setting;
     * scaled-down simulations use a denser period so the monitors
     * converge within shortened runs.
     */
    std::uint64_t samplePeriod = 0;
    /** Use UMON-RRIP monitors (for Vantage-DRRIP). */
    bool rripMonitors = false;
};

/** Utility-based allocation policy over per-core monitors. */
class Ucp
{
  public:
    Ucp(std::uint32_t num_cores, const UcpConfig &cfg);

    /** Observe one L2 access by `core`. */
    void observe(PartId core, Addr addr);

    /**
     * Compute allocations for a scheme with the given quantum:
     * way-granular when quantum == umonWays, interpolated otherwise.
     * @param quantum total allocation units of the target scheme.
     * @param min_units floor per partition (1 way for way schemes).
     */
    std::vector<std::uint32_t> computeAllocations(
        std::uint32_t quantum, std::uint32_t min_units) const;

    /**
     * For RRIP monitors: whether BRRIP won the duel for each core
     * this interval.
     */
    std::vector<bool> brripChoices() const;

    /** Age counters at the end of a repartitioning interval. */
    void nextInterval();

    const Umon &umon(PartId core) const;
    std::uint32_t numCores() const { return numCores_; }

    // ------------------------------------------------------------------
    // Dynamic tenant lifecycle. Every monitor starts attached (the
    // fixed-population behavior); serve mode detaches the monitors of
    // empty slots and re-attaches one when a tenant joins. A
    // re-attach rebuilds the monitor from scratch with its original
    // seed, so a joining tenant starts from clean utility curves and
    // a replayed session reconstructs identical monitor state.
    // Detached monitors get zero units from computeAllocations() and
    // must not be observe()d.
    //
    // NOTE: registerIntrospection() captures raw monitor pointers;
    // do not re-register across an attach (the serve loop keeps its
    // own registries per epoch snapshot instead).

    /** Re-attach a detached core's monitor. @pre !monitorActive. */
    void attachMonitor(PartId core);

    /** Detach an attached core's monitor. @pre monitorActive. */
    void detachMonitor(PartId core);

    bool
    monitorActive(PartId core) const
    {
        return active_.empty() || active_[core] != 0;
    }

    /** Number of attached monitors. */
    std::uint32_t activeMonitors() const;

    /**
     * Lifecycle bookkeeping self-check: the active-flag recount must
     * equal the initial population plus attaches minus detaches.
     */
    void checkInvariants(InvariantReport &rep) const;

    /**
     * Live-introspection export: per-core monitor activity
     * (sampled accesses, misses) and the utility-curve cumulative
     * hit counts per way (`coreN.wayW.cum_hits`, LRU monitors), or
     * the SRRIP/BRRIP duel counters for RRIP monitors. Lets an
     * operator watch the curves the Lookahead allocator is acting
     * on while a run converges. Same threading contract as
     * PartitionScheme::registerIntrospection().
     */
    void registerIntrospection(StatsRegistry &reg,
                               const std::string &prefix) const;

  private:
    /** (Re)build one core's monitor with its canonical seed. */
    void buildMonitor(PartId core);

    std::uint32_t numCores_;
    UcpConfig cfg_;
    std::vector<std::unique_ptr<Umon>> umons_;
    std::vector<std::unique_ptr<UmonRrip>> rripUmons_;

    /** Per-core attached flag; empty until the first lifecycle call
     *  (all monitors implicitly attached). Mutable so introspection
     *  can size it eagerly before sampler-thread guards read it. */
    mutable std::vector<std::uint8_t> active_;
    std::uint64_t attaches_ = 0;
    std::uint64_t detaches_ = 0;
};

} // namespace vantage

#endif // VANTAGE_ALLOC_UCP_H_
