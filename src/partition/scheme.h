/**
 * @file
 * Partitioning-scheme interface.
 *
 * A scheme enforces per-partition capacity allocations at replacement
 * time. The Cache drives it: on a hit it calls onHit(); on a miss it
 * obtains the array's replacement candidates and asks the scheme to
 * pick a victim (or to bypass the fill entirely), then notifies it of
 * the eviction and insertion so it can track sizes.
 *
 * Allocation targets are expressed in *allocation units*; a scheme
 * advertises how many units exist in total (ways for way-partitioning
 * and PIPP, a finer quantum for Vantage). This mirrors how UCP drives
 * each scheme in the paper (Sec. 5): way-granular Lookahead for
 * way-partitioning/PIPP, 256-point interpolated curves for Vantage.
 */

#ifndef VANTAGE_PARTITION_SCHEME_H_
#define VANTAGE_PARTITION_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/cache_array.h"
#include "obs/audit.h"

namespace vantage {

class StatsRegistry;

/** Outcome of victim selection for one fill. */
struct VictimChoice
{
    /** Index into the candidate list; ignored when bypass is set. */
    std::int32_t candIdx = 0;
    /** When true, the incoming line is not cached at all. */
    bool bypass = false;
};

/** Abstract allocation-enforcement scheme. */
class PartitionScheme
{
  public:
    virtual ~PartitionScheme() = default;

    /** Human-readable scheme name for reports. */
    virtual std::string name() const = 0;

    /** Number of partitions the scheme was configured with. */
    virtual std::uint32_t numPartitions() const = 0;

    /** Total allocation units available for distribution. */
    virtual std::uint32_t allocationQuantum() const = 0;

    /**
     * Set per-partition targets, in allocation units.
     * @pre units.size() == numPartitions();
     *      sum(units) <= allocationQuantum().
     */
    virtual void setAllocations(
        const std::vector<std::uint32_t> &units) = 0;

    /**
     * The line in `slot` hit for `accessor`; update bookkeeping and
     * metadata via the array's hot/cold planes.
     */
    virtual void onHit(CacheArray &array, LineId slot,
                       PartId accessor) = 0;

    /**
     * Pick the victim for a fill by `inserting` among `cands`.
     * Schemes must cope with invalid (empty) candidates, preferring
     * them where their placement rules allow.
     */
    virtual VictimChoice selectVictim(CacheArray &array,
                                      PartId inserting, Addr addr,
                                      const CandidateBuf &cands) = 0;

    /**
     * The chosen victim (valid lines only) is about to be evicted;
     * it is still resident in `slot` when this runs.
     */
    virtual void onEvict(CacheArray &array, LineId slot) = 0;

    /**
     * A new line was installed in `slot` (addr/part already set); set
     * the scheme's replacement metadata and size accounting.
     */
    virtual void onInsert(CacheArray &array, LineId slot,
                          PartId part) = 0;

    /** Current actual size of a partition, in lines. */
    virtual std::uint64_t actualSize(PartId part) const = 0;

    /** Current target size of a partition, in lines. */
    virtual std::uint64_t targetSize(PartId part) const = 0;

    /**
     * Lines demoted managed -> unmanaged so far (Vantage schemes);
     * 0 for schemes without a region split. Folded into the access
     * digest so demotion-accounting drift is caught by golden tests.
     */
    virtual std::uint64_t demotionCount() const { return 0; }

    /**
     * Verify the scheme's bookkeeping against ground truth: recount
     * per-partition sizes (and any per-line metadata the scheme
     * shadows) from `array`'s line table and compare with the scheme's
     * counters, recording every mismatch in `rep`. Side-effect free on
     * simulation state.
     */
    virtual void
    checkInvariants(const CacheArray &array, InvariantReport &rep) const
    {
        (void)array;
        (void)rep;
    }

    /**
     * Default live-introspection export for the metrics service
     * (obs/metrics_service.h): per-partition target/actual sizes
     * (gauges, in lines) plus the scheme-wide demotion counter under
     * `prefix`. VantageController overrides and extends it.
     *
     * Unlike the post-mortem registerStats() exports, introspection
     * entries use exporter-facing names (aperture_bp, target_lines,
     * actual_lines, ...) so the dotted paths map to the documented
     * Prometheus metric names, and every registered accessor must
     * tolerate being read from a sampler thread while the owner
     * keeps simulating: register plain counters by raw pointer
     * (relaxed loads) and keep gauge closures to single-word reads.
     * Called at most once per registry, before any sampler thread
     * starts reading.
     */
    virtual void registerIntrospection(StatsRegistry &reg,
                                       const std::string &prefix) const;

    // ------------------------------------------------------------------
    // Dynamic partition lifecycle.
    //
    // Schemes are constructed with a fixed maximum partition count
    // (numPartitions()); tenants joining and leaving at runtime flip
    // slots between *active* and *retired* instead of resizing any
    // per-partition state (stats/introspection registries capture raw
    // pointers into those vectors, so they must never reallocate).
    // Every slot starts active, which keeps all pre-lifecycle
    // configurations — and their pinned golden digests — bit-identical.
    //
    // Retiring a slot stops new allocation to it; resident lines drain
    // lazily through the scheme's own churn mechanism (Vantage: target
    // 0 forces full-aperture demotion per Sec. 3.4 of the paper; way
    // schemes displace on demand). Re-creating a slot adopts any lines
    // still draining — size accounting stays exact throughout.

    /**
     * Activate a retired partition slot for a new tenant. Resets the
     * scheme's per-partition control state via onPartitionCreate();
     * any resident lines still draining from the previous tenant are
     * inherited. @pre !partitionActive(part).
     */
    void createPartition(PartId part);

    /**
     * Retire an active partition slot: its target drops to zero and
     * resident lines drain through the scheme's replacement churn.
     * @pre partitionActive(part).
     */
    void destroyPartition(PartId part);

    /** Whether `part` currently belongs to a live tenant. */
    bool partitionActive(PartId part) const;

    /** Number of active partition slots. */
    std::uint32_t activePartitions() const;

    /**
     * Attach a decision audit ring (nullptr detaches): repartitions
     * and lifecycle transitions — plus scheme-specific decisions like
     * Vantage's setpoint moves — are recorded with the register state
     * that caused them. Purely observational (digest-neutral); the
     * ring must outlive the scheme's use of it. See obs/audit.h.
     */
    void attachAudit(DecisionAudit *audit) { audit_ = audit; }
    DecisionAudit *audit() const { return audit_; }

  protected:
    /**
     * Record a decision about `part` with the base register state
     * (current target/actual sizes); a no-op while detached. Schemes
     * with richer registers fill DecisionRecord at their own sites.
     */
    void recordDecision(DecisionKind kind, PartId part);
    /**
     * Scheme hook run by createPartition() after the slot is marked
     * active: reset per-partition control registers (setpoints,
     * counters) for the new tenant. State describing resident lines
     * (size counters, timestamp histograms) must be kept — draining
     * leftovers are inherited.
     */
    virtual void onPartitionCreate(PartId part) { (void)part; }

    /**
     * Scheme hook run by destroyPartition() after the slot is marked
     * retired: drop the slot's target to zero so resident lines drain.
     */
    virtual void onPartitionDestroy(PartId part) { (void)part; }

    /**
     * Ensures active_ is sized; lazy because numPartitions() is
     * virtual and unavailable during base construction. Introspection
     * overrides must call this before installing partitionActive()
     * guards so the flag vector never reallocates under a concurrent
     * sampler.
     */
    void ensureLifecycle() const;

  private:

    /** Per-slot active flag; empty until the first lifecycle call
     *  (all slots implicitly active). */
    mutable std::vector<std::uint8_t> active_;

    /** Optional decision audit ring; not owned. */
    DecisionAudit *audit_ = nullptr;
};

} // namespace vantage

#endif // VANTAGE_PARTITION_SCHEME_H_
