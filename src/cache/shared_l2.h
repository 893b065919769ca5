/**
 * @file
 * Shared-L2 abstraction: one interface over a flat Cache and a
 * BankedCache, so the CMP simulator and the vsim driver are agnostic
 * to the L2 organization.
 *
 * The simulator only ever needed a Cache before banked L2s became
 * first-class (vsim --banks); rather than teach every call site two
 * shapes, this interface carries exactly the operations CmpSim and
 * the driver perform on the shared cache: the access itself, the
 * repartitioning surface (quantum/allocations/BRRIP duel results),
 * aggregate sizes and stats, digest attachment, and the stats/
 * introspection exports. MonoL2 adapts a flat Cache with zero
 * behavior change — every virtual forwards to the exact call the
 * simulator used to make — which is what keeps the flat-L2 golden
 * digests (tests/golden/digests.txt) bit-identical through it.
 */

#ifndef VANTAGE_CACHE_SHARED_L2_H_
#define VANTAGE_CACHE_SHARED_L2_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"

namespace vantage {

class DecisionAudit;

/** The shared-cache surface the CMP simulator drives. */
class SharedL2
{
  public:
    virtual ~SharedL2() = default;

    /** Same semantics as Cache::access. */
    virtual AccessResult access(Addr addr, PartId part,
                                AccessType type) = 0;

    /** Dirty evictions since the last resetStats(). */
    virtual std::uint64_t writebacks() const = 0;

    virtual std::uint32_t numPartitions() const = 0;
    virtual std::uint32_t allocationQuantum() const = 0;

    /** Scheme-units allocation (replicated per bank when banked). */
    virtual void
    setAllocations(const std::vector<std::uint32_t> &units) = 0;

    /**
     * Apply per-partition DRRIP dueling winners. No-op unless the
     * scheme is a VantageRrip (matching the simulator's historical
     * dynamic_cast guard).
     */
    virtual void applyBrrip(const std::vector<bool> &brrip) = 0;

    /**
     * Whether the scheme consumes applyBrrip(). Gates the
     * Ucp::brripChoices() call, which asserts on non-RRIP monitors.
     */
    virtual bool wantsBrrip() const = 0;

    /** Aggregate per-partition sizes (summed across banks). */
    virtual std::uint64_t targetSize(PartId part) const = 0;
    virtual std::uint64_t actualSize(PartId part) const = 0;

    /** Aggregate hit/miss stats. */
    virtual CacheAccessStats totalStats() const = 0;
    virtual CacheAccessStats partAccessStats(PartId part) const = 0;
    virtual void resetStats() = 0;

    /**
     * Fold access outcomes into `digest`. Banked caches fold into
     * per-bank streams; finalizeDigest() merges them bank-major.
     */
    virtual void attachDigest(AccessDigest *digest) = 0;

    /**
     * Merge any per-bank digest streams into the attached digest, in
     * canonical bank-major order. Call once, after the last access;
     * a flat cache folds inline and needs no merge (default no-op).
     */
    virtual void finalizeDigest() {}

    virtual void enableHistograms() = 0;

    /** Post-mortem stats export (vsim --stats-out). */
    virtual void registerStats(StatsRegistry &reg,
                               const std::string &prefix) const = 0;

    /**
     * Live-introspection export for the metrics service, using the
     * simulator's top-level prefixes ("cache", "vantage"/"scheme").
     */
    virtual void
    registerLiveIntrospection(StatsRegistry &reg) const = 0;

    virtual void checkInvariants(InvariantReport &rep) const = 0;

    /**
     * Tenant lifecycle (see Cache::createPartition): activate /
     * retire a partition slot. Banked caches apply the change — and
     * fold its digest marker — in every bank, in bank order.
     */
    virtual void createPartition(PartId part) = 0;
    virtual void destroyPartition(PartId part) = 0;
    virtual bool partitionActive(PartId part) const = 0;

    /** The flat cache when this L2 is one, else nullptr. */
    virtual Cache *monoCache() { return nullptr; }
};

/** A flat Cache behind the SharedL2 interface. */
class MonoL2 : public SharedL2
{
  public:
    explicit MonoL2(std::unique_ptr<Cache> cache);
    ~MonoL2() override;

    AccessResult
    access(Addr addr, PartId part, AccessType type) override
    {
        return cache_->access(addr, part, type);
    }

    std::uint64_t
    writebacks() const override
    {
        return cache_->writebacks();
    }

    std::uint32_t numPartitions() const override;
    std::uint32_t allocationQuantum() const override;
    void
    setAllocations(const std::vector<std::uint32_t> &units) override;
    void applyBrrip(const std::vector<bool> &brrip) override;
    bool wantsBrrip() const override;
    std::uint64_t targetSize(PartId part) const override;
    std::uint64_t actualSize(PartId part) const override;
    CacheAccessStats totalStats() const override;
    CacheAccessStats partAccessStats(PartId part) const override;
    void resetStats() override;
    void attachDigest(AccessDigest *digest) override;
    void enableHistograms() override;
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const override;
    void registerLiveIntrospection(StatsRegistry &reg) const override;
    void checkInvariants(InvariantReport &rep) const override;
    void createPartition(PartId part) override;
    void destroyPartition(PartId part) override;
    bool partitionActive(PartId part) const override;

    Cache *monoCache() override { return cache_.get(); }

  private:
    std::unique_ptr<Cache> cache_;
};

/**
 * Attach a decision audit ring to a flat L2's scheme. A record
 * carries no bank, so a banked L2 (one scheme per bank) warns and
 * attaches nothing. @return whether the ring was attached.
 */
bool attachAudit(SharedL2 &l2, DecisionAudit *audit);

} // namespace vantage

#endif // VANTAGE_CACHE_SHARED_L2_H_
