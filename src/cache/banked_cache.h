/**
 * @file
 * Banked shared cache (paper Table 2: the 8 MB L2 is 4 banks of
 * 2 MB, each with its own Vantage controller — "with 32K lines per
 * bank, this amounts to 256 bits per partition [per bank]").
 *
 * BankedCache routes each line address to a bank by H3 hash and
 * keeps one complete Cache (array + scheme) per bank. Allocations
 * are expressed globally and divided evenly across banks, which is
 * exact in expectation because the hash spreads every partition's
 * lines uniformly over banks. The banks are parallel hardware, but
 * the simulator only has to route: every access runs serially on
 * the caller's thread.
 *
 * Digests fold into one stream per bank, and finalizeDigest() merges
 * the streams bank-major into the attached digest. That merge is the
 * definition of a banked digest: every pinned banked golden point
 * was captured with it, so folding outcomes inline into one stream
 * would change every banked digest without any behavior change.
 */

#ifndef VANTAGE_CACHE_BANKED_CACHE_H_
#define VANTAGE_CACHE_BANKED_CACHE_H_

#include <memory>
#include <vector>

#include "cache/cache.h"
#include "cache/shared_l2.h"
#include "hash/h3.h"

namespace vantage {

/** N independent banks behind one access interface. */
class BankedCache : public SharedL2
{
  public:
    /**
     * @param banks one Cache per bank; all must have the same
     *        partition count.
     * @param seed bank-routing hash seed.
     */
    explicit BankedCache(std::vector<std::unique_ptr<Cache>> banks,
                         std::uint64_t seed = 0xba4c);

    /** Route and access; same semantics as Cache::access. */
    AccessResult access(Addr addr, PartId part,
                        AccessType type = AccessType::Load) override;

    bool contains(Addr addr) const;

    /** Bank an address maps to. */
    std::uint32_t bankOf(Addr addr) const;

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    Cache &bank(std::uint32_t b);
    const Cache &bank(std::uint32_t b) const;

    std::uint32_t numPartitions() const override;
    std::uint32_t allocationQuantum() const override;

    /**
     * Set global allocations (in each bank-scheme's units); each
     * bank receives the same per-partition share.
     */
    void
    setAllocations(const std::vector<std::uint32_t> &units) override;

    /** Apply DRRIP duel winners to every bank's VantageRrip. */
    void applyBrrip(const std::vector<bool> &brrip) override;
    bool wantsBrrip() const override;

    /** Aggregate actual size of a partition across banks. */
    std::uint64_t actualSize(PartId part) const override;

    /** Aggregate target size of a partition across banks. */
    std::uint64_t targetSize(PartId part) const override;

    /** Aggregate hit/miss stats across banks. */
    CacheAccessStats totalStats() const override;
    CacheAccessStats partAccessStats(PartId part) const override;
    std::uint64_t writebacks() const override;
    void resetStats() override;

    /**
     * Live-introspection export with the simulator's top-level
     * prefixes: each bank's cache counters under cache.bankB and its
     * scheme state under vantage.bankB (Vantage controllers) or
     * scheme.bankB, so per-bank metrics render with both bank and
     * part labels on the Prometheus endpoint.
     */
    void
    registerLiveIntrospection(StatsRegistry &reg) const override;

    /** Post-mortem export: every bank under `prefix`.bankB. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const override;

    void enableHistograms() override;

    /**
     * Fold access outcomes into per-bank streams, merged into
     * `digest` by finalizeDigest().
     */
    void attachDigest(AccessDigest *digest) override;

    /** Merge the per-bank streams, bank-major (order is part of the
     *  digest definition). Call once, after the last access. */
    void finalizeDigest() override;

    /** Run every bank's invariant checks into one report. */
    void checkInvariants(InvariantReport &rep) const override;

    /**
     * Tenant lifecycle: applied to every bank in bank order, so each
     * bank folds the lifecycle marker into its own digest stream.
     */
    void createPartition(PartId part) override;
    void destroyPartition(PartId part) override;
    bool partitionActive(PartId part) const override;

  private:
    std::vector<std::unique_ptr<Cache>> banks_;
    H3Hash hash_;

    // Digest plumbing: the external digest plus one stream per bank.
    AccessDigest *extDigest_ = nullptr;
    std::vector<AccessDigest> bankDigests_;
};

} // namespace vantage

#endif // VANTAGE_CACHE_BANKED_CACHE_H_
