/**
 * @file
 * A complete cache: array + partitioning scheme (+ statistics).
 *
 * The Cache drives the array/scheme split described in the paper's
 * Sec. 3.2: the array produces replacement candidates, the scheme
 * (which embeds or subsumes a replacement policy) ranks them and
 * tracks partition state. The same class models both private L1s
 * (SetAssocArray + Unpartitioned) and the shared partitioned L2.
 */

#ifndef VANTAGE_CACHE_CACHE_H_
#define VANTAGE_CACHE_CACHE_H_

#include <memory>
#include <string>
#include <vector>

#include "array/cache_array.h"
#include "common/check.h"
#include "common/digest.h"
#include "partition/scheme.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace vantage {

class StatsRegistry;

/** Per-partition hit/miss counters. */
struct CacheAccessStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t accesses() const { return hits + misses; }

    double
    missRate() const
    {
        const std::uint64_t total = accesses();
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Array + scheme + bookkeeping. */
class Cache
{
  public:
    /**
     * @param array the tag/data array.
     * @param scheme the allocation-enforcement scheme.
     * @param name for reports.
     */
    Cache(std::unique_ptr<CacheArray> array,
          std::unique_ptr<PartitionScheme> scheme, std::string name);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Access a line on behalf of partition `part`.
     * On a miss the line is filled (unless the scheme bypasses);
     * stores mark the line dirty and evicting a dirty line counts a
     * writeback. @return Hit or Miss.
     */
    AccessResult access(Addr addr, PartId part,
                        AccessType type = AccessType::Load);

    /** True when addr is currently cached (no state change). */
    bool contains(Addr addr) const;

    const std::string &name() const { return name_; }
    CacheArray &array() { return *array_; }
    const CacheArray &array() const { return *array_; }
    PartitionScheme &scheme() { return *scheme_; }
    const PartitionScheme &scheme() const { return *scheme_; }

    const CacheAccessStats &partAccessStats(PartId part) const;
    CacheAccessStats totalStats() const;
    void resetStats();

    /**
     * Allocate distribution histograms: candidate-walk length on
     * misses here, and the per-partition VantagePartHists when the
     * scheme is a Vantage controller. Off by default (the miss path
     * then pays a single null check). Registered under
     * `prefix`.hist.walk_len by registerStats(); cleared by
     * resetStats().
     */
    void enableHistograms();

    /** Dirty evictions since the last resetStats(). */
    std::uint64_t writebacks() const { return writebacks_; }

    /**
     * Register this cache's counters under `prefix`: writebacks,
     * aggregate hits/misses/miss_rate, and per-partition
     * `prefix`.partN.{hits,misses}. If the scheme is a Vantage
     * controller its registerStats() is chained under
     * `prefix`.vantage. The registry reads live counters; it must not
     * outlive this cache.
     */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Live-introspection export for the metrics service: writebacks,
     * aggregate and per-partition hit/miss counters under `prefix`.
     * Unlike registerStats() this does NOT chain the scheme — the
     * caller registers it separately (typically under a top-level
     * "vantage" prefix) so the exporter-facing metric names stay
     * flat. Threading contract as in
     * PartitionScheme::registerIntrospection().
     */
    void registerIntrospection(StatsRegistry &reg,
                               const std::string &prefix) const;

    /**
     * Fold every subsequent access outcome into `digest` (pass
     * nullptr to detach). Each access contributes one word:
     * outcome | victimPart << 16 | demotionDelta << 32, where
     * outcome is 0 = hit, 1 = miss+fill, 2 = miss+bypass and
     * victimPart is 0xffff when no valid line was evicted.
     */
    void attachDigest(AccessDigest *digest);

    /**
     * Tenant lifecycle: activate a retired partition slot (resetting
     * its hit/miss counters for the new tenant) / retire an active
     * one so its lines drain. Both fold a marker word into the
     * attached digest — outcome 3 = create, 4 = destroy, with the
     * slot id in the victim-part field — so replayed lifecycle
     * streams are covered by the same bit-exactness check as
     * accesses. See PartitionScheme for drain semantics.
     */
    void createPartition(PartId part);
    void destroyPartition(PartId part);

    /**
     * Run the array's and the scheme's structural invariant checks,
     * collecting violations into `rep`. Always compiled (tests and
     * the fuzz driver call it in any build); costs nothing unless
     * called.
     */
    void checkInvariants(InvariantReport &rep) const;

    /** checkInvariants() that panics with a summary on failure. */
    void checkNow() const;

  private:
    /** Digest fold + (in VANTAGE_CHECK builds) periodic self-check. */
    void afterAccess(std::uint64_t outcome, std::uint64_t victim_part);

    std::unique_ptr<CacheArray> array_;
    std::unique_ptr<PartitionScheme> scheme_;
    std::string name_;
    std::vector<CacheAccessStats> stats_;
    CandidateBuf candBuf_; ///< Inline, reused — no per-miss heap use.
    std::uint64_t writebacks_ = 0;
    std::unique_ptr<Histogram> walkLenHist_;
    AccessDigest *digest_ = nullptr;
    std::uint64_t lastDemotions_ = 0;
    std::uint64_t accessesSinceCheck_ = 0;
};

} // namespace vantage

#endif // VANTAGE_CACHE_CACHE_H_
