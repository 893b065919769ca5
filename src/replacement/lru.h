/**
 * @file
 * LRU replacement policies.
 *
 * ExactLru stamps each line with a monotonically increasing access
 * count — the simulator's luxury version of LRU, used for the paper's
 * set-associative baselines. The 64-bit stamp lives in the cold
 * metadata plane (LineCold::lastAccess): real hardware would not
 * store it, and it must not dilute the hot candidate-scan arrays.
 *
 * CoarseLru is the paper's implementable variant [21]: an 8-bit
 * timestamp counter incremented every cacheLines/16 accesses, with
 * ages computed in modulo-256 arithmetic over the hot `rank` field.
 * It is also the base policy Vantage builds its setpoint mechanism on
 * (Sec. 4.2), though the Vantage controller keeps its own
 * *per-partition* timestamps; this class is the single-stream flavor
 * for unpartitioned caches.
 */

#ifndef VANTAGE_REPLACEMENT_LRU_H_
#define VANTAGE_REPLACEMENT_LRU_H_

#include "common/bits.h"
#include "replacement/repl_policy.h"
#include "simd/simd.h"

namespace vantage {

/** Exact LRU via 64-bit access counters (cold plane). */
class ExactLru : public ReplPolicy
{
  public:
    void
    onHit(CacheArray &array, LineId slot) override
    {
        array.cold(slot).lastAccess = ++clock_;
    }

    void
    onInsert(CacheArray &array, LineId slot) override
    {
        array.cold(slot).lastAccess = ++clock_;
    }

    bool
    prefer(const CacheArray &array, LineId a, LineId b) const override
    {
        return array.cold(a).lastAccess < array.cold(b).lastAccess;
    }

    /**
     * Same earliest-wins min fold as the generic prefer() loop, as
     * one scan over the cold plane (first index wins ties) — no
     * per-candidate virtual calls on the miss path.
     */
    std::int32_t
    selectVictim(CacheArray &array,
                 const CandidateBuf &cands) override
    {
        return simd::minLastAccess(array.coldData(), cands.data(),
                                   cands.size());
    }

    double
    priority(const CacheArray &array, LineId slot) const override
    {
        if (clock_ == 0) return 0.0;
        const double age = static_cast<double>(
            clock_ - array.cold(slot).lastAccess);
        return age / static_cast<double>(clock_);
    }

  private:
    std::uint64_t clock_ = 0;
};

/** Coarse-grain 8-bit timestamp LRU [21]. */
class CoarseLru : public ReplPolicy
{
  public:
    /**
     * @param cache_lines total lines the policy manages; the
     *        timestamp advances every cache_lines/16 accesses.
     */
    explicit CoarseLru(std::uint64_t cache_lines)
        : tickPeriod_(cache_lines / 16 ? cache_lines / 16 : 1)
    {}

    void
    onHit(CacheArray &array, LineId slot) override
    {
        array.line(slot).rank = currentTs_;
        tick();
    }

    void
    onInsert(CacheArray &array, LineId slot) override
    {
        array.line(slot).rank = currentTs_;
        tick();
    }

    bool
    prefer(const CacheArray &array, LineId a, LineId b) const override
    {
        return age(array.line(a)) > age(array.line(b));
    }

    /**
     * Oldest-age max fold (first wins ties), identical to the
     * generic prefer() loop, as one scan over the hot plane's rank
     * bytes.
     */
    std::int32_t
    selectVictim(CacheArray &array,
                 const CandidateBuf &cands) override
    {
        return simd::oldestRank(array.linesData(), cands.data(),
                                cands.size(), currentTs_);
    }

    double
    priority(const CacheArray &array, LineId slot) const override
    {
        return static_cast<double>(age(array.line(slot))) / 255.0;
    }

    std::uint8_t currentTimestamp() const { return currentTs_; }

  private:
    std::uint32_t
    age(const Line &line) const
    {
        return modDist(line.rank, currentTs_, 8);
    }

    void
    tick()
    {
        if (++accesses_ >= tickPeriod_) {
            accesses_ = 0;
            ++currentTs_;
        }
    }

    std::uint64_t tickPeriod_;
    std::uint64_t accesses_ = 0;
    std::uint8_t currentTs_ = 0;
};

} // namespace vantage

#endif // VANTAGE_REPLACEMENT_LRU_H_
