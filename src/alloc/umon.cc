#include "alloc/umon.h"

#include <algorithm>

#include "common/bits.h"
#include "common/log.h"

namespace vantage {

Umon::Umon(std::uint32_t ways, std::uint32_t sampled_sets,
           std::uint64_t modeled_sets, std::uint64_t seed)
    : ways_(ways), sampledSets_(sampled_sets),
      modeledSets_(modeled_sets), hash_(seed),
      sets_(sampled_sets), hits_(ways, 0)
{
    vantage_assert(ways >= 1, "need at least one way");
    vantage_assert(sampled_sets >= 1, "need at least one sampled set");
    vantage_assert(isPow2(modeled_sets),
                   "modeled sets %llu must be a power of two",
                   static_cast<unsigned long long>(modeled_sets));
    vantage_assert(sampled_sets <= modeled_sets,
                   "cannot sample %u of %llu sets", sampled_sets,
                   static_cast<unsigned long long>(modeled_sets));
    for (auto &set : sets_) {
        set.stack.reserve(ways);
    }
}

void
Umon::access(Addr addr)
{
    const std::uint64_t bucket = hash_.mod(addr, modeledSets_);
    if (bucket >= sampledSets_) {
        return;
    }
    ++accesses_;
    MonitorSet &set = sets_[bucket];
    auto &stack = set.stack;
    const auto it = std::find(stack.begin(), stack.end(), addr);
    if (it != stack.end()) {
        const auto pos =
            static_cast<std::uint32_t>(it - stack.begin());
        ++hits_[pos];
        stack.erase(it);
        stack.insert(stack.begin(), addr);
        return;
    }
    ++misses_;
    if (stack.size() >= ways_) {
        stack.pop_back();
    }
    stack.insert(stack.begin(), addr);
}

std::uint64_t
Umon::hitsUpTo(std::uint32_t w) const
{
    vantage_assert(w <= ways_, "allocation %u beyond %u ways", w,
                   ways_);
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < w; ++i) {
        acc += hits_[i];
    }
    return acc;
}

std::vector<double>
Umon::utilityCurve() const
{
    const double scale = static_cast<double>(modeledSets_) /
                         static_cast<double>(sampledSets_);
    std::vector<double> curve(ways_ + 1);
    for (std::uint32_t w = 0; w <= ways_; ++w) {
        curve[w] = scale * static_cast<double>(hitsUpTo(w));
    }
    return curve;
}

std::vector<double>
Umon::interpolatedCurve(std::uint32_t points) const
{
    vantage_assert(points >= 1, "need at least one point");
    const std::vector<double> base = utilityCurve();
    std::vector<double> curve(points + 1);
    for (std::uint32_t i = 0; i <= points; ++i) {
        const double x = static_cast<double>(i) *
                         static_cast<double>(ways_) /
                         static_cast<double>(points);
        const auto lo = static_cast<std::uint32_t>(x);
        const std::uint32_t hi = std::min(lo + 1, ways_);
        const double frac = x - static_cast<double>(lo);
        curve[i] = base[lo] + frac * (base[hi] - base[lo]);
    }
    return curve;
}

void
Umon::ageCounters()
{
    for (auto &h : hits_) {
        h /= 2;
    }
    misses_ /= 2;
    accesses_ /= 2;
}

} // namespace vantage
