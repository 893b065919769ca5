#include "array/set_assoc.h"

#include "common/bits.h"
#include "simd/simd.h"

namespace vantage {

SetAssocArray::SetAssocArray(std::size_t num_lines, std::uint32_t ways,
                             bool hash_index, std::uint64_t seed)
    : CacheArray(num_lines), ways_(ways), sets_(num_lines / ways),
      hashIndex_(hash_index), hash_(seed)
{
    vantage_assert(ways > 0, "need at least one way");
    vantage_assert(num_lines % ways == 0,
                   "%zu lines not divisible by %u ways", num_lines,
                   ways);
    vantage_assert(isPow2(sets_), "set count %llu not a power of two",
                   static_cast<unsigned long long>(sets_));
    vantage_assert(ways <= CandidateBuf::kCapacity,
                   "%u ways exceed the candidate buffer capacity %u",
                   ways, CandidateBuf::kCapacity);
}

std::uint64_t
SetAssocArray::setOf(Addr addr) const
{
    if (hashIndex_) {
        return hash_.mod(addr, sets_);
    }
    return addr & (sets_ - 1);
}

LineId
SetAssocArray::slotOf(std::uint64_t set, std::uint32_t way) const
{
    return static_cast<LineId>(set * ways_ + way);
}

LineId
SetAssocArray::lookup(Addr addr) const
{
    const std::uint64_t set = setOf(addr);
    memoAddr_ = addr;
    memoSet_ = set;
    // One set is ways_ consecutive 16-byte hot lines; first match
    // wins.
    const LineId base = slotOf(set, 0);
    const std::int32_t w =
        simd::findTag(lines_.data() + base, ways_, addr);
    return w < 0 ? kInvalidLine : base + static_cast<LineId>(w);
}

void
SetAssocArray::candidates(Addr addr, CandidateBuf &out) const
{
    out.clear();
    // Reuse the set index the preceding lookup() hashed for the same
    // address (the common path: Cache::access misses then asks for
    // candidates).
    const std::uint64_t set =
        memoAddr_ == addr ? memoSet_ : setOf(addr);
    const LineId base = slotOf(set, 0);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        out.push_back({base + w, -1});
    }
}

void
SetAssocArray::checkInvariants(InvariantReport &rep) const
{
    for (std::uint64_t set = 0; set < sets_; ++set) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const LineId slot = slotOf(set, w);
            const Line &line = lines_[slot];
            if (!line.valid()) {
                continue;
            }
            rep.expect(setOf(line.addr) == set,
                       "set-assoc: line %#llx in set %llu indexes set "
                       "%llu",
                       static_cast<unsigned long long>(line.addr),
                       static_cast<unsigned long long>(set),
                       static_cast<unsigned long long>(
                           setOf(line.addr)));
            for (std::uint32_t w2 = w + 1; w2 < ways_; ++w2) {
                const Line &other = lines_[slotOf(set, w2)];
                rep.expect(!other.valid() ||
                               other.addr != line.addr,
                           "set-assoc: address %#llx duplicated in "
                           "set %llu",
                           static_cast<unsigned long long>(line.addr),
                           static_cast<unsigned long long>(set));
            }
        }
    }
}

LineId
SetAssocArray::replace(Addr addr, const CandidateBuf &cands,
                       std::int32_t victim_idx)
{
    vantage_assert(victim_idx >= 0 &&
                   static_cast<std::uint32_t>(victim_idx) <
                       cands.size(),
                   "victim index %d out of range", victim_idx);
    const LineId slot = cands[victim_idx].slot;
    Line &victim = lines_[slot];
    victim.invalidate();
    cold_[slot].reset();
    victim.addr = addr;
    return slot;
}

} // namespace vantage
