#include "array/zarray.h"

#include "simd/simd.h"

#include <algorithm>
#include <unordered_set>

#include "common/bits.h"
#include "trace/event_trace.h"

// Hint the next BFS level's hot slots into cache while the current
// level is still being hashed; read-only, low temporal locality.
#if defined(__GNUC__) || defined(__clang__)
#define VANTAGE_PREFETCH_R(p) __builtin_prefetch((p), 0, 1)
#else
#define VANTAGE_PREFETCH_R(p) ((void)0)
#endif

namespace vantage {

ZArray::ZArray(std::size_t num_lines, std::uint32_t ways,
               std::uint32_t num_candidates, std::uint64_t seed)
    : CacheArray(num_lines), ways_(ways), numCands_(num_candidates),
      linesPerWay_(num_lines / ways),
      posTables_(static_cast<std::size_t>(ways) * 2048),
      walkTables_(static_cast<std::size_t>(ways) * 2048),
      visitEpoch_(num_lines, 0), memoPos_(ways, 0)
{
    vantage_assert(ways >= 2, "a zcache needs at least 2 ways");
    vantage_assert(num_candidates <= CandidateBuf::kCapacity,
                   "R = %u exceeds the candidate buffer capacity %u",
                   num_candidates, CandidateBuf::kCapacity);
    vantage_assert(num_lines % ways == 0,
                   "%zu lines not divisible by %u ways", num_lines,
                   ways);
    vantage_assert(isPow2(linesPerWay_),
                   "lines per way %llu must be a power of two",
                   static_cast<unsigned long long>(linesPerWay_));
    vantage_assert(linesPerWay_ <= (1ull << 32),
                   "lines per way %llu exceeds 32-bit positions",
                   static_cast<unsigned long long>(linesPerWay_));
    vantage_assert(num_candidates >= ways,
                   "R = %u below way count %u", num_candidates, ways);
    wayShift_ = static_cast<std::uint32_t>(log2i(linesPerWay_));

    // Premask each way's H3 tables into position tables (see
    // wayHash()); the draws are identical to the previous
    // vector<H3Hash> layout, so positions are bit-compatible.
    const std::uint64_t mask = linesPerWay_ - 1;
    for (std::uint32_t w = 0; w < ways; ++w) {
        const H3Hash h(seed * 0x9e3779b97f4a7c15ULL + w + 1);
        std::uint32_t *table = &posTables_[w * 2048];
        for (int byte = 0; byte < 8; ++byte) {
            for (int v = 0; v < 256; ++v) {
                table[byte * 256 + v] = static_cast<std::uint32_t>(
                    h.tableWord(byte, v) & mask);
            }
        }
    }

    // Interleave the same words way-minor for the walk (see
    // wayHashAll): row ((byte << 8) | value) holds all ways' words
    // for that input byte value contiguously.
    for (std::uint32_t w = 0; w < ways; ++w) {
        for (std::uint32_t byte = 0; byte < 8; ++byte) {
            for (std::uint32_t v = 0; v < 256; ++v) {
                walkTables_[(((byte << 8) | v) * ways) + w] =
                    posTables_[w * 2048 + byte * 256 + v];
            }
        }
    }
}

LineId
ZArray::positionIn(std::uint32_t w, Addr addr) const
{
    return static_cast<LineId>(
        (static_cast<std::uint64_t>(w) << wayShift_) +
        wayHash(&posTables_[w * 2048], addr));
}

void
ZArray::wayHashAllWide(Addr addr, std::uint32_t *pos) const
{
    const std::uint32_t *const t = walkTables_.data();
    const std::uint32_t stride = ways_;
    const std::uint32_t *row = &t[(addr & 0xff) * stride];
    for (std::uint32_t w = 0; w < stride; ++w) {
        pos[w] = row[w];
    }
    for (std::uint32_t byte = 1; byte < 8; ++byte) {
        row = &t[((byte << 8) | ((addr >> (byte * 8)) & 0xff)) *
                 stride];
        for (std::uint32_t w = 0; w < stride; ++w) {
            pos[w] ^= row[w];
        }
    }
}

LineId
ZArray::lookup(Addr addr) const
{
    // Lazy way-0 probe before any batched work: in steady state
    // most resident lines sit in the way they were inserted into,
    // so this single hash (8 L1-hot table loads) plus one
    // predictable compare resolves the common hit for a quarter of
    // the batched cost. Way 0's words are read strided from the
    // interleaved walk tables — the same 8 cache lines the batched
    // pass below touches — so a miss that falls through re-reads
    // them from L1 instead of pulling a second table. Identical
    // positions, so nothing observable changes — way 0 simply
    // resolves early.
    const std::uint32_t *const wt = walkTables_.data();
    const std::uint32_t stride = ways_;
    std::uint32_t p0 = wt[(addr & 0xff) * stride];
    p0 ^= wt[(256 + ((addr >> 8) & 0xff)) * stride];
    p0 ^= wt[(512 + ((addr >> 16) & 0xff)) * stride];
    p0 ^= wt[(768 + ((addr >> 24) & 0xff)) * stride];
    p0 ^= wt[(1024 + ((addr >> 32) & 0xff)) * stride];
    p0 ^= wt[(1280 + ((addr >> 40) & 0xff)) * stride];
    p0 ^= wt[(1536 + ((addr >> 48) & 0xff)) * stride];
    p0 ^= wt[(1792 + (addr >> 56)) * stride];
    const LineId slot0 = static_cast<LineId>(p0);
    if (lines_[slot0].addr == addr) {
        memoAddr_ = kInvalidAddr;
        return slot0;
    }
    // Way-0 miss: hash all ways in one batched pass over the
    // interleaved tables (positions are a pure function of the
    // address, so computing them up front instead of way-by-way
    // changes nothing observable), then probe the W scattered slots
    // in way order. Way 0 is already known not to match, so
    // first-match order is preserved.
    LineId *const memo = memoPos_.data();
    std::uint32_t pos[CandidateBuf::kCapacity];
    wayHashAll(addr, pos);
    std::uint64_t base = 0;
    for (std::uint32_t w = 0; w < ways_; ++w, base += linesPerWay_) {
        memo[w] = static_cast<LineId>(base + pos[w]);
    }
    const std::int32_t w =
        simd::findTagAt(lines_.data(), memo, ways_, addr);
    if (w >= 0) {
        // Hit: don't let candidates() reuse the memo — by the next
        // miss it may describe a different address.
        memoAddr_ = kInvalidAddr;
        return memo[w];
    }
    memoAddr_ = addr;
    return kInvalidLine;
}

void
ZArray::candidates(Addr addr, CandidateBuf &out) const
{
    // Specialize once on the geometry so the W = 4 walk body inlines
    // its hashing with no reachable calls (see wayHashAll()).
    if (ways_ == 4) {
        walkImpl<true>(addr, out);
    } else {
        walkImpl<false>(addr, out);
    }
}

template <bool kW4>
void
ZArray::walkImpl(Addr addr, CandidateBuf &out) const
{
    out.clear();

    // Epoch-stamped visited set: O(1) dedup, no per-walk clearing.
    // On the (rare) 32-bit wrap, clear the stamps so stale epochs
    // from 2^32 walks ago cannot alias.
    std::uint32_t epoch = ++walkEpoch_;
    if (epoch == 0) {
        std::fill(visitEpoch_.begin(), visitEpoch_.end(), 0u);
        epoch = walkEpoch_ = 1;
    }
    std::uint32_t *const stamps = visitEpoch_.data();
    const Line *const lines = lines_.data();
    // Only candidates pushed below this index can become BFS heads
    // (each expanded head contributes up to W-1 new candidates);
    // everything later is scanned once by the caller, not re-read.
    const std::uint32_t expandBound =
        numCands_ > ways_
            ? (numCands_ - 2) / (ways_ - 1)
            : 0;
    // Level-position scratch on the stack: the compiler sees it
    // cannot alias the tables or the stamp array.
    std::uint32_t pos[CandidateBuf::kCapacity];

    // First level: the incoming address's own positions — reuse the
    // ones the preceding missing lookup() already computed when we
    // can (the common path: Cache::access misses then walks).
    if (memoAddr_ == addr) {
        const LineId *const memo = memoPos_.data();
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const LineId slot = memo[w];
            if (stamps[slot] != epoch) {
                stamps[slot] = epoch;
                out.push_back({slot, -1});
            }
        }
    } else {
        if constexpr (kW4) {
            hashRows4(walkTables_.data(), addr, pos);
        } else {
            wayHashAllWide(addr, pos);
        }
        std::uint64_t base = 0;
        for (std::uint32_t w = 0; w < ways_;
             ++w, base += linesPerWay_) {
            const LineId slot = static_cast<LineId>(base + pos[w]);
            if (stamps[slot] != epoch) {
                stamps[slot] = epoch;
                out.push_back({slot, -1});
            }
        }
    }

    // Breadth-first expansion: each valid candidate line can move to
    // its positions in the other ways; the occupants of those slots
    // are further candidates. Flat loops, no virtual calls: wayOf is
    // a shift, all W positions of a level come from one batched pass
    // over the interleaved tables (wayHashAll), and each discovered
    // slot's hot line is prefetched so the next level's expansion —
    // and the demotion scan after the walk — find it resident.
    for (std::uint32_t head = 0;
         head < out.size() && out.size() < numCands_; ++head) {
        const LineId head_slot = out[head].slot;
        const Line &occupant = lines[head_slot];
        if (!occupant.valid()) {
            continue; // An empty slot is a perfect victim; don't expand.
        }
        const std::uint32_t own_way =
            static_cast<std::uint32_t>(head_slot >> wayShift_);
        if constexpr (kW4) {
            hashRows4(walkTables_.data(), occupant.addr, pos);
        } else {
            wayHashAllWide(occupant.addr, pos);
        }
        std::uint64_t base = 0;
        for (std::uint32_t w = 0;
             w < ways_ && out.size() < numCands_;
             ++w, base += linesPerWay_) {
            if (w == own_way) {
                continue;
            }
            const LineId slot = static_cast<LineId>(base + pos[w]);
            if (stamps[slot] != epoch) {
                stamps[slot] = epoch;
                // Prefetch only slots that will be re-read as heads
                // of the next level; hinting every candidate costs
                // more than it saves on an L2-resident array.
                if (out.size() < expandBound) {
                    VANTAGE_PREFETCH_R(&lines[slot]);
                }
                out.push_back({slot,
                               static_cast<std::int32_t>(head)});
            }
        }
    }
    VANTAGE_TRACE_INSTANT(kTraceZcache, "zarray.walk", "cands",
                          out.size());
}

void
ZArray::checkInvariants(InvariantReport &rep) const
{
    // Relocations move whole Line structs between hash positions; a
    // line parked anywhere its address does not map to would be
    // unreachable by lookup() (a silent leak), and a duplicated tag
    // would make lookups ambiguous. Recheck both from scratch.
    std::unordered_set<Addr> seen;
    seen.reserve(lines_.size());
    for (LineId slot = 0; slot < lines_.size(); ++slot) {
        const Line &line = lines_[slot];
        if (!line.valid()) {
            continue;
        }
        const std::uint32_t w = wayOf(slot);
        rep.expect(positionIn(w, line.addr) == slot,
                   "zarray: line %#llx at slot %u is not at its way-%u "
                   "position",
                   static_cast<unsigned long long>(line.addr), slot, w);
        rep.expect(seen.insert(line.addr).second,
                   "zarray: address %#llx resident in two slots",
                   static_cast<unsigned long long>(line.addr));
    }
}

LineId
ZArray::replace(Addr addr, const CandidateBuf &cands,
                std::int32_t victim_idx)
{
    vantage_assert(victim_idx >= 0 &&
                   static_cast<std::uint32_t>(victim_idx) <
                       cands.size(),
                   "victim index %d out of range", victim_idx);

    // Relocate lines up the parent chain: the parent's line moves into
    // the victim's (now free) slot, and so on until a first-level slot
    // is free for the incoming line. Cold metadata belongs to the
    // relocated line, so it moves in lockstep with the hot tag.
    std::int32_t idx = victim_idx;
    lines_[cands[idx].slot].invalidate();
    while (cands[idx].parent >= 0) {
        const std::int32_t parent = cands[idx].parent;
        lines_[cands[idx].slot] = lines_[cands[parent].slot];
        cold_[cands[idx].slot] = cold_[cands[parent].slot];
        lines_[cands[parent].slot].invalidate();
        idx = parent;
    }

    const LineId root = cands[idx].slot;
    lines_[root].invalidate();
    cold_[root].reset();
    lines_[root].addr = addr;
    return root;
}

} // namespace vantage
