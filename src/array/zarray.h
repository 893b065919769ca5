/**
 * @file
 * ZCache array (Sanchez & Kozyrakis, MICRO 2010).
 *
 * A zcache has W ways, each indexed by an independent H3 hash
 * function (as in a skew-associative cache), plus a *replacement
 * walk*: on a miss, the W first-level positions of the incoming
 * address are expanded breadth-first — each resident line can be
 * relocated to its positions in the other ways, whose occupants
 * become further candidates — until R candidates are gathered.
 * Evicting a level-k candidate frees its slot by relocating the
 * k lines along its parent chain, and the incoming line lands in a
 * first-level slot.
 *
 * With W = 4 ways the walk yields 4, 4+12 = 16 or 4+12+36 = 52
 * candidates after 1-3 levels — the paper's Z4/16 and Z4/52 designs.
 * A skew-associative cache is the degenerate R = W case.
 */

#ifndef VANTAGE_ARRAY_ZARRAY_H_
#define VANTAGE_ARRAY_ZARRAY_H_

#include <memory>
#include <vector>

#include "array/cache_array.h"
#include "hash/h3.h"

namespace vantage {

/** ZCache / skew-associative array with relocation-based replacement. */
class ZArray : public CacheArray
{
  public:
    /**
     * @param num_lines total slots; must be divisible by `ways`.
     * @param ways number of hashed ways (banks).
     * @param num_candidates walk size R (>= ways).
     * @param seed base seed; each way's hash derives from it.
     */
    ZArray(std::size_t num_lines, std::uint32_t ways,
           std::uint32_t num_candidates, std::uint64_t seed = 0x2ca);

    LineId lookup(Addr addr) const override;
    void candidates(Addr addr, CandidateBuf &out) const override;
    LineId replace(Addr addr, const CandidateBuf &cands,
                   std::int32_t victim_idx) override;

    std::uint32_t numCandidates() const override { return numCands_; }
    std::uint32_t numWays() const override { return ways_; }

    std::uint32_t
    wayOf(LineId slot) const override
    {
        return static_cast<std::uint32_t>(slot >> wayShift_);
    }

    /** Slot of `addr` in way `w`. */
    LineId positionIn(std::uint32_t w, Addr addr) const;

    /**
     * Every valid line must sit at its own way-hash position, and no
     * address may be resident twice (a relocation bug would violate
     * either).
     */
    void checkInvariants(InvariantReport &rep) const override;

    /** Make a skew-associative cache: a zcache with R = W. */
    static std::unique_ptr<ZArray>
    makeSkewAssociative(std::size_t num_lines, std::uint32_t ways,
                        std::uint64_t seed = 0x5eed)
    {
        return std::make_unique<ZArray>(num_lines, ways, ways, seed);
    }

  private:
    /**
     * Hash `addr` into [0, linesPerWay_) with way `w`'s function:
     * 8 byte-indexed lookups in that way's premasked table, XORed.
     * Bit-identical to H3Hash::mod (masking distributes over XOR);
     * the tables are a quarter the size of full H3Hash state, so the
     * four ways' tables stay hot in L1/L2 during walks.
     */
    std::uint64_t
    wayHash(const std::uint32_t *table, Addr addr) const
    {
        std::uint32_t out = table[addr & 0xff];
        out ^= table[256 + ((addr >> 8) & 0xff)];
        out ^= table[512 + ((addr >> 16) & 0xff)];
        out ^= table[768 + ((addr >> 24) & 0xff)];
        out ^= table[1024 + ((addr >> 32) & 0xff)];
        out ^= table[1280 + ((addr >> 40) & 0xff)];
        out ^= table[1536 + ((addr >> 48) & 0xff)];
        out ^= table[1792 + (addr >> 56)];
        return out;
    }

    /**
     * Batched way hashing for the walk: compute the in-way position
     * of `addr` for ALL ways in one pass over the interleaved tables
     * (walkTables_), writing ways_ masked positions to `pos`. For
     * W = 4 each of the 8 byte rows is 16 contiguous bytes, so the
     * whole level's hashing is 8 dense row loads XORed — identical
     * results to calling wayHash() per way, in one streaming pass.
     *
     * The W = 4 body must stay straight-line code with no reachable
     * calls wherever the walk loop inlines it: a call on any path —
     * even a never-taken branch to the out-of-line wide hash —
     * poisons register allocation in the surrounding BFS loop, which
     * measured as a ~50% regression on the whole candidates() walk
     * for Z4 geometries that never took the branch. The walk
     * therefore specializes on the geometry once per call
     * (walkImpl<kW4>) and the W = 4 instantiation uses hashRows4()
     * directly, keeping its loop body call-free.
     */
    void
    wayHashAll(Addr addr, std::uint32_t *pos) const
    {
        if (ways_ == 4) {
            hashRows4(walkTables_.data(), addr, pos);
            return;
        }
        wayHashAllWide(addr, pos);
    }

    /**
     * Fully unrolled W = 4 batched hash (the paper's Z4 designs):
     * four accumulators stay in registers across the eight 16-byte
     * row loads — the compiler turns this into a straight-line SIMD
     * XOR chain.
     */
    static void
    hashRows4(const std::uint32_t *t, Addr addr, std::uint32_t *pos)
    {
        const std::uint32_t *r = t + (addr & 0xff) * 4;
        std::uint32_t p0 = r[0], p1 = r[1], p2 = r[2], p3 = r[3];
        r = t + (256 + ((addr >> 8) & 0xff)) * 4;
        p0 ^= r[0]; p1 ^= r[1]; p2 ^= r[2]; p3 ^= r[3];
        r = t + (512 + ((addr >> 16) & 0xff)) * 4;
        p0 ^= r[0]; p1 ^= r[1]; p2 ^= r[2]; p3 ^= r[3];
        r = t + (768 + ((addr >> 24) & 0xff)) * 4;
        p0 ^= r[0]; p1 ^= r[1]; p2 ^= r[2]; p3 ^= r[3];
        r = t + (1024 + ((addr >> 32) & 0xff)) * 4;
        p0 ^= r[0]; p1 ^= r[1]; p2 ^= r[2]; p3 ^= r[3];
        r = t + (1280 + ((addr >> 40) & 0xff)) * 4;
        p0 ^= r[0]; p1 ^= r[1]; p2 ^= r[2]; p3 ^= r[3];
        r = t + (1536 + ((addr >> 48) & 0xff)) * 4;
        p0 ^= r[0]; p1 ^= r[1]; p2 ^= r[2]; p3 ^= r[3];
        r = t + (1792 + (addr >> 56)) * 4;
        pos[0] = p0 ^ r[0];
        pos[1] = p1 ^ r[1];
        pos[2] = p2 ^ r[2];
        pos[3] = p3 ^ r[3];
    }

    /** Out-of-line W != 4 batched hash: a strided fold over the
     *  interleaved rows. See wayHashAll() for why this must not
     *  live in an inline body. */
    void wayHashAllWide(Addr addr, std::uint32_t *pos) const;

    /** Geometry-specialized walk body (see wayHashAll()). */
    template <bool kW4>
    void walkImpl(Addr addr, CandidateBuf &out) const;

    std::uint32_t ways_;
    std::uint32_t numCands_;
    std::uint64_t linesPerWay_;
    std::uint32_t wayShift_; ///< log2(linesPerWay_); wayOf is a shift.
    /**
     * Per-way position tables: ways_ x 8 x 256 premasked H3 words
     * (way w's table starts at posTables_[w * 2048]). Derived from
     * the same seeds as before; positions are unchanged. lookup()
     * walks these way-major so it can early-exit on a hit.
     */
    HpArray<std::uint32_t> posTables_;
    /**
     * The same premasked words interleaved way-minor for the walk:
     * entry [((byte << 8) | value) * ways_ + w]. One BFS level's W
     * hashes read 8 contiguous rows instead of W scattered tables.
     */
    HpArray<std::uint32_t> walkTables_;
    // Per-slot visit stamps for O(1) dedup during walks.
    mutable HpArray<std::uint32_t> visitEpoch_;
    mutable std::uint32_t walkEpoch_ = 0;
    /**
     * First-level positions memoized by the last missing lookup();
     * candidates() reuses them instead of rehashing. Positions are a
     * pure function of the address, so a stale memo is never wrong —
     * the address check alone decides reuse. Invalid (kInvalidAddr)
     * after a hit, which fills the memo only partially.
     */
    mutable Addr memoAddr_ = kInvalidAddr;
    mutable std::vector<LineId> memoPos_;
};

} // namespace vantage

#endif // VANTAGE_ARRAY_ZARRAY_H_
