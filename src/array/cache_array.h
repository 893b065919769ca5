/**
 * @file
 * The cache-array abstraction.
 *
 * Following the paper's analytical framework (Sec. 3.2), a cache is
 * split into an *array*, which implements associative lookups and
 * produces a list of replacement candidates on each miss, and a
 * *replacement policy / partitioning scheme*, which ranks those
 * candidates. This header defines the array side.
 *
 * Line metadata is split structure-of-arrays style. The hot array
 * (Line: tag, partition id, rank) is everything lookup(), the zcache
 * walk, and the Vantage demotion check read — 16 bytes per line, four
 * lines per hardware cache line. The cold array (LineCold: dirty bit,
 * exact-LRU timestamp) is only touched on hits, insertions, and
 * writeback accounting, and never during candidate scans, so the scan
 * working set is not diluted by simulator-only bookkeeping.
 */

#ifndef VANTAGE_ARRAY_CACHE_ARRAY_H_
#define VANTAGE_ARRAY_CACHE_ARRAY_H_

#include <cstdint>

#include "array/candidate_buf.h"
#include "common/check.h"
#include "common/hp_alloc.h"
#include "common/log.h"
#include "common/types.h"

namespace vantage {

/**
 * Hot per-line tag state, scanned on every miss.
 *
 * Mirrors the tag fields of the paper's Fig. 4: the partition id
 * (6 bits there) and an 8-bit coarse timestamp. `rank` doubles as the
 * LRU coarse timestamp or the RRIP re-reference prediction value,
 * depending on the active policy.
 */
struct Line
{
    Addr addr = kInvalidAddr;
    PartId part = kInvalidPart;
    std::uint8_t rank = 0;

    bool valid() const { return addr != kInvalidAddr; }

    void
    invalidate()
    {
        addr = kInvalidAddr;
        part = kInvalidPart;
        rank = 0;
    }
};

static_assert(sizeof(Line) == 16,
              "hot line metadata must stay cache-line packed "
              "(4 lines per 64B)");
static_assert(kPlaneAlignment % sizeof(Line) == 0,
              "an aligned hot plane must tile whole hardware cache "
              "lines with Line records");

/**
 * Cold per-line state, off the candidate-scan path.
 *
 * `lastAccess` supports exact-LRU baselines; real hardware would not
 * store it, but the simulator can. `dirty` only matters when a line
 * is finally evicted (writeback accounting). Both travel with the
 * line when an array relocates it.
 */
struct LineCold
{
    // Packed into one 8-byte word (8 entries per 64B cache line): a
    // 63-bit access counter cannot wrap in any feasible run, and the
    // dirty flag rides in the top bit.
    std::uint64_t lastAccess : 63;
    std::uint64_t dirty : 1;

    LineCold() : lastAccess(0), dirty(0) {}

    void
    reset()
    {
        lastAccess = 0;
        dirty = 0;
    }
};

static_assert(sizeof(LineCold) == 8,
              "cold line metadata must stay word-packed");

/** Abstract cache array: lookup + candidate generation + replacement. */
class CacheArray
{
  public:
    explicit CacheArray(std::size_t num_lines)
        : lines_(num_lines), cold_(num_lines)
    {
        // A base that is not cache-line aligned would split Line
        // records across two hardware lines, so a scan would touch
        // more lines than it reads. HpArray guarantees this — the
        // assert pins the contract.
        vantage_assert(
            num_lines == 0 ||
                (reinterpret_cast<std::uintptr_t>(lines_.data()) %
                     kPlaneAlignment ==
                 0),
            "hot plane base is not %zu-byte aligned", kPlaneAlignment);
    }
    virtual ~CacheArray() = default;

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    /** Find the slot holding addr, or kInvalidLine. */
    virtual LineId lookup(Addr addr) const = 0;

    /**
     * Produce the replacement candidates for an incoming address.
     * Candidates may include invalid (empty) slots; callers should
     * prefer those. The buffer is cleared first.
     */
    virtual void candidates(Addr addr, CandidateBuf &out) const = 0;

    /**
     * Install `addr`, evicting the candidate at `victim_idx` of the
     * list previously returned by candidates() for this address.
     * Performs any relocations the array needs (zcache) — relocations
     * move the hot Line and its LineCold entry together, so policy
     * metadata follows the line. @return the slot where the new
     * line's tag now lives; its Line has addr set and all other
     * (hot and cold) fields reset for the caller to initialize.
     */
    virtual LineId replace(Addr addr, const CandidateBuf &cands,
                           std::int32_t victim_idx) = 0;

    /** Nominal number of replacement candidates per eviction. */
    virtual std::uint32_t numCandidates() const = 0;

    /** Number of ways (for way-partitioning / PIPP set geometry). */
    virtual std::uint32_t numWays() const = 0;

    /** The way a given slot belongs to. */
    virtual std::uint32_t wayOf(LineId slot) const = 0;

    /**
     * Verify the array's structural invariants (every valid line sits
     * in a slot its address actually maps to, no duplicate tags) by
     * rescanning the line table, recording violations in `rep`.
     * Must not change observable behavior: a checked run produces the
     * same access outcomes as an unchecked one.
     */
    virtual void
    checkInvariants(InvariantReport &rep) const
    {
        (void)rep;
    }

    std::size_t numLines() const { return lines_.size(); }

    Line &
    line(LineId id)
    {
        vantage_assert(id < lines_.size(), "line id %u out of range", id);
        return lines_[id];
    }

    const Line &
    line(LineId id) const
    {
        vantage_assert(id < lines_.size(), "line id %u out of range", id);
        return lines_[id];
    }

    LineCold &
    cold(LineId id)
    {
        vantage_assert(id < cold_.size(), "line id %u out of range", id);
        return cold_[id];
    }

    const LineCold &
    cold(LineId id) const
    {
        vantage_assert(id < cold_.size(), "line id %u out of range", id);
        return cold_[id];
    }

    /**
     * Raw hot array, for per-candidate scans (the Vantage demotion
     * pass) that have already validated their slots: skips the
     * per-access bounds assert of line().
     */
    Line *linesData() { return lines_.data(); }
    const Line *linesData() const { return lines_.data(); }

    /** Raw cold array, for single-plane policy scans (exact LRU). */
    LineCold *coldData() { return cold_.data(); }
    const LineCold *coldData() const { return cold_.data(); }

  protected:
    // 64-byte-aligned, huge-page-advised planes (see hp_alloc.h):
    // the hot plane is what the miss-path scans read, and at
    // giant-cache sizes both planes burn TLB entries without huge
    // pages.
    HpArray<Line> lines_;
    HpArray<LineCold> cold_;
};

} // namespace vantage

#endif // VANTAGE_ARRAY_CACHE_ARRAY_H_
