/**
 * @file
 * Scan kernels for the hot plane.
 *
 * The scans that dominate the miss path — the lookup tag-compare and
 * the LRU victim folds — stream over the 16-byte hot plane (and the
 * 8-byte cold plane). They are plain scalar loops, inline so each
 * caller compiles them into its own body; the Vantage demotion scan
 * is a serial loop in VantageController::selectVictim because each
 * demotion can move the keep window the next candidate is judged
 * against. DESIGN.md §15 explains why the kernels are scalar.
 *
 * Every kernel returns the first index on a tie (first match, first
 * oldest), which is the order the golden digests pin.
 */

#ifndef VANTAGE_SCAN_KERNELS_H_
#define VANTAGE_SCAN_KERNELS_H_

#include <cstdint>

#include "array/cache_array.h"
#include "array/candidate_buf.h"
#include "common/types.h"

namespace vantage::simd {

/**
 * Name of the kernel build, for build fingerprints. There is one:
 * the scalar kernels below.
 */
inline const char *
levelName()
{
    return "scalar";
}

/**
 * Fire a prefetch for every candidate's hot line before a scan.
 * Issuing the whole sweep up front exposes all the misses at once
 * (a zcache candidate list touches up to 52 scattered cache lines),
 * which buys more memory-level parallelism than a fixed-distance
 * scan-ahead prefetch. Pure hint: no effect on results.
 */
inline void
prefetchLines(const Line *lines, const Candidate *cands,
              std::uint32_t n)
{
    // Dense slot runs (set-associative sets) span a handful of
    // cache lines that the hardware prefetcher handles; sweeping
    // them costs measurable load-port pressure for nothing. Only
    // scattered lists (zcache walks) are worth the sweep.
    if (n < 2 || cands[n - 1].slot == cands[0].slot + (n - 1)) {
        return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        __builtin_prefetch(lines + cands[i].slot, 0, 3);
    }
}

/**
 * Index of the first of `n` consecutive hot lines whose tag equals
 * `addr`, or -1 (set-associative lookup within a set).
 */
inline std::int32_t
findTag(const Line *lines, std::uint32_t n, Addr addr)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        if (lines[i].addr == addr) {
            return static_cast<std::int32_t>(i);
        }
    }
    return -1;
}

/**
 * Same as findTag(), over `n` precomputed slots into the hot plane
 * (zcache lookup over the way positions).
 */
inline std::int32_t
findTagAt(const Line *lines, const LineId *slots, std::uint32_t n,
          Addr addr)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        if (lines[slots[i]].addr == addr) {
            return static_cast<std::int32_t>(i);
        }
    }
    return -1;
}

/**
 * First index maximizing the coarse-timestamp age
 * (current_ts - rank) mod 256 over a candidate list (CoarseLru fold).
 */
inline std::int32_t
oldestRank(const Line *lines, const Candidate *cands, std::uint32_t n,
           std::uint8_t current_ts)
{
    prefetchLines(lines, cands, n);
    std::int32_t best = 0;
    std::uint32_t best_age = static_cast<std::uint8_t>(
        current_ts - lines[cands[0].slot].rank);
    for (std::uint32_t i = 1; i < n; ++i) {
        const std::uint32_t age = static_cast<std::uint8_t>(
            current_ts - lines[cands[i].slot].rank);
        if (age > best_age) {
            best = static_cast<std::int32_t>(i);
            best_age = age;
        }
    }
    return best;
}

/**
 * First index minimizing the cold-plane lastAccess stamp over a
 * candidate list (ExactLru fold).
 */
inline std::int32_t
minLastAccess(const LineCold *cold, const Candidate *cands,
              std::uint32_t n)
{
    if (n >= 2 && cands[n - 1].slot != cands[0].slot + (n - 1)) {
        for (std::uint32_t i = 0; i < n; ++i) {
            __builtin_prefetch(cold + cands[i].slot, 0, 3);
        }
    }
    std::int32_t best = 0;
    std::uint64_t best_la = cold[cands[0].slot].lastAccess;
    for (std::uint32_t i = 1; i < n; ++i) {
        const std::uint64_t la = cold[cands[i].slot].lastAccess;
        if (la < best_la) {
            best = static_cast<std::int32_t>(i);
            best_la = la;
        }
    }
    return best;
}

} // namespace vantage::simd

#endif // VANTAGE_SCAN_KERNELS_H_
