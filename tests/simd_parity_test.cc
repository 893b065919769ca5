/**
 * @file
 * Tests of the hot-plane scan kernels (simd/simd.h).
 *
 * Each kernel, driven over fuzzed hot/cold planes and candidate
 * lists, must return exactly what a naive loop written here returns,
 * ties included: the first match, the first oldest. The pinned
 * golden digests cover the same kernels in whole simulations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "array/set_assoc.h"
#include "array/zarray.h"
#include "common/hp_alloc.h"
#include "common/rng.h"
#include "simd/simd.h"

namespace vantage {
namespace {

/**
 * A fuzzed hot/cold plane plus a candidate list of unique slots —
 * the invariant every array upholds (set-associative sets are
 * distinct ways, zcache walks dedup via epoch stamps, the random
 * array rejects repeats).
 */
struct FuzzPlane
{
    std::vector<Line> lines;
    std::vector<LineCold> cold;
    CandidateBuf cands;

    FuzzPlane(Rng &rng, std::uint32_t num_lines, std::uint32_t n)
        : lines(num_lines), cold(num_lines)
    {
        for (std::uint32_t i = 0; i < num_lines; ++i) {
            const std::uint32_t kind = rng.range(8);
            if (kind == 0) {
                lines[i].invalidate();
            } else if (kind <= 2) {
                lines[i].addr = rng.next() | 1; // Never kInvalidAddr.
                lines[i].part = kUnmanagedPart;
                // Tiny rank range to force age ties.
                lines[i].rank =
                    static_cast<std::uint8_t>(rng.range(5));
            } else {
                lines[i].addr = rng.next() | 1;
                lines[i].part = static_cast<PartId>(rng.range(4));
                lines[i].rank =
                    static_cast<std::uint8_t>(rng.range(5));
            }
            // Small stamp range to force lastAccess ties.
            cold[i].lastAccess = rng.range(7);
            cold[i].dirty = rng.range(2);
        }
        std::vector<LineId> slots(num_lines);
        for (std::uint32_t i = 0; i < num_lines; ++i) {
            slots[i] = i;
        }
        // Partial Fisher-Yates: n distinct random slots.
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t j =
                i + static_cast<std::uint32_t>(
                        rng.range(num_lines - i));
            std::swap(slots[i], slots[j]);
            cands.push_back({slots[i], -1});
        }
    }
};

/** First index in `idx` whose line holds `addr`, or -1. */
std::int32_t
naiveFind(const std::vector<Line> &lines,
          const std::vector<LineId> &idx, Addr addr)
{
    for (std::size_t i = 0; i < idx.size(); ++i) {
        if (lines[idx[i]].addr == addr) {
            return static_cast<std::int32_t>(i);
        }
    }
    return -1;
}

TEST(SimdKernelParity, FindTagMatchesScalarAtEveryLevel)
{
    Rng rng(0xf1a9);
    for (int iter = 0; iter < 200; ++iter) {
        const std::uint32_t n =
            1 + static_cast<std::uint32_t>(rng.range(64));
        FuzzPlane plane(rng, 256, n);
        // Sometimes plant the probe in the scanned run (possibly
        // twice, to pin first-match semantics).
        const Addr addr = rng.next() | 1;
        if (rng.range(2) == 0) {
            plane.lines[rng.range(n)].addr = addr;
        }
        if (rng.range(4) == 0) {
            plane.lines[rng.range(n)].addr = addr;
        }
        std::vector<LineId> run(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            run[i] = i;
        }
        EXPECT_EQ(simd::findTag(plane.lines.data(), n, addr),
                  naiveFind(plane.lines, run, addr))
            << "iter " << iter;
    }
}

TEST(SimdKernelParity, FindTagAtMatchesScalarAtEveryLevel)
{
    Rng rng(0xf1b0);
    for (int iter = 0; iter < 200; ++iter) {
        const std::uint32_t n =
            1 + static_cast<std::uint32_t>(rng.range(16));
        FuzzPlane plane(rng, 512, n);
        std::vector<LineId> slots;
        for (std::uint32_t i = 0; i < n; ++i) {
            slots.push_back(plane.cands[i].slot);
        }
        const Addr addr = rng.next() | 1;
        if (rng.range(2) == 0) {
            plane.lines[slots[rng.range(n)]].addr = addr;
        }
        if (rng.range(4) == 0) {
            plane.lines[slots[rng.range(n)]].addr = addr;
        }
        EXPECT_EQ(simd::findTagAt(plane.lines.data(), slots.data(), n,
                                  addr),
                  naiveFind(plane.lines, slots, addr))
            << "iter " << iter;
    }
}

TEST(SimdKernelParity, LruFoldsMatchScalarAtEveryLevel)
{
    Rng rng(0x17c4);
    for (int iter = 0; iter < 300; ++iter) {
        const std::uint32_t n =
            1 + static_cast<std::uint32_t>(rng.range(64));
        FuzzPlane plane(rng, 512, n);
        const std::uint8_t ts =
            static_cast<std::uint8_t>(rng.range(256));
        const auto age = [&](std::uint32_t k) {
            return static_cast<std::uint8_t>(
                ts - plane.lines[plane.cands[k].slot].rank);
        };
        const auto stamp = [&](std::uint32_t k) {
            return plane.cold[plane.cands[k].slot].lastAccess;
        };
        // The extreme value first, then the first index holding it:
        // ties resolve to the earliest candidate.
        std::uint32_t max_age = 0;
        std::uint64_t min_stamp = ~std::uint64_t{0};
        for (std::uint32_t i = 0; i < n; ++i) {
            max_age = std::max<std::uint32_t>(max_age, age(i));
            min_stamp = std::min(min_stamp, stamp(i));
        }
        std::int32_t oldest = -1;
        std::int32_t least = -1;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (oldest < 0 && age(i) == max_age) {
                oldest = static_cast<std::int32_t>(i);
            }
            if (least < 0 && stamp(i) == min_stamp) {
                least = static_cast<std::int32_t>(i);
            }
        }
        EXPECT_EQ(simd::oldestRank(plane.lines.data(),
                                   plane.cands.data(), n, ts),
                  oldest)
            << "iter " << iter;
        EXPECT_EQ(simd::minLastAccess(plane.cold.data(),
                                      plane.cands.data(), n),
                  least)
            << "iter " << iter;
    }
}

TEST(SimdParity, HotPlanesAreCacheLineAligned)
{
    SetAssocArray sa(1024, 16);
    ZArray za(4096, 4, 52);
    for (const CacheArray *array :
         {static_cast<const CacheArray *>(&sa),
          static_cast<const CacheArray *>(&za)}) {
        EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                          array->linesData()) %
                          kPlaneAlignment);
        EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(
                          array->coldData()) %
                          kPlaneAlignment);
    }
}

/**
 * The W = 8 batched hash (ZArray::wayHashAllWide) feeds lookup and
 * the walk: on a filling 8-way zcache, a walk's first W candidates
 * are the address's own way positions, every deeper candidate sits
 * at its parent occupant's position in its way, and lookup finds
 * each inserted line again.
 */
TEST(SimdParity, ZArrayWay8WalkIsLevelInvariant)
{
    Rng rng(0x2a8);
    ZArray za(8192, 8, 64);
    CandidateBuf cands;
    for (int iter = 0; iter < 2000; ++iter) {
        const Addr addr = rng.next() | 1;
        if (za.lookup(addr) != kInvalidLine) {
            continue;
        }
        za.candidates(addr, cands);
        ASSERT_GE(cands.size(), 8u);
        for (std::uint32_t w = 0; w < 8; ++w) {
            EXPECT_EQ(cands[w].slot, za.positionIn(w, addr));
            EXPECT_EQ(cands[w].parent, -1);
        }
        for (std::uint32_t i = 8; i < cands.size(); ++i) {
            const Addr parent =
                za.line(cands[cands[i].parent].slot).addr;
            EXPECT_EQ(cands[i].slot,
                      za.positionIn(za.wayOf(cands[i].slot), parent));
        }
        const LineId slot = za.replace(
            addr, cands, static_cast<std::int32_t>(rng.range(
                             cands.size())));
        EXPECT_EQ(za.lookup(addr), slot);
    }
}

} // namespace
} // namespace vantage
