/**
 * @file
 * Scalar-vs-SIMD parity tests.
 *
 * Two layers: (1) randomized kernel-level parity — every dispatched
 * kernel, driven over fuzzed hot/cold planes and candidate lists at
 * every dispatch level this host can run, must return exactly what
 * the scalar reference returns (ties included); (2) whole-simulation
 * parity — full CmpSim runs re-executed at each level must produce
 * bit-identical access digests. Together with the pinned golden
 * digests (which CI runs under VANTAGE_SIMD=scalar and =avx2) this
 * pins the digest-neutrality contract of the vector kernels.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "array/set_assoc.h"
#include "array/zarray.h"
#include "common/digest.h"
#include "common/hp_alloc.h"
#include "common/rng.h"
#include "sim/experiment.h"
#include "simd/kernels.h"
#include "simd/simd.h"
#include "workload/mixes.h"

namespace vantage {
namespace {

std::vector<simd::Level>
availableLevels()
{
    std::vector<simd::Level> out;
    for (const simd::Level lvl :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon}) {
        if (simd::opsFor(lvl) != nullptr) {
            out.push_back(lvl);
        }
    }
    return out;
}

/** Restore the startup dispatch when a test body returns. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(simd::level()) {}
    ~LevelGuard() { simd::setLevelForTest(saved_); }

  private:
    simd::Level saved_;
};

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

TEST(SimdKernelParity, FindTagMatchesScalarAtEveryLevel)
{
    Rng rng(0xf1a9);
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 200; ++iter) {
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.range(64));
            FuzzPlane plane(rng, 256, n);
            // Probe a resident tag, a missing tag, and every way in
            // between: sometimes plant the probe (possibly twice, to
            // pin first-match semantics).
            Addr addr = rng.next() | 1;
            if (rng.range(2) == 0) {
                plane.lines[rng.range(n)].addr = addr;
            }
            if (rng.range(4) == 0) {
                plane.lines[rng.range(n)].addr = addr;
            }
            EXPECT_EQ(
                ops.findTag(plane.lines.data(), n, addr),
                simd::scalar::findTag(plane.lines.data(), n, addr))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
        }
    }
}

TEST(SimdKernelParity, FindTagAtMatchesScalarAtEveryLevel)
{
    Rng rng(0xf1b0);
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 200; ++iter) {
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.range(16));
            FuzzPlane plane(rng, 512, n);
            std::vector<LineId> slots;
            for (std::uint32_t i = 0; i < n; ++i) {
                slots.push_back(plane.cands[i].slot);
            }
            Addr addr = rng.next() | 1;
            if (rng.range(2) == 0) {
                plane.lines[slots[rng.range(n)]].addr = addr;
            }
            EXPECT_EQ(ops.findTagAt(plane.lines.data(), slots.data(),
                                    n, addr),
                      simd::scalar::findTagAt(plane.lines.data(),
                                              slots.data(), n, addr))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
        }
    }
}

TEST(SimdKernelParity, ClassifyMatchesScalarAtEveryLevel)
{
    Rng rng(0xc1a5);
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 300; ++iter) {
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.range(64));
            FuzzPlane plane(rng, 512, n);
            std::uint32_t parts_v[CandidateBuf::kCapacity];
            std::uint8_t ranks_v[CandidateBuf::kCapacity];
            std::uint64_t valid_v = 0, unman_v = 0;
            std::uint32_t parts_s[CandidateBuf::kCapacity];
            std::uint8_t ranks_s[CandidateBuf::kCapacity];
            std::uint64_t valid_s = 0, unman_s = 0;
            ops.classify(plane.lines.data(), plane.cands.data(), n,
                         parts_v, ranks_v, &valid_v, &unman_v);
            simd::scalar::classify(plane.lines.data(),
                                   plane.cands.data(), n, parts_s,
                                   ranks_s, &valid_s, &unman_s);
            EXPECT_EQ(valid_v, valid_s)
                << "level " << simd::levelName(lvl);
            EXPECT_EQ(unman_v, unman_s)
                << "level " << simd::levelName(lvl);
            EXPECT_EQ(0, std::memcmp(parts_v, parts_s,
                                     n * sizeof(std::uint32_t)));
            EXPECT_EQ(0, std::memcmp(ranks_v, ranks_s, n));
        }
    }
}

TEST(SimdKernelParity, LruFoldsMatchScalarAtEveryLevel)
{
    Rng rng(0x17c4);
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 300; ++iter) {
            const std::uint32_t n =
                1 + static_cast<std::uint32_t>(rng.range(64));
            FuzzPlane plane(rng, 512, n);
            const std::uint8_t ts =
                static_cast<std::uint8_t>(rng.range(256));
            EXPECT_EQ(ops.oldestRank(plane.lines.data(),
                                     plane.cands.data(), n, ts),
                      simd::scalar::oldestRank(plane.lines.data(),
                                               plane.cands.data(), n,
                                               ts))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
            EXPECT_EQ(
                ops.minLastAccess(plane.cold.data(),
                                  plane.cands.data(), n),
                simd::scalar::minLastAccess(plane.cold.data(),
                                            plane.cands.data(), n))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
        }
    }
}

TEST(SimdKernelParity, XorRows8MatchesScalarAtEveryLevel)
{
    Rng rng(0x8a54);
    std::vector<std::uint32_t> tables(8 * 2048);
    for (auto &w : tables) {
        w = static_cast<std::uint32_t>(rng.next());
    }
    for (const simd::Level lvl : availableLevels()) {
        const simd::Ops &ops = *simd::opsFor(lvl);
        for (int iter = 0; iter < 500; ++iter) {
            const Addr addr = rng.next();
            std::uint32_t pos_v[8];
            std::uint32_t pos_s[8];
            ops.xorRows8(tables.data(), addr, pos_v);
            simd::scalar::xorRows8(tables.data(), addr, pos_s);
            EXPECT_EQ(0, std::memcmp(pos_v, pos_s, sizeof(pos_v)))
                << "level " << simd::levelName(lvl) << " iter "
                << iter;
        }
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
 * The W == 8 batched hash feeds lookup and the walk through the
 * dispatched xorRows8 kernel: positions and candidate lists of an
 * 8-way zcache must be identical at every level.
 */
TEST(SimdParity, ZArrayWay8WalkIsLevelInvariant)
{
    LevelGuard guard;
    Rng rng(0x2a8);
    ZArray za(8192, 8, 8);
    for (int iter = 0; iter < 2000; ++iter) {
        const Addr addr = rng.next() | 1;
        ASSERT_TRUE(simd::setLevelForTest(simd::Level::Scalar));
        const LineId hit_s = za.lookup(addr);
        CandidateBuf cands_s;
        za.candidates(addr, cands_s);
        for (const simd::Level lvl : availableLevels()) {
            ASSERT_TRUE(simd::setLevelForTest(lvl));
            EXPECT_EQ(hit_s, za.lookup(addr))
                << "level " << simd::levelName(lvl);
            CandidateBuf cands_v;
            za.candidates(addr, cands_v);
            ASSERT_EQ(cands_s.size(), cands_v.size());
            for (std::uint32_t i = 0; i < cands_s.size(); ++i) {
                EXPECT_EQ(cands_s[i].slot, cands_v[i].slot);
                EXPECT_EQ(cands_s[i].parent, cands_v[i].parent);
            }
        }
    }
}

std::uint64_t
runDigest(SchemeKind scheme, ArrayKind array)
{
    L2Spec spec;
    spec.scheme = scheme;
    spec.array = array;
    spec.lines = 8192;
    spec.numPartitions = 4;
    spec.vantage.unmanagedFraction = 0.05;
    spec.vantage.maxAperture = 0.4;
    spec.vantage.slack = 0.1;

    CmpConfig cfg = CmpConfig::small4Core();
    const auto apps = makeMix(2, 1, 0);
    CmpSim sim(cfg, apps, buildL2(spec), /*seed=*/3);
    AccessDigest digest;
    sim.sharedL2().attachDigest(&digest);
    sim.warmup(10'000);
    sim.run(60'000);
    sim.sharedL2().finalizeDigest();
    return digest.value();
}

/**
 * Whole-simulation digest parity: the exact stream the golden suite
 * pins, in miniature, re-run at every dispatch level available here.
 * Covers the integrated paths the kernel tests cannot: lookup memo
 * reuse, the selectVictim serial-commit ordering, and LRU folds
 * feeding real evictions.
 */
TEST(SimdParity, SimulationDigestsAreLevelInvariant)
{
    LevelGuard guard;
    const struct
    {
        SchemeKind scheme;
        ArrayKind array;
    } points[] = {
        {SchemeKind::Vantage, ArrayKind::Z4_52},
        {SchemeKind::Vantage, ArrayKind::SA16},
        {SchemeKind::UnpartLru, ArrayKind::SA16},
        {SchemeKind::UnpartLru, ArrayKind::Z4_52},
        {SchemeKind::VantageDrrip, ArrayKind::Z4_16},
    };
    for (const auto &pt : points) {
        ASSERT_TRUE(simd::setLevelForTest(simd::Level::Scalar));
        const std::uint64_t want = runDigest(pt.scheme, pt.array);
        EXPECT_NE(0u, want);
        for (const simd::Level lvl : availableLevels()) {
            ASSERT_TRUE(simd::setLevelForTest(lvl));
            EXPECT_EQ(want, runDigest(pt.scheme, pt.array))
                << schemeKindName(pt.scheme) << "/"
                << arrayKindName(pt.array) << " at level "
                << simd::levelName(lvl);
        }
    }
}

} // namespace
} // namespace vantage
