/**
 * @file
 * Zero-allocation guard for the miss path.
 *
 * The data-oriented miss path — lookup, candidate walk into the
 * inline CandidateBuf, demotion scan over the hot SoA plane, and
 * relocation — must not touch the heap. This binary replaces the
 * global allocator with a counting shim and asserts that a warmed
 * cache performs zero allocations across hundreds of thousands of
 * accesses (hits, misses, evictions and writebacks included).
 *
 * Skipped under -DVANTAGE_CHECK=ON: the periodic invariant sweep
 * that build wires into Cache::access allocates scratch by design.
 *
 * The same shim proves that journal replay streams: loading a serve
 * journal and reading every record once allocates a fixed handful of
 * blocks however long the journal is.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "array/set_assoc.h"
#include "array/zarray.h"
#include "cache/banked_cache.h"
#include "cache/cache.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/vantage.h"
#include "partition/unpartitioned.h"
#include "replacement/lru.h"
#include "serve/journal.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

std::uint64_t
newCount()
{
    return g_news.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

// Global allocator shim: every operator new funnels through
// countedAlloc; deletes stay free of bookkeeping so destructors on
// the measured path cost nothing extra.
void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, std::align_val_t)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace vantage {
namespace {

#ifdef VANTAGE_CHECK_ENABLED
constexpr bool kChecked = true;
#else
constexpr bool kChecked = false;
#endif

/** Drive `accesses` mixed loads/stores; return allocations counted. */
template <typename CacheT>
std::uint64_t
allocationsDuring(CacheT &cache, std::uint64_t accesses,
                  std::uint32_t parts, std::uint64_t seed)
{
    Rng rng(seed);
    // Warm until the array is full and steady-state demotion runs.
    for (std::uint64_t i = 0; i < 300000; ++i) {
        cache.access((1ull << 40) | (rng.next() >> 18),
                     static_cast<PartId>(i % parts),
                     rng.chance(0.3) ? AccessType::Store
                                     : AccessType::Load);
    }
    const std::uint64_t before = newCount();
    for (std::uint64_t i = 0; i < accesses; ++i) {
        cache.access((1ull << 40) | (rng.next() >> 18),
                     static_cast<PartId>(i % parts),
                     rng.chance(0.3) ? AccessType::Store
                                     : AccessType::Load);
    }
    return newCount() - before;
}

TEST(AllocGuard, ShimCountsAllocations)
{
    const std::uint64_t before = newCount();
    auto p = std::make_unique<std::uint64_t>(7);
    EXPECT_GT(newCount(), before);
    EXPECT_EQ(*p, 7u);
}

TEST(AllocGuard, VantageZcacheMissPathIsAllocationFree)
{
    if (kChecked) {
        GTEST_SKIP() << "VANTAGE_CHECK builds sweep invariants "
                        "inside access(), which allocates";
    }
    VantageConfig cfg;
    cfg.numPartitions = 4;
    cfg.unmanagedFraction = 0.05;
    Cache cache(std::make_unique<ZArray>(16384, 4, 52, 1),
                std::make_unique<VantageController>(16384, cfg),
                "alloc_guard_v");
    EXPECT_EQ(allocationsDuring(cache, 200000, 4, 0x11), 0u);
}

TEST(AllocGuard, SetAssocLruMissPathIsAllocationFree)
{
    if (kChecked) {
        GTEST_SKIP() << "VANTAGE_CHECK builds sweep invariants "
                        "inside access(), which allocates";
    }
    Cache cache(std::make_unique<SetAssocArray>(8192, 16, true, 0x5),
                std::make_unique<Unpartitioned>(
                    1, std::make_unique<ExactLru>()),
                "alloc_guard_sa");
    EXPECT_EQ(allocationsDuring(cache, 200000, 1, 0x13), 0u);
}

TEST(AllocGuard, BankedVantageMissPathIsAllocationFree)
{
    if (kChecked) {
        GTEST_SKIP() << "VANTAGE_CHECK builds sweep invariants "
                        "inside access(), which allocates";
    }
    VantageConfig cfg;
    cfg.numPartitions = 2;
    cfg.unmanagedFraction = 0.05;
    std::vector<std::unique_ptr<Cache>> banks;
    for (int b = 0; b < 4; ++b) {
        banks.push_back(std::make_unique<Cache>(
            std::make_unique<ZArray>(4096, 4, 52, 100 + b),
            std::make_unique<VantageController>(4096, cfg),
            "alloc_guard_bank"));
    }
    BankedCache banked(std::move(banks), 0xb);
    EXPECT_EQ(allocationsDuring(banked, 200000, 2, 0x17), 0u);
}

/** Write a journal: one tenant joins, then makes `accesses` loads. */
std::string
writeJournal(const char *name, std::uint64_t accesses)
{
    const std::string path = ::testing::TempDir() + "vantage_alloc_" +
                             name + "_" + std::to_string(::getpid());
    JournalHeader hdr;
    hdr.spec.lines = 4096;
    hdr.maxTenants = 2;
    JournalWriter writer(path, hdr);
    writer.recordJoin(0, "tenant0");
    for (std::uint64_t i = 0; i < accesses; ++i) {
        writer.recordAccess(0, AccessType::Load, i * 64);
    }
    return path;
}

/** Allocations made by load() plus one full pass over the records. */
std::uint64_t
allocationsToStream(const std::string &path, std::uint64_t expected)
{
    std::uint64_t records = 0;
    const std::uint64_t before = newCount();
    {
        JournalReader reader;
        std::string error;
        if (reader.load(path, error)) {
            for (const JournalRecord &rec : reader.records()) {
                records += rec.event == JournalEvent::Access ? 1 : 0;
            }
        }
    }
    const std::uint64_t allocations = newCount() - before;
    EXPECT_EQ(records, expected);
    return allocations;
}

TEST(AllocGuard, JournalReplayMemoryIsIndependentOfLength)
{
    const std::string small = writeJournal("small", 10'000);
    const std::string large = writeJournal("large", 200'000);
    const std::uint64_t small_allocs = allocationsToStream(small, 10'000);
    const std::uint64_t large_allocs =
        allocationsToStream(large, 200'000);
    EXPECT_EQ(small_allocs, large_allocs);
    EXPECT_LE(large_allocs, 8u);
    std::remove(small.c_str());
    std::remove(large.c_str());
}

} // namespace
} // namespace vantage
