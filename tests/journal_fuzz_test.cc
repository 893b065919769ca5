/**
 * @file
 * Seeded truncate-and-mutate sweep over a serve journal.
 *
 * A small, valid lifecycle journal (joins, leaves, slot reuse and a
 * few hundred accesses) is cut at every byte offset, and each of its
 * bytes is overwritten with a few seeded values. Every variant must
 * either fail JournalReader::load() with a message or replay to
 * completion in-process. A variant that gets past load() and then
 * trips an assert in TenantSim or an L2 constructor aborts this
 * binary, which fails the test; so does one that calls fatal().
 */

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/journal.h"
#include "serve/tenant_sim.h"

using namespace vantage;

namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "vantage_journal_fuzz_" + name + "_" +
           std::to_string(::getpid());
}

/** A small Vantage L2 with a short UCP epoch, so replays are cheap. */
JournalHeader
fuzzConfig()
{
    JournalHeader hdr;
    hdr.spec.scheme = SchemeKind::Vantage;
    hdr.spec.array = ArrayKind::Z4_52;
    hdr.spec.lines = 1024;
    hdr.spec.seed = 0xf022;
    hdr.maxTenants = 3;
    hdr.epochAccesses = 64;
    hdr.useUcp = true;
    return hdr;
}

/**
 * Record a session of `accesses` accesses with a join or leave every
 * 30 of them, always keeping one tenant active.
 */
void
recordSession(const std::string &path, std::uint32_t accesses)
{
    const JournalHeader hdr = fuzzConfig();
    TenantSim sim(hdr);
    JournalWriter journal(path, hdr);
    Rng rng(0x10f2);
    std::vector<std::uint16_t> active;
    const auto join = [&](std::uint32_t i) {
        const std::string name = std::to_string(i);
        const auto slot = static_cast<std::uint16_t>(sim.join(name));
        journal.recordJoin(slot, name);
        active.push_back(slot);
    };
    join(0);
    for (std::uint32_t i = 1; i <= accesses; ++i) {
        if (i % 30 == 0) {
            if (active.size() < 2 ||
                (active.size() < hdr.maxTenants && rng.chance(0.5))) {
                join(i);
            } else {
                const std::size_t k = rng.range(active.size());
                journal.recordLeave(active[k]);
                sim.leave(active[k]);
                active.erase(active.begin() + static_cast<long>(k));
            }
        }
        const std::uint16_t slot = active[rng.range(active.size())];
        const Addr addr = (static_cast<Addr>(slot) + 1) << 20 |
                          rng.range(512) << 6;
        const AccessType type =
            rng.chance(0.25) ? AccessType::Store : AccessType::Load;
        journal.recordAccess(slot, type, addr);
        sim.access(slot, addr, type);
    }
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return bytes;
    }
    std::uint8_t chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
        bytes.insert(bytes.end(), chunk, chunk + n);
    }
    std::fclose(f);
    return bytes;
}

void
writeFile(const std::string &path, const std::uint8_t *data,
          std::size_t size)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data, 1, size, f), size);
    std::fclose(f);
}

/** Outcome counts of a sweep. */
struct Sweep
{
    std::uint64_t rejected = 0;
    std::uint64_t replayed = 0;

    /** Load one variant; replay it to completion if it loads. */
    void
    probe(const std::string &path, const std::uint8_t *data,
          std::size_t size)
    {
        writeFile(path, data, size);
        JournalReader reader;
        std::string error;
        if (!reader.load(path, error)) {
            EXPECT_FALSE(error.empty()) << "silent rejection at size "
                                        << size;
            ++rejected;
            return;
        }
        replayJournal(reader);
        ++replayed;
    }
};

TEST(JournalFuzz, TruncatedAndMutatedJournalsFailCleanlyOrReplay)
{
    const std::string source = tempPath("source");
    const std::string variant = tempPath("variant");
    recordSession(source, 240);
    std::vector<std::uint8_t> bytes = readFile(source);
    ASSERT_GT(bytes.size(), 2000u);

    Sweep sweep;
    // Every prefix: torn headers, torn records, and whole-record
    // prefixes (valid shorter sessions).
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        sweep.probe(variant, bytes.data(), cut);
    }
    // Every byte set to 0x00, 0xff and one seeded value.
    Rng rng(0xb17e);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        const std::uint8_t original = bytes[pos];
        const std::uint8_t values[] = {
            0x00, 0xff, static_cast<std::uint8_t>(rng.next())};
        for (const std::uint8_t v : values) {
            bytes[pos] = v;
            sweep.probe(variant, bytes.data(), bytes.size());
        }
        bytes[pos] = original;
    }
    // Both outcomes must occur, or the sweep tested nothing.
    EXPECT_GT(sweep.rejected, 0u);
    EXPECT_GT(sweep.replayed, 0u);
    std::printf("journal fuzz: %zu bytes, %llu variants rejected, %llu "
                "replayed\n",
                bytes.size(),
                static_cast<unsigned long long>(sweep.rejected),
                static_cast<unsigned long long>(sweep.replayed));
    std::remove(source.c_str());
    std::remove(variant.c_str());
}

} // namespace
