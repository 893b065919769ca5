/**
 * @file
 * Serve-mode tests: frame codec round trips and malformed-input
 * rejection, journal encode/decode, tenant join/leave ordering and
 * slot reuse, and full serve-vs-replay digest parity over a real
 * socket session with concurrent tenants.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "serve/frame.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/tenant_sim.h"

using namespace vantage;

namespace {

/** A small serve configuration that runs in milliseconds. */
JournalHeader
smallConfig(std::uint32_t max_tenants = 4)
{
    JournalHeader hdr;
    hdr.spec.scheme = SchemeKind::Vantage;
    hdr.spec.array = ArrayKind::Z4_52;
    hdr.spec.lines = 4096;
    hdr.spec.seed = 0x5eed;
    hdr.spec.numPartitions = max_tenants;
    hdr.spec.vantage.numPartitions = max_tenants;
    hdr.maxTenants = max_tenants;
    hdr.epochAccesses = 1000;
    hdr.useUcp = true;
    return hdr;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "vantage_serve_" + name + "_" +
           std::to_string(::getpid());
}

// ----------------------------------------------------------------------
// Frame codec.

TEST(Frame, EncodeDecodeRoundTrip)
{
    const std::vector<std::uint8_t> payload = buildHello("tenant-a");
    const std::vector<std::uint8_t> wire =
        encodeFrame(FrameType::Hello, payload);

    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    Frame frame;
    std::string error;
    ASSERT_TRUE(dec.next(frame, error)) << error;
    EXPECT_EQ(frame.type, FrameType::Hello);
    EXPECT_EQ(frame.payload, payload);
    std::string name;
    ASSERT_TRUE(parseHello(frame.payload, name));
    EXPECT_EQ(name, "tenant-a");
    EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, DecoderHandlesArbitrarySegmentation)
{
    // Three frames delivered one byte at a time must come out intact
    // and in order.
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < 3; ++i) {
        const auto one = encodeFrame(
            FrameType::AccessBatch,
            buildAccessBatch({{0x1000u + static_cast<Addr>(i),
                               AccessType::Load}}));
        wire.insert(wire.end(), one.begin(), one.end());
    }

    FrameDecoder dec;
    Frame frame;
    std::string error;
    int got = 0;
    for (const std::uint8_t byte : wire) {
        dec.feed(&byte, 1);
        while (dec.next(frame, error)) {
            std::vector<BatchAccess> batch;
            ASSERT_TRUE(parseAccessBatch(frame.payload, batch));
            ASSERT_EQ(batch.size(), 1u);
            EXPECT_EQ(batch[0].addr, 0x1000u + got);
            ++got;
        }
        ASSERT_TRUE(error.empty()) << error;
    }
    EXPECT_EQ(got, 3);
}

TEST(Frame, ZeroLengthPoisonsTheStream)
{
    FrameDecoder dec;
    const std::uint8_t zeros[4] = {0, 0, 0, 0};
    dec.feed(zeros, sizeof(zeros));
    Frame frame;
    std::string error;
    EXPECT_FALSE(dec.next(frame, error));
    EXPECT_NE(error.find("bad frame length"), std::string::npos);
    // Poisoned for good: more bytes don't revive it.
    const auto wire = encodeFrame(FrameType::Stats, {});
    dec.feed(wire.data(), wire.size());
    EXPECT_FALSE(dec.next(frame, error));
    EXPECT_FALSE(error.empty());
}

TEST(Frame, OversizedLengthRejected)
{
    FrameDecoder dec;
    std::vector<std::uint8_t> hdr;
    putU32(hdr, kMaxFrameBytes + 1);
    dec.feed(hdr.data(), hdr.size());
    Frame frame;
    std::string error;
    EXPECT_FALSE(dec.next(frame, error));
    EXPECT_NE(error.find("bad frame length"), std::string::npos);
}

TEST(Frame, TruncatedFrameWaitsForMoreBytes)
{
    const auto wire = encodeFrame(FrameType::Hello,
                                  buildHello("partial"));
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size() - 3);
    Frame frame;
    std::string error;
    EXPECT_FALSE(dec.next(frame, error));
    EXPECT_TRUE(error.empty()); // Not malformed, just incomplete.
    dec.feed(wire.data() + wire.size() - 3, 3);
    EXPECT_TRUE(dec.next(frame, error));
}

TEST(Frame, MalformedPayloadsRejected)
{
    // HELLO whose nameLen disagrees with the actual payload size.
    std::vector<std::uint8_t> bad_hello;
    putU16(bad_hello, 10);
    bad_hello.push_back('x');
    std::string name;
    EXPECT_FALSE(parseHello(bad_hello, name));

    // ACCESS_BATCH with a count that overstates the payload.
    std::vector<std::uint8_t> bad_batch;
    putU32(bad_batch, 5);
    putU64(bad_batch, 0x1234);
    putU8(bad_batch, 0);
    std::vector<BatchAccess> batch;
    EXPECT_FALSE(parseAccessBatch(bad_batch, batch));

    // ACCESS_BATCH with trailing garbage.
    auto trailing = buildAccessBatch({{0x40, AccessType::Load}});
    trailing.push_back(0xab);
    EXPECT_FALSE(parseAccessBatch(trailing, batch));

    // Access type out of range.
    std::vector<std::uint8_t> bad_type;
    putU32(bad_type, 1);
    putU64(bad_type, 0x40);
    putU8(bad_type, 7);
    EXPECT_FALSE(parseAccessBatch(bad_type, batch));
}

TEST(Frame, TypedRepliesRoundTrip)
{
    std::uint16_t slot = 0;
    ASSERT_TRUE(parseOkSlot(buildOkSlot(3), slot));
    EXPECT_EQ(slot, 3);

    std::uint32_t hits = 0;
    ASSERT_TRUE(parseOkHits(buildOkHits(12345), hits));
    EXPECT_EQ(hits, 12345u);

    TenantStats in;
    in.hits = 7;
    in.misses = 9;
    in.targetLines = 512;
    in.actualLines = 300;
    TenantStats out;
    ASSERT_TRUE(parseStatsReply(buildStatsReply(in), out));
    EXPECT_EQ(out.hits, in.hits);
    EXPECT_EQ(out.misses, in.misses);
    EXPECT_EQ(out.targetLines, in.targetLines);
    EXPECT_EQ(out.actualLines, in.actualLines);

    std::string message;
    ASSERT_TRUE(parseErr(buildErr("server full"), message));
    EXPECT_EQ(message, "server full");
}

// ----------------------------------------------------------------------
// Journal.

TEST(Journal, WriteReadRoundTrip)
{
    const std::string path = tempPath("journal");
    const JournalHeader hdr = smallConfig();
    {
        JournalWriter writer(path, hdr);
        writer.recordJoin(0, "alpha");
        writer.recordJoin(1, "beta");
        writer.recordAccess(0, AccessType::Load, 0xdeadbeef);
        writer.recordAccess(1, AccessType::Store, 0xcafe);
        writer.recordLeave(0);
    }

    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.load(path, error)) << error;
    EXPECT_EQ(reader.header().maxTenants, hdr.maxTenants);
    EXPECT_EQ(reader.header().epochAccesses, hdr.epochAccesses);
    EXPECT_EQ(reader.header().spec.lines, hdr.spec.lines);
    EXPECT_EQ(reader.header().spec.seed, hdr.spec.seed);

    EXPECT_EQ(reader.records().size(), 5u);
    std::vector<JournalRecord> recs;
    for (const JournalRecord &rec : reader.records()) {
        recs.push_back(rec);
    }
    ASSERT_EQ(recs.size(), 5u);
    EXPECT_EQ(recs[0].event, JournalEvent::Join);
    EXPECT_EQ(recs[0].name, "alpha");
    EXPECT_EQ(recs[2].event, JournalEvent::Access);
    EXPECT_EQ(recs[2].addr, 0xdeadbeefu);
    EXPECT_EQ(recs[3].type, AccessType::Store);
    EXPECT_EQ(recs[4].event, JournalEvent::Leave);
    EXPECT_EQ(recs[4].slot, 0);
    std::remove(path.c_str());
}

TEST(Journal, RejectsBadMagicAndTruncation)
{
    const std::string path = tempPath("badjournal");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a journal at all", f);
        std::fclose(f);
    }
    JournalReader reader;
    std::string error;
    EXPECT_FALSE(reader.load(path, error));
    EXPECT_NE(error.find("bad magic"), std::string::npos);

    // A valid header followed by a torn record.
    {
        JournalWriter writer(path, smallConfig());
        writer.recordJoin(0, "alpha");
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const std::uint8_t torn[2] = {3, 0}; // ACCESS, half a slot.
        std::fwrite(torn, 1, sizeof(torn), f);
        std::fclose(f);
    }
    EXPECT_FALSE(reader.load(path, error));
    EXPECT_NE(error.find("truncated"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, RejectsOutOfRangeSlot)
{
    const std::string path = tempPath("slotjournal");
    {
        JournalWriter writer(path, smallConfig(2));
        writer.recordJoin(5, "ghost"); // Capacity is 2.
    }
    JournalReader reader;
    std::string error;
    EXPECT_FALSE(reader.load(path, error));
    EXPECT_NE(error.find("out of range"), std::string::npos);
    std::remove(path.c_str());
}

/** Load `path`; @return the error, empty when it loaded. */
std::string
loadError(const std::string &path)
{
    JournalReader reader;
    std::string error;
    const bool loaded = reader.load(path, error);
    EXPECT_EQ(loaded, error.empty());
    return error;
}

/** Header size of a version-1 journal: records start here. */
constexpr std::uint64_t kRecordsStart = 72;

TEST(Journal, RejectsAccessWithoutJoin)
{
    const std::string path = tempPath("nojoin");
    {
        JournalWriter writer(path, smallConfig());
        writer.recordAccess(0, AccessType::Load, 0x40);
    }
    const std::string error = loadError(path);
    EXPECT_NE(error.find("ACCESS for inactive slot 0"), std::string::npos)
        << error;
    EXPECT_NE(error.find("at byte " + std::to_string(kRecordsStart)),
              std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(Journal, RejectsDoubleJoin)
{
    const std::string path = tempPath("rejoin");
    {
        JournalWriter writer(path, smallConfig());
        writer.recordJoin(0, "a");
        writer.recordJoin(0, "b");
    }
    const std::string error = loadError(path);
    EXPECT_NE(error.find("JOIN into occupied slot 0"), std::string::npos)
        << error;
    // The second JOIN follows a 6-byte JOIN with a 1-byte name.
    EXPECT_NE(error.find("at byte " + std::to_string(kRecordsStart + 6)),
              std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(Journal, RejectsLeaveWithoutJoin)
{
    const std::string path = tempPath("noleave");
    {
        JournalWriter writer(path, smallConfig());
        writer.recordLeave(0);
    }
    const std::string error = loadError(path);
    EXPECT_NE(error.find("LEAVE of inactive slot 0"), std::string::npos)
        << error;
    EXPECT_NE(error.find("at byte " + std::to_string(kRecordsStart)),
              std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(Journal, RejectsOutOfRangeHeaderFields)
{
    // Each row edits one header field of an otherwise valid journal
    // (vsim's --lifecycle defaults); every edit must fail load() with
    // a message, never reach an assert in the L2 constructors.
    JournalHeader base;
    base.spec.lines = 32768;
    base.maxTenants = 8;
    base.epochAccesses = 50'000;
    struct Edit
    {
        const char *field;
        std::function<void(JournalHeader &)> apply;
        const char *expect;
    };
    const std::vector<Edit> edits = {
        {"scheme 99",
         [](JournalHeader &h) { h.spec.scheme = static_cast<SchemeKind>(99); },
         "unknown scheme kind 99"},
        {"array 99",
         [](JournalHeader &h) { h.spec.array = static_cast<ArrayKind>(99); },
         "unknown array kind 99"},
        {"lines 12345", [](JournalHeader &h) { h.spec.lines = 12345; },
         "do not divide into 4 ways"},
        {"lines 0", [](JournalHeader &h) { h.spec.lines = 0; },
         "not a power of two"},
        {"lines 2^40", [](JournalHeader &h) { h.spec.lines = 1ull << 40; },
         "exceed 2^32 lines per way"},
        {"u 1.5",
         [](JournalHeader &h) { h.spec.vantage.unmanagedFraction = 1.5; },
         "--unmanaged must be in (0, 1)"},
        {"slack 0", [](JournalHeader &h) { h.spec.vantage.slack = 0.0; },
         "--slack must be in (0, 1)"},
        {"Amax NaN",
         [](JournalHeader &h) {
             h.spec.vantage.maxAperture =
                 std::numeric_limits<double>::quiet_NaN();
         },
         "--amax must be in (0, 1]"},
        {"thresholdEntries 0",
         [](JournalHeader &h) { h.spec.vantage.thresholdEntries = 0; },
         "threshold entries must be in [1, 256]"},
        {"thresholdEntries 2^30",
         [](JournalHeader &h) {
             h.spec.vantage.thresholdEntries = 1u << 30;
         },
         "threshold entries must be in [1, 256]"},
        {"maxTenants 65535", [](JournalHeader &h) { h.maxTenants = 65535; },
         "partitions exceed the 31130-line managed region"},
        {"maxTenants 0", [](JournalHeader &h) { h.maxTenants = 0; },
         "bad tenant capacity"},
    };
    const std::string path = tempPath("badheader");
    {
        JournalWriter writer(path, base);
    }
    EXPECT_EQ(loadError(path), "");
    for (const Edit &edit : edits) {
        JournalHeader hdr = base;
        edit.apply(hdr);
        {
            JournalWriter writer(path, hdr);
        }
        const std::string error = loadError(path);
        EXPECT_NE(error.find("journal header: "), std::string::npos)
            << edit.field << ": " << error;
        EXPECT_NE(error.find(edit.expect), std::string::npos)
            << edit.field << ": " << error;
    }
    std::remove(path.c_str());
}

TEST(Journal, RangesHaveIndependentCursors)
{
    const std::string path = tempPath("cursors");
    {
        JournalWriter writer(path, smallConfig());
        writer.recordJoin(0, "alpha");
        for (Addr a = 0; a < 3; ++a) {
            writer.recordAccess(0, AccessType::Load, a);
        }
    }
    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.load(path, error)) << error;
    JournalRecords first = reader.records();
    JournalRecords second = reader.records();
    auto a = first.begin();
    ++a;
    ++a;
    EXPECT_EQ(a->addr, 1u);
    auto b = second.begin();
    EXPECT_EQ(b->event, JournalEvent::Join);
    EXPECT_EQ(b->name, "alpha");
    ++a;
    ++b;
    EXPECT_EQ(a->addr, 2u);
    EXPECT_EQ(b->addr, 0u);
    ++a;
    EXPECT_TRUE(a == first.end());
    EXPECT_FALSE(b == second.end());
    std::remove(path.c_str());
}

TEST(JournalDeath, PassOverFileChangedAfterLoadIsFatal)
{
    const std::string path = tempPath("changed");
    {
        JournalWriter writer(path, smallConfig());
        writer.recordJoin(0, "alpha");
        writer.recordAccess(0, AccessType::Load, 0x40);
    }
    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.load(path, error)) << error;
    // Cut the validated ACCESS record in half.
    ASSERT_EQ(::truncate(path.c_str(), kRecordsStart + 10 + 6), 0);
    EXPECT_EXIT(
        {
            for (const JournalRecord &rec : reader.records()) {
                (void)rec;
            }
        },
        ::testing::ExitedWithCode(1),
        "changed after it was loaded: file ends at byte 88");
    std::remove(path.c_str());
}

// ----------------------------------------------------------------------
// Tenant lifecycle ordering.

TEST(TenantSim, JoinLeaveOrderingAndSlotReuse)
{
    TenantSim sim(smallConfig(3));
    EXPECT_EQ(sim.activeTenants(), 0u);

    EXPECT_EQ(sim.join("a"), 0);
    EXPECT_EQ(sim.join("b"), 1);
    EXPECT_EQ(sim.join("c"), 2);
    EXPECT_EQ(sim.activeTenants(), 3u);
    EXPECT_EQ(sim.join("overflow"), -1); // Full.

    // Give tenant 1 some resident lines, then retire it: the next
    // join prefers a drained slot, so it reuses 1 only after the
    // empty slots are gone. Here all slots are taken, so the only
    // retired slot (1, with residue) is the fallback.
    for (int i = 0; i < 2000; ++i) {
        sim.access(1, 0x40ull * static_cast<Addr>(i), AccessType::Load);
    }
    EXPECT_GT(sim.slotInfo(1).actualLines, 0u);
    sim.leave(1);
    EXPECT_EQ(sim.activeTenants(), 2u);
    EXPECT_FALSE(sim.slotActive(1));

    EXPECT_EQ(sim.join("d"), 1); // Reuses the retired id.
    EXPECT_TRUE(sim.slotActive(1));
    EXPECT_EQ(sim.slotInfo(1).name, "d");
    // Residual lines drain through the scheme, not a flash clear;
    // the new tenant's hit/miss counters start fresh.
    EXPECT_EQ(sim.slotInfo(1).hits, 0u);
    EXPECT_EQ(sim.slotInfo(1).misses, 0u);

    InvariantReport rep;
    sim.checkInvariants(rep);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(TenantSim, DrainedSlotPreferredOverResidue)
{
    TenantSim sim(smallConfig(4));
    EXPECT_EQ(sim.join("a"), 0);
    EXPECT_EQ(sim.join("b"), 1);
    for (int i = 0; i < 2000; ++i) {
        sim.access(1, 0x40ull * static_cast<Addr>(i), AccessType::Load);
    }
    sim.leave(1);
    // Slot 1 is retired but holds lines; slots 2 and 3 are empty.
    // A fresh join must land on the drained slot 2.
    EXPECT_EQ(sim.join("c"), 2);
    InvariantReport rep;
    sim.checkInvariants(rep);
    EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(TenantSim, LifecycleScenarioIsDeterministic)
{
    const JournalHeader cfg = smallConfig();
    const std::uint64_t a = runLifecycleScenario(cfg, 20000, nullptr);
    const std::uint64_t b = runLifecycleScenario(cfg, 20000, nullptr);
    EXPECT_EQ(a, b);
}

TEST(TenantSim, LifecycleJournalReplaysBitIdentically)
{
    const std::string path = tempPath("lifecycle");
    const JournalHeader cfg = smallConfig();
    std::uint64_t live = 0;
    {
        JournalWriter writer(path, cfg);
        live = runLifecycleScenario(cfg, 20000, &writer);
    }
    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.load(path, error)) << error;
    EXPECT_EQ(replayJournal(reader), live);
    std::remove(path.c_str());
}

// ----------------------------------------------------------------------
// The socket daemon: a scripted two-tenant session, then replay.

/** Minimal blocking test client over the frame protocol. */
class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_in addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0)
            << std::strerror(errno);
    }

    ~TestClient() { close(); }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    void
    send(FrameType type, const std::vector<std::uint8_t> &payload)
    {
        const auto wire = encodeFrame(type, payload);
        sendRaw(wire.data(), wire.size());
    }

    void
    sendRaw(const std::uint8_t *data, std::size_t size)
    {
        ASSERT_EQ(::send(fd_, data, size, MSG_NOSIGNAL),
                  static_cast<ssize_t>(size));
    }

    Frame
    recvFrame()
    {
        Frame frame;
        std::string error;
        std::uint8_t buf[4096];
        while (!decoder_.next(frame, error)) {
            EXPECT_TRUE(error.empty()) << error;
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0) {
                ADD_FAILURE() << "connection closed mid-reply";
                return frame;
            }
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
        return frame;
    }

    std::uint16_t
    hello(const std::string &name)
    {
        send(FrameType::Hello, buildHello(name));
        const Frame reply = recvFrame();
        EXPECT_EQ(reply.type, FrameType::Ok);
        std::uint16_t slot = 0xffff;
        EXPECT_TRUE(parseOkSlot(reply.payload, slot));
        return slot;
    }

    std::uint32_t
    batch(const std::vector<BatchAccess> &accesses)
    {
        send(FrameType::AccessBatch, buildAccessBatch(accesses));
        const Frame reply = recvFrame();
        EXPECT_EQ(reply.type, FrameType::Ok);
        std::uint32_t hits = 0;
        EXPECT_TRUE(parseOkHits(reply.payload, hits));
        return hits;
    }

  private:
    int fd_ = -1;
    FrameDecoder decoder_;
};

std::vector<BatchAccess>
makeBatch(Addr base, std::uint32_t count)
{
    std::vector<BatchAccess> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        out.push_back({base + 0x40ull * (i % 512), AccessType::Load});
    }
    return out;
}

TEST(ServeServer, TwoTenantSessionReplaysBitIdentically)
{
    const std::string path = tempPath("session");
    const JournalHeader cfg = smallConfig();
    std::uint64_t live = 0;
    {
        TenantSim sim(cfg);
        JournalWriter journal(path, cfg);
        ServeServer server(sim, &journal);
        std::string error;
        ASSERT_TRUE(server.start(0, error)) << error;
        std::thread loop([&server] { server.run(); });

        {
            TestClient a(server.port());
            TestClient b(server.port());
            EXPECT_EQ(a.hello("alpha"), 0);
            EXPECT_EQ(b.hello("beta"), 1);
            for (int round = 0; round < 10; ++round) {
                a.batch(makeBatch(0x10000000, 400));
                b.batch(makeBatch(0x20000000, 400));
            }

            // STATS reflects the tenant's own counters.
            a.send(FrameType::Stats, {});
            const Frame stats = a.recvFrame();
            EXPECT_EQ(stats.type, FrameType::StatsReply);
            TenantStats ts;
            ASSERT_TRUE(parseStatsReply(stats.payload, ts));
            EXPECT_EQ(ts.hits + ts.misses, 4000u);

            // beta leaves mid-session; gamma joins and keeps going.
            b.send(FrameType::Bye, {});
            EXPECT_EQ(b.recvFrame().type, FrameType::Ok);
            b.close();

            TestClient c(server.port());
            const std::uint16_t slot_c = c.hello("gamma");
            EXPECT_NE(slot_c, 0xffff);
            for (int round = 0; round < 5; ++round) {
                c.batch(makeBatch(0x30000000, 400));
                a.batch(makeBatch(0x10000000, 400));
            }

            // A malformed frame (zero length) gets ERR and only
            // kills its own connection; the joined tenant behind it
            // is retired and journaled like any other leave.
            TestClient bad(server.port());
            bad.send(FrameType::Hello, buildHello("ok-then-bad"));
            EXPECT_EQ(bad.recvFrame().type, FrameType::Ok);
            const std::uint8_t zeros[4] = {0, 0, 0, 0};
            bad.sendRaw(zeros, sizeof(zeros));
            const Frame err = bad.recvFrame();
            EXPECT_EQ(err.type, FrameType::Err);
            bad.close();

            a.send(FrameType::Shutdown, {});
            EXPECT_EQ(a.recvFrame().type, FrameType::Ok);
        }
        loop.join();

        InvariantReport rep;
        sim.checkInvariants(rep);
        EXPECT_TRUE(rep.ok()) << rep.summary();
        live = sim.finishDigest();
    }

    JournalReader reader;
    std::string error;
    ASSERT_TRUE(reader.load(path, error)) << error;
    EXPECT_EQ(replayJournal(reader), live);
    std::remove(path.c_str());
}

TEST(ServeServer, MalformedFrameDropsOnlyThatConnection)
{
    const JournalHeader cfg = smallConfig();
    TenantSim sim(cfg);
    ServeServer server(sim, nullptr);
    std::string error;
    ASSERT_TRUE(server.start(0, error)) << error;
    std::thread loop([&server] { server.run(); });

    {
        TestClient good(server.port());
        EXPECT_EQ(good.hello("good"), 0);

        TestClient bad(server.port());
        bad.send(static_cast<FrameType>(0x77), {}); // Unknown type.
        const Frame err = bad.recvFrame();
        EXPECT_EQ(err.type, FrameType::Err);
        bad.close();

        // The good tenant is unaffected.
        EXPECT_GE(good.batch(makeBatch(0x10000000, 100)), 0u);

        good.send(FrameType::Shutdown, {});
        EXPECT_EQ(good.recvFrame().type, FrameType::Ok);
    }
    loop.join();
    EXPECT_EQ(sim.activeTenants(), 0u); // Shutdown retires everyone.
}

TEST(ServeServer, DisconnectWithoutByeRetiresTheTenant)
{
    const JournalHeader cfg = smallConfig();
    TenantSim sim(cfg);
    ServeServer server(sim, nullptr);
    std::string error;
    ASSERT_TRUE(server.start(0, error)) << error;
    std::thread loop([&server] { server.run(); });

    {
        TestClient a(server.port());
        EXPECT_EQ(a.hello("abrupt"), 0);
        a.batch(makeBatch(0x10000000, 100));
        a.close(); // No BYE.

        // The hangup is processed (and the implicit leave applied)
        // no later than shutdown; the sim is only inspected after
        // the serve thread has joined.
        TestClient b(server.port());
        EXPECT_EQ(b.hello("watcher"), 1);
        b.batch(makeBatch(0x20000000, 10));
        b.send(FrameType::Shutdown, {});
        EXPECT_EQ(b.recvFrame().type, FrameType::Ok);
    }
    loop.join();
    EXPECT_FALSE(sim.slotActive(0));
}

} // namespace
