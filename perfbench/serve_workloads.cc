/**
 * @file
 * serve_socket: the multi-tenant serve core (TenantSim) driven over
 * loopback TCP by a closed-loop client through ServeServer.
 *
 * The session is journaled. The journal is the serve seam's
 * recording: every run replays it with JournalReader + replayJournal
 * and must reproduce the session's digest. The traced run also
 * replays it call by call through TenantSim, through the journal
 * codec, and — via a mirror of TenantSim's calls into its L2 and
 * UCP — through the L2's array and scheme and through Ucp.
 */

#include <arpa/inet.h>
#include <sched.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/check.h"
#include "replay.h"
#include "serve/frame.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/tenant_sim.h"
#include "workload/app_model.h"
#include "workload/profiles.h"
#include "workloads.h"

namespace vbench {

using namespace vantage;

namespace {

/**
 * The serve configuration: vsim's --serve defaults (a Vantage Z4/52
 * 2 MB L2, 50 k-access UCP epochs) with 4 tenant slots.
 */
JournalHeader
serveHeader(const RunOptions &opt)
{
    constexpr std::uint32_t maxTenants = 4;
    JournalHeader hdr;
    hdr.spec.array = ArrayKind::Z4_52;
    hdr.spec.scheme = SchemeKind::Vantage;
    hdr.spec.lines = 2 * kLinesPerMb;
    hdr.spec.numPartitions = maxTenants;
    hdr.spec.seed = opt.seed + 0x5ec;
    hdr.maxTenants = maxTenants;
    hdr.epochAccesses = 50'000;
    hdr.useUcp = true;
    return hdr;
}

double
secondsBetween(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e9;
}

bool
loadJournal(const std::string &path, JournalReader &reader,
            RunResult &out)
{
    std::string error;
    const bool ok = reader.load(path, error);
    out.check(ok, "journal load failed: " + error);
    return ok;
}

/** Per-record timings of a journal replayed through TenantSim. */
struct TenantReplay
{
    LayerTimer access;    ///< TenantSim::access.
    LayerTimer lifecycle; ///< joinAt + leave.
    std::uint64_t digest = 0;
    std::uint64_t lifecycleEvents = 0;
};

/**
 * Re-execute `reader` through a fresh TenantSim, timing every call.
 * Same event loop as replayJournal().
 */
TenantReplay
replayTenants(const JournalReader &reader)
{
    TenantReplay tr;
    TenantSim sim(reader.header());
    for (const JournalRecord &rec : reader.records()) {
        switch (rec.event) {
          case JournalEvent::Join: {
            const std::uint64_t t0 = ticks();
            sim.joinAt(rec.slot, rec.name);
            tr.lifecycle.add(t0, ticks());
            ++tr.lifecycleEvents;
            break;
          }
          case JournalEvent::Leave: {
            const std::uint64_t t0 = ticks();
            sim.leave(rec.slot);
            tr.lifecycle.add(t0, ticks());
            ++tr.lifecycleEvents;
            break;
          }
          case JournalEvent::Access: {
            const std::uint64_t t0 = ticks();
            sim.access(rec.slot, rec.addr, rec.type);
            tr.access.add(t0, ticks());
            break;
          }
        }
    }
    tr.digest = sim.finishDigest();
    return tr;
}

/**
 * TenantSim's calls into its L2 and UCP for one journal, made against
 * a freshly built TenantSim's own L2 and UCP through a recorder. The
 * mirrored logic (rebalance on join/leave, UCP at epoch boundaries)
 * is TenantSim's; the digest check against the live session proves
 * the mirror exact.
 *
 * A stopgap: TenantSim builds its L2 itself, so a RecordingL2 cannot
 * wrap it. A change to TenantSim's allocation policy fails the digest
 * check here until this copy is updated; once TenantSim can take its
 * SharedL2 from outside, record the real calls and delete the mirror.
 */
struct Mirror
{
    L2Recording l2;
    UcpLog ucp;
    std::uint64_t digest = 0;
};

void
rebalance(SharedL2 &l2, std::uint32_t maxTenants, std::uint32_t active)
{
    std::vector<std::uint32_t> units(maxTenants, 0);
    if (active != 0) {
        const std::uint32_t quantum = l2.allocationQuantum();
        const std::uint32_t share = quantum / active;
        std::uint32_t remainder = quantum % active;
        for (std::uint32_t s = 0; s < maxTenants; ++s) {
            if (!l2.partitionActive(s)) {
                continue;
            }
            units[s] = share + (remainder > 0 ? 1 : 0);
            if (remainder > 0) {
                --remainder;
            }
        }
    }
    l2.setAllocations(units);
}

Mirror
mirrorTenantSim(const JournalReader &reader)
{
    Mirror m;
    const JournalHeader &hdr = reader.header();
    TenantSim factory(hdr);
    RecordingL2 l2(factory.l2(), m.l2, true);
    Ucp *ucp = factory.ucp();
    AccessDigest digest;
    l2.attachDigest(&digest);
    m.ucp.quantum = l2.allocationQuantum();

    std::uint32_t active = 0;
    std::uint64_t accesses = 0;
    const auto ucpEvent = [&m](UcpEvent::Kind kind, std::uint32_t arg,
                               Addr addr) {
        UcpEvent e;
        e.kind = kind;
        e.arg = arg;
        e.addr = addr;
        m.ucp.events.push_back(e);
    };
    for (const JournalRecord &rec : reader.records()) {
        switch (rec.event) {
          case JournalEvent::Join:
            l2.createPartition(rec.slot);
            if (ucp != nullptr) {
                ucp->attachMonitor(rec.slot);
                ucpEvent(UcpEvent::Kind::Attach, rec.slot, 0);
            }
            ++active;
            rebalance(l2, hdr.maxTenants, active);
            break;
          case JournalEvent::Leave:
            l2.destroyPartition(rec.slot);
            if (ucp != nullptr) {
                ucp->detachMonitor(rec.slot);
                ucpEvent(UcpEvent::Kind::Detach, rec.slot, 0);
            }
            --active;
            rebalance(l2, hdr.maxTenants, active);
            break;
          case JournalEvent::Access:
            l2.access(rec.addr, rec.slot, rec.type);
            if (ucp != nullptr) {
                ucp->observe(rec.slot, rec.addr);
                ucpEvent(UcpEvent::Kind::Observe, rec.slot, rec.addr);
            }
            ++accesses;
            if (hdr.epochAccesses != 0 &&
                accesses % hdr.epochAccesses == 0 && ucp != nullptr &&
                active != 0) {
                // Vantage's quantum (256) always exceeds the slot
                // count, so UCP allocates at every epoch.
                std::vector<std::uint32_t> units =
                    ucp->computeAllocations(m.ucp.quantum, 1);
                l2.setAllocations(units);
                ucp->nextInterval();
                ucpEvent(UcpEvent::Kind::Repartition,
                         static_cast<std::uint32_t>(m.ucp.units.size()),
                         0);
                m.ucp.units.push_back(std::move(units));
            }
            break;
        }
    }
    l2.attachDigest(nullptr);
    m.digest = digest.value();
    return m;
}

/** Totals of the serve layer replays. */
struct ServeLayers
{
    TenantReplay tenant;
    LayerTimer journalWrite;
    double journalLoadNs = 0.0;
    double componentsNs = 0.0;
    double ucpNs = 0.0;
    std::uint64_t accesses = 0;
};

/**
 * Load `path` (timed), then replay it through the journal codec,
 * TenantSim, the L2's components and UCP, filling their per-layer
 * metrics.
 */
ServeLayers
replayServeLayers(const std::string &path, std::uint64_t digest,
                  const RunOptions &opt, RunResult &out)
{
    ServeLayers sl;
    JournalReader reader;
    const std::int64_t t0 = nowNs();
    if (!loadJournal(path, reader, out)) {
        return sl;
    }
    sl.journalLoadNs = static_cast<double>(nowNs() - t0);
    const auto records = static_cast<double>(reader.records().size());

    // Journal write path: re-append every record, timed.
    {
        const std::string copy = opt.workDir + "/rewrite.vsrj";
        JournalWriter writer(copy, reader.header());
        for (const JournalRecord &rec : reader.records()) {
            const std::uint64_t w0 = ticks();
            switch (rec.event) {
              case JournalEvent::Join:
                writer.recordJoin(rec.slot, rec.name);
                break;
              case JournalEvent::Leave:
                writer.recordLeave(rec.slot);
                break;
              case JournalEvent::Access:
                writer.recordAccess(rec.slot, rec.type, rec.addr);
                break;
            }
            sl.journalWrite.add(w0, ticks());
        }
        const std::int64_t w0 = nowNs();
        writer.close();
        sl.journalWrite.totalNs += static_cast<double>(nowNs() - w0);
        std::remove(copy.c_str());
    }

    sl.tenant = replayTenants(reader);
    out.check(sl.tenant.digest == digest,
              "per-call TenantSim replay digest differs from the "
              "session's");
    sl.accesses = sl.tenant.access.calls;

    const Mirror m = mirrorTenantSim(reader);
    out.check(m.digest == digest,
              "TenantSim mirror digest differs from the session's");
    {
        TenantSim fresh(reader.header());
        const ComponentTimes ct = replayComponents(fresh.l2(), m.l2, out);
        reportComponentMetrics(ct, m.l2, out);
        sl.componentsNs = ct.totalNs();
    }
    {
        TenantSim fresh(reader.header());
        const UcpTimes ut = replayUcp(*fresh.ucp(), m.ucp, out);
        out.set("alloc.observe_ns", ut.observe.perCallNs(), "ns");
        out.set("alloc.repartition_us", ut.repartition.perCallNs() / 1e3,
                "us");
        out.set("alloc.repartitions",
                static_cast<double>(ut.repartition.calls), "count");
        sl.ucpNs = ut.observe.totalNs + ut.repartition.totalNs;
    }

    // Serve has no private L1: reported as 0, not applicable.
    out.set("l1.access_ns", 0.0, "ns");
    out.set("l1.hit_rate", 0.0, "ratio");
    out.set("l2.access_ns", m.l2.inSitu.perCallNs(), "ns");
    out.set("serve.journal_write_ns", sl.journalWrite.perCallNs(), "ns");
    out.set("serve.journal_load_ns", sl.journalLoadNs / records, "ns");
    out.set("serve.lifecycle_events",
            static_cast<double>(sl.tenant.lifecycleEvents), "count");
    out.detail["serve.tenant_access_ns"] = sl.tenant.access.perCallNs();
    out.detail["layer_ms.journal_write"] = sl.journalWrite.totalNs / 1e6;
    out.detail["layer_ms.l2_components"] = sl.componentsNs / 1e6;
    out.detail["layer_ms.alloc"] = sl.ucpNs / 1e6;
    return sl;
}

// ----------------------------------------------------------------------
// serve_socket

/** Blocking frame client for one tenant connection. */
class Client
{
  public:
    explicit Client(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) {
            return;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~Client()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool ok() const { return fd_ >= 0; }

    /** Send one frame and wait for the reply. */
    bool
    call(FrameType type, const std::vector<std::uint8_t> &payload,
         Frame &reply)
    {
        const std::vector<std::uint8_t> wire = encodeFrame(type, payload);
        std::size_t sent = 0;
        while (sent < wire.size()) {
            const ssize_t n = ::send(fd_, wire.data() + sent,
                                     wire.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        std::string error;
        std::uint8_t buf[4096];
        while (!decoder_.next(reply, error)) {
            if (!error.empty()) {
                return false;
            }
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0) {
                return false;
            }
            decoder_.feed(buf, static_cast<std::size_t>(n));
        }
        return true;
    }

  private:
    int fd_ = -1;
    FrameDecoder decoder_;
};

/** One socket session's measurements. */
struct SocketRep
{
    double setupS = 0.0;
    double sessionS = 0.0;
    double replayS = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t digest = 0;
    std::uint64_t replayDigest = 0;
    bool ok = false;
    bool invariantsOk = false;
    std::vector<double> rttUs;
};

constexpr std::uint32_t kTenants = 3;
/** Accesses per ACCESS_BATCH frame. */
constexpr std::uint32_t kBatchAccesses = 64;

/**
 * The tenants' streams: a cache-fitting, a cache-friendly and a
 * streaming app. The apps are fixed; the seed varies their addresses.
 */
std::vector<std::unique_ptr<AccessStream>>
makeTenantStreams(std::uint64_t seed)
{
    const char *const apps[kTenants] = {"omnetpp", "gcc", "milc"};
    std::vector<std::unique_ptr<AccessStream>> streams;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
        streams.push_back(std::make_unique<AppModel>(appByName(apps[t]), t,
                                                     seed * 7919 + t));
    }
    return streams;
}

SocketRep
runSocketRep(const JournalHeader &hdr, std::uint64_t seed,
             std::uint32_t rounds, const std::string &path,
             std::vector<std::vector<MemRef>> *refs)
{
    SocketRep rep;
    std::vector<std::unique_ptr<AccessStream>> streams =
        makeTenantStreams(seed);

    // Client and server share one CPU: a round trip is then two local
    // context switches, not two cross-CPU wakeups whose latency
    // depends on the hypervisor scheduling the other vCPU.
    const int cpu = sched_getcpu();
    if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    const std::int64_t t0 = nowNs();
    auto sim = std::make_unique<TenantSim>(hdr);
    auto journal = std::make_unique<JournalWriter>(path, hdr);
    auto server = std::make_unique<ServeServer>(*sim, journal.get());
    std::string error;
    if (!server->start(0, error)) {
        std::fprintf(stderr, "vbench: serve start failed: %s\n",
                     error.c_str());
        return rep;
    }
    std::thread loop([&server] { server->run(); });
    std::vector<std::unique_ptr<Client>> clients;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
        clients.push_back(std::make_unique<Client>(server->port()));
    }
    const std::int64_t t1 = nowNs();

    bool ok = true;
    Frame reply;
    for (std::uint32_t t = 0; t < kTenants && ok; ++t) {
        std::uint16_t slot = 0;
        ok = clients[t]->ok() &&
             clients[t]->call(FrameType::Hello,
                              buildHello("tenant" + std::to_string(t)),
                              reply) &&
             reply.type == FrameType::Ok && parseOkSlot(reply.payload, slot);
    }
    rep.rttUs.reserve(static_cast<std::size_t>(rounds) * kTenants);
    std::vector<BatchAccess> batch(kBatchAccesses);
    for (std::uint32_t r = 0; r < rounds && ok; ++r) {
        for (std::uint32_t t = 0; t < kTenants && ok; ++t) {
            for (BatchAccess &a : batch) {
                const MemRef ref = streams[t]->next();
                a.addr = ref.addr;
                a.type = ref.type;
                if (refs != nullptr) {
                    (*refs)[t].push_back(ref);
                }
            }
            const std::vector<std::uint8_t> payload =
                buildAccessBatch(batch);
            const std::int64_t s0 = nowNs();
            ok = clients[t]->call(FrameType::AccessBatch, payload, reply);
            rep.rttUs.push_back(static_cast<double>(nowNs() - s0) / 1e3);
            std::uint32_t hits = 0;
            ok = ok && reply.type == FrameType::Ok &&
                 parseOkHits(reply.payload, hits);
            rep.hits += hits;
            rep.accesses += kBatchAccesses;
        }
    }
    const std::int64_t t2 = nowNs();

    // Tenants 1.. leave with BYE; tenant 0 stops the daemon, which
    // retires it. Every step waits for its reply, so the journal order
    // is fixed.
    for (std::uint32_t t = 1; t < kTenants && ok; ++t) {
        ok = clients[t]->call(FrameType::Bye, {}, reply) &&
             reply.type == FrameType::Ok;
    }
    const bool stopped = clients[0]->ok() &&
                         clients[0]->call(FrameType::Shutdown, {}, reply);
    if (!stopped) {
        // Unblock the poll loop so the thread can be joined.
        Client last(server->port());
        last.call(FrameType::Shutdown, {}, reply);
    }
    loop.join();
    clients.clear();
    server.reset();
    journal->close();
    rep.digest = sim->finishDigest();
    InvariantReport inv;
    sim->checkInvariants(inv);
    rep.invariantsOk = inv.ok();
    sim.reset();

    const std::int64_t t3 = nowNs();
    JournalReader reader;
    rep.replayDigest = reader.load(path, error) ? replayJournal(reader) : 0;
    const std::int64_t t4 = nowNs();
    rep.ok = ok && stopped;
    rep.setupS = secondsBetween(t0, t1);
    rep.sessionS = secondsBetween(t1, t2);
    rep.replayS = secondsBetween(t3, t4);
    return rep;
}

void
checkSocketRep(const SocketRep &rep, std::uint64_t digest, RunResult &out)
{
    out.check(rep.ok, "socket session failed");
    out.check(rep.digest == digest,
              "session digest differs from the first rep's");
    out.check(rep.replayDigest == rep.digest,
              "journal replay digest differs from the session's");
    out.check(rep.invariantsOk, "TenantSim checkInvariants failed");
}

} // namespace

RunResult
runServeSocket(const RunOptions &opt)
{
    RunResult out;
    const JournalHeader hdr = serveHeader(opt);
    const std::uint32_t rounds = opt.selftest ? 300 : 1'500;
    const std::string path = opt.workDir + "/serve_socket.vsrj";

    if (opt.trace) {
        const SocketRep plain =
            runSocketRep(hdr, opt.seed, rounds, path, nullptr);
        out.digest = plain.digest;
        checkSocketRep(plain, out.digest, out);
        std::vector<std::vector<MemRef>> refs(kTenants);
        const SocketRep traced =
            runSocketRep(hdr, opt.seed, rounds, path, &refs);
        checkSocketRep(traced, out.digest, out);
        const ServeLayers sl = replayServeLayers(path, out.digest, opt, out);
        std::remove(path.c_str());

        std::vector<std::unique_ptr<AccessStream>> streams =
            makeTenantStreams(opt.seed);
        const LayerTimer next = replayStreams(streams, refs, out);

        // Whatever the replays do not cover — frame codec, poll,
        // send/recv, the client loop and TenantSim's bookkeeping — is
        // the residual.
        const double wallNs = traced.sessionS * 1e9;
        const double layersNs = next.totalNs + sl.journalWrite.totalNs +
                                sl.componentsNs + sl.ucpNs;
        const double residualNs = wallNs - layersNs;
        const auto n = static_cast<double>(traced.accesses);
        const auto batches = static_cast<double>(traced.rttUs.size());
        const double tenantNs =
            sl.tenant.access.totalNs + sl.tenant.lifecycle.totalNs;
        out.set("workload.next_ns", next.perCallNs(), "ns");
        out.set("sim.sched_ns", residualNs / n, "ns");
        out.set("trace.overhead", traced.sessionS / plain.sessionS,
                "ratio");
        out.detail["trace.wall_ms"] = wallNs / 1e6;
        out.detail["layer_ms.workload"] = next.totalNs / 1e6;
        out.detail["layer_ms.sim_residual"] = residualNs / 1e6;
        out.detail["serve.batch_overhead_us"] =
            (wallNs - next.totalNs - sl.journalWrite.totalNs - tenantNs) /
            batches / 1e3;
        out.detail["batch_samples"] = batches;
        return out;
    }

    std::vector<double> setup, simRate, replayRate;
    std::vector<std::vector<double>> rtt;
    std::uint64_t hits = 0, accesses = 0;
    const std::int64_t start = nowNs();
    for (int i = 0;; ++i) {
        SocketRep rep = runSocketRep(hdr, opt.seed, rounds, path, nullptr);
        if (i == 0) {
            out.digest = rep.digest;
            hits = rep.hits;
            accesses = rep.accesses;
        }
        checkSocketRep(rep, out.digest, out);
        if (!rep.ok) {
            break;
        }
        setup.push_back(rep.setupS);
        simRate.push_back(static_cast<double>(rep.accesses) / rep.sessionS);
        replayRate.push_back(static_cast<double>(rep.accesses) /
                             rep.replayS);
        rtt.push_back(std::move(rep.rttUs));
        if (i + 1 >= 3 && secondsBetween(start, nowNs()) >= opt.seconds) {
            break;
        }
    }
    std::remove(path.c_str());
    out.set("peak_rss_mb", peakRssMb(), "MB");
    out.setBest("sim_accesses_per_s", simRate, "1/s");
    out.setBest("sim_instrs_per_s", simRate, "1/s");
    out.setBest("replay_accesses_per_s", replayRate, "1/s");
    out.setBatchLatency(rtt);
    out.setMedian("setup_s", setup, "s");
    out.set("l2_miss_rate",
            accesses ? 1.0 - static_cast<double>(hits) /
                                 static_cast<double>(accesses)
                     : 0.0,
            "ratio");
    out.detail["reps"] = static_cast<double>(setup.size());
    return out;
}

} // namespace vbench
