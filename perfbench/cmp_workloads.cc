/**
 * @file
 * cmp32_fig7: the paper's 32-core machine running a multiprogrammed
 * mix on a Vantage Z4/52 L2 with UCP, driven through CmpSim's public
 * constructors exactly as vsim builds them.
 */

#include <memory>

#include "alloc/ucp.h"
#include "common/check.h"
#include "replay.h"
#include "sim/cmp_sim.h"
#include "sim/experiment.h"
#include "workload/mixes.h"
#include "workloads.h"

namespace vbench {

using namespace vantage;

namespace {

/** The cmp workload: machine, L2, mix and the size of one rep. */
struct CmpSetup
{
    CmpConfig cfg;
    L2Spec spec;
    std::vector<AppSpec> apps;
    std::uint64_t simSeed = 1;
    std::uint64_t warmup = 0;       ///< Accesses per core.
    std::uint64_t instructions = 0; ///< Measured, per core.
};

/**
 * The Fig. 7 machine: 32 cores, an 8 MB Z4/52 Vantage L2 with 32
 * partitions, mix class 23 with 8 apps per category slot, UCP on.
 */
CmpSetup
makeSetup(const RunOptions &opt)
{
    CmpSetup s;
    s.cfg = CmpConfig::large32Core();
    s.warmup = opt.selftest ? 1'000 : 10'000;
    s.instructions = opt.selftest ? 10'000 : 50'000;
    s.spec.array = ArrayKind::Z4_52;
    s.spec.scheme = SchemeKind::Vantage;
    s.spec.lines = s.cfg.l2Lines();
    s.spec.numPartitions = s.cfg.numCores;
    s.spec.seed = opt.seed + 0x5ec; // As vsim --seed derives it.
    // The mix (which apps run) is fixed, so every seed runs the same
    // kind of work; the seed varies the apps' address streams and the
    // L2's hash functions.
    s.apps = makeMix(23, 8, 0);
    s.simSeed = opt.seed;
    return s;
}

/** What one rep measured. */
struct Rep
{
    double setupS = 0.0;
    double warmupS = 0.0;
    double runS = 0.0;
    std::uint64_t l2Accesses = 0; ///< Measured phase.
    std::uint64_t l2Misses = 0;   ///< Measured phase.
    std::uint64_t instructions = 0;
    double ipcSum = 0.0;
    std::uint64_t digest = 0;
    bool invariantsOk = false;
    std::string invariantReport;
};

/** Recorders for a traced rep; null members leave that seam alone. */
struct Recorders
{
    std::vector<std::vector<MemRef>> *refs = nullptr;
    L2Recording *l2 = nullptr;
};

/**
 * The per-core streams CmpSim(cfg, apps, l2, seed) would build
 * itself (seed * 7919 + core), so a recorded rep runs the same
 * references as a plain one.
 */
std::vector<std::unique_ptr<AccessStream>>
makeStreams(const CmpSetup &s)
{
    std::vector<std::unique_ptr<AccessStream>> streams;
    for (std::uint32_t c = 0; c < s.cfg.numCores; ++c) {
        streams.push_back(std::make_unique<AppModel>(
            s.apps[c], c, s.simSeed * 7919 + c));
    }
    return streams;
}

Rep
runRep(const CmpSetup &s, const Recorders &recorders)
{
    Rep rep;
    AccessDigest digest;

    const std::int64_t t0 = nowNs();
    std::unique_ptr<SharedL2> l2 = std::make_unique<MonoL2>(buildL2(s.spec));
    std::unique_ptr<CmpSim> sim;
    if (recorders.l2 == nullptr) {
        sim = std::make_unique<CmpSim>(s.cfg, s.apps, std::move(l2),
                                       s.simSeed);
    } else {
        // Only a traced rep (one that also records references) times
        // each L2 access in place.
        l2 = std::make_unique<RecordingL2>(std::move(l2), *recorders.l2,
                                           recorders.refs != nullptr);
        std::vector<std::unique_ptr<AccessStream>> streams =
            makeStreams(s);
        for (std::uint32_t c = 0;
             recorders.refs != nullptr && c < s.cfg.numCores; ++c) {
            streams[c] = std::make_unique<RecordingStream>(
                std::move(streams[c]), (*recorders.refs)[c]);
        }
        sim = std::make_unique<CmpSim>(s.cfg, std::move(streams),
                                       std::move(l2));
    }
    const std::int64_t t1 = nowNs();
    rep.setupS = static_cast<double>(t1 - t0) / 1e9;

    // As vsim --digest: the digest covers warmup too.
    sim->sharedL2().attachDigest(&digest);
    sim->warmup(s.warmup);
    const std::int64_t t2 = nowNs();
    sim->sharedL2().resetStats();
    sim->run(s.instructions);
    const std::int64_t t3 = nowNs();
    rep.warmupS = static_cast<double>(t2 - t1) / 1e9;
    rep.runS = static_cast<double>(t3 - t2) / 1e9;

    const CacheAccessStats st = sim->sharedL2().totalStats();
    rep.l2Accesses = st.accesses();
    rep.l2Misses = st.misses;
    for (std::uint32_t c = 0; c < s.cfg.numCores; ++c) {
        rep.instructions += sim->result(c).instructions;
    }
    rep.ipcSum = sim->throughput();
    sim->sharedL2().finalizeDigest();
    rep.digest = digest.value();

    InvariantReport inv;
    sim->sharedL2().checkInvariants(inv);
    if (sim->ucp() != nullptr) {
        sim->ucp()->checkInvariants(inv);
    }
    rep.invariantsOk = inv.ok();
    rep.invariantReport = inv.ok() ? "" : inv.summary();
    return rep;
}

void
checkRep(const Rep &rep, std::uint64_t digest, RunResult &out)
{
    out.check(rep.digest == digest,
              "rep digest differs from the first rep's");
    out.check(rep.invariantsOk,
              "checkInvariants failed: " + rep.invariantReport);
}

/**
 * Untimed run. One plain rep fixes the digest and the simulation's
 * peak memory; one recorded rep captures the SharedL2 stream. Then,
 * until the time is up, each iteration runs a plain rep (simulation
 * rates) and re-executes the recording through a fresh L2 (replay
 * rate, record/replay parity), so every metric samples the whole run.
 */
RunResult
runUntimed(const CmpSetup &s, const RunOptions &opt)
{
    RunResult out;
    const std::int64_t start = nowNs();
    const Rep first = runRep(s, Recorders{});
    out.digest = first.digest;
    // Read before the recording below grows the process.
    out.set("peak_rss_mb", peakRssMb(), "MB");

    L2Recording rec;
    const Rep recorded = runRep(s, Recorders{nullptr, &rec});
    out.check(recorded.digest == out.digest,
              "recorded rep digest differs from the plain reps'");

    std::vector<double> setup, accRate, instrRate, replayRate;
    for (int i = 0;; ++i) {
        const Rep rep = i == 0 ? first : runRep(s, Recorders{});
        checkRep(rep, out.digest, out);
        setup.push_back(rep.setupS);
        accRate.push_back(static_cast<double>(rep.l2Accesses) / rep.runS);
        instrRate.push_back(static_cast<double>(rep.instructions) /
                            rep.runS);

        MonoL2 fresh(buildL2(s.spec));
        const WholeReplay wr = replayWhole(fresh, rec);
        out.check(wr.digest == out.digest,
                  "SharedL2 replay digest differs from the run's");
        replayRate.push_back(static_cast<double>(rec.accesses) /
                             wr.seconds);

        const double elapsed = static_cast<double>(nowNs() - start) / 1e9;
        if (i + 1 >= 3 && elapsed >= opt.seconds) {
            break;
        }
    }

    out.setBest("sim_accesses_per_s", accRate, "1/s");
    out.setBest("sim_instrs_per_s", instrRate, "1/s");
    out.setBest("replay_accesses_per_s", replayRate, "1/s");
    out.setMedian("setup_s", setup, "s");
    out.set("l2_miss_rate",
            static_cast<double>(first.l2Misses) /
                static_cast<double>(first.l2Accesses),
            "ratio");
    out.detail["reps"] = static_cast<double>(setup.size());
    out.detail["sim_ipc_sum"] = first.ipcSum;
    out.detail["l2_accesses_per_rep"] =
        static_cast<double>(first.l2Accesses);
    out.detail["instructions_per_rep"] =
        static_cast<double>(first.instructions);
    return out;
}

/** Traced run: one plain rep, one recorded rep, then layer replays. */
RunResult
runTraced(const CmpSetup &s)
{
    RunResult out;
    const Rep plain = runRep(s, Recorders{});
    out.digest = plain.digest;
    checkRep(plain, out.digest, out);

    std::vector<std::vector<MemRef>> refs(s.cfg.numCores);
    L2Recording rec;
    const Rep traced = runRep(s, Recorders{&refs, &rec});
    checkRep(traced, out.digest, out); // Decorators observe only.

    std::uint64_t references = 0;
    for (const auto &r : refs) {
        references += r.size();
    }

    std::vector<std::unique_ptr<AccessStream>> streams = makeStreams(s);
    const LayerTimer next = replayStreams(streams, refs, out);
    const L1Replay l1 = replayL1(s.cfg, refs, rec, out);
    MonoL2 fresh(buildL2(s.spec));
    const ComponentTimes ct = replayComponents(fresh, rec, out);
    Ucp ucp(s.cfg.numCores, s.cfg.ucp);
    const UcpTimes ut =
        replayUcp(ucp, ucpLogFromCmp(rec, fresh.allocationQuantum()), out);

    // The traced rep's wall time, less the recorder's own timer reads
    // (two per L2 access), is what the layers must add up to.
    const double wallNs =
        (traced.warmupS + traced.runS) * 1e9 -
        2.0 * timerSelfCostTicks() * nsPerTick() *
            static_cast<double>(rec.inSitu.calls);
    const double plainNs = (plain.warmupS + plain.runS) * 1e9;
    const double layersNs = next.totalNs + l1.access.totalNs +
                            ct.totalNs() + ut.observe.totalNs +
                            ut.repartition.totalNs;
    const double residualNs = wallNs - layersNs;

    reportComponentMetrics(ct, rec, out);
    out.set("l2.access_ns", rec.inSitu.perCallNs(), "ns");
    out.set("l1.access_ns", l1.access.perCallNs(), "ns");
    out.set("l1.hit_rate",
            static_cast<double>(l1.hits) / static_cast<double>(references),
            "ratio");
    out.set("workload.next_ns", next.perCallNs(), "ns");
    out.set("sim.sched_ns", residualNs / static_cast<double>(references),
            "ns");
    out.set("alloc.observe_ns", ut.observe.perCallNs(), "ns");
    out.set("alloc.repartition_us", ut.repartition.perCallNs() / 1e3,
            "us");
    out.set("alloc.repartitions",
            static_cast<double>(ut.repartition.calls), "count");
    // CmpSim has no serve layer: reported as 0, not applicable.
    out.set("serve.journal_write_ns", 0.0, "ns");
    out.set("serve.journal_load_ns", 0.0, "ns");
    out.set("serve.lifecycle_events", 0.0, "count");
    out.set("trace.overhead", wallNs / plainNs, "ratio");

    out.detail["trace.wall_ms"] = wallNs / 1e6;
    out.detail["trace.untimed_ms"] = plainNs / 1e6;
    out.detail["layer_ms.workload"] = next.totalNs / 1e6;
    out.detail["layer_ms.l1"] = l1.access.totalNs / 1e6;
    out.detail["layer_ms.l2_components"] = ct.totalNs() / 1e6;
    out.detail["layer_ms.alloc"] =
        (ut.observe.totalNs + ut.repartition.totalNs) / 1e6;
    out.detail["layer_ms.sim_residual"] = residualNs / 1e6;
    out.detail["references"] = static_cast<double>(references);
    out.detail["sim_ipc_sum"] = plain.ipcSum;
    return out;
}

} // namespace

RunResult
runCmp32(const RunOptions &opt)
{
    const CmpSetup s = makeSetup(opt);
    return opt.trace ? runTraced(s) : runUntimed(s, opt);
}

} // namespace vbench
