/**
 * @file
 * vsim: the command-line simulator driver.
 *
 * Runs one workload under one L2 configuration and prints per-core
 * and cache-level statistics. See cliUsage() (or `vsim --help`) for
 * the option grammar, and DESIGN.md for the mix classes.
 */

#include <cstdio>
#include <memory>

#include "common/hp_alloc.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "simd/simd.h"
#include "core/vantage.h"
#include "obs/audit.h"
#include "obs/metrics_service.h"
#include "obs/qos.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/tenant_sim.h"
#include "sim/cli.h"
#include "stats/registry.h"
#include "stats/table.h"
#include "stats/trace.h"
#include "trace/event_trace.h"
#include "workload/mixes.h"
#include "workload/profiles.h"
#include "workload/trace_stream.h"

using namespace vantage;

namespace {

/** Register run metadata, per-core results and L2 stats. */
void
buildRegistry(StatsRegistry &reg, const CliOptions &opts,
              const CmpSim &sim,
              const std::vector<std::string> &core_names)
{
    reg.addString("run.config", opts.l2.name());
    reg.addGauge("run.cores", [&opts] {
        return static_cast<double>(opts.machine.numCores);
    });
    reg.addGauge("run.l2_lines", [&opts] {
        return static_cast<double>(opts.l2.lines);
    });
    reg.addGauge("run.seed",
                 [&opts] { return static_cast<double>(opts.seed); });
    reg.addGauge("run.instructions", [&opts] {
        return static_cast<double>(opts.scale.instructions);
    });
    reg.addGauge("run.warmup_accesses", [&opts] {
        return static_cast<double>(opts.scale.warmupAccesses);
    });
    reg.addGauge("run.throughput",
                 [&sim] { return sim.throughput(); });
    for (std::uint32_t c = 0; c < opts.machine.numCores; ++c) {
        const std::string base = "core." + std::to_string(c);
        reg.addString(base + ".workload", core_names[c]);
        reg.addCounter(base + ".instructions", [&sim, c] {
            return sim.result(c).instructions;
        });
        reg.addCounter(base + ".cycles", [&sim, c] {
            return sim.result(c).cycles;
        });
        reg.addCounter(base + ".l2_accesses", [&sim, c] {
            return sim.result(c).l2Accesses;
        });
        reg.addCounter(base + ".l2_misses", [&sim, c] {
            return sim.result(c).l2Misses;
        });
        reg.addGauge(base + ".ipc",
                     [&sim, c] { return sim.result(c).ipc(); });
        reg.addGauge(base + ".mpki",
                     [&sim, c] { return sim.result(c).mpki(); });
    }
    sim.sharedL2().registerStats(reg, "cache.l2");
    reg.addHistogram("sim.realloc_gap_accesses",
                     &sim.reallocGapHistogram());
    if (TraceSession::instance().enabledAny()) {
        TraceSession::instance().registerStats(reg, "trace");
    }
}

/**
 * The --slo / --qos-out observability attachments, shared by the
 * workload, lifecycle and serve drivers: a QoS engine built from the
 * SLO spec, the decision audit ring it cross-references, and the
 * JSONL event sink. All observational — attached engines leave
 * digests bit-identical.
 */
struct QosHarness
{
    std::unique_ptr<QosEngine> qos;
    std::unique_ptr<DecisionAudit> audit;
    FILE *out = nullptr;

    ~QosHarness()
    {
        if (out != nullptr) {
            std::fclose(out);
        }
    }

    bool enabled() const { return qos != nullptr; }

    void
    build(const CliOptions &opts)
    {
        if (opts.sloSpec.empty() && opts.qosOut.empty()) {
            return;
        }
        QosConfig cfg;
        std::string error;
        if (!opts.sloSpec.empty() &&
            !parseSloSpec(opts.sloSpec, cfg, error)) {
            fatal("--slo: %s", error.c_str());
        }
        qos = std::make_unique<QosEngine>(cfg);
        audit = std::make_unique<DecisionAudit>();
        if (!opts.qosOut.empty()) {
            out = std::fopen(opts.qosOut.c_str(), "a");
            if (out == nullptr) {
                fatal("cannot open --qos-out file %s",
                      opts.qosOut.c_str());
            }
            qos->setSink([this](const QosEvent &ev) {
                std::fprintf(out, "%s\n", qosEventJson(ev).c_str());
                std::fflush(out);
            });
        } else {
            qos->setSink([](const QosEvent &ev) {
                std::fprintf(stderr, "vsim: qos %s\n",
                             qosEventJson(ev).c_str());
            });
        }
    }

    /** SLO violation + decision counters for the live endpoint. */
    void
    registerMetrics(StatsRegistry &reg)
    {
        if (qos) {
            qos->registerMetrics(reg, "vantage.slo");
            audit->registerMetrics(reg, "vantage.decision");
        }
    }

    /** End-of-run summary line and the audit tail to --qos-out. */
    void
    finish()
    {
        if (!qos) {
            return;
        }
        std::printf("qos: %llu violations raised (%zu active at "
                    "end) over %llu epochs; %llu controller "
                    "decisions recorded\n",
                    static_cast<unsigned long long>(
                        qos->violationsTotal()),
                    qos->active().size(),
                    static_cast<unsigned long long>(
                        qos->epochsSeen()),
                    static_cast<unsigned long long>(audit->total()));
        if (out != nullptr) {
            for (const DecisionRecord &rec : audit->tail(64)) {
                std::fprintf(out, "%s\n", decisionJson(rec).c_str());
            }
            std::fflush(out);
        }
    }
};

/** The --serve / --lifecycle configuration, from the CLI options. */
JournalHeader
serveHeader(const CliOptions &opts)
{
    JournalHeader hdr;
    hdr.spec = opts.l2;
    hdr.maxTenants = opts.maxTenants;
    hdr.epochAccesses = opts.epochAccesses;
    hdr.useUcp = opts.machine.useUcp;
    return hdr;
}

void
printDigest(std::uint64_t digest)
{
    std::printf("digest: 0x%016llx\n",
                static_cast<unsigned long long>(digest));
}

/** vsim --replay: re-execute a serve journal bit-identically. */
int
runReplay(const CliOptions &opts)
{
    JournalReader reader;
    std::string error;
    if (!reader.load(opts.replayPath, error)) {
        fatal("replay: %s", error.c_str());
    }
    std::fprintf(stderr, "vsim: replaying %zu events from %s\n",
                 reader.records().size(), opts.replayPath.c_str());
    printDigest(replayJournal(reader));
    return 0;
}

/** vsim --lifecycle N: the synthetic tenant-churn scenario. */
int
runLifecycle(const CliOptions &opts)
{
    const JournalHeader hdr = serveHeader(opts);
    std::unique_ptr<JournalWriter> journal;
    if (!opts.serveJournal.empty()) {
        journal = std::make_unique<JournalWriter>(opts.serveJournal,
                                                  hdr);
    }
    TenantSim sim(hdr);
    QosHarness qos;
    qos.build(opts);
    StatsRegistry qos_reg;
    if (qos.enabled()) {
        sim.registerLiveStats(qos_reg);
        qos.registerMetrics(qos_reg);
        sim.attachQos(qos.qos.get(), &qos_reg);
        sim.attachAudit(qos.audit.get());
    }
    const std::uint64_t digest = runLifecycleScenario(
        sim, hdr, opts.lifecycleAccesses, journal.get());
    journal.reset();
    qos.finish();
    printDigest(digest);
    return 0;
}

/** vsim --serve: the tenant daemon. */
int
runServe(const CliOptions &opts)
{
    const JournalHeader hdr = serveHeader(opts);
    TenantSim sim(hdr);
    std::unique_ptr<JournalWriter> journal;
    if (!opts.serveJournal.empty()) {
        journal = std::make_unique<JournalWriter>(opts.serveJournal,
                                                  hdr);
    }

    // QoS / audit and the live Prometheus endpoint share one
    // registry. The registry must be fully built before the metrics
    // sampler thread starts, and the service is stopped before the
    // sim is torn down.
    QosHarness qos;
    qos.build(opts);
    StatsRegistry live_reg;
    if (qos.enabled() || opts.metricsPort >= 0) {
        sim.registerLiveStats(live_reg);
        qos.registerMetrics(live_reg);
    }
    if (qos.enabled()) {
        sim.attachQos(qos.qos.get(), &live_reg);
        sim.attachAudit(qos.audit.get());
    }
    std::unique_ptr<MetricsService> metrics;
    if (opts.metricsPort >= 0) {
        MetricsServiceConfig mcfg;
        mcfg.port = static_cast<std::uint16_t>(opts.metricsPort);
        mcfg.epochMillis = opts.metricsPeriodMs;
        metrics = std::make_unique<MetricsService>(mcfg);
        std::string merror;
        if (!metrics->start(merror)) {
            fatal("cannot start metrics service: %s",
                  merror.c_str());
        }
        metrics->addSource("vsim-serve", &live_reg);
        std::fprintf(
            stderr,
            "vsim: metrics listening on http://127.0.0.1:%d/metrics\n",
            metrics->port());
    }

    ServeServer server(sim, journal.get());
    std::string error;
    if (!server.start(static_cast<std::uint16_t>(opts.servePort),
                      error)) {
        fatal("serve: %s", error.c_str());
    }
    std::fprintf(stderr, "vsim: serving on 127.0.0.1:%u\n",
                 server.port());
    server.run();
    journal.reset();
    if (metrics) {
        std::fprintf(stderr,
                     "vsim: metrics served %llu scrapes over %llu "
                     "epochs\n",
                     static_cast<unsigned long long>(
                         metrics->scrapes()),
                     static_cast<unsigned long long>(
                         metrics->epochs()));
        metrics->stop();
    }

    InvariantReport rep;
    sim.checkInvariants(rep);
    if (!rep.ok()) {
        fatal("serve: invariants violated at shutdown:\n%s",
              rep.summary().c_str());
    }
    std::fprintf(stderr,
                 "vsim: served %llu frames, %llu accesses\n",
                 static_cast<unsigned long long>(
                     server.framesProcessed()),
                 static_cast<unsigned long long>(sim.accesses()));
    qos.finish();
    printDigest(sim.finishDigest());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string error;
    CliOptions opts = parseCli(args, error);
    if (opts.showHelp) {
        std::fputs(cliUsage().c_str(), stdout);
        return 0;
    }
    if (!error.empty()) {
        std::fprintf(stderr, "vsim: %s\n%s", error.c_str(),
                     cliUsage().c_str());
        return 1;
    }

    // Serve / replay / lifecycle bypass the workload machinery
    // entirely: the event stream (live, journaled, or synthetic) is
    // the workload.
    if (!opts.replayPath.empty()) {
        return runReplay(opts);
    }
    if (opts.lifecycleAccesses > 0) {
        return runLifecycle(opts);
    }
    if (opts.servePort >= 0) {
        return runServe(opts);
    }

    // Arm event tracing before any instrumented code runs.
    if (!opts.eventsOut.empty()) {
        TraceSession &session = TraceSession::instance();
        session.enable(opts.traceCategories);
        session.setProcessName("vsim");
        traceSetThreadName("main");
    }

    // Build the per-core workload. The shared L2 is flat by default
    // or banked under --banks.
    auto build_shared_l2 = [&opts]() -> std::unique_ptr<SharedL2> {
        if (opts.banks > 0) {
            return buildBankedL2(opts.l2, opts.banks);
        }
        return std::make_unique<MonoL2>(buildL2(opts.l2));
    };
    std::vector<std::string> core_names;
    std::unique_ptr<CmpSim> sim;
    if (!opts.traces.empty()) {
        std::vector<std::unique_ptr<AccessStream>> streams;
        for (const auto &path : opts.traces) {
            streams.push_back(std::make_unique<TraceStream>(
                TraceStream::fromFile(path)));
            core_names.push_back(path);
        }
        sim = std::make_unique<CmpSim>(opts.machine,
                                       std::move(streams),
                                       build_shared_l2());
    } else {
        std::vector<AppSpec> apps;
        if (opts.mix) {
            const std::uint32_t per_slot = opts.machine.numCores / 4;
            apps = makeMix(opts.mix->first, per_slot,
                           opts.mix->second);
        } else {
            for (const auto &name : opts.apps) {
                apps.push_back(appByName(name));
            }
        }
        for (const auto &app : apps) {
            core_names.push_back(app.name);
        }
        sim = std::make_unique<CmpSim>(opts.machine, apps,
                                       build_shared_l2(), opts.seed);
    }

    std::fprintf(stderr,
                 "vsim: %u cores, %s, %llu L2 lines, %llu warmup + "
                 "%llu measured instrs/core\n",
                 opts.machine.numCores, opts.l2.name().c_str(),
                 static_cast<unsigned long long>(opts.l2.lines),
                 static_cast<unsigned long long>(
                     opts.scale.warmupAccesses),
                 static_cast<unsigned long long>(
                     opts.scale.instructions));
    std::fprintf(stderr, "vsim: simd %s kernels, hugepages %s\n",
                 simd::levelName(),
                 hugePagesEnabled() ? "on" : "off");
    if (opts.banks > 0) {
        std::fprintf(stderr, "vsim: %u banks of %llu lines\n",
                     opts.banks,
                     static_cast<unsigned long long>(opts.l2.lines /
                                                     opts.banks));
    }

    // Controller trace (--trace-out): samples the measured phase.
    // Banked L2s have one controller per bank, so there is no single
    // controller to trace.
    ControllerTrace trace(opts.scale.statsPeriod);
    VantageController *vctl = nullptr;
    if (Cache *mono = sim->sharedL2().monoCache()) {
        vctl = dynamic_cast<VantageController *>(&mono->scheme());
    }
    if (!opts.traceOut.empty() && vctl == nullptr) {
        fatal("--trace-out requires a vantage scheme on a flat "
              "(non-banked) L2, got %s%s",
              opts.l2.name().c_str(),
              opts.banks > 0 ? " with --banks" : "");
    }

    // The digest covers warmup too: array state after warmup feeds
    // into every measured outcome, so folding from the first access
    // catches divergence as early as possible.
    AccessDigest digest;
    if (opts.digest) {
        sim->sharedL2().attachDigest(&digest);
    }

    // Per-partition histograms ride along with --stats-out and the
    // live endpoint (they are observational, but skipping the adds
    // keeps the default path untouched).
    if (!opts.statsOut.empty() || opts.metricsPort >= 0) {
        sim->sharedL2().enableHistograms();
    }

    // Heartbeats: --heartbeat-out routes the records to a file and
    // implies a default cadence when --heartbeat was not given.
    FILE *heartbeat_file = nullptr;
    std::uint64_t heartbeat_every = opts.scale.heartbeatEvery;
    if (!opts.heartbeatOut.empty() && heartbeat_every == 0) {
        heartbeat_every = 1'000'000;
    }
    if (heartbeat_every != 0) {
        sim->setHeartbeat(heartbeat_every, opts.l2.name());
        if (!opts.heartbeatOut.empty()) {
            heartbeat_file = std::fopen(opts.heartbeatOut.c_str(),
                                        "a");
            if (heartbeat_file == nullptr) {
                fatal("cannot open --heartbeat-out file %s",
                      opts.heartbeatOut.c_str());
            }
            sim->setHeartbeatSink(
                [heartbeat_file](const std::string &line) {
                    std::fprintf(heartbeat_file, "%s\n",
                                 line.c_str());
                    std::fflush(heartbeat_file);
                });
        }
    }

    // QoS engine + decision audit (--slo / --qos-out): evaluated
    // every --epoch accesses over the live-introspection registry.
    // Live metrics endpoint (--metrics-port). The registry must be
    // fully built before the service's sampler thread starts, and
    // both must be torn down before the sim (declaration order
    // handles the service; it stops its threads in the destructor).
    QosHarness qos;
    qos.build(opts);
    StatsRegistry live_reg;
    if (opts.metricsPort >= 0 || qos.enabled()) {
        sim->registerLiveStats(live_reg);
        qos.registerMetrics(live_reg);
    }
    if (qos.enabled()) {
        sim->attachQos(qos.qos.get(), &live_reg, opts.epochAccesses);
        sim->attachAudit(qos.audit.get());
    }
    std::unique_ptr<MetricsService> metrics;
    if (opts.metricsPort >= 0) {
        MetricsServiceConfig mcfg;
        mcfg.port = static_cast<std::uint16_t>(opts.metricsPort);
        mcfg.epochMillis = opts.metricsPeriodMs;
        metrics = std::make_unique<MetricsService>(mcfg);
        std::string merror;
        if (!metrics->start(merror)) {
            fatal("cannot start metrics service: %s",
                  merror.c_str());
        }
        metrics->addSource("vsim/" + opts.l2.name(), &live_reg);
        std::fprintf(
            stderr,
            "vsim: metrics listening on http://127.0.0.1:%d/metrics\n",
            metrics->port());
    }

    {
        // When tracing, run the sim phases as pool jobs on a
        // one-worker pool so the timeline shows the same
        // pool.job/worker structure the suite runner produces. The
        // pool is scoped: its destructor joins the worker before the
        // trace is exported, guaranteeing writer quiescence.
        std::unique_ptr<ThreadPool> pool;
        if (TraceSession::instance().enabledAny()) {
            pool = std::make_unique<ThreadPool>(1);
        }
        auto run_phase = [&pool](const char *name, auto &&fn) {
            if (pool) {
                pool->submit([&fn, name] {
                        TraceSpan span(kTraceSim, name);
                        fn();
                    })
                    .get();
            } else {
                fn();
            }
        };
        run_phase("sim.warmup", [&] {
            sim->warmup(opts.scale.warmupAccesses);
        });
        sim->sharedL2().resetStats();
        if (!opts.traceOut.empty()) {
            vctl->attachTrace(&trace);
        }
        run_phase("sim.run",
                  [&] { sim->run(opts.scale.instructions); });
    }

    TablePrinter table({"core", "workload", "IPC", "L2 accesses",
                        "L2 misses", "L2 MPKI"});
    for (std::uint32_t c = 0; c < opts.machine.numCores; ++c) {
        const CoreResult &r = sim->result(c);
        table.addRow({std::to_string(c), core_names[c],
                      TablePrinter::fmt(r.ipc(), 3),
                      std::to_string(r.l2Accesses),
                      std::to_string(r.l2Misses),
                      TablePrinter::fmt(r.mpki(), 2)});
    }
    table.print();
    std::printf("throughput (sum of IPCs): %.3f\n",
                sim->throughput());
    std::printf("L2 writebacks: %llu\n",
                static_cast<unsigned long long>(
                    sim->sharedL2().writebacks()));
    if (opts.digest) {
        // Banked digests fold their per-bank streams into the
        // external digest bank-major; a no-op for flat caches.
        sim->sharedL2().finalizeDigest();
        std::printf("digest: 0x%016llx\n",
                    static_cast<unsigned long long>(digest.value()));
    }

    // Observability exports.
    if (!opts.statsOut.empty()) {
        StatsRegistry reg;
        buildRegistry(reg, opts, *sim, core_names);
        reg.writeJsonFile(opts.statsOut);
        std::fprintf(stderr, "vsim: stats written to %s\n",
                     opts.statsOut.c_str());
    }
    if (!opts.traceOut.empty()) {
        trace.writeCsvFile(opts.traceOut);
        std::fprintf(stderr,
                     "vsim: trace written to %s (%zu samples)\n",
                     opts.traceOut.c_str(), trace.samples().size());
    }
    if (!opts.eventsOut.empty()) {
        TraceSession &session = TraceSession::instance();
        if (session.writeJsonFile(opts.eventsOut)) {
            std::fprintf(
                stderr,
                "vsim: events written to %s (%llu recorded, %llu "
                "dropped)\n",
                opts.eventsOut.c_str(),
                static_cast<unsigned long long>(session.recorded()),
                static_cast<unsigned long long>(session.dropped()));
        } else {
            std::fprintf(stderr,
                         "vsim: failed to write events to %s\n",
                         opts.eventsOut.c_str());
            return 1;
        }
    }

    // Partition detail where the scheme has meaningful sizes.
    if (opts.l2.scheme != SchemeKind::UnpartLru &&
        opts.l2.scheme != SchemeKind::UnpartSrrip &&
        opts.l2.scheme != SchemeKind::UnpartDrrip &&
        opts.l2.scheme != SchemeKind::UnpartTaDrrip) {
        TablePrinter parts({"partition", "target", "actual"});
        for (PartId p = 0; p < opts.machine.numCores; ++p) {
            parts.addRow(
                {std::to_string(p),
                 std::to_string(sim->sharedL2().targetSize(p)),
                 std::to_string(sim->sharedL2().actualSize(p))});
        }
        parts.print();
        if (VantageController *v = vctl) {
            const VantageStats &vs = v->stats();
            std::printf("vantage: %llu demotions, %llu promotions, "
                        "%.2e forced managed evictions, unmanaged "
                        "size %llu\n",
                        static_cast<unsigned long long>(vs.demotions),
                        static_cast<unsigned long long>(
                            vs.promotions),
                        vs.evictions
                            ? static_cast<double>(
                                  vs.evictionsFromManaged) /
                                  static_cast<double>(vs.evictions)
                            : 0.0,
                        static_cast<unsigned long long>(
                            v->unmanagedSize()));
        }
    }

    qos.finish();
    if (metrics) {
        std::fprintf(stderr,
                     "vsim: metrics served %llu scrapes over %llu "
                     "epochs\n",
                     static_cast<unsigned long long>(
                         metrics->scrapes()),
                     static_cast<unsigned long long>(
                         metrics->epochs()));
        metrics->stop();
    }
    if (heartbeat_file != nullptr) {
        std::fclose(heartbeat_file);
    }
    return 0;
}
