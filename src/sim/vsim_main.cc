/**
 * @file
 * vsim: the command-line simulator driver.
 *
 * Runs one workload under one L2 configuration and prints per-core
 * and cache-level statistics. See cliUsage() (or `vsim --help`) for
 * the option grammar, and DESIGN.md for the mix classes.
 */

#include <cstdio>
#include <functional>
#include <memory>

#include "common/hp_alloc.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "core/vantage.h"
#include "obs/audit.h"
#include "obs/metrics_service.h"
#include "obs/qos.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "serve/tenant_sim.h"
#include "sim/cli.h"
#include "sim/heartbeat.h"
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
 * The observers every run mode shares: the --slo / --qos-out QoS
 * engine with its decision audit ring, the workload heartbeat, and
 * the registry behind --metrics-port. All only read the simulation.
 * Member order stops the metrics service before what it reads dies.
 */
struct ObsHarness
{
    using LineSink = std::function<void(const std::string &)>;

    std::unique_ptr<QosEngine> qos;
    std::unique_ptr<DecisionAudit> audit;
    DecisionAudit *recording = nullptr; ///< `audit`, on a flat L2.
    std::unique_ptr<QosStepper> stepper;
    std::unique_ptr<Heartbeat> heartbeat;
    StatsRegistry reg;
    std::unique_ptr<MetricsService> metrics;
    LineSink qosOut;

    // The QoS sink and the metrics thread hold its address.
    ObsHarness() = default;
    ObsHarness(const ObsHarness &) = delete;
    ObsHarness &operator=(const ObsHarness &) = delete;

    /** Writer of an append-mode JSON-lines file (closed with it). */
    static LineSink
    openLines(const std::string &path, const char *flag)
    {
        std::shared_ptr<FILE> f(std::fopen(path.c_str(), "a"),
                                [](FILE *p) { std::fclose(p); });
        if (!f) {
            fatal("cannot open %s file %s", flag, path.c_str());
        }
        return [f](const std::string &line) {
            std::fprintf(f.get(), "%s\n", line.c_str());
            std::fflush(f.get());
        };
    }

    /**
     * With --slo or --qos-out, step a QoS engine every --epoch
     * accesses of `sim` and record `l2`'s decisions; fill the
     * registry when QoS or --metrics-port reads it.
     */
    template <class Sim>
    void
    attach(const CliOptions &opts, Sim &sim, SharedL2 &l2)
    {
        if (!opts.sloSpec.empty() || !opts.qosOut.empty()) {
            QosConfig cfg;
            std::string error;
            if (!opts.sloSpec.empty() &&
                !parseSloSpec(opts.sloSpec, cfg, error)) {
                fatal("--slo: %s", error.c_str());
            }
            qos = std::make_unique<QosEngine>(cfg);
            audit = std::make_unique<DecisionAudit>();
            if (!opts.qosOut.empty()) {
                qosOut = openLines(opts.qosOut, "--qos-out");
            }
            qos->setSink([this](const QosEvent &ev) {
                if (qosOut) {
                    qosOut(qosEventJson(ev));
                } else {
                    std::fprintf(stderr, "vsim: qos %s\n",
                                 qosEventJson(ev).c_str());
                }
            });
        }
        if (qos || opts.metricsPort >= 0) {
            sim.registerLiveStats(reg);
        }
        if (qos) {
            qos->registerMetrics(reg, "vantage.slo");
            audit->registerMetrics(reg, "vantage.decision");
            stepper = std::make_unique<QosStepper>(*qos, reg);
            sim.addObserver(stepper.get(), opts.epochAccesses);
            recording = attachAudit(l2, audit.get()) ? audit.get()
                                                      : nullptr;
        }
    }

    /**
     * --heartbeat / --heartbeat-out (a file alone beats every 1M
     * accesses). After attach(): a beat due on a QoS epoch then
     * reports that epoch.
     */
    void
    attachHeartbeat(const CliOptions &opts, CmpSim &sim)
    {
        std::uint64_t every = opts.scale.heartbeatEvery;
        LineSink sink;
        if (!opts.heartbeatOut.empty()) {
            every = every != 0 ? every : 1'000'000;
            sink = openLines(opts.heartbeatOut, "--heartbeat-out");
        }
        heartbeat = std::make_unique<Heartbeat>(
            sim, opts.l2.name(), sink, qos.get(), recording);
        heartbeat->registerMetrics(reg);
        sim.addObserver(heartbeat.get(), every);
    }

    /** Serve the (complete) registry on --metrics-port as `job`. */
    void
    serveMetrics(const CliOptions &opts, const std::string &job)
    {
        if (opts.metricsPort < 0) {
            return;
        }
        metrics = std::make_unique<MetricsService>(MetricsServiceConfig{
            .port = static_cast<std::uint16_t>(opts.metricsPort),
            .epochMillis = opts.metricsPeriodMs});
        std::string error;
        if (!metrics->start(error)) {
            fatal("cannot start metrics service: %s", error.c_str());
        }
        metrics->addSource(job, &reg);
        std::fprintf(
            stderr,
            "vsim: metrics listening on http://127.0.0.1:%d/metrics\n",
            metrics->port());
    }

    /** Stop the metrics service; QoS summary and audit tail. */
    void
    finish()
    {
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
        if (qosOut) {
            for (const DecisionRecord &rec : audit->tail(64)) {
                qosOut(decisionJson(rec));
            }
        }
    }
};

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

/**
 * vsim --lifecycle N (the synthetic tenant-churn scenario) or
 * --serve PORT (the tenant daemon): one journaled TenantSim session.
 */
int
runTenants(const CliOptions &opts)
{
    JournalHeader hdr;
    hdr.spec = opts.l2;
    hdr.maxTenants = opts.maxTenants;
    hdr.epochAccesses = opts.epochAccesses;
    hdr.useUcp = opts.machine.useUcp;
    TenantSim sim(hdr);
    std::unique_ptr<JournalWriter> journal;
    if (!opts.serveJournal.empty()) {
        journal = std::make_unique<JournalWriter>(opts.serveJournal,
                                                  hdr);
    }
    ObsHarness obs;
    obs.attach(opts, sim, sim.l2());
    if (opts.lifecycleAccesses > 0) {
        const std::uint64_t digest = runLifecycleScenario(
            sim, hdr, opts.lifecycleAccesses, journal.get());
        journal.reset();
        obs.finish();
        printDigest(digest);
        return 0;
    }

    obs.serveMetrics(opts, "vsim-serve");
    ServeServer server(sim, journal.get(), obs.qos.get(),
                       obs.recording);
    std::string error;
    if (!server.start(static_cast<std::uint16_t>(opts.servePort),
                      error)) {
        fatal("serve: %s", error.c_str());
    }
    std::fprintf(stderr, "vsim: serving on 127.0.0.1:%u\n",
                 server.port());
    server.run();
    journal.reset();
    obs.finish();

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
    if (opts.lifecycleAccesses > 0 || opts.servePort >= 0) {
        return runTenants(opts);
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
    std::fprintf(stderr, "vsim: hugepages %s\n",
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

    // QoS, audit, heartbeat and the live endpoint. Observers fire in
    // registration order; the registry is complete before the
    // metrics sampler thread starts reading it.
    ObsHarness obs;
    obs.attach(opts, *sim, sim->sharedL2());
    obs.attachHeartbeat(opts, *sim);
    obs.serveMetrics(opts, "vsim/" + opts.l2.name());

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

    obs.finish();
    return 0;
}
