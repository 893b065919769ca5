#include "suite.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#include "common/log.h"
#include "common/thread_pool.h"
#include "obs/metrics_service.h"
#include "stats/json.h"
#include "stats/table.h"
#include "trace/event_trace.h"
#include "workload/mixes.h"

namespace vantage {
namespace bench {

namespace {

/**
 * Concurrency-safe progress reporting: an atomic done-counter plus
 * whole-line, mutex-guarded writes, so lines from parallel jobs
 * never interleave. On a tty the current line is rewritten in
 * place; on a pipe/file each completion is a plain line.
 */
class SuiteProgress
{
  public:
    explicit SuiteProgress(std::size_t total)
        : total_(total), tty_(isatty(fileno(stderr)) != 0)
    {
    }

    /** Report one finished mix. */
    void
    done(const std::string &name)
    {
        const std::uint64_t n =
            done_.fetch_add(1, std::memory_order_relaxed) + 1;
        std::lock_guard<std::mutex> lock(mutex_);
        lastDone_ = n;
        lastName_ = name;
        if (tty_) {
            drawProgressLocked();
            if (n >= total_) {
                std::fputc('\n', stderr);
            }
        } else {
            std::fprintf(stderr, "[%llu/%zu] %s\n",
                         static_cast<unsigned long long>(n), total_,
                         name.c_str());
        }
        std::fflush(stderr);
    }

    /**
     * Emit one full line (e.g. a job's heartbeat record) without
     * corrupting the progress display: on a tty the in-place
     * progress line is cleared first and redrawn after, and the
     * shared mutex keeps lines from parallel jobs whole.
     */
    void
    line(const std::string &text)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (tty_) {
            std::fprintf(stderr, "\r\x1b[K%s\n", text.c_str());
            drawProgressLocked();
        } else {
            std::fprintf(stderr, "%s\n", text.c_str());
        }
        std::fflush(stderr);
    }

  private:
    /** Redraw the current [n/total] line; requires mutex_ held. */
    void
    drawProgressLocked()
    {
        if (lastDone_ == 0) {
            return;
        }
        // \x1b[K clears leftovers of a longer previous name.
        std::fprintf(stderr, "\r[%llu/%zu] %s\x1b[K",
                     static_cast<unsigned long long>(lastDone_),
                     total_, lastName_.c_str());
    }

    std::size_t total_;
    bool tty_;
    std::atomic<std::uint64_t> done_{0};
    std::mutex mutex_;
    std::uint64_t lastDone_ = 0;   ///< Guarded by mutex_.
    std::string lastName_;         ///< Guarded by mutex_.
};

} // namespace

SuiteOptions
SuiteOptions::fromEnv(const CmpConfig &machine,
                      std::uint32_t cores_per_slot,
                      const RunScale &defaults,
                      std::uint32_t default_stride)
{
    SuiteOptions opts;
    opts.machine = machine;
    opts.coresPerSlot = cores_per_slot;
    opts.scale = defaults;
    if (const char *s = std::getenv("VANTAGE_WARMUP")) {
        opts.scale.warmupAccesses = std::strtoull(s, nullptr, 10);
    }
    if (const char *s = std::getenv("VANTAGE_INSTRS")) {
        opts.scale.instructions = std::strtoull(s, nullptr, 10);
    }
    if (const char *s = std::getenv("VANTAGE_MIX_SEEDS")) {
        opts.scale.mixSeedsPerClass = static_cast<std::uint32_t>(
            std::strtoul(s, nullptr, 10));
    }
    opts.classStride = default_stride;
    if (const char *s = std::getenv("VANTAGE_CLASS_STRIDE")) {
        opts.classStride = std::max(1u, static_cast<std::uint32_t>(
                                            std::strtoul(s, nullptr,
                                                         10)));
    }
    return opts;
}

std::vector<MixRow>
runSuite(const SuiteOptions &opts, const L2Spec &baseline,
         const std::vector<L2Spec> &configs)
{
    // Enumerate the (class, seed) jobs up front, in class order:
    // each is a fully independent simulation, and collecting results
    // by job index keeps the output order — and the bits — identical
    // to a serial run no matter how jobs are scheduled.
    struct MixJob
    {
        std::uint32_t cls;
        std::uint32_t seed;
    };
    std::vector<MixJob> jobs;
    const std::uint32_t num_classes =
        static_cast<std::uint32_t>(allMixClasses().size());
    for (std::uint32_t cls = 0; cls < num_classes;
         cls += opts.classStride) {
        for (std::uint32_t seed = 0;
             seed < opts.scale.mixSeedsPerClass; ++seed) {
            jobs.push_back({cls, seed});
        }
    }

    // Optional suite timeline: $VANTAGE_EVENTS_OUT arms the trace
    // session (observational; results stay bit-identical).
    TraceSession &session = TraceSession::instance();
    std::string events_out;
    if (const char *p = std::getenv("VANTAGE_EVENTS_OUT")) {
        if (*p != '\0') {
            events_out = p;
            std::uint32_t mask = kTraceAllCategories;
            if (const char *c =
                    std::getenv("VANTAGE_TRACE_CATEGORIES")) {
                std::string err;
                mask = TraceSession::parseCategories(c, err);
                if (!err.empty()) {
                    warn("VANTAGE_TRACE_CATEGORIES: %s", err.c_str());
                    mask = kTraceAllCategories;
                }
            }
            session.enable(mask);
            session.setProcessName("bench-suite");
            traceSetThreadName("main");
        }
    }

    std::vector<MixRow> rows(jobs.size());
    SuiteProgress progress(jobs.size());

    // Optional live metrics endpoint: $VANTAGE_METRICS_PORT starts
    // one service for the whole suite; every in-flight mix registers
    // under its own job label. Observational only.
    std::unique_ptr<MetricsService> metrics;
    if (const char *p = std::getenv("VANTAGE_METRICS_PORT")) {
        if (*p != '\0') {
            MetricsServiceConfig mcfg;
            mcfg.port = static_cast<std::uint16_t>(
                std::strtoul(p, nullptr, 10));
            if (const char *ms =
                    std::getenv("VANTAGE_METRICS_PERIOD_MS")) {
                const auto v = std::strtoull(ms, nullptr, 10);
                if (v != 0) {
                    mcfg.epochMillis = v;
                }
            }
            metrics = std::make_unique<MetricsService>(mcfg);
            std::string merror;
            if (!metrics->start(merror)) {
                warn("cannot start metrics service: %s",
                     merror.c_str());
                metrics.reset();
            } else {
                std::fprintf(stderr,
                             "bench: metrics listening on "
                             "http://127.0.0.1:%d/metrics\n",
                             metrics->port());
            }
        }
    }

    const unsigned workers =
        ThreadPool::resolveJobs(opts.scale.jobs);
    {
        // One worker degenerates to inline serial execution (no
        // threads). The scope joins the pool before the trace export
        // below, so every trace writer is quiescent.
        ThreadPool pool(workers > 1 ? workers : 0);
        pool.parallelFor(jobs.size(), [&](std::size_t i) {
            const MixJob &job = jobs[i];
            const auto apps = makeMix(job.cls, opts.coresPerSlot,
                                      job.seed);
            const std::string name = mixName(job.cls, job.seed);
            // Span names must outlive the event buffer; intern when
            // tracing, else use a throwaway constant.
            TraceSpan mix_span(kTraceSuite,
                               session.enabledAny()
                                   ? session.intern(name)
                                   : "mix");

            // Heartbeats route through the progress display (whole
            // lines under one mutex), so `--jobs > 1` output never
            // interleaves mid-record; each in-flight config exposes
            // its live stats under a distinct job label.
            MixHooks hooks;
            hooks.heartbeatSink = [&progress](
                                      const std::string &text) {
                progress.line(text);
            };
            hooks.metrics = metrics.get();

            MixRow row;
            row.mix = name;
            hooks.job = name + "/" + baseline.name();
            const MixResult base = runMix(opts.machine, baseline,
                                          apps, opts.scale, name,
                                          job.seed + 1, hooks);
            row.baseline = base.throughput;
            for (const auto &spec : configs) {
                hooks.job = name + "/" + spec.name();
                const MixResult r = runMix(opts.machine, spec, apps,
                                           opts.scale, name,
                                           job.seed + 1, hooks);
                row.normalized.push_back(base.throughput > 0.0
                                             ? r.throughput /
                                                   base.throughput
                                             : 0.0);
            }
            rows[i] = std::move(row);
            progress.done(name);
        });
    }
    if (!events_out.empty()) {
        if (session.writeJsonFile(events_out)) {
            std::fprintf(
                stderr,
                "bench: events written to %s (%llu recorded, %llu "
                "dropped)\n",
                events_out.c_str(),
                static_cast<unsigned long long>(session.recorded()),
                static_cast<unsigned long long>(session.dropped()));
        } else {
            warn("cannot write events to '%s'", events_out.c_str());
        }
    }
    return rows;
}

double
geomean(const std::vector<MixRow> &rows, std::size_t idx)
{
    if (rows.empty()) return 0.0;
    double acc = 0.0;
    for (const auto &row : rows) {
        acc += std::log(row.normalized[idx]);
    }
    return std::exp(acc / static_cast<double>(rows.size()));
}

double
fractionImproved(const std::vector<MixRow> &rows, std::size_t idx)
{
    if (rows.empty()) return 0.0;
    std::size_t up = 0;
    for (const auto &row : rows) {
        if (row.normalized[idx] > 1.0) ++up;
    }
    return static_cast<double>(up) / static_cast<double>(rows.size());
}

std::pair<double, double>
minMax(const std::vector<MixRow> &rows, std::size_t idx)
{
    double lo = 1.0, hi = 1.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const double v = rows[i].normalized[idx];
        if (i == 0) {
            lo = hi = v;
        } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    return {lo, hi};
}

void
printSortedCurves(const std::vector<MixRow> &rows,
                  const std::vector<std::string> &names,
                  std::size_t points)
{
    std::vector<std::vector<double>> sorted(names.size());
    for (std::size_t k = 0; k < names.size(); ++k) {
        for (const auto &row : rows) {
            sorted[k].push_back(row.normalized[k]);
        }
        std::sort(sorted[k].begin(), sorted[k].end());
    }

    std::vector<std::string> header = {"workload-pct"};
    for (const auto &n : names) header.push_back(n);
    TablePrinter table(header);
    const std::size_t n = rows.size();
    if (n == 0) return;
    for (std::size_t p = 0; p < points; ++p) {
        const std::size_t i =
            std::min(n - 1, p * (n - 1) / std::max<std::size_t>(
                                              points - 1, 1));
        std::vector<std::string> row = {TablePrinter::fmt(
            100.0 * static_cast<double>(i) /
                static_cast<double>(n - 1 ? n - 1 : 1),
            0)};
        for (std::size_t k = 0; k < names.size(); ++k) {
            row.push_back(TablePrinter::fmt(sorted[k][i], 3));
        }
        table.addRow(row);
    }
    table.print();
}

void
printSummary(const std::vector<MixRow> &rows,
             const std::vector<std::string> &names)
{
    TablePrinter table({"config", "geomean", "improved%", "min",
                        "max"});
    for (std::size_t k = 0; k < names.size(); ++k) {
        const auto [lo, hi] = minMax(rows, k);
        table.addRow({names[k], TablePrinter::fmt(geomean(rows, k), 3),
                      TablePrinter::fmt(
                          100.0 * fractionImproved(rows, k), 1),
                      TablePrinter::fmt(lo, 3),
                      TablePrinter::fmt(hi, 3)});
    }
    table.print();
}

void
printPerMix(const std::vector<MixRow> &rows,
            const std::vector<std::string> &names)
{
    std::vector<std::string> header = {"mix", "baseline-thruput"};
    for (const auto &n : names) header.push_back(n);
    TablePrinter table(header);
    for (const auto &row : rows) {
        std::vector<std::string> cells = {
            row.mix, TablePrinter::fmt(row.baseline, 3)};
        for (const double v : row.normalized) {
            cells.push_back(TablePrinter::fmt(v, 3));
        }
        table.addRow(cells);
    }
    table.print();
}

namespace {

/** $VANTAGE_BENCH_DIR/BENCH_<bench>.json (default: cwd). */
std::string
benchJsonPath(const std::string &bench)
{
    std::string dir = ".";
    if (const char *d = std::getenv("VANTAGE_BENCH_DIR")) {
        if (*d != '\0') {
            dir = d;
        }
    }
    return dir + "/BENCH_" + bench + ".json";
}

} // namespace

void
writeBenchJson(const std::string &bench,
               const std::vector<MixRow> &rows,
               const std::vector<std::string> &names)
{
    const std::string path = benchJsonPath(bench);
    std::ofstream out(path);
    if (!out) {
        // Benches should still report their tables when the export
        // directory is missing; don't kill the run.
        warn("cannot open bench export '%s'", path.c_str());
        return;
    }

    JsonWriter w(out);
    w.beginObject();
    w.kv("bench", bench);
    w.kv("mixes", static_cast<std::uint64_t>(rows.size()));
    w.key("configs");
    w.beginObject();
    for (std::size_t k = 0; k < names.size(); ++k) {
        const auto [lo, hi] = minMax(rows, k);
        w.key(names[k]);
        w.beginObject();
        w.kv("geomean", geomean(rows, k));
        w.kv("improved_frac", fractionImproved(rows, k));
        w.kv("min", lo);
        w.kv("max", hi);
        w.endObject();
    }
    w.endObject();
    w.key("per_mix");
    w.beginArray();
    for (const auto &row : rows) {
        w.beginObject();
        w.kv("mix", row.mix);
        w.kv("baseline_throughput", row.baseline);
        w.key("normalized");
        w.beginArray();
        for (const double v : row.normalized) {
            w.value(v);
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out.flush();
    if (!out) {
        warn("failed writing bench export '%s'", path.c_str());
        return;
    }
    std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
}

void
writeMicroJson(const std::string &bench,
               const std::vector<MicroResult> &results)
{
    const std::string path = benchJsonPath(bench);
    std::ofstream out(path);
    if (!out) {
        warn("cannot open bench export '%s'", path.c_str());
        return;
    }

    JsonWriter w(out);
    w.beginObject();
    w.kv("bench", bench);
    w.key("benchmarks");
    w.beginObject();
    for (const auto &r : results) {
        w.key(r.name);
        w.beginObject();
        w.kv("ns_per_op", r.nsPerOp);
        w.kv("iterations", r.iterations);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    out.flush();
    if (!out) {
        warn("failed writing bench export '%s'", path.c_str());
        return;
    }
    std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
}

} // namespace bench
} // namespace vantage
