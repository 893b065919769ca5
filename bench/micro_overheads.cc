/**
 * @file
 * Microbenchmarks (google-benchmark) of the mechanisms whose
 * hardware cost the paper argues is low (Sec. 4.3): H3 hashing,
 * zcache lookups and walks, Vantage demotion checks (via full miss
 * handling), and the baseline policies, plus UMON and Lookahead —
 * the simulator-side costs of each component.
 *
 * Results also land in BENCH_micro.json (via the suite's JSON
 * export, honoring $VANTAGE_BENCH_DIR) so serial hot-path changes
 * show up in the bench trajectory alongside the figure suites.
 * scripts/bench_compare.py compares such a file against a baseline
 * (bench/baseline_micro.json in CI).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "suite.h"

#include "alloc/lookahead.h"
#include "alloc/umon.h"
#include "array/set_assoc.h"
#include "array/zarray.h"
#include "cache/banked_cache.h"
#include "cache/cache.h"
#include "common/rng.h"
#include "core/vantage.h"
#include "hash/h3.h"
#include "obs/audit.h"
#include "obs/qos.h"
#include "partition/unpartitioned.h"
#include "replacement/lru.h"
#include "sim/core_heap.h"
#include "stats/snapshot.h"

using namespace vantage;

namespace {

void
BM_H3Hash(benchmark::State &state)
{
    H3Hash h(7);
    Rng rng(1);
    std::uint64_t x = rng.next();
    for (auto _ : state) {
        x = h(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_H3Hash);

void
BM_ZArrayLookup(benchmark::State &state)
{
    ZArray arr(32768, 4, 52, 1);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(arr.lookup(rng.next() >> 16));
    }
}
BENCHMARK(BM_ZArrayLookup);

void
BM_ZArrayWalk(benchmark::State &state)
{
    const auto r = static_cast<std::uint32_t>(state.range(0));
    ZArray arr(32768, 4, r, 1);
    Rng rng(3);
    CandidateBuf cands;
    // Fill the array first.
    for (int i = 0; i < 300000; ++i) {
        const Addr a = rng.next() >> 16;
        if (arr.lookup(a) != kInvalidLine) continue;
        arr.candidates(a, cands);
        std::int32_t v = 0;
        for (std::size_t j = 0; j < cands.size(); ++j) {
            if (!arr.line(cands[j].slot).valid()) {
                v = static_cast<std::int32_t>(j);
                break;
            }
        }
        arr.replace(a, cands, v);
    }
    for (auto _ : state) {
        arr.candidates(rng.next() >> 16, cands);
        benchmark::DoNotOptimize(cands.data());
    }
}
BENCHMARK(BM_ZArrayWalk)->Arg(16)->Arg(52);

void
BM_SetAssocAccess(benchmark::State &state)
{
    Cache cache(std::make_unique<SetAssocArray>(32768, 16, true, 1),
                std::make_unique<Unpartitioned>(
                    1, std::make_unique<ExactLru>()),
                "sa");
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.next() >> 16, 0));
    }
}
BENCHMARK(BM_SetAssocAccess);

void
BM_VantageMiss(benchmark::State &state)
{
    VantageConfig cfg;
    cfg.numPartitions = 4;
    cfg.unmanagedFraction = 0.05;
    Cache cache(std::make_unique<ZArray>(32768, 4, 52, 1),
                std::make_unique<VantageController>(32768, cfg),
                "v");
    Rng rng(5);
    int part = 0;
    // Warm up so every access is a full replacement.
    for (int i = 0; i < 400000; ++i) {
        cache.access((1ull << 40) | (rng.next() >> 16), i & 3);
    }
    for (auto _ : state) {
        part = (part + 1) & 3;
        benchmark::DoNotOptimize(
            cache.access((1ull << 40) | (rng.next() >> 16), part));
    }
}
BENCHMARK(BM_VantageMiss);

void
BM_VantageDemote(benchmark::State &state)
{
    // Forced-demotion pressure: partition 0 keeps filling while its
    // target is squeezed to a sliver, so nearly every miss scan runs
    // demotion checks and demotes part-0 candidates.
    VantageConfig cfg;
    cfg.numPartitions = 2;
    cfg.unmanagedFraction = 0.05;
    auto ctl = std::make_unique<VantageController>(32768, cfg);
    VantageController *v = ctl.get();
    Cache cache(std::make_unique<ZArray>(32768, 4, 52, 1),
                std::move(ctl), "vd");
    Rng rng(9);
    for (int i = 0; i < 200000; ++i) {
        cache.access((1ull << 40) | (rng.next() >> 16), i & 1);
    }
    v->setTargetLines({512, v->targetSize(1)});
    int part = 0;
    for (auto _ : state) {
        part ^= 1;
        benchmark::DoNotOptimize(
            cache.access((1ull << 40) | (rng.next() >> 16), part));
    }
}
BENCHMARK(BM_VantageDemote);

void
BM_VantageMissAudited(benchmark::State &state)
{
    // BM_VantageMiss with the decision audit ring attached: the
    // miss path now pays record() copies for every setpoint move
    // and forced decision. Gated at the same tolerance as the
    // other observability layers.
    VantageConfig cfg;
    cfg.numPartitions = 4;
    cfg.unmanagedFraction = 0.05;
    auto ctl = std::make_unique<VantageController>(32768, cfg);
    DecisionAudit audit;
    ctl->attachAudit(&audit);
    Cache cache(std::make_unique<ZArray>(32768, 4, 52, 1),
                std::move(ctl), "va");
    Rng rng(5);
    int part = 0;
    for (int i = 0; i < 400000; ++i) {
        cache.access((1ull << 40) | (rng.next() >> 16), i & 3);
    }
    for (auto _ : state) {
        part = (part + 1) & 3;
        benchmark::DoNotOptimize(
            cache.access((1ull << 40) | (rng.next() >> 16), part));
    }
    benchmark::DoNotOptimize(audit.total());
}
BENCHMARK(BM_VantageMissAudited);

void
BM_QosEngineStep(benchmark::State &state)
{
    // One QoS evaluation epoch over a 4-partition snapshot with all
    // snapshot-derived rules armed. Cold path (runs once per epoch,
    // not per access) — benchmarked so the per-epoch cost stays
    // visibly bounded.
    QosConfig cfg;
    cfg.def.slackFrac = 0.1;
    cfg.def.apertureCritBp = 4000.0;
    cfg.def.missRateDegrade = 0.5;
    QosEngine qos(cfg);
    std::uint64_t epoch = 0;
    double hits = 0.0;
    for (auto _ : state) {
        StatsSnapshot snap;
        snap.epoch = ++epoch;
        snap.wallSeconds = static_cast<double>(epoch);
        hits += 1000.0;
        for (int p = 0; p < 4; ++p) {
            const std::string base =
                "vantage.part" + std::to_string(p);
            // Alternate offending/clean so raise and clear paths
            // both run.
            const double actual = (epoch & 1) != 0u ? 130.0 : 100.0;
            snap.values[base + ".target_lines"] = {false, 100.0};
            snap.values[base + ".actual_lines"] = {false, actual};
            snap.values[base + ".aperture_bp"] = {false, 800.0};
            snap.values[base + ".hits"] = {true, hits};
            snap.values[base + ".misses"] = {true, hits * 0.1};
        }
        qos.step(snap);
    }
    benchmark::DoNotOptimize(qos.violationsTotal());
}
BENCHMARK(BM_QosEngineStep);

void
BM_BankedAccess(benchmark::State &state)
{
    // 4 banks of Z4/52 with one Vantage controller each (the paper's
    // banked L2 organization), random routed accesses.
    VantageConfig cfg;
    cfg.numPartitions = 4;
    cfg.unmanagedFraction = 0.05;
    std::vector<std::unique_ptr<Cache>> banks;
    for (int b = 0; b < 4; ++b) {
        banks.push_back(std::make_unique<Cache>(
            std::make_unique<ZArray>(8192, 4, 52, 100 + b),
            std::make_unique<VantageController>(8192, cfg),
            "bank" + std::to_string(b)));
    }
    BankedCache cache(std::move(banks));
    Rng rng(10);
    for (int i = 0; i < 200000; ++i) {
        cache.access((1ull << 40) | (rng.next() >> 16), i & 3);
    }
    int part = 0;
    for (auto _ : state) {
        part = (part + 1) & 3;
        benchmark::DoNotOptimize(
            cache.access((1ull << 40) | (rng.next() >> 16), part));
    }
}
BENCHMARK(BM_BankedAccess);

void
BM_SetAssocAccessLarge(benchmark::State &state)
{
    // 256 MB modeled capacity (4M 64-byte lines, 16-way): a
    // large-CMP L2. Exercises the access path at a metadata
    // footprint that spills far outside the host LLC.
    Cache cache(std::make_unique<SetAssocArray>(4194304, 16, true, 1),
                std::make_unique<Unpartitioned>(
                    1, std::make_unique<ExactLru>()),
                "sa-large");
    Rng rng(12);
    for (int i = 0; i < 1000000; ++i) {
        cache.access(rng.next() >> 16, 0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.next() >> 16, 0));
    }
}
BENCHMARK(BM_SetAssocAccessLarge);

void
BM_BankedAccessLarge(benchmark::State &state)
{
    // 256 MB modeled capacity split over 8 banks of 512K-line Z4/52
    // zcaches with one Vantage controller each: bank routing plus a
    // per-bank access at a 128-core machine's L2 size.
    VantageConfig cfg;
    cfg.numPartitions = 4;
    cfg.unmanagedFraction = 0.05;
    std::vector<std::unique_ptr<Cache>> banks;
    for (int b = 0; b < 8; ++b) {
        banks.push_back(std::make_unique<Cache>(
            std::make_unique<ZArray>(524288, 4, 52, 100 + b),
            std::make_unique<VantageController>(524288, cfg),
            "bank" + std::to_string(b)));
    }
    BankedCache cache(std::move(banks));
    Rng rng(13);
    for (int i = 0; i < 1000000; ++i) {
        cache.access((1ull << 40) | (rng.next() >> 12), i & 3);
    }
    int part = 0;
    for (auto _ : state) {
        part = (part + 1) & 3;
        benchmark::DoNotOptimize(
            cache.access((1ull << 40) | (rng.next() >> 12), part));
    }
}
BENCHMARK(BM_BankedAccessLarge);

// Giant-cache ("Huge") benchmarks: the metadata planes alone dwarf
// the host LLC (the 16M-line SA16 hot plane is 256 MB; the Z4/52
// points add cold + walk state), so every scan iteration streams
// from DRAM. This is the regime the prefetch sweeps and huge-page
// allocations target. Construction + warm-fill is expensive at
// these sizes, so each benchmark builds its cache once (function
// static) and reuses it across google-benchmark's repeated timing
// calls — fine for throughput measurement, where only the steady
// state matters.

void
BM_SetAssocAccessHuge(benchmark::State &state)
{
    // 1 GB modeled capacity: 16M 64-byte lines, 16-way. Hot plane
    // 256 MB + cold plane 128 MB.
    static Cache *cache = [] {
        auto *c = new Cache(
            std::make_unique<SetAssocArray>(16777216, 16, true, 1),
            std::make_unique<Unpartitioned>(
                1, std::make_unique<ExactLru>()),
            "sa-huge");
        Rng fill(14);
        for (int i = 0; i < 40000000; ++i) {
            c->access(fill.next() >> 14, 0);
        }
        return c;
    }();
    Rng rng(15);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache->access(rng.next() >> 14, 0));
    }
}
BENCHMARK(BM_SetAssocAccessHuge);

void
BM_ZWalkHuge(benchmark::State &state)
{
    // Candidate walks over an 8M-line Z4/52 (512 MB modeled
    // capacity; 128 MB hot plane + 32 MB visit epochs touched per
    // walk batch).
    static ZArray *arr = [] {
        auto *a = new ZArray(8388608, 4, 52, 1);
        Rng fill(16);
        CandidateBuf cands;
        for (int i = 0; i < 20000000; ++i) {
            const Addr ad = fill.next() >> 14;
            if (a->lookup(ad) != kInvalidLine) continue;
            a->candidates(ad, cands);
            std::int32_t v = 0;
            for (std::size_t j = 0; j < cands.size(); ++j) {
                if (!a->line(cands[j].slot).valid()) {
                    v = static_cast<std::int32_t>(j);
                    break;
                }
            }
            a->replace(ad, cands, v);
        }
        return a;
    }();
    Rng rng(17);
    CandidateBuf cands;
    for (auto _ : state) {
        arr->candidates(rng.next() >> 14, cands);
        benchmark::DoNotOptimize(cands.data());
    }
}
BENCHMARK(BM_ZWalkHuge);

void
BM_VantageMissHuge(benchmark::State &state)
{
    // Full Vantage miss handling (52-candidate walk + serial
    // demotion scan) on a 4M-line Z4/52 — 256 MB modeled capacity,
    // warmed until essentially every access replaces a valid line.
    static Cache *cache = [] {
        VantageConfig cfg;
        cfg.numPartitions = 4;
        cfg.unmanagedFraction = 0.05;
        auto *c = new Cache(
            std::make_unique<ZArray>(4194304, 4, 52, 1),
            std::make_unique<VantageController>(4194304, cfg),
            "v-huge");
        Rng fill(18);
        for (int i = 0; i < 16000000; ++i) {
            c->access((1ull << 40) | (fill.next() >> 14), i & 3);
        }
        return c;
    }();
    Rng rng(19);
    int part = 0;
    for (auto _ : state) {
        part = (part + 1) & 3;
        benchmark::DoNotOptimize(
            cache->access((1ull << 40) | (rng.next() >> 14), part));
    }
}
BENCHMARK(BM_VantageMissHuge);

void
BM_VantageHit(benchmark::State &state)
{
    VantageConfig cfg;
    cfg.numPartitions = 4;
    cfg.unmanagedFraction = 0.05;
    Cache cache(std::make_unique<ZArray>(32768, 4, 52, 1),
                std::make_unique<VantageController>(32768, cfg),
                "v");
    Rng rng(6);
    for (Addr a = 0; a < 4096; ++a) {
        cache.access((1ull << 40) | a, 0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access((1ull << 40) | rng.range(4096), 0));
    }
}
BENCHMARK(BM_VantageHit);

void
BM_UmonAccess(benchmark::State &state)
{
    Umon umon(16, 64, 2048, 1);
    Rng rng(7);
    for (auto _ : state) {
        umon.access(rng.next() >> 16);
    }
}
BENCHMARK(BM_UmonAccess);

void
BM_Lookahead(benchmark::State &state)
{
    const auto units = static_cast<std::uint32_t>(state.range(0));
    Rng rng(8);
    std::vector<std::vector<double>> curves(32);
    for (auto &c : curves) {
        double acc = 0.0;
        c.push_back(0.0);
        for (std::uint32_t u = 1; u <= units; ++u) {
            acc += rng.uniform();
            c.push_back(acc);
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lookaheadAllocate(curves, units, 1));
    }
}
BENCHMARK(BM_Lookahead)->Arg(64)->Arg(256);

void
BM_NextCore(benchmark::State &state)
{
    // Heap-based next-core scheduling: pop the minimum, advance its
    // clock by a pseudo-random service time, repeat.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    CoreClockHeap heap;
    heap.reset(n);
    Rng rng(11);
    for (auto _ : state) {
        const std::uint32_t c = heap.top();
        heap.update(c, heap.key(c) + 1 + rng.range(200));
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_NextCore)->Arg(32);

void
BM_NextCoreScan(benchmark::State &state)
{
    // The O(cores) linear scan the heap replaces, for comparison.
    const auto n = static_cast<std::uint32_t>(state.range(0));
    std::vector<Cycle> clocks(n, 0);
    Rng rng(11);
    for (auto _ : state) {
        std::uint32_t best = 0;
        for (std::uint32_t c = 1; c < n; ++c) {
            if (clocks[c] < clocks[best]) {
                best = c;
            }
        }
        clocks[best] += 1 + rng.range(200);
        benchmark::DoNotOptimize(best);
    }
}
BENCHMARK(BM_NextCoreScan)->Arg(32);

/**
 * Console output as usual, while collecting per-benchmark real
 * times for the BENCH_micro.json export.
 */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &report) override
    {
        ConsoleReporter::ReportRuns(report);
        for (const Run &run : report) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred) {
                continue;
            }
            results_.push_back(
                {run.benchmark_name(), run.GetAdjustedRealTime(),
                 static_cast<std::uint64_t>(run.iterations)});
        }
    }

    const std::vector<vantage::bench::MicroResult> &
    results() const
    {
        return results_;
    }

  private:
    std::vector<vantage::bench::MicroResult> results_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    vantage::bench::writeMicroJson("micro", reporter.results());
    return 0;
}
