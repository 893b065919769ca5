#include "sim/experiment.h"

#include <cmath>
#include <cstdlib>

#include "array/random_array.h"
#include "array/set_assoc.h"
#include "array/zarray.h"
#include "common/bits.h"
#include "common/log.h"
#include "core/vantage_variants.h"
#include "obs/metrics_service.h"
#include "partition/pipp.h"
#include "partition/unpartitioned.h"
#include "partition/way_partition.h"
#include "replacement/lru.h"
#include "replacement/rrip.h"
#include "sim/heartbeat.h"
#include "stats/registry.h"
#include "trace/event_trace.h"

namespace vantage {

const char *
arrayKindName(ArrayKind k)
{
    switch (k) {
      case ArrayKind::Z4_52:
        return "Z4/52";
      case ArrayKind::Z4_16:
        return "Z4/16";
      case ArrayKind::SA16:
        return "SA16";
      case ArrayKind::SA64:
        return "SA64";
      case ArrayKind::Random:
        return "Rand52";
    }
    panic("bad array kind %d", static_cast<int>(k));
}

const char *
schemeKindName(SchemeKind k)
{
    switch (k) {
      case SchemeKind::UnpartLru:
        return "LRU";
      case SchemeKind::UnpartSrrip:
        return "SRRIP";
      case SchemeKind::UnpartDrrip:
        return "DRRIP";
      case SchemeKind::UnpartTaDrrip:
        return "TA-DRRIP";
      case SchemeKind::WayPart:
        return "WayPart";
      case SchemeKind::Pipp:
        return "PIPP";
      case SchemeKind::Vantage:
        return "Vantage";
      case SchemeKind::VantageDrrip:
        return "Vantage-DRRIP";
      case SchemeKind::VantageOracle:
        return "Vantage-Oracle";
    }
    panic("bad scheme kind %d", static_cast<int>(k));
}

std::string
L2Spec::name() const
{
    return std::string(schemeKindName(scheme)) + "-" +
           arrayKindName(array);
}

namespace {

/** Candidates per miss of the idealized random array. */
constexpr std::uint32_t kRandomCandidates = 52;

/** Ways of a spec's array (the random array reports its R). */
std::uint32_t
arrayWays(ArrayKind k)
{
    switch (k) {
      case ArrayKind::SA16:
        return 16;
      case ArrayKind::SA64:
        return 64;
      case ArrayKind::Random:
        return kRandomCandidates;
      default:
        return 4;
    }
}

} // namespace

std::unique_ptr<CacheArray>
buildArray(const L2Spec &spec)
{
    switch (spec.array) {
      case ArrayKind::Z4_52:
        return std::make_unique<ZArray>(spec.lines, 4, 52, spec.seed);
      case ArrayKind::Z4_16:
        return std::make_unique<ZArray>(spec.lines, 4, 16, spec.seed);
      case ArrayKind::SA16:
        return std::make_unique<SetAssocArray>(spec.lines, 16, true,
                                               spec.seed);
      case ArrayKind::SA64:
        return std::make_unique<SetAssocArray>(spec.lines, 64, true,
                                               spec.seed);
      case ArrayKind::Random:
        return std::make_unique<RandomArray>(
            spec.lines, kRandomCandidates, spec.seed);
    }
    panic("bad array kind %d", static_cast<int>(spec.array));
}

namespace {

/** Associativity the DRRIP dueling monitors model. */
std::uint32_t
monitorWays(const L2Spec &spec)
{
    switch (spec.array) {
      case ArrayKind::SA16:
        return 16;
      case ArrayKind::SA64:
        return 64;
      default:
        return 16; // Stand-in geometry for zcaches.
    }
}

/** LRU flavor matched to the array: exact for SA, coarse for Z. */
std::unique_ptr<ReplPolicy>
baseLru(const L2Spec &spec)
{
    if (spec.array == ArrayKind::SA16 ||
        spec.array == ArrayKind::SA64) {
        return std::make_unique<ExactLru>();
    }
    return std::make_unique<CoarseLru>(spec.lines);
}

} // namespace

std::unique_ptr<Cache>
buildL2(const L2Spec &spec)
{
    std::unique_ptr<CacheArray> array = buildArray(spec);
    const std::uint32_t ways = array->numWays();
    const std::uint64_t lines_per_way = spec.lines / ways;

    std::unique_ptr<PartitionScheme> scheme;
    VantageConfig vcfg = spec.vantage;
    vcfg.numPartitions = spec.numPartitions;

    switch (spec.scheme) {
      case SchemeKind::UnpartLru:
        scheme = std::make_unique<Unpartitioned>(spec.numPartitions,
                                                 baseLru(spec));
        break;
      case SchemeKind::UnpartSrrip:
        scheme = std::make_unique<Unpartitioned>(
            spec.numPartitions, std::make_unique<Srrip>());
        break;
      case SchemeKind::UnpartDrrip:
        scheme = std::make_unique<Unpartitioned>(
            spec.numPartitions,
            std::make_unique<Drrip>(spec.lines, monitorWays(spec),
                                    spec.seed));
        break;
      case SchemeKind::UnpartTaDrrip:
        scheme = std::make_unique<Unpartitioned>(
            spec.numPartitions,
            std::make_unique<TaDrrip>(spec.numPartitions, spec.lines,
                                      monitorWays(spec), spec.seed));
        break;
      case SchemeKind::WayPart:
        scheme = std::make_unique<WayPartitioning>(
            spec.numPartitions, ways, lines_per_way,
            std::make_unique<ExactLru>());
        break;
      case SchemeKind::Pipp:
        scheme = std::make_unique<Pipp>(spec.numPartitions, ways,
                                        lines_per_way, spec.lines,
                                        PippConfig{}, spec.seed);
        break;
      case SchemeKind::Vantage:
        scheme = std::make_unique<VantageController>(spec.lines, vcfg);
        break;
      case SchemeKind::VantageDrrip:
        scheme = std::make_unique<VantageRrip>(spec.lines, vcfg,
                                               spec.seed);
        break;
      case SchemeKind::VantageOracle:
        scheme = std::make_unique<VantageOracle>(spec.lines, vcfg);
        break;
    }
    vantage_assert(scheme != nullptr, "no scheme built");
    return std::make_unique<Cache>(std::move(array),
                                   std::move(scheme), spec.name());
}

std::unique_ptr<BankedCache>
buildBankedL2(const L2Spec &spec, std::uint32_t banks)
{
    vantage_assert(banks > 0, "need at least one bank");
    vantage_assert(spec.lines % banks == 0,
                   "%llu lines do not split into %u banks",
                   static_cast<unsigned long long>(spec.lines),
                   banks);
    std::vector<std::unique_ptr<Cache>> bs;
    bs.reserve(banks);
    for (std::uint32_t b = 0; b < banks; ++b) {
        // Same per-bank derivation as the fuzz driver: distinct
        // array/scheme seeds per bank, per-bank share of the lines.
        L2Spec bank_spec = spec;
        bank_spec.lines = spec.lines / banks;
        bank_spec.seed = spec.seed + 0x9e37ull * (b + 1);
        bs.push_back(buildL2(bank_spec));
    }
    return std::make_unique<BankedCache>(std::move(bs),
                                         spec.seed ^ 0xba4cull);
}

bool
validateL2Spec(const L2Spec &spec, std::string &error)
{
    const auto fail = [&error](std::string message) {
        error = std::move(message);
        return false;
    };
    if (spec.scheme > SchemeKind::VantageOracle) {
        return fail("unknown scheme kind " +
                    std::to_string(static_cast<int>(spec.scheme)));
    }
    if (spec.array > ArrayKind::Random) {
        return fail("unknown array kind " +
                    std::to_string(static_cast<int>(spec.array)));
    }
    // The Vantage knobs are range-checked for every scheme, so a bad
    // value never waits for a Vantage run to surface.
    const VantageConfig &v = spec.vantage;
    if (!(v.unmanagedFraction > 0.0 && v.unmanagedFraction < 1.0)) {
        return fail("--unmanaged must be in (0, 1)");
    }
    if (!(v.maxAperture > 0.0 && v.maxAperture <= 1.0)) {
        return fail("--amax must be in (0, 1]");
    }
    if (!(v.slack > 0.0 && v.slack < 1.0)) {
        return fail("--slack must be in (0, 1)");
    }
    if (v.thresholdEntries < 1 || v.thresholdEntries > 256) {
        return fail("Vantage threshold entries must be in [1, 256]");
    }
    if (spec.numPartitions == 0) {
        return fail("need at least one partition");
    }

    const std::uint32_t ways = arrayWays(spec.array);
    const std::string lines = std::to_string(spec.lines) + " L2 lines";
    if (spec.array == ArrayKind::Random) {
        if (spec.lines < ways) {
            return fail(lines + " are fewer than the random array's " +
                        std::to_string(ways) + " candidates");
        }
    } else {
        if (spec.lines % ways != 0) {
            return fail(lines + " do not divide into " +
                        std::to_string(ways) + " ways");
        }
        if (!isPow2(spec.lines / ways)) {
            return fail(lines + " give " +
                        std::to_string(spec.lines / ways) +
                        " lines per way, not a power of two");
        }
    }
    if (spec.lines / ways > (1ull << 32)) {
        return fail(lines + " exceed 2^32 lines per way");
    }

    const std::string parts =
        std::to_string(spec.numPartitions) + " partitions";
    switch (spec.scheme) {
      case SchemeKind::WayPart:
      case SchemeKind::Pipp:
        if (spec.lines % ways != 0) {
            return fail(std::string(schemeKindName(spec.scheme)) +
                        " needs " + lines + " to divide into " +
                        std::to_string(ways) + " ways");
        }
        if (spec.numPartitions > ways) {
            return fail(std::string(schemeKindName(spec.scheme)) +
                        " cannot hold " + parts + " in " +
                        std::to_string(ways) + " ways");
        }
        break;
      case SchemeKind::Vantage:
      case SchemeKind::VantageDrrip:
      case SchemeKind::VantageOracle: {
        // The controller's own rounding of the managed region.
        const auto managed = static_cast<std::uint64_t>(std::llround(
            static_cast<double>(spec.lines) *
            (1.0 - v.unmanagedFraction)));
        if (managed < spec.numPartitions) {
            return fail(parts + " exceed the " +
                        std::to_string(managed) +
                        "-line managed region");
        }
        break;
      }
      default:
        break;
    }
    return true;
}

RunScale
RunScale::fromEnv()
{
    RunScale scale;
    if (const char *s = std::getenv("VANTAGE_WARMUP")) {
        scale.warmupAccesses = std::strtoull(s, nullptr, 10);
    }
    if (const char *s = std::getenv("VANTAGE_INSTRS")) {
        scale.instructions = std::strtoull(s, nullptr, 10);
    }
    if (const char *s = std::getenv("VANTAGE_MIX_SEEDS")) {
        scale.mixSeedsPerClass = static_cast<std::uint32_t>(
            std::strtoul(s, nullptr, 10));
    }
    if (const char *s = std::getenv("VANTAGE_STATS_PERIOD")) {
        scale.statsPeriod = std::strtoull(s, nullptr, 10);
        if (scale.statsPeriod == 0) {
            warn_once("VANTAGE_STATS_PERIOD=0 clamped to 1");
            scale.statsPeriod = 1;
        }
    }
    if (const char *s = std::getenv("VANTAGE_JOBS")) {
        scale.jobs = static_cast<std::uint32_t>(
            std::strtoul(s, nullptr, 10));
    }
    if (const char *s = std::getenv("VANTAGE_HEARTBEAT")) {
        scale.heartbeatEvery = std::strtoull(s, nullptr, 10);
    }
    return scale;
}

MixResult
runMix(const CmpConfig &cfg, const L2Spec &spec,
       const std::vector<AppSpec> &apps, const RunScale &scale,
       const std::string &mix_name, std::uint64_t seed,
       const MixHooks &hooks)
{
    CmpSim sim(cfg, apps, buildL2(spec), seed);
    Heartbeat heartbeat(sim, mix_name + "/" + spec.name(),
                        hooks.heartbeatSink);
    sim.addObserver(&heartbeat, scale.heartbeatEvery);

    // Live metrics: the registry must outlive the service's view of
    // it, so it is scoped to the whole run and unregistered before
    // the sim is torn down.
    StatsRegistry live_reg;
    if (hooks.metrics != nullptr) {
        sim.registerLiveStats(live_reg);
        heartbeat.registerMetrics(live_reg);
        hooks.metrics->addSource(
            hooks.job.empty() ? mix_name + "/" + spec.name()
                              : hooks.job,
            &live_reg);
    }

    {
        TraceSpan span(kTraceSim, "sim.warmup");
        sim.warmup(scale.warmupAccesses);
    }
    sim.l2().resetStats();
    {
        TraceSpan span(kTraceSim, "sim.run");
        sim.run(scale.instructions);
    }

    if (hooks.metrics != nullptr) {
        hooks.metrics->removeSource(&live_reg);
    }

    MixResult result;
    result.mix = mix_name;
    result.config = spec.name();
    result.throughput = sim.throughput();
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        result.cores.push_back(sim.result(c));
    }
    return result;
}

} // namespace vantage
