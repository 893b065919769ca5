/**
 * @file
 * Deterministic configuration x access-stream fuzzer.
 *
 * Each iteration derives a full cache configuration (scheme, array,
 * size, partition count, Vantage knobs, reallocation cadence) and a
 * synthetic access stream from a single 64-bit seed, replays the
 * stream against a freshly built cache, and runs the structural
 * invariant checks (common/check.h) every --check-every accesses.
 *
 * On a violation the driver minimizes before reporting: it replays
 * the same case with per-access checking to find the earliest failing
 * access, then retries with reallocation disabled to learn whether
 * repartitioning is part of the trigger. The report is a
 * self-contained (seed, config) tuple plus an exact reproduction
 * command line.
 *
 * Everything is a pure function of the seed — no wall clock, no
 * global state — so a failure printed by CI reproduces anywhere.
 *
 * Usage: fuzz_driver [--iters N] [--seed S] [--accesses N]
 *                    [--check-every N] [--banks N] [--lifecycle]
 *                    [--no-realloc] [--verbose]
 *
 * --lifecycle interleaves seeded partition create/destroy events
 * with the access stream: retired partitions stop receiving accesses
 * (their draws are remapped to the lowest active partition without
 * consuming extra rng) and shed their allocation at the next
 * reallocation, so their lines drain through the scheme's churn
 * mechanism. The minimizer reports whether lifecycle events are part
 * of a failure's trigger, mirroring the --no-realloc probe.
 *
 * --banks N (N > 0) routes every case through an N-bank BankedCache
 * of Z4/52 zcaches instead of a single flat cache. The option is
 * applied after the seed-derived case is drawn, so it never perturbs
 * the rng sequences: `--seed S` replays the same addresses with and
 * without banking.
 *
 * Exit status: 0 when every iteration holds all invariants, 1 on the
 * first (minimized) violation, 2 on usage errors.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cache/banked_cache.h"
#include "cache/cache.h"
#include "common/rng.h"
#include "sim/experiment.h"

using namespace vantage;

namespace {

/** One fuzz case, fully derived from a seed. */
struct FuzzCase
{
    L2Spec spec;
    std::uint64_t accesses = 20'000;
    std::uint64_t hotLines = 0;      ///< Per-partition hot set.
    std::uint64_t sharedLines = 0;   ///< Shared warm region.
    std::uint64_t reallocEvery = 0;  ///< 0 = never repartition.
    std::uint64_t seed = 0;
    std::uint32_t banks = 0;         ///< 0 = flat cache (CLI-forced).
    bool lifecycle = false;          ///< CLI-forced, like banks.
    std::uint64_t lifecycleEvery = 0; ///< Accesses between events.

    std::string
    describe() const
    {
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "%s lines=%llu parts=%u u=%.3f amax=%.3f slack=%.3f "
            "hot=%llu shared=%llu realloc=%llu",
            spec.name().c_str(),
            static_cast<unsigned long long>(spec.lines),
            spec.numPartitions, spec.vantage.unmanagedFraction,
            spec.vantage.maxAperture, spec.vantage.slack,
            static_cast<unsigned long long>(hotLines),
            static_cast<unsigned long long>(sharedLines),
            static_cast<unsigned long long>(reallocEvery));
        std::string out = buf;
        if (lifecycle) {
            std::snprintf(buf, sizeof(buf), " lifecycle=%llu",
                          static_cast<unsigned long long>(
                              lifecycleEvery));
            out += buf;
        }
        if (banks > 0) {
            std::snprintf(buf, sizeof(buf), " banks=%u", banks);
            out += buf;
        }
        return out;
    }
};

/** Derive a case from its seed (pure). */
FuzzCase
makeCase(std::uint64_t seed, std::uint64_t accesses)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xf022ull);
    FuzzCase fc;
    fc.seed = seed;
    fc.accesses = accesses;

    static const SchemeKind schemes[] = {
        SchemeKind::Vantage,      SchemeKind::VantageDrrip,
        SchemeKind::VantageOracle, SchemeKind::WayPart,
        SchemeKind::Pipp,         SchemeKind::UnpartLru,
    };
    fc.spec.scheme = schemes[rng.range(6)];

    // PIPP manages per-set chains, so it needs a set-assoc array;
    // everything else runs on any array kind.
    if (fc.spec.scheme == SchemeKind::Pipp) {
        static const ArrayKind saOnly[] = {ArrayKind::SA16,
                                           ArrayKind::SA64};
        fc.spec.array = saOnly[rng.range(2)];
    } else {
        static const ArrayKind anyKind[] = {
            ArrayKind::Z4_52, ArrayKind::Z4_16, ArrayKind::SA16,
            ArrayKind::SA64};
        fc.spec.array = anyKind[rng.range(4)];
    }

    fc.spec.lines = 1024ull << rng.range(3); // 1K..8K lines.
    fc.spec.numPartitions =
        1 + static_cast<std::uint32_t>(rng.range(8));
    // Way-granular schemes cannot hold more partitions than ways.
    if (fc.spec.scheme == SchemeKind::WayPart ||
        fc.spec.scheme == SchemeKind::Pipp) {
        const std::uint32_t ways =
            fc.spec.array == ArrayKind::SA16   ? 16
            : fc.spec.array == ArrayKind::SA64 ? 64
                                               : 4;
        fc.spec.numPartitions =
            std::min(fc.spec.numPartitions, ways);
    }
    fc.spec.seed = seed ^ 0x5eedull;

    fc.spec.vantage.numPartitions = fc.spec.numPartitions;
    fc.spec.vantage.unmanagedFraction =
        0.05 + 0.25 * rng.uniform();
    fc.spec.vantage.maxAperture = 0.3 + 0.7 * rng.uniform();
    fc.spec.vantage.slack = 0.05 + 0.25 * rng.uniform();

    // Working sets chosen to straddle the cache size so streams mix
    // hits, misses, and capacity pressure.
    fc.hotLines = 1 + rng.range(fc.spec.lines / 2);
    fc.sharedLines = 1 + rng.range(fc.spec.lines * 2);
    fc.reallocEvery = rng.chance(0.5) ? 1000 + rng.range(4000) : 0;
    // Drawn last so pre-lifecycle seeds replay identical cases; the
    // cadence only takes effect under --lifecycle.
    fc.lifecycleEvery = 500 + rng.range(2000);
    return fc;
}

/**
 * Random allocation in scheme units: every partition keeps a floor
 * of one unit, the rest is split at random cut points.
 */
std::vector<std::uint32_t>
randomAllocations(Rng &rng, std::uint32_t parts,
                  std::uint32_t quantum)
{
    std::vector<std::uint32_t> units(parts, 1);
    if (quantum <= parts) {
        return std::vector<std::uint32_t>(parts, quantum / parts);
    }
    std::uint32_t remaining = quantum - parts;
    for (std::uint32_t p = 0; p + 1 < parts && remaining > 0; ++p) {
        const auto grab = static_cast<std::uint32_t>(
            rng.range(remaining + 1));
        units[p] += grab;
        remaining -= grab;
    }
    units[parts - 1] += remaining;
    return units;
}

/** Next address in the stream (pure function of the rng + counter). */
Addr
nextAddr(Rng &rng, const FuzzCase &fc, PartId part,
         std::uint64_t &scan_counter)
{
    const std::uint64_t kind = rng.range(10);
    if (kind < 6) {
        // Hot per-partition set: mostly hits once warm.
        return (static_cast<Addr>(part) + 1) * 0x10000000ull +
               rng.range(fc.hotLines);
    }
    if (kind < 9) {
        // Shared warm region: cross-partition interference.
        return 0x900000000ull + rng.range(fc.sharedLines);
    }
    // Cold scan: guaranteed misses, exercises eviction paths.
    return 0xdead0000000ull + scan_counter++;
}

/**
 * Replay one case, checking invariants every `check_every` accesses
 * and once at the end. @return the access index at which the first
 * violation was observed (checks run after the access), or -1 when
 * the case holds. `rep` receives the failing report.
 */
std::int64_t
runCase(const FuzzCase &fc, std::uint64_t check_every,
        bool allow_realloc, bool allow_lifecycle,
        InvariantReport &rep)
{
    // --banks routes everything through a BankedCache; the flat path
    // is otherwise untouched.
    std::unique_ptr<Cache> cache;
    std::unique_ptr<BankedCache> banked;
    if (fc.banks > 0) {
        std::vector<std::unique_ptr<Cache>> bs;
        bs.reserve(fc.banks);
        for (std::uint32_t b = 0; b < fc.banks; ++b) {
            L2Spec bank_spec = fc.spec;
            bank_spec.seed = fc.spec.seed + 0x9e37ull * (b + 1);
            bs.push_back(buildL2(bank_spec));
        }
        banked = std::make_unique<BankedCache>(std::move(bs),
                                               fc.seed ^ 0xba4cull);
    } else {
        cache = buildL2(fc.spec);
    }
    Rng rng(fc.seed ^ 0xacce55ull);
    std::uint64_t scan_counter = 0;

    // Partition lifecycle state. Event parameters are always drawn
    // when the case has lifecycle mode on, so `allow_lifecycle`
    // (the minimizer's probe) replays the exact same access stream
    // with the create/destroy calls suppressed.
    std::vector<std::uint8_t> active(fc.spec.numPartitions, 1);
    std::uint32_t active_count = fc.spec.numPartitions;
    const auto lowest_active = [&]() -> PartId {
        for (PartId p = 0; p < fc.spec.numPartitions; ++p) {
            if (active[p] != 0) {
                return p;
            }
        }
        return 0;
    };

    const auto check = [&](InvariantReport &r) {
        r.clear();
        if (banked) {
            banked->checkInvariants(r);
        } else {
            cache->checkInvariants(r);
        }
    };

    for (std::uint64_t i = 0; i < fc.accesses; ++i) {
        auto part = static_cast<PartId>(
            rng.range(fc.spec.numPartitions));
        const Addr addr = nextAddr(rng, fc, part, scan_counter);
        // Retired partitions receive no accesses: the accessor is
        // remapped to the lowest active one after the address is
        // derived, so lifecycle on/off replays an identical
        // (rng, address) stream.
        if (active[part] == 0) {
            part = lowest_active();
        }
        const AccessType type = rng.chance(0.3) ? AccessType::Store
                                                : AccessType::Load;
        if (banked) {
            banked->access(addr, part, type);
        } else {
            cache->access(addr, part, type);
        }

        // Lifecycle events: parameters are drawn whenever the case
        // runs in lifecycle mode (so the probe replays the same
        // stream); application is gated on allow_lifecycle.
        if (fc.lifecycle && fc.lifecycleEvery &&
            (i + 1) % fc.lifecycleEvery == 0) {
            const std::uint64_t action = rng.range(4);
            const auto target = static_cast<PartId>(
                rng.range(fc.spec.numPartitions));
            if (allow_lifecycle) {
                if (action == 0 && active[target] == 0) {
                    if (banked) {
                        banked->createPartition(target);
                    } else {
                        cache->createPartition(target);
                    }
                    active[target] = 1;
                    ++active_count;
                } else if (action != 0 && active[target] != 0 &&
                           active_count > 1) {
                    if (banked) {
                        banked->destroyPartition(target);
                    } else {
                        cache->destroyPartition(target);
                    }
                    active[target] = 0;
                    --active_count;
                }
            }
        }

        // Reallocation events are part of the stream derivation even
        // when suppressed, so --no-realloc replays identical
        // addresses.
        if (fc.reallocEvery && (i + 1) % fc.reallocEvery == 0) {
            PartitionScheme &scheme =
                banked ? banked->bank(0).scheme() : cache->scheme();
            std::vector<std::uint32_t> units =
                randomAllocations(rng, fc.spec.numPartitions,
                                  scheme.allocationQuantum());
            if (allow_realloc) {
                // Retired partitions shed their allocation: their
                // units move to the lowest active slot so the total
                // stays fixed and the retired lines drain.
                std::uint32_t freed = 0;
                for (PartId p = 0; p < fc.spec.numPartitions; ++p) {
                    if (active[p] == 0) {
                        freed += units[p];
                        units[p] = 0;
                    }
                }
                units[lowest_active()] += freed;
                if (banked) {
                    banked->setAllocations(units);
                } else {
                    cache->scheme().setAllocations(units);
                }
            }
        }

        if ((i + 1) % check_every == 0) {
            check(rep);
            if (!rep.ok()) {
                return static_cast<std::int64_t>(i);
            }
        }
    }
    check(rep);
    if (!rep.ok()) {
        return static_cast<std::int64_t>(fc.accesses - 1);
    }
    return -1;
}

/**
 * Force a seed-derived case onto N banks of Z4/52 zcaches. Applied
 * after makeCase so no rng draws change; schemes that require a
 * set-associative array (PIPP) or cap partitions at the way count
 * (way-partitioning) are adjusted to stay constructible.
 */
void
forceBanks(FuzzCase &fc, std::uint32_t banks)
{
    fc.banks = banks;
    fc.spec.array = ArrayKind::Z4_52;
    if (fc.spec.scheme == SchemeKind::Pipp) {
        fc.spec.scheme = SchemeKind::Vantage;
    }
    if (fc.spec.scheme == SchemeKind::WayPart) {
        fc.spec.numPartitions = std::min(fc.spec.numPartitions, 4u);
        fc.spec.vantage.numPartitions = fc.spec.numPartitions;
    }
}

/** Minimize and print a failing case; never returns success. */
int
reportFailure(FuzzCase fc, std::uint64_t coarse_idx)
{
    // Step 1: per-access checking finds the earliest failing access.
    InvariantReport rep;
    FuzzCase narrowed = fc;
    narrowed.accesses = coarse_idx + 1;
    std::int64_t first = runCase(narrowed, 1, true, true, rep);
    if (first < 0) {
        // Should not happen (same stream, finer checks); fall back
        // to the coarse index.
        first = static_cast<std::int64_t>(coarse_idx);
        runCase(narrowed, 1, true, true, rep);
    }

    // Step 2: is repartitioning part of the trigger?
    bool needs_realloc = false;
    if (fc.reallocEvery) {
        InvariantReport quiet;
        FuzzCase no_realloc = narrowed;
        needs_realloc =
            runCase(no_realloc, 1, false, true, quiet) < 0;
    }

    // Step 3: are the create/destroy events part of the trigger?
    bool needs_lifecycle = false;
    if (fc.lifecycle) {
        InvariantReport quiet;
        FuzzCase no_lifecycle = narrowed;
        needs_lifecycle =
            runCase(no_lifecycle, 1, true, false, quiet) < 0;
    }

    std::fprintf(stderr, "FUZZ FAILURE\n");
    std::fprintf(stderr, "  seed:    %llu\n",
                 static_cast<unsigned long long>(fc.seed));
    std::fprintf(stderr, "  config:  %s\n", fc.describe().c_str());
    std::fprintf(stderr, "  first failing access: %lld\n",
                 static_cast<long long>(first));
    if (fc.reallocEvery) {
        std::fprintf(stderr, "  requires realloc events: %s\n",
                     needs_realloc ? "yes" : "no");
    }
    if (fc.lifecycle) {
        std::fprintf(stderr, "  requires lifecycle events: %s\n",
                     needs_lifecycle ? "yes" : "no");
    }
    for (const std::string &f : rep.failures()) {
        std::fprintf(stderr, "  violation: %s\n", f.c_str());
    }
    std::fprintf(stderr,
                 "reproduce: fuzz_driver --seed %llu --iters 1 "
                 "--accesses %lld --check-every 1",
                 static_cast<unsigned long long>(fc.seed),
                 static_cast<long long>(first + 1));
    if (fc.banks > 0) {
        std::fprintf(stderr, " --banks %u", fc.banks);
    }
    if (fc.lifecycle) {
        std::fprintf(stderr, " --lifecycle");
    }
    std::fprintf(stderr, "\n");
    return 1;
}

} // namespace

#ifdef VANTAGE_LIBFUZZER_DRIVER

/**
 * libFuzzer entry point (Clang-only optional target): the input
 * bytes are hashed into a case seed, so coverage feedback steers the
 * same deterministic case space the CLI driver samples.
 */
extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t seed = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        seed = (seed ^ data[i]) * 0x100000001b3ULL;
    }
    const FuzzCase fc = makeCase(seed, 4'000);
    InvariantReport rep;
    if (runCase(fc, 256, true, true, rep) >= 0) {
        std::fprintf(stderr, "seed %llu violation: %s\n",
                     static_cast<unsigned long long>(seed),
                     rep.summary().c_str());
        std::abort();
    }
    return 0;
}

#else // !VANTAGE_LIBFUZZER_DRIVER

int
main(int argc, char **argv)
{
    std::uint64_t iters = 24;
    std::uint64_t base_seed = 1;
    std::uint64_t accesses = 20'000;
    std::uint64_t check_every = 512;
    std::uint64_t banks = 0;
    bool allow_realloc = true;
    bool lifecycle = false;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto numArg = [&](std::uint64_t &out) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "fuzz_driver: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            out = std::strtoull(argv[++i], nullptr, 10);
        };
        if (arg == "--iters") {
            numArg(iters);
        } else if (arg == "--seed") {
            numArg(base_seed);
        } else if (arg == "--accesses") {
            numArg(accesses);
        } else if (arg == "--check-every") {
            numArg(check_every);
            if (check_every == 0) {
                check_every = 1;
            }
        } else if (arg == "--banks") {
            numArg(banks);
            if (banks > 64) {
                std::fprintf(stderr,
                             "fuzz_driver: --banks %llu too large "
                             "(max 64)\n",
                             static_cast<unsigned long long>(banks));
                return 2;
            }
        } else if (arg == "--no-realloc") {
            allow_realloc = false;
        } else if (arg == "--lifecycle") {
            lifecycle = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            std::fprintf(stderr,
                         "fuzz_driver: unknown option '%s'\n"
                         "usage: fuzz_driver [--iters N] [--seed S] "
                         "[--accesses N] [--check-every N] "
                         "[--banks N] [--lifecycle] [--no-realloc] "
                         "[--verbose]\n",
                         arg.c_str());
            return 2;
        }
    }
    for (std::uint64_t it = 0; it < iters; ++it) {
        const std::uint64_t seed = base_seed + it;
        FuzzCase fc = makeCase(seed, accesses);
        if (banks > 0) {
            forceBanks(fc, static_cast<std::uint32_t>(banks));
        }
        if (lifecycle) {
            fc.lifecycle = true;
        }
        if (verbose) {
            std::fprintf(stderr, "fuzz[%llu]: seed %llu: %s\n",
                         static_cast<unsigned long long>(it),
                         static_cast<unsigned long long>(seed),
                         fc.describe().c_str());
        }
        InvariantReport rep;
        const std::int64_t bad =
            runCase(fc, check_every, allow_realloc, true, rep);
        if (bad >= 0) {
            return reportFailure(fc, static_cast<std::uint64_t>(bad));
        }
    }
    std::fprintf(stderr,
                 "fuzz_driver: %llu iterations x %llu accesses clean "
                 "(base seed %llu)\n",
                 static_cast<unsigned long long>(iters),
                 static_cast<unsigned long long>(accesses),
                 static_cast<unsigned long long>(base_seed));
    return 0;
}

#endif // VANTAGE_LIBFUZZER_DRIVER
