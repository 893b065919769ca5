/**
 * @file
 * Tests for the vsim option parser.
 */

#include <gtest/gtest.h>

#include "sim/cli.h"

namespace vantage {
namespace {

CliOptions
parseOk(const std::vector<std::string> &args)
{
    std::string error;
    const CliOptions opts = parseCli(args, error);
    EXPECT_TRUE(error.empty()) << error;
    return opts;
}

std::string
parseErr(const std::vector<std::string> &args)
{
    std::string error;
    parseCli(args, error);
    EXPECT_FALSE(error.empty());
    return error;
}

TEST(Cli, DefaultsAreSane)
{
    const CliOptions opts = parseOk({});
    EXPECT_EQ(opts.machine.numCores, 4u);
    EXPECT_EQ(opts.l2.scheme, SchemeKind::Vantage);
    EXPECT_EQ(opts.l2.array, ArrayKind::Z4_52);
    EXPECT_EQ(opts.l2.lines, 32768u); // 2 MB small machine.
    EXPECT_TRUE(opts.mix.has_value());
    EXPECT_FALSE(opts.showHelp);
}

TEST(Cli, HelpShortCircuits)
{
    EXPECT_TRUE(parseOk({"--help"}).showHelp);
    EXPECT_TRUE(parseOk({"-h"}).showHelp);
    EXPECT_FALSE(cliUsage().empty());
}

TEST(Cli, SchemeAndArrayNames)
{
    const CliOptions opts =
        parseOk({"--scheme", "pipp", "--array", "sa16"});
    EXPECT_EQ(opts.l2.scheme, SchemeKind::Pipp);
    EXPECT_EQ(opts.l2.array, ArrayKind::SA16);
}

TEST(Cli, AllSchemeNamesResolve)
{
    for (const char *name :
         {"lru", "srrip", "drrip", "tadrrip", "waypart", "pipp",
          "vantage", "vantage-drrip", "vantage-oracle"}) {
        EXPECT_TRUE(schemeFromName(name).has_value()) << name;
    }
    EXPECT_FALSE(schemeFromName("bogus").has_value());
}

TEST(Cli, AllArrayNamesResolve)
{
    for (const char *name :
         {"z4-52", "z4-16", "sa16", "sa64", "random"}) {
        EXPECT_TRUE(arrayFromName(name).has_value()) << name;
    }
    EXPECT_FALSE(arrayFromName("bogus").has_value());
}

TEST(Cli, MixWithSeed)
{
    const CliOptions opts = parseOk({"--mix", "12:3"});
    ASSERT_TRUE(opts.mix.has_value());
    EXPECT_EQ(opts.mix->first, 12u);
    EXPECT_EQ(opts.mix->second, 3u);
}

TEST(Cli, AppsInferCoreCount)
{
    const CliOptions opts = parseOk({"--apps", "mcf,gcc,lbm"});
    EXPECT_EQ(opts.machine.numCores, 3u);
    EXPECT_EQ(opts.apps.size(), 3u);
    EXPECT_EQ(opts.apps[1], "gcc");
    EXPECT_EQ(opts.l2.numPartitions, 3u);
}

TEST(Cli, TracesInferCoreCount)
{
    const CliOptions opts = parseOk({"--traces", "a.t,b.t"});
    EXPECT_EQ(opts.machine.numCores, 2u);
    EXPECT_EQ(opts.traces.size(), 2u);
}

TEST(Cli, BigMachinePicksLargeDefaults)
{
    const CliOptions opts = parseOk({"--mix", "0", "--cores", "32"});
    EXPECT_EQ(opts.machine.numCores, 32u);
    EXPECT_EQ(opts.l2.lines, 131072u); // 8 MB.
    EXPECT_EQ(opts.machine.ucp.umonWays, 64u);
}

TEST(Cli, VantageKnobs)
{
    const CliOptions opts = parseOk({"--unmanaged", "0.2", "--amax",
                                     "0.4", "--slack", "0.05"});
    EXPECT_DOUBLE_EQ(opts.l2.vantage.unmanagedFraction, 0.2);
    EXPECT_DOUBLE_EQ(opts.l2.vantage.maxAperture, 0.4);
    EXPECT_DOUBLE_EQ(opts.l2.vantage.slack, 0.05);
}

TEST(Cli, RunControls)
{
    const CliOptions opts =
        parseOk({"--instrs", "123", "--warmup", "45", "--seed", "9",
                 "--no-ucp", "--repartition", "1000"});
    EXPECT_EQ(opts.scale.instructions, 123u);
    EXPECT_EQ(opts.scale.warmupAccesses, 45u);
    EXPECT_EQ(opts.seed, 9u);
    EXPECT_FALSE(opts.machine.useUcp);
    EXPECT_EQ(opts.machine.repartitionCycles, 1000u);
}

TEST(Cli, ObservabilityFlags)
{
    const CliOptions opts =
        parseOk({"--stats-out", "out.json", "--trace-out",
                 "trace.csv", "--stats-period", "500"});
    EXPECT_EQ(opts.statsOut, "out.json");
    EXPECT_EQ(opts.traceOut, "trace.csv");
    EXPECT_EQ(opts.scale.statsPeriod, 500u);
}

TEST(Cli, ObservabilityDefaultsAreOff)
{
    const CliOptions opts = parseOk({});
    EXPECT_TRUE(opts.statsOut.empty());
    EXPECT_TRUE(opts.traceOut.empty());
    EXPECT_EQ(opts.scale.statsPeriod, 10'000u);
}

TEST(Cli, InlineValueForm)
{
    const CliOptions opts =
        parseOk({"--stats-out=s.json", "--trace-out=t.csv",
                 "--stats-period=250", "--scheme=pipp",
                 "--instrs=77"});
    EXPECT_EQ(opts.statsOut, "s.json");
    EXPECT_EQ(opts.traceOut, "t.csv");
    EXPECT_EQ(opts.scale.statsPeriod, 250u);
    EXPECT_EQ(opts.l2.scheme, SchemeKind::Pipp);
    EXPECT_EQ(opts.scale.instructions, 77u);
}

TEST(Cli, EventTracingFlags)
{
    const CliOptions opts =
        parseOk({"--events-out", "events.json",
                 "--trace-categories", "vantage,pool",
                 "--heartbeat", "5000"});
    EXPECT_EQ(opts.eventsOut, "events.json");
    EXPECT_EQ(opts.traceCategories, kTraceVantage | kTracePool);
    EXPECT_EQ(opts.scale.heartbeatEvery, 5000u);
}

TEST(Cli, EventTracingDefaults)
{
    const CliOptions opts = parseOk({});
    EXPECT_TRUE(opts.eventsOut.empty());
    EXPECT_EQ(opts.traceCategories, kTraceAllCategories);
    EXPECT_EQ(opts.scale.heartbeatEvery, 0u);
}

TEST(Cli, EventTracingInlineForm)
{
    const CliOptions opts =
        parseOk({"--events-out=e.json", "--trace-categories=all",
                 "--heartbeat=100"});
    EXPECT_EQ(opts.eventsOut, "e.json");
    EXPECT_EQ(opts.traceCategories, kTraceAllCategories);
    EXPECT_EQ(opts.scale.heartbeatEvery, 100u);
}

TEST(Cli, EventTracingErrors)
{
    EXPECT_NE(parseErr({"--events-out"}).find("value"),
              std::string::npos);
    EXPECT_NE(parseErr({"--events-out", ""}).find("value"),
              std::string::npos);
    EXPECT_NE(parseErr({"--trace-categories", "bogus"})
                  .find("unknown trace category"),
              std::string::npos);
    EXPECT_NE(parseErr({"--trace-categories="}).find("empty"),
              std::string::npos);
    EXPECT_NE(parseErr({"--heartbeat", "0"}).find("heartbeat"),
              std::string::npos);
    EXPECT_NE(parseErr({"--heartbeat", "junk"}).find("heartbeat"),
              std::string::npos);
}

TEST(Cli, ObservabilityErrors)
{
    EXPECT_NE(parseErr({"--stats-out"}).find("value"),
              std::string::npos);
    EXPECT_NE(parseErr({"--stats-out", ""}).find("value"),
              std::string::npos);
    EXPECT_NE(parseErr({"--trace-out="}).find("value"),
              std::string::npos);
    EXPECT_NE(parseErr({"--stats-period", "0"})
                  .find("stats-period"),
              std::string::npos);
    EXPECT_NE(parseErr({"--stats-period", "junk"})
                  .find("stats-period"),
              std::string::npos);
    // Flags that take no value reject the inline form.
    EXPECT_NE(parseErr({"--no-ucp=x"}).find("takes no value"),
              std::string::npos);
}

TEST(Cli, Errors)
{
    EXPECT_NE(parseErr({"--bogus"}).find("unknown option"),
              std::string::npos);
    EXPECT_NE(parseErr({"--scheme", "nope"}).find("unknown scheme"),
              std::string::npos);
    EXPECT_NE(parseErr({"--mix", "99"}).find("0-34"),
              std::string::npos);
    EXPECT_NE(parseErr({"--instrs"}).find("value"),
              std::string::npos);
    EXPECT_NE(parseErr({"--mix", "1", "--apps", "gcc"})
                  .find("choose one"),
              std::string::npos);
    EXPECT_NE(parseErr({"--cores", "0"}).find("cores"),
              std::string::npos);
    EXPECT_NE(parseErr({"--mix", "0", "--cores", "6"})
                  .find("multiple of 4"),
              std::string::npos);
    // A zero UCP interval would never advance the next repartition.
    EXPECT_NE(parseErr({"--repartition", "0"})
                  .find("bad --repartition value"),
              std::string::npos);
}

TEST(Cli, VantageKnobRangesAreParseErrors)
{
    // Out-of-range knobs must fail parsing (exit 1 in vsim), not
    // reach the controller and trip an assert there.
    EXPECT_NE(parseErr({"--unmanaged", "1.5"}).find("(0, 1)"),
              std::string::npos);
    EXPECT_NE(parseErr({"--unmanaged", "0"}).find("(0, 1)"),
              std::string::npos);
    EXPECT_NE(parseErr({"--unmanaged", "-0.3"}).find("(0, 1)"),
              std::string::npos);
    EXPECT_NE(parseErr({"--amax", "0"}).find("(0, 1]"),
              std::string::npos);
    EXPECT_NE(parseErr({"--amax", "2"}).find("(0, 1]"),
              std::string::npos);
    EXPECT_NE(parseErr({"--slack", "0"}).find("(0, 1)"),
              std::string::npos);
    EXPECT_NE(parseErr({"--slack", "1.5"}).find("(0, 1)"),
              std::string::npos);
    // In-range values parse.
    const CliOptions opts =
        parseOk({"--unmanaged", "0.1", "--amax", "1.0", "--slack",
                 "0.2"});
    EXPECT_DOUBLE_EQ(opts.l2.vantage.unmanagedFraction, 0.1);
    EXPECT_DOUBLE_EQ(opts.l2.vantage.maxAperture, 1.0);
}

TEST(Cli, JobsValidation)
{
    EXPECT_NE(parseErr({"--jobs", "0"}).find("jobs"),
              std::string::npos);
    EXPECT_NE(parseErr({"--jobs", "many"}).find("jobs"),
              std::string::npos);
    EXPECT_EQ(parseOk({"--jobs", "4"}).scale.jobs, 4u);
}

TEST(Cli, DigestFlag)
{
    EXPECT_FALSE(parseOk({}).digest);
    EXPECT_TRUE(parseOk({"--digest"}).digest);
    EXPECT_NE(parseErr({"--digest=1"}).find("takes no value"),
              std::string::npos);
}

TEST(Cli, Banks)
{
    EXPECT_EQ(parseOk({}).banks, 0u);
    EXPECT_EQ(parseOk({"--banks", "8"}).banks, 8u);
    // Inline value form.
    EXPECT_EQ(parseOk({"--banks=16"}).banks, 16u);
}

TEST(Cli, BanksValidation)
{
    EXPECT_NE(parseErr({"--banks", "0"}).find("--banks"),
              std::string::npos);
    EXPECT_NE(parseErr({"--banks", "lots"}).find("--banks"),
              std::string::npos);
    EXPECT_NE(parseErr({"--banks", "2000"}).find("--banks"),
              std::string::npos);
    // Banks must divide the L2 line count (32768 default).
    EXPECT_NE(parseErr({"--banks", "7"}).find("divide"),
              std::string::npos);
}

TEST(Cli, BanksRejectedByTenantModes)
{
    // Serve, replay and lifecycle simulate a flat L2; --banks must be
    // refused there, not silently ignored.
    using Args = std::vector<std::string>;
    for (const Args &mode : {Args{"--serve", "0"},
                             Args{"--replay", "/tmp/none.journal"},
                             Args{"--lifecycle", "20000"}}) {
        Args args = mode;
        args.insert(args.end(), {"--banks", "8"});
        EXPECT_NE(parseErr(args).find("--banks does not apply"),
                  std::string::npos)
            << mode[0];
        EXPECT_EQ(parseOk(mode).banks, 0u) << mode[0];
    }
}

TEST(Cli, TenantModesRefuseFlagsTheyDrop)
{
    // Each option is refused by name, naming the mode, where the
    // tenant simulator would otherwise ignore it.
    using Args = std::vector<std::string>;
    const Args serve = {"--serve", "0"};
    const Args replay = {"--replay", "/tmp/none.journal"};
    const Args lifecycle = {"--lifecycle", "20000"};
    const auto with = [](Args mode, const Args &flag) {
        mode.insert(mode.end(), flag.begin(), flag.end());
        return mode;
    };
    const auto refused = [&](const Args &mode, const Args &flag) {
        const std::string err = parseErr(with(mode, flag));
        EXPECT_NE(err.find(flag[0] + " does not apply to " + mode[0]),
                  std::string::npos)
            << flag[0] << " under " << mode[0] << ": " << err;
    };
    for (const Args &mode : {serve, replay, lifecycle}) {
        for (const Args &flag :
             {Args{"--heartbeat", "1000"},
              Args{"--heartbeat-out", "hb.log"},
              Args{"--stats-out", "s.json"},
              Args{"--trace-out", "t.csv"},
              Args{"--events-out", "e.json"}}) {
            refused(mode, flag);
        }
    }
    const Args metrics = {"--metrics-port", "0"};
    EXPECT_EQ(parseOk(with(serve, metrics)).metricsPort, 0);
    refused(replay, metrics);
    refused(lifecycle, metrics);
    for (const Args &flag :
         {Args{"--slo", "slack=0.1"}, Args{"--qos-out", "q.jsonl"}}) {
        parseOk(with(serve, flag));
        parseOk(with(lifecycle, flag));
        refused(replay, flag);
    }
}

} // namespace
} // namespace vantage
