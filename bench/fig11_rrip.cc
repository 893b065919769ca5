/**
 * @file
 * Figure 11: Vantage with alternative replacement policies vs the
 * RRIP family on Z4/52 zcaches (4-core machine, LRU-SA16 baseline).
 *
 * Configurations: SRRIP-Z4/52, DRRIP-Z4/52, TA-DRRIP-Z4/52 (all
 * unpartitioned), Vantage-LRU-Z4/52, Vantage-DRRIP-Z4/52 (3-bit
 * RRPVs, per-partition setpoint RRPV, UMON-RRIP dueling monitors).
 */

#include <cstdio>

#include "suite.h"

using namespace vantage;
using namespace vantage::bench;

int
main()
{
    const CmpConfig machine = CmpConfig::small4Core();
    RunScale defaults;
    defaults.warmupAccesses = 30'000;
    defaults.instructions = 500'000;
    const SuiteOptions opts =
        SuiteOptions::fromEnv(machine, 1, defaults,
                              /*default_stride=*/2);

    auto spec = [&](SchemeKind scheme) {
        L2Spec s;
        s.scheme = scheme;
        s.array = ArrayKind::Z4_52;
        s.numPartitions = machine.numCores;
        s.lines = machine.l2Lines();
        s.vantage.unmanagedFraction = 0.05;
        s.vantage.maxAperture = 0.5;
        s.vantage.slack = 0.1;
        return s;
    };
    L2Spec baseline;
    baseline.scheme = SchemeKind::UnpartLru;
    baseline.array = ArrayKind::SA16;
    baseline.numPartitions = machine.numCores;
    baseline.lines = machine.l2Lines();

    const std::vector<L2Spec> configs = {
        spec(SchemeKind::VantageDrrip),
        spec(SchemeKind::Vantage),
        spec(SchemeKind::UnpartTaDrrip),
        spec(SchemeKind::UnpartDrrip),
        spec(SchemeKind::UnpartSrrip),
    };
    const std::vector<std::string> names = {
        "Vantage-DRRIP", "Vantage-LRU", "TA-DRRIP", "DRRIP",
        "SRRIP"};

    std::printf("Figure 11: RRIP variants and Vantage on Z4/52 "
                "(4-core, vs LRU-SA16)\n\n");
    const auto rows = runSuite(opts, baseline, configs);

    std::printf("Sorted normalized throughput curves:\n");
    printSortedCurves(rows, names);

    std::printf("\nSummary:\n");
    printSummary(rows, names);
    writeBenchJson("fig11_rrip", rows, names);

    std::printf("\nPaper expectation: Vantage-LRU beats all "
                "unpartitioned RRIP variants (geomeans: TA-DRRIP "
                "2.5%%, Vantage-LRU 6.2%%); Vantage-DRRIP adds a "
                "little more (6.8%%).\n");
    return 0;
}
