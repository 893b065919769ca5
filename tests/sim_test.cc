/**
 * @file
 * End-to-end tests of the CMP simulator and experiment plumbing.
 */

#include <gtest/gtest.h>

#include "core/model.h"
#include "obs/audit.h"
#include "obs/qos.h"
#include "sim/experiment.h"
#include "sim/heartbeat.h"
#include "stats/json.h"
#include "stats/registry.h"
#include "workload/mixes.h"
#include "workload/profiles.h"

namespace vantage {
namespace {

RunScale
tinyScale()
{
    RunScale s;
    s.warmupAccesses = 5'000;
    s.instructions = 150'000;
    return s;
}

CmpConfig
tinyMachine()
{
    CmpConfig cfg = CmpConfig::small4Core();
    cfg.repartitionCycles = 100'000;
    return cfg;
}

L2Spec
specFor(SchemeKind scheme, ArrayKind array, std::uint32_t cores,
        std::uint64_t lines)
{
    L2Spec spec;
    spec.scheme = scheme;
    spec.array = array;
    spec.numPartitions = cores;
    spec.lines = lines;
    spec.vantage.unmanagedFraction = 0.05;
    spec.vantage.maxAperture = 0.5;
    spec.vantage.slack = 0.1;
    return spec;
}

TEST(Experiment, SpecNames)
{
    EXPECT_EQ(specFor(SchemeKind::Vantage, ArrayKind::Z4_52, 4, 1024)
                  .name(),
              "Vantage-Z4/52");
    EXPECT_EQ(specFor(SchemeKind::Pipp, ArrayKind::SA16, 4, 1024)
                  .name(),
              "PIPP-SA16");
}

TEST(Experiment, BuildAllConfigs)
{
    for (const auto scheme :
         {SchemeKind::UnpartLru, SchemeKind::UnpartSrrip,
          SchemeKind::UnpartDrrip, SchemeKind::UnpartTaDrrip,
          SchemeKind::WayPart, SchemeKind::Pipp, SchemeKind::Vantage,
          SchemeKind::VantageDrrip, SchemeKind::VantageOracle}) {
        for (const auto array :
             {ArrayKind::Z4_52, ArrayKind::SA16, ArrayKind::SA64}) {
            if ((scheme == SchemeKind::WayPart ||
                 scheme == SchemeKind::Pipp) &&
                array == ArrayKind::Z4_52) {
                continue; // Way schemes target SA arrays.
            }
            auto cache = buildL2(specFor(scheme, array, 4, 4096));
            ASSERT_NE(cache, nullptr);
            EXPECT_EQ(cache->scheme().numPartitions(), 4u);
        }
    }
}

TEST(Experiment, RunScaleEnvOverride)
{
    setenv("VANTAGE_INSTRS", "12345", 1);
    setenv("VANTAGE_MIX_SEEDS", "7", 1);
    const RunScale scale = RunScale::fromEnv();
    EXPECT_EQ(scale.instructions, 12345u);
    EXPECT_EQ(scale.mixSeedsPerClass, 7u);
    unsetenv("VANTAGE_INSTRS");
    unsetenv("VANTAGE_MIX_SEEDS");
}

TEST(CmpSim, RunsAndProducesSaneIpc)
{
    const CmpConfig cfg = tinyMachine();
    const auto apps = makeMix(34, 1, 0); // All-insensitive mix.
    const MixResult r =
        runMix(cfg, specFor(SchemeKind::UnpartLru, ArrayKind::SA16, 4,
                            cfg.l2Lines()),
               apps, tinyScale(), "nnnn0");
    ASSERT_EQ(r.cores.size(), 4u);
    for (const auto &core : r.cores) {
        EXPECT_GT(core.ipc(), 0.05);
        EXPECT_LE(core.ipc(), 1.0);
        EXPECT_EQ(core.instructions, 150'000u);
    }
    EXPECT_NEAR(r.throughput,
                r.cores[0].ipc() + r.cores[1].ipc() +
                    r.cores[2].ipc() + r.cores[3].ipc(),
                1e-9);
}

TEST(CmpSim, InsensitiveAppsBarelyMissL2)
{
    const CmpConfig cfg = tinyMachine();
    const auto apps = makeMix(34, 1, 0); // nnnn.
    const MixResult r =
        runMix(cfg, specFor(SchemeKind::UnpartLru, ArrayKind::SA16, 4,
                            cfg.l2Lines()),
               apps, tinyScale(), "nnnn0");
    for (const auto &core : r.cores) {
        EXPECT_LT(core.mpki(), 5.0)
            << "insensitive apps must stay under 5 L2 MPKI (Table 3)";
    }
}

TEST(CmpSim, StreamingAppsMissALot)
{
    const CmpConfig cfg = tinyMachine();
    const auto apps = makeMix(0, 1, 0); // ssss.
    const MixResult r =
        runMix(cfg, specFor(SchemeKind::UnpartLru, ArrayKind::SA16, 4,
                            cfg.l2Lines()),
               apps, tinyScale(), "ssss0");
    double total_mpki = 0.0;
    for (const auto &core : r.cores) {
        total_mpki += core.mpki();
    }
    EXPECT_GT(total_mpki / 4.0, 20.0);
}

TEST(CmpSim, DeterministicAcrossRuns)
{
    const CmpConfig cfg = tinyMachine();
    const auto apps = makeMix(10, 1, 2);
    const L2Spec spec = specFor(SchemeKind::Vantage, ArrayKind::Z4_52,
                                4, cfg.l2Lines());
    const MixResult a = runMix(cfg, spec, apps, tinyScale(), "m", 5);
    const MixResult b = runMix(cfg, spec, apps, tinyScale(), "m", 5);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
    }
}

TEST(CmpSim, RepartitionCallbackFires)
{
    const CmpConfig cfg = tinyMachine();
    const auto apps = makeMix(5, 1, 0);
    CmpSim sim(cfg, apps,
               buildL2(specFor(SchemeKind::Vantage, ArrayKind::Z4_52,
                               4, cfg.l2Lines())));
    int repartitions = 0;
    sim.onRepartition = [&](Cycle) { ++repartitions; };
    sim.warmup(20'000);
    sim.run(200'000);
    EXPECT_GT(repartitions, 2);
}

TEST(CmpSim, VantagePartitionSizesRespectTargets)
{
    const CmpConfig cfg = tinyMachine();
    // A mix with both thrashers and reusers stresses enforcement.
    const auto apps = makeMix(3, 1, 1); // sssn-ish class.
    CmpSim sim(cfg, apps,
               buildL2(specFor(SchemeKind::Vantage, ArrayKind::Z4_52,
                               4, cfg.l2Lines())));
    sim.warmup(50'000);
    sim.run(400'000);
    auto &ctl = static_cast<VantageController &>(sim.l2().scheme());
    // Individual partitions may legitimately sit above their target
    // mid-transient (the paper's Sec. 3.4: a just-downsized partition
    // drains at Amax). The controller's hard guarantee is aggregate:
    // the managed region as a whole can only outgrow its share by
    // the borrow + feedback-slack reserves, so the unmanaged region
    // never collapses.
    std::uint64_t total_managed = 0;
    for (PartId p = 0; p < 4; ++p) {
        total_managed += ctl.actualSize(p);
    }
    const double reserve =
        (model::worstCaseBorrow(0.5, 52) +
         model::aggregateOutgrowth(0.1, 0.5, 52)) *
        static_cast<double>(cfg.l2Lines());
    EXPECT_LE(static_cast<double>(total_managed),
              static_cast<double>(ctl.managedLines()) + reserve +
                  64.0);
    const auto &stats = ctl.stats();
    if (stats.evictions > 1000) {
        EXPECT_LT(static_cast<double>(stats.evictionsFromManaged) /
                      static_cast<double>(stats.evictions),
                  0.25);
    }
}

/** Heartbeat lines of one small CmpSim run, parsed. */
struct HeartbeatRun
{
    std::vector<JsonValue> beats;
    std::size_t warmupBeats = 0;
};

HeartbeatRun
runWithHeartbeat(bool with_qos, bool with_audit)
{
    const CmpConfig cfg = tinyMachine();
    CmpSim sim(cfg, makeMix(3, 1, 1),
               buildL2(specFor(SchemeKind::Vantage, ArrayKind::Z4_52,
                               4, cfg.l2Lines())));
    QosConfig qcfg;
    qcfg.def.slackFrac = 0.01; // Tight enough to raise violations.
    QosEngine qos(qcfg);
    DecisionAudit audit;
    StatsRegistry reg;
    sim.registerLiveStats(reg);
    QosStepper stepper(qos, reg);
    if (with_qos) {
        sim.addObserver(&stepper, 5'000);
    }
    if (with_audit) {
        EXPECT_TRUE(attachAudit(sim.sharedL2(), &audit));
    }
    std::vector<std::string> lines;
    Heartbeat heartbeat(
        sim, "contract",
        [&lines](const std::string &line) { lines.push_back(line); },
        with_qos ? &qos : nullptr, with_audit ? &audit : nullptr);
    sim.addObserver(&heartbeat, 10'000);

    HeartbeatRun out;
    sim.warmup(5'000);
    out.warmupBeats = lines.size();
    sim.run(50'000);
    for (const std::string &line : lines) {
        std::string error;
        out.beats.push_back(JsonValue::parse(line, error));
        EXPECT_TRUE(error.empty()) << error << ": " << line;
    }
    return out;
}

TEST(CmpSim, HeartbeatContract)
{
    const HeartbeatRun run = runWithHeartbeat(false, false);
    // The cadence counts accesses stepped across all cores, not per
    // core: a 5k-per-core warmup spans nine 10k beats.
    EXPECT_EQ(run.warmupBeats, 9u);
    ASSERT_EQ(run.beats.size(), 41u);
    for (std::size_t k = 0; k < run.beats.size(); ++k) {
        const JsonValue &beat = run.beats[k];
        ASSERT_TRUE(beat.isObject());
        EXPECT_EQ(beat.find("heartbeat")->number,
                  static_cast<double>(k + 1));
        EXPECT_EQ(beat.find("accesses")->number,
                  static_cast<double>((k + 1) * 10'000));
        EXPECT_EQ(beat.find("phase")->str,
                  k < run.warmupBeats ? "warmup" : "run");
        EXPECT_EQ(beat.find("label")->str, "contract");
        const JsonValue *parts = beat.find("parts");
        ASSERT_NE(parts, nullptr);
        ASSERT_TRUE(parts->isArray());
        EXPECT_EQ(parts->array.size(), 4u);
        EXPECT_EQ(beat.find("qos_active"), nullptr);
        EXPECT_EQ(beat.find("qos_violations_total"), nullptr);
        EXPECT_EQ(beat.find("decisions_total"), nullptr);
    }
    // Instructions retired by all cores when the first and last beats
    // fire (pinned: a beat runs after its access is stepped).
    EXPECT_EQ(run.beats.front().find("instructions")->number, 62877.0);
    EXPECT_EQ(run.beats.back().find("instructions")->number, 2820174.0);
}

TEST(CmpSim, HeartbeatCarriesQosFieldsOnlyWhenAttached)
{
    for (const bool with_qos : {false, true}) {
        for (const bool with_audit : {false, true}) {
            const HeartbeatRun run =
                runWithHeartbeat(with_qos, with_audit);
            ASSERT_EQ(run.beats.size(), 41u);
            for (const JsonValue &beat : run.beats) {
                EXPECT_EQ(beat.find("qos_active") != nullptr,
                          with_qos);
                EXPECT_EQ(beat.find("qos_violations_total") != nullptr,
                          with_qos);
                EXPECT_EQ(beat.find("decisions_total") != nullptr,
                          with_audit);
            }
            // Pinned: QoS steps every 5k accesses and, on an access
            // where both are due, before the beat reads its totals.
            const JsonValue &last = run.beats.back();
            if (with_qos) {
                double raised = 0.0, active = 0.0;
                for (const JsonValue &beat : run.beats) {
                    raised += beat.find("qos_violations_total")->number;
                    active += beat.find("qos_active")->number;
                }
                EXPECT_EQ(raised, 80.0);
                EXPECT_EQ(active, 5.0);
                EXPECT_EQ(last.find("qos_violations_total")->number,
                          6.0);
                EXPECT_EQ(last.find("qos_active")->number, 0.0);
            }
            if (with_audit) {
                EXPECT_EQ(last.find("decisions_total")->number, 578.0);
            }
        }
    }
}

TEST(CmpSim, WeightedSpeedupComputes)
{
    const CmpConfig cfg = tinyMachine();
    const auto apps = makeMix(20, 1, 0);
    CmpSim sim(cfg, apps,
               buildL2(specFor(SchemeKind::UnpartLru, ArrayKind::SA16,
                               4, cfg.l2Lines())));
    sim.warmup(5'000);
    sim.run(100'000);
    const double ws = sim.weightedSpeedup({1.0, 1.0, 1.0, 1.0});
    EXPECT_GT(ws, 0.0);
    EXPECT_NEAR(ws, sim.throughput(), 1e-9);
}

} // namespace
} // namespace vantage
