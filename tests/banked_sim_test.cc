/**
 * @file
 * Banked-L2 simulation pins: whole CmpSim runs over a BankedCache
 * (paper Table 2's per-bank Vantage controllers) must reproduce the
 * pinned access digest, L2 writebacks and per-partition actual sizes.
 * The digest is the bank-major merge of the per-bank streams, so any
 * drift in routing, per-bank replacement, allocation replication or
 * the merge order shows up here. The Vantage-DRRIP run is the only
 * coverage of BankedCache::applyBrrip through CmpSim: no banked
 * golden runs Vantage-DRRIP.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/digest.h"
#include "sim/experiment.h"
#include "workload/mixes.h"

namespace vantage {
namespace {

struct BankedRun
{
    std::uint64_t digest = 0;
    std::uint64_t writebacks = 0;
    std::vector<std::uint64_t> actual;
};

L2Spec
smallBankedSpec(SchemeKind scheme)
{
    L2Spec spec;
    spec.scheme = scheme;
    spec.array = ArrayKind::Z4_52;
    spec.numPartitions = 4;
    spec.lines = 4096;
    spec.vantage.unmanagedFraction = 0.05;
    spec.vantage.maxAperture = 0.4;
    spec.vantage.slack = 0.1;
    return spec;
}

BankedRun
runBanked(SchemeKind scheme, std::uint32_t banks)
{
    CmpConfig cfg = CmpConfig::small4Core();
    cfg.repartitionCycles = 100'000; // Several reallocations.
    const auto apps = makeMix(2, 1, 0); // Mixed-sensitivity apps.

    CmpSim sim(cfg, apps, buildBankedL2(smallBankedSpec(scheme), banks),
               /*seed=*/1);
    AccessDigest digest;
    sim.sharedL2().attachDigest(&digest);
    sim.warmup(10'000);
    sim.sharedL2().resetStats();
    sim.run(120'000);

    BankedRun out;
    out.writebacks = sim.sharedL2().writebacks();
    sim.sharedL2().finalizeDigest();
    out.digest = digest.value();
    for (PartId p = 0; p < sim.sharedL2().numPartitions(); ++p) {
        out.actual.push_back(sim.sharedL2().actualSize(p));
    }
    return out;
}

TEST(BankedSim, VantageFourBanks)
{
    const BankedRun r = runBanked(SchemeKind::Vantage, 4);
    EXPECT_EQ(r.digest, 0x98c3f32f120b9609ull);
    EXPECT_EQ(r.writebacks, 30307u);
    EXPECT_EQ(r.actual,
              (std::vector<std::uint64_t>{278, 312, 75, 3289}));
}

TEST(BankedSim, VantageTwoBanks)
{
    const BankedRun r = runBanked(SchemeKind::Vantage, 2);
    EXPECT_EQ(r.digest, 0x4b00cdba5bd646a2ull);
    EXPECT_EQ(r.writebacks, 30301u);
    EXPECT_EQ(r.actual,
              (std::vector<std::uint64_t>{114, 311, 80, 3352}));
}

TEST(BankedSim, VantageDrripAppliesBrripPerBank)
{
    const BankedRun r = runBanked(SchemeKind::VantageDrrip, 4);
    EXPECT_EQ(r.digest, 0xf1a8cf4de4a06c94ull);
    EXPECT_EQ(r.writebacks, 30416u);
    EXPECT_EQ(r.actual,
              (std::vector<std::uint64_t>{397, 171, 161, 2938}));
}

} // namespace
} // namespace vantage
