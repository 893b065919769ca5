/**
 * @file
 * Tests for the partition QoS engine (obs/qos.h) and the controller
 * decision audit ring (obs/audit.h): SLO spec parsing, ring
 * bookkeeping, the violation raise/escalate/clear state machine over
 * synthetic snapshots, serve-path latency SLOs, and the end-to-end
 * acceptance path — shrinking a live partition's target mid-run must
 * raise a slack violation whose cause is visible in the audit trail.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/audit.h"
#include "obs/qos.h"
#include "sim/cmp_sim.h"
#include "sim/experiment.h"
#include "stats/registry.h"
#include "stats/snapshot.h"
#include "workload/mixes.h"

namespace vantage {
namespace {

// ---------------------------------------------------------------
// parseSloSpec
// ---------------------------------------------------------------

TEST(SloSpec, ParsesDefaultsAndPartitionScopes)
{
    QosConfig cfg;
    std::string err;
    ASSERT_TRUE(parseSloSpec(
        "slack=0.2,missrate=0.5;0:slack=0.1;3:latency_us=500",
        cfg, err))
        << err;
    EXPECT_DOUBLE_EQ(cfg.def.slackFrac, 0.2);
    EXPECT_DOUBLE_EQ(cfg.def.missRateDegrade, 0.5);
    EXPECT_LT(cfg.def.apertureCritBp, 0.0); // Untouched: disabled.
    EXPECT_LT(cfg.def.maxLatencyUs, 0.0);
    ASSERT_EQ(cfg.perPart.count(0), 1u);
    EXPECT_DOUBLE_EQ(cfg.perPart[0].slackFrac, 0.1);
    ASSERT_EQ(cfg.perPart.count(3), 1u);
    EXPECT_DOUBLE_EQ(cfg.perPart[3].maxLatencyUs, 500.0);

    QosConfig bp;
    ASSERT_TRUE(parseSloSpec("aperture_bp=9500", bp, err)) << err;
    EXPECT_DOUBLE_EQ(bp.def.apertureCritBp, 9500.0);
}

TEST(SloSpec, RejectsMalformedInput)
{
    const char *bad[] = {
        "frobs=1",        // Unknown key.
        "slack=banana",   // Non-numeric value.
        "slack=0.1;;",    // Empty clause.
        "slack",          // Missing '='.
        "",               // Empty spec.
    };
    for (const char *spec : bad) {
        QosConfig cfg;
        std::string err;
        EXPECT_FALSE(parseSloSpec(spec, cfg, err))
            << "accepted: " << spec;
        EXPECT_FALSE(err.empty()) << spec;
    }
}

// ---------------------------------------------------------------
// DecisionAudit ring
// ---------------------------------------------------------------

TEST(DecisionAudit, RingWrapsKeepingNewestAndTotals)
{
    DecisionAudit audit(4);
    EXPECT_EQ(audit.capacity(), 4u);
    for (std::uint32_t i = 1; i <= 10; ++i) {
        DecisionRecord rec;
        rec.kind = i % 2 == 0 ? DecisionKind::Repartition
                              : DecisionKind::SetpointShrink;
        rec.part = i % 3;
        rec.targetLines = i * 100;
        audit.record(rec);
    }
    EXPECT_EQ(audit.total(), 10u);
    EXPECT_EQ(audit.size(), 4u);
    EXPECT_EQ(audit.totalOf(DecisionKind::Repartition), 5u);
    EXPECT_EQ(audit.totalOf(DecisionKind::SetpointShrink), 5u);
    EXPECT_EQ(audit.totalOf(DecisionKind::ForcedEviction), 0u);
    EXPECT_EQ(audit.totalForPart(0), 3u); // i = 3, 6, 9.
    EXPECT_EQ(audit.totalForPart(1), 4u); // i = 1, 4, 7, 10.
    EXPECT_EQ(audit.totalForPart(99), 0u);

    // Retained records are the newest four, oldest first, with
    // record()-stamped monotonic sequence numbers.
    std::vector<std::uint64_t> seqs;
    audit.forEach([&](const DecisionRecord &rec) {
        seqs.push_back(rec.seq);
    });
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 8, 9, 10}));

    const std::vector<DecisionRecord> last = audit.tail(2);
    ASSERT_EQ(last.size(), 2u);
    EXPECT_EQ(last[0].seq, 9u);
    EXPECT_EQ(last[1].seq, 10u);
    EXPECT_EQ(last[1].targetLines, 1000u);

    // Asking for more than is retained returns what's there.
    EXPECT_EQ(audit.tail(100).size(), 4u);
}

TEST(DecisionAudit, JsonRenderingNamesTheRegisters)
{
    DecisionRecord rec;
    rec.seq = 7;
    rec.accessesSeen = 1234;
    rec.kind = DecisionKind::SetpointWiden;
    rec.part = 2;
    rec.targetLines = 4096;
    rec.actualLines = 4200;
    rec.apertureBp = 650;
    const std::string json = decisionJson(rec);
    EXPECT_NE(json.find("\"type\":\"decision\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"setpoint_widen\""),
              std::string::npos);
    EXPECT_NE(json.find("\"part\":2"), std::string::npos);
    EXPECT_NE(json.find("\"target_lines\":4096"), std::string::npos);
    EXPECT_NE(json.find("\"aperture_bp\":650"), std::string::npos);
}

// ---------------------------------------------------------------
// QosEngine state machine over synthetic snapshots
// ---------------------------------------------------------------

StatsSnapshot
makeSnap(std::uint64_t epoch,
         std::map<std::string, ScalarSample> values)
{
    StatsSnapshot snap;
    snap.epoch = epoch;
    snap.wallSeconds = static_cast<double>(epoch);
    snap.values = std::move(values);
    return snap;
}

ScalarSample
gauge(double value)
{
    return ScalarSample{false, value};
}

ScalarSample
counter(double value)
{
    return ScalarSample{true, value};
}

TEST(QosEngine, SlackRaisesEscalatesAndClears)
{
    QosConfig cfg;
    cfg.def.slackFrac = 0.1;
    cfg.critEpochs = 2;
    QosEngine qos(cfg);
    std::vector<QosEvent> events;
    qos.setSink([&](const QosEvent &ev) { events.push_back(ev); });

    // Epoch 1: 20% over a 100-line target — offending immediately.
    qos.step(makeSnap(1, {
        {"vantage.part1.target_lines", gauge(100)},
        {"vantage.part1.actual_lines", gauge(120)},
    }));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, QosEventType::Raise);
    EXPECT_EQ(events[0].violation.kind, QosKind::Slack);
    EXPECT_EQ(events[0].violation.part, 1u);
    EXPECT_EQ(events[0].violation.bucket, "vantage.part1");
    EXPECT_EQ(events[0].violation.severity, QosSeverity::Warning);
    EXPECT_NEAR(events[0].violation.value, 0.2, 1e-9);
    EXPECT_NEAR(events[0].violation.threshold, 0.1, 1e-9);

    // Epoch 2: still offending — second consecutive epoch hits
    // critEpochs and escalates.
    qos.step(makeSnap(2, {
        {"vantage.part1.target_lines", gauge(100)},
        {"vantage.part1.actual_lines", gauge(130)},
    }));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].type, QosEventType::Escalate);
    EXPECT_EQ(events[1].violation.severity, QosSeverity::Critical);
    EXPECT_EQ(events[1].violation.durationEpochs, 2u);
    EXPECT_EQ(qos.activeForPart(1), 1u);

    // Epoch 3: back inside the slack band — cleared.
    qos.step(makeSnap(3, {
        {"vantage.part1.target_lines", gauge(100)},
        {"vantage.part1.actual_lines", gauge(105)},
    }));
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[2].type, QosEventType::Clear);
    EXPECT_FALSE(events[2].violation.active);
    EXPECT_TRUE(qos.active().empty());

    // One raise total, attributed to the slack kind and part 1.
    EXPECT_EQ(qos.violationsTotal(), 1u);
    EXPECT_EQ(qos.totalOf(QosKind::Slack), 1u);
    EXPECT_EQ(qos.totalForPart(1), 1u);
    EXPECT_EQ(qos.totalForPart(0), 0u);
    EXPECT_EQ(qos.epochsSeen(), 3u);
}

TEST(QosEngine, RetiredSlotWithZeroTargetNeverOffends)
{
    QosConfig cfg;
    cfg.def.slackFrac = 0.1;
    QosEngine qos(cfg);
    // A retired slot drains: target 0, lines still present. That is
    // by design, not a violation.
    qos.step(makeSnap(1, {
        {"vantage.part0.target_lines", gauge(0)},
        {"vantage.part0.actual_lines", gauge(500)},
    }));
    EXPECT_EQ(qos.violationsTotal(), 0u);
    EXPECT_TRUE(qos.active().empty());
}

TEST(QosEngine, MissRateBaselineFreezesThenCatchesDegradation)
{
    QosConfig cfg;
    cfg.def.missRateDegrade = 0.5;
    cfg.baselineEpochs = 2;
    cfg.critEpochs = 99; // Keep it at Warning for this test.
    QosEngine qos(cfg);
    std::vector<QosEvent> events;
    qos.setSink([&](const QosEvent &ev) { events.push_back(ev); });

    auto snap = [&](std::uint64_t epoch, double hits, double misses) {
        return makeSnap(epoch, {
            {"cache.part0.hits", counter(hits)},
            {"cache.part0.misses", counter(misses)},
        });
    };

    // Epoch 1 arms the delta; epochs 2-3 record a 10% baseline.
    qos.step(snap(1, 0, 0));
    qos.step(snap(2, 90, 10));
    qos.step(snap(3, 180, 20));
    EXPECT_TRUE(events.empty());

    // Epoch 4: 10 hits / 20 misses this epoch — a 66% miss rate
    // against a 10% baseline with a 1.5x allowance.
    qos.step(snap(4, 190, 40));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, QosEventType::Raise);
    EXPECT_EQ(events[0].violation.kind, QosKind::MissRate);
    EXPECT_NEAR(events[0].violation.value, 20.0 / 30.0, 1e-9);
    EXPECT_NEAR(events[0].violation.threshold, 0.1 * 1.5, 1e-9);

    // Epoch 5: back near the baseline — cleared.
    qos.step(snap(5, 280, 41));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].type, QosEventType::Clear);
}

TEST(QosEngine, LatencySloFedByTheServeLayer)
{
    QosEngine qos; // No snapshot-derived SLOs at all.
    std::vector<QosEvent> events;
    qos.setSink([&](const QosEvent &ev) { events.push_back(ev); });

    qos.setLatencySlo(2, 1000.0); // HELLO carried latency_us=1000.
    qos.recordLatency(2, 1500.0);
    qos.step(makeSnap(1, {}));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, QosEventType::Raise);
    EXPECT_EQ(events[0].violation.kind, QosKind::Latency);
    EXPECT_EQ(events[0].violation.bucket, "serve.part2");
    EXPECT_EQ(events[0].violation.part, 2u);

    qos.recordLatency(2, 800.0);
    qos.step(makeSnap(2, {}));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].type, QosEventType::Clear);

    // Clearing the SLO (slot handed to a tenant without one) stops
    // evaluation even with a pending sample.
    qos.setLatencySlo(2, 0.0);
    qos.recordLatency(2, 9999.0);
    qos.step(makeSnap(3, {}));
    EXPECT_EQ(events.size(), 2u);
    EXPECT_EQ(qos.violationsTotal(), 1u);
}

TEST(QosEngine, VanishedBucketClearsItsViolations)
{
    QosConfig cfg;
    cfg.def.slackFrac = 0.1;
    QosEngine qos(cfg);
    std::vector<QosEvent> events;
    qos.setSink([&](const QosEvent &ev) { events.push_back(ev); });

    qos.step(makeSnap(1, {
        {"vantage.part3.target_lines", gauge(100)},
        {"vantage.part3.actual_lines", gauge(200)},
    }));
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(qos.activeForPart(3), 1u);

    // The partition retires: its guarded series drop out of the next
    // snapshot entirely. The violation must clear, not dangle.
    qos.step(makeSnap(2, {}));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].type, QosEventType::Clear);
    EXPECT_EQ(events[1].violation.bucket, "vantage.part3");
    EXPECT_TRUE(qos.active().empty());
}

TEST(QosEngine, EventJsonRoundsTheSchema)
{
    QosConfig cfg;
    cfg.def.slackFrac = 0.1;
    QosEngine qos(cfg);
    qos.step(makeSnap(1, {
        {"vantage.part1.target_lines", gauge(100)},
        {"vantage.part1.actual_lines", gauge(150)},
    }));
    ASSERT_EQ(qos.history().size(), 1u);
    const std::string json = qosEventJson(qos.history().front());
    EXPECT_NE(json.find("\"type\":\"raise\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"slack\""), std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"warning\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bucket\":\"vantage.part1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"active\":true"), std::string::npos);
}

// ---------------------------------------------------------------
// Acceptance: injected violation with an audit-trail cause
// ---------------------------------------------------------------

TEST(QosAcceptance, TargetShrinkRaisesSlackWithAuditCause)
{
    CmpConfig machine = CmpConfig::small4Core();
    L2Spec spec;
    spec.scheme = SchemeKind::Vantage;
    spec.array = ArrayKind::Z4_52;
    spec.numPartitions = machine.numCores;
    spec.lines = machine.l2Lines();
    CmpSim sim(machine, makeMix(0, 1, 0), buildL2(spec));

    DecisionAudit audit;
    ASSERT_TRUE(attachAudit(sim.sharedL2(), &audit));
    StatsRegistry reg;
    sim.registerLiveStats(reg);

    QosConfig qcfg;
    std::string err;
    ASSERT_TRUE(parseSloSpec("slack=0.10", qcfg, err)) << err;
    QosEngine qos(qcfg);

    // Reach steady state, then arm the engine's first snapshot.
    sim.warmup(5'000);
    sim.run(50'000);
    qos.step(takeSnapshot(reg, 1, 1.0));
    const std::uint64_t raisedBefore = qos.totalForPart(0);

    // Inject: shrink partition 0's target to ~1.5% of the managed
    // region. Its occupancy cannot drain instantly, so the next
    // epoch must find it far outside the slack band.
    PartitionScheme &scheme = sim.l2().scheme();
    const std::uint32_t quantum = scheme.allocationQuantum();
    std::vector<std::uint32_t> units(machine.numCores, 0);
    units[0] = quantum / 64;
    for (std::uint32_t p = 1; p < machine.numCores; ++p) {
        units[p] = (quantum - units[0]) / (machine.numCores - 1);
    }
    scheme.setAllocations(units);
    const std::uint64_t shrunk = scheme.targetSize(0);
    ASSERT_GT(scheme.actualSize(0), shrunk + shrunk / 10)
        << "occupancy drained before the check could run";

    qos.step(takeSnapshot(reg, 2, 2.0));

    // The violation is raised, about partition 0, for slack.
    EXPECT_GT(qos.totalForPart(0), raisedBefore);
    bool slackViolation = false;
    for (const QosViolation &viol : qos.active()) {
        if (viol.part == 0 && viol.kind == QosKind::Slack) {
            slackViolation = true;
            EXPECT_GT(viol.value, 0.10);
        }
    }
    EXPECT_TRUE(slackViolation);

    // ... and the audit trail names the cause: a Repartition record
    // for partition 0 carrying exactly the shrunken target.
    EXPECT_GT(audit.totalOf(DecisionKind::Repartition), 0u);
    bool cause = false;
    audit.forEach([&](const DecisionRecord &rec) {
        if (rec.kind == DecisionKind::Repartition && rec.part == 0 &&
            rec.targetLines == shrunk) {
            cause = true;
        }
    });
    EXPECT_TRUE(cause);
}

} // namespace
} // namespace vantage
