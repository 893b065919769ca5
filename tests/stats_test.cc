/**
 * @file
 * Tests for statistics utilities: counters, CDFs, the table printer,
 * and the observability layer (JSON writer/parser, stats registry,
 * controller trace, profiling sites).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/vantage.h"
#include "sim/experiment.h"
#include "stats/cdf.h"
#include "stats/counters.h"
#include "stats/json.h"
#include "stats/registry.h"
#include "stats/table.h"
#include "stats/trace.h"
#include "workload/mixes.h"

namespace vantage {
namespace {

// ---------------------------------------------------------------
// Counter / RunningStat
// ---------------------------------------------------------------

TEST(Counter, IncrementAndReset)
{
    Counter c("evictions");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    EXPECT_EQ(c.name(), "evictions");
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.add(x);
    }
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

// ---------------------------------------------------------------
// EmpiricalCdf
// ---------------------------------------------------------------

TEST(EmpiricalCdf, EmptyReturnsZero)
{
    EmpiricalCdf cdf;
    EXPECT_EQ(cdf.samples(), 0u);
    EXPECT_EQ(cdf.at(0.5), 0.0);
}

TEST(EmpiricalCdf, UniformSamplesMatchIdentity)
{
    EmpiricalCdf cdf;
    Rng rng(3);
    for (int i = 0; i < 200000; ++i) {
        cdf.add(rng.uniform());
    }
    for (double x = 0.1; x < 1.0; x += 0.1) {
        EXPECT_NEAR(cdf.at(x), x, 0.01);
    }
}

TEST(EmpiricalCdf, PointMass)
{
    EmpiricalCdf cdf(100);
    for (int i = 0; i < 100; ++i) {
        cdf.add(0.75);
    }
    EXPECT_NEAR(cdf.at(0.74), 0.0, 1e-9);
    EXPECT_NEAR(cdf.at(0.76), 1.0, 1e-9);
    EXPECT_NEAR(cdf.quantile(0.5), 0.75, 0.02);
}

TEST(EmpiricalCdf, ClampsOutOfRange)
{
    EmpiricalCdf cdf(10);
    cdf.add(-3.0);
    cdf.add(17.0);
    EXPECT_EQ(cdf.samples(), 2u);
    EXPECT_NEAR(cdf.quantile(0.01), 0.1, 1e-9);
    EXPECT_NEAR(cdf.quantile(1.0), 1.0, 1e-9);
}

TEST(EmpiricalCdf, QuantileInvertsAt)
{
    EmpiricalCdf cdf;
    Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
        cdf.add(rng.uniform() * rng.uniform()); // Skewed low.
    }
    for (double q = 0.1; q < 1.0; q += 0.2) {
        const double x = cdf.quantile(q);
        EXPECT_NEAR(cdf.at(x), q, 0.02);
    }
}

TEST(EmpiricalCdf, ResetClears)
{
    EmpiricalCdf cdf;
    cdf.add(0.4);
    cdf.reset();
    EXPECT_EQ(cdf.samples(), 0u);
}

TEST(EmpiricalCdfDeath, BadQuantilePanics)
{
    EmpiricalCdf cdf;
    cdf.add(0.5);
    EXPECT_DEATH(cdf.quantile(1.5), "out of range");
}

// ---------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    // Header/separator/rows: 4 lines.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TablePrinter, FormatHelpers)
{
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
    EXPECT_EQ(TablePrinter::fmtSci(0.000123, 1), "1.2e-04");
}

TEST(TablePrinterDeath, WrongArityPanics)
{
    TablePrinter t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

// ---------------------------------------------------------------
// JsonWriter / JsonValue
// ---------------------------------------------------------------

TEST(Json, WriterEmitsNestedDocument)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.kv("n", std::uint64_t{42});
    w.kv("x", 0.5);
    w.kv("s", "hi\"there");
    w.kv("b", true);
    w.key("arr");
    w.beginArray();
    w.value(std::uint64_t{1});
    w.value(std::uint64_t{2});
    w.endArray();
    w.key("inner");
    w.beginObject();
    w.kv("y", std::int64_t{-3});
    w.endObject();
    w.endObject();

    std::string error;
    const JsonValue doc = JsonValue::parse(out.str(), error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(doc.find("n")->number, 42.0);
    EXPECT_DOUBLE_EQ(doc.find("x")->number, 0.5);
    EXPECT_EQ(doc.find("s")->str, "hi\"there");
    EXPECT_TRUE(doc.find("b")->boolean);
    ASSERT_TRUE(doc.find("arr")->isArray());
    EXPECT_EQ(doc.find("arr")->array.size(), 2u);
    EXPECT_DOUBLE_EQ(doc.find("inner.y")->number, -3.0);
    EXPECT_EQ(doc.find("inner.missing"), nullptr);
}

TEST(Json, NonFiniteBecomesNull)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.kv("nan", std::nan(""));
    w.endObject();
    EXPECT_NE(out.str().find("null"), std::string::npos);
}

TEST(Json, AllNonFiniteFormsRoundTripAsNull)
{
    // NaN, +Inf and -Inf must all serialize as null, and the
    // resulting document must parse back with null at those keys
    // (a NaN leak would produce invalid JSON instead).
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.kv("a", std::nan(""));
    w.kv("b", std::numeric_limits<double>::infinity());
    w.kv("c", -std::numeric_limits<double>::infinity());
    w.kv("d", 1.5);
    w.endObject();

    std::string error;
    const JsonValue doc = JsonValue::parse(out.str(), error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_TRUE(doc.find("a")->isNull());
    EXPECT_TRUE(doc.find("b")->isNull());
    EXPECT_TRUE(doc.find("c")->isNull());
    EXPECT_DOUBLE_EQ(doc.find("d")->number, 1.5);
    EXPECT_EQ(out.str().find("inf"), std::string::npos);
    EXPECT_EQ(out.str().find("nan"), std::string::npos);
}

TEST(Json, ParseRejectsGarbage)
{
    std::string error;
    JsonValue::parse("{\"a\": }", error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("{\"a\": 1} trailing", error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("{\"a\": 1}", error);
    EXPECT_TRUE(error.empty());
}

// ---------------------------------------------------------------
// StatsRegistry
// ---------------------------------------------------------------

TEST(StatsRegistry, RegistersAndReadsLive)
{
    StatsRegistry reg;
    Counter c("demotions");
    std::uint64_t raw = 0;
    double gauge = 1.5;
    reg.addCounter("cache.l2.demotions", &c);
    reg.addCounter("cache.l2.raw", &raw);
    reg.addGauge("cache.l2.occupancy", [&] { return gauge; });
    reg.addString("run.config", "vantage-z4");

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.contains("cache.l2.demotions"));
    EXPECT_FALSE(reg.contains("cache.l2.missing"));

    // Accessors read current values at export time, not copies.
    c.inc(7);
    raw = 11;
    gauge = 2.5;
    EXPECT_DOUBLE_EQ(*reg.value("cache.l2.demotions"), 7.0);
    EXPECT_DOUBLE_EQ(*reg.value("cache.l2.raw"), 11.0);
    EXPECT_DOUBLE_EQ(*reg.value("cache.l2.occupancy"), 2.5);
    EXPECT_FALSE(reg.value("run.config").has_value()); // Not scalar.
    EXPECT_FALSE(reg.value("nope").has_value());

    const auto paths = reg.paths();
    ASSERT_EQ(paths.size(), 4u);
    EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
}

TEST(StatsRegistry, JsonRoundTrip)
{
    StatsRegistry reg;
    Counter hits("hits");
    hits.inc(123);
    RunningStat rs;
    rs.add(1.0);
    rs.add(3.0);
    reg.addCounter("cache.l2.part0.hits", &hits);
    reg.addGauge("cache.l2.miss_rate", [] { return 0.25; });
    reg.addStat("cache.l2.latency", &rs);
    reg.addString("run.config", "test");

    std::ostringstream out;
    reg.writeJson(out);

    std::string error;
    const JsonValue doc = JsonValue::parse(out.str(), error);
    ASSERT_TRUE(error.empty()) << error << "\n" << out.str();
    EXPECT_DOUBLE_EQ(doc.find("cache.l2.part0.hits")->number, 123.0);
    EXPECT_DOUBLE_EQ(doc.find("cache.l2.miss_rate")->number, 0.25);
    EXPECT_DOUBLE_EQ(doc.find("cache.l2.latency.count")->number, 2.0);
    EXPECT_DOUBLE_EQ(doc.find("cache.l2.latency.mean")->number, 2.0);
    EXPECT_EQ(doc.find("run.config")->str, "test");
}

TEST(StatsRegistry, CsvFlattensScalars)
{
    StatsRegistry reg;
    Counter c("hits");
    c.inc(5);
    RunningStat rs;
    rs.add(2.0);
    reg.addCounter("a.hits", &c);
    reg.addGauge("a.rate", [] { return 0.5; });
    reg.addStat("a.lat", &rs);

    std::ostringstream out;
    reg.writeCsv(out);
    const std::string csv = out.str();
    EXPECT_NE(csv.find("path,kind,value"), std::string::npos);
    EXPECT_NE(csv.find("a.hits,counter,5"), std::string::npos);
    EXPECT_NE(csv.find("a.rate,gauge,0.5"), std::string::npos);
    EXPECT_NE(csv.find("a.lat.count,stat,1"), std::string::npos);
    EXPECT_NE(csv.find("a.lat.mean,stat,2"), std::string::npos);
}

TEST(StatsRegistryDeath, DuplicateAndCollidingPathsPanic)
{
    StatsRegistry reg;
    reg.addGauge("cache.l2.size", [] { return 0.0; });
    // Exact duplicate.
    EXPECT_DEATH(reg.addGauge("cache.l2.size", [] { return 0.0; }),
                 "duplicate");
    // Leaf used as a subtree.
    EXPECT_DEATH(
        reg.addGauge("cache.l2.size.bytes", [] { return 0.0; }),
        "collides");
    // Subtree used as a leaf.
    EXPECT_DEATH(reg.addGauge("cache.l2", [] { return 0.0; }),
                 "collides");
}

TEST(StatsRegistryDeath, UnwritablePathIsFatal)
{
    StatsRegistry reg;
    reg.addGauge("x", [] { return 1.0; });
    EXPECT_EXIT(reg.writeJsonFile("/nonexistent-dir/stats.json"),
                testing::ExitedWithCode(1), "cannot open");
    EXPECT_EXIT(reg.writeCsvFile("/nonexistent-dir/stats.csv"),
                testing::ExitedWithCode(1), "cannot open");
}

// ---------------------------------------------------------------
// ControllerTrace
// ---------------------------------------------------------------

TEST(ControllerTrace, DueEveryPeriod)
{
    ControllerTrace trace(100);
    EXPECT_EQ(trace.period(), 100u);
    EXPECT_TRUE(trace.due(100));
    EXPECT_TRUE(trace.due(200));
    EXPECT_FALSE(trace.due(101));
    EXPECT_FALSE(trace.due(199));
}

TEST(ControllerTrace, CsvRendersAllColumns)
{
    ControllerTrace trace(10);
    TraceSample s;
    s.access = 10;
    s.part = 2;
    s.targetSize = 100;
    s.actualSize = 104;
    s.aperture = 0.125;
    s.currentTs = 9;
    s.setpointTs = 7;
    s.candsSeen = 52;
    s.candsDemoted = 3;
    s.demotions = 400;
    s.promotions = 20;
    trace.record(s);

    std::ostringstream out;
    trace.writeCsv(out);
    const std::string csv = out.str();
    EXPECT_NE(csv.find(ControllerTrace::csvHeader()),
              std::string::npos);
    EXPECT_NE(csv.find("10,2,100,104,0.125"), std::string::npos);
    EXPECT_NE(csv.find("9,7,52,3,400,20"), std::string::npos);
}

TEST(ControllerTrace, CsvRoundTripsEveryField)
{
    // Parse the rendered CSV back field by field: a column drift
    // (reordering, dropped field, truncated precision) must fail
    // here even if substring spot-checks still pass.
    ControllerTrace trace(10);
    for (std::uint32_t p = 0; p < 3; ++p) {
        TraceSample s;
        s.access = 1000 + p;
        s.part = p;
        s.targetSize = 200 * (p + 1);
        s.actualSize = 200 * (p + 1) + 7;
        s.aperture = 0.0625 * (p + 1);
        s.currentTs = 30 + p;
        s.setpointTs = 20 + p;
        s.candsSeen = 52;
        s.candsDemoted = p;
        s.demotions = 1'000'000 + p;
        s.promotions = 500 + p;
        trace.record(s);
    }

    std::ostringstream out;
    trace.writeCsv(out);
    std::istringstream in(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, ControllerTrace::csvHeader());
    for (std::uint32_t p = 0; p < 3; ++p) {
        ASSERT_TRUE(std::getline(in, line)) << "row " << p;
        std::istringstream row(line);
        std::string cell;
        std::vector<std::string> cells;
        while (std::getline(row, cell, ',')) {
            cells.push_back(cell);
        }
        const TraceSample &s = trace.samples()[p];
        ASSERT_EQ(cells.size(), 11u);
        EXPECT_EQ(std::stoull(cells[0]), s.access);
        EXPECT_EQ(std::stoul(cells[1]), s.part);
        EXPECT_EQ(std::stoull(cells[2]), s.targetSize);
        EXPECT_EQ(std::stoull(cells[3]), s.actualSize);
        EXPECT_NEAR(std::stod(cells[4]), s.aperture, 1e-9);
        EXPECT_EQ(std::stoul(cells[5]), s.currentTs);
        EXPECT_EQ(std::stoul(cells[6]), s.setpointTs);
        EXPECT_EQ(std::stoul(cells[7]), s.candsSeen);
        EXPECT_EQ(std::stoul(cells[8]), s.candsDemoted);
        EXPECT_EQ(std::stoull(cells[9]), s.demotions);
        EXPECT_EQ(std::stoull(cells[10]), s.promotions);
    }
    EXPECT_FALSE(std::getline(in, line)); // No trailing rows.
}

TEST(ControllerTraceDeath, UnwritablePathIsFatal)
{
    ControllerTrace trace(10);
    EXPECT_EXIT(trace.writeCsvFile("/nonexistent-dir/trace.csv"),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(ControllerTrace, SamplesVantageControllerAtExactCadence)
{
    CmpConfig machine = CmpConfig::small4Core();
    L2Spec spec;
    spec.scheme = SchemeKind::Vantage;
    spec.array = ArrayKind::Z4_52;
    spec.numPartitions = machine.numCores;
    spec.lines = machine.l2Lines();
    CmpSim sim(machine, makeMix(0, 1, 0), buildL2(spec));
    auto &ctl = static_cast<VantageController &>(sim.l2().scheme());

    const std::uint64_t kPeriod = 1'000;
    ControllerTrace trace(kPeriod);
    ctl.attachTrace(&trace);
    sim.warmup(2'000);
    sim.run(30'000);

    ASSERT_FALSE(trace.empty());
    // One row per partition per sample point.
    ASSERT_EQ(trace.samples().size() % machine.numCores, 0u);

    std::uint64_t last_access = 0;
    for (std::size_t i = 0; i < trace.samples().size(); ++i) {
        const TraceSample &s = trace.samples()[i];
        EXPECT_EQ(s.part, i % machine.numCores);
        EXPECT_EQ(s.access % kPeriod, 0u);
        if (s.part == 0 && last_access != 0) {
            EXPECT_EQ(s.access, last_access + kPeriod);
        }
        if (s.part == 0) {
            last_access = s.access;
        }
        // Register-file sanity: sizes bounded by the cache, aperture
        // within [0, Amax].
        EXPECT_LE(s.actualSize, spec.lines);
        EXPECT_LE(s.targetSize, spec.lines);
        EXPECT_GE(s.aperture, 0.0);
        EXPECT_LE(s.aperture, spec.vantage.maxAperture + 1e-12);
    }
    // The last sample sits at the final full period boundary.
    EXPECT_EQ(trace.samples().back().access,
              (ctl.accessesSeen() / kPeriod) * kPeriod);

    trace.clear();
    EXPECT_TRUE(trace.empty());
}

} // namespace
} // namespace vantage
