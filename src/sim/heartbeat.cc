#include "sim/heartbeat.h"

#include <cstdio>

#include "obs/audit.h"
#include "obs/qos.h"
#include "sim/cmp_sim.h"
#include "stats/json.h"
#include "stats/registry.h"
#include "trace/event_trace.h"

namespace vantage {

namespace {

/** `count` per second over `dt` as a JSON number; null when dt <= 0. */
std::string
jsonRate(std::uint64_t count, double dt)
{
    if (dt <= 0.0) {
        return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g",
                  static_cast<double>(count) / dt);
    return buf;
}

} // namespace

Heartbeat::Heartbeat(const CmpSim &sim, std::string label, Sink sink,
                     const QosEngine *qos, const DecisionAudit *audit)
    : sim_(sim), label_(std::move(label)), sink_(std::move(sink)),
      qos_(qos), audit_(audit),
      lastTime_(std::chrono::steady_clock::now())
{
}

void
Heartbeat::registerMetrics(StatsRegistry &reg) const
{
    reg.addCounter("sim.heartbeats", &seq_);
}

void
Heartbeat::onEpoch(std::uint64_t accesses)
{
    ++seq_;
    const auto now = std::chrono::steady_clock::now();
    const double dt =
        std::chrono::duration<double>(now - lastTime_).count();
    const std::uint64_t instrs = sim_.instructions();
    const SharedL2 &l2 = sim_.sharedL2();

    std::string line = "{\"heartbeat\":" + std::to_string(seq_) +
                       ",\"phase\":\"" + sim_.phase() +
                       "\",\"label\":\"" + JsonWriter::escape(label_) +
                       "\",\"accesses\":" + std::to_string(accesses) +
                       ",\"instructions\":" + std::to_string(instrs) +
                       ",\"acc_per_s\":" +
                       jsonRate(accesses - lastAccesses_, dt) +
                       ",\"instr_per_s\":" +
                       jsonRate(instrs - lastInstrs_, dt) +
                       ",\"parts\":[";
    for (PartId p = 0; p < l2.numPartitions(); ++p) {
        line += p == 0 ? "{" : ",{";
        line += "\"target\":" + std::to_string(l2.targetSize(p)) +
                ",\"actual\":" + std::to_string(l2.actualSize(p)) + '}';
    }
    line += "],\"trace_dropped\":" +
            std::to_string(TraceSession::instance().dropped());
    if (qos_ != nullptr) {
        line += ",\"qos_active\":" +
                std::to_string(qos_->active().size()) +
                ",\"qos_violations_total\":" +
                std::to_string(qos_->violationsTotal());
    }
    if (audit_ != nullptr) {
        line += ",\"decisions_total\":" + std::to_string(audit_->total());
    }
    line += '}';

    // A zero-elapsed interval (coarse clock, or beats closer than
    // its resolution) has no rate: keep the window open so the next
    // beat's rate covers the combined interval.
    if (dt > 0.0) {
        lastTime_ = now;
        lastAccesses_ = accesses;
        lastInstrs_ = instrs;
    }
    if (sink_) {
        sink_(line);
    } else {
        // One fprintf keeps concurrent writers out of a record.
        std::fprintf(stderr, "%s\n", line.c_str());
    }
}

} // namespace vantage
