/**
 * @file
 * Heartbeat: a CmpSim epoch observer. Added with
 * `sim.addObserver(&heartbeat, N)`, it emits one single-line JSON
 * progress record every N memory accesses stepped across all cores
 * (warmup included): sequence number, phase, label, accesses and
 * instructions so far, sim-loop rates since the previous record
 * (null when no wall time elapsed), per-partition target/actual
 * sizes, trace drops, and the QoS / audit totals when given those.
 */

#ifndef VANTAGE_SIM_HEARTBEAT_H_
#define VANTAGE_SIM_HEARTBEAT_H_

#include <chrono>
#include <functional>
#include <string>

#include "obs/epoch_clock.h"

namespace vantage {

class CmpSim;
class DecisionAudit;
class QosEngine;
class StatsRegistry;

class Heartbeat : public EpochObserver
{
  public:
    /** Receives one complete JSON line, no trailing newline. */
    using Sink = std::function<void(const std::string &)>;

    /**
     * `sim` must outlive this. An empty `sink` writes to stderr.
     * `qos` adds qos_active / qos_violations_total to each record,
     * `audit` adds decisions_total.
     */
    Heartbeat(const CmpSim &sim, std::string label, Sink sink = {},
              const QosEngine *qos = nullptr,
              const DecisionAudit *audit = nullptr);

    void onEpoch(std::uint64_t accesses) override;

    /** Export the record count as sim.heartbeats. */
    void registerMetrics(StatsRegistry &reg) const;

  private:
    const CmpSim &sim_;
    std::string label_;
    Sink sink_;
    const QosEngine *qos_;
    const DecisionAudit *audit_;
    std::uint64_t seq_ = 0;
    // Rate window: the last record that had elapsed time.
    std::uint64_t lastAccesses_ = 0, lastInstrs_ = 0;
    std::chrono::steady_clock::time_point lastTime_;
};

} // namespace vantage

#endif // VANTAGE_SIM_HEARTBEAT_H_
