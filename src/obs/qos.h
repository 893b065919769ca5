/**
 * @file
 * Partition QoS engine: per-partition SLO evaluation over epoch
 * snapshots, with raise/escalate/clear violation tracking.
 *
 * The engine is a pure consumer of the snapshot layer
 * (stats/snapshot.h): each step() takes the latest StatsSnapshot,
 * derives the epoch delta against the previous one, discovers
 * per-partition metric buckets by path shape (`<base>.partN.<leaf>`),
 * and evaluates each bucket against its SLO:
 *
 *  - Slack: occupancy above the paper's R_max bound — ActualSize
 *    exceeds TargetSize * (1 + slackFrac) (Sec. 4.1; a partition that
 *    the controller cannot bring back inside its slack band).
 *  - ApertureSaturation: aperture at/above a basis-point ceiling,
 *    i.e. the Eq. 7 transfer function pinned at A_max — demotions are
 *    maxed out and the partition is still over target.
 *  - MissRate: per-epoch miss rate degraded beyond a fraction of the
 *    recorded baseline (the first baselineEpochs epochs with traffic).
 *  - Latency: serve-path p99 frame latency above a microsecond bound
 *    (fed by the serve layer via recordLatency(); snapshots carry no
 *    percentiles).
 *
 * Violations are stateful: raised on the first offending epoch
 * (Warning), escalated to Critical after critEpochs consecutive
 * offending epochs, cleared on the first clean one; every transition
 * is handed to the sink callback and kept in a bounded history. Like
 * the decision audit ring the engine only reads — attached to a run
 * it leaves access digests bit-identical (DESIGN.md §14).
 *
 * Threading: step()/recordLatency() are single-writer (the thread
 * driving the simulation or serve loop). The violation totals are
 * plain u64 counters registered by raw pointer, so a metrics sampler
 * may read them concurrently with relaxed loads; active()/history()
 * are writer-thread-only.
 */

#ifndef VANTAGE_OBS_QOS_H_
#define VANTAGE_OBS_QOS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/epoch_clock.h"
#include "stats/snapshot.h"

namespace vantage {

class StatsRegistry;

/** Which SLO a violation is against. */
enum class QosKind : std::uint8_t {
    Slack = 0,
    ApertureSaturation = 1,
    MissRate = 2,
    Latency = 3,
};

constexpr std::size_t kQosKinds = 4;

/** Stable lower_snake name ("slack", "aperture_saturation", ...). */
const char *qosKindName(QosKind kind);

enum class QosSeverity : std::uint8_t { Warning = 0, Critical = 1 };

const char *qosSeverityName(QosSeverity sev);

/**
 * Per-partition SLO. Negative fields are disabled; parse/merge only
 * overwrite fields a spec clause actually set.
 */
struct QosSlo
{
    /** Max occupancy overshoot: violated when actual > target *
     *  (1 + slackFrac) with target > 0. */
    double slackFrac = -1.0;
    /** Aperture ceiling in basis points of the Eq. 7 transfer
     *  function: violated when aperture_bp >= this. */
    double apertureCritBp = -1.0;
    /** Max miss-rate degradation vs the recorded baseline: violated
     *  when epoch miss rate > baseline * (1 + missRateDegrade). */
    double missRateDegrade = -1.0;
    /** Serve-path p99 frame latency bound, microseconds. */
    double maxLatencyUs = -1.0;

    /** Overlay `other`'s set (>= 0) fields onto this one. */
    void merge(const QosSlo &other);
};

struct QosConfig
{
    /** Default SLO for every partition. */
    QosSlo def;
    /** Per-partition overrides (merged over the default). */
    std::map<std::uint32_t, QosSlo> perPart;
    /** Epochs (with traffic) averaged into the miss-rate baseline. */
    std::uint32_t baselineEpochs = 3;
    /** Consecutive offending epochs before Warning -> Critical. */
    std::uint32_t critEpochs = 3;
    /** Partition slots pre-sized for per-part violation counters. */
    std::uint32_t maxParts = 64;
    /** Bounded event history retained for queries/output. */
    std::size_t historyCapacity = 256;
};

/**
 * Parse an SLO spec string into `cfg`:
 *
 *   spec    := clause (';' clause)*
 *   clause  := [part ':'] kv (',' kv)*
 *   kv      := key '=' value
 *   key     := slack | aperture_bp | missrate | latency_us
 *
 * Clauses without a partition prefix set the default SLO; `N:`
 * clauses override partition N. Example:
 *   "slack=0.2,missrate=0.5;0:slack=0.1;3:latency_us=500"
 * @return false (with `err` set) on malformed input.
 */
bool parseSloSpec(const std::string &spec, QosConfig &cfg,
                  std::string &err);

/** One active or historical violation. */
struct QosViolation
{
    /** Metric bucket the violation is about ("vantage.part2"). */
    std::string bucket;
    std::uint32_t part = 0;
    QosKind kind = QosKind::Slack;
    QosSeverity severity = QosSeverity::Warning;
    /** Observed value and the SLO bound it broke, in the kind's
     *  native unit (lines-over-bound fraction, bp, rate, us). */
    double value = 0.0;
    double threshold = 0.0;
    /** Snapshot epoch the violation was raised in. */
    std::uint64_t sinceEpoch = 0;
    /** Snapshot epoch of the latest evaluation (clear epoch once
     *  cleared). */
    std::uint64_t epoch = 0;
    /** Consecutive offending epochs so far. */
    std::uint64_t durationEpochs = 0;
    bool active = false;
};

enum class QosEventType : std::uint8_t {
    Raise = 0,
    Escalate = 1,
    Clear = 2,
};

const char *qosEventTypeName(QosEventType type);

/** A violation state transition, as handed to the sink. */
struct QosEvent
{
    QosEventType type = QosEventType::Raise;
    QosViolation violation;
};

/** One-line JSON rendering of an event (JSONL output, heartbeats). */
std::string qosEventJson(const QosEvent &event);

struct DecisionRecord;

/** One-line JSON rendering of an audit record (--qos-out tail). */
std::string decisionJson(const DecisionRecord &rec);

/** Snapshot-driven SLO rule engine. */
class QosEngine
{
  public:
    using Sink = std::function<void(const QosEvent &)>;

    explicit QosEngine(QosConfig cfg = QosConfig{});

    /** Violation-transition callback; invoked from within step(). */
    void setSink(Sink sink) { sink_ = std::move(sink); }

    /**
     * Feed the latest serve-path p99 frame latency for a partition
     * (microseconds); evaluated against maxLatencyUs at the next
     * step(). Negative clears the sample.
     */
    void recordLatency(std::uint32_t part, double p99_us);

    /**
     * Evaluate one epoch: delta `cur` against the previous snapshot,
     * discover `<base>.partN.<leaf>` buckets, update violation state,
     * emit transitions. The first call only arms the baseline.
     */
    void step(const StatsSnapshot &cur);

    /** Currently-active violations (writer thread only). */
    std::vector<QosViolation> active() const;

    /** Recent transitions, oldest first (writer thread only). */
    const std::deque<QosEvent> &history() const { return history_; }

    /** Raise events ever emitted (monotonic). */
    std::uint64_t violationsTotal() const { return raiseTotal_; }

    std::uint64_t totalOf(QosKind kind) const
    {
        return kindTotals_[static_cast<std::size_t>(kind)];
    }

    /** Raise events ever emitted about `part` (0 beyond maxParts). */
    std::uint64_t totalForPart(std::uint32_t part) const
    {
        return part < partTotals_.size() ? partTotals_[part] : 0;
    }

    /** Currently-active violations about `part` (writer thread). */
    std::uint64_t activeForPart(std::uint32_t part) const;

    /**
     * Set (or with `us` <= 0 clear) partition `part`'s p99 latency SLO
     * at runtime — the serve layer calls this when a HELLO carries a
     * QoS block. Writer thread only.
     */
    void setLatencySlo(std::uint32_t part, double us);

    /** step() calls so far. */
    std::uint64_t epochsSeen() const { return epochsSeen_; }

    /**
     * Register violation counters under `prefix` (e.g. "vantage.slo"):
     * `<prefix>.violations_total`, per-kind totals, an active-count
     * gauge, and guarded `<prefix>.partN.violations_total` series
     * that appear once partition N is observed. Call before sampling
     * starts; the engine must outlive the registry's use.
     */
    void registerMetrics(StatsRegistry &reg, const std::string &prefix);

  private:
    /** Per-bucket, per-kind violation state machine. */
    struct RuleState
    {
        std::uint64_t consecutive = 0;
        QosViolation viol;
    };

    struct Bucket
    {
        std::uint32_t part = 0;
        /** Baseline miss-rate accumulation. */
        double baselineMisses = 0.0;
        double baselineAccesses = 0.0;
        std::uint32_t baselineEpochs = 0;
        bool baselineFrozen = false;
        double baselineMissRate = -1.0;
        RuleState rules[kQosKinds];
    };

    const QosSlo &sloFor(std::uint32_t part) const;
    void evaluate(const std::string &bucket_path, Bucket &bucket,
                  QosKind kind, bool offending, double value,
                  double threshold, std::uint64_t epoch);
    void emit(QosEventType type, const QosViolation &viol);

    QosConfig cfg_;
    Sink sink_;
    StatsSnapshot prev_;
    bool havePrev_ = false;
    std::uint64_t epochsSeen_ = 0;
    std::map<std::string, Bucket> buckets_;
    std::map<std::uint32_t, double> latencyP99Us_;
    std::deque<QosEvent> history_;

    // Metrics (sampler-readable raw u64s / single words).
    std::uint64_t raiseTotal_ = 0;
    std::uint64_t kindTotals_[kQosKinds] = {0, 0, 0, 0};
    std::vector<std::uint64_t> partTotals_;
    std::vector<std::uint8_t> partSeen_;
    std::uint64_t activeCount_ = 0;
};

/**
 * Steps a QosEngine on a simulator's epoch clock: each firing
 * evaluates a snapshot of `reg` numbered by the engine's step count
 * and clocked by the access count (no output shows the clock: step()
 * reads deltas).
 */
class QosStepper : public EpochObserver
{
  public:
    QosStepper(QosEngine &qos, const StatsRegistry &reg)
        : qos_(qos), reg_(reg)
    {
    }

    void
    onEpoch(std::uint64_t accesses) override
    {
        qos_.step(takeSnapshot(reg_, qos_.epochsSeen() + 1,
                               static_cast<double>(accesses)));
    }

  private:
    QosEngine &qos_;
    const StatsRegistry &reg_;
};

} // namespace vantage

#endif // VANTAGE_OBS_QOS_H_
