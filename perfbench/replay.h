/**
 * @file
 * Record/replay at the simulator's seams.
 *
 * The traced run records what crosses each injectable seam — every
 * reference an AccessStream hands a core, and every call into the
 * SharedL2 — and then replays each recorded stream through the
 * layer's public functions with a timer around every call:
 *
 *  - the L2 stream through a freshly built cache's CacheArray and
 *    PartitionScheme, one call at a time, mirroring Cache::access;
 *  - the same stream through Ucp (observe, and computeAllocations at
 *    each repartition);
 *  - each core's reference stream through a fresh private L1;
 *  - each core's AccessStream regenerated from its seed.
 *
 * Every replay is also a check: the component replay must produce the
 * recorded digest word of every access (outcome, victim partition,
 * demotion delta), UCP the recorded allocations, the L1s the recorded
 * L2 stream, and the regenerated streams the recorded references.
 */

#ifndef VBENCH_REPLAY_H_
#define VBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/ucp.h"
#include "cache/shared_l2.h"
#include "harness.h"
#include "sim/cmp_config.h"
#include "workload/access_stream.h"

namespace vbench {

using vantage::AccessType;
using vantage::Addr;
using vantage::PartId;

/** One call that crossed the SharedL2 seam. */
struct L2Call
{
    enum class Kind : std::uint8_t {
        Access,
        SetAllocations,
        ApplyBrrip,
        Create,
        Destroy,
        ResetStats,
    };

    Addr addr = 0;
    /** Partition (Access/Create/Destroy) or table index (others). */
    std::uint32_t arg = 0;
    Kind kind = Kind::Access;
    AccessType type = AccessType::Load;
};

/** Everything that crossed the SharedL2 seam during one run. */
struct L2Recording
{
    std::vector<L2Call> calls;
    /** Running digest after each Access call, in access order. */
    std::vector<std::uint64_t> digestAfter;
    std::vector<std::vector<std::uint32_t>> units;
    std::vector<std::vector<bool>> brrip;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    /** In-situ host time of SharedL2::access (recorder's timer). */
    LayerTimer inSitu;
};

/**
 * SharedL2 decorator that records every call into an L2Recording,
 * optionally timing access() in place. Observation only: every call
 * is forwarded unchanged, so outcomes and digests are those of the
 * inner L2. The digest it reads is the one attached through it.
 */
class RecordingL2 : public vantage::SharedL2
{
  public:
    RecordingL2(std::unique_ptr<vantage::SharedL2> inner,
                L2Recording &rec, bool timeAccesses);
    /** Non-owning variant. */
    RecordingL2(vantage::SharedL2 &inner, L2Recording &rec,
                bool timeAccesses);

    vantage::AccessResult access(Addr addr, PartId part,
                                 AccessType type) override;
    std::uint64_t writebacks() const override;
    std::uint32_t numPartitions() const override;
    std::uint32_t allocationQuantum() const override;
    void setAllocations(const std::vector<std::uint32_t> &units) override;
    void applyBrrip(const std::vector<bool> &brrip) override;
    bool wantsBrrip() const override;
    std::uint64_t targetSize(PartId part) const override;
    std::uint64_t actualSize(PartId part) const override;
    vantage::CacheAccessStats totalStats() const override;
    vantage::CacheAccessStats partAccessStats(PartId part) const override;
    void resetStats() override;
    void attachDigest(vantage::AccessDigest *digest) override;
    void finalizeDigest() override;
    void enableHistograms() override;
    void registerStats(vantage::StatsRegistry &reg,
                       const std::string &prefix) const override;
    void registerLiveIntrospection(
        vantage::StatsRegistry &reg) const override;
    void checkInvariants(vantage::InvariantReport &rep) const override;
    void createPartition(PartId part) override;
    void destroyPartition(PartId part) override;
    bool partitionActive(PartId part) const override;
    vantage::Cache *monoCache() override { return inner_.monoCache(); }

  private:
    void push(L2Call::Kind kind, std::uint32_t arg);

    std::unique_ptr<vantage::SharedL2> owned_;
    vantage::SharedL2 &inner_;
    L2Recording &rec_;
    bool time_;
    vantage::AccessDigest *digest_ = nullptr;
};

/** AccessStream decorator recording every reference it yields. */
class RecordingStream : public vantage::AccessStream
{
  public:
    RecordingStream(std::unique_ptr<vantage::AccessStream> inner,
                    std::vector<vantage::MemRef> &out)
        : inner_(std::move(inner)), out_(out)
    {
    }

    vantage::MemRef
    next() override
    {
        const vantage::MemRef ref = inner_->next();
        out_.push_back(ref);
        return ref;
    }

    double instrPerMem() const override { return inner_->instrPerMem(); }
    const std::string &name() const override { return inner_->name(); }

  private:
    std::unique_ptr<vantage::AccessStream> inner_;
    std::vector<vantage::MemRef> &out_;
};

/** Per-call timers and counts of the L2 component replay. */
struct ComponentTimes
{
    LayerTimer lookupHit;   ///< CacheArray::lookup, hits.
    LayerTimer lookupMiss;  ///< CacheArray::lookup, misses.
    LayerTimer onHit;       ///< PartitionScheme::onHit.
    LayerTimer walk;        ///< CacheArray::candidates.
    LayerTimer select;      ///< PartitionScheme::selectVictim.
    LayerTimer insert;      ///< onEvict + onInsert.
    LayerTimer replace;     ///< CacheArray::replace.
    LayerTimer control;     ///< Allocation/lifecycle calls.
    std::uint64_t candidates = 0;
    std::uint64_t demotions = 0;
    std::uint64_t forcedEvictions = 0;

    /** Summed host time of every timed call. */
    double totalNs() const;
};

/**
 * Replay `rec` through `fresh` (an L2 built exactly like the recorded
 * one, in the state it had when recording began) by calling its
 * array and scheme directly, with a timer around each call. Checks
 * every access's digest word against the recording.
 */
ComponentTimes replayComponents(vantage::SharedL2 &fresh,
                                const L2Recording &rec, RunResult &out);

/** Result of re-executing a recording through SharedL2::access. */
struct WholeReplay
{
    double seconds = 0.0;
    std::uint64_t digest = 0;
};

/** Re-execute `rec` through `fresh`'s own access() with a digest attached. */
WholeReplay replayWhole(vantage::SharedL2 &fresh, const L2Recording &rec);

/** One call into Ucp, as the simulation driver made it. */
struct UcpEvent
{
    enum class Kind : std::uint8_t {
        Observe,
        Repartition, ///< computeAllocations + nextInterval.
        Attach,
        Detach,
    };

    Addr addr = 0;
    /** Partition (Observe/Attach/Detach) or units index (Repartition). */
    std::uint32_t arg = 0;
    Kind kind = Kind::Observe;
};

/** The UCP call stream plus the allocations each repartition made. */
struct UcpLog
{
    std::vector<UcpEvent> events;
    std::vector<std::vector<std::uint32_t>> units;
    std::uint32_t quantum = 0;
};

/**
 * The UCP stream a CmpSim produced: one observe per L2 access and one
 * repartition per SetAllocations (CmpSim::maybeRepartition is the only
 * caller of SetAllocations).
 */
UcpLog ucpLogFromCmp(const L2Recording &rec, std::uint32_t quantum);

/** Per-call timers of the UCP replay. */
struct UcpTimes
{
    LayerTimer observe;
    LayerTimer repartition;
};

/**
 * Replay `log` through a fresh `ucp`, timing observe() and each
 * repartition (computeAllocations re-run and checked equal to the
 * recorded allocation).
 */
UcpTimes replayUcp(vantage::Ucp &ucp, const UcpLog &log, RunResult &out);

/** The private L1 a CmpSim core has (see CmpSim::buildCaches). */
std::unique_ptr<vantage::Cache> makeL1(const vantage::CmpConfig &cfg,
                                       std::uint32_t core);

/** Result of the L1 replay. */
struct L1Replay
{
    LayerTimer access;
    std::uint64_t hits = 0;
};

/**
 * Replay each core's recorded references through a fresh L1, checking
 * that the L1 misses of each core, in order, are exactly that core's
 * accesses in the L2 recording `l2`.
 */
L1Replay replayL1(const vantage::CmpConfig &cfg,
                  const std::vector<std::vector<vantage::MemRef>> &refs,
                  const L2Recording &l2, RunResult &out);

/**
 * Regenerate each recorded stream from `fresh` (streams built exactly
 * like the recorded ones), timing every next() and checking every
 * reference.
 */
LayerTimer replayStreams(
    std::vector<std::unique_ptr<vantage::AccessStream>> &fresh,
    const std::vector<std::vector<vantage::MemRef>> &refs,
    RunResult &out);

/**
 * Fill the per-layer metrics every workload shares from the replays
 * (`trace.*`, `sim.sched_ns` and `workload.next_ns` are the caller's).
 */
void reportComponentMetrics(const ComponentTimes &ct,
                            const L2Recording &rec, RunResult &out);

} // namespace vbench

#endif // VBENCH_REPLAY_H_
