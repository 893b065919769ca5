#include "sim/cmp_sim.h"

#include <algorithm>

#include "array/set_assoc.h"
#include "common/log.h"
#include "core/vantage_variants.h"
#include "partition/unpartitioned.h"
#include "replacement/lru.h"
#include "stats/registry.h"
#include "trace/event_trace.h"

namespace vantage {

CmpSim::CmpSim(const CmpConfig &cfg, std::vector<AppSpec> apps,
               std::unique_ptr<Cache> l2, std::uint64_t seed)
    : CmpSim(cfg, std::move(apps),
             std::make_unique<MonoL2>(std::move(l2)), seed)
{
}

CmpSim::CmpSim(const CmpConfig &cfg,
               std::vector<std::unique_ptr<AccessStream>> streams,
               std::unique_ptr<Cache> l2)
    : CmpSim(cfg, std::move(streams),
             std::make_unique<MonoL2>(std::move(l2)))
{
}

CmpSim::CmpSim(const CmpConfig &cfg, std::vector<AppSpec> apps,
               std::unique_ptr<SharedL2> l2, std::uint64_t seed)
    : cfg_(cfg), l2_(std::move(l2)),
      nextRepartition_(cfg.repartitionCycles)
{
    vantage_assert(apps.size() == cfg.numCores,
                   "%zu apps for %u cores", apps.size(), cfg.numCores);
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        apps_.push_back(std::make_unique<AppModel>(
            std::move(apps[c]), c, seed * 7919 + c));
    }
    buildCaches();
}

CmpSim::CmpSim(const CmpConfig &cfg,
               std::vector<std::unique_ptr<AccessStream>> streams,
               std::unique_ptr<SharedL2> l2)
    : cfg_(cfg), apps_(std::move(streams)), l2_(std::move(l2)),
      nextRepartition_(cfg.repartitionCycles)
{
    vantage_assert(apps_.size() == cfg.numCores,
                   "%zu streams for %u cores", apps_.size(),
                   cfg.numCores);
    for (const auto &stream : apps_) {
        vantage_assert(stream != nullptr, "null access stream");
    }
    buildCaches();
}

void
CmpSim::buildCaches()
{
    vantage_assert(l2_ != nullptr, "need a shared L2");
    vantage_assert(l2_->numPartitions() == cfg_.numCores,
                   "L2 has %u partitions for %u cores",
                   l2_->numPartitions(), cfg_.numCores);
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        l1s_.push_back(std::make_unique<Cache>(
            std::make_unique<SetAssocArray>(cfg_.l1Lines, cfg_.l1Ways,
                                            true, 0x11c0de + c),
            std::make_unique<Unpartitioned>(
                1, std::make_unique<ExactLru>()),
            "l1-" + std::to_string(c)));
    }
    cores_.resize(cfg_.numCores);
    clockHeap_.reset(cfg_.numCores);
    if (cfg_.useUcp) {
        // Vantage-DRRIP's per-partition dueling needs RRIP monitors.
        UcpConfig ucfg = cfg_.ucp;
        ucfg.rripMonitors = l2_->wantsBrrip();
        ucp_ = std::make_unique<Ucp>(cfg_.numCores, ucfg);
    }
}

Cache &
CmpSim::l2()
{
    Cache *mono = l2_->monoCache();
    vantage_assert(mono != nullptr, "l2() needs a flat L2 cache");
    return *mono;
}

const Cache &
CmpSim::l2() const
{
    Cache *mono = const_cast<SharedL2 &>(*l2_).monoCache();
    vantage_assert(mono != nullptr, "l2() needs a flat L2 cache");
    return *mono;
}

void
CmpSim::step(std::uint32_t core)
{
    CoreState &cs = cores_[core];
    AccessStream &app = *apps_[core];

    // Non-memory instructions run at IPC = 1. instrPerMem may be
    // fractional; carry the remainder across accesses.
    const double gap_f = app.instrPerMem() + cs.instrCarry;
    const auto gap = static_cast<std::uint64_t>(gap_f);
    cs.instrCarry = gap_f - static_cast<double>(gap);
    cs.cycle += gap;
    cs.instructions += gap + 1; // The memory instruction itself.

    const MemRef ref = app.next();
    if (l1s_[core]->access(ref.addr, 0, ref.type) ==
        AccessResult::Hit) {
        cs.cycle += cfg_.l1HitLatency;
        clockHeap_.update(core, cs.cycle);
        return;
    }

    // L1 miss: go to the shared L2. L1 victims are modeled clean
    // (their dirty traffic is absorbed by the L2's non-inclusive
    // write path and does not reach memory).
    ++cs.l2Accesses;
    if (ucp_) {
        ucp_->observe(core, ref.addr);
    }
    if (l2_->access(ref.addr, core, ref.type) == AccessResult::Hit) {
        cs.cycle += cfg_.l2HitLatency;
        clockHeap_.update(core, cs.cycle);
        return;
    }

    // L2 miss: bandwidth-limited memory access. A dirty victim's
    // writeback consumes bandwidth but is off the critical path.
    ++cs.l2Misses;
    const std::uint64_t wbs = l2_->writebacks();
    Cycle service = static_cast<Cycle>(cfg_.memCyclesPerLine);
    if (wbs != l2WritebacksSeen_) {
        service += static_cast<Cycle>(cfg_.memCyclesPerLine) *
                   (wbs - l2WritebacksSeen_);
        l2WritebacksSeen_ = wbs;
    }
    const Cycle start = std::max(cs.cycle, memFree_);
    memFree_ = start + service;
    cs.cycle = start + cfg_.memLatency;
    clockHeap_.update(core, cs.cycle);
}

void
CmpSim::fillSnapshot(CoreState &cs)
{
    cs.snapshot.instructions =
        cs.instructions - cs.startInstructions;
    cs.snapshot.cycles = cs.cycle - cs.startCycle;
    cs.snapshot.l2Accesses = cs.l2Accesses - cs.startL2Accesses;
    cs.snapshot.l2Misses = cs.l2Misses - cs.startL2Misses;
}

void
CmpSim::maybeRepartition()
{
    if (!ucp_) {
        return;
    }
    const Cycle min_cycle =
        cores_[nextCore()].cycle; // Trailing core defines "now".
    while (min_cycle >= nextRepartition_) {
        const std::uint32_t quantum = l2_->allocationQuantum();
        if (quantum < cfg_.numCores) {
            // Unpartitioned baselines: nothing to allocate.
            ucp_->nextInterval();
            nextRepartition_ += cfg_.repartitionCycles;
            continue;
        }
        // Way-granular schemes need at least one way per partition;
        // fine-grain quanta can go down to a single unit.
        TraceSpan span(kTraceAlloc, "ucp.repartition");
        std::uint64_t l2_accesses = 0;
        for (const auto &cs : cores_) {
            l2_accesses += cs.l2Accesses;
        }
        reallocGap_.add(l2_accesses - lastReallocAccesses_);
        lastReallocAccesses_ = l2_accesses;
        const std::uint32_t min_units = 1;
        l2_->setAllocations(
            ucp_->computeAllocations(quantum, min_units));
        // Vantage-DRRIP: apply the per-partition dueling winners.
        if (l2_->wantsBrrip()) {
            l2_->applyBrrip(ucp_->brripChoices());
        }
        ucp_->nextInterval();
        if (onRepartition) {
            onRepartition(nextRepartition_);
        }
        nextRepartition_ += cfg_.repartitionCycles;
    }
}

void
CmpSim::markStart()
{
    for (auto &cs : cores_) {
        cs.done = false;
        cs.startCycle = cs.cycle;
        cs.startInstructions = cs.instructions;
        cs.startL2Accesses = cs.l2Accesses;
        cs.startL2Misses = cs.l2Misses;
    }
}

void
CmpSim::warmup(std::uint64_t accesses)
{
    phase_ = "warmup";
    std::vector<std::uint64_t> issued(cfg_.numCores, 0);
    std::uint32_t remaining = cfg_.numCores;
    while (remaining > 0) {
        const std::uint32_t core = nextCore();
        step(core);
        maybeRepartition();
        clock_.tick();
        if (issued[core] < accesses && ++issued[core] == accesses) {
            --remaining;
        }
    }
}

void
CmpSim::run(std::uint64_t instructions)
{
    phase_ = "run";
    markStart();
    std::uint32_t remaining = cfg_.numCores;
    while (remaining > 0) {
        const std::uint32_t core = nextCore();
        CoreState &cs = cores_[core];
        step(core);
        maybeRepartition();
        clock_.tick();
        if (!cs.done &&
            cs.instructions - cs.startInstructions >= instructions) {
            cs.done = true;
            fillSnapshot(cs);
            --remaining;
        }
    }
}

void
CmpSim::registerLiveStats(StatsRegistry &reg) const
{
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        const std::string base = "core." + std::to_string(c);
        const CoreState *cs = &cores_[c];
        reg.addCounter(base + ".instructions", &cs->instructions);
        reg.addCounter(base + ".cycles", &cs->cycle);
        reg.addCounter(base + ".l2_accesses", &cs->l2Accesses);
        reg.addCounter(base + ".l2_misses", &cs->l2Misses);
        reg.addGauge(base + ".ipc", [cs] {
            return cs->cycle ? static_cast<double>(cs->instructions) /
                                   static_cast<double>(cs->cycle)
                             : 0.0;
        });
    }

    l2_->registerLiveIntrospection(reg);
    if (ucp_) {
        ucp_->registerIntrospection(reg, "umon");
        reg.addHistogram("sim.realloc_gap", &reallocGap_);
    }

    reg.addGauge("sim.cycle",
                 [this] { return static_cast<double>(now()); });
}

const CoreResult &
CmpSim::result(std::uint32_t core) const
{
    vantage_assert(core < cfg_.numCores, "core %u out of range", core);
    return cores_[core].snapshot;
}

double
CmpSim::throughput() const
{
    double acc = 0.0;
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        acc += cores_[c].snapshot.ipc();
    }
    return acc;
}

double
CmpSim::weightedSpeedup(const std::vector<double> &alone_ipc) const
{
    vantage_assert(alone_ipc.size() == cfg_.numCores,
                   "%zu baseline IPCs for %u cores", alone_ipc.size(),
                   cfg_.numCores);
    double acc = 0.0;
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        if (alone_ipc[c] > 0.0) {
            acc += cores_[c].snapshot.ipc() / alone_ipc[c];
        }
    }
    return acc;
}

double
CmpSim::hmeanSpeedup(const std::vector<double> &alone_ipc) const
{
    vantage_assert(alone_ipc.size() == cfg_.numCores,
                   "%zu baseline IPCs for %u cores", alone_ipc.size(),
                   cfg_.numCores);
    double inv = 0.0;
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        const double speedup = alone_ipc[c] > 0.0
                                   ? cores_[c].snapshot.ipc() /
                                         alone_ipc[c]
                                   : 0.0;
        if (speedup <= 0.0) {
            return 0.0;
        }
        inv += 1.0 / speedup;
    }
    return static_cast<double>(cfg_.numCores) / inv;
}

Cycle
CmpSim::now() const
{
    Cycle best = 0;
    for (const auto &cs : cores_) {
        best = std::max(best, cs.cycle);
    }
    return best;
}

std::uint64_t
CmpSim::instructions() const
{
    std::uint64_t total = 0;
    for (const auto &cs : cores_) {
        total += cs.instructions;
    }
    return total;
}

} // namespace vantage
