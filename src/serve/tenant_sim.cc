#include "serve/tenant_sim.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"
#include "stats/registry.h"

namespace vantage {

TenantSim::TenantSim(const JournalHeader &cfg)
    : maxTenants_(cfg.maxTenants), epochAccesses_(cfg.epochAccesses)
{
    vantage_assert(maxTenants_ >= 1, "need at least one tenant slot");
    L2Spec spec = cfg.spec;
    spec.numPartitions = maxTenants_;
    spec.vantage.numPartitions = maxTenants_;
    l2_ = std::make_unique<MonoL2>(buildL2(spec));

    if (cfg.useUcp) {
        UcpConfig ucfg;
        ucfg.rripMonitors = l2_->wantsBrrip();
        ucp_ = std::make_unique<Ucp>(maxTenants_, ucfg);
    }

    // Empty daemon: every slot retired, every monitor detached. The
    // digest attaches afterwards, so it covers exactly the journaled
    // event stream — live session and replay start from this same
    // state.
    names_.resize(maxTenants_);
    for (std::uint32_t s = 0; s < maxTenants_; ++s) {
        l2_->destroyPartition(static_cast<PartId>(s));
        if (ucp_) {
            ucp_->detachMonitor(static_cast<PartId>(s));
        }
    }
    l2_->attachDigest(&digest_);
}

TenantSim::~TenantSim() = default;

std::int32_t
TenantSim::join(const std::string &name)
{
    // Prefer a slot whose previous occupant has fully drained, so
    // tenants rarely inherit residue; fall back to the least-recently
    // numbered retired slot otherwise. Deterministic either way.
    std::int32_t fallback = -1;
    for (std::uint32_t s = 0; s < maxTenants_; ++s) {
        if (l2_->partitionActive(static_cast<PartId>(s))) {
            continue;
        }
        if (l2_->actualSize(static_cast<PartId>(s)) == 0) {
            activate(static_cast<std::uint16_t>(s), name);
            return static_cast<std::int32_t>(s);
        }
        if (fallback < 0) {
            fallback = static_cast<std::int32_t>(s);
        }
    }
    if (fallback >= 0) {
        activate(static_cast<std::uint16_t>(fallback), name);
    }
    return fallback;
}

void
TenantSim::joinAt(std::uint16_t slot, const std::string &name)
{
    vantage_assert(slot < maxTenants_, "slot %u out of range", slot);
    vantage_assert(!l2_->partitionActive(slot),
                   "replay JOIN into occupied slot %u", slot);
    activate(slot, name);
}

void
TenantSim::activate(std::uint16_t slot, const std::string &name)
{
    l2_->createPartition(slot);
    if (ucp_) {
        ucp_->attachMonitor(slot);
    }
    names_[slot] = name;
    ++activeCount_;
    rebalance();
}

void
TenantSim::leave(std::uint16_t slot)
{
    vantage_assert(slot < maxTenants_, "slot %u out of range", slot);
    vantage_assert(l2_->partitionActive(slot),
                   "LEAVE from inactive slot %u", slot);
    l2_->destroyPartition(slot);
    if (ucp_) {
        ucp_->detachMonitor(slot);
    }
    names_[slot].clear();
    --activeCount_;
    rebalance();
}

bool
TenantSim::slotActive(std::uint16_t slot) const
{
    return slot < maxTenants_ && l2_->partitionActive(slot);
}

void
TenantSim::rebalance()
{
    // Equal split of the quantum over the active slots, remainder to
    // the lowest active slot; retired slots get zero so their lines
    // drain. UCP refines this at the next epoch boundary.
    std::vector<std::uint32_t> units(maxTenants_, 0);
    if (activeCount_ == 0) {
        l2_->setAllocations(units);
        return;
    }
    const std::uint32_t quantum = l2_->allocationQuantum();
    const std::uint32_t share = quantum / activeCount_;
    std::uint32_t remainder = quantum % activeCount_;
    for (std::uint32_t s = 0; s < maxTenants_; ++s) {
        if (!l2_->partitionActive(static_cast<PartId>(s))) {
            continue;
        }
        units[s] = share + (remainder > 0 ? 1 : 0);
        if (remainder > 0) {
            --remainder;
        }
    }
    l2_->setAllocations(units);
}

AccessResult
TenantSim::access(std::uint16_t slot, Addr addr, AccessType type)
{
    vantage_assert(slotActive(slot),
                   "access for inactive tenant slot %u", slot);
    const AccessResult result = l2_->access(addr, slot, type);
    if (ucp_) {
        ucp_->observe(slot, addr);
    }
    ++accesses_;
    if (epochAccesses_ != 0 && accesses_ % epochAccesses_ == 0) {
        repartition();
    }
    clock_.tick();
    return result;
}

void
TenantSim::registerLiveStats(StatsRegistry &reg) const
{
    l2_->registerLiveIntrospection(reg);
    if (ucp_) {
        ucp_->registerIntrospection(reg, "umon");
    }
    reg.addCounter("serve.accesses", &accesses_);
    reg.addGauge("serve.active_tenants", [this] {
        return static_cast<double>(activeCount_);
    });
    reg.addGauge("serve.max_tenants", [this] {
        return static_cast<double>(maxTenants_);
    });
}

void
TenantSim::repartition()
{
    if (!ucp_ || activeCount_ == 0) {
        return;
    }
    const std::uint32_t quantum = l2_->allocationQuantum();
    if (quantum < maxTenants_) {
        // Unpartitioned baselines: nothing to allocate.
        ucp_->nextInterval();
        return;
    }
    l2_->setAllocations(ucp_->computeAllocations(quantum, 1));
    if (l2_->wantsBrrip()) {
        l2_->applyBrrip(ucp_->brripChoices());
    }
    ucp_->nextInterval();
}

TenantSlotInfo
TenantSim::slotInfo(std::uint16_t slot) const
{
    vantage_assert(slot < maxTenants_, "slot %u out of range", slot);
    TenantSlotInfo info;
    info.active = l2_->partitionActive(slot);
    info.name = names_[slot];
    const CacheAccessStats stats = l2_->partAccessStats(slot);
    info.hits = stats.hits;
    info.misses = stats.misses;
    info.targetLines = l2_->targetSize(slot);
    info.actualLines = l2_->actualSize(slot);
    return info;
}

std::uint64_t
TenantSim::finishDigest()
{
    if (!digestDone_) {
        l2_->finalizeDigest();
        digestDone_ = true;
    }
    return digest_.value();
}

void
TenantSim::checkInvariants(InvariantReport &rep) const
{
    l2_->checkInvariants(rep);
    if (ucp_) {
        ucp_->checkInvariants(rep);
    }
    // The L2's active flags and our tenant registry must agree.
    std::uint32_t active = 0;
    for (std::uint32_t s = 0; s < maxTenants_; ++s) {
        if (l2_->partitionActive(static_cast<PartId>(s))) {
            ++active;
            if (ucp_) {
                rep.expect(ucp_->monitorActive(s),
                           "tenant_sim: slot %u active but monitor "
                           "detached",
                           s);
            }
        } else {
            rep.expect(names_[s].empty(),
                       "tenant_sim: retired slot %u still has tenant "
                       "'%s'",
                       s, names_[s].c_str());
            if (ucp_) {
                rep.expect(!ucp_->monitorActive(s),
                           "tenant_sim: slot %u retired but monitor "
                           "attached",
                           s);
            }
        }
    }
    rep.expect(active == activeCount_,
               "tenant_sim: %u active slots, registry says %u", active,
               activeCount_);
}

std::uint64_t
replayJournal(const JournalReader &reader)
{
    TenantSim sim(reader.header());
    for (const JournalRecord &rec : reader.records()) {
        switch (rec.event) {
          case JournalEvent::Join:
            sim.joinAt(rec.slot, rec.name);
            break;
          case JournalEvent::Leave:
            sim.leave(rec.slot);
            break;
          case JournalEvent::Access:
            sim.access(rec.slot, rec.addr, rec.type);
            break;
        }
    }
    return sim.finishDigest();
}

std::uint64_t
runLifecycleScenario(const JournalHeader &cfg, std::uint64_t accesses,
                     JournalWriter *journal)
{
    TenantSim sim(cfg);
    return runLifecycleScenario(sim, cfg, accesses, journal);
}

std::uint64_t
runLifecycleScenario(TenantSim &sim, const JournalHeader &cfg,
                     std::uint64_t accesses, JournalWriter *journal)
{
    Rng rng(cfg.spec.seed ^ 0x11f3c7c1ull);

    std::uint32_t tenant_counter = 0;
    const auto join_one = [&] {
        const std::string name =
            "tenant" + std::to_string(tenant_counter++);
        const std::int32_t slot = sim.join(name);
        if (slot >= 0 && journal != nullptr) {
            journal->recordJoin(static_cast<std::uint16_t>(slot),
                                name);
        }
        return slot;
    };

    // Two tenants up front — the scenario always exercises
    // concurrent occupancy — then seeded join/leave churn mid-run.
    join_one();
    if (cfg.maxTenants > 1) {
        join_one();
    }

    const std::uint64_t event_every =
        std::max<std::uint64_t>(500, accesses / 24);
    std::uint64_t cold_counter = 0;

    for (std::uint64_t i = 0; i < accesses; ++i) {
        if (i > 0 && i % event_every == 0) {
            const std::uint64_t r = rng.range(4);
            if (r == 0 && sim.activeTenants() < sim.maxTenants()) {
                join_one();
            } else if (r != 0 && sim.activeTenants() > 1) {
                // Leave a seeded choice among the active slots.
                std::vector<std::uint16_t> active;
                for (std::uint32_t s = 0; s < sim.maxTenants(); ++s) {
                    const auto slot =
                        static_cast<std::uint16_t>(s);
                    if (sim.slotActive(slot)) {
                        active.push_back(slot);
                    }
                }
                const std::uint16_t victim =
                    active[rng.range(active.size())];
                if (journal != nullptr) {
                    journal->recordLeave(victim);
                }
                sim.leave(victim);
            }
        }

        // Pick an accessor among the active slots, then an address
        // from its private hot set, a shared region, or a cold scan.
        std::vector<std::uint16_t> active;
        for (std::uint32_t s = 0; s < sim.maxTenants(); ++s) {
            const auto slot = static_cast<std::uint16_t>(s);
            if (sim.slotActive(slot)) {
                active.push_back(slot);
            }
        }
        const std::uint16_t slot = active[rng.range(active.size())];
        const std::uint64_t kind = rng.range(10);
        Addr addr;
        if (kind < 7) {
            addr = (static_cast<Addr>(slot) + 1) * 0x10000000ull +
                   rng.range(4096);
        } else if (kind < 9) {
            addr = 0x900000000ull + rng.range(2048);
        } else {
            addr = 0xdead0000000ull + cold_counter++;
        }
        const AccessType type = rng.range(4) == 0 ? AccessType::Store
                                                  : AccessType::Load;
        if (journal != nullptr) {
            journal->recordAccess(slot, type, addr);
        }
        sim.access(slot, addr, type);
    }

    InvariantReport rep;
    sim.checkInvariants(rep);
    if (!rep.ok()) {
        panic("lifecycle scenario failed invariants:\n%s",
              rep.summary().c_str());
    }
    return sim.finishDigest();
}

} // namespace vantage
