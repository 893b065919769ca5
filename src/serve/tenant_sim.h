/**
 * @file
 * TenantSim: the deterministic multi-tenant simulation core behind
 * `vsim --serve`, `--replay` and `--lifecycle`.
 *
 * A TenantSim owns a shared L2 whose scheme is built with a fixed
 * slot capacity (maxTenants partitions) and a UCP instance with one
 * monitor per slot. All slots start retired and all monitors
 * detached; a tenant join activates the lowest suitable slot
 * (preferring fully drained ones) and attaches its monitor, a leave
 * retires it so its lines drain through the scheme's churn
 * mechanism (Vantage: Sec. 3.4 deletion at full aperture).
 *
 * Epochs are counted in accesses — a pure function of the event
 * stream — and each epoch boundary runs the UCP control loop over
 * the attached monitors. Joins and leaves rebalance immediately to
 * an equal split so a new tenant has capacity before its first
 * epoch. Because every state transition is driven only by the
 * ordered event stream (join/leave/access), feeding the same stream
 * — live from sockets or replayed from a journal — reproduces the
 * same outcome digest bit for bit. See DESIGN.md §13.
 */

#ifndef VANTAGE_SERVE_TENANT_SIM_H_
#define VANTAGE_SERVE_TENANT_SIM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/ucp.h"
#include "cache/shared_l2.h"
#include "common/digest.h"
#include "obs/epoch_clock.h"
#include "serve/journal.h"

namespace vantage {

class StatsRegistry;

/** Tenant-facing view of one slot's counters. */
struct TenantSlotInfo
{
    bool active = false;
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t targetLines = 0;
    std::uint64_t actualLines = 0;
};

/** The deterministic serve/replay simulation core. */
class TenantSim
{
  public:
    /** Builds the L2 and UCP from a journal-equivalent config. */
    explicit TenantSim(const JournalHeader &cfg);
    ~TenantSim();

    TenantSim(const TenantSim &) = delete;
    TenantSim &operator=(const TenantSim &) = delete;

    std::uint32_t maxTenants() const { return maxTenants_; }
    std::uint32_t activeTenants() const { return activeCount_; }

    /**
     * Admit a tenant: activates the lowest fully-drained retired
     * slot (falling back to the lowest retired slot, whose residue
     * the tenant inherits). @return the slot, or -1 when every slot
     * is occupied.
     */
    std::int32_t join(const std::string &name);

    /** Replay path: admit a tenant at the journaled slot. */
    void joinAt(std::uint16_t slot, const std::string &name);

    /** Retire a tenant's slot; its lines drain lazily. */
    void leave(std::uint16_t slot);

    bool slotActive(std::uint16_t slot) const;

    /**
     * One access by the tenant in `slot`; feeds the monitors and
     * runs the epoch control loop when one completes.
     */
    AccessResult access(std::uint16_t slot, Addr addr,
                        AccessType type);

    TenantSlotInfo slotInfo(std::uint16_t slot) const;

    /** Total accesses processed (epoch clock). */
    std::uint64_t accesses() const { return accesses_; }

    /** Merge/finish the digest and return its value. */
    std::uint64_t finishDigest();

    /** L2 + UCP lifecycle invariants into `rep`. */
    void checkInvariants(InvariantReport &rep) const;

    SharedL2 &l2() { return *l2_; }
    Ucp *ucp() { return ucp_.get(); }

    /**
     * Fire read-only `obs` (a QosStepper) every `every` accesses,
     * after an epoch's UCP step (see obs/epoch_clock.h): a pure
     * function of the event stream, not of socket timing.
     */
    void
    addObserver(EpochObserver *obs, std::uint64_t every)
    {
        clock_.add(obs, every);
    }

    /**
     * Live-introspection export for the metrics service: the L2's
     * subtree ("cache", and "vantage" or "scheme"), UCP monitors
     * under "umon", and serve-level gauges under "serve". Build the
     * registry fully before any sampler thread reads it.
     */
    void registerLiveStats(StatsRegistry &reg) const;

  private:
    void activate(std::uint16_t slot, const std::string &name);

    /** Equal split of the quantum over the active slots. */
    void rebalance();

    /** UCP control-loop step at an epoch boundary. */
    void repartition();

    std::uint32_t maxTenants_;
    std::uint64_t epochAccesses_;
    std::unique_ptr<SharedL2> l2_;
    std::unique_ptr<Ucp> ucp_;

    std::vector<std::string> names_;
    std::uint32_t activeCount_ = 0;
    std::uint64_t accesses_ = 0;
    AccessDigest digest_;
    bool digestDone_ = false;
    EpochClock clock_;
};

/**
 * Re-execute a loaded journal; prints nothing. @return the final
 * outcome digest — bit-identical to the recording session's.
 */
std::uint64_t replayJournal(const JournalReader &reader);

/**
 * The `--lifecycle N` synthetic scenario: a seeded scripted session
 * with tenants joining and leaving mid-run across `accesses` total
 * accesses. Used to pin lifecycle golden digests without sockets;
 * when `journal` is non-null every event is also recorded, so
 * golden.py --lifecycle can assert record/replay parity on top.
 * @return the outcome digest.
 */
std::uint64_t runLifecycleScenario(const JournalHeader &cfg,
                                   std::uint64_t accesses,
                                   JournalWriter *journal);

/**
 * Same scenario over a caller-owned TenantSim, so observers (QoS
 * engine, decision audit, metrics registry) can be attached first.
 * `cfg` must be the header the sim was built from (it seeds the
 * event script).
 */
std::uint64_t runLifecycleScenario(TenantSim &sim,
                                   const JournalHeader &cfg,
                                   std::uint64_t accesses,
                                   JournalWriter *journal);

} // namespace vantage

#endif // VANTAGE_SERVE_TENANT_SIM_H_
