/**
 * @file
 * The access-count clock a simulator (CmpSim, TenantSim) shares
 * with its read-only observers: heartbeats, the QoS engine.
 *
 * The simulator ticks its clock once per memory access it steps. Each
 * observer fires every `every` accesses after it was added; those
 * due on the same access fire in registration order, so an observer
 * that reads another's state registers after it. Observers only
 * read, so digests are the same with or without them. tick() is one
 * increment and one compare; the list is walked only when one is due.
 */

#ifndef VANTAGE_OBS_EPOCH_CLOCK_H_
#define VANTAGE_OBS_EPOCH_CLOCK_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace vantage {

/** Runs at an epoch boundary, `accesses` accesses into the run. */
class EpochObserver
{
  public:
    // A clock holds its observers by address.
    EpochObserver() = default;
    EpochObserver(const EpochObserver &) = delete;
    EpochObserver &operator=(const EpochObserver &) = delete;
    virtual ~EpochObserver() = default;
    virtual void onEpoch(std::uint64_t accesses) = 0;
};

class EpochClock
{
  public:
    /** Fire `obs` (not owned) every `every` accesses; 0 = never. */
    void
    add(EpochObserver *obs, std::uint64_t every)
    {
        if (every != 0) {
            entries_.push_back({obs, every, accesses_ + every});
            next_ = std::min(next_, accesses_ + every);
        }
    }

    void
    tick()
    {
        if (++accesses_ == next_) {
            fire();
        }
    }

  private:
    struct Entry
    {
        EpochObserver *obs;
        std::uint64_t every, due;
    };

    void
    fire()
    {
        next_ = std::numeric_limits<std::uint64_t>::max();
        for (Entry &e : entries_) {
            if (e.due == accesses_) {
                e.obs->onEpoch(accesses_);
                e.due += e.every;
            }
            next_ = std::min(next_, e.due);
        }
    }

    std::vector<Entry> entries_;
    std::uint64_t accesses_ = 0;
    std::uint64_t next_ = std::numeric_limits<std::uint64_t>::max();
};

} // namespace vantage

#endif // VANTAGE_OBS_EPOCH_CLOCK_H_
