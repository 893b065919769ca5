#include "replay.h"

#include "array/set_assoc.h"
#include "core/vantage.h"
#include "partition/unpartitioned.h"
#include "replacement/lru.h"

namespace vbench {

using namespace vantage;

namespace {

/** Digest victim-partition field when nothing valid was evicted. */
constexpr std::uint64_t kNoVictim = 0xffff;

/** Apply a non-access recorded call to `l2`. */
void
applyControl(SharedL2 &l2, const L2Recording &rec, const L2Call &c)
{
    switch (c.kind) {
      case L2Call::Kind::SetAllocations:
        l2.setAllocations(rec.units[c.arg]);
        break;
      case L2Call::Kind::ApplyBrrip:
        l2.applyBrrip(rec.brrip[c.arg]);
        break;
      case L2Call::Kind::Create:
        l2.createPartition(c.arg);
        break;
      case L2Call::Kind::Destroy:
        l2.destroyPartition(c.arg);
        break;
      case L2Call::Kind::ResetStats:
        l2.resetStats();
        break;
      case L2Call::Kind::Access:
        break;
    }
}

} // namespace

// ----------------------------------------------------------------------
// RecordingL2

RecordingL2::RecordingL2(std::unique_ptr<SharedL2> inner,
                         L2Recording &rec, bool timeAccesses)
    : owned_(std::move(inner)), inner_(*owned_), rec_(rec),
      time_(timeAccesses)
{
}

RecordingL2::RecordingL2(SharedL2 &inner, L2Recording &rec,
                         bool timeAccesses)
    : inner_(inner), rec_(rec), time_(timeAccesses)
{
}

void
RecordingL2::push(L2Call::Kind kind, std::uint32_t arg)
{
    L2Call c;
    c.kind = kind;
    c.arg = arg;
    rec_.calls.push_back(c);
}

AccessResult
RecordingL2::access(Addr addr, PartId part, AccessType type)
{
    AccessResult r;
    if (time_) {
        const std::uint64_t t0 = ticks();
        r = inner_.access(addr, part, type);
        rec_.inSitu.add(t0, ticks());
    } else {
        r = inner_.access(addr, part, type);
    }
    L2Call c;
    c.addr = addr;
    c.arg = part;
    c.type = type;
    rec_.calls.push_back(c);
    rec_.digestAfter.push_back(digest_ ? digest_->value() : 0);
    ++rec_.accesses;
    rec_.hits += r == AccessResult::Hit ? 1 : 0;
    return r;
}

std::uint64_t
RecordingL2::writebacks() const
{
    return inner_.writebacks();
}

std::uint32_t
RecordingL2::numPartitions() const
{
    return inner_.numPartitions();
}

std::uint32_t
RecordingL2::allocationQuantum() const
{
    return inner_.allocationQuantum();
}

void
RecordingL2::setAllocations(const std::vector<std::uint32_t> &units)
{
    push(L2Call::Kind::SetAllocations,
         static_cast<std::uint32_t>(rec_.units.size()));
    rec_.units.push_back(units);
    inner_.setAllocations(units);
}

void
RecordingL2::applyBrrip(const std::vector<bool> &brrip)
{
    push(L2Call::Kind::ApplyBrrip,
         static_cast<std::uint32_t>(rec_.brrip.size()));
    rec_.brrip.push_back(brrip);
    inner_.applyBrrip(brrip);
}

bool
RecordingL2::wantsBrrip() const
{
    return inner_.wantsBrrip();
}

std::uint64_t
RecordingL2::targetSize(PartId part) const
{
    return inner_.targetSize(part);
}

std::uint64_t
RecordingL2::actualSize(PartId part) const
{
    return inner_.actualSize(part);
}

CacheAccessStats
RecordingL2::totalStats() const
{
    return inner_.totalStats();
}

CacheAccessStats
RecordingL2::partAccessStats(PartId part) const
{
    return inner_.partAccessStats(part);
}

void
RecordingL2::resetStats()
{
    push(L2Call::Kind::ResetStats, 0);
    inner_.resetStats();
}

void
RecordingL2::attachDigest(AccessDigest *digest)
{
    digest_ = digest;
    inner_.attachDigest(digest);
}

void
RecordingL2::finalizeDigest()
{
    inner_.finalizeDigest();
}

void
RecordingL2::enableHistograms()
{
    inner_.enableHistograms();
}

void
RecordingL2::registerStats(StatsRegistry &reg,
                           const std::string &prefix) const
{
    inner_.registerStats(reg, prefix);
}

void
RecordingL2::registerLiveIntrospection(StatsRegistry &reg) const
{
    inner_.registerLiveIntrospection(reg);
}

void
RecordingL2::checkInvariants(InvariantReport &rep) const
{
    inner_.checkInvariants(rep);
}

void
RecordingL2::createPartition(PartId part)
{
    push(L2Call::Kind::Create, part);
    inner_.createPartition(part);
}

void
RecordingL2::destroyPartition(PartId part)
{
    push(L2Call::Kind::Destroy, part);
    inner_.destroyPartition(part);
}

bool
RecordingL2::partitionActive(PartId part) const
{
    return inner_.partitionActive(part);
}

// ----------------------------------------------------------------------
// Component replay

double
ComponentTimes::totalNs() const
{
    return lookupHit.totalNs + lookupMiss.totalNs + onHit.totalNs +
           walk.totalNs + select.totalNs + insert.totalNs +
           replace.totalNs + control.totalNs;
}

ComponentTimes
replayComponents(SharedL2 &fresh, const L2Recording &rec, RunResult &out)
{
    ComponentTimes ct;
    Cache *cache = fresh.monoCache();
    if (cache == nullptr) {
        out.check(false, "component replay needs a flat L2");
        return ct;
    }
    CacheArray &array = cache->array();
    PartitionScheme &scheme = cache->scheme();
    const auto *vc = dynamic_cast<const VantageController *>(&scheme);
    const std::uint64_t forced0 =
        vc ? vc->stats().evictionsFromManaged : 0;
    const std::uint64_t dems0 = scheme.demotionCount();

    CandidateBuf cands;
    AccessDigest digest;
    std::uint64_t lastDems = dems0;
    std::uint64_t ordinal = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t firstBad = 0;

    for (const L2Call &c : rec.calls) {
        if (c.kind != L2Call::Kind::Access) {
            const std::uint64_t t0 = ticks();
            applyControl(fresh, rec, c);
            ct.control.add(t0, ticks());
            if (c.kind == L2Call::Kind::Create) {
                digest.fold(3 | (static_cast<std::uint64_t>(c.arg) << 16));
            } else if (c.kind == L2Call::Kind::Destroy) {
                digest.fold(4 | (static_cast<std::uint64_t>(c.arg) << 16));
            }
            continue;
        }

        const PartId part = c.arg;
        std::uint64_t word;
        std::uint64_t t0 = ticks();
        const LineId slot = array.lookup(c.addr);
        std::uint64_t t1 = ticks();
        if (slot != kInvalidLine) {
            ct.lookupHit.add(t0, t1);
            if (c.type == AccessType::Store) {
                array.cold(slot).dirty = true;
            }
            t0 = ticks();
            scheme.onHit(array, slot, part);
            ct.onHit.add(t0, ticks());
            word = kNoVictim << 16;
        } else {
            ct.lookupMiss.add(t0, t1);
            t0 = ticks();
            array.candidates(c.addr, cands);
            ct.walk.add(t0, ticks());
            ct.candidates += cands.size();
            t0 = ticks();
            const VictimChoice choice =
                scheme.selectVictim(array, part, c.addr, cands);
            ct.select.add(t0, ticks());
            if (choice.bypass) {
                word = 2 | (kNoVictim << 16);
            } else {
                const LineId victimSlot = cands[choice.candIdx].slot;
                const Line &victim = array.line(victimSlot);
                const std::uint64_t victimPart =
                    victim.valid() ? (victim.part & 0xffff) : kNoVictim;
                std::uint64_t e0 = 0;
                std::uint64_t e1 = 0;
                if (victim.valid()) {
                    e0 = ticks();
                    scheme.onEvict(array, victimSlot);
                    e1 = ticks();
                }
                t0 = ticks();
                const LineId root =
                    array.replace(c.addr, cands, choice.candIdx);
                t1 = ticks();
                ct.replace.add(t0, t1);
                array.line(root).part = part;
                array.cold(root).dirty = c.type == AccessType::Store;
                t0 = ticks();
                scheme.onInsert(array, root, part);
                t1 = ticks();
                if (e1 != 0) {
                    ct.insert.add(e0, e1, t0, t1);
                } else {
                    ct.insert.add(t0, t1);
                }
                word = 1 | (victimPart << 16);
            }
        }
        const std::uint64_t dems = scheme.demotionCount();
        word |= (dems - lastDems) << 32;
        lastDems = dems;
        digest.fold(word);
        // The digests are cumulative: after the first divergence
        // every later one differs too, so only the first is located.
        if (mismatches == 0 && (ordinal >= rec.digestAfter.size() ||
                                digest.value() != rec.digestAfter[ordinal])) {
            mismatches = 1;
            firstBad = ordinal;
        }
        ++ordinal;
    }
    ct.demotions = scheme.demotionCount() - dems0;
    ct.forcedEvictions =
        vc ? vc->stats().evictionsFromManaged - forced0 : 0;
    out.check(mismatches == 0 && ordinal == rec.accesses,
              "component replay diverged from Cache::access at access " +
                  std::to_string(firstBad));
    return ct;
}

// ----------------------------------------------------------------------
// Whole-call replay

WholeReplay
replayWhole(SharedL2 &fresh, const L2Recording &rec)
{
    WholeReplay wr;
    AccessDigest digest;
    fresh.attachDigest(&digest);
    const std::int64_t start = nowNs();
    for (const L2Call &c : rec.calls) {
        if (c.kind != L2Call::Kind::Access) {
            applyControl(fresh, rec, c);
            continue;
        }
        fresh.access(c.addr, c.arg, c.type);
    }
    wr.seconds = static_cast<double>(nowNs() - start) / 1e9;
    fresh.finalizeDigest();
    fresh.attachDigest(nullptr);
    wr.digest = digest.value();
    return wr;
}

// ----------------------------------------------------------------------
// UCP replay

UcpLog
ucpLogFromCmp(const L2Recording &rec, std::uint32_t quantum)
{
    UcpLog log;
    log.quantum = quantum;
    log.events.reserve(rec.accesses + rec.units.size());
    for (const L2Call &c : rec.calls) {
        UcpEvent e;
        if (c.kind == L2Call::Kind::Access) {
            e.kind = UcpEvent::Kind::Observe;
            e.addr = c.addr;
            e.arg = c.arg;
        } else if (c.kind == L2Call::Kind::SetAllocations) {
            e.kind = UcpEvent::Kind::Repartition;
            e.arg = static_cast<std::uint32_t>(log.units.size());
            log.units.push_back(rec.units[c.arg]);
        } else {
            continue;
        }
        log.events.push_back(e);
    }
    return log;
}

UcpTimes
replayUcp(Ucp &ucp, const UcpLog &log, RunResult &out)
{
    UcpTimes ut;
    std::uint64_t mismatches = 0;
    for (const UcpEvent &e : log.events) {
        switch (e.kind) {
          case UcpEvent::Kind::Observe: {
            const std::uint64_t t0 = ticks();
            ucp.observe(e.arg, e.addr);
            ut.observe.add(t0, ticks());
            break;
          }
          case UcpEvent::Kind::Repartition: {
            const std::uint64_t t0 = ticks();
            const std::vector<std::uint32_t> units =
                ucp.computeAllocations(log.quantum, 1);
            ucp.nextInterval();
            ut.repartition.add(t0, ticks());
            mismatches += units != log.units[e.arg] ? 1 : 0;
            break;
          }
          case UcpEvent::Kind::Attach:
            ucp.attachMonitor(e.arg);
            break;
          case UcpEvent::Kind::Detach:
            ucp.detachMonitor(e.arg);
            break;
        }
    }
    out.check(mismatches == 0,
              "UCP replay: " + std::to_string(mismatches) +
                  " repartitions computed different allocations");
    return ut;
}

// ----------------------------------------------------------------------
// L1 and stream replays

std::unique_ptr<Cache>
makeL1(const CmpConfig &cfg, std::uint32_t core)
{
    return std::make_unique<Cache>(
        std::make_unique<SetAssocArray>(cfg.l1Lines, cfg.l1Ways, true,
                                        0x11c0de + core),
        std::make_unique<Unpartitioned>(1, std::make_unique<ExactLru>()),
        "l1-" + std::to_string(core));
}

L1Replay
replayL1(const CmpConfig &cfg,
         const std::vector<std::vector<MemRef>> &refs,
         const L2Recording &l2, RunResult &out)
{
    L1Replay lr;
    std::uint64_t mismatches = 0;
    for (std::uint32_t core = 0; core < refs.size(); ++core) {
        std::unique_ptr<Cache> l1 = makeL1(cfg, core);
        std::size_t cursor = 0; // Next L2 call to match for this core.
        for (const MemRef &ref : refs[core]) {
            const std::uint64_t t0 = ticks();
            const AccessResult r = l1->access(ref.addr, 0, ref.type);
            lr.access.add(t0, ticks());
            if (r == AccessResult::Hit) {
                ++lr.hits;
                continue;
            }
            while (cursor < l2.calls.size() &&
                   (l2.calls[cursor].kind != L2Call::Kind::Access ||
                    l2.calls[cursor].arg != core)) {
                ++cursor;
            }
            if (cursor == l2.calls.size() ||
                l2.calls[cursor].addr != ref.addr ||
                l2.calls[cursor].type != ref.type) {
                ++mismatches;
            } else {
                ++cursor;
            }
        }
    }
    out.check(mismatches == 0,
              "L1 replay: " + std::to_string(mismatches) +
                  " misses differ from the recorded L2 stream");
    return lr;
}

LayerTimer
replayStreams(std::vector<std::unique_ptr<AccessStream>> &fresh,
              const std::vector<std::vector<MemRef>> &refs,
              RunResult &out)
{
    LayerTimer lt;
    std::uint64_t mismatches = 0;
    for (std::size_t s = 0; s < refs.size(); ++s) {
        AccessStream &stream = *fresh[s];
        for (const MemRef &want : refs[s]) {
            const std::uint64_t t0 = ticks();
            const MemRef got = stream.next();
            lt.add(t0, ticks());
            mismatches +=
                (got.addr != want.addr || got.type != want.type) ? 1 : 0;
        }
    }
    out.check(mismatches == 0,
              "stream replay: " + std::to_string(mismatches) +
                  " references differ from the recording");
    return lt;
}

void
reportComponentMetrics(const ComponentTimes &ct, const L2Recording &rec,
                       RunResult &out)
{
    const auto misses = static_cast<double>(ct.lookupMiss.calls);
    out.set("array.lookup_hit_ns", ct.lookupHit.perCallNs(), "ns");
    out.set("array.lookup_miss_ns", ct.lookupMiss.perCallNs(), "ns");
    out.set("array.walk_ns", ct.walk.perCallNs(), "ns");
    out.set("array.walk_len",
            misses ? static_cast<double>(ct.candidates) / misses : 0.0,
            "count");
    out.set("array.replace_ns", ct.replace.perCallNs(), "ns");
    out.set("vantage.on_hit_ns", ct.onHit.perCallNs(), "ns");
    out.set("vantage.select_victim_ns", ct.select.perCallNs(), "ns");
    out.set("vantage.insert_ns", ct.insert.perCallNs(), "ns");
    out.set("vantage.demotions_per_miss",
            misses ? static_cast<double>(ct.demotions) / misses : 0.0,
            "ratio");
    out.set("vantage.forced_evictions_per_miss",
            misses ? static_cast<double>(ct.forcedEvictions) / misses
                   : 0.0,
            "ratio");
    out.set("l2.accesses", static_cast<double>(rec.accesses), "count");
    out.set("l2.hits", static_cast<double>(rec.hits), "count");
    out.set("l2.misses", static_cast<double>(rec.accesses - rec.hits),
            "count");
}

} // namespace vbench
