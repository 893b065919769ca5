#include "cache/shared_l2.h"

#include "common/log.h"
#include "core/vantage.h"
#include "core/vantage_variants.h"

namespace vantage {

MonoL2::MonoL2(std::unique_ptr<Cache> cache)
    : cache_(std::move(cache))
{
    vantage_assert(cache_ != nullptr, "MonoL2 needs a cache");
}

MonoL2::~MonoL2() = default;

std::uint32_t
MonoL2::numPartitions() const
{
    return cache_->scheme().numPartitions();
}

std::uint32_t
MonoL2::allocationQuantum() const
{
    return cache_->scheme().allocationQuantum();
}

void
MonoL2::setAllocations(const std::vector<std::uint32_t> &units)
{
    cache_->scheme().setAllocations(units);
}

void
MonoL2::applyBrrip(const std::vector<bool> &brrip)
{
    auto *vr = dynamic_cast<VantageRrip *>(&cache_->scheme());
    if (vr == nullptr) {
        return;
    }
    const auto parts =
        static_cast<PartId>(cache_->scheme().numPartitions());
    for (PartId p = 0; p < parts; ++p) {
        vr->setBrrip(p, brrip[p]);
    }
}

bool
MonoL2::wantsBrrip() const
{
    return dynamic_cast<const VantageRrip *>(&cache_->scheme()) !=
           nullptr;
}

std::uint64_t
MonoL2::targetSize(PartId part) const
{
    return cache_->scheme().targetSize(part);
}

std::uint64_t
MonoL2::actualSize(PartId part) const
{
    return cache_->scheme().actualSize(part);
}

CacheAccessStats
MonoL2::totalStats() const
{
    return cache_->totalStats();
}

CacheAccessStats
MonoL2::partAccessStats(PartId part) const
{
    return cache_->partAccessStats(part);
}

void
MonoL2::resetStats()
{
    cache_->resetStats();
}

void
MonoL2::attachDigest(AccessDigest *digest)
{
    cache_->attachDigest(digest);
}

void
MonoL2::enableHistograms()
{
    cache_->enableHistograms();
}

void
MonoL2::registerStats(StatsRegistry &reg,
                      const std::string &prefix) const
{
    cache_->registerStats(reg, prefix);
}

void
MonoL2::registerLiveIntrospection(StatsRegistry &reg) const
{
    cache_->registerIntrospection(reg, "cache");
    if (const auto *v = dynamic_cast<const VantageController *>(
            &cache_->scheme())) {
        v->registerIntrospection(reg, "vantage");
    } else {
        cache_->scheme().registerIntrospection(reg, "scheme");
    }
}

void
MonoL2::checkInvariants(InvariantReport &rep) const
{
    cache_->checkInvariants(rep);
}

void
MonoL2::createPartition(PartId part)
{
    cache_->createPartition(part);
}

void
MonoL2::destroyPartition(PartId part)
{
    cache_->destroyPartition(part);
}

bool
MonoL2::partitionActive(PartId part) const
{
    return cache_->scheme().partitionActive(part);
}

bool
attachAudit(SharedL2 &l2, DecisionAudit *audit)
{
    Cache *const mono = l2.monoCache();
    if (mono == nullptr) {
        warn("decision audit is mono-L2 only; banked L2 decisions "
             "are not recorded");
        return false;
    }
    mono->scheme().attachAudit(audit);
    return true;
}

} // namespace vantage
