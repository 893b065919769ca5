#include "cache/banked_cache.h"

#include "common/log.h"
#include "core/vantage_variants.h"
#include "stats/registry.h"

namespace vantage {

BankedCache::BankedCache(std::vector<std::unique_ptr<Cache>> banks,
                         std::uint64_t seed)
    : banks_(std::move(banks)), hash_(seed)
{
    vantage_assert(!banks_.empty(), "need at least one bank");
    const std::uint32_t parts = banks_[0]->scheme().numPartitions();
    for (const auto &bank : banks_) {
        vantage_assert(bank != nullptr, "null bank");
        vantage_assert(bank->scheme().numPartitions() == parts,
                       "banks disagree on partition count");
    }
}

std::uint32_t
BankedCache::bankOf(Addr addr) const
{
    // Non-power-of-two bank counts are fine: hash then reduce.
    return static_cast<std::uint32_t>(hash_(addr) % banks_.size());
}

AccessResult
BankedCache::access(Addr addr, PartId part, AccessType type)
{
    return banks_[bankOf(addr)]->access(addr, part, type);
}

bool
BankedCache::contains(Addr addr) const
{
    return banks_[bankOf(addr)]->contains(addr);
}

Cache &
BankedCache::bank(std::uint32_t b)
{
    vantage_assert(b < banks_.size(), "bank %u out of range", b);
    return *banks_[b];
}

const Cache &
BankedCache::bank(std::uint32_t b) const
{
    vantage_assert(b < banks_.size(), "bank %u out of range", b);
    return *banks_[b];
}

std::uint32_t
BankedCache::numPartitions() const
{
    return banks_[0]->scheme().numPartitions();
}

std::uint32_t
BankedCache::allocationQuantum() const
{
    return banks_[0]->scheme().allocationQuantum();
}

void
BankedCache::setAllocations(const std::vector<std::uint32_t> &units)
{
    for (auto &bank : banks_) {
        bank->scheme().setAllocations(units);
    }
}

void
BankedCache::applyBrrip(const std::vector<bool> &brrip)
{
    for (auto &bank : banks_) {
        auto *vr = dynamic_cast<VantageRrip *>(&bank->scheme());
        if (vr == nullptr) {
            return; // Homogeneous banks: first miss ends it.
        }
        const auto parts =
            static_cast<PartId>(bank->scheme().numPartitions());
        for (PartId p = 0; p < parts; ++p) {
            vr->setBrrip(p, brrip[p]);
        }
    }
}

bool
BankedCache::wantsBrrip() const
{
    return dynamic_cast<const VantageRrip *>(
               &banks_[0]->scheme()) != nullptr;
}

std::uint64_t
BankedCache::actualSize(PartId part) const
{
    std::uint64_t total = 0;
    for (const auto &bank : banks_) {
        total += bank->scheme().actualSize(part);
    }
    return total;
}

std::uint64_t
BankedCache::targetSize(PartId part) const
{
    std::uint64_t total = 0;
    for (const auto &bank : banks_) {
        total += bank->scheme().targetSize(part);
    }
    return total;
}

CacheAccessStats
BankedCache::totalStats() const
{
    CacheAccessStats out;
    for (const auto &bank : banks_) {
        const CacheAccessStats s = bank->totalStats();
        out.hits += s.hits;
        out.misses += s.misses;
    }
    return out;
}

CacheAccessStats
BankedCache::partAccessStats(PartId part) const
{
    CacheAccessStats out;
    for (const auto &bank : banks_) {
        const CacheAccessStats &s = bank->partAccessStats(part);
        out.hits += s.hits;
        out.misses += s.misses;
    }
    return out;
}

std::uint64_t
BankedCache::writebacks() const
{
    std::uint64_t total = 0;
    for (const auto &bank : banks_) {
        total += bank->writebacks();
    }
    return total;
}

void
BankedCache::resetStats()
{
    for (auto &bank : banks_) {
        bank->resetStats();
    }
}

void
BankedCache::enableHistograms()
{
    for (auto &bank : banks_) {
        bank->enableHistograms();
    }
}

void
BankedCache::attachDigest(AccessDigest *digest)
{
    extDigest_ = digest;
    if (digest == nullptr) {
        for (auto &bank : banks_) {
            bank->attachDigest(nullptr);
        }
        bankDigests_.clear();
        return;
    }
    // Sized once up front: the banks hold pointers into this vector.
    bankDigests_.assign(banks_.size(), AccessDigest());
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        banks_[b]->attachDigest(&bankDigests_[b]);
    }
}

void
BankedCache::finalizeDigest()
{
    if (extDigest_ == nullptr) {
        return;
    }
    // Bank-major merge: each bank's stream value is one word of the
    // outer digest, in bank order.
    for (const AccessDigest &d : bankDigests_) {
        extDigest_->fold(d.value());
    }
}

void
BankedCache::checkInvariants(InvariantReport &rep) const
{
    for (const auto &bank : banks_) {
        bank->checkInvariants(rep);
    }
}

void
BankedCache::createPartition(PartId part)
{
    for (auto &bank : banks_) {
        bank->createPartition(part);
    }
}

void
BankedCache::destroyPartition(PartId part)
{
    for (auto &bank : banks_) {
        bank->destroyPartition(part);
    }
}

bool
BankedCache::partitionActive(PartId part) const
{
    return banks_[0]->scheme().partitionActive(part);
}

void
BankedCache::registerLiveIntrospection(StatsRegistry &reg) const
{
    for (std::uint32_t b = 0; b < numBanks(); ++b) {
        const std::string suffix = ".bank" + std::to_string(b);
        banks_[b]->registerIntrospection(reg, "cache" + suffix);
        const auto &scheme = banks_[b]->scheme();
        if (const auto *v =
                dynamic_cast<const VantageController *>(&scheme)) {
            v->registerIntrospection(reg, "vantage" + suffix);
        } else {
            scheme.registerIntrospection(reg, "scheme" + suffix);
        }
    }
}

void
BankedCache::registerStats(StatsRegistry &reg,
                           const std::string &prefix) const
{
    for (std::uint32_t b = 0; b < numBanks(); ++b) {
        banks_[b]->registerStats(
            reg, prefix + ".bank" + std::to_string(b));
    }
}

} // namespace vantage
