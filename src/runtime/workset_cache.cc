#include "runtime/workset_cache.hh"

#include "runtime/telemetry.hh"

namespace griffin {

namespace {

/** One generation, the operand_gen stage.  A cache hit costs a hash
 *  lookup and must not inflate the stage total, so only this is
 *  spanned. */
std::shared_ptr<const LayerWorkset>
generateShared(const WorksetParams &params)
{
    ScopedSpan span("operand_gen");
    return std::make_shared<const LayerWorkset>(
        generateLayerWorkset(params));
}

} // namespace

WorksetCache::Key
WorksetCache::contentKey(const WorksetParams &params)
{
    ContentHasher h(0x0b5e55edULL, 0x7e4a50e5ULL, params.seed);
    h.fold(static_cast<std::uint64_t>(params.m));
    h.fold(static_cast<std::uint64_t>(params.k));
    h.fold(static_cast<std::uint64_t>(params.n));
    h.foldDouble(params.weightSparsity);
    h.foldDouble(params.actSparsity);
    h.foldDouble(params.weightLaneBias);
    h.foldDouble(params.actRunLength);
    h.fold(static_cast<std::uint64_t>(params.lanePeriod));
    return h.key();
}

std::shared_ptr<const LayerWorkset>
WorksetCache::obtain(const WorksetParams &params)
{
    const Key key = contentKey(params);
    {
        MutexLock lock(mu_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            return it->second.value;
        }
        ++misses_;
    }

    // Generate outside the lock; a concurrent requester of the same
    // key generates the identical workset and the first insert wins.
    auto fresh = generateShared(params);
    const auto bytes = static_cast<std::uint64_t>(fresh->approxBytes());

    MutexLock lock(mu_);
    const auto [it, inserted] = entries_.emplace(key, Entry{fresh, bytes});
    if (!inserted)
        return it->second.value;
    fifo_.push_back(key);
    bytes_ += bytes;
    // The fresh workset itself may be the victim of an over-tight
    // budget; the caller still gets it, only residency changes.
    evictOverBudget();
    return fresh;
}

WorksetCache::Stats
WorksetCache::stats() const
{
    MutexLock lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = entries_.size();
    s.residentBytes = bytes_;
    s.evictions = evictions_;
    return s;
}

void
WorksetCache::setByteBudget(std::uint64_t bytes)
{
    MutexLock lock(mu_);
    budget_ = bytes;
    evictOverBudget();
}

void
WorksetCache::evictOverBudget()
{
    if (budget_ == 0)
        return;
    while (bytes_ > budget_) {
        const auto it = entries_.find(fifo_.front());
        fifo_.pop_front();
        bytes_ -= it->second.bytes;
        entries_.erase(it);
        ++evictions_;
    }
}

std::shared_ptr<const LayerWorkset>
obtainWorkset(WorksetCache *cache, const WorksetParams &params)
{
    return cache != nullptr ? cache->obtain(params)
                            : generateShared(params);
}

} // namespace griffin
