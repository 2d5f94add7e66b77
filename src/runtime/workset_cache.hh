/**
 * @file
 * Content-addressed cache of layer worksets — the stage-1 artifact of
 * the staged simulation pipeline (tensor/workset.hh).
 *
 * Along the architecture axis of a sweep grid, every design point
 * with the same tile height consumes the *same* generated operands:
 * the workset is a pure function of (layer shape, sparsity rates,
 * generation knobs, layer stream seed), none of which the arch axis
 * touches.  The monolithic simulator regenerated them per job; this
 * cache keys the workset by a 128-bit content hash of exactly those
 * parameters (WorksetCache::contentKey) and shares one immutable
 * LayerWorkset across every job that asks — and, when a driver passes
 * one cache to several sweeps, across the experiments of one run.
 *
 * One map behind one mutex.  A miss generates *outside* the lock
 * (generation takes milliseconds; holding the lock would serialise the
 * pool) and the first finisher wins — generation is deterministic, so
 * concurrent double-generates insert equal worksets.  Worksets can be
 * large (B is a full k x n weight matrix), so bounded deployments set
 * a byte budget, enforced by evicting the oldest insertion first.
 * Eviction only drops the cache's reference, never a caller's, and
 * never changes a result — only the regeneration cost.
 */

#ifndef GRIFFIN_RUNTIME_WORKSET_CACHE_HH
#define GRIFFIN_RUNTIME_WORKSET_CACHE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/mutex.hh"
#include "runtime/cache_key.hh"
#include "tensor/workset.hh"

namespace griffin {

/**
 * Default resident-byte bound for driver-owned and runner-owned
 * workset caches.  Worksets hold whole weight matrices, so unbounded
 * retention across a large sweep costs hundreds of megabytes; 256 MiB
 * keeps the arch-axis reuse window while bounding the footprint.
 */
constexpr std::uint64_t defaultWorksetByteBudget = 256ull << 20;

class WorksetCache
{
  public:
    using Key = CacheKey128;
    using Stats = CacheStats;

    /**
     * The workset of one parameter record, generated on first request
     * and shared afterwards.  The returned workset is immutable and
     * outlives the cache entry (shared ownership), so callers may hold
     * it across eviction.
     */
    std::shared_ptr<const LayerWorkset>
    obtain(const WorksetParams &params);

    Stats stats() const;

    /**
     * Cap resident workset bytes (0 = unbounded, the default): once
     * the cache holds more, it evicts oldest insertion first.  Applies
     * immediately to current residents and to every later insert.
     */
    void setByteBudget(std::uint64_t bytes);

    /** The key of one workset: every WorksetParams field, doubles by
     *  bit pattern. */
    static Key contentKey(const WorksetParams &params);

  private:
    struct Entry
    {
        std::shared_ptr<const LayerWorkset> value;
        std::uint64_t bytes = 0;
    };

    void evictOverBudget() GRIFFIN_REQUIRES(mu_);

    mutable Mutex mu_;
    std::unordered_map<Key, Entry, CacheKey128Hash> entries_
        GRIFFIN_GUARDED_BY(mu_);
    /** Insertion order, for eviction. */
    std::deque<Key> fifo_ GRIFFIN_GUARDED_BY(mu_);
    std::uint64_t bytes_ GRIFFIN_GUARDED_BY(mu_) = 0;
    std::uint64_t budget_ GRIFFIN_GUARDED_BY(mu_) = 0;
    std::uint64_t hits_ GRIFFIN_GUARDED_BY(mu_) = 0;
    std::uint64_t misses_ GRIFFIN_GUARDED_BY(mu_) = 0;
    std::uint64_t evictions_ GRIFFIN_GUARDED_BY(mu_) = 0;
};

/**
 * Obtain through `cache` when the caller provided one, generate
 * locally otherwise.  The workset is identical either way — the cache
 * only skips regeneration.
 */
std::shared_ptr<const LayerWorkset>
obtainWorkset(WorksetCache *cache, const WorksetParams &params);

} // namespace griffin

#endif // GRIFFIN_RUNTIME_WORKSET_CACHE_HH
