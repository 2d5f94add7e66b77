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
 * LayerWorkset across every job that asks.
 *
 * Built on the cache policy of content_cache.hh — sharded maps,
 * compute-outside-the-lock generation, FIFO byte budget, load/hit
 * stats.  Worksets can be large (B is a full k x n weight matrix), so
 * bounded deployments should set a byte budget; eviction never changes
 * a result, only regeneration cost.
 *
 * Persistence: cache_store.hh serializes worksets to a versioned GRFW
 * file between runs; entries restored from disk are tracked separately
 * (Stats::loadedEntries / loadHits) so a warm run can report how much
 * generation the file actually skipped.
 */

#ifndef GRIFFIN_RUNTIME_WORKSET_CACHE_HH
#define GRIFFIN_RUNTIME_WORKSET_CACHE_HH

#include "runtime/content_cache.hh"
#include "tensor/workset.hh"

namespace griffin {

/**
 * Default resident-byte bound for driver-owned and runner-owned
 * workset caches.  Worksets hold whole weight matrices, so unbounded
 * retention across a large sweep costs hundreds of megabytes; 256 MiB
 * keeps the arch-axis reuse window while bounding the footprint.
 */
constexpr std::uint64_t defaultWorksetByteBudget = 256ull << 20;

/**
 * Shard count sized to the budget: worksets are large, so the
 * per-shard slice of a byte budget must stay bigger than one entry or
 * big-layer worksets evict on insert.
 */
constexpr std::size_t defaultWorksetShards = 4;

class WorksetCache
{
  public:
    using Key = CacheKey128;
    using Stats = CacheStats;

    explicit WorksetCache(std::size_t shards = defaultWorksetShards)
        : cache_(shards)
    {
    }

    /**
     * The workset of one parameter record, generated on first request
     * and shared afterwards.  The returned workset is immutable and
     * outlives the cache entry (shared ownership), so callers may hold
     * it across clear() or eviction.
     */
    std::shared_ptr<const LayerWorkset>
    obtain(const WorksetParams &params);

    Stats stats() const { return cache_.stats(); }
    void clear() { cache_.clear(); }
    void setByteBudget(std::uint64_t bytes)
    {
        cache_.setByteBudget(bytes);
    }

    /** Insert a disk-restored workset (see ContentCache::insertLoaded). */
    bool
    insertLoaded(const Key &key, LayerWorkset workset)
    {
        return cache_.insertLoaded(key, std::move(workset));
    }

    /** Visit every resident entry (see ContentCache::forEachEntry). */
    void
    forEachEntry(const std::function<void(
                     const Key &,
                     const std::shared_ptr<const LayerWorkset> &)> &fn)
        const
    {
        cache_.forEachEntry(fn);
    }

    /**
     * The key of one workset: every WorksetParams field, doubles by
     * bit pattern.  Part of the persistent cache-file contract
     * (cache_store.hh): changing it requires a GRFW version bump.
     */
    static Key contentKey(const WorksetParams &params);

  private:
    ContentCache<LayerWorkset> cache_;
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
