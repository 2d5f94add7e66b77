/**
 * @file
 * Shared policy machinery for the runtime's content-addressed caches.
 *
 * The sweep runner shares whole layer worksets across jobs and
 * threads (workset_cache.hh), which wants a 128-bit content key,
 * hash-sharded maps behind per-shard mutexes, compute-outside-the-lock
 * misses where the first finisher wins, an optional byte budget with
 * FIFO-per-shard eviction, and load/hit accounting that distinguishes
 * disk-restored entries.  ContentCache holds that policy; WorksetCache
 * is a thin typed front that contributes the key derivation and value
 * computation.  The key type, its hash and CacheStats are shared with
 * the single-threaded schedule memo (schedule_memo.hh).
 *
 * Values must expose `std::size_t approxBytes() const` (the unit the
 * byte budget and Stats::residentBytes count) and are shared as
 * immutable `shared_ptr<const V>`: eviction only drops the cache's
 * reference, never a caller's, and never changes any result — only the
 * hit rate.
 *
 * Keys are 128 bits of splitmix-mixed content hash (ContentHasher);
 * collisions are treated as impossible (the sweep grids these keys
 * serve are ~1e4 entries, collision odds ~1e-30).
 */

#ifndef GRIFFIN_RUNTIME_CONTENT_CACHE_HH
#define GRIFFIN_RUNTIME_CONTENT_CACHE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/rng.hh"

namespace griffin {

/** 128-bit content key of one cached entry. */
struct CacheKey128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const CacheKey128 &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
    bool operator!=(const CacheKey128 &o) const { return !(*this == o); }
};

/** Hash-map hasher over a content key (already uniformly mixed). */
struct CacheKey128Hash
{
    std::size_t
    operator()(const CacheKey128 &k) const
    {
        return static_cast<std::size_t>(k.lo);
    }
};

/** Aggregate counters (monotone except entries/residentBytes). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< includes concurrent recomputes
    std::uint64_t entries = 0; ///< resident values
    std::uint64_t residentBytes = 0; ///< approx footprint of entries
    std::uint64_t evictions = 0; ///< entries dropped by byte budget
    /** Entries restored from a cache file (cache_store.hh). */
    std::uint64_t loadedEntries = 0;
    /** Hits served by a disk-loaded entry: the computation was skipped
     *  entirely thanks to a previous run. */
    std::uint64_t loadHits = 0;

    double
    hitRate() const
    {
        const auto total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * Two independently-salted splitmix streams folded over a sequence of
 * words: the shared 128-bit key derivation.  Each key kind seeds it
 * with its own salt pair so keys of different kinds never share a
 * distribution, then folds every input its computation depends on.
 */
class ContentHasher
{
  public:
    ContentHasher(std::uint64_t salt_lo, std::uint64_t salt_hi,
                  std::uint64_t init)
        : lo_(Rng::mixSeed(salt_lo, init)),
          hi_(Rng::mixSeed(salt_hi, init))
    {
    }

    void
    fold(std::uint64_t v)
    {
        lo_ = Rng::mixSeed(lo_, v);
        hi_ = Rng::mixSeed(hi_, v + 0x9e37ULL);
    }

    /** Fold a double by bit pattern (distinguishes -0.0 from 0.0, which
     *  is fine: generators treat them identically but keys need not). */
    void
    foldDouble(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        fold(bits);
    }

    /** Fold a byte sequence packed 8 bytes per splitmix round. */
    void
    foldBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        std::uint64_t word = 0;
        int packed = 0;
        for (std::size_t i = 0; i < size; ++i) {
            word = (word << 8) | bytes[i];
            if (++packed == 8) {
                fold(word);
                word = 0;
                packed = 0;
            }
        }
        if (packed != 0)
            fold(word);
    }

    CacheKey128 key() const { return CacheKey128{lo_, hi_}; }

  private:
    std::uint64_t lo_;
    std::uint64_t hi_;
};

/**
 * The shared cache policy over immutable values of type V (which must
 * provide `std::size_t approxBytes() const`).  Thread-safe: the map is
 * sharded by key hash, each shard behind its own mutex.  On a miss the
 * value is computed *outside* the shard lock (computations are
 * milliseconds; holding the lock would serialise the pool) and the
 * first finisher wins — compute functions must be deterministic, so
 * concurrent double-computes insert equal values.
 */
template <typename V>
class ContentCache
{
  public:
    using Key = CacheKey128;
    using Stats = CacheStats;

    explicit ContentCache(std::size_t shards = 16)
    {
        if (shards == 0)
            fatal("content cache needs at least 1 shard");
        shards_.reserve(shards);
        for (std::size_t i = 0; i < shards; ++i)
            shards_.push_back(std::make_unique<Shard>());
    }

    /**
     * The value under `key`, computed by `compute()` on first request
     * and shared afterwards.  The returned value is immutable and
     * outlives the cache entry (shared ownership), so callers may hold
     * it across clear().
     */
    template <typename Compute>
    std::shared_ptr<const V>
    obtain(const Key &key, Compute &&compute)
    {
        Shard &shard = shardFor(key);
        {
            MutexLock lock(shard.mu);
            auto it = shard.entries.find(key);
            if (it != shard.entries.end()) {
                ++shard.hits;
                if (it->second.fromDisk)
                    ++shard.loadHits;
                return it->second.value;
            }
            ++shard.misses;
        }

        // Compute outside the lock; a concurrent requester of the same
        // key recomputes the identical value and the first insert wins.
        auto fresh = std::make_shared<const V>(compute());

        bool inserted = false;
        auto resident =
            insertIntoShard(shard, key, fresh, false, inserted);
        return resident != nullptr ? resident : fresh;
    }

    /**
     * Insert one value under an externally computed key, marking it
     * disk-loaded for Stats purposes.  Used by cache_store.hh when
     * restoring a cache file; an already-present key is left alone
     * (the resident entry is identical by construction).  Returns
     * whether the entry was inserted.
     */
    bool
    insertLoaded(const Key &key, V value)
    {
        Shard &shard = shardFor(key);
        bool inserted = false;
        insertIntoShard(shard, key,
                        std::make_shared<const V>(std::move(value)),
                        true, inserted);
        return inserted;
    }

    Stats
    stats() const
    {
        Stats s;
        for (const auto &shard : shards_) {
            MutexLock lock(shard->mu);
            s.hits += shard->hits;
            s.misses += shard->misses;
            s.entries += shard->entries.size();
            s.residentBytes += shard->bytes;
            s.evictions += shard->evictions;
            s.loadedEntries += shard->loaded;
            s.loadHits += shard->loadHits;
        }
        return s;
    }

    /** Drop every entry (stat counters survive). */
    void
    clear()
    {
        for (auto &shard : shards_) {
            MutexLock lock(shard->mu);
            shard->entries.clear();
            shard->fifo.clear();
            shard->bytes = 0;
        }
    }

    /**
     * Cap resident value bytes (0 = unbounded, the default).  Each of
     * the N shards evicts FIFO — oldest insertion first — once it
     * holds more than budget/N bytes.  Applies immediately to current
     * residents and to every later insert.
     */
    void
    setByteBudget(std::uint64_t bytes)
    {
        byteBudget_.store(bytes);
        if (bytes == 0)
            return;
        for (auto &shard : shards_) {
            MutexLock lock(shard->mu);
            evictOver(*shard, shardBudget());
        }
    }

    /**
     * Visit every resident entry (shard by shard, under that shard's
     * lock — the callback must not reenter the cache).  Iteration
     * order is unspecified; the cache store sorts by key for a
     * deterministic file layout.  The callback receives the shared
     * owner, so a snapshot taken here stays valid across later
     * evictions.
     */
    void
    forEachEntry(const std::function<void(
                     const Key &, const std::shared_ptr<const V> &)> &fn)
        const
    {
        for (const auto &shard : shards_) {
            MutexLock lock(shard->mu);
            for (const auto &[key, entry] : shard->entries)
                fn(key, entry.value);
        }
    }

  private:
    struct Entry
    {
        std::shared_ptr<const V> value;
        std::uint64_t bytes = 0;
        bool fromDisk = false;
    };

    struct Shard
    {
        mutable Mutex mu;
        std::unordered_map<Key, Entry, CacheKey128Hash> entries
            GRIFFIN_GUARDED_BY(mu);
        /** Insertion order, for eviction. */
        std::deque<Key> fifo GRIFFIN_GUARDED_BY(mu);
        std::uint64_t bytes GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t hits GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t misses GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t evictions GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t loaded GRIFFIN_GUARDED_BY(mu) = 0;
        std::uint64_t loadHits GRIFFIN_GUARDED_BY(mu) = 0;
    };

    Shard &
    shardFor(const Key &key)
    {
        return *shards_[key.hi % shards_.size()];
    }

    /** Insert under the shard lock, then evict down to the budget. */
    std::shared_ptr<const V>
    insertIntoShard(Shard &shard, const Key &key,
                    std::shared_ptr<const V> value, bool from_disk,
                    bool &inserted)
    {
        const auto bytes =
            static_cast<std::uint64_t>(value->approxBytes());
        MutexLock lock(shard.mu);
        Entry entry{std::move(value), bytes, from_disk};
        auto [it, fresh] = shard.entries.emplace(key, std::move(entry));
        inserted = fresh;
        if (fresh) {
            shard.fifo.push_back(key);
            shard.bytes += bytes;
            if (from_disk)
                ++shard.loaded;
            evictOver(shard, shardBudget());
            // The freshly inserted entry itself may have been the FIFO
            // victim of an over-tight budget; the caller still gets its
            // value (ownership is shared), only residency changes.
        }
        auto found = shard.entries.find(key);
        return found != shard.entries.end() ? found->second.value
                                            : nullptr;
    }

    void
    evictOver(Shard &shard, std::uint64_t shard_budget)
        GRIFFIN_REQUIRES(shard.mu)
    {
        if (shard_budget == 0)
            return;
        while (shard.bytes > shard_budget && !shard.fifo.empty()) {
            const Key victim = shard.fifo.front();
            shard.fifo.pop_front();
            auto it = shard.entries.find(victim);
            if (it == shard.entries.end())
                continue; // already dropped by clear()
            shard.bytes -= it->second.bytes;
            shard.entries.erase(it);
            ++shard.evictions;
        }
    }

    std::uint64_t
    shardBudget() const
    {
        const auto budget = byteBudget_.load();
        return budget == 0 ? 0
                           : std::max<std::uint64_t>(
                                 1, budget / shards_.size());
    }

    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::uint64_t> byteBudget_{0};
};

} // namespace griffin

#endif // GRIFFIN_RUNTIME_CONTENT_CACHE_HH
