/**
 * @file
 * Memoization of B-side preprocessing within one batched sweep
 * sub-job — stage 2 of the staged GEMM pipeline (sim/gemm_sim.hh).
 *
 * preprocessB() is a pure function of one weight tile's zero pattern,
 * the borrow window, and the shuffle setting, and it is the dominant
 * per-column-tile cost of Sparse.B and preprocessed dual-sparse runs.
 * In a sweep, a packed stream is reused only by architectures that see
 * the same layer under the same B routing, and the runner already
 * runs those together: one (grid point, layer) sub-job sweeps every
 * architecture of the batch over the layer.  Each sub-job owns one
 * ScheduleMemo, hands it to every architecture through
 * SimOptions::scheduleMemo, and drops it when the sub-job ends.
 *
 * The memo is therefore single-threaded and short-lived: no lock, no
 * byte budget, no eviction, no persistence.  Memoized and freshly
 * computed schedules are identical, so it never changes a result —
 * only how often preprocessB() runs.
 */

#ifndef GRIFFIN_RUNTIME_SCHEDULE_MEMO_HH
#define GRIFFIN_RUNTIME_SCHEDULE_MEMO_HH

#include <memory>
#include <unordered_map>

#include "runtime/content_cache.hh"
#include "sched/b_preprocess.hh"

namespace griffin {

class ScheduleMemo
{
  public:
    /**
     * The compressed stream of tile `b` under window `db` and
     * `shuffler`, computed on first request and shared afterwards.
     * The returned schedule is immutable and outlives the memo (shared
     * ownership).  Memoized schedules never carry recorded ops
     * (record = false); verification passes that need ops must call
     * preprocessB() directly.
     */
    std::shared_ptr<const BSchedule>
    obtain(const TileViewB &b, const Borrow &db, const Shuffler &shuffler);

    /** Hits, misses, entries and resident schedule bytes so far. */
    const CacheStats &stats() const { return stats_; }

    /**
     * The key of one B-side schedule: covers the schedule's full input
     * domain — tile geometry, every element's zero pattern (padding
     * included, via the view's zero-extension), the borrow window, and
     * the shuffle config.
     */
    static CacheKey128 contentKey(const TileViewB &b, const Borrow &db,
                                  const Shuffler &shuffler);

  private:
    std::unordered_map<CacheKey128, std::shared_ptr<const BSchedule>,
                       CacheKey128Hash>
        entries_;
    CacheStats stats_;
};

} // namespace griffin

#endif // GRIFFIN_RUNTIME_SCHEDULE_MEMO_HH
