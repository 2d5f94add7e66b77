/**
 * @file
 * Memoization of B-side preprocessing within one batched sweep
 * sub-job — stage 2 of the staged GEMM pipeline (sim/gemm_sim.hh).
 *
 * preprocessB() is a pure function of one weight tile's zero pattern,
 * the borrow window, and the shuffle setting.  Preprocessed dual-sparse
 * runs need the whole packed stream per column tile, and in a sweep a
 * stream is reused only by architectures that see the same layer under
 * the same B routing — which the runner already runs together: one
 * (grid point, layer) sub-job sweeps every architecture of the batch
 * over the layer.  Each sub-job owns one ScheduleMemo, hands it to
 * every architecture through SimOptions::scheduleMemo, and drops it
 * when the sub-job ends.
 *
 * Sparse.B runs never consult the memo: they need only the packing's
 * counts (countB()), and few of their tiles repeat — on the fig5 grid
 * 8% of lookups hit, while a key costs a sixth to a half of a count.
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

#include "runtime/cache_key.hh"
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
     * domain — tile geometry, the tile's occupancy words (its zero
     * pattern, edge padding included via the zero-extension), the
     * borrow window, and the shuffle config.  Element values do not
     * enter it: tiles with one zero pattern share one schedule.
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
