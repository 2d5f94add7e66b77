/**
 * @file
 * Declarative experiment sweeps over the (architecture x network x
 * category x RunOptions) grid, sharded across a work-stealing pool.
 *
 * The seed benches walk this grid serially through
 * Accelerator::runSuite; sparse-optimization studies sweep grids far
 * larger than six networks, so the runner turns the grid into
 * independent jobs:
 *
 *   SweepSpec spec;
 *   spec.archs = {sparseBStar(), griffinArch()};
 *   spec.networks = benchmarkSuite();
 *   spec.categories = {DnnCategory::B, DnnCategory::AB};
 *   auto sweep = runSweep(spec, 8);
 *   writeJson(std::cout, sweep.results());
 *
 * Determinism: every job's inputs are fixed at expansion time (its
 * own RunOptions copy; Accelerator::run derives all randomness from
 * opt.seed and the network name), and results land in a slot indexed
 * by submission order — so the merged output is bit-identical no
 * matter how many threads ran it or how work-stealing interleaved the
 * jobs.  Accelerator::run is const and shares no mutable state, which
 * is what makes the fan-out safe.  Jobs are grouped into batches and
 * each (batch, layer) pair is one pool sub-job running
 * Accelerator::runLayer, whose streams depend only on (seed, network,
 * layer index); the per-job reduce reassembles NetworkResult in layer
 * order, preserving the same bit-identity guarantee.
 *
 * With SweepSpec::batchArchs a batch is every architecture of one
 * (network, category, options) grid point, so each layer workset is
 * generated once and swept across the whole arch axis while still
 * warm; otherwise each job is its own batch.  Two memos skip repeated
 * work without changing any result: a workset cache shared by the
 * whole sweep (workset_cache.hh) and a B-schedule memo owned by each
 * sub-job (schedule_memo.hh), which serves the architectures of one
 * batch that share a B routing.
 */

#ifndef GRIFFIN_RUNTIME_RUNNER_HH
#define GRIFFIN_RUNTIME_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "griffin/accelerator.hh"
#include "runtime/workset_cache.hh"

namespace griffin {

/**
 * One resolved (axis name, value token) pair of a grid-expanded
 * RunOptions variant.  Jobs carry their full coordinate list so every
 * serialized result row is self-describing (runtime/grid.hh builds
 * them; hand-built SweepSpecs may leave them empty).
 */
struct AxisCoordinate
{
    std::string axis;
    std::string value;

    bool
    operator==(const AxisCoordinate &o) const
    {
        return axis == o.axis && value == o.value;
    }
    bool operator!=(const AxisCoordinate &o) const { return !(*this == o); }
};

/** "axis=value axis=value" rendering for tables and logs. */
std::string coordsLabel(const std::vector<AxisCoordinate> &coords);

/**
 * One point of the sweep grid, fully determined before submission.
 * Indices refer to the SweepSpec vectors the job was expanded from.
 */
struct SweepJob
{
    std::size_t archIndex = 0;
    std::size_t networkIndex = 0;
    std::size_t categoryIndex = 0;
    std::size_t optionsIndex = 0;
    RunOptions options; ///< resolved options, job seed included
    /** Grid coordinates of this job's RunOptions variant (empty for
     *  hand-built variant lists). */
    std::vector<AxisCoordinate> coords;
};

/** The declarative grid. */
struct SweepSpec
{
    std::vector<ArchConfig> archs;
    std::vector<NetworkSpec> networks;
    std::vector<DnnCategory> categories;

    /**
     * RunOptions axis of the grid; one entry sweeps nothing.  Empty is
     * a fatal() user error (there would be no jobs).
     */
    std::vector<RunOptions> optionVariants = {RunOptions{}};

    /**
     * Axis coordinates describing each RunOptions variant, parallel to
     * optionVariants (GridSpec::toSweepSpec fills it).  Either empty —
     * jobs then carry no coordinates — or exactly one entry per
     * variant; any other size is a validate() error.
     */
    std::vector<std::vector<AxisCoordinate>> optionCoords;

    /**
     * When true, each job's seed is re-derived as
     * mixSeed(options.seed, arch name) so architectures see
     * independent tensors; default keeps the per-variant seed so
     * architectures are compared on identical tensors (the paper's
     * methodology).
     */
    bool perArchSeeds = false;

    /**
     * When true, the runner batches multiple GEMMs per job: all jobs
     * of one (network, category, options) grid point — i.e. the jobs
     * that differ only along the *architecture* axis — form one batch,
     * and each (batch, layer) pair becomes one pool sub-job that runs
     * every architecture of the batch over that layer in submission
     * order.  The first architecture generates the layer workset and
     * the rest reuse it straight from the workset cache (same
     * generation parameters, still warm), and architectures sharing a
     * B routing reuse each other's packed weight tiles through the
     * sub-job's schedule memo.  When false, each job is a batch of
     * one (still one sub-job per layer).  Results are bit-identical
     * to serial Accelerator::run either way, for any thread count.
     */
    bool batchArchs = false;

    /**
     * Optional job predicate: expandSweep() drops jobs it rejects.
     * This is how an experiment runs a non-rectangular grid (e.g. each
     * architecture only in its own category) without paying for the
     * full cross product.  Null keeps every job.  The filter runs on
     * the fully-resolved job, before fleet sharding, so sharded and
     * unsharded expansions see the same filtered list.
     */
    std::function<bool(const SweepJob &)> jobFilter;

    /**
     * When true, runSweep() wall-clocks every job (SweepResult::
     * jobElapsedMs) so sinks can emit `elapsed_ms` rows (`--timings`).
     * Timing is observation only — it never feeds back into any
     * simulated result.  Default off keeps baseline outputs free of
     * machine-dependent fields.
     */
    bool collectTimings = false;

    /**
     * Grid sharding: expandSweep() keeps only the shardIndex-th of
     * shardCount contiguous blocks of the (filtered) job list.  Blocks
     * partition the list in submission order, so the concatenation of
     * every shard's results in shard order is byte-identical to the
     * unsharded run — N processes can cover one grid disjointly
     * (`--grid-shard i/n`).  Defaults run everything.
     */
    std::size_t shardIndex = 0;
    std::size_t shardCount = 1;


    /**
     * Expanded job count of the full cartesian product
     * (archs * networks * categories * options) — before jobFilter
     * and fleet sharding are applied; expandSweep().size() is the
     * post-filter, post-shard count.
     */
    std::size_t jobCount() const;

    void validate() const;
};

/** Merged outcome of one sweep. */
class SweepResult
{
  public:
    SweepResult() = default;
    SweepResult(std::vector<SweepJob> jobs,
                std::vector<NetworkResult> results,
                CacheStats schedule_stats = {},
                CacheStats workset_stats = {},
                std::vector<double> job_elapsed_ms = {})
        : jobs_(std::move(jobs)), results_(std::move(results)),
          cacheStats_(schedule_stats), worksetStats_(workset_stats),
          jobElapsedMs_(std::move(job_elapsed_ms))
    {
    }

    /** Jobs in submission (= expansion) order. */
    const std::vector<SweepJob> &jobs() const { return jobs_; }

    /** results()[i] is jobs()[i]'s outcome — same order, any thread
     *  count. */
    const std::vector<NetworkResult> &results() const { return results_; }

    /**
     * Results of the jobs matching a predicate on SweepJob, in
     * submission order — the benches' aggregation views ("all networks
     * of arch a in category c") without hand-maintained index math.
     */
    template <typename Pred>
    std::vector<NetworkResult>
    slice(Pred pred) const
    {
        std::vector<NetworkResult> out;
        for (std::size_t i = 0; i < jobs_.size(); ++i)
            if (pred(jobs_[i]))
                out.push_back(results_[i]);
        return out;
    }

    /**
     * B-schedule memo counters of the sweep: hits and misses summed
     * over every sub-job's memo; entries and residentBytes are those
     * of the largest single memo (each is dropped when its sub-job
     * ends, so nothing stays resident after the sweep).
     */
    const CacheStats &cacheStats() const { return cacheStats_; }

    /** Workset-cache counters of the sweep (generation reuse). */
    const CacheStats &worksetStats() const { return worksetStats_; }

    /**
     * Always empty: A tiles are scheduled fresh, with no cache.  Kept
     * because the repository benchmark (perfbench/) still reads it.
     */
    CacheStats aScheduleStats() const { return {}; }

    /**
     * Per-job wall-time in milliseconds, parallel to jobs() — empty
     * unless the sweep ran with SweepSpec::collectTimings.  A job's
     * time is the sum of its sub-jobs' runLayer times (reduce
     * excluded).
     */
    const std::vector<double> &jobElapsedMs() const
    {
        return jobElapsedMs_;
    }

  private:
    std::vector<SweepJob> jobs_;
    std::vector<NetworkResult> results_;
    CacheStats cacheStats_;
    CacheStats worksetStats_;
    std::vector<double> jobElapsedMs_;
};

/**
 * Expand the grid in (options, arch, network, category) nesting order
 * — the order a serial quadruple loop would visit it.
 */
std::vector<SweepJob> expandSweep(const SweepSpec &spec);

/**
 * Run the sweep on `threads` workers (1 = serial through the same
 * code path).  A workset cache is shared across jobs; pass `worksets`
 * to reuse one across sweeps, or nullptr
 * for a per-sweep cache bounded at defaultWorksetByteBudget, so a
 * sweep never retains unbounded generated tensors.  Every sub-job
 * owns a fresh B-schedule memo.  Both are optimizations only: the
 * merged results are bit-identical with or without them, and the
 * memo counters are the same for any thread count.
 */
SweepResult runSweep(const SweepSpec &spec, int threads,
                     WorksetCache *worksets = nullptr);

} // namespace griffin

#endif // GRIFFIN_RUNTIME_RUNNER_HH
