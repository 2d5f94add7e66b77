#include "runtime/runner.hh"

#include <atomic>
#include <map>
#include <memory>
#include <tuple>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/schedule_memo.hh"
#include "runtime/telemetry.hh"
#include "runtime/thread_pool.hh"

namespace griffin {

std::string
coordsLabel(const std::vector<AxisCoordinate> &coords)
{
    std::string out;
    for (const auto &c : coords) {
        if (!out.empty())
            out += ' ';
        out += c.axis + '=' + c.value;
    }
    return out;
}

std::size_t
SweepSpec::jobCount() const
{
    return archs.size() * networks.size() * categories.size() *
           optionVariants.size();
}

void
SweepSpec::validate() const
{
    if (archs.empty())
        fatal("sweep spec has no architectures");
    if (networks.empty())
        fatal("sweep spec has no networks");
    if (categories.empty())
        fatal("sweep spec has no categories");
    if (optionVariants.empty())
        fatal("sweep spec has no RunOptions variants");
    if (!optionCoords.empty() &&
        optionCoords.size() != optionVariants.size())
        fatal("sweep spec has ", optionCoords.size(),
              " axis-coordinate records for ", optionVariants.size(),
              " RunOptions variants (must match, or be empty)");
    if (shardCount == 0)
        fatal("sweep shard count must be positive");
    if (shardIndex >= shardCount)
        fatal("sweep shard index ", shardIndex, " out of range for ",
              shardCount, " shards (need 0 <= i < n)");
    for (const auto &arch : archs)
        arch.validate();
    for (const auto &net : networks)
        net.validate();
}

std::vector<SweepJob>
expandSweep(const SweepSpec &spec)
{
    spec.validate();
    std::vector<SweepJob> jobs;
    jobs.reserve(spec.jobCount());
    for (std::size_t o = 0; o < spec.optionVariants.size(); ++o) {
        for (std::size_t a = 0; a < spec.archs.size(); ++a) {
            for (std::size_t n = 0; n < spec.networks.size(); ++n) {
                for (std::size_t c = 0; c < spec.categories.size();
                     ++c) {
                    SweepJob job;
                    job.archIndex = a;
                    job.networkIndex = n;
                    job.categoryIndex = c;
                    job.optionsIndex = o;
                    job.options = spec.optionVariants[o];
                    if (!spec.optionCoords.empty())
                        job.coords = spec.optionCoords[o];
                    if (spec.perArchSeeds)
                        job.options.seed = Rng::mixSeed(
                            job.options.seed, spec.archs[a].name);
                    if (spec.jobFilter && !spec.jobFilter(job))
                        continue;
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    if (spec.shardCount > 1) {
        // Contiguous blocks, not modulo striping: concatenating the
        // shards' job lists in shard order must reproduce the
        // unsharded submission order byte-for-byte.
        const std::size_t total = jobs.size();
        const std::size_t lo = total * spec.shardIndex / spec.shardCount;
        const std::size_t hi =
            total * (spec.shardIndex + 1) / spec.shardCount;
        jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(hi),
                   jobs.end());
        jobs.erase(jobs.begin(),
                   jobs.begin() + static_cast<std::ptrdiff_t>(lo));
    }
    return jobs;
}

SweepResult
runSweep(const SweepSpec &spec, int threads, WorksetCache *worksets)
{
    auto jobs = expandSweep(spec);

    std::unique_ptr<WorksetCache> owned_worksets;
    if (worksets == nullptr) {
        // Bounded by default: worksets hold whole weight matrices, and
        // an unbounded per-sweep cache would retain every generated
        // tensor until the sweep ends.  Callers wanting a different
        // bound (or none) pass their own cache.
        owned_worksets = std::make_unique<WorksetCache>();
        owned_worksets->setByteBudget(defaultWorksetByteBudget);
        worksets = owned_worksets.get();
    }

    // One Accelerator per architecture, shared read-only by every job.
    std::vector<Accelerator> accelerators;
    accelerators.reserve(spec.archs.size());
    for (const auto &arch : spec.archs)
        accelerators.emplace_back(arch);

    // Per-job wall-time accumulators (--timings).  Atomics because a
    // batched sub-job adds into several jobs' slots from one worker
    // while other workers add into the same job from other layers.
    std::unique_ptr<std::atomic<std::int64_t>[]> job_ns;
    if (spec.collectTimings) {
        job_ns =
            std::make_unique<std::atomic<std::int64_t>[]>(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            job_ns[i].store(0, std::memory_order_relaxed);
    }
    const auto timeInto = [&job_ns](std::size_t i, auto &&body) {
        if (job_ns == nullptr) {
            body();
            return;
        }
        const std::uint64_t start = monotonicNowNs();
        body();
        job_ns[i].fetch_add(
            static_cast<std::int64_t>(monotonicNowNs() - start),
            std::memory_order_relaxed);
    };

    // Batches in submission order: with batchArchs, the jobs of one
    // (network, category, options) grid point — the arch axis —
    // otherwise one job each.
    std::vector<std::vector<std::size_t>> batches;
    if (spec.batchArchs) {
        std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
                 std::size_t>
            batch_of;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto key =
                std::make_tuple(jobs[i].networkIndex,
                                jobs[i].categoryIndex,
                                jobs[i].optionsIndex);
            auto [it, fresh] = batch_of.emplace(key, batches.size());
            if (fresh)
                batches.emplace_back();
            batches[it->second].push_back(i);
        }
    } else {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            batches.push_back({i});
    }

    const std::uint64_t sweep_start_ns = monotonicNowNs();
    ThreadPool::Stats pool_stats;

    // One sub-job per (batch, layer): every architecture of the batch
    // over that layer's workset while it is warm in the cache.  Each
    // sub-job writes only its own slots, so no result lock is needed
    // and the merge is the identity — submission order is result
    // order.
    std::vector<std::vector<LayerResult>> layer_results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        layer_results[i].resize(
            spec.networks[jobs[i].networkIndex].layerCount());
    std::size_t sub_jobs = 0;
    for (const auto &batch : batches)
        sub_jobs += layer_results[batch.front()].size();
    std::vector<CacheStats> memo_stats(sub_jobs);
    {
        ThreadPool pool(threads);
        std::size_t s = 0;
        for (const auto &batch : batches) {
            const auto layer_count = layer_results[batch.front()].size();
            for (std::size_t l = 0; l < layer_count; ++l, ++s) {
                pool.submit([&spec, &jobs, &accelerators, &layer_results,
                             &memo_stats, &batch, &timeInto, worksets, l,
                             s] {
                    // The sub-job's own memo: architectures of the
                    // batch sharing a B routing pack each weight tile
                    // once.  Sub-job-local, so its counters do not
                    // depend on the thread count.
                    ScheduleMemo memo;
                    for (const std::size_t i : batch) {
                        const SweepJob &job = jobs[i];
                        RunOptions opt = job.options;
                        opt.sim.scheduleMemo = &memo;
                        opt.worksetCache = worksets;
                        timeInto(i, [&] {
                            layer_results[i][l] =
                                accelerators[job.archIndex].runLayer(
                                    spec.networks[job.networkIndex], l,
                                    spec.categories[job.categoryIndex],
                                    opt);
                        });
                    }
                    memo_stats[s] = memo.stats();
                });
            }
        }
        pool.wait();
        pool_stats = pool.stats();
    }
    std::vector<NetworkResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        results[i] = accelerators[job.archIndex].reduceLayers(
            spec.networks[job.networkIndex],
            spec.categories[job.categoryIndex],
            std::move(layer_results[i]), job.options);
    }

    CacheStats schedule_stats;
    for (const CacheStats &m : memo_stats) {
        schedule_stats.hits += m.hits;
        schedule_stats.misses += m.misses;
        if (m.residentBytes > schedule_stats.residentBytes) {
            schedule_stats.entries = m.entries;
            schedule_stats.residentBytes = m.residentBytes;
        }
    }

    const std::uint64_t sweep_ns = monotonicNowNs() - sweep_start_ns;

    std::vector<double> job_elapsed_ms;
    if (job_ns != nullptr) {
        job_elapsed_ms.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            job_elapsed_ms.push_back(
                static_cast<double>(
                    job_ns[i].load(std::memory_order_relaxed)) /
                1e6);
    }

    // Publish the sweep's execution profile to the process registry —
    // the one source of truth the `--stats` line and `griffin_bench
    // perf` both read.  Pure observation: nothing below feeds back into
    // a result.
    {
        MetricsRegistry &reg = MetricsRegistry::instance();
        const double wall_ms = static_cast<double>(sweep_ns) / 1e6;
        const double wall_s = static_cast<double>(sweep_ns) / 1e9;
        reg.gauge("sweep.jobs").set(static_cast<double>(jobs.size()));
        reg.gauge("sweep.wall_ms").set(wall_ms);
        reg.gauge("sweep.jobs_per_sec")
            .set(wall_s > 0.0
                     ? static_cast<double>(jobs.size()) / wall_s
                     : 0.0);
        reg.gauge("pool.threads").set(static_cast<double>(threads));
        reg.gauge("pool.executed_jobs")
            .set(static_cast<double>(pool_stats.executed));
        reg.gauge("pool.steals")
            .set(static_cast<double>(pool_stats.steals));
        reg.gauge("pool.busy_ms")
            .set(static_cast<double>(pool_stats.busyNs) / 1e6);
        const double capacity_ns =
            static_cast<double>(sweep_ns) * threads;
        reg.gauge("pool.utilization")
            .set(capacity_ns > 0.0
                     ? static_cast<double>(pool_stats.busyNs) /
                           capacity_ns
                     : 0.0);
        reg.publishCacheStats("schedule_cache", schedule_stats);
        reg.publishCacheStats("workset_cache", worksets->stats());
        if (!job_elapsed_ms.empty()) {
            Histogram &h = reg.histogram("pool.job_us");
            for (const double ms : job_elapsed_ms)
                h.record(static_cast<std::uint64_t>(ms * 1e3));
        }
    }

    return SweepResult(std::move(jobs), std::move(results),
                       schedule_stats, worksets->stats(),
                       std::move(job_elapsed_ms));
}

} // namespace griffin
