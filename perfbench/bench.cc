/**
 * @file
 * Host-side benchmark of the Griffin simulator (README.md).
 *
 *   perfbench --workload sweep_b|sweep_ab|sweep_mixed|points
 *             --seed N --seconds S --reference DIR [--perturb]
 *   perfbench --workload W --write-reference FILE
 *
 * Every workload drives the library's public API at the experiments'
 * default fidelity (sample 0.02, rowcap 32) with at most four threads.
 * The timed phase repeats whole passes and reports medians over them:
 * a sweep workload runs its grid with fresh caches until S seconds
 * have been measured (the first pass is a warm-up, two passes at
 * least), `points` runs ceil(S / 7) blocks of 24 queries
 * (a fixed count, so its tail percentile is comparable).  Outputs are
 * checked outside the timed phase: at the reference seed against the
 * rows in DIR, at every seed against the first pass and against a
 * sample recomputed on an independent path.
 *
 * Built as perfbench_traced (PERFBENCH_TRACED), the same program reports
 * the per-layer metrics instead: self time per module from the spans
 * of trace_hooks.cc, the runtime's cache and pool counters, and the
 * SIMD kernels' cost per element.
 *
 * The last line of stdout is the result object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * and every line before it is a human-readable `key: value` record.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/category.hh"
#include "arch/dse.hh"
#include "arch/presets.hh"
#include "common/rng.hh"
#include "griffin/accelerator.hh"
#include "runtime/experiment.hh"
#include "runtime/result_sink.hh"
#include "runtime/runner.hh"
#include "runtime/telemetry.hh"
#include "simd/occupancy.hh"
#include "workloads/network.hh"

#if PERFBENCH_TRACED
#include "trace.hh"
#endif

namespace {

using namespace griffin;

/** The seed the reference rows were recorded at. */
constexpr std::uint64_t kReferenceSeed = 1;
/** Set-ups per round; setup_s is the median over every round. */
constexpr int kSetupReps = 11;
/** Jobs (or queries) recomputed on an independent path per run. */
constexpr int kCrossChecks = 3;
/** The benchmark networks `points` queries. */
constexpr std::size_t kPointsNetworks = 6;
/** Queries per `points` pass: every (network, category) pair. */
constexpr std::size_t kPointsPerBlock =
    kPointsNetworks * allCategories.size();
/**
 * `points` runs one block per this many requested seconds (at least
 * one): a fixed query count rather than a time budget, so the tail
 * percentile names the same rank on every commit.  At 16 s that is 72
 * queries, enough for the tail (rank 62, ten above it) to fall inside
 * the AlexNet queries rather than on the edge between two networks.
 * One block took about ten seconds on a 4-vCPU x86 VM when this was
 * written, so a run measures about half again the requested time.
 */
constexpr double kPointsSecondsPerBlock = 7.0;
/** `points` blocks the reference file and the traced replay cover. */
constexpr std::size_t kPointsReferenceBlocks = 3;
constexpr std::size_t kTracedPointBlocks = 1;

struct Args
{
    std::string workload;
    std::uint64_t seed = kReferenceSeed;
    double seconds = 10.0;
    std::string referenceDir;
    std::string writeReference;
    bool perturb = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "sweep_b|sweep_ab|sweep_mixed|points --seed N "
                 "--seconds S --reference DIR [--perturb]\n"
                 "       perfbench --workload W --write-reference FILE\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--perturb") {
            args.perturb = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0))
                usage("bad --seconds " + value);
        } else if (flag == "--reference") {
            args.referenceDir = value;
        } else if (flag == "--write-reference") {
            args.writeReference = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (args.writeReference.empty() && args.referenceDir.empty())
        usage("--reference is required");
    return args;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of this process, every thread included. */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Harrell-Davis estimate of the pct-th percentile (0 < pct <= 100) of a
 * non-empty sample: the mean of the order statistics, each weighted by
 * the Beta((n+1)p, (n+1)(1-p)) mass of its rank interval.  `points`
 * mixes queries whose latencies differ tenfold, so a single order
 * statistic jumps across the gaps between query types from run to run;
 * this estimate moves smoothly.  pct 100 is the maximum.
 */
double
percentile(std::vector<double> v, int pct)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (pct >= 100)
        return v.back();
    const double p = pct / 100.0;
    const double a = static_cast<double>(n + 1) * p;
    const double b = static_cast<double>(n + 1) * (1.0 - p);
    constexpr int kStepsPerRank = 256; // midpoint rule over each interval
    const double dx = 1.0 / static_cast<double>(n * kStepsPerRank);
    double total = 0.0, weighted = 0.0; // weights normalised by total
    for (std::size_t i = 0; i < n; ++i) {
        double mass = 0.0;
        for (int k = 0; k < kStepsPerRank; ++k) {
            const double x =
                (static_cast<double>(i * kStepsPerRank + k) + 0.5) * dx;
            mass += std::exp((a - 1.0) * std::log(x) +
                             (b - 1.0) * std::log1p(-x));
        }
        total += mass;
        weighted += mass * v[i];
    }
    return weighted / total;
}

/** The highest whole percentile with at least ten samples above it
 *  (100 when the sample is too small to have one). */
int
tailPercentile(std::size_t n)
{
    for (int pct = 99; pct >= 1; --pct) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * static_cast<double>(n)));
        if (n >= rank + 10)
            return pct;
    }
    return 100;
}

/**
 * One result as a comparable text row: every field the result sinks
 * serialize, doubles in shortest round-trip form, and the per-layer
 * records folded into a 64-bit FNV-1a digest.
 */
std::string
rowLine(const NetworkResult &r)
{
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto fold = [&digest](const std::string &text) {
        for (const unsigned char c : text) {
            digest ^= c;
            digest *= 0x100000001b3ULL;
        }
        digest ^= 0xff;
        digest *= 0x100000001b3ULL;
    };
    for (const auto &l : r.layers) {
        fold(l.name);
        fold(std::to_string(l.denseCycles));
        fold(std::to_string(l.computeCycles));
        fold(std::to_string(l.dramCycles));
        fold(std::to_string(l.totalCycles));
        fold(std::to_string(l.macs));
        fold(jsonNumber(l.speedup));
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    std::ostringstream os;
    os << r.network << '|' << r.arch << '|' << toString(r.category) << '|'
       << r.denseCycles << '|' << r.totalCycles << '|'
       << jsonNumber(r.speedup) << '|' << jsonNumber(r.topsPerWatt) << '|'
       << jsonNumber(r.topsPerMm2) << '|' << r.layers.size() << '|' << hex;
    return os.str();
}

std::vector<std::string>
readReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read reference rows " + path);
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#')
            rows.push_back(line);
    return rows;
}

// ---- workloads ------------------------------------------------------

/** Fidelity the paper experiments default to (fig5/fig7/fig8). */
RunOptions
defaultFidelity(std::uint64_t seed, double sample, std::int64_t rowcap)
{
    RunOptions run;
    run.sim.sampleFraction = sample;
    run.sim.minSampledTiles = defaultMinSampledTiles;
    run.rowCap = rowcap;
    run.seed = seed;
    return run;
}

struct Query
{
    std::size_t arch = 0;
    std::size_t network = 0;
    DnnCategory category = DnnCategory::Dense;
};

/** Everything built before the first job. */
struct Workload
{
    std::string name;
    bool sweep = false;
    SweepSpec spec;                   ///< sweep workloads
    std::vector<ArchConfig> archPool; ///< points: presets, then DSE
    std::size_t presetCount = 0;
    std::vector<NetworkSpec> networks; ///< points
    RunOptions run;                    ///< points
};

const char *
experimentOf(const std::string &workload)
{
    if (workload == "sweep_b")
        return "fig5";
    if (workload == "sweep_ab")
        return "fig7";
    if (workload == "sweep_mixed")
        return "fig8";
    return nullptr;
}

Workload
setUp(const std::string &name, std::uint64_t seed)
{
    simd::kernels(); // resolve the kernel dispatch (cached after once)
    Workload w;
    w.name = name;
    if (const char *exp_name = experimentOf(name)) {
        const Experiment *exp = findExperiment(exp_name);
        if (exp == nullptr)
            usage(std::string("experiment ") + exp_name +
                  " is not registered");
        w.sweep = true;
        w.spec = buildExperimentSpec(
            *exp,
            defaultFidelity(seed, exp->defaultSample, exp->defaultRowCap));
        w.spec.batchArchs = true; // griffin_bench run's default
        return w;
    }
    if (name != "points")
        usage("unknown workload " + name);
    w.run = defaultFidelity(seed, 0.02, 32);
    w.networks = benchmarkSuite();
    if (w.networks.size() != kPointsNetworks)
        usage("points expects six benchmark networks");
    w.archPool = tableSevenPresets();
    w.presetCount = w.archPool.size();
    const TileShape shape = griffinArch().tile;
    for (const auto &space :
         {enumerateSparseB(shape), enumerateSparseA(shape),
          enumerateSparseAB(shape)})
        for (const auto &cfg : space)
            w.archPool.push_back(archByName(cfg.str()));
    return w;
}

/**
 * Block `b` of the query sequence: every (network, category) pair once,
 * in shuffled order, so each block asks for the same mix of work.  Half
 * the queries name a preset architecture and half a point of the DSE
 * routing space, each drawn uniformly.  The draw is fixed per block and
 * does not depend on the seed, which sets only the generated tensors:
 * the architectures and the order decide a query's cost and the heap's
 * high-water mark, so a seeded draw would make the timings and
 * peak_rss_mb measure the draw rather than the program.
 */
std::vector<Query>
pointsBlock(const Workload &w, std::size_t block)
{
    constexpr std::uint64_t kQuerySequenceSeed = 1;
    Rng rng(Rng::mixSeed(kQuerySequenceSeed, block));
    std::vector<std::size_t> order(kPointsPerBlock);
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);
    std::vector<std::size_t> preset(kPointsPerBlock);
    for (std::size_t i = 0; i < preset.size(); ++i)
        preset[i] = i % 2;
    rng.shuffle(preset);
    const std::size_t cats = allCategories.size();
    const auto presets = static_cast<std::int64_t>(w.presetCount);
    const auto dse = static_cast<std::int64_t>(w.archPool.size()) - presets;
    std::vector<Query> queries;
    for (std::size_t i = 0; i < order.size(); ++i) {
        Query q;
        q.network = order[i] / cats;
        q.category = allCategories[order[i] % cats];
        q.arch = static_cast<std::size_t>(
            preset[i] != 0 ? rng.uniformInt(0, presets - 1)
                           : presets + rng.uniformInt(0, dse - 1));
        queries.push_back(q);
    }
    return queries;
}

NetworkResult
runQuery(const Workload &w, const Query &q)
{
    return Accelerator(w.archPool[q.arch])
        .run(w.networks[q.network], q.category, w.run);
}

/** The same query through the sweep runner: batched sub-jobs, schedule
 *  and workset caches, one worker — the independent path `points`
 *  results are cross-checked on. */
NetworkResult
runQueryAsSweep(const Workload &w, const Query &q)
{
    SweepSpec spec;
    spec.archs = {w.archPool[q.arch]};
    spec.networks = {w.networks[q.network]};
    spec.categories = {q.category};
    spec.optionVariants = {w.run};
    spec.batchArchs = true;
    return runSweep(spec, 1).results().front();
}

/** A sweep job recomputed serially, with no cache of any kind. */
NetworkResult
runJobDirect(const SweepSpec &spec, const SweepJob &job)
{
    return Accelerator(spec.archs[job.archIndex])
        .run(spec.networks[job.networkIndex],
             spec.categories[job.categoryIndex], job.options);
}

/** Distinct sample indices in [0, n), fixed by the seed. */
std::vector<std::size_t>
crossCheckSample(std::uint64_t seed, std::size_t n)
{
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i)
        all[i] = i;
    Rng rng(Rng::mixSeed(seed, 0xc5c5c5c5ULL));
    rng.shuffle(all);
    all.resize(std::min<std::size_t>(n, kCrossChecks));
    std::sort(all.begin(), all.end());
    return all;
}

std::string
workloadReferencePath(const Args &args)
{
    return args.referenceDir + "/" + args.workload + ".txt";
}

int
threadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

/** Rows of every job of a sweep, the comparable form. */
std::vector<std::string>
rowsOf(const SweepResult &r)
{
    std::vector<std::string> rows;
    rows.reserve(r.results().size());
    for (const auto &res : r.results())
        rows.push_back(rowLine(res));
    return rows;
}

/** Work counters of one sweep pass that repeat exactly at any thread
 *  count (misses do not: concurrent recomputes count as misses). */
std::string
sweepCounters(const SweepResult &r)
{
    const auto lookups = [](const CacheStats &s) {
        return std::to_string(s.hits + s.misses);
    };
    return "jobs=" + std::to_string(r.jobs().size()) +
           " schedule_cache.lookups=" + lookups(r.cacheStats()) +
           " a_schedule_cache.lookups=" + lookups(r.aScheduleStats()) +
           " workset_cache.lookups=" + lookups(r.worksetStats());
}

/** Jobs a run checked and how many of them failed. */
struct Checked
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

void
printContext(const Args &args, int threads)
{
    const char *forced = std::getenv("GRIFFIN_FORCE_SCALAR");
    std::cout << "workload: " << args.workload << "\nseed: " << args.seed
              << "\ncontext: backend="
              << simd::backendName(simd::activeBackend())
              << " threads=" << threads
              << " nproc=" << std::thread::hardware_concurrency()
              << " GRIFFIN_FORCE_SCALAR="
              << (forced != nullptr ? forced : "") << "\n";
}

// ---- reference rows -------------------------------------------------

int
writeReference(const Args &args)
{
    const Workload w = setUp(args.workload, kReferenceSeed);
    std::ofstream out(args.writeReference);
    if (!out)
        usage("cannot write " + args.writeReference);
    out << "# perfbench reference rows: workload " << args.workload
        << ", seed " << kReferenceSeed
        << ", sample 0.02, rowcap 32.\n"
           "# network|arch|category|dense_cycles|total_cycles|speedup|"
           "tops_per_watt|tops_per_mm2|layers|layer digest\n";
    if (w.sweep) {
        for (const auto &row : rowsOf(runSweep(w.spec, threadCount())))
            out << row << "\n";
    } else {
        for (std::size_t b = 0; b < kPointsReferenceBlocks; ++b)
            for (const auto &q : pointsBlock(w, b))
                out << rowLine(runQuery(w, q)) << "\n";
    }
    return out ? 0 : 1;
}

// ---- result line ----------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Checked &checked, const std::vector<Metric> &metrics)
{
    std::cout << "error_rate: "
              << (checked.attempted == 0
                      ? 0.0
                      : static_cast<double>(checked.failed) /
                            static_cast<double>(checked.attempted))
              << " (" << checked.failed << " of " << checked.attempted
              << ")\n";
    std::ostringstream os;
    os << "{\"correct\": " << (checked.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << checked.attempted
       << ", \"failed\": " << checked.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i == 0 ? "" : ", ") << '"' << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** Mark in `bad` each row that differs from `expected`; a different
 *  row count marks every row (jobs went missing or appeared). */
void
compareRows(const std::vector<std::string> &rows,
            const std::vector<std::string> &expected,
            std::vector<bool> &bad)
{
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows.size() != expected.size() || rows[i] != expected[i])
            bad[i] = true;
}

/** What `points` rows must equal at the reference seed: the recorded
 *  sequence, as far as it goes.  Rows past its end have only the
 *  cross-check, so they are expected to equal themselves. */
std::vector<std::string>
recordedPrefix(const std::vector<std::string> &reference,
               const std::vector<std::string> &rows)
{
    std::vector<std::string> expected = rows;
    for (std::size_t i = 0; i < std::min(rows.size(), reference.size()); ++i)
        expected[i] = reference[i];
    return expected;
}

std::uint64_t
countBad(const std::vector<bool> &bad)
{
    return static_cast<std::uint64_t>(
        std::count(bad.begin(), bad.end(), true));
}

/**
 * The --perturb hook: one wrong cycle count, so a run can show that
 * its checks catch a changed result.  Runs apply it to the first job
 * they cross-check, the one row every seed checks.
 */
NetworkResult
perturbed(NetworkResult r)
{
    r.totalCycles += 1;
    return r;
}

#if !PERFBENCH_TRACED

// ---- end-to-end run -------------------------------------------------

int
runEndToEnd(const Args &args)
{
    const int threads = threadCount();
    printContext(args, threads);

    // Set-up is timed in rounds, one before the timed phase and one
    // after each pass, so its median spans the whole run rather than
    // one instant of a shared machine.
    std::vector<double> setups;
    Workload w;
    const auto timeSetups = [&] {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const double t0 = nowSeconds();
            Workload fresh = setUp(args.workload, args.seed);
            setups.push_back(nowSeconds() - t0);
            if (w.name.empty())
                w = std::move(fresh);
        }
    };
    timeSetups();
    const bool at_reference = args.seed == kReferenceSeed;
    const std::vector<std::string> reference =
        at_reference ? readReference(workloadReferencePath(args))
                     : std::vector<std::string>{};

    Checked checked;
    std::vector<double> walls, cpus;  // per pass
    std::vector<double> latencies_ms; // per query (points), per pass
    double measured = 0.0;
    double peak_mb = 0.0;
    std::size_t jobs_per_pass = 0;

    if (w.sweep) {
        std::vector<std::string> first_rows;
        std::vector<bool> first_bad;
        std::string first_counters;
        SweepResult first;
        // The first pass pays the process's first touch of the memory
        // the caches grow into (up to a second of page faults on
        // sweep_b) and varies with it: it is checked like every pass
        // but timed as a warm-up, outside the medians.
        while (walls.size() < 2 || measured < args.seconds) {
            const double c0 = cpuSeconds();
            const double t0 = nowSeconds();
            SweepResult r = runSweep(w.spec, threads);
            walls.push_back(nowSeconds() - t0);
            cpus.push_back(cpuSeconds() - c0);
            measured += walls.back();
            latencies_ms.push_back(walls.back() * 1e3);
            timeSetups();

            std::vector<std::string> rows = rowsOf(r);
            if (args.perturb && walls.size() == 1) {
                const auto i = crossCheckSample(args.seed, rows.size())[0];
                rows[i] = rowLine(perturbed(r.results()[i]));
            }
            std::vector<bool> bad(rows.size(), false);
            if (at_reference)
                compareRows(rows, reference, bad);
            const std::string counters = sweepCounters(r);
            checked.attempted += rows.size();
            if (walls.size() == 1) {
                jobs_per_pass = rows.size();
                first_rows = std::move(rows);
                first_bad = std::move(bad);
                first_counters = counters;
                std::cout << "counters: " << counters << "\n";
                first = std::move(r);
                continue;
            }
            compareRows(rows, first_rows, bad);
            if (counters != first_counters) {
                std::cout << "drift: pass " << walls.size() << " "
                          << counters << "\n";
                bad.assign(bad.size(), true);
            }
            checked.failed += countBad(bad);
        }
        peak_mb = peakRssMb();

        // Independent recomputation of a seeded sample of jobs.
        for (const std::size_t i :
             crossCheckSample(args.seed, first.jobs().size())) {
            const std::string direct =
                rowLine(runJobDirect(w.spec, first.jobs()[i]));
            if (direct != first_rows[i]) {
                std::cout << "mismatch: job " << i << " sweep "
                          << first_rows[i] << " direct " << direct
                          << "\n";
                first_bad[i] = true;
            }
        }
        checked.failed += countBad(first_bad);
        std::cout << "warmup_pass_s: " << walls.front() << "\n";
        walls.erase(walls.begin());
        cpus.erase(cpus.begin());
        latencies_ms.erase(latencies_ms.begin());
    } else {
        std::vector<Query> queries;
        std::vector<std::string> rows;
        const auto blocks = static_cast<std::size_t>(
            std::max(1.0, std::ceil(args.seconds / kPointsSecondsPerBlock)));
        for (std::size_t block = 0; block < blocks; ++block) {
            const auto batch = pointsBlock(w, block);
            const double c0 = cpuSeconds();
            const double t0 = nowSeconds();
            for (const auto &q : batch) {
                const double q0 = nowSeconds();
                const NetworkResult r = runQuery(w, q);
                latencies_ms.push_back((nowSeconds() - q0) * 1e3);
                queries.push_back(q);
                rows.push_back(rowLine(r));
            }
            walls.push_back(nowSeconds() - t0);
            cpus.push_back(cpuSeconds() - c0);
            timeSetups();
        }
        peak_mb = peakRssMb();
        jobs_per_pass = kPointsPerBlock;
        checked.attempted = rows.size();
        const auto sample = crossCheckSample(args.seed, rows.size());
        if (args.perturb)
            rows[sample[0]] =
                rowLine(perturbed(runQuery(w, queries[sample[0]])));
        std::vector<bool> bad(rows.size(), false);
        if (at_reference)
            compareRows(rows, recordedPrefix(reference, rows), bad);
        for (const std::size_t i : sample) {
            const std::string swept =
                rowLine(runQueryAsSweep(w, queries[i]));
            if (swept != rows[i]) {
                std::cout << "mismatch: query " << i << " run " << rows[i]
                          << " sweep " << swept << "\n";
                bad[i] = true;
            }
        }
        checked.failed = countBad(bad);
        std::cout << "counters: queries=" << rows.size() << "\n";
    }

    const double wall = median(walls);
    std::cout << "pass_wall_s:";
    for (const double s : walls)
        std::cout << " " << s;
    std::cout << "\n";
    const int tail = tailPercentile(latencies_ms.size());
    std::cout << "timed_passes: " << walls.size() << " of "
              << jobs_per_pass << " jobs ("
              << (w.sweep ? "one grid" : "one query block") << " each)\n"
              << "jobs: " << checked.attempted << "\n"
              << "query_ms_tail: p" << tail << " of "
              << latencies_ms.size()
              << (w.sweep ? " passes" : " queries")
              << " (Harrell-Davis estimate, as query_ms_p50)\n";
    printResult(
        checked,
        {{"wall_s", wall, "s"},
         {"jobs_per_s", static_cast<double>(jobs_per_pass) / wall, "1/s"},
         {"cpu_s", median(cpus), "s"},
         {"peak_rss_mb", peak_mb, "MB"},
         {"setup_s", median(setups), "s"},
         {"query_ms_p50", percentile(latencies_ms, 50), "ms"},
         {"query_ms_tail", percentile(latencies_ms, tail), "ms"}});
    return 0;
}

#else // PERFBENCH_TRACED

// ---- traced run -----------------------------------------------------

/**
 * ns per element of each KernelTable entry of the active backend, on
 * seeded inputs: the median of five timed rounds of repeated calls.
 */
std::vector<Metric>
kernelMetrics(std::uint64_t seed)
{
    const simd::KernelTable &k = simd::kernels();
    constexpr std::size_t kBytes = 1 << 16;
    constexpr std::int64_t kHeads = 4096;
    Rng rng(Rng::mixSeed(seed, 0x5eedULL));
    std::vector<std::int8_t> bytes(kBytes);
    for (auto &b : bytes)
        b = rng.uniform01() < 0.5 ? 0 : rng.nonzeroInt8();
    std::vector<std::int64_t> heads(kHeads);
    for (auto &h : heads)
        h = rng.uniformInt(0, 1 << 20);
    std::vector<std::uint64_t> words(kBytes);
    for (auto &wd : words)
        wd = static_cast<std::uint64_t>(rng.uniformInt(0, INT64_MAX));
    std::vector<std::uint64_t> out(kBytes);
    std::vector<std::int32_t> counts(kBytes);
    std::int64_t sink = 0;

    const auto time = [](std::uint64_t ops_per_call, auto &&call) {
        std::vector<double> rounds;
        for (int round = 0; round < 5; ++round) {
            std::uint64_t calls = 0;
            const double t0 = nowSeconds();
            double t = t0;
            while (t - t0 < 0.02) {
                for (int i = 0; i < 16; ++i)
                    call();
                calls += 16;
                t = nowSeconds();
            }
            rounds.push_back((t - t0) * 1e9 /
                             static_cast<double>(calls * ops_per_call));
        }
        return median(rounds);
    };
    const std::int64_t groups = kBytes / 64;
    std::vector<Metric> m;
    m.push_back({"simd.nonzero_masks.ns_per_op",
                 time(kBytes,
                      [&] {
                          k.nonzeroMasks(bytes.data(), 64, 64, groups,
                                         out.data());
                          sink += static_cast<std::int64_t>(out[7]);
                      }),
                 "ns"});
    m.push_back({"simd.count_nonzero.ns_per_op",
                 time(kBytes,
                      [&] { sink += k.countNonzero(bytes.data(), kBytes); }),
                 "ns"});
    m.push_back({"simd.accumulate_nonzero.ns_per_op",
                 time(kBytes,
                      [&] {
                          k.accumulateNonzero(bytes.data(), kBytes,
                                              counts.data());
                          sink += counts[3];
                      }),
                 "ns"});
    m.push_back({"simd.le_mask.ns_per_op",
                 time(kHeads,
                      [&] {
                          k.leMask(heads.data(), kHeads, 1 << 19,
                                   out.data());
                          sink += static_cast<std::int64_t>(out[1]);
                      }),
                 "ns"});
    m.push_back({"simd.min_i64.ns_per_op",
                 time(kHeads,
                      [&] { sink += k.minI64(heads.data(), kHeads); }),
                 "ns"});
    m.push_back({"simd.mt_temper.ns_per_op",
                 time(kBytes,
                      [&] {
                          k.mtTemper(words.data(), kBytes, out.data());
                          sink += static_cast<std::int64_t>(out[5]);
                      }),
                 "ns"});
    std::cout << "kernel_checksum: " << sink << "\n";
    return m;
}

double
gauge(const std::string &name)
{
    for (const auto &s : MetricsRegistry::instance().snapshot())
        if (s.name == name)
            return s.gauge;
    return 0.0;
}

double
ms(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Exact counters of a serial traced pass, as one comparable line. */
std::string
traceCounters(const perfbench::TraceTotals &t)
{
    using namespace perfbench;
    std::ostringstream os;
    os << "run_layer.calls=" << t.layers[kRunLayer].calls
       << " reduce.calls=" << t.layers[kReduce].calls
       << " gemm.calls=" << t.layers[kGemm].calls
       << " gemm.tiles=" << t.layers[kGemm].items
       << " sparten.calls=" << t.layers[kSparten].calls
       << " sparten.tiles=" << t.layers[kSparten].items;
    return os.str();
}

void
addCache(std::vector<Metric> &m, const std::string &prefix,
         const CacheStats &s, bool with_evictions)
{
    const std::uint64_t lookups = s.hits + s.misses;
    m.push_back({prefix + ".lookups", static_cast<double>(lookups),
                 "count"});
    m.push_back({prefix + ".misses", static_cast<double>(s.misses),
                 "count"});
    m.push_back({prefix + ".hit_ratio", s.hitRate(), "ratio"});
    m.push_back({prefix + ".resident_mb",
                 static_cast<double>(s.residentBytes) / (1024.0 * 1024.0),
                 "MB"});
    if (with_evictions)
        m.push_back({prefix + ".evictions",
                     static_cast<double>(s.evictions), "count"});
}

int
runTraced(const Args &args)
{
    using namespace perfbench;
    const int threads = threadCount();
    printContext(args, threads);
    const Workload w = setUp(args.workload, args.seed);
    const bool at_reference = args.seed == kReferenceSeed;
    const std::vector<std::string> reference =
        at_reference ? readReference(workloadReferencePath(args))
                     : std::vector<std::string>{};

    std::vector<Metric> m = kernelMetrics(args.seed);
    Checked checked;
    std::vector<std::string> rows;
    std::vector<bool> bad;
    std::uint64_t jobs = 0;
    CacheStats schedule_stats, a_stats, workset_stats;
    double busy_ms = 0.0, idle_ms = 0.0, utilization = 0.0, steals = 0.0;

    TraceTotals t;
    double traced_wall = 0.0;
    if (w.sweep) {
        // Untimed parallel pass: the pool's counters under the same
        // load as the end-to-end run, and the counts it must repeat.
        resetTrace();
        setTiming(false);
        const double t0 = nowSeconds();
        const SweepResult parallel = runSweep(w.spec, threads);
        const double parallel_wall_ms = (nowSeconds() - t0) * 1e3;
        const std::string parallel_counts =
            sweepCounters(parallel) + " " + traceCounters(collectTrace());
        busy_ms = gauge("pool.busy_ms");
        idle_ms = std::max(0.0, threads * gauge("sweep.wall_ms") - busy_ms);
        utilization = gauge("pool.utilization");
        steals = gauge("pool.steals");
        std::cout << "parallel_pass_ms: " << parallel_wall_ms << "\n";

        // Timed serial pass: one thread, so span nesting is exact and
        // every counter repeats run to run.
        resetTrace();
        setTiming(true);
        const double s0 = nowSeconds();
        const SweepResult serial = runSweep(w.spec, 1);
        traced_wall = nowSeconds() - s0;
        setTiming(false);
        t = collectTrace();
        const std::string serial_counts =
            sweepCounters(serial) + " " + traceCounters(t);
        rows = rowsOf(serial);
        if (args.perturb) {
            const auto i = crossCheckSample(args.seed, rows.size())[0];
            rows[i] = rowLine(perturbed(serial.results()[i]));
        }
        bad.assign(rows.size(), false);
        compareRows(rows, rowsOf(parallel), bad);
        if (at_reference)
            compareRows(rows, reference, bad);
        if (serial_counts != parallel_counts) {
            std::cout << "drift: parallel " << parallel_counts
                      << "\ndrift: serial " << serial_counts << "\n";
            bad.assign(bad.size(), true);
        }
        jobs = rows.size();
        schedule_stats = serial.cacheStats();
        a_stats = serial.aScheduleStats();
        workset_stats = serial.worksetStats();
        std::cout << "counters: " << serial_counts;
    } else {
        // Replay a fixed query sequence through the documented
        // decomposition of Accelerator::run — runLayer per layer, then
        // reduceLayers — so both layers get spans.
        std::vector<Query> queries;
        resetTrace();
        setTiming(true);
        const double s0 = nowSeconds();
        for (std::size_t b = 0; b < kTracedPointBlocks; ++b) {
            for (const auto &q : pointsBlock(w, b)) {
                const Accelerator acc(w.archPool[q.arch]);
                const NetworkSpec &net = w.networks[q.network];
                std::vector<LayerResult> layers;
                for (std::size_t l = 0; l < net.layerCount(); ++l)
                    layers.push_back(acc.runLayer(net, l, q.category, w.run));
                const NetworkResult r = acc.reduceLayers(
                    net, q.category, std::move(layers), w.run);
                queries.push_back(q);
                rows.push_back(rowLine(r));
            }
        }
        traced_wall = nowSeconds() - s0;
        setTiming(false);
        t = collectTrace();
        const auto sample = crossCheckSample(args.seed, rows.size());
        if (args.perturb)
            rows[sample[0]] =
                rowLine(perturbed(runQuery(w, queries[sample[0]])));
        bad.assign(rows.size(), false);
        if (at_reference)
            compareRows(rows, recordedPrefix(reference, rows), bad);
        for (const std::size_t i : sample)
            if (rowLine(runQuery(w, queries[i])) != rows[i])
                bad[i] = true;
        jobs = rows.size();
        std::cout << "counters: queries=" << jobs << " " << traceCounters(t);
    }
    const auto &L = t.layers;
    std::cout << " generate.calls=" << L[kGenerate].calls
              << " generate.bytes=" << L[kGenerate].items
              << " b_preprocess.calls=" << L[kBPreprocess].calls
              << " dual.calls=" << L[kDual].calls
              << " a_arbiter.calls=" << L[kAArbiter].calls
              << " schedule_cache.misses=" << schedule_stats.misses
              << " a_schedule_cache.misses=" << a_stats.misses
              << " workset_cache.misses=" << workset_stats.misses << "\n";
    checked.attempted = rows.size();
    checked.failed = countBad(bad);

    const double wall_ms = traced_wall * 1e3;
    const double span_ns = spanCostNs();
    std::cout << "traced_wall_ms: " << wall_ms << "\nspan_cost_ns: "
              << span_ns << "\n";
    static const char *const names[kLayerCount] = {
        "tensor.generate", "sched.b_preprocess", "sched.dual",
        "sched.a_arbiter", "sim.gemm",           "baselines.sparten",
        "griffin.run_layer", "griffin.reduce"};
    for (int l = 0; l < kLayerCount; ++l)
        std::cout << "share: " << names[l] << " "
                  << (wall_ms > 0.0 ? ms(L[l].selfNs) / wall_ms : 0.0)
                  << " of traced wall\n";

    const auto per = [](std::uint64_t ns, std::uint64_t n) {
        return n == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(n);
    };
    m.push_back({"work.jobs", static_cast<double>(jobs), "count"});
    for (int l = 0; l < kLayerCount; ++l) {
        const std::string name = names[l];
        m.push_back({name + ".calls", static_cast<double>(L[l].calls),
                     "count"});
        m.push_back({name + ".self_ms", ms(L[l].selfNs), "ms"});
    }
    m.push_back({"tensor.generate.bytes",
                 static_cast<double>(L[kGenerate].items), "B"});
    m.push_back({"tensor.generate.ns_per_elem",
                 per(L[kGenerate].inclusiveNs, L[kGenerate].items), "ns"});
    m.push_back({"sim.gemm.tiles", static_cast<double>(L[kGemm].items),
                 "count"});
    m.push_back({"sim.gemm.ns_per_tile",
                 per(L[kGemm].inclusiveNs, L[kGemm].items), "ns"});
    addCache(m, "runtime.schedule_cache", schedule_stats, true);
    addCache(m, "runtime.a_schedule_cache", a_stats, false);
    addCache(m, "runtime.workset_cache", workset_stats, true);
    m.push_back({"runtime.pool.busy_ms", busy_ms, "ms"});
    m.push_back({"runtime.pool.idle_ms", idle_ms, "ms"});
    m.push_back({"runtime.pool.utilization", utilization, "ratio"});
    m.push_back({"runtime.pool.steals", steals, "count"});
    m.push_back({"trace.wall_ms", wall_ms, "ms"});
    m.push_back({"trace.unattributed_ms", ms(traced_wall * 1e9 > t.rootNs
                                                 ? static_cast<std::uint64_t>(
                                                       traced_wall * 1e9) -
                                                       t.rootNs
                                                 : 0),
                 "ms"});
    m.push_back({"trace.overhead_ratio",
                 wall_ms > 0.0 ? static_cast<double>(t.spans) * span_ns /
                                     (wall_ms * 1e6)
                               : 0.0,
                 "ratio"});
    printResult(checked, m);
    return 0;
}

#endif // PERFBENCH_TRACED

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (!args.writeReference.empty())
        return writeReference(args);
#if PERFBENCH_TRACED
    return runTraced(args);
#else
    return runEndToEnd(args);
#endif
}
