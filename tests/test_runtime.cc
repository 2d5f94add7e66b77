/**
 * @file
 * Tests for the runtime/ subsystem: work-stealing pool semantics,
 * schedule-memo correctness, parallel-vs-serial determinism of the
 * experiment runner, and result-sink serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/result_sink.hh"
#include "runtime/runner.hh"
#include "runtime/schedule_memo.hh"
#include "runtime/thread_pool.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

// ---- thread pool ----------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    std::atomic<int> count{0};
    std::vector<std::atomic<int>> per_job(100);
    for (auto &p : per_job)
        p = 0;
    for (int i = 0; i < 100; ++i)
        pool.submit([&count, &per_job, i] {
            ++per_job[static_cast<std::size_t>(i)];
            ++count;
        });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
    for (const auto &p : per_job)
        EXPECT_EQ(p.load(), 1);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (batch + 1) * 10);
        EXPECT_EQ(pool.pendingJobs(), 0u);
    }
}

TEST(ThreadPool, ShutdownDrainsPendingJobs)
{
    // Destroy the pool while most jobs are still queued: shutdown must
    // finish every submitted job, not drop the backlog.
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++count;
            });
        // No wait(): the destructor races the backlog.
    }
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, StealsAcrossWorkers)
{
    // One worker's deque gets every long job (round-robin with exactly
    // one job per spin); with stealing, elapsed time is bounded well
    // below serial execution.  Smoke-level: just require all to finish
    // from a heavily imbalanced submit pattern.
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&count] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++count;
        });
    pool.wait();
    EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(ThreadPoolDeathTest, ZeroThreadsIsFatal)
{
    EXPECT_EXIT(ThreadPool pool(0), testing::ExitedWithCode(exitUsageError),
                "at least 1 thread");
}

// ---- schedule memo --------------------------------------------------

/** Structural equality of two compressed streams. */
void
expectSameSchedule(const BSchedule &x, const BSchedule &y)
{
    ASSERT_EQ(x.cycles(), y.cycles());
    ASSERT_EQ(x.lanes(), y.lanes());
    ASSERT_EQ(x.cols(), y.cols());
    EXPECT_EQ(x.scheduledElems(), y.scheduledElems());
    EXPECT_EQ(x.stats().cycles, y.stats().cycles);
    EXPECT_EQ(x.stats().ops, y.stats().ops);
    EXPECT_EQ(x.stats().stolenOps, y.stats().stolenOps);
    for (std::int64_t cyc = 0; cyc < x.cycles(); ++cyc) {
        for (int lane = 0; lane < x.lanes(); ++lane) {
            for (int col = 0; col < x.cols(); ++col) {
                ASSERT_EQ(x.flatK(cyc, lane, col),
                          y.flatK(cyc, lane, col));
                ASSERT_EQ(x.homeCol(cyc, lane, col),
                          y.homeCol(cyc, lane, col));
            }
        }
    }
}

TEST(ScheduleMemo, MemoizedEqualsFreshlyComputed)
{
    Rng rng(7);
    auto b = randomSparse(128, 16, 0.8, rng);
    TileShape shape;
    TileViewB vb(b, shape, 0);
    const Borrow db{4, 0, 1};
    Shuffler shuffler(true, shape.k0);

    ScheduleMemo memo;
    auto memoized = memo.obtain(vb, db, shuffler);
    ASSERT_NE(memoized, nullptr);
    EXPECT_EQ(memo.stats().misses, 1u);
    EXPECT_EQ(memo.stats().hits, 0u);
    EXPECT_EQ(memo.stats().residentBytes, memoized->approxBytes());

    const auto fresh = preprocessB(vb, db, shuffler, false);
    expectSameSchedule(*memoized, fresh);
}

TEST(ScheduleMemo, HitsOnIdenticalContentMissesOnDifferent)
{
    Rng rng(11);
    auto b1 = randomSparse(96, 16, 0.7, rng);
    auto b2 = b1; // same content, different object
    auto b3 = randomSparse(96, 16, 0.7, rng); // same shape, new draw
    TileShape shape;
    const Borrow db{2, 1, 0};
    Shuffler shuffler(false, shape.k0);

    ScheduleMemo memo;
    auto s1 = memo.obtain(TileViewB(b1, shape, 0), db, shuffler);
    auto s2 = memo.obtain(TileViewB(b2, shape, 0), db, shuffler);
    EXPECT_EQ(s1.get(), s2.get()) << "identical content must share";
    EXPECT_EQ(memo.stats().hits, 1u);
    EXPECT_EQ(memo.stats().misses, 1u);

    memo.obtain(TileViewB(b3, shape, 0), db, shuffler);
    EXPECT_EQ(memo.stats().misses, 2u);

    // Same tile, different borrow window or shuffle setting: a
    // different schedule.
    memo.obtain(TileViewB(b1, shape, 0), Borrow{4, 1, 0}, shuffler);
    memo.obtain(TileViewB(b1, shape, 0), db, Shuffler(true, shape.k0));
    EXPECT_EQ(memo.stats().misses, 4u);
    EXPECT_EQ(memo.stats().entries, 4u);
}

// ---- runner ---------------------------------------------------------

SweepSpec
smallSweep()
{
    SweepSpec spec;
    spec.archs = {sparseBStar(), griffinArch()};
    spec.networks = {alexNet(), bertBase()};
    spec.categories = {DnnCategory::B, DnnCategory::AB};
    RunOptions fast;
    fast.sim.sampleFraction = 0.02;
    fast.sim.minSampledTiles = 2;
    fast.rowCap = 32;
    spec.optionVariants = {fast};
    return spec;
}

TEST(Runner, ExpansionMatchesSerialLoopOrder)
{
    auto spec = smallSweep();
    auto jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), spec.jobCount());
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].archIndex, 0u);
    EXPECT_EQ(jobs[0].networkIndex, 0u);
    EXPECT_EQ(jobs[0].categoryIndex, 0u);
    EXPECT_EQ(jobs[1].categoryIndex, 1u);
    EXPECT_EQ(jobs[2].networkIndex, 1u);
    EXPECT_EQ(jobs[4].archIndex, 1u);
}

TEST(Runner, ExpansionOrderIsOptionsArchNetworkCategory)
{
    // The documented nesting order — (options, arch, network,
    // category), options outermost — is load-bearing: GridSpec maps
    // its RunOptions axes onto optionVariants assuming it, and the
    // bit-identity tests compare against serial loops written in it.
    auto spec = smallSweep();
    spec.optionVariants.push_back(spec.optionVariants[0]);
    spec.optionVariants[1].weightLaneBias = 0.9;
    spec.optionCoords = {{}, {{"weight_lane_bias", "0.9"}}};
    const auto jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), 16u);
    std::size_t i = 0;
    for (std::size_t o = 0; o < 2; ++o) {
        for (std::size_t a = 0; a < 2; ++a) {
            for (std::size_t n = 0; n < 2; ++n) {
                for (std::size_t c = 0; c < 2; ++c, ++i) {
                    EXPECT_EQ(jobs[i].optionsIndex, o) << "job " << i;
                    EXPECT_EQ(jobs[i].archIndex, a) << "job " << i;
                    EXPECT_EQ(jobs[i].networkIndex, n) << "job " << i;
                    EXPECT_EQ(jobs[i].categoryIndex, c) << "job " << i;
                    EXPECT_EQ(jobs[i].coords, spec.optionCoords[o])
                        << "job " << i;
                }
            }
        }
    }
}

TEST(Runner, PerArchSeedDerivationIsPinned)
{
    // Pin the documented derivation — mixSeed(variant seed, arch name)
    // — so a runner or grid refactor cannot silently change which
    // tensors each architecture draws.
    auto spec = smallSweep();
    spec.perArchSeeds = true;
    const auto base_seed = spec.optionVariants[0].seed;
    for (const auto &job : expandSweep(spec))
        EXPECT_EQ(job.options.seed,
                  Rng::mixSeed(base_seed,
                               spec.archs[job.archIndex].name));
}

TEST(RunnerDeathTest, MismatchedOptionCoordsAreFatal)
{
    auto spec = smallSweep();
    spec.optionCoords = {{}, {}};
    EXPECT_EXIT(expandSweep(spec), testing::ExitedWithCode(exitUsageError),
                "axis-coordinate records");
}

TEST(Runner, ParallelIsBitIdenticalToSerial)
{
    auto spec = smallSweep();
    const auto serial = runSweep(spec, 1);
    const auto parallel = runSweep(spec, 4);
    ASSERT_EQ(serial.results().size(), parallel.results().size());

    // Numeric identity per job...
    for (std::size_t i = 0; i < serial.results().size(); ++i) {
        const auto &s = serial.results()[i];
        const auto &p = parallel.results()[i];
        EXPECT_EQ(s.network, p.network);
        EXPECT_EQ(s.arch, p.arch);
        EXPECT_EQ(s.totalCycles, p.totalCycles);
        EXPECT_EQ(s.denseCycles, p.denseCycles);
        EXPECT_EQ(s.speedup, p.speedup);
        EXPECT_EQ(s.topsPerWatt, p.topsPerWatt);
        ASSERT_EQ(s.layers.size(), p.layers.size());
        for (std::size_t l = 0; l < s.layers.size(); ++l)
            EXPECT_EQ(s.layers[l].totalCycles,
                      p.layers[l].totalCycles);
    }

    // ...and byte identity of the serialized documents.
    std::ostringstream ser, par;
    writeJson(ser, serial.results());
    writeJson(par, parallel.results());
    EXPECT_EQ(ser.str(), par.str());
}

/** The serial quadruple loop through Accelerator::run: the ground
 *  truth every runner path must reproduce byte for byte. */
std::string
serialAcceleratorDoc(const SweepSpec &spec)
{
    std::vector<NetworkResult> serial;
    for (const auto &opt : spec.optionVariants)
        for (const auto &arch : spec.archs) {
            Accelerator acc(arch);
            for (const auto &net : spec.networks)
                for (const auto cat : spec.categories)
                    serial.push_back(acc.run(net, cat, opt));
        }
    std::ostringstream doc;
    writeJson(doc, serial);
    return doc.str();
}

TEST(Runner, UnbatchedIsBitIdenticalToSerialAcceleratorRun)
{
    // One job per batch still fans out into one sub-job per layer;
    // sweeps on 1, 2, and 8 threads all reproduce the serial
    // Accelerator::run byte for byte.
    auto spec = smallSweep();
    ASSERT_FALSE(spec.batchArchs);
    const auto serial_doc = serialAcceleratorDoc(spec);
    for (const int threads : {1, 2, 8}) {
        const auto sweep = runSweep(spec, threads);
        std::ostringstream doc;
        writeJson(doc, sweep.results());
        EXPECT_EQ(doc.str(), serial_doc)
            << "unbatched sweep diverged on " << threads << " threads";
    }
}

TEST(Runner, BatchedArchsAreBitIdenticalToSerial)
{
    // The acceptance bar for batched multi-GEMM jobs: an arch-batched
    // sweep on 1, 2, and 8 threads reproduces the serial
    // Accelerator::run byte for byte, and the shared workset cache
    // actually got reuse across the arch axis (both archs share the
    // tile height, so every layer's workset generates once per
    // (network, category)).
    auto spec = smallSweep();
    const auto serial_doc = serialAcceleratorDoc(spec);

    spec.batchArchs = true;
    for (const int threads : {1, 2, 8}) {
        const auto batched = runSweep(spec, threads);
        std::ostringstream doc;
        writeJson(doc, batched.results());
        EXPECT_EQ(doc.str(), serial_doc)
            << "batched sweep diverged on " << threads << " threads";
        EXPECT_GT(batched.worksetStats().hits, 0u);
        // 2 archs x shared worksets: at most one generation per
        // (network, category, layer) key — fewer when categories
        // share a layer's effective sparsity pair.
        std::size_t layer_total = 0;
        for (const auto &net : spec.networks)
            layer_total += net.layerCount();
        EXPECT_LE(batched.worksetStats().misses,
                  layer_total * spec.categories.size());
    }
}

TEST(Runner, ScheduleMemoServesArchsSharingBRouting)
{
    // Two dual-sparse archs with the same B routing (window (4,0,1),
    // shuffle on) see the same weight tiles in one batched sub-job, so
    // the second packs nothing the first already packed.  The memo
    // belongs to the sub-job, so its counters are the same for any
    // thread count; unbatched, each arch has its own memos and there
    // is nothing to share.
    SweepSpec spec;
    spec.archs = {archByName("AB(2,0,0,4,0,1,on)"),
                  archByName("AB(1,0,0,4,0,1,on)")};
    spec.networks = {alexNet()};
    spec.categories = {DnnCategory::AB};
    RunOptions fast;
    fast.sim.sampleFraction = 0.02;
    fast.sim.minSampledTiles = 2;
    fast.rowCap = 32;
    spec.optionVariants = {fast};
    spec.batchArchs = true;

    const auto serial = runSweep(spec, 1);
    const auto parallel = runSweep(spec, 4);
    EXPECT_GT(serial.cacheStats().hits, 0u);
    EXPECT_EQ(parallel.cacheStats().hits, serial.cacheStats().hits);
    EXPECT_EQ(parallel.cacheStats().misses, serial.cacheStats().misses);
    EXPECT_EQ(serial.aScheduleStats().hits + serial.aScheduleStats().misses,
              0u);

    spec.batchArchs = false;
    const auto unbatched = runSweep(spec, 4);
    EXPECT_EQ(unbatched.cacheStats().hits, 0u);
    EXPECT_EQ(unbatched.cacheStats().misses,
              serial.cacheStats().hits + serial.cacheStats().misses);

    std::ostringstream a, b, c;
    writeJson(a, serial.results());
    writeJson(b, parallel.results());
    writeJson(c, unbatched.results());
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(a.str(), c.str());
    EXPECT_EQ(a.str(), serialAcceleratorDoc(spec));
}

TEST(Runner, BatchedArchsComposeWithFleetShards)
{
    // Batching regroups jobs inside a shard only; the shard slices
    // still concatenate to the unsharded document.
    auto spec = smallSweep();
    spec.batchArchs = true;
    const auto whole = runSweep(spec, 4);
    std::vector<NetworkResult> stitched;
    spec.shardCount = 3;
    for (std::size_t s = 0; s < spec.shardCount; ++s) {
        spec.shardIndex = s;
        const auto shard = runSweep(spec, 2);
        stitched.insert(stitched.end(), shard.results().begin(),
                        shard.results().end());
    }
    std::ostringstream a, b;
    writeJson(a, whole.results());
    writeJson(b, stitched);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Runner, SharedWorksetCachePersistsAcrossSweeps)
{
    auto spec = smallSweep();
    WorksetCache worksets;
    const auto first = runSweep(spec, 2, &worksets);
    const auto cold_misses = first.worksetStats().misses;
    EXPECT_GT(cold_misses, 0u);
    const auto second = runSweep(spec, 2, &worksets);
    // Every generation of the second sweep is served by the first's.
    EXPECT_EQ(second.worksetStats().misses, cold_misses);
    std::ostringstream a, b;
    writeJson(a, first.results());
    writeJson(b, second.results());
    EXPECT_EQ(a.str(), b.str());
}

TEST(Runner, RunLayerIsOrderIndependent)
{
    // The per-layer entry point must not depend on which layers ran
    // before it: layer L simulated cold equals layer L simulated after
    // every other layer.
    auto spec = smallSweep();
    const auto &net = spec.networks[0];
    const auto &opt = spec.optionVariants[0];
    Accelerator acc(spec.archs[0]);

    const auto last_first = acc.runLayer(
        net, net.layerCount() - 1, DnnCategory::B, opt);
    std::vector<LayerResult> in_order;
    for (std::size_t l = 0; l < net.layerCount(); ++l)
        in_order.push_back(acc.runLayer(net, l, DnnCategory::B, opt));
    EXPECT_EQ(last_first.totalCycles, in_order.back().totalCycles);
    EXPECT_EQ(last_first.computeCycles, in_order.back().computeCycles);

    const auto reduced =
        acc.reduceLayers(net, DnnCategory::B, std::move(in_order));
    const auto direct = acc.run(net, DnnCategory::B, opt);
    EXPECT_EQ(reduced.totalCycles, direct.totalCycles);
    EXPECT_EQ(reduced.speedup, direct.speedup);
    EXPECT_EQ(reduced.topsPerWatt, direct.topsPerWatt);
}

TEST(Runner, CacheDoesNotChangeResults)
{
    auto spec = smallSweep();
    const auto sweep = runSweep(spec, 2);
    // Re-run one job directly with no cache attached.
    const auto &job = sweep.jobs()[3];
    Accelerator acc(spec.archs[job.archIndex]);
    const auto direct = acc.run(spec.networks[job.networkIndex],
                                spec.categories[job.categoryIndex],
                                job.options);
    EXPECT_EQ(direct.totalCycles, sweep.results()[3].totalCycles);
    EXPECT_EQ(direct.speedup, sweep.results()[3].speedup);
}

TEST(Runner, CollectTimingsProducesPerJobElapsed)
{
    auto spec = smallSweep();
    const auto plain = runSweep(spec, 2);
    EXPECT_TRUE(plain.jobElapsedMs().empty())
        << "timings are strictly opt-in";

    spec.collectTimings = true;
    const auto timed = runSweep(spec, 2);
    ASSERT_EQ(timed.jobElapsedMs().size(), timed.jobs().size());
    for (const double ms : timed.jobElapsedMs())
        EXPECT_GE(ms, 0.0);

    // Timing is pure observation: result rows must not move.
    ASSERT_EQ(timed.results().size(), plain.results().size());
    for (std::size_t i = 0; i < plain.results().size(); ++i) {
        EXPECT_EQ(timed.results()[i].totalCycles,
                  plain.results()[i].totalCycles);
        EXPECT_EQ(timed.results()[i].speedup,
                  plain.results()[i].speedup);
    }
}

TEST(Runner, PerArchSeedsDecoupleTensors)
{
    auto spec = smallSweep();
    spec.perArchSeeds = true;
    auto jobs = expandSweep(spec);
    EXPECT_NE(jobs[0].options.seed, jobs[4].options.seed)
        << "different archs must draw different seeds";
    EXPECT_EQ(jobs[0].options.seed, jobs[1].options.seed)
        << "same arch keeps one seed across categories";
}

TEST(RunnerDeathTest, EmptySpecIsFatal)
{
    SweepSpec spec;
    EXPECT_EXIT(expandSweep(spec), testing::ExitedWithCode(exitUsageError),
                "no architectures");
}

// ---- result sink ----------------------------------------------------

TEST(ResultSink, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(jsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(ResultSink, JsonNumberRoundTripsAndIsShort)
{
    EXPECT_EQ(jsonNumber(1.0), "1");
    EXPECT_EQ(jsonNumber(2.5), "2.5");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    const double awkward = 1.0 / 3.0;
    double back = 0.0;
    std::sscanf(jsonNumber(awkward).c_str(), "%lf", &back);
    EXPECT_EQ(back, awkward);
}

NetworkResult
tinyResult()
{
    NetworkResult r;
    r.network = "net";
    r.arch = "arch";
    r.category = DnnCategory::B;
    r.denseCycles = 100;
    r.totalCycles = 50;
    r.speedup = 2.0;
    LayerResult l;
    l.name = "l1";
    l.denseCycles = 100;
    l.computeCycles = 50;
    l.totalCycles = 50;
    l.macs = 1000;
    l.speedup = 2.0;
    r.layers.push_back(l);
    return r;
}

TEST(ResultSink, JsonDocumentShape)
{
    std::ostringstream os;
    const std::vector<NetworkResult> results{tinyResult()};
    writeJson(os, results);
    const auto doc = os.str();
    EXPECT_NE(doc.find("\"network\": \"net\""), std::string::npos);
    EXPECT_NE(doc.find("\"category\": \"DNN.B\""), std::string::npos);
    EXPECT_NE(doc.find("\"layers\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"speedup\": 2"), std::string::npos);
    EXPECT_EQ(doc.front(), '[');
    EXPECT_EQ(doc[doc.size() - 2], ']');
}

TEST(ResultSink, CsvHasLayerAndTotalRows)
{
    std::ostringstream os;
    writeCsv(os, {tinyResult()});
    const auto doc = os.str();
    EXPECT_NE(doc.find("net,arch,DNN.B,l1,100,50,0,50,1000,2\n"),
              std::string::npos);
    EXPECT_NE(doc.find("net,arch,DNN.B,total,100,,,50,,2\n"),
              std::string::npos);
}

SweepResult
tinyAnnotatedSweep()
{
    // A hand-assembled two-variant sweep (no simulation): enough to
    // exercise the annotated row serialization.
    SweepSpec spec;
    spec.archs = {sparseBStar()};
    spec.networks = {alexNet()};
    spec.categories = {DnnCategory::B};
    RunOptions lo, hi;
    lo.weightLaneBias = 0.25;
    hi.weightLaneBias = 0.75;
    spec.optionVariants = {lo, hi};
    spec.optionCoords = {{{"weight_lane_bias", "0.25"}},
                         {{"weight_lane_bias", "0.75"}}};
    auto jobs = expandSweep(spec);
    return SweepResult(std::move(jobs), {tinyResult(), tinyResult()});
}

TEST(ResultSink, SweepJsonRowsCarryOptionsAndCoords)
{
    std::ostringstream os;
    writeJson(os, tinyAnnotatedSweep());
    const auto doc = os.str();
    EXPECT_NE(doc.find("\"options\": {\"seed\": 1, \"row_cap\": 256, "
                       "\"weight_lane_bias\": 0.25, "
                       "\"act_run_length\": 2, "
                       "\"sample_fraction\": 1, "
                       "\"enforce_dram_bound\": false}"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"coords\": {\"weight_lane_bias\": \"0.25\"}"),
              std::string::npos);
    EXPECT_NE(doc.find("\"coords\": {\"weight_lane_bias\": \"0.75\"}"),
              std::string::npos);
}

TEST(ResultSink, SweepCsvRowsCarryOptionsColumns)
{
    std::ostringstream os;
    writeCsv(os, tinyAnnotatedSweep());
    const auto doc = os.str();
    EXPECT_NE(doc.find("network,arch,category,seed,row_cap,"
                       "weight_lane_bias,act_run_length,"
                       "sample_fraction,enforce_dram_bound,layer,"),
              std::string::npos);
    EXPECT_NE(doc.find("net,arch,DNN.B,1,256,0.25,2,1,false,total,"),
              std::string::npos);
    EXPECT_NE(doc.find("net,arch,DNN.B,1,256,0.75,2,1,false,total,"),
              std::string::npos);
}

TEST(ResultSink, CsvQuotesCommaBearingFields)
{
    // Routing-spec arch names embed commas; RFC-4180 quoting must keep
    // them one column or every downstream column shifts.
    auto result = tinyResult();
    result.arch = "B(4,0,1,on)";
    result.layers[0].name = "conv \"a\",b";
    std::ostringstream os;
    writeCsv(os, {result});
    const auto doc = os.str();
    EXPECT_NE(doc.find("net,\"B(4,0,1,on)\",DNN.B,"
                       "\"conv \"\"a\"\",b\",100,50,0,50,1000,2\n"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("net,\"B(4,0,1,on)\",DNN.B,total,"),
              std::string::npos)
        << doc;

    // The annotated writer quotes the same way.
    ResultRow row;
    row.result = result;
    row.annotated = true;
    std::ostringstream os2;
    writeCsv(os2, std::vector<ResultRow>{row});
    EXPECT_NE(os2.str().find("net,\"B(4,0,1,on)\",DNN.B,1,256,"),
              std::string::npos)
        << os2.str();
}

TEST(ResultSink, JsonLinesIsOneCompactRowPerLineWithLabel)
{
    auto rows = sweepRows(tinyAnnotatedSweep(), "fig5");
    std::ostringstream os;
    writeJsonLines(os, rows);
    const auto doc = os.str();
    // One line per row, no enclosing array.
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 2);
    EXPECT_EQ(doc.front(), '{');
    const auto first = doc.substr(0, doc.find('\n'));
    EXPECT_NE(first.find("\"experiment\": \"fig5\","), std::string::npos);
    EXPECT_NE(first.find("\"network\": \"net\","), std::string::npos);
    EXPECT_NE(first.find("\"coords\": {\"weight_lane_bias\": "
                         "\"0.25\"},"),
              std::string::npos);
    EXPECT_NE(first.find("\"layers\": [{"), std::string::npos);

    // Splitting a row list anywhere and concatenating the parts
    // reproduces the document — the property fleet sharding relies on.
    std::ostringstream part1, part2;
    writeJsonLines(part1, {rows[0]});
    writeJsonLines(part2, {rows[1]});
    EXPECT_EQ(part1.str() + part2.str(), doc);
}

TEST(ResultSink, ExperimentColumnOnlyWhenLabeled)
{
    auto labeled = sweepRows(tinyAnnotatedSweep(), "fig5");
    std::ostringstream os;
    writeCsv(os, labeled);
    EXPECT_EQ(os.str().rfind("experiment,network,arch,", 0), 0u);
    EXPECT_NE(os.str().find("fig5,net,arch,DNN.B,"), std::string::npos);

    auto unlabeled = sweepRows(tinyAnnotatedSweep());
    std::ostringstream os2;
    writeCsv(os2, unlabeled);
    EXPECT_EQ(os2.str().rfind("network,arch,", 0), 0u);
}

TEST(ResultSink, PlainRowsKeepTheLegacyShape)
{
    // Unannotated documents must not grow options/coords fields: the
    // NetworkResult overloads are the stable legacy format.
    std::ostringstream os;
    writeJson(os, std::vector<NetworkResult>{tinyResult()});
    EXPECT_EQ(os.str().find("\"options\""), std::string::npos);
    EXPECT_EQ(os.str().find("\"coords\""), std::string::npos);
}

SweepResult
tinyTimedSweep()
{
    // tinyAnnotatedSweep() plus per-job elapsed times, as runSweep
    // would produce under SweepSpec::collectTimings.
    SweepSpec spec;
    spec.archs = {sparseBStar()};
    spec.networks = {alexNet()};
    spec.categories = {DnnCategory::B};
    RunOptions lo, hi;
    lo.weightLaneBias = 0.25;
    hi.weightLaneBias = 0.75;
    spec.optionVariants = {lo, hi};
    spec.optionCoords = {{{"weight_lane_bias", "0.25"}},
                         {{"weight_lane_bias", "0.75"}}};
    auto jobs = expandSweep(spec);
    return SweepResult(std::move(jobs), {tinyResult(), tinyResult()}, {},
                       {}, {1.5, 2.5});
}

TEST(ResultSink, TimedRowsEmitElapsedMs)
{
    std::ostringstream os;
    writeJsonLines(os, sweepRows(tinyTimedSweep()));
    const auto doc = os.str();
    EXPECT_NE(doc.find("\"elapsed_ms\": 1.5,"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"elapsed_ms\": 2.5,"), std::string::npos)
        << doc;

    // An untimed document must not grow the field: `--timings` off is
    // the byte-stable default.
    std::ostringstream os2;
    writeJsonLines(os2, sweepRows(tinyAnnotatedSweep()));
    EXPECT_EQ(os2.str().find("elapsed_ms"), std::string::npos);
}

TEST(ResultSink, TimedCsvGrowsTrailingElapsedColumn)
{
    std::ostringstream os;
    writeCsv(os, sweepRows(tinyTimedSweep()));
    const auto doc = os.str();
    // Header gains one trailing column...
    EXPECT_NE(doc.find(",macs,speedup,elapsed_ms\n"),
              std::string::npos)
        << doc;
    // ...total rows carry the value, layer rows leave the cell empty.
    EXPECT_NE(doc.find(",total,100,,,50,,2,1.5\n"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find(",total,100,,,50,,2,2.5\n"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find(",l1,100,50,0,50,1000,2,\n"), std::string::npos)
        << doc;

    // Untimed documents keep the legacy header byte-exactly.
    std::ostringstream os2;
    writeCsv(os2, sweepRows(tinyAnnotatedSweep()));
    EXPECT_NE(os2.str().find(",macs,speedup\n"), std::string::npos);
    EXPECT_EQ(os2.str().find("elapsed_ms"), std::string::npos);
}

TEST(ResultSink, TableJsonLineIsOneObjectPerLine)
{
    Table t("Title", {"a", "b"});
    t.addRow({"x", "1"});
    std::ostringstream os;
    writeTableJsonLine(os, t);
    EXPECT_EQ(os.str(), "{\"table\": \"Title\", \"columns\": [\"a\", "
                        "\"b\"], \"rows\": [[\"x\", \"1\"]]}\n");
}

} // namespace
} // namespace griffin
