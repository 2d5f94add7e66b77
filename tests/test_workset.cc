/**
 * @file
 * Tests for the stage-1 pipeline artifact (tensor/workset.hh) and its
 * content-addressed cache (runtime/workset_cache.hh): generation
 * determinism, cold-vs-warm bit-identity through Accelerator::runLayer,
 * and the cache policy (one FIFO under a byte budget, zero budget,
 * concurrent obtain).
 */

#include <gtest/gtest.h>

#include "arch/presets.hh"
#include "griffin/accelerator.hh"
#include "runtime/thread_pool.hh"
#include "runtime/workset_cache.hh"
#include "workloads/network.hh"

namespace griffin {
namespace {

WorksetParams
tinyParams(std::uint64_t seed = 7)
{
    WorksetParams p;
    p.m = 16;
    p.k = 64;
    p.n = 32;
    p.weightSparsity = 0.8;
    p.actSparsity = 0.5;
    p.weightLaneBias = 0.5;
    p.actRunLength = 2.0;
    p.seed = seed;
    return p;
}

void
expectWorksetEq(const LayerWorkset &x, const LayerWorkset &y)
{
    EXPECT_EQ(x.a, y.a);
    EXPECT_EQ(x.b, y.b);
    EXPECT_EQ(x.simSeed, y.simSeed);
    EXPECT_EQ(x.effectualOps, y.effectualOps);
    EXPECT_EQ(x.nnzB, y.nnzB);
}

TEST(Workset, GenerationIsDeterministic)
{
    const auto p = tinyParams();
    const auto w1 = generateLayerWorkset(p);
    const auto w2 = generateLayerWorkset(p);
    expectWorksetEq(w1, w2);
    EXPECT_EQ(w1.a.rows(), 16u);
    EXPECT_EQ(w1.a.cols(), 64u);
    EXPECT_EQ(w1.b.rows(), 64u);
    EXPECT_EQ(w1.b.cols(), 32u);
    EXPECT_EQ(w1.effectualOps, countEffectualOps(w1.a, w1.b));
    EXPECT_EQ(w1.nnzB, static_cast<std::int64_t>(w1.b.nnz()));
}

TEST(Workset, SeedAndShapeChangeTheKeyAndTheData)
{
    const auto p = tinyParams(7);
    auto p2 = tinyParams(8);
    EXPECT_NE(WorksetCache::contentKey(p), WorksetCache::contentKey(p2));
    auto p3 = tinyParams(7);
    p3.n = 48;
    EXPECT_NE(WorksetCache::contentKey(p), WorksetCache::contentKey(p3));
    auto p4 = tinyParams(7);
    p4.weightLaneBias = 0.25;
    EXPECT_NE(WorksetCache::contentKey(p), WorksetCache::contentKey(p4));
    EXPECT_EQ(WorksetCache::contentKey(p),
              WorksetCache::contentKey(tinyParams(7)));

    const auto w1 = generateLayerWorkset(p);
    const auto w2 = generateLayerWorkset(tinyParams(8));
    EXPECT_NE(w1.a, w2.a);
}

TEST(Workset, CacheReturnsGeneratedContent)
{
    WorksetCache cache;
    const auto p = tinyParams();
    const auto direct = generateLayerWorkset(p);
    const auto cold = cache.obtain(p);
    expectWorksetEq(*cold, direct);
    const auto warm = cache.obtain(p);
    EXPECT_EQ(cold.get(), warm.get()); // shared, not regenerated
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(Workset, ColdAndWarmRunLayerBitIdentical)
{
    const auto net = alexNet();
    const Accelerator acc(griffinArch());
    RunOptions opt;
    opt.rowCap = 8;
    opt.sim.sampleFraction = 0.25;
    opt.sim.minSampledTiles = 2;

    // Reference: no cache at all (the historical inline generation).
    const auto plain = acc.runLayer(net, 0, DnnCategory::AB, opt);

    WorksetCache cache;
    opt.worksetCache = &cache;
    const auto cold = acc.runLayer(net, 0, DnnCategory::AB, opt);
    const auto warm = acc.runLayer(net, 0, DnnCategory::AB, opt);
    EXPECT_GE(cache.stats().hits, 1u);

    for (const auto *lr : {&cold, &warm}) {
        EXPECT_EQ(lr->name, plain.name);
        EXPECT_EQ(lr->denseCycles, plain.denseCycles);
        EXPECT_EQ(lr->computeCycles, plain.computeCycles);
        EXPECT_EQ(lr->dramCycles, plain.dramCycles);
        EXPECT_EQ(lr->totalCycles, plain.totalCycles);
        EXPECT_EQ(lr->macs, plain.macs);
        EXPECT_DOUBLE_EQ(lr->speedup, plain.speedup);
    }
}

TEST(Workset, EvictionUnderTinyBudgetStaysCorrect)
{
    WorksetCache cache;
    const auto p1 = tinyParams(1);
    const auto p2 = tinyParams(2);
    const auto w1 = cache.obtain(p1);
    // Budget below two resident worksets: inserting the second must
    // evict the first (FIFO), never corrupt either.
    cache.setByteBudget(w1->approxBytes() + 16);
    const auto w2 = cache.obtain(p2);
    const auto stats = cache.stats();
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_LE(stats.entries, 1u);
    // The evicted workset's shared_ptr stays valid...
    expectWorksetEq(*w1, generateLayerWorkset(p1));
    // ...and re-obtaining regenerates bit-identical content.
    const auto w1_again = cache.obtain(p1);
    expectWorksetEq(*w1_again, *w1);
    expectWorksetEq(*w2, generateLayerWorkset(p2));
}

// ---- cache policy ---------------------------------------------------

TEST(WorksetCache, ByteBudgetEvictsFifo)
{
    // Budget sized to hold two of the (equal-sized) worksets.
    WorksetCache cache;
    const auto first = cache.obtain(tinyParams(1));
    const auto entry_bytes = first->approxBytes();
    const auto budget = 2 * entry_bytes + entry_bytes / 2;
    cache.setByteBudget(budget);
    for (std::uint64_t seed = 2; seed <= 6; ++seed)
        cache.obtain(tinyParams(seed));

    const auto s = cache.stats();
    EXPECT_EQ(s.misses, 6u);
    EXPECT_EQ(s.evictions, 4u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_LE(s.residentBytes, budget);

    // Oldest insertions went first: the newest is still resident, the
    // first is a miss again and regenerates identical content.
    cache.obtain(tinyParams(6));
    EXPECT_EQ(cache.stats().hits, 1u);
    const auto again = cache.obtain(tinyParams(1));
    EXPECT_EQ(cache.stats().misses, 7u);
    expectWorksetEq(*again, generateLayerWorkset(tinyParams(1)));

    // Evicted entries held by callers stay alive (shared ownership).
    expectWorksetEq(*first, *again);
}

TEST(WorksetCache, OneBudgetCoversEveryEntry)
{
    // One workset larger than a quarter of the budget but smaller than
    // all of it stays resident: the whole budget is one FIFO, not a
    // slice per hash shard.
    WorksetCache cache;
    const auto bytes = generateLayerWorkset(tinyParams()).approxBytes();
    cache.setByteBudget(2 * bytes);
    const auto first = cache.obtain(tinyParams());
    const auto again = cache.obtain(tinyParams());
    EXPECT_EQ(first.get(), again.get());
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.residentBytes, bytes);
}

TEST(WorksetCache, ZeroBudgetIsUnbounded)
{
    WorksetCache cache;
    cache.setByteBudget(0);
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        cache.obtain(tinyParams(seed));
    EXPECT_EQ(cache.stats().entries, 4u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(WorksetCache, ConcurrentObtainIsConsistent)
{
    WorksetCache cache;
    std::vector<std::shared_ptr<const LayerWorkset>> seen(64);
    {
        ThreadPool pool(4);
        for (std::size_t i = 0; i < seen.size(); ++i)
            pool.submit([&cache, &seen, i] {
                seen[i] = cache.obtain(tinyParams(1 + i % 8));
            });
        pool.wait();
    }
    // Every requester of one key got content equal to the serial
    // generation (racing double-computes are allowed, but the content
    // must match).
    for (std::size_t i = 0; i < seen.size(); ++i)
        expectWorksetEq(*seen[i],
                        generateLayerWorkset(tinyParams(1 + i % 8)));
    EXPECT_EQ(cache.stats().entries, 8u);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, seen.size());
}

} // namespace
} // namespace griffin
