/**
 * @file
 * Integration tests: end-to-end network runs through the public
 * Accelerator API, Griffin's headline behaviours among them.
 */

#include <gtest/gtest.h>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "griffin/accelerator.hh"

namespace griffin {
namespace {

RunOptions
fastOptions()
{
    RunOptions opt;
    opt.sim.sampleFraction = 0.05;
    opt.sim.minSampledTiles = 4;
    opt.rowCap = 64;
    return opt;
}

TEST(Accelerator, DenseBaselineIsNeutralOnDenseCategory)
{
    Accelerator acc(denseBaseline());
    auto r = acc.run(networkByName("resnet50"), DnnCategory::Dense,
                     fastOptions());
    EXPECT_EQ(r.denseCycles,
              networkByName("resnet50").denseCycles(TileShape{}));
    // Compute equals dense; DRAM may stretch the total slightly.
    EXPECT_LE(r.speedup, 1.0);
    EXPECT_GT(r.speedup, 0.5);
}

TEST(Accelerator, SparseArchsAccelerateTheirCategory)
{
    auto opt = fastOptions();
    const auto net = networkByName("resnet50");
    Accelerator b_star(sparseBStar());
    Accelerator a_star(sparseAStar());
    Accelerator ab_star(sparseABStar());
    const auto rb = b_star.run(net, DnnCategory::B, opt);
    const auto ra = a_star.run(net, DnnCategory::A, opt);
    const auto rab = ab_star.run(net, DnnCategory::AB, opt);
    EXPECT_GT(rb.speedup, 1.3);
    EXPECT_GT(ra.speedup, 1.1);
    EXPECT_GT(rab.speedup, rb.speedup);
}

TEST(Accelerator, GriffinBeatsRigidDualOnSingleSparse)
{
    // The hybrid headline (Table III): on DNN.B and DNN.A workloads
    // Griffin's morphs outperform the same hardware without morphing.
    auto opt = fastOptions();
    const auto net = networkByName("bert"); // the DNN.B workload
    Accelerator rigid(sparseABStar());
    Accelerator hybrid(griffinArch());
    const auto r_rigid = rigid.run(net, DnnCategory::B, opt);
    const auto r_hybrid = hybrid.run(net, DnnCategory::B, opt);
    EXPECT_GT(r_hybrid.speedup, r_rigid.speedup);
    EXPECT_GT(r_hybrid.topsPerWatt, r_rigid.topsPerWatt);
}

TEST(Accelerator, GriffinTopsSparTenAcrossCategories)
{
    // Headline: Griffin is more power-efficient than SparTen.AB in
    // every category (paper: 1.2x/3.0x/3.1x/1.4x).
    auto opt = fastOptions();
    const auto net = networkByName("resnet50");
    Accelerator griffin(griffinArch());
    Accelerator sparten(sparTenAB());
    for (DnnCategory cat : allCategories) {
        const auto g = griffin.run(net, cat, opt);
        const auto s = sparten.run(net, cat, opt);
        EXPECT_GT(g.topsPerWatt, s.topsPerWatt) << toString(cat);
    }
}

TEST(Accelerator, SparTenDispatchesToMacGridSimulator)
{
    auto opt = fastOptions();
    Accelerator sparten(sparTenAB());
    auto r = sparten.run(networkByName("alexnet"), DnnCategory::AB, opt);
    EXPECT_GT(r.speedup, 1.5); // near-ideal skipping on 89%/53%
    EXPECT_EQ(r.arch, "SparTen.AB");
}

TEST(Accelerator, LayerResultsCoverTheNetwork)
{
    auto opt = fastOptions();
    Accelerator acc(sparseBStar());
    const auto net = networkByName("alexnet");
    auto r = acc.run(net, DnnCategory::B, opt);
    ASSERT_EQ(r.layers.size(), net.layerCount());
    std::int64_t dense = 0, total = 0;
    for (const auto &layer : r.layers) {
        dense += layer.denseCycles;
        total += layer.totalCycles;
        EXPECT_GT(layer.totalCycles, 0) << layer.name;
    }
    EXPECT_EQ(dense, r.denseCycles);
    EXPECT_EQ(total, r.totalCycles);
}

TEST(Accelerator, ShuffleHelpsOnLaneBiasedWeights)
{
    // The load-imbalance mechanism the paper's shuffler targets
    // (observation VI-A(3)): with lane-biased weights, shuffle-on must
    // beat shuffle-off for a deep-lookahead design.
    auto opt = fastOptions();
    opt.weightLaneBias = 0.8;
    auto off = sparseBStar();
    off.routing = RoutingConfig::sparseB(6, 0, 0, false);
    off.name = "B(6,0,0,off)";
    auto on = sparseBStar();
    on.routing = RoutingConfig::sparseB(6, 0, 0, true);
    on.name = "B(6,0,0,on)";
    const auto net = networkByName("bert");
    const auto r_off = Accelerator(off).run(net, DnnCategory::B, opt);
    const auto r_on = Accelerator(on).run(net, DnnCategory::B, opt);
    EXPECT_GT(r_on.speedup, 1.05 * r_off.speedup);
}

TEST(Accelerator, RunSuiteCoversAllSixNetworks)
{
    auto opt = fastOptions();
    opt.rowCap = 32;
    opt.sim.sampleFraction = 0.02;
    opt.sim.minSampledTiles = 2;
    Accelerator acc(sparseBStar());
    auto results = acc.runSuite(DnnCategory::B, opt);
    ASSERT_EQ(results.size(), 6u);
    EXPECT_GT(geomeanSpeedup(results), 1.2);
}

TEST(Accelerator, RunLayerPlusReduceEqualsRun)
{
    // run() is definitionally the reduce of its per-layer calls; the
    // per-layer runtime sweeps rely on this identity.
    auto opt = fastOptions();
    Accelerator acc(griffinArch());
    const auto net = networkByName("alexnet");
    std::vector<LayerResult> layers;
    for (std::size_t l = 0; l < net.layerCount(); ++l)
        layers.push_back(acc.runLayer(net, l, DnnCategory::AB, opt));
    const auto reduced =
        acc.reduceLayers(net, DnnCategory::AB, std::move(layers));
    const auto direct = acc.run(net, DnnCategory::AB, opt);
    EXPECT_EQ(reduced.denseCycles, direct.denseCycles);
    EXPECT_EQ(reduced.totalCycles, direct.totalCycles);
    EXPECT_EQ(reduced.speedup, direct.speedup);
    EXPECT_EQ(reduced.topsPerWatt, direct.topsPerWatt);
    ASSERT_EQ(reduced.layers.size(), direct.layers.size());
    for (std::size_t l = 0; l < reduced.layers.size(); ++l) {
        EXPECT_EQ(reduced.layers[l].totalCycles,
                  direct.layers[l].totalCycles);
        EXPECT_EQ(reduced.layers[l].speedup, direct.layers[l].speedup);
    }
}

TEST(AcceleratorDeathTest, RunLayerIndexOutOfRangeIsFatal)
{
    Accelerator acc(denseBaseline());
    const auto net = networkByName("alexnet");
    EXPECT_EXIT(acc.runLayer(net, net.layerCount(),
                             DnnCategory::Dense, fastOptions()),
                testing::ExitedWithCode(exitUsageError), "out of range");
}

TEST(AcceleratorDeathTest, ReduceLayerCountMismatchIsFatal)
{
    Accelerator acc(denseBaseline());
    const auto net = networkByName("alexnet");
    EXPECT_EXIT(acc.reduceLayers(net, DnnCategory::Dense, {}),
                testing::ExitedWithCode(exitUsageError), "layer results");
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    auto opt = fastOptions();
    Accelerator acc(sparseABStar());
    const auto net = networkByName("googlenet");
    auto r1 = acc.run(net, DnnCategory::AB, opt);
    auto r2 = acc.run(net, DnnCategory::AB, opt);
    EXPECT_EQ(r1.totalCycles, r2.totalCycles);
}

TEST(GeomeanSpeedup, EmptyInputIsNeutral)
{
    EXPECT_DOUBLE_EQ(geomeanSpeedup({}), 1.0);
}

TEST(GeomeanSpeedup, SkipsNonPositiveSpeedups)
{
    NetworkResult good;
    good.network = "good";
    good.speedup = 4.0;
    NetworkResult zero;
    zero.network = "zero";
    zero.speedup = 0.0;
    NetworkResult negative;
    negative.network = "negative";
    negative.speedup = -2.0;

    // Non-positive entries are skipped, not folded into the mean.
    EXPECT_DOUBLE_EQ(geomeanSpeedup({good, zero, negative}), 4.0);
    // All entries degenerate -> neutral 1.0 rather than NaN/abort.
    EXPECT_DOUBLE_EQ(geomeanSpeedup({zero, negative}), 1.0);
}

TEST(GeomeanSpeedup, MatchesGeomeanOnPositiveInput)
{
    NetworkResult a;
    a.speedup = 2.0;
    NetworkResult b;
    b.speedup = 8.0;
    EXPECT_NEAR(geomeanSpeedup({a, b}), 4.0, 1e-12);
}

TEST(AcceleratorDeathTest, BadRowCapIsFatal)
{
    Accelerator acc(denseBaseline());
    RunOptions opt;
    opt.rowCap = 0;
    EXPECT_EXIT(acc.run(networkByName("alexnet"), DnnCategory::Dense,
                        opt),
                testing::ExitedWithCode(exitUsageError), "rowCap");
}

} // namespace
} // namespace griffin
