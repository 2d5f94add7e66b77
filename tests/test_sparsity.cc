/**
 * @file
 * Tests for synthetic sparsity generators.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

TEST(Sparsity, RandomSparseHitsTargetRate)
{
    Rng rng(51);
    auto m = randomSparse(200, 200, 0.8, rng);
    EXPECT_NEAR(m.sparsity(), 0.8, 0.01);
}

TEST(Sparsity, ZeroSparsityIsFullyDense)
{
    Rng rng(52);
    auto m = randomSparse(50, 50, 0.0, rng);
    EXPECT_EQ(m.nnz(), 2500u);
}

TEST(Sparsity, FullSparsityIsAllZero)
{
    Rng rng(53);
    auto m = randomSparse(50, 50, 1.0, rng);
    EXPECT_EQ(m.nnz(), 0u);
}

TEST(Sparsity, SameSeedSameMatrix)
{
    Rng a(54), b(54);
    EXPECT_EQ(randomSparse(30, 30, 0.5, a), randomSparse(30, 30, 0.5, b));
}

TEST(Sparsity, ClusteredHitsTargetRate)
{
    Rng rng(55);
    auto m = clusteredSparse(300, 300, 0.5, 8.0, rng);
    EXPECT_NEAR(m.sparsity(), 0.5, 0.05);
}

TEST(Sparsity, ClusteredHasLongerRunsThanIid)
{
    Rng rng(56);
    auto count_runs = [](const MatrixI8 &m) {
        // Count zero runs; fewer runs at equal sparsity = longer runs.
        std::size_t runs = 0;
        for (std::size_t r = 0; r < m.rows(); ++r) {
            bool in_run = false;
            for (std::size_t c = 0; c < m.cols(); ++c) {
                const bool z = m.at(r, c) == 0;
                if (z && !in_run)
                    ++runs;
                in_run = z;
            }
        }
        return runs;
    };
    auto iid = randomSparse(200, 200, 0.5, rng);
    auto clustered = clusteredSparse(200, 200, 0.5, 8.0, rng);
    EXPECT_LT(count_runs(clustered), count_runs(iid) / 2);
}

TEST(Sparsity, LaneBiasedHitsOverallTarget)
{
    Rng rng(61);
    auto m = laneBiasedSparse(400, 200, 0.8, 0.8, 4, rng);
    EXPECT_NEAR(m.sparsity(), 0.8, 0.02);
}

TEST(Sparsity, LaneBiasedCreatesPeriodicImbalance)
{
    Rng rng(62);
    auto m = laneBiasedSparse(4000, 64, 0.8, 0.8, 4, rng);
    // Phase 0 rows must be substantially denser than phase 3 rows.
    double nnz_by_phase[4] = {0, 0, 0, 0};
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            nnz_by_phase[r % 4] += m.at(r, c) != 0;
    EXPECT_GT(nnz_by_phase[0], 2.0 * nnz_by_phase[3]);
}

TEST(Sparsity, LaneBiasZeroIsUnbiased)
{
    Rng rng(63);
    auto m = laneBiasedSparse(4000, 16, 0.5, 0.0, 4, rng);
    double nnz_by_phase[4] = {0, 0, 0, 0};
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            nnz_by_phase[r % 4] += m.at(r, c) != 0;
    EXPECT_NEAR(nnz_by_phase[0] / nnz_by_phase[3], 1.0, 0.1);
}

TEST(SparsityDeathTest, LaneBiasedValidatesArguments)
{
    Rng rng(64);
    EXPECT_DEATH(laneBiasedSparse(4, 4, 0.5, 1.5, 4, rng), "bias");
    EXPECT_DEATH(laneBiasedSparse(4, 4, 0.5, 0.5, 0, rng), "period");
}

TEST(SparsityDeathTest, OutOfRangeRateIsRejected)
{
    Rng rng(60);
    EXPECT_DEATH(randomSparse(4, 4, 1.5, rng), "outside");
    EXPECT_DEATH(randomSparse(4, 4, -0.1, rng), "outside");
    EXPECT_DEATH(clusteredSparse(4, 4, 0.5, 0.5, rng), "run length");
}

} // namespace
} // namespace griffin
