#include "tensor/sparsity.hh"

#include <algorithm>

namespace griffin {

MatrixI8
randomSparse(std::size_t rows, std::size_t cols, double sparsity, Rng &rng)
{
    GRIFFIN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity ", sparsity, " outside [0,1]");
    MatrixI8 m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        std::int8_t *row = m.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            if (!rng.bernoulli(sparsity))
                row[c] = rng.nonzeroInt8();
    }
    return m;
}

MatrixI8
randomDense(std::size_t rows, std::size_t cols, Rng &rng)
{
    return randomSparse(rows, cols, 0.0, rng);
}

MatrixI8
clusteredSparse(std::size_t rows, std::size_t cols, double sparsity,
                double run_len, Rng &rng)
{
    GRIFFIN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity ", sparsity, " outside [0,1]");
    GRIFFIN_ASSERT(run_len >= 1.0, "run length ", run_len, " below 1");
    MatrixI8 m(rows, cols);
    // Two-state Markov chain per row.  Stay in the zero state with
    // probability 1 - 1/run_len (mean zero-run length = run_len); the
    // entry rate into the zero state is chosen so the stationary zero
    // fraction equals `sparsity`.
    const double exit_zero = 1.0 / run_len;
    const double enter_zero =
        sparsity >= 1.0 ? 1.0
                        : std::min(1.0, exit_zero * sparsity /
                                            std::max(1e-9, 1.0 - sparsity));
    for (std::size_t r = 0; r < rows; ++r) {
        std::int8_t *row = m.data() + r * cols;
        bool in_zero_run = rng.bernoulli(sparsity);
        for (std::size_t c = 0; c < cols; ++c) {
            if (!in_zero_run)
                row[c] = rng.nonzeroInt8();
            in_zero_run = in_zero_run ? !rng.bernoulli(exit_zero)
                                      : rng.bernoulli(enter_zero);
        }
    }
    return m;
}

MatrixI8
laneBiasedSparse(std::size_t rows, std::size_t cols, double sparsity,
                 double bias, int period, Rng &rng)
{
    GRIFFIN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity ", sparsity, " outside [0,1]");
    GRIFFIN_ASSERT(bias >= 0.0 && bias <= 1.0,
                   "bias ", bias, " outside [0,1]");
    GRIFFIN_ASSERT(period >= 1, "period ", period, " below 1");
    const double density = 1.0 - sparsity;
    MatrixI8 m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        // Triangular profile over the period, zero-mean so the overall
        // rate stays on target: phase 0 is the densest position.
        const int phase = static_cast<int>(r % period);
        const double centered =
            period == 1
                ? 0.0
                : 1.0 - 2.0 * phase / static_cast<double>(period - 1);
        const double q =
            std::clamp(density * (1.0 + bias * centered), 0.0, 1.0);
        std::int8_t *row = m.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            if (rng.bernoulli(q))
                row[c] = rng.nonzeroInt8();
    }
    return m;
}

} // namespace griffin
