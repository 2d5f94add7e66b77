/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic choice in the library (synthetic sparsity masks,
 * tile sampling phases, test tensors) flows through Rng so that runs
 * are exactly reproducible from a single seed.
 */

#ifndef GRIFFIN_COMMON_RNG_HH
#define GRIFFIN_COMMON_RNG_HH

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace griffin {

/**
 * MT19937-64 with block-buffered output: the twist refills all 312
 * state words at once and the output tempering — element-independent —
 * runs through the SIMD kernel table (simd/occupancy.hh).  Every value
 * is bit-identical to std::mt19937_64 from the same seed ([rand.eng.
 * mers] specifies the generator exactly; tests/test_rng.cc pins the
 * equivalence), so historical baselines are unaffected — operand
 * generation just stops paying a per-call engine.
 *
 * Satisfies UniformRandomBitGenerator with the same result_type and
 * range as std::mt19937_64, so the std distributions over it follow
 * the exact same value path.
 */
class Mt64
{
  public:
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt64(result_type seed);

    result_type
    operator()()
    {
        if (pos_ >= kN)
            refill();
        return out_[pos_++];
    }

  private:
    static constexpr int kN = 312;

    void refill();

    std::uint64_t state_[kN];
    std::uint64_t out_[kN];
    int pos_ = kN;
};

/**
 * A seeded mt19937_64 with the handful of draws the library needs.
 *
 * Not thread-safe; create one per thread of work.
 */
class Rng
{
  public:
    /** Library-wide default seed: reproducible out of the box. */
    static constexpr std::uint64_t defaultSeed = 0x5eed'061f'f100'2022ULL;

    explicit Rng(std::uint64_t seed);
    Rng() : Rng(defaultSeed) {}

    // The per-value draws are defined inline: operand generation calls
    // them once per matrix element, and the out-of-line versions spent
    // more time on call overhead than in the engine.  The distribution
    // objects and call order are unchanged — the value sequence from a
    // given seed is bit-identical to the historical one.

    /** Uniform integer in [lo, hi] inclusive.  Requires lo <= hi. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        GRIFFIN_ASSERT(lo <= hi, "uniformInt with lo ", lo, " > hi ",
                       hi);
        std::uniform_int_distribution<std::int64_t> dist(lo, hi);
        return dist(engine_);
    }

    /** Uniform double in [0, 1). */
    double
    uniform01()
    {
        // Explicit canonical form: one engine draw scaled by 2^-64,
        // clamped below one where the 53-bit rounding of the largest
        // draws lands on 1.0.  This is bit-identical to the
        // libstdc++ uniform_real_distribution(0,1) over mt19937_64
        // that produced every existing baseline, but skips the
        // generate_canonical long-double path that dominated operand
        // generation profiles.
        const double r =
            static_cast<double>(engine_()) * 0x1p-64;
        return r < 1.0 ? r : 0x1.fffffffffffffp-1;
    }

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool
    bernoulli(double p)
    {
        p = std::clamp(p, 0.0, 1.0);
        return uniform01() < p;
    }

    /**
     * Nonzero INT8 value, uniform over [-128,127] \ {0}.  Used when a
     * position must be effectual by construction.
     */
    std::int8_t
    nonzeroInt8()
    {
        // Draw from [-128, 126] and shift the zero out of the range so
        // all 255 nonzero values stay equally likely.
        auto v = uniformInt(-128, 126);
        if (v >= 0)
            ++v;
        return static_cast<std::int8_t>(v);
    }

    /** Fisher-Yates shuffle of an index vector. */
    void shuffle(std::vector<std::size_t> &v);

    /**
     * Derive an independent child generator.  Used to give each layer
     * or tile its own stream so results do not depend on visit order.
     */
    Rng fork();

    /**
     * Deterministically fold `salt` into `seed` (splitmix64 finalizer).
     * Order-independent job seeding for the parallel runner and the
     * content hashing of the runtime memos both flow through this, so
     * derived streams never depend on which thread asked first.
     */
    static std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

    /** mixSeed over every byte of a string salt. */
    static std::uint64_t mixSeed(std::uint64_t seed,
                                 const std::string &salt);

  private:
    Mt64 engine_;
};

} // namespace griffin

#endif // GRIFFIN_COMMON_RNG_HH
