/**
 * @file
 * Stage 1 of the staged simulation pipeline: operand generation.
 *
 * One layer's simulation consumes a *workset* — the synthetic A
 * (activation) and B (weight) matrices generated at the layer's
 * sparsity ratios, plus the operand statistics the memory model and
 * the result record need (effectual MACs, B nonzeros) and the derived
 * seed of the tile-sampling phase.  The workset is a pure function of
 * WorksetParams: along the architecture axis of any sweep grid, every
 * design point with the same tile height replays *bit-identical*
 * operand generation, which is why worksets are content-addressed and
 * cacheable (runtime/workset_cache.hh) rather than regenerated inside
 * every Accelerator::runLayer call.
 *
 * Convolution layers are already lowered to GEMM shapes by the
 * workload tables (tensor/im2col.hh does the lowering; workloads/
 * stores the resulting m/k/n), so generation works directly in GEMM
 * coordinates — the im2col output *is* the A matrix being modelled.
 */

#ifndef GRIFFIN_TENSOR_WORKSET_HH
#define GRIFFIN_TENSOR_WORKSET_HH

#include <cstdint>

#include "tensor/matrix.hh"

namespace griffin {

/**
 * The complete input domain of layer operand generation.  Two equal
 * parameter records generate bit-identical worksets on any platform;
 * the content key of the workset cache hashes exactly these fields.
 */
struct WorksetParams
{
    std::int64_t m = 0; ///< simulated A rows (row-cap applied)
    std::int64_t k = 0; ///< GEMM depth
    std::int64_t n = 0; ///< B columns
    double weightSparsity = 0.0;
    double actSparsity = 0.0;
    /** Lane-imbalance depth of the weight mask (sparsity.hh). */
    double weightLaneBias = 0.0;
    /** Effective mean zero-run length (already clamped to >= 1, so
     *  equivalent inputs share one cache entry). */
    double actRunLength = 1.0;
    /** Modulation period of laneBiasedSparse (crossbar granularity). */
    int lanePeriod = 4;
    /** Layer stream seed: mixSeed(mixSeed(run seed, net name), layer). */
    std::uint64_t seed = 0;

    bool operator==(const WorksetParams &o) const;
    bool operator!=(const WorksetParams &o) const { return !(*this == o); }
};

/** The stage-1 artifact: generated operands + their content statistics. */
struct LayerWorkset
{
    MatrixI8 a; ///< activations, m x k
    MatrixI8 b; ///< weights, k x n
    /** Seed of the tile-sampling phase (forked from the generation
     *  stream, so it is part of the workset, not of the simulation). */
    std::uint64_t simSeed = 0;
    /** MACs where both operands are nonzero. */
    std::int64_t effectualOps = 0;
    /** Nonzero count of B (compressed-stream payload size). */
    std::int64_t nnzB = 0;

    /** Approximate resident footprint, the workset-cache byte unit. */
    std::size_t
    approxBytes() const
    {
        return a.size() + b.size() + sizeof(LayerWorkset);
    }
};

/** Count MACs where both operands are nonzero, in O(MK + KN). */
std::int64_t countEffectualOps(const MatrixI8 &a, const MatrixI8 &b);

/**
 * Generate the workset for one parameter record: clustered-sparse
 * activations, lane-biased weights, then the forked sampling seed —
 * the exact stream Accelerator::runLayer historically drew inline, so
 * pipelined and monolithic runs are bit-identical.
 */
LayerWorkset generateLayerWorkset(const WorksetParams &params);

} // namespace griffin

#endif // GRIFFIN_TENSOR_WORKSET_HH
