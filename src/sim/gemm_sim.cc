#include "sim/gemm_sim.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "arch/overhead.hh"
#include "runtime/schedule_memo.hh"
#include "runtime/telemetry.hh"
#include "sched/a_arbiter.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sim/sampling.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"
#include "tensor/workset.hh"

namespace griffin {

namespace {

void
accumulate(ScheduleStats &into, const ScheduleStats &from)
{
    into.cycles += from.cycles;
    into.ops += from.ops;
    into.ownOps += from.ownOps;
    into.stolenOps += from.stolenOps;
    into.idleSlotCycles += from.idleSlotCycles;
    into.bwLimitedCycles += from.bwLimitedCycles;
}

/**
 * Preprocess one B tile, through the memo when the caller provided
 * one.  The returned pointer keeps the schedule alive either way
 * (locally computed streams are wrapped in fresh ownership).
 */
std::shared_ptr<const BSchedule>
obtainStream(ScheduleMemo *memo, const TileViewB &vb, const Borrow &db,
             const Shuffler &shuffler)
{
    ScopedSpan span("b_schedule");
    if (memo != nullptr)
        return memo->obtain(vb, db, shuffler);
    return std::make_shared<const BSchedule>(
        preprocessB(vb, db, shuffler, false));
}

/** Scale a sampled cycle total back to the full population. */
std::int64_t
scaleUp(std::int64_t sampled_sum, std::int64_t sampled_count,
        std::int64_t population)
{
    if (sampled_count == 0)
        return 0;
    const double scale = static_cast<double>(population) /
                         static_cast<double>(sampled_count);
    return static_cast<std::int64_t>(
        std::llround(static_cast<double>(sampled_sum) * scale));
}

/**
 * Everything the per-mode compute stages share: resolved geometry and
 * routing, plus the result record they fill in (computeCycles,
 * simulatedTiles, sched).
 */
struct ComputeStage
{
    const GemmOperands &ops;
    const SimOptions &opt;
    const TileShape &shape;
    const RoutingConfig &routing;
    const Shuffler &shuffler;
    double bw;
    std::int64_t rowTiles;
    std::int64_t colTiles;
};

/** Stage 2+3, SparsityMode::B: schedules depend only on B — simulate
 *  (a subset of) column tiles and multiply by the row-tile count. */
void
simulateSparseB(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.colTiles, 1, stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    std::int64_t sum = 0;
    for (const auto &t : picks) {
        TileViewB vb(*stage.ops.b, stage.shape, t.row * stage.shape.n0);
        auto stream = obtainStream(stage.opt.scheduleMemo, vb,
                                   stage.routing.b, stage.shuffler);
        // Runtime is bandwidth-capped even though packing is offline:
        // replaying the stream can consume at most `bw` raw A steps
        // per cycle.
        std::int64_t cycles = stream->cycles();
        const double min_cycles =
            static_cast<double>(vb.steps()) / stage.bw;
        cycles = std::max<std::int64_t>(
            cycles,
            static_cast<std::int64_t>(std::ceil(min_cycles)));
        sum += cycles;
        accumulate(result.sched, stream->stats());
    }
    result.computeCycles =
        scaleUp(sum, static_cast<std::int64_t>(picks.size()),
                stage.colTiles) *
        stage.rowTiles;
    result.simulatedTiles =
        static_cast<std::int64_t>(picks.size()) * stage.rowTiles;
}

/** Stage 2+3, SparsityMode::A: the symmetric row-tile form. */
void
simulateSparseA(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.rowTiles, 1, stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    std::int64_t sum = 0;
    for (const auto &t : picks) {
        TileViewA va(*stage.ops.a, stage.shape, t.row * stage.shape.m0);
        ScopedSpan span("a_schedule");
        const auto stats = scheduleA(va, stage.routing.a, stage.shuffler,
                                     stage.bw, false)
                               .stats;
        sum += stats.cycles;
        accumulate(result.sched, stats);
    }
    result.computeCycles =
        scaleUp(sum, static_cast<std::int64_t>(picks.size()),
                stage.rowTiles) *
        stage.colTiles;
    result.simulatedTiles =
        static_cast<std::int64_t>(picks.size()) * stage.colTiles;
}

/** Stage 2+3, SparsityMode::AB: dual schedules are per tile pair; the
 *  B-side streams still compute per distinct column tile. */
void
simulateDualSparse(const ComputeStage &stage, GemmSimResult &result)
{
    auto picks = sampleTiles(stage.rowTiles, stage.colTiles,
                             stage.opt.sampleFraction,
                             stage.opt.minSampledTiles, stage.opt.seed);
    // One preprocessed stream per distinct column tile; this per-call
    // lookup short-circuits repeat columns of this GEMM even when no
    // schedule memo is attached.  A sorted flat vector beats a
    // node-based map here: a handful of distinct columns, looked up
    // once per sampled tile.
    std::vector<std::pair<std::int64_t,
                          std::shared_ptr<const BSchedule>>> streams;
    std::int64_t sum = 0;
    for (const auto &t : picks) {
        TileViewA va(*stage.ops.a, stage.shape, t.row * stage.shape.m0);
        TileViewB vb(*stage.ops.b, stage.shape, t.col * stage.shape.n0);
        const BSchedule *stream = nullptr;
        if (stage.routing.preprocessB) {
            auto it = std::lower_bound(
                streams.begin(), streams.end(), t.col,
                [](const auto &e, std::int64_t col) {
                    return e.first < col;
                });
            if (it == streams.end() || it->first != t.col) {
                it = streams.insert(
                    it, {t.col,
                         obtainStream(stage.opt.scheduleMemo, vb,
                                      stage.routing.b,
                                      stage.shuffler)});
            }
            stream = it->second.get();
        }
        ScopedSpan span("dual_schedule");
        auto dual = scheduleDual(va, vb, stage.routing, stage.shuffler,
                                 stream, stage.bw, false);
        sum += dual.cycles;
        accumulate(result.sched, dual.stage2);
    }
    result.computeCycles = scaleUp(
        sum, static_cast<std::int64_t>(picks.size()), result.totalTiles);
    result.simulatedTiles = static_cast<std::int64_t>(picks.size());
}

/**
 * Stage 3 reduction, memory model: DRAM traffic of the whole GEMM —
 * A and C stream dense; B streams dense or as the compressed payload
 * plus metadata when preprocessed — and the layer total under double
 * buffering.
 */
void
applyMemoryModel(const GemmOperands &ops, const ArchConfig &arch,
                 const RoutingConfig &routing, std::int64_t m,
                 std::int64_t k, std::int64_t n, const SimOptions &opt,
                 GemmSimResult &result)
{
    ScopedSpan span("memory_model");
    const auto hw = computeOverhead(routing, arch.tile);
    std::int64_t b_bytes = k * n;
    if (routing.preprocessB) {
        const auto nnz_b = ops.nnzB;
        b_bytes = nnz_b + (nnz_b * hw.metadataBits + 7) / 8;
    }
    result.dramBytes = m * k + b_bytes + m * n;
    result.dramCycles = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(result.dramBytes) /
                  arch.mem.dramBytesPerCycle()));

    result.totalCycles =
        std::max(result.computeCycles, result.dramCycles) +
        static_cast<std::int64_t>(opt.drainCyclesPerTile) *
            result.totalTiles;
}

} // namespace

GemmOperands
makeGemmOperands(const MatrixI8 &a, const MatrixI8 &b)
{
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    ops.effectualOps = countEffectualOps(a, b);
    ops.nnzB = static_cast<std::int64_t>(b.nnz());
    return ops;
}

GemmOperands
gemmOperands(const LayerWorkset &workset)
{
    GemmOperands ops;
    ops.a = &workset.a;
    ops.b = &workset.b;
    ops.effectualOps = workset.effectualOps;
    ops.nnzB = workset.nnzB;
    return ops;
}

GemmSimResult
simulateGemm(const GemmOperands &operands, const ArchConfig &arch,
             DnnCategory cat, const SimOptions &opt)
{
    arch.validate();
    if (arch.style != DatapathStyle::VectorCore)
        fatal("simulateGemm handles vector-core architectures; use the "
              "SparTen simulator in src/baselines for '",
              arch.name, "'");
    GRIFFIN_ASSERT(operands.a != nullptr && operands.b != nullptr,
                   "simulateGemm needs both operand matrices");
    const MatrixI8 &a = *operands.a;
    const MatrixI8 &b = *operands.b;
    GRIFFIN_ASSERT(a.cols() == b.rows(), "GEMM shape mismatch: A ",
                   a.rows(), "x", a.cols(), ", B ", b.rows(), "x",
                   b.cols());
    if (opt.sampleFraction <= 0.0 || opt.sampleFraction > 1.0)
        fatal("sample fraction ", opt.sampleFraction, " outside (0,1]");

    const TileShape &shape = arch.tile;
    const auto routing = arch.effectiveRouting(cat);
    const double bw = arch.effectiveBwScale(cat);
    const auto m = static_cast<std::int64_t>(a.rows());
    const auto k = static_cast<std::int64_t>(a.cols());
    const auto n = static_cast<std::int64_t>(b.cols());

    GemmSimResult result;
    result.denseCycles = denseCycles(m, k, n, shape);
    result.denseOps = m * k * n;
    result.effectualOps = operands.effectualOps;
    const std::int64_t row_tiles = (m + shape.m0 - 1) / shape.m0;
    const std::int64_t col_tiles = (n + shape.n0 - 1) / shape.n0;
    result.totalTiles = row_tiles * col_tiles;
    if (result.totalTiles == 0 || k == 0) {
        result.totalCycles = 0;
        return result;
    }

    Shuffler shuffler(routing.shuffle, shape.k0);
    const ComputeStage stage{operands, opt,       shape,    routing,
                             shuffler, bw,        row_tiles, col_tiles};

    {
        // b_schedule / a_schedule / dual_schedule spans nest inside
        // this one; the trace shows scheduling as sub-slices of tile
        // simulation.
        ScopedSpan span("tile_sim");
        switch (routing.mode) {
          case SparsityMode::Dense:
            result.computeCycles = result.denseCycles;
            result.simulatedTiles = result.totalTiles;
            break;
          case SparsityMode::B:
            simulateSparseB(stage, result);
            break;
          case SparsityMode::A:
            simulateSparseA(stage, result);
            break;
          case SparsityMode::AB:
            simulateDualSparse(stage, result);
            break;
        }
    }

    applyMemoryModel(operands, arch, routing, m, k, n, opt, result);
    return result;
}

GemmSimResult
simulateGemm(const MatrixI8 &a, const MatrixI8 &b, const ArchConfig &arch,
             DnnCategory cat, const SimOptions &opt)
{
    return simulateGemm(makeGemmOperands(a, b), arch, cat, opt);
}

} // namespace griffin
