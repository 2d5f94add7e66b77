#include "sched/b_preprocess.hh"

#include <algorithm>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"
#include "simd/occupancy.hh"

namespace griffin {

namespace {

/**
 * The packing pass of one B tile: slot bitmaps straight from the
 * tile's occupancy masks, then the window engine.  Preprocessing is
 * offline, so the stream layout is limited by the window depth only,
 * never by runtime bandwidth.
 */
ScheduleResult
packB(const TileViewB &b, const Borrow &db, const Shuffler &shuffler,
      bool record)
{
    SlotGrid grid;
    grid.steps = b.steps();
    grid.lanes = b.lanes();
    grid.rows = 1;
    grid.cols = b.units();

    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto *occ = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(grid.steps * grid.lanes));
    simd::bTileOccupancy(b.matrix(), b.unitBase(), grid.cols,
                         grid.steps, grid.lanes, occ);

    BorrowWindow window;
    window.steps = 1 + db.d1;
    window.laneDist = db.d2;
    window.rowDist = 0;
    window.colDist = db.d3;
    window.advanceCap = window.steps;
    window.budgetCeiling = window.steps;
    return runWindowSchedule(unitLanePending(occ, grid, shuffler, arena),
                             window, record);
}

} // namespace

ScheduleStats
countB(const TileViewB &b, const Borrow &db, const Shuffler &shuffler)
{
    return packB(b, db, shuffler, false).stats;
}

BSchedule
preprocessB(const TileViewB &b, const Borrow &db, const Shuffler &shuffler,
            bool record)
{
    // The packing ops *are* the stream content, so always record.
    auto result = packB(b, db, shuffler, true);
    const int lanes = b.lanes();
    const int cols = b.units();

    BSchedule sched;
    sched.cycles_ = std::max<std::int64_t>(result.stats.cycles, 0);
    sched.lanes_ = lanes;
    sched.cols_ = cols;
    sched.elems_ = result.stats.ops;
    sched.stats_ = result.stats;
    const auto cells = static_cast<std::size_t>(
        sched.cycles_ * lanes * cols);
    sched.flatk_.assign(cells, -1);
    sched.homecol_.assign(cells, -1);
    sched.raw_end_.assign(static_cast<std::size_t>(sched.cycles_), -1);
    const auto col_cells =
        static_cast<std::size_t>(sched.cycles_ * cols);
    sched.raw_lo_.assign(col_cells, -1);
    sched.raw_hi_.assign(col_cells, -1);

    for (const auto &op : result.ops) {
        // The op's element lane is post-shuffle; recover the original
        // k2 to form the flat k index used for A pairing.
        const int orig_k2 = shuffler.invert(op.step, op.lane);
        const auto idx =
            sched.index(op.cycle, op.consumerLane, op.consumerCol);
        GRIFFIN_ASSERT(sched.flatk_[idx] == -1,
                       "two elements packed into one stream slot");
        sched.flatk_[idx] = op.step * lanes + orig_k2;
        sched.homecol_[idx] = static_cast<std::int16_t>(op.col);
        auto &frontier =
            sched.raw_end_[static_cast<std::size_t>(op.cycle)];
        frontier = std::max(frontier, op.step);
        const auto cidx = sched.colIndex(op.cycle, op.consumerCol);
        auto &lo = sched.raw_lo_[cidx];
        auto &hi = sched.raw_hi_[cidx];
        lo = (lo < 0) ? op.step : std::min(lo, op.step);
        hi = std::max(hi, op.step);
    }
    // Make the frontier cumulative; empty cycles inherit it.
    std::int64_t running = -1;
    for (auto &v : sched.raw_end_) {
        running = std::max(running, v);
        v = running;
    }
    if (record)
        sched.ops_ = std::move(result.ops);
    return sched;
}

std::size_t
BSchedule::approxBytes() const
{
    return sizeof(BSchedule) +
           flatk_.size() * sizeof(std::int64_t) +
           homecol_.size() * sizeof(std::int16_t) +
           (raw_end_.size() + raw_lo_.size() + raw_hi_.size()) *
               sizeof(std::int64_t);
}

} // namespace griffin
