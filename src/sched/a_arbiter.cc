#include "sched/a_arbiter.hh"

#include <algorithm>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"
#include "simd/occupancy.hh"

namespace griffin {

ScheduleResult
scheduleA(const TileViewA &a, const Borrow &da, const Shuffler &shuffler,
          double advance_cap, bool record)
{
    GRIFFIN_ASSERT(advance_cap > 0.0, "non-positive advance cap");

    SlotGrid grid;
    grid.steps = a.steps();
    grid.lanes = a.lanes();
    grid.rows = a.units();
    grid.cols = 1;

    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto *occ = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(grid.steps * grid.lanes));
    simd::aTileOccupancy(a.matrix(), a.unitBase(), grid.rows,
                         grid.steps, grid.lanes, occ);

    BorrowWindow window;
    window.steps = 1 + da.d1;
    window.laneDist = da.d2;
    window.rowDist = da.d3;
    window.colDist = 0;
    window.advanceCap = std::min<double>(advance_cap, window.steps);
    window.budgetCeiling = window.steps;

    return runWindowSchedule(unitLanePending(occ, grid, shuffler, arena),
                             window, record);
}

} // namespace griffin
