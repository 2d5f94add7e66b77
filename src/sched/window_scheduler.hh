/**
 * @file
 * The generic sliding-window scheduler every sparse family reuses.
 *
 * Cycle-level greedy semantics (DESIGN.md Section 3):
 *
 *  1. The window covers steps [w, w + W - 1].
 *  2. Each cycle, pass 1 lets every slot consume the head of its own
 *     queue if that head lies in the window; pass 2 lets still-idle
 *     slots steal the head of a neighbouring queue within
 *     (laneDist, rowDist, colDist), scanning offsets lexicographically
 *     — a priority-encoder chain like Bit-Tactical's.
 *  3. The window tail then advances past drained steps, at most
 *     `advanceCap` step-costs per cycle (SRAM bandwidth), with unused
 *     budget accumulating up to `budgetCeiling` (buffer capacity).
 *
 * Consequences: max speedup = W (paper observation VI-A(1)); lane
 * imbalance stalls the window unless laneDist / shuffle spreads load;
 * cross-PE borrowing needs the extra adder trees accounted elsewhere.
 *
 * State is one pending-slot bitmap per step (PendingSteps).  Walking
 * the window's steps in order, `pend & ~seen` is the set of slots whose
 * head sits at that step, so pass 1 is word operations; the window
 * tail's target (the earliest pending step) is a forward-only cursor.
 *
 * An optional per-step cost vector charges each step at a given
 * streaming cost instead of 1.  No caller in src/ passes one; only the
 * engine's tests do.
 */

#ifndef GRIFFIN_SCHED_WINDOW_SCHEDULER_HH
#define GRIFFIN_SCHED_WINDOW_SCHEDULER_HH

#include "common/arena.hh"
#include "sched/schedule.hh"
#include "tensor/shuffle.hh"

namespace griffin {

/**
 * Run the window schedule to completion.
 *
 * @param pending    per-step slot bitmaps of the effectual elements;
 *                   consumed (every bit is clear on return)
 * @param window     borrow window and bandwidth parameters
 * @param record     when true, every executed op lands in result.ops
 * @param step_costs optional cost to stream past each step (default 1
 *                   each); size must equal grid.steps when given
 */
ScheduleResult runWindowSchedule(
    const PendingSteps &pending, const BorrowWindow &window, bool record,
    const std::vector<std::int64_t> *step_costs = nullptr);

/** The same engine over an owning SlotQueues (left unchanged). */
ScheduleResult runWindowSchedule(
    const SlotQueues &queues, const BorrowWindow &window, bool record,
    const std::vector<std::int64_t> *step_costs = nullptr);

/**
 * One period of the shuffler's lane map, allocated in `arena`: entry
 * (k1 % shuffler.period()) * lanes + k2 is shuffler.apply(k1, k2).
 * Dies unless the shuffler is `lanes` wide.
 */
const int *shuffleTable(const Shuffler &shuffler, int lanes,
                        Arena &arena);

/**
 * Pending bitmaps of a single-sparse tile, allocated in `arena`.  Bit u
 * of occ[k1 * lanes + k2] marks a nonzero element of unit u (a B column
 * or an A row); it lands on slot u * lanes + shuffler.apply(k1, k2),
 * which is slotIndex() whenever one of rows/cols is 1.
 */
PendingSteps unitLanePending(const std::uint64_t *occ,
                             const SlotGrid &grid,
                             const Shuffler &shuffler, Arena &arena);

} // namespace griffin

#endif // GRIFFIN_SCHED_WINDOW_SCHEDULER_HH
