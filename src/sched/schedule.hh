/**
 * @file
 * Types shared by the scheduling engines.
 *
 * A schedule runs over a *slot grid*: one slot per (lane, row, col)
 * position of the datapath, each cycle executing at most one effectual
 * element drawn from a sliding window of temporal steps.  The borrow
 * window (DESIGN.md Section 3) bounds how far an element may be pulled
 * across each axis.
 */

#ifndef GRIFFIN_SCHED_SCHEDULE_HH
#define GRIFFIN_SCHED_SCHEDULE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace griffin {

/**
 * Slot-grid geometry.  Single-sparse B schedules use rows = 1 and
 * cols = N0; single-sparse A schedules use rows = M0 and cols = 1;
 * dual schedules use the full M0 x N0 PE grid.
 */
struct SlotGrid
{
    std::int64_t steps = 0; ///< temporal extent (k1 steps or
                            ///< compressed cycles for dual stage 2)
    int lanes = 1;          ///< K0 dot-product lanes
    int rows = 1;           ///< A-side third axis extent
    int cols = 1;           ///< B-side third axis extent

    std::int64_t slots() const
    {
        return static_cast<std::int64_t>(lanes) * rows * cols;
    }

    /** 64-bit words of one slot bitmap. */
    int slotWords() const { return static_cast<int>((slots() + 63) / 64); }

    std::int64_t
    slotIndex(int lane, int row, int col) const
    {
        GRIFFIN_ASSERT(lane >= 0 && lane < lanes && row >= 0 &&
                       row < rows && col >= 0 && col < cols,
                       "slot (", lane, ",", row, ",", col,
                       ") outside grid ", lanes, "x", rows, "x", cols);
        return (static_cast<std::int64_t>(col) * rows + row) * lanes +
               lane;
    }
};

/**
 * Borrow window of one scheduling pass.
 *
 * advanceCap models SRAM bandwidth: how many step-costs of new operand
 * data can stream into the buffers per cycle (baseline = 1).
 * budgetCeiling is the buffer capacity in the same units — prefetch
 * cannot run further ahead than the window can hold.
 */
struct BorrowWindow
{
    int steps = 1;      ///< resident temporal steps (1 + d1)
    int laneDist = 0;   ///< lookaside reach across lanes
    int rowDist = 0;    ///< cross-PE reach across rows (A side)
    int colDist = 0;    ///< cross-PE reach across columns (B side)
    double advanceCap = 1.0;
    double budgetCeiling = 1.0;
};

/**
 * One executed operation: which element (identified by its original
 * grid position) ran on which consumer slot at which cycle.  Recorded
 * only when verification asks for it.
 */
struct ScheduledOp
{
    std::int64_t step;
    int lane;
    int row;
    int col;
    int consumerLane;
    int consumerRow;
    int consumerCol;
    std::int64_t cycle;
};

/** Aggregate counters of one scheduling pass. */
struct ScheduleStats
{
    std::int64_t cycles = 0;      ///< schedule length
    std::int64_t ops = 0;         ///< effectual elements executed
    std::int64_t ownOps = 0;      ///< executed in their home slot
    std::int64_t stolenOps = 0;   ///< executed via borrowing
    std::int64_t idleSlotCycles = 0; ///< slot-cycles with no work
    std::int64_t bwLimitedCycles = 0; ///< cycles where the bandwidth
                                      ///< budget capped the advance
};

/** Full result of one scheduling pass. */
struct ScheduleResult
{
    ScheduleStats stats;
    std::vector<ScheduledOp> ops; ///< empty unless recording enabled
};

/**
 * Pending elements of a slot grid, one bitmap per temporal step: bit s
 * of step t is set while slot s holds an unexecuted element at step t.
 * A slot executes its elements in step order (the hardware's priority
 * encoders scan in stream order), so its head is its lowest set step.
 * The memory is borrowed; the engine clears bits as it executes them.
 */
struct PendingSteps
{
    SlotGrid grid;
    std::uint64_t *bits = nullptr; ///< grid.steps rows of slotWords()

    std::uint64_t *
    step(std::int64_t t) const
    {
        return bits + t * grid.slotWords();
    }
};

/**
 * Owning pending-element set for tests and external callers: elements
 * are pushed per slot in increasing step order, as a hardware stream
 * would deliver them.  The hot builders fill PendingSteps in the work
 * arena instead.
 */
class SlotQueues
{
  public:
    explicit SlotQueues(const SlotGrid &grid)
        : grid_(grid),
          bits_(static_cast<std::size_t>(grid.steps * grid.slotWords())),
          last_(static_cast<std::size_t>(grid.slots()), -1)
    {
    }

    const SlotGrid &grid() const { return grid_; }

    void
    push(std::int64_t step, int lane, int row, int col)
    {
        GRIFFIN_ASSERT(step >= 0 && step < grid_.steps,
                       "step ", step, " outside grid of ", grid_.steps);
        const std::int64_t s = grid_.slotIndex(lane, row, col);
        auto &last = last_[static_cast<std::size_t>(s)];
        GRIFFIN_ASSERT(last < step,
                       "elements must be pushed in increasing step "
                       "order per slot");
        last = step;
        bits_[static_cast<std::size_t>(step * grid_.slotWords() +
                                       (s >> 6))] |= std::uint64_t{1}
                                                     << (s & 63);
        ++total_;
    }

    std::int64_t totalElements() const { return total_; }

    /** The pending bitmaps, laid out as PendingSteps::bits. */
    const std::vector<std::uint64_t> &bits() const { return bits_; }

  private:
    SlotGrid grid_;
    std::vector<std::uint64_t> bits_;
    std::vector<std::int64_t> last_;
    std::int64_t total_ = 0;
};

} // namespace griffin

#endif // GRIFFIN_SCHED_SCHEDULE_HH
