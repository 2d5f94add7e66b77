/**
 * @file
 * Offline preprocessing of the weight matrix B (paper Fig. 2(a,b) and
 * step 1 of Fig. 3).
 *
 * B is known before execution, so its zeros are removed offline: the
 * window scheduler packs nonzero elements into a *compressed stream*
 * of (cycle, lane, column) entries, each carrying metadata that tells
 * the AMUX which A operand to pair with and — when the element was
 * borrowed across columns — which accumulator the partial product
 * belongs to.
 *
 * The compressed stream is what lands in BSRAM: `dataBytes()` nonzero
 * values plus `metadataBytes()` of routing bits, typically far smaller
 * than the dense tile.
 */

#ifndef GRIFFIN_SCHED_B_PREPROCESS_HH
#define GRIFFIN_SCHED_B_PREPROCESS_HH

#include <cstdint>
#include <vector>

#include "arch/routing.hh"
#include "sched/schedule.hh"
#include "tensor/shuffle.hh"
#include "tensor/tile.hh"

namespace griffin {

/**
 * The compressed form of one B tile: a dense (cycle x lane x column)
 * table of scheduled elements, -1 where a slot is empty.
 */
class BSchedule
{
  public:
    BSchedule() = default;

    std::int64_t cycles() const { return cycles_; }
    int lanes() const { return lanes_; }
    int cols() const { return cols_; }

    /** Flat original k index of the element at a stream slot; -1 if
     *  the slot is empty. */
    std::int64_t
    flatK(std::int64_t cycle, int lane, int col) const
    {
        return flatk_[index(cycle, lane, col)];
    }

    /** Original output column of the element (ADT routing target). */
    int
    homeCol(std::int64_t cycle, int lane, int col) const
    {
        return homecol_[index(cycle, lane, col)];
    }

    /** Scheduling statistics of the packing pass. */
    const ScheduleStats &stats() const { return stats_; }

    /** Recorded packing ops (only when built with record = true). */
    const std::vector<ScheduledOp> &ops() const { return ops_; }

    /** Number of nonzero elements in the stream. */
    std::int64_t scheduledElems() const { return elems_; }

    /**
     * Raw-step frontier: highest original k1 any entry up to and
     * including `cycle` needs, cumulative.  Drives the A-stream cost
     * model of dual-sparse stage 2.
     */
    std::int64_t rawEnd(std::int64_t cycle) const
    {
        return raw_end_[static_cast<std::size_t>(cycle)];
    }

    /**
     * Per-column raw extent of one stream entry: the lowest / highest
     * original k1 among the elements column `col` holds at `cycle`,
     * or -1 when that column's slice of the entry is empty.  The
     * asynchronous dual-sparse engine uses these to enforce the shared
     * ABUF residency window across independently advancing columns.
     */
    std::int64_t
    rawLo(std::int64_t cycle, int col) const
    {
        return raw_lo_[colIndex(cycle, col)];
    }

    std::int64_t
    rawHi(std::int64_t cycle, int col) const
    {
        return raw_hi_[colIndex(cycle, col)];
    }

    /**
     * Contiguous per-lane flat-k span of one (cycle, col) stream slice
     * — `lanes()` values, -1 on empty slots.  The dual-sparse engine
     * walks whole slices; this keeps the range check per slice rather
     * than per element.
     */
    const std::int64_t *
    flatKLanes(std::int64_t cycle, int col) const
    {
        return flatk_.data() + index(cycle, 0, col);
    }

    /**
     * Flat raw-extent tables indexed `cycle * cols() + col` — the bulk
     * counterpart of rawLo()/rawHi() for the engine's per-cycle
     * eligibility filter.
     */
    const std::int64_t *rawLoData() const { return raw_lo_.data(); }
    const std::int64_t *rawHiData() const { return raw_hi_.data(); }

    /** Streaming cost of each compressed entry in raw A steps. */
    std::vector<std::int64_t> stepCosts() const;

    /** Compressed payload size: one INT8 per scheduled element. */
    std::int64_t dataBytes() const { return elems_; }

    /** Metadata size at the given bits-per-element rate. */
    std::int64_t
    metadataBytes(int bits_per_elem) const
    {
        return (elems_ * bits_per_elem + 7) / 8;
    }

    /**
     * Approximate resident footprint of this schedule (stream tables
     * plus raw-extent indices): the unit of the schedule memo's
     * residentBytes counter.
     */
    std::size_t approxBytes() const;

  private:
    friend BSchedule preprocessB(const TileViewB &, const Borrow &,
                                 const Shuffler &, bool);

    std::size_t
    index(std::int64_t cycle, int lane, int col) const
    {
        GRIFFIN_ASSERT(cycle >= 0 && cycle < cycles_ && lane >= 0 &&
                       lane < lanes_ && col >= 0 && col < cols_,
                       "stream slot (", cycle, ",", lane, ",", col,
                       ") out of range");
        return static_cast<std::size_t>((cycle * cols_ + col) * lanes_ +
                                        lane);
    }

    std::size_t
    colIndex(std::int64_t cycle, int col) const
    {
        GRIFFIN_ASSERT(cycle >= 0 && cycle < cycles_ && col >= 0 &&
                       col < cols_,
                       "stream entry (", cycle, ",", col,
                       ") out of range");
        return static_cast<std::size_t>(cycle * cols_ + col);
    }

    std::int64_t cycles_ = 0;
    int lanes_ = 0;
    int cols_ = 0;
    std::int64_t elems_ = 0;
    ScheduleStats stats_;
    std::vector<std::int64_t> flatk_;
    std::vector<std::int16_t> homecol_;
    std::vector<std::int64_t> raw_end_;
    std::vector<std::int64_t> raw_lo_;
    std::vector<std::int64_t> raw_hi_;
    std::vector<ScheduledOp> ops_;
};

/**
 * Pack one B tile into its compressed stream under the (db1,db2,db3)
 * borrow window.  Preprocessing is offline, so no bandwidth cap
 * applies — the window depth itself is the only packing limit.
 *
 * @param record keep the raw packing ops for verification
 */
BSchedule preprocessB(const TileViewB &b, const Borrow &db,
                      const Shuffler &shuffler, bool record);

} // namespace griffin

#endif // GRIFFIN_SCHED_B_PREPROCESS_HH
