#include "sched/dual_scheduler.hh"

#include <algorithm>

#include "common/arena.hh"
#include "sched/window_scheduler.hh"
#include "simd/occupancy.hh"

namespace griffin {

namespace {

/**
 * Spread table for the stream-slice build: entry `mask` holds, for a
 * lane-0 element whose A occupancy is `mask`, the column-mask words
 * with bit m * lanes set for every row m in `mask`.  Shifting left by
 * the lane index places the element's pairs at m * lanes + l; the
 * shift never crosses a word because lanes divide 64.  Null when the
 * geometry does not allow it (rows > 8 or lanes not dividing 64).
 */
std::uint64_t *
buildSpreadTable(Arena &arena, int rows, int lanes, int words)
{
    if (rows > 8 || 64 % lanes != 0)
        return nullptr;
    const std::size_t masks = std::size_t{1} << rows;
    auto *table = arena.allocZeroed<std::uint64_t>(
        masks * static_cast<std::size_t>(words));
    for (std::size_t mask = 1; mask < masks; ++mask) {
        for (int m = 0; m < rows; ++m) {
            if ((mask >> m & 1u) == 0)
                continue;
            const int bit = m * lanes;
            table[mask * static_cast<std::size_t>(words) +
                  static_cast<std::size_t>(bit >> 6)] |=
                std::uint64_t{1} << (bit & 63);
        }
    }
    return table;
}

/**
 * Asynchronous two-level engine for preprocessed dual sparsity.
 *
 * Each PE column owns a BBUF of (1 + da1) compressed entries of its
 * own stream slice and advances it independently — this is the whole
 * point of the dual design's per-PE control (Fig. 3) and what lets the
 * measured speedup compound across both tensors.  Columns are coupled
 * only through the shared ABUF: the raw A steps every column currently
 * references must fit in a (1+da1)(1+db1)-step residency window, whose
 * leading edge streams in at the ASRAM bandwidth.
 *
 * State is one pending-pair bitmap per (stream entry c, column j):
 * bit m * lanes + l of pend(c, j) is set while the pair of stream
 * element (c, l, j) with A row m is unexecuted (Fig. 3 steps 2-3: a
 * pair exists only where the stream has an element *and* the matching
 * A operand is nonzero).  A slot (l, m) consumes its pairs in entry
 * order, so its head is its first pending entry.  Each cycle a column
 * looks only at the entries of its BBUF window: walking them in order,
 * `pend & ~seen` is the set of slots whose head sits at that entry,
 * and those heads execute when the entry's raw span is resident.
 *
 * Within a column, idle lanes steal across da2 lanes / da3 rows
 * (cross-column routing was already consumed by stage-1 packing): a
 * slot that just executed lends its next head when that head is also
 * inside the window and resident.
 */
DualSchedule
schedulePreprocessed(const TileViewA &a, const RoutingConfig &cfg,
                     const BSchedule &stream, double advance_cap,
                     bool record)
{
    const int k0 = a.lanes();
    const int lanes = stream.lanes();
    const int rows = a.units();
    const int cols = stream.cols();
    const std::int64_t entries = stream.cycles();
    const int bbuf_depth = 1 + cfg.a.d1;
    const std::int64_t abuf_raw_depth =
        static_cast<std::int64_t>(1 + cfg.a.d1) * (1 + cfg.b.d1);

    DualSchedule out;
    out.stage1 = stream.stats();
    if (entries == 0)
        return out;

    Arena &arena = workArena();
    ArenaScope scope(arena);

    // The A tile's occupancy masks (bit m of occA[flat k]) give every
    // stream element its surviving pairs in one load.  occA[-1] is
    // zero, so the -1 of an empty stream slot needs no branch.
    const std::int64_t flat_steps = a.steps() * k0;
    auto *occA = arena.alloc<std::uint64_t>(
                     static_cast<std::size_t>(flat_steps + 1)) +
                 1;
    occA[-1] = 0;
    simd::aTileOccupancy(a.matrix(), a.unitBase(), rows, a.steps(), k0,
                         occA);

    const int col_slots = rows * lanes;
    const int words = (col_slots + 63) / 64;
    const std::int64_t nslots =
        static_cast<std::int64_t>(col_slots) * cols;
    auto *pend = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(entries * cols * words));
    const auto pend_at = [&](std::int64_t c, int j) {
        return pend + (c * cols + j) * words;
    };
    const std::uint64_t *spread =
        buildSpreadTable(arena, rows, lanes, words);
    for (std::int64_t c = 0; c < entries; ++c) {
        for (int j = 0; j < cols; ++j) {
            const std::int64_t *slice = stream.flatKLanes(c, j);
            std::uint64_t *p = pend_at(c, j);
            if (spread != nullptr) {
                for (int w = 0; w < words; ++w) {
                    std::uint64_t acc = 0;
                    for (int l = 0; l < lanes; ++l)
                        acc |= spread[occA[slice[l]] * words + w] << l;
                    p[w] = acc;
                }
            } else {
                std::fill(p, p + words, 0);
                for (int l = 0; l < lanes; ++l) {
                    std::uint64_t mask = occA[slice[l]];
                    while (mask != 0) {
                        const int bit = simd::ctz64(mask) * lanes + l;
                        mask &= mask - 1;
                        p[bit >> 6] |= std::uint64_t{1} << (bit & 63);
                    }
                }
            }
            for (int w = 0; w < words; ++w)
                out.effectualPairs += simd::popcount64(p[w]);
        }
    }
    if (out.effectualPairs == 0)
        return out;

    // Per-column stream pointers (first entry with a pending pair),
    // shared raw window.
    const auto live = [&](std::int64_t c, int j) {
        const std::uint64_t *p = pend_at(c, j);
        for (int w = 0; w < words; ++w)
            if (p[w] != 0)
                return true;
        return false;
    };
    auto *head =
        arena.allocZeroed<std::int64_t>(static_cast<std::size_t>(cols));
    auto skip_drained = [&](int j) {
        auto &p = head[j];
        while (p < entries && !live(p, j))
            ++p;
    };
    for (int j = 0; j < cols; ++j)
        skip_drained(j);

    const std::int64_t max_raw = stream.rawEnd(entries - 1);
    std::int64_t frontier =
        std::min<std::int64_t>(abuf_raw_depth - 1, max_raw);
    double bw_budget = 0.0;

    struct Offset { int dl, dr, delta; };
    std::vector<Offset> steals;
    for (int dl = 0; dl <= cfg.a.d2; ++dl)
        for (int dr = 0; dr <= cfg.a.d3; ++dr)
            if (dl || dr)
                steals.push_back({dl, dr, dl + dr * lanes});

    // Per-column scratch: the slots seen so far in the window walk,
    // the heads executed at each window entry, and the slots that
    // executed this cycle and can still lend their next head.
    auto *seen = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    auto *ran = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(bbuf_depth * words));
    auto *own = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    auto *lend = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    const std::int64_t *raw_hi = stream.rawHiData();
    const auto has = [](const std::uint64_t *m, int s) {
        return (m[s >> 6] >> (s & 63) & 1u) != 0;
    };

    std::int64_t left = out.effectualPairs;
    auto &st = out.stage2;
    while (left > 0) {
        ++st.cycles;
        std::int64_t consumed_now = 0;

        for (int j = 0; j < cols; ++j) {
            const std::int64_t first = head[j];
            if (first >= entries)
                continue;
            const int depth = static_cast<int>(
                std::min<std::int64_t>(bbuf_depth, entries - first));
            // An entry's heads are executable when its raw span has
            // streamed into the ABUF.
            const auto resident = [&](std::int64_t c) {
                return raw_hi[static_cast<std::size_t>(c * cols + j)] <=
                       frontier;
            };
            auto emit = [&](std::int64_t e, int local) {
                const int src_lane = local % lanes;
                const auto flat_k = stream.flatK(e, src_lane, j);
                out.ops.push_back({flat_k, local / lanes,
                                   stream.homeCol(e, src_lane, j),
                                   st.cycles - 1});
            };

            // Pass 1: every slot whose head is in the window and
            // resident executes it.
            std::fill(seen, seen + words, 0);
            std::fill(own, own + words, 0);
            for (int d = 0; d < depth; ++d) {
                std::uint64_t *p = pend_at(first + d, j);
                std::uint64_t *r = ran + d * words;
                const bool ok = resident(first + d);
                for (int w = 0; w < words; ++w) {
                    const std::uint64_t heads = p[w] & ~seen[w];
                    seen[w] |= p[w];
                    r[w] = ok ? heads : 0;
                    p[w] &= ~r[w];
                    own[w] |= r[w];
                }
            }
            std::int64_t own_ops = 0;
            for (int w = 0; w < words; ++w)
                own_ops += simd::popcount64(own[w]);
            if (own_ops == 0)
                continue; // idle slots tallied once per cycle below
            st.ops += own_ops;
            st.ownOps += own_ops;
            left -= own_ops;
            consumed_now += own_ops;
            if (record) {
                // Ascending local slot index is ascending (m, l).
                for (int w = 0; w < words; ++w) {
                    std::uint64_t word = own[w];
                    while (word != 0) {
                        const int bit = simd::ctz64(word);
                        word &= word - 1;
                        int d = 0;
                        while ((ran[d * words + w] >> bit & 1u) == 0)
                            ++d;
                        emit(first + d, w * 64 + bit);
                    }
                }
            }
            if (steals.empty())
                continue;

            // Pass 2: lane/row stealing within the column.  A slot
            // that executed lends while its new head is in the window
            // and resident.
            std::fill(seen, seen + words, 0);
            std::fill(lend, lend + words, 0);
            for (int d = 0; d < depth; ++d) {
                const std::uint64_t *p = pend_at(first + d, j);
                const bool ok = resident(first + d);
                for (int w = 0; w < words; ++w) {
                    if (ok)
                        lend[w] |= p[w] & ~seen[w] & own[w];
                    seen[w] |= p[w];
                }
            }
            std::int64_t lenders = 0;
            for (int w = 0; w < words; ++w)
                lenders += simd::popcount64(lend[w]);
            for (int w = 0; w < words && lenders > 0; ++w) {
                // Bits past col_slots in the last word fail the row
                // bound below.
                std::uint64_t idle = ~own[w];
                while (idle != 0 && lenders > 0) {
                    const int bit = simd::ctz64(idle);
                    idle &= idle - 1;
                    const int local = w * 64 + bit;
                    const int l = local % lanes;
                    const int m = local / lanes;
                    for (const auto &off : steals) {
                        if (l + off.dl >= lanes || m + off.dr >= rows)
                            continue;
                        const int src = local + off.delta;
                        if (!has(lend, src))
                            continue;
                        // Take the lender's head, then find its next
                        // pending entry in the window.
                        const std::uint64_t sbit = std::uint64_t{1}
                                                   << (src & 63);
                        int d = 0;
                        while (!has(pend_at(first + d, j), src))
                            ++d;
                        pend_at(first + d, j)[src >> 6] &= ~sbit;
                        if (record)
                            emit(first + d, src);
                        ++d;
                        while (d < depth &&
                               !has(pend_at(first + d, j), src))
                            ++d;
                        if (d == depth || !resident(first + d)) {
                            lend[src >> 6] &= ~sbit;
                            --lenders;
                        }
                        --left;
                        ++consumed_now;
                        ++st.ops;
                        ++st.stolenOps;
                        break;
                    }
                }
            }
        }
        st.idleSlotCycles += nslots - consumed_now;
        if (left == 0)
            break;

        // Retire drained entries per column, then slide the shared raw
        // window: the tail is the lowest raw step any column's oldest
        // live entry still needs; the frontier streams forward at the
        // ASRAM rate into the remaining ABUF capacity.
        std::int64_t tail = max_raw;
        for (int j = 0; j < cols; ++j) {
            skip_drained(j);
            const auto p = head[j];
            if (p < entries) {
                const auto lo = stream.rawLo(p, j);
                if (lo >= 0)
                    tail = std::min(tail, lo);
            }
        }
        bw_budget += advance_cap;
        bool limited = false;
        while (frontier < max_raw &&
               frontier < tail + abuf_raw_depth - 1) {
            if (bw_budget >= 1.0) {
                bw_budget -= 1.0;
                ++frontier;
            } else {
                limited = true;
                break;
            }
        }
        if (limited)
            ++st.bwLimitedCycles;
        bw_budget = std::min(bw_budget,
                             static_cast<double>(abuf_raw_depth));
    }
    out.cycles = st.cycles;
    return out;
}

DualSchedule
scheduleOnTheFly(const TileViewA &a, const TileViewB &b,
                 const RoutingConfig &cfg, const Shuffler &shuffler,
                 double advance_cap, bool record)
{
    GRIFFIN_ASSERT(a.steps() == b.steps(),
                   "A tile has ", a.steps(), " steps, B tile ",
                   b.steps());
    SlotGrid grid;
    grid.steps = a.steps();
    grid.lanes = a.lanes();
    grid.rows = a.units();
    grid.cols = b.units();

    // Pairwise occupancy: a slot holds an element at step k1 exactly
    // when both the A mask (bit m) and the B mask (bit j) are set at
    // that flat k.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const std::int64_t flat = grid.steps * grid.lanes;
    auto *occA =
        arena.alloc<std::uint64_t>(static_cast<std::size_t>(flat));
    auto *occB =
        arena.alloc<std::uint64_t>(static_cast<std::size_t>(flat));
    simd::aTileOccupancy(a.matrix(), a.unitBase(), grid.rows,
                         grid.steps, grid.lanes, occA);
    simd::bTileOccupancy(b.matrix(), b.unitBase(), grid.cols,
                         grid.steps, grid.lanes, occB);

    PendingSteps pending;
    pending.grid = grid;
    pending.bits = arena.allocZeroed<std::uint64_t>(
        static_cast<std::size_t>(grid.steps * grid.slotWords()));
    const int *lane_of = shuffleTable(shuffler, grid.lanes, arena);
    for (std::int64_t f = 0; f < flat; ++f) {
        if (occA[f] == 0 || occB[f] == 0)
            continue;
        const std::int64_t k1 = f / grid.lanes;
        const int lane = lane_of[k1 % shuffler.period() * grid.lanes +
                                 f % grid.lanes];
        std::uint64_t *p = pending.step(k1);
        std::uint64_t mask_b = occB[f];
        while (mask_b != 0) {
            const std::int64_t col_base =
                static_cast<std::int64_t>(simd::ctz64(mask_b)) * grid.rows;
            mask_b &= mask_b - 1;
            std::uint64_t mask_a = occA[f];
            while (mask_a != 0) {
                // slotIndex(lane, m, j), unchecked.
                const std::int64_t bit =
                    (col_base + simd::ctz64(mask_a)) * grid.lanes + lane;
                mask_a &= mask_a - 1;
                p[bit >> 6] |= std::uint64_t{1} << (bit & 63);
            }
        }
    }

    DualSchedule out;

    BorrowWindow window;
    window.steps = 1 + std::min(cfg.a.d1, cfg.b.d1);
    window.laneDist = cfg.a.d2 + cfg.b.d2;
    window.rowDist = cfg.a.d3;
    window.colDist = cfg.b.d3;
    window.advanceCap =
        std::min(advance_cap, static_cast<double>(window.steps));
    window.budgetCeiling = window.steps;

    auto result = runWindowSchedule(pending, window, record);
    out.effectualPairs = result.stats.ops;
    out.cycles = result.stats.cycles;
    out.stage2 = result.stats;
    if (record) {
        out.ops.reserve(result.ops.size());
        for (const auto &op : result.ops) {
            const int orig_k2 = shuffler.invert(op.step, op.lane);
            out.ops.push_back({op.step * grid.lanes + orig_k2, op.row,
                               op.col, op.cycle});
        }
    }
    return out;
}

} // namespace

DualSchedule
scheduleDual(const TileViewA &a, const TileViewB &b,
             const RoutingConfig &cfg, const Shuffler &shuffler,
             const BSchedule *b_stream, double advance_cap, bool record)
{
    GRIFFIN_ASSERT(cfg.mode == SparsityMode::AB,
                   "scheduleDual needs a Sparse.AB config, got ",
                   cfg.str());
    GRIFFIN_ASSERT(advance_cap > 0.0, "non-positive advance cap");
    if (cfg.preprocessB) {
        GRIFFIN_ASSERT(b_stream != nullptr,
                       "preprocessed dual scheduling needs the B "
                       "stream");
        return schedulePreprocessed(a, cfg, *b_stream, advance_cap,
                                    record);
    }
    return scheduleOnTheFly(a, b, cfg, shuffler, advance_cap, record);
}

} // namespace griffin
