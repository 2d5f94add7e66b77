#include "sched/window_scheduler.hh"

#include <algorithm>

#include "simd/occupancy.hh"

namespace griffin {

namespace {

bool
hasBit(const std::uint64_t *m, std::int64_t s)
{
    return (m[s >> 6] >> (s & 63) & 1u) != 0;
}

} // namespace

ScheduleResult
runWindowSchedule(const PendingSteps &pending, const BorrowWindow &window,
                  bool record)
{
    const SlotGrid &grid = pending.grid;
    GRIFFIN_ASSERT(window.steps >= 1, "window of ", window.steps,
                   " steps");
    GRIFFIN_ASSERT(window.advanceCap > 0.0,
                   "advance cap must be positive");
    GRIFFIN_ASSERT(window.budgetCeiling >= 1.0,
                   "budget ceiling below one step cost");
    GRIFFIN_ASSERT(window.laneDist >= 0 && window.rowDist >= 0 &&
                   window.colDist >= 0, "negative borrow distance");

    const std::int64_t nslots = grid.slots();
    const int words = grid.slotWords();
    ScheduleResult result;
    std::int64_t remaining = 0;
    for (std::int64_t i = 0; i < grid.steps * words; ++i)
        remaining += simd::popcount64(pending.bits[i]);
    if (remaining == 0)
        return result;
    if (record)
        result.ops.reserve(static_cast<std::size_t>(remaining));

    Arena &arena = workArena();
    ArenaScope scope(arena);
    // Per-cycle scratch: the slots seen so far in the window walk, the
    // slots that executed their own head, the slots that can still
    // lend (a pending element left in the window), and — to record
    // which step each own head came from — the heads taken per step.
    auto *seen = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    auto *own = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    auto *lend = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    auto *ran = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(window.steps) * words);

    // Steal offsets in lexicographic (dl, dr, dc) priority, each as a
    // flat slot delta plus the bitmap of consumer slots whose source
    // lies inside the grid.
    const auto offsets = static_cast<std::size_t>(
        (window.laneDist + 1) * (window.rowDist + 1) *
            (window.colDist + 1) -
        1);
    std::vector<std::int64_t> deltas;
    auto *reach = arena.allocZeroed<std::uint64_t>(offsets * words);
    auto *cand = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words));
    for (int dl = 0; dl <= window.laneDist; ++dl) {
        for (int dr = 0; dr <= window.rowDist; ++dr) {
            for (int dc = 0; dc <= window.colDist; ++dc) {
                if (!(dl || dr || dc))
                    continue;
                std::uint64_t *m = reach + deltas.size() * words;
                deltas.push_back(
                    dl + static_cast<std::int64_t>(dr) * grid.lanes +
                    static_cast<std::int64_t>(dc) * grid.lanes *
                        grid.rows);
                for (std::int64_t s = 0; s < nslots; ++s) {
                    const std::int64_t rest = s / grid.lanes;
                    if (s % grid.lanes + dl < grid.lanes &&
                        rest % grid.rows + dr < grid.rows &&
                        rest / grid.rows + dc < grid.cols)
                        m[s >> 6] |= std::uint64_t{1} << (s & 63);
                }
            }
        }
    }

    const auto live = [&](std::int64_t t) {
        const std::uint64_t *p = pending.step(t);
        for (int i = 0; i < words; ++i)
            if (p[i] != 0)
                return true;
        return false;
    };
    // Earliest step with a pending element: it only moves forward, and
    // the window tail never passes it, so the walk can start there.
    std::int64_t first_live = 0;
    while (!live(first_live))
        ++first_live;

    const std::int64_t w_limit = window.steps; // max step advance/cycle
    std::int64_t w = 0;
    // The first window's worth of operands is loaded during pipeline
    // fill (accounted by the tile simulator), so the streaming budget
    // starts empty and accrues advanceCap per cycle.
    double budget = 0.0;

    // Advancing the window base from w to w+1 brings step w+W into
    // residence; that is the data that must stream in, one step cost.
    // Past the end of the grid nothing enters, so draining the tail is
    // free.
    auto entering_cost = [&](std::int64_t base) -> double {
        return base + window.steps < grid.steps ? 1.0 : 0.0;
    };

    struct Coord
    {
        int lane, row, col;
    };
    const auto coord = [&](std::int64_t s) {
        const std::int64_t rest = s / grid.lanes;
        return Coord{static_cast<int>(s % grid.lanes),
                     static_cast<int>(rest % grid.rows),
                     static_cast<int>(rest / grid.rows)};
    };
    const auto emit = [&](std::int64_t step, const Coord &src,
                          const Coord &con) {
        result.ops.push_back({step, src.lane, src.row, src.col, con.lane,
                              con.row, con.col,
                              result.stats.cycles - 1});
    };

    while (remaining > 0) {
        ++result.stats.cycles;
        const std::int64_t first = first_live;
        const std::int64_t end =
            std::min(w + window.steps, grid.steps);

        // Pass 1: walking the window's steps in order, `p & ~seen` are
        // the slots whose head sits at step t; each executes it.  What
        // stays pending in the window afterwards is the lenders' set.
        std::fill(seen, seen + words, 0);
        std::fill(own, own + words, 0);
        std::fill(lend, lend + words, 0);
        for (std::int64_t t = first; t < end; ++t) {
            std::uint64_t *p = pending.step(t);
            std::uint64_t *r = ran + (t - first) * words;
            for (int i = 0; i < words; ++i) {
                const std::uint64_t heads = p[i] & ~seen[i];
                seen[i] |= p[i];
                p[i] &= ~heads;
                r[i] = heads;
                own[i] |= heads;
                lend[i] |= p[i];
            }
        }
        std::int64_t consumed = 0;
        std::int64_t lenders = 0;
        for (int i = 0; i < words; ++i) {
            consumed += simd::popcount64(own[i]);
            lenders += simd::popcount64(lend[i]);
        }
        result.stats.ops += consumed;
        result.stats.ownOps += consumed;
        if (record) {
            // Ascending slot index is ascending (col, row, lane).
            for (int i = 0; i < words; ++i) {
                std::uint64_t word = own[i];
                while (word != 0) {
                    const int bit = simd::ctz64(word);
                    word &= word - 1;
                    std::int64_t d = 0;
                    while ((ran[d * words + i] >> bit & 1u) == 0)
                        ++d;
                    const auto c = coord(i * 64 + bit);
                    emit(first + d, c, c);
                }
            }
        }

        // Pass 2: idle slots steal the earliest pending element of a
        // neighbour, scanning offsets in fixed priority order.  Only
        // slots busy in pass 1 can lend (an idle slot has nothing in
        // the window), so idle = ~own, and an idle slot none of whose
        // offsets reaches a lender now never will this cycle.
        if (!deltas.empty() && lenders > 0) {
            std::fill(cand, cand + words, 0);
            for (std::size_t k = 0; k < deltas.size(); ++k) {
                const std::uint64_t *m = reach + k * words;
                const auto q = static_cast<int>(deltas[k] >> 6);
                const int r = static_cast<int>(deltas[k] & 63);
                for (int i = 0; i + q < words; ++i) {
                    // Bit s of the shifted set is lend bit s + delta.
                    std::uint64_t shifted = lend[i + q] >> r;
                    if (r != 0 && i + q + 1 < words)
                        shifted |= lend[i + q + 1] << (64 - r);
                    cand[i] |= shifted & m[i];
                }
            }
            for (int i = 0; i < words && lenders > 0; ++i) {
                std::uint64_t idle = cand[i] & ~own[i];
                while (idle != 0 && lenders > 0) {
                    const std::int64_t s = i * 64 + simd::ctz64(idle);
                    idle &= idle - 1;
                    for (std::size_t k = 0; k < deltas.size(); ++k) {
                        const std::int64_t src = s + deltas[k];
                        if (!hasBit(reach + k * words, s) ||
                            !hasBit(lend, src))
                            continue;
                        std::int64_t t = first;
                        while (!hasBit(pending.step(t), src))
                            ++t;
                        pending.step(t)[src >> 6] &=
                            ~(std::uint64_t{1} << (src & 63));
                        if (record)
                            emit(t, coord(src), coord(s));
                        do
                            ++t;
                        while (t < end && !hasBit(pending.step(t), src));
                        if (t == end) {
                            lend[src >> 6] &=
                                ~(std::uint64_t{1} << (src & 63));
                            --lenders;
                        }
                        ++consumed;
                        ++result.stats.ops;
                        ++result.stats.stolenOps;
                        break;
                    }
                }
            }
        }

        remaining -= consumed;
        result.stats.idleSlotCycles += nslots - consumed;
        if (remaining == 0)
            break;

        // Advance the window tail toward the earliest outstanding
        // element, bounded by buffer turnover (window depth) and the
        // SRAM bandwidth budget.
        while (!live(first_live))
            ++first_live;

        budget = std::min(budget + window.advanceCap,
                          window.budgetCeiling);
        std::int64_t advanced = 0;
        bool bw_limited = false;
        while (w < first_live && advanced < w_limit) {
            const double c = entering_cost(w);
            if (budget >= c) {
                budget -= c;
                ++w;
                ++advanced;
            } else {
                bw_limited = true;
                break;
            }
        }
        if (bw_limited)
            ++result.stats.bwLimitedCycles;
    }

    return result;
}

ScheduleResult
runWindowSchedule(const SlotQueues &queues, const BorrowWindow &window,
                  bool record)
{
    Arena &arena = workArena();
    ArenaScope scope(arena);
    const auto &bits = queues.bits();
    PendingSteps pending;
    pending.grid = queues.grid();
    pending.bits = arena.alloc<std::uint64_t>(bits.size());
    std::copy(bits.begin(), bits.end(), pending.bits);
    return runWindowSchedule(pending, window, record);
}

const int *
shuffleTable(const Shuffler &shuffler, int lanes, Arena &arena)
{
    GRIFFIN_ASSERT(shuffler.lanes() == lanes, "shuffler is ",
                   shuffler.lanes(), " lanes wide, tile ", lanes);
    auto *table = arena.alloc<int>(
        static_cast<std::size_t>(shuffler.period() * lanes));
    for (int r = 0; r < shuffler.period(); ++r)
        for (int k2 = 0; k2 < lanes; ++k2)
            table[r * lanes + k2] = shuffler.apply(r, k2);
    return table;
}

PendingSteps
unitLanePending(const std::uint64_t *occ, const SlotGrid &grid,
                const Shuffler &shuffler, Arena &arena)
{
    PendingSteps pending;
    pending.grid = grid;
    pending.bits = arena.allocZeroed<std::uint64_t>(
        static_cast<std::size_t>(grid.steps * grid.slotWords()));
    const int *lane_of = shuffleTable(shuffler, grid.lanes, arena);
    for (std::int64_t k1 = 0; k1 < grid.steps; ++k1) {
        std::uint64_t *p = pending.step(k1);
        const int *perm = lane_of + k1 % shuffler.period() * grid.lanes;
        for (int k2 = 0; k2 < grid.lanes; ++k2) {
            std::uint64_t word = occ[k1 * grid.lanes + k2];
            while (word != 0) {
                const int bit = simd::ctz64(word) * grid.lanes + perm[k2];
                word &= word - 1;
                p[bit >> 6] |= std::uint64_t{1} << (bit & 63);
            }
        }
    }
    return pending;
}

} // namespace griffin
