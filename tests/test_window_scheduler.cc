/**
 * @file
 * Tests for the generic sliding-window scheduler: cycle accounting,
 * borrowing semantics, bandwidth capping, and the paper's speedup
 * bounds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "sched/a_arbiter.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sched/window_scheduler.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

/** Dense queues: every slot has an element at every step. */
SlotQueues
denseQueues(const SlotGrid &grid)
{
    SlotQueues q(grid);
    for (std::int64_t s = 0; s < grid.steps; ++s)
        for (int c = 0; c < grid.cols; ++c)
            for (int r = 0; r < grid.rows; ++r)
                for (int l = 0; l < grid.lanes; ++l)
                    q.push(s, l, r, c);
    return q;
}

BorrowWindow
window(int steps, int lane = 0, int row = 0, int col = 0)
{
    BorrowWindow w;
    w.steps = steps;
    w.laneDist = lane;
    w.rowDist = row;
    w.colDist = col;
    w.advanceCap = steps;
    w.budgetCeiling = steps;
    return w;
}

TEST(WindowScheduler, DenseTakesOneCyclePerStep)
{
    SlotGrid grid{10, 4, 1, 2};
    auto result = runWindowSchedule(denseQueues(grid), window(1), false);
    EXPECT_EQ(result.stats.cycles, 10);
    EXPECT_EQ(result.stats.ops, 10 * 4 * 2);
    EXPECT_EQ(result.stats.stolenOps, 0);
    EXPECT_EQ(result.stats.idleSlotCycles, 0);
}

TEST(WindowScheduler, DenseGainsNothingFromDeepWindow)
{
    // With every slot loaded at every step, no window depth helps.
    SlotGrid grid{10, 4, 1, 1};
    auto result =
        runWindowSchedule(denseQueues(grid), window(5, 2), false);
    EXPECT_EQ(result.stats.cycles, 10);
}

TEST(WindowScheduler, EmptyQueuesFinishInstantly)
{
    SlotGrid grid{10, 4, 1, 1};
    SlotQueues q(grid);
    auto result = runWindowSchedule(q, window(2), false);
    EXPECT_EQ(result.stats.cycles, 0);
    EXPECT_EQ(result.stats.ops, 0);
}

TEST(WindowScheduler, TimeBorrowCompressesSingleLane)
{
    // One lane, elements at even steps only (50% sparse): window of 2
    // lets each cycle take one element while the window slides 2.
    SlotGrid grid{20, 1, 1, 1};
    SlotQueues q(grid);
    for (std::int64_t s = 0; s < 20; s += 2)
        q.push(s, 0, 0, 0);
    auto dense_like = runWindowSchedule(q, window(1), false);
    // W = 1: the window must walk every step.
    EXPECT_EQ(dense_like.stats.cycles, 19); // last element is at step 18
    auto compressed = runWindowSchedule(q, window(2), false);
    EXPECT_EQ(compressed.stats.cycles, 10); // 10 elements, 1 per cycle
}

TEST(WindowScheduler, IdealSpeedupIsWindowDepth)
{
    // A fully empty stretch can be skipped at most W steps per cycle
    // (paper observation VI-A(1): max speedup = 1 + d1).
    SlotGrid grid{100, 1, 1, 1};
    SlotQueues q(grid);
    q.push(99, 0, 0, 0); // single element at the end
    for (int w = 1; w <= 5; ++w) {
        auto result = runWindowSchedule(q, window(w), false);
        // Window must advance from 0 to at least 99-(w-1), at w/cycle,
        // then one consuming cycle.
        const std::int64_t expect =
            (99 - (w - 1) + w - 1) / w + 1;
        EXPECT_EQ(result.stats.cycles, expect) << "W=" << w;
    }
}

TEST(WindowScheduler, LaneStealingBalancesLoad)
{
    // Lane 1 has 10 elements, lane 0 none.  Without lookaside the
    // window drags behind lane 1; with laneDist = 1 the idle lane 0
    // can steal forward (source = consumer + Δ).
    SlotGrid grid{10, 2, 1, 1};
    SlotQueues q(grid);
    for (std::int64_t s = 0; s < 10; ++s)
        q.push(s, 1, 0, 0);
    auto alone = runWindowSchedule(q, window(4, 0), false);
    EXPECT_EQ(alone.stats.cycles, 10); // one per cycle from lane 1
    auto helped = runWindowSchedule(q, window(4, 1), false);
    EXPECT_EQ(helped.stats.cycles, 5); // two per cycle
    EXPECT_EQ(helped.stats.stolenOps, 5);
}

TEST(WindowScheduler, StealingIsForwardOnly)
{
    // Loaded lane 1 cannot be helped by lane 0 if laneDist reaches the
    // wrong way?  No: distances are forward (Δ >= 0), so lane 0 *can*
    // steal from lane 1 (source = consumer + Δ).  The loaded lane
    // must be *ahead* of the idle one.
    SlotGrid grid{10, 2, 1, 1};
    SlotQueues q(grid);
    for (std::int64_t s = 0; s < 10; ++s)
        q.push(s, 1, 0, 0); // all work in lane 1
    auto result = runWindowSchedule(q, window(4, 1), false);
    EXPECT_EQ(result.stats.cycles, 5); // lane 0 steals lane 1's work
    // And the reverse: work in lane 0 cannot be reached by lane 1,
    // whose forward window (lane 1 + Δ) points outside the loaded
    // lane.  Only lane 0 drains its own queue.
    SlotQueues q2(grid);
    for (std::int64_t s = 0; s < 10; ++s)
        q2.push(s, 0, 0, 0);
    auto fwd = runWindowSchedule(q2, window(4, 1), false);
    EXPECT_EQ(fwd.stats.cycles, 10);
    EXPECT_EQ(fwd.stats.stolenOps, 0);
}

TEST(WindowScheduler, RowAndColumnStealing)
{
    // Borrowing is forward-only, so work parked in (row 1, col 1) is
    // reachable by consumers at lower coordinates.
    SlotGrid grid{8, 1, 2, 2};
    SlotQueues q2(grid);
    for (std::int64_t s = 0; s < 8; ++s)
        q2.push(s, 0, 1, 1);
    auto no_reach = runWindowSchedule(q2, window(4), false);
    EXPECT_EQ(no_reach.stats.cycles, 8);
    // rowDist = 1: slot (row 0, col 1) now also reaches (1,1).
    auto row_reach = runWindowSchedule(q2, window(4, 0, 1, 0), false);
    EXPECT_EQ(row_reach.stats.cycles, 4);
    // rowDist = colDist = 1: (0,0), (0,1), (1,0) and the owner all
    // drain heads of the same deep queue in one cycle (the window
    // exposes four eligible elements at once).
    auto both_reach = runWindowSchedule(q2, window(4, 0, 1, 1), false);
    EXPECT_EQ(both_reach.stats.cycles, 2);
}

TEST(WindowScheduler, BandwidthCapThrottlesSkipping)
{
    // 100 empty steps before the lone element; window 10 but only 1
    // step/cycle of bandwidth -> ~100 cycles to stream past.
    SlotGrid grid{101, 1, 1, 1};
    SlotQueues q(grid);
    q.push(100, 0, 0, 0);
    auto w = window(10);
    w.advanceCap = 1.0;
    w.budgetCeiling = 10.0;
    auto result = runWindowSchedule(q, w, false);
    EXPECT_GE(result.stats.cycles, 92); // 10 prefilled, 1/cycle after
    EXPECT_LE(result.stats.cycles, 101);
    EXPECT_GT(result.stats.bwLimitedCycles, 0);
}

TEST(WindowScheduler, FractionalBandwidthAccumulates)
{
    SlotGrid grid{11, 1, 1, 1};
    SlotQueues q(grid);
    q.push(10, 0, 0, 0);
    auto w = window(2);
    w.advanceCap = 0.5; // one step every two cycles
    w.budgetCeiling = 2.0;
    auto result = runWindowSchedule(q, w, false);
    // 10 steps to cover at 0.5/cycle with 2 prefilled: ~16+ cycles.
    EXPECT_GE(result.stats.cycles, 16);
    EXPECT_LE(result.stats.cycles, 21);
}

TEST(WindowScheduler, RecordsOpsExactlyWhenAsked)
{
    SlotGrid grid{4, 2, 1, 1};
    auto q = denseQueues(grid);
    auto without = runWindowSchedule(q, window(2, 1), false);
    EXPECT_TRUE(without.ops.empty());
    auto with = runWindowSchedule(q, window(2, 1), true);
    EXPECT_EQ(static_cast<std::int64_t>(with.ops.size()),
              with.stats.ops);
    EXPECT_EQ(with.stats.ops, 8);
}

TEST(WindowScheduler, OwnPlusStolenEqualsTotal)
{
    SlotGrid grid{30, 4, 2, 2};
    SlotQueues q(grid);
    // Staggered load: lane l gets elements where (s + l) % 3 == 0.
    for (std::int64_t s = 0; s < 30; ++s)
        for (int c = 0; c < 2; ++c)
            for (int r = 0; r < 2; ++r)
                for (int l = 0; l < 4; ++l)
                    if ((s + l) % 3 == 0)
                        q.push(s, l, r, c);
    auto result = runWindowSchedule(q, window(3, 1, 1, 1), false);
    EXPECT_EQ(result.stats.ownOps + result.stats.stolenOps,
              result.stats.ops);
    EXPECT_EQ(result.stats.ops, q.totalElements());
}

TEST(WindowSchedulerDeathTest, InvalidParametersPanic)
{
    SlotGrid grid{4, 1, 1, 1};
    SlotQueues q(grid);
    q.push(0, 0, 0, 0);
    BorrowWindow w;
    w.steps = 0;
    EXPECT_DEATH(runWindowSchedule(q, w, false), "window of 0");
    w = window(2);
    w.advanceCap = 0.0;
    EXPECT_DEATH(runWindowSchedule(q, w, false), "advance cap");
}

TEST(WindowSchedulerDeathTest, QueuePushValidation)
{
    SlotGrid grid{4, 2, 1, 1};
    SlotQueues q(grid);
    EXPECT_DEATH(q.push(4, 0, 0, 0), "outside grid");
    EXPECT_DEATH(q.push(0, 2, 0, 0), "outside grid");
    q.push(2, 0, 0, 0);
    EXPECT_DEATH(q.push(1, 0, 0, 0), "increasing step order");
}

TEST(WindowSchedulerDeathTest, ShufflerNarrowerThanTilePanics)
{
    Rng rng(83);
    const TileShape shape{4, 16, 16};
    auto a = randomSparse(4, 128, 0.5, rng);
    auto b = randomSparse(128, 16, 0.5, rng);
    TileViewA va(a, shape, 0);
    TileViewB vb(b, shape, 0);
    Shuffler narrow(true, 8);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true,
                                             /*preprocess_b=*/false);
    EXPECT_DEATH(scheduleDual(va, vb, cfg, narrow, nullptr, 4.0, false),
                 "shuffler is 8 lanes wide, tile 16");
    EXPECT_DEATH(scheduleA(va, Borrow{2, 0, 0}, narrow, 3.0, false),
                 "shuffler is 8 lanes wide, tile 16");
    EXPECT_DEATH(countB(vb, Borrow{2, 0, 0}, narrow),
                 "shuffler is 8 lanes wide, tile 16");
}

// ---- pinned schedules ------------------------------------------------
//
// Exact stats and op-sequence hashes of the engine on seeded grids,
// recorded from the per-slot CSR queue engine the bitmap engine
// replaced.  Any rewrite must reproduce them bit for bit.

/** FNV-1a over every field of a recorded op sequence. */
std::uint64_t
hashOps(const std::vector<ScheduledOp> &ops)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::int64_t v) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
    };
    for (const auto &op : ops) {
        mix(op.step);
        mix(op.lane);
        mix(op.row);
        mix(op.col);
        mix(op.consumerLane);
        mix(op.consumerRow);
        mix(op.consumerCol);
        mix(op.cycle);
    }
    return h;
}

std::uint64_t
hashOps(const std::vector<DualOp> &ops)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::int64_t v) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
    };
    for (const auto &op : ops) {
        mix(op.flatK);
        mix(op.m);
        mix(op.homeCol);
        mix(op.cycle);
    }
    return h;
}

std::string
describe(const char *name, const ScheduleStats &s, std::uint64_t hash)
{
    std::ostringstream os;
    os << "actual: {" << s.cycles << ", " << s.ops << ", " << s.ownOps
       << ", " << s.stolenOps << ", " << s.idleSlotCycles << ", "
       << s.bwLimitedCycles << "}, 0x" << std::hex << hash
       << "ull} for " << name;
    return os.str();
}

void
expectStats(const ScheduleStats &got, const ScheduleStats &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.ops, want.ops);
    EXPECT_EQ(got.ownOps, want.ownOps);
    EXPECT_EQ(got.stolenOps, want.stolenOps);
    EXPECT_EQ(got.idleSlotCycles, want.idleSlotCycles);
    EXPECT_EQ(got.bwLimitedCycles, want.bwLimitedCycles);
}

/** A raw slot grid with seeded occupancy, run straight through the
 *  engine. */
struct QueuePin
{
    const char *name;
    std::uint64_t seed;
    SlotGrid grid;
    double density;      ///< chance a (step, slot) holds an element
    BorrowWindow window;
    ScheduleStats stats;
    std::uint64_t opsHash;
};

// Columns: name, seed, grid {steps, lanes, rows, cols}, density,
// window {steps, lane, row, col, advanceCap, budgetCeiling}, stats
// {cycles, ops, own, stolen, idle, bwLimited}, op hash.
const QueuePin kQueuePins[] = {
    {"q_plain", 201, {60, 4, 1, 1}, 0.4, {3, 0, 0, 0, 3.0, 3.0},
     {34, 91, 91, 0, 45, 0}, 0x5641e089e7a73a39ull},
    {"q_steal_3d", 202, {50, 4, 3, 7}, 0.35, {3, 1, 1, 1, 3.0, 3.0},
     {29, 1472, 1287, 185, 964, 0}, 0xeb88dc5f0f46fe3bull},
    {"q_frac_cap", 203, {80, 4, 2, 2}, 0.2, {4, 1, 0, 1, 1.5, 4.0},
     {52, 245, 233, 12, 587, 50}, 0xfc85ec3648ce783full},
    {"q_sparse_tail", 206, {120, 4, 4, 5}, 0.05, {2, 0, 1, 1, 2.0, 2.0},
     {62, 459, 451, 8, 4501, 0}, 0xbee34ffab36685c5ull},
};

ScheduleResult
runQueuePin(const QueuePin &pin, bool record)
{
    Rng rng(pin.seed);
    SlotQueues q(pin.grid);
    for (std::int64_t s = 0; s < pin.grid.steps; ++s)
        for (int c = 0; c < pin.grid.cols; ++c)
            for (int r = 0; r < pin.grid.rows; ++r)
                for (int l = 0; l < pin.grid.lanes; ++l)
                    if (rng.bernoulli(pin.density))
                        q.push(s, l, r, c);
    return runWindowSchedule(q, pin.window, record);
}

TEST(WindowSchedulerPinned, QueueGridsMatchRecordedValues)
{
    for (const auto &pin : kQueuePins) {
        const auto plain = runQueuePin(pin, false);
        const auto recorded = runQueuePin(pin, true);
        const auto h = hashOps(recorded.ops);
        SCOPED_TRACE(describe(pin.name, plain.stats, h));
        expectStats(plain.stats, pin.stats);
        expectStats(recorded.stats, pin.stats);
        EXPECT_EQ(h, pin.opsHash);
    }
}

/** One A tile through scheduleA at a (possibly fractional) ASRAM
 *  bandwidth. */
struct APin
{
    const char *name;
    std::uint64_t seed;
    TileShape shape;
    std::size_t k;
    double sparsity;
    int da1, da2, da3;
    bool shuffle;
    double bw;
    ScheduleStats stats;
    std::uint64_t opsHash;
};

// Columns: name, seed, shape {m0, n0, k0}, K, sparsity, da1..da3,
// shuffle, bandwidth, stats, op hash.
const APin kAPins[] = {
    {"a_da1_0", 301, {4, 16, 16}, 512, 0.5, 0, 0, 0, false, 1.0,
     {32, 1049, 1049, 0, 999, 0}, 0x23a860ab5fd9887full},
    {"a_frac_bw", 302, {4, 16, 16}, 640, 0.6, 2, 0, 0, true, 1.5,
     {30, 1030, 1030, 0, 890, 0}, 0xdca37f1aed5c63a6ull},
    {"a_steal", 303, {4, 16, 16}, 768, 0.7, 3, 1, 1, true, 2.5,
     {24, 928, 825, 103, 608, 0}, 0x20e70bc4d4f527b7ull},
    {"a_wide", 304, {8, 16, 16}, 500, 0.55, 2, 2, 1, false, 3.0,
     {21, 1815, 1582, 233, 873, 0}, 0x67ec83d0a310dab2ull},
    {"a_partial", 305, {6, 16, 12}, 333, 0.65, 1, 1, 2, true, 1.25,
     {22, 677, 637, 40, 907, 10}, 0x483f726dc9c43faull},
    {"a_low_bw", 306, {4, 16, 16}, 1024, 0.85, 4, 0, 1, true, 0.75,
     {80, 639, 635, 4, 4481, 78}, 0xb253668e60232412ull},
};

ScheduleResult
runAPin(const APin &pin, bool record)
{
    Rng rng(pin.seed);
    auto a = randomSparse(static_cast<std::size_t>(pin.shape.m0), pin.k,
                          pin.sparsity, rng);
    Shuffler sh(pin.shuffle, pin.shape.k0);
    TileViewA va(a, pin.shape, 0);
    return scheduleA(va, Borrow{pin.da1, pin.da2, pin.da3}, sh, pin.bw,
                     record);
}

TEST(WindowSchedulerPinned, AGridsMatchRecordedValues)
{
    for (const auto &pin : kAPins) {
        const auto plain = runAPin(pin, false);
        const auto recorded = runAPin(pin, true);
        const auto h = hashOps(recorded.ops);
        SCOPED_TRACE(describe(pin.name, plain.stats, h));
        expectStats(plain.stats, pin.stats);
        expectStats(recorded.stats, pin.stats);
        EXPECT_EQ(h, pin.opsHash);
    }
}

/** One B tile packed by preprocessB; `n` below the tile's col base
 *  plus n0 leaves zero-padded edge columns. */
struct BPin
{
    const char *name;
    std::uint64_t seed;
    TileShape shape;
    std::size_t k;
    std::size_t n;       ///< B columns; the tile starts at column 0
    double sparsity;
    double laneBias;     ///< laneBiasedSparse depth, period 4
    int db1, db2, db3;
    bool shuffle;
    bool zeroCols;       ///< zero every third B column
    ScheduleStats stats;
    std::uint64_t opsHash;
};

// Columns: name, seed, shape {m0, n0, k0}, K, N, sparsity, lane bias,
// db1..db3, shuffle, zero columns, stats, op hash.
const BPin kBPins[] = {
    {"b_db1_0", 401, {4, 16, 16}, 256, 16, 0.5, 0.0, 0, 0, 0, false,
     false, {16, 2014, 2014, 0, 2082, 0}, 0xba38c193c9819167ull},
    {"b_db1_1", 402, {4, 16, 16}, 300, 16, 0.6, 0.0, 1, 0, 0, true,
     false, {17, 1893, 1893, 0, 2459, 0}, 0x781020c2666373deull},
    {"b_db1_2", 403, {4, 16, 16}, 512, 16, 0.7, 0.5, 2, 1, 0, false,
     false, {24, 2439, 2282, 157, 3705, 0}, 0xf73b1217893bddfaull},
    {"b_db1_3", 404, {4, 16, 16}, 640, 16, 0.8, 0.5, 3, 0, 1, true,
     false, {20, 2075, 1922, 153, 3045, 0}, 0xf0c0f006c798997ull},
    {"b_db1_4", 405, {4, 16, 16}, 1152, 16, 0.6, 1.0, 4, 0, 1, true,
     true, {35, 4585, 3800, 785, 4375, 0}, 0x9d4e605035bbfb63ull},
    {"b_db1_5", 406, {4, 16, 16}, 777, 16, 0.9, 0.5, 5, 2, 0, false,
     true, {15, 793, 709, 84, 3047, 0}, 0xaf01d0b27a3b828full},
    {"b_db1_6", 407, {4, 16, 16}, 1024, 16, 0.75, 1.0, 6, 0, 2, true,
     false, {25, 4124, 3698, 426, 2276, 0}, 0xeb010c8678a6d654ull},
    {"b_lane_col", 408, {4, 16, 16}, 960, 16, 0.7, 1.0, 2, 2, 1, false,
     false, {45, 4622, 4115, 507, 6898, 0}, 0xf1580d82644eb0bdull},
    {"b_edge_tile", 409, {4, 16, 16}, 512, 11, 0.5, 0.5, 4, 1, 1, true,
     false, {19, 2816, 2505, 311, 2048, 0}, 0xf77cdab69e9e2015ull},
    {"b_one_word", 410, {4, 4, 16}, 384, 4, 0.6, 0.5, 2, 1, 1, true,
     true, {14, 347, 289, 58, 549, 0}, 0x74897cef75d6bb0bull},
    {"b_partial_word", 411, {4, 5, 12}, 27, 5, 0.3, 0.0, 3, 1, 1, true,
     false, {3, 97, 93, 4, 83, 0}, 0xad00e440bff7ab76ull},
    {"b_dense", 412, {4, 16, 16}, 256, 16, 0.0, 0.0, 2, 1, 1, true,
     false, {16, 4096, 4096, 0, 0, 0}, 0xe77e3bd4708ea383ull},
    {"b_empty", 413, {4, 16, 16}, 256, 16, 1.0, 0.0, 2, 1, 1, true,
     false, {0, 0, 0, 0, 0, 0}, 0x14650fb0739d0383ull},
};

struct BPinRun
{
    BSchedule plain, recorded;
};

BPinRun
runBPin(const BPin &pin)
{
    Rng rng(pin.seed);
    auto b = laneBiasedSparse(pin.k, pin.n, pin.sparsity, pin.laneBias,
                              4, rng);
    if (pin.zeroCols)
        for (std::size_t k = 0; k < pin.k; ++k)
            for (std::size_t j = 0; j < b.cols(); j += 3)
                b.at(k, j) = 0;
    Shuffler sh(pin.shuffle, pin.shape.k0);
    TileViewB vb(b, pin.shape, 0);
    const Borrow db{pin.db1, pin.db2, pin.db3};
    return {preprocessB(vb, db, sh, false), preprocessB(vb, db, sh, true)};
}

TEST(WindowSchedulerPinned, BGridsMatchRecordedValues)
{
    for (const auto &pin : kBPins) {
        const auto run = runBPin(pin);
        const auto h = hashOps(run.recorded.ops());
        SCOPED_TRACE(describe(pin.name, run.plain.stats(), h));
        expectStats(run.plain.stats(), pin.stats);
        expectStats(run.recorded.stats(), pin.stats);
        EXPECT_EQ(run.plain.cycles(), pin.stats.cycles);
        EXPECT_EQ(h, pin.opsHash);
        EXPECT_TRUE(run.plain.ops().empty());
    }
}

/** One tile pair through the on-the-fly dual path: the full
 *  M0 x N0 x K0 slot grid (1024 slots at the default shape). */
struct DualPin
{
    const char *name;
    std::uint64_t seed;
    TileShape shape;
    std::size_t k;
    double aSparsity, bSparsity;
    int da1, da2, da3, db1, db2, db3;
    bool shuffle;
    double bw;
    ScheduleStats stats;
    std::uint64_t opsHash;
};

// Columns: name, seed, shape, K, A and B sparsity, da1..da3,
// db1..db3, shuffle, bandwidth, stage-2 stats, op hash.
const DualPin kDualPins[] = {
    {"otf_plain", 501, {4, 16, 16}, 512, 0.5, 0.5, 2, 0, 0, 2, 0, 0,
     false, 3.0, {24, 7948, 7948, 0, 16628, 0}, 0x1046d598661682a8ull},
    {"otf_steal", 502, {4, 16, 16}, 768, 0.6, 0.7, 3, 1, 1, 2, 1, 1,
     true, 2.5, {22, 5842, 5362, 480, 16686, 2}, 0x7451f3938cc13627ull},
    {"otf_low_bw", 503, {4, 16, 16}, 1024, 0.7, 0.8, 4, 0, 1, 4, 1, 0,
     true, 1.5, {41, 3936, 3848, 88, 38048, 39}, 0x65b285deda2c876dull},
    {"otf_dense_a", 504, {4, 16, 16}, 256, 0.0, 0.6, 1, 1, 0, 1, 0, 1,
     false, 2.0, {12, 6516, 5972, 544, 5772, 0}, 0x8b699343408fb887ull},
    {"otf_ragged_k", 505, {4, 16, 16}, 203, 0.4, 0.4, 2, 1, 1, 3, 0, 1,
     true, 4.0, {9, 4943, 4344, 599, 4273, 0}, 0x322f23302a6ea866ull},
};

DualSchedule
runDualPin(const DualPin &pin, bool record)
{
    Rng rng(pin.seed);
    auto a = randomSparse(static_cast<std::size_t>(pin.shape.m0), pin.k,
                          pin.aSparsity, rng);
    auto b = randomSparse(pin.k, static_cast<std::size_t>(pin.shape.n0),
                          pin.bSparsity, rng);
    const auto cfg = RoutingConfig::sparseAB(
        pin.da1, pin.da2, pin.da3, pin.db1, pin.db2, pin.db3, pin.shuffle,
        /*preprocess_b=*/false);
    Shuffler sh(cfg.shuffle, pin.shape.k0);
    TileViewA va(a, pin.shape, 0);
    TileViewB vb(b, pin.shape, 0);
    return scheduleDual(va, vb, cfg, sh, nullptr, pin.bw, record);
}

TEST(WindowSchedulerPinned, OnTheFlyDualGridsMatchRecordedValues)
{
    for (const auto &pin : kDualPins) {
        const auto plain = runDualPin(pin, false);
        const auto recorded = runDualPin(pin, true);
        const auto h = hashOps(recorded.ops);
        SCOPED_TRACE(describe(pin.name, plain.stage2, h));
        expectStats(plain.stage2, pin.stats);
        expectStats(recorded.stage2, pin.stats);
        EXPECT_EQ(plain.cycles, pin.stats.cycles);
        EXPECT_EQ(plain.effectualPairs, pin.stats.ops);
        EXPECT_EQ(h, pin.opsHash);
    }
}

TEST(WindowSchedulerPinned, MatrixCoversTheEngineBranches)
{
    // A pin only guards what it exercises: stealing and bandwidth
    // limits on every caller, every B window depth 0..6, shuffle both
    // ways, multi-word and partial-word slot sets.
    bool q_frac = false, q_multi = false;
    for (const auto &pin : kQueuePins) {
        q_frac |= pin.window.advanceCap != std::floor(pin.window.advanceCap);
        q_multi |= pin.grid.slots() > 64 && pin.grid.slots() % 64 != 0;
    }
    EXPECT_TRUE(q_frac);
    EXPECT_TRUE(q_multi);

    bool a_steal = false, a_bw = false, a_multi = false;
    for (const auto &pin : kAPins) {
        a_steal |= pin.stats.stolenOps > 0;
        a_bw |= pin.stats.bwLimitedCycles > 0;
        a_multi |= pin.shape.m0 * pin.shape.k0 > 64;
    }
    EXPECT_TRUE(a_steal);
    EXPECT_TRUE(a_bw);
    EXPECT_TRUE(a_multi);

    bool db1_seen[7] = {};
    bool b_steal = false, b_shuffle[2] = {}, b_zero = false;
    bool b_edge = false, b_one_word = false, b_multi = false;
    for (const auto &pin : kBPins) {
        db1_seen[pin.db1] = true;
        b_steal |= pin.stats.stolenOps > 0;
        b_shuffle[pin.shuffle] = true;
        b_zero |= pin.zeroCols && pin.stats.ops > 0;
        b_edge |= pin.n < static_cast<std::size_t>(pin.shape.n0);
        const int slots = pin.shape.n0 * pin.shape.k0;
        b_one_word |= slots <= 64;
        b_multi |= slots > 64;
    }
    for (bool seen : db1_seen)
        EXPECT_TRUE(seen);
    EXPECT_TRUE(b_steal && b_shuffle[0] && b_shuffle[1] && b_zero);
    EXPECT_TRUE(b_edge && b_one_word && b_multi);

    bool d_steal = false, d_bw = false;
    for (const auto &pin : kDualPins) {
        EXPECT_EQ(pin.shape.m0 * pin.shape.n0 * pin.shape.k0, 1024);
        d_steal |= pin.stats.stolenOps > 0;
        d_bw |= pin.stats.bwLimitedCycles > 0;
    }
    EXPECT_TRUE(d_steal);
    EXPECT_TRUE(d_bw);
}

} // namespace
} // namespace griffin
