/**
 * @file
 * Focused tests for the asynchronous two-level dual-sparse engine:
 * per-column independence, the shared ABUF residency window, the
 * bandwidth frontier, and the downgrade behaviours of Table III.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sched/verify.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

const TileShape kShape{};

DualSchedule
runDual(const MatrixI8 &a, const MatrixI8 &b, const RoutingConfig &cfg,
        double bw, bool record = false)
{
    Shuffler sh(cfg.shuffle, kShape.k0);
    TileViewA va(a, kShape, 0);
    TileViewB vb(b, kShape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    return scheduleDual(va, vb, cfg, sh, &stream, bw, record);
}

TEST(DualAsync, DenseOperandsRunAtDenseRate)
{
    Rng rng(71);
    auto a = randomDense(4, 256, rng);
    auto b = randomDense(256, 16, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto dual = runDual(a, b, cfg, 9.0);
    EXPECT_EQ(dual.cycles, 16); // = K1: nothing to skip
}

TEST(DualAsync, SpeedupCompoundsAcrossStages)
{
    Rng rng(72);
    auto a = randomSparse(4, 1024, 0.5, rng);
    auto b = randomSparse(1024, 16, 0.8, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto dual = runDual(a, b, cfg, 9.0);
    Shuffler sh(true, kShape.k0);
    TileViewB vb(b, kShape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    // Runtime must beat the B-only compressed stream length (the
    // A-side skip is stage 2's whole point) but cannot beat the
    // densest column's pair count.
    EXPECT_LT(dual.cycles, stream.cycles());
    EXPECT_GE(dual.cycles,
              dual.effectualPairs / (kShape.k0 * kShape.m0 *
                                     kShape.n0));
}

TEST(DualAsync, ColumnsAdvanceIndependently)
{
    // Column 0 dense in B, column 1 nearly empty: an asynchronous
    // engine finishes in ~the dense column's time, not the sum.
    Rng rng(73);
    auto a = randomDense(4, 512, rng);
    MatrixI8 b(512, 16);
    for (std::size_t k = 0; k < 512; ++k) {
        b.at(k, 0) = 1;                  // column 0 fully dense
        if (k % 16 == 0)
            b.at(k, 1) = 1;              // column 1 sparse
    }
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto dual = runDual(a, b, cfg, 9.0);
    // Dense column needs 32 entries; the whole tile should not need
    // meaningfully more than that.
    EXPECT_LE(dual.cycles, 40);
}

TEST(DualAsync, BandwidthFrontierThrottles)
{
    Rng rng(74);
    auto a = randomSparse(4, 1024, 0.6, rng);
    auto b = randomSparse(1024, 16, 0.9, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto fast = runDual(a, b, cfg, 9.0);
    auto slow = runDual(a, b, cfg, 1.0);
    EXPECT_GT(slow.cycles, fast.cycles);
    EXPECT_GT(slow.stage2.bwLimitedCycles, 0);
    // 1 raw step/cycle cannot finish faster than the raw step count
    // minus the prefilled window.
    EXPECT_GE(slow.cycles, 64 - 9);
}

TEST(DualAsync, DowngradeOnDenseAStaysWithinSparseBWindow)
{
    // Table III: on DNN.B the rigid dual design degrades toward
    // Sparse.B(db1,0,db3).  Every non-empty stream entry of a column
    // costs one cycle (dense A skips nothing), but columns retire
    // their own bubbles independently, so the tile lands between the
    // most loaded column's entry count and the synchronized stream
    // length.
    Rng rng(75);
    auto a = randomDense(4, 1024, rng);
    auto b = randomSparse(1024, 16, 0.85, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    Shuffler sh(cfg.shuffle, kShape.k0);
    TileViewB vb(b, kShape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    TileViewA va(a, kShape, 0);
    auto dual = scheduleDual(va, vb, cfg, sh, &stream, 9.0, false);
    EXPECT_LE(dual.cycles, stream.cycles());
    // Lower bounds: lanes may drain different BBUF entries in one
    // cycle (that is what the BMUX fan-in buys), but a column's window
    // holds only 1+da1 entries, and no slot can beat its own pair
    // count (dense A pairs every element with all 4 rows).
    std::int64_t max_col_entries = 0;
    std::int64_t max_slot_pairs = 0;
    for (int j = 0; j < stream.cols(); ++j) {
        std::int64_t entries = 0;
        for (int l = 0; l < stream.lanes(); ++l) {
            std::int64_t slot_pairs = 0;
            for (std::int64_t c = 0; c < stream.cycles(); ++c)
                slot_pairs += stream.flatK(c, l, j) >= 0;
            max_slot_pairs = std::max(max_slot_pairs, slot_pairs);
        }
        for (std::int64_t c = 0; c < stream.cycles(); ++c) {
            for (int l = 0; l < stream.lanes(); ++l) {
                if (stream.flatK(c, l, j) >= 0) {
                    ++entries;
                    break;
                }
            }
        }
        max_col_entries = std::max(max_col_entries, entries);
    }
    const int bbuf_depth = 1 + cfg.a.d1;
    EXPECT_GE(dual.cycles,
              (max_col_entries + bbuf_depth - 1) / bbuf_depth);
    EXPECT_GE(dual.cycles, max_slot_pairs);
}

TEST(DualAsync, RecordedOpsCoverEveryEffectualPair)
{
    Rng rng(76);
    auto a = randomSparse(4, 256, 0.4, rng);
    auto b = randomSparse(256, 16, 0.7, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 1, 1, 2, 1, 1, true);
    auto dual = runDual(a, b, cfg, 9.0, true);
    EXPECT_EQ(static_cast<std::int64_t>(dual.ops.size()),
              dual.effectualPairs);
    auto got = replayDualSchedule(dual.ops, a, b, 0, 0, kShape);
    auto want = referenceTile(a, b, 0, 0, kShape);
    EXPECT_EQ(got, want);
}

TEST(DualAsync, AllZeroTileFinishesInstantly)
{
    MatrixI8 a(4, 128);
    Rng rng(77);
    auto b = randomSparse(128, 16, 0.5, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto dual = runDual(a, b, cfg, 9.0);
    EXPECT_EQ(dual.cycles, 0);
    EXPECT_EQ(dual.effectualPairs, 0);
}

TEST(DualAsync, WiderAWindowNeverHurts)
{
    Rng rng(78);
    auto a = randomSparse(4, 768, 0.5, rng);
    auto b = randomSparse(768, 16, 0.8, rng);
    std::int64_t prev = std::numeric_limits<std::int64_t>::max();
    for (int da1 : {0, 1, 2, 3}) {
        const auto cfg =
            RoutingConfig::sparseAB(da1, 0, 0, 2, 0, 1, true);
        auto dual = runDual(a, b, cfg, 16.0);
        EXPECT_LE(dual.cycles, prev) << "da1 " << da1;
        prev = dual.cycles;
    }
}

/**
 * One pinned scenario of the preprocessed engine: a seeded operand
 * pair, the tile shape, the Sparse.AB window and the ASRAM bandwidth,
 * plus the exact schedule the engine produced for it.  The values pin
 * the engine's observable behaviour (stage-2 stats, tile cycles and
 * the recorded op sequence) so any rewrite must stay bit-identical.
 */
struct PinnedCase
{
    const char *name;
    std::uint64_t seed;
    TileShape shape;
    std::size_t k;
    double aSparsity;
    double bSparsity;
    int da1, da2, da3, db1, db2, db3;
    bool shuffle;
    double bw;
    bool zeroCols; ///< zero every third B column

    std::int64_t cycles;
    std::int64_t effectualPairs;
    ScheduleStats stage2;
    std::uint64_t opsHash; ///< FNV-1a over the recorded op sequence
};

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

struct PinnedRun
{
    MatrixI8 a, b;
    DualSchedule plain, recorded;
};

PinnedRun
runPinned(const PinnedCase &pc)
{
    Rng rng(pc.seed);
    auto a = randomSparse(static_cast<std::size_t>(pc.shape.m0), pc.k,
                          pc.aSparsity, rng);
    auto b = randomSparse(pc.k, static_cast<std::size_t>(pc.shape.n0),
                          pc.bSparsity, rng);
    if (pc.zeroCols) {
        for (std::size_t k = 0; k < pc.k; ++k)
            for (std::size_t j = 0; j < b.cols(); j += 3)
                b.at(k, j) = 0;
    }
    const auto cfg = RoutingConfig::sparseAB(pc.da1, pc.da2, pc.da3,
                                             pc.db1, pc.db2, pc.db3,
                                             pc.shuffle);
    Shuffler sh(cfg.shuffle, pc.shape.k0);
    TileViewA va(a, pc.shape, 0);
    TileViewB vb(b, pc.shape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    auto plain = scheduleDual(va, vb, cfg, sh, &stream, pc.bw, false);
    auto recorded = scheduleDual(va, vb, cfg, sh, &stream, pc.bw, true);
    return {std::move(a), std::move(b), std::move(plain),
            std::move(recorded)};
}

// Values recorded from the per-slot CSR queue engine this suite was
// written against.  Columns: cycles, effectual pairs, stage-2
// {cycles, ops, ownOps, stolenOps, idleSlotCycles, bwLimitedCycles},
// op-sequence hash.
const PinnedCase kPinned[] = {
    // name, seed, shape {m0, n0, k0}, K, A and B sparsity,
    // da1..da3, db1..db3, shuffle, bandwidth, zero columns
    {"da1_0", 101, {4, 16, 16}, 512, 0.5, 0.8,
     0, 0, 0, 2, 0, 1, true, 9.0, false,
     19, 3190, {19, 3190, 3190, 0, 16266, 0}, 0x54016b7272193ec5ull},
    {"da1_1", 101, {4, 16, 16}, 512, 0.5, 0.8,
     1, 0, 0, 2, 0, 1, true, 9.0, false,
     15, 3190, {15, 3190, 3190, 0, 12170, 0}, 0xf78f17ec4fa88982ull},
    {"da1_2", 101, {4, 16, 16}, 512, 0.5, 0.8,
     2, 0, 0, 2, 0, 1, true, 9.0, false,
     12, 3190, {12, 3190, 3190, 0, 9098, 0}, 0x4dd52b03c439b88bull},
    {"steal_lane", 102, {4, 16, 16}, 768, 0.6, 0.7,
     2, 1, 0, 2, 0, 1, true, 9.0, false,
     17, 6021, {17, 6021, 5556, 465, 11387, 0}, 0xc63af0756bdbb22full},
    {"steal_row", 102, {4, 16, 16}, 768, 0.6, 0.7,
     2, 0, 1, 2, 0, 1, true, 9.0, false,
     20, 6021, {20, 6021, 5844, 177, 14459, 0}, 0x90a0b420444c89d6ull},
    {"steal_both", 103, {4, 16, 16}, 768, 0.4, 0.8,
     1, 1, 1, 2, 1, 1, true, 9.0, false,
     19, 5866, {19, 5866, 5632, 234, 13590, 0}, 0x2fcb24bfe2cfe3cull},
    {"steal_da1_0", 103, {4, 16, 16}, 768, 0.4, 0.8,
     0, 2, 1, 2, 1, 1, true, 9.0, false,
     25, 5866, {25, 5866, 5866, 0, 19734, 0}, 0xfd772ce4a8e66664ull},
    {"steal_dense_a", 104, {4, 16, 16}, 512, 0.0, 0.6,
     2, 1, 1, 2, 1, 1, false, 9.0, false,
     18, 12776, {18, 12776, 12188, 588, 5656, 0}, 0x9439fde2560fa11full},
    {"bw_cap_1", 105, {4, 16, 16}, 1024, 0.6, 0.9,
     2, 0, 0, 2, 0, 1, true, 1.0, false,
     56, 2385, {56, 2385, 2385, 0, 54959, 54}, 0x2dcd6c9c736094d0ull},
    {"bw_cap_frac", 105, {4, 16, 16}, 1024, 0.6, 0.9,
     1, 1, 1, 2, 0, 1, true, 2.5, false,
     25, 2385, {25, 2385, 2345, 40, 23215, 21}, 0x14adb90d9cef3aa0ull},
    {"zero_cols", 106, {4, 16, 16}, 512, 0.5, 0.7,
     2, 1, 0, 2, 0, 1, true, 9.0, true,
     12, 3007, {12, 3007, 2808, 199, 9281, 0}, 0x58e2b1ba0694945full},
    {"zero_cols_bw", 106, {4, 16, 16}, 512, 0.3, 0.5,
     1, 1, 1, 1, 1, 0, false, 1.5, true,
     22, 7233, {22, 7233, 6780, 453, 15295, 0}, 0xf753c4357d9ac69ull},
    {"wide_8x16", 107, {8, 16, 16}, 640, 0.5, 0.8,
     2, 1, 1, 2, 0, 1, true, 9.0, false,
     13, 8359, {13, 8359, 7642, 717, 18265, 0}, 0x6b21e81272b018e6ull},
    {"wide_8x16_da1_0", 107, {8, 16, 16}, 640, 0.5, 0.8,
     0, 0, 0, 2, 0, 1, true, 9.0, false,
     24, 8359, {24, 8359, 8359, 0, 40793, 0}, 0xc8be52bd06f248f2ull},
    {"wide_8x16_bw", 108, {8, 16, 16}, 640, 0.3, 0.6,
     1, 2, 1, 2, 1, 1, true, 1.5, true,
     24, 14382, {24, 14382, 13764, 618, 34770, 20}, 0x90d4fd8439b67cabull},
    {"partial_6x16", 109, {6, 16, 16}, 512, 0.5, 0.7,
     2, 1, 1, 2, 0, 1, true, 9.0, false,
     11, 7240, {11, 7240, 6480, 760, 9656, 0}, 0xcd2cf7e79d497cf9ull},
    {"tall_12x16", 112, {12, 16, 16}, 512, 0.5, 0.7,
     2, 1, 1, 2, 0, 1, true, 9.0, false,
     12, 14579, {12, 14579, 13198, 1381, 22285, 0}, 0x5c2006136c55363dull},
    {"lanes_12", 113, {4, 16, 12}, 480, 0.5, 0.7,
     1, 1, 1, 2, 1, 1, true, 4.0, true,
     14, 2870, {14, 2870, 2701, 169, 7882, 0}, 0x277bbaea099ee47full},
    {"long_k", 111, {4, 16, 16}, 4096, 0.7, 0.8,
     2, 1, 1, 2, 1, 1, true, 3.0, false,
     84, 16049, {84, 16049, 15479, 570, 69967, 80}, 0x8a78713c7ed8148full},
    {"narrow_4x8x8", 110, {4, 8, 8}, 256, 0.5, 0.7,
     1, 1, 1, 1, 1, 1, true, 4.0, false,
     14, 1159, {14, 1159, 1095, 64, 2425, 0}, 0x66622fc21fa1f067ull},
};

std::string
describe(const PinnedCase &pc, const DualSchedule &d,
         std::uint64_t ops_hash)
{
    std::ostringstream os;
    os << "actual: {" << d.cycles << ", " << d.effectualPairs << ", {"
       << d.stage2.cycles << ", " << d.stage2.ops << ", "
       << d.stage2.ownOps << ", " << d.stage2.stolenOps << ", "
       << d.stage2.idleSlotCycles << ", " << d.stage2.bwLimitedCycles
       << "}, 0x" << std::hex << ops_hash << "ull} for " << pc.name;
    return os.str();
}

TEST(DualAsyncPinned, ScheduleMatchesRecordedValues)
{
    for (const auto &pc : kPinned) {
        const auto run = runPinned(pc);
        const auto &d = run.plain;
        const auto h = hashOps(run.recorded.ops);
        SCOPED_TRACE(describe(pc, d, h));
        EXPECT_EQ(d.cycles, pc.cycles);
        EXPECT_EQ(d.effectualPairs, pc.effectualPairs);
        EXPECT_EQ(d.stage2.cycles, pc.stage2.cycles);
        EXPECT_EQ(d.stage2.ops, pc.stage2.ops);
        EXPECT_EQ(d.stage2.ownOps, pc.stage2.ownOps);
        EXPECT_EQ(d.stage2.stolenOps, pc.stage2.stolenOps);
        EXPECT_EQ(d.stage2.idleSlotCycles, pc.stage2.idleSlotCycles);
        EXPECT_EQ(d.stage2.bwLimitedCycles, pc.stage2.bwLimitedCycles);
        EXPECT_EQ(h, pc.opsHash);

        // Recording is observation only.
        const auto &r = run.recorded;
        EXPECT_EQ(r.cycles, d.cycles);
        EXPECT_EQ(r.effectualPairs, d.effectualPairs);
        EXPECT_EQ(r.stage2.ops, d.stage2.ops);
        EXPECT_EQ(r.stage2.stolenOps, d.stage2.stolenOps);
        EXPECT_EQ(r.stage2.idleSlotCycles, d.stage2.idleSlotCycles);
        EXPECT_TRUE(d.ops.empty());
        EXPECT_EQ(static_cast<std::int64_t>(r.ops.size()),
                  d.effectualPairs);
    }
}

TEST(DualAsyncPinned, MatrixCoversTheEngineBranches)
{
    // The table is only a pin if it exercises every branch: stealing,
    // each BBUF depth, a bandwidth-limited frontier, empty columns,
    // column masks wider than one 64-bit word or ending mid-word, and
    // geometries (more than 8 rows, lanes not dividing 64) that build
    // the pending bitmaps bit by bit.
    bool steals = false, bw_limited = false, zero_cols = false;
    bool wide = false, partial_word = false, unspread = false;
    bool da1_seen[3] = {false, false, false};
    for (const auto &pc : kPinned) {
        steals |= pc.stage2.stolenOps > 0;
        bw_limited |= pc.stage2.bwLimitedCycles > 0;
        zero_cols |= pc.zeroCols && pc.effectualPairs > 0;
        const int col_slots = pc.shape.m0 * pc.shape.k0;
        wide |= col_slots > 64;
        partial_word |= col_slots % 64 != 0;
        unspread |= pc.shape.m0 > 8 || 64 % pc.shape.k0 != 0;
        if (pc.da1 >= 0 && pc.da1 < 3)
            da1_seen[pc.da1] = true;
    }
    EXPECT_TRUE(steals);
    EXPECT_TRUE(bw_limited);
    EXPECT_TRUE(zero_cols);
    EXPECT_TRUE(wide);
    EXPECT_TRUE(partial_word);
    EXPECT_TRUE(unspread);
    for (bool seen : da1_seen)
        EXPECT_TRUE(seen);
}

TEST(DualAsync, WideTileRecordReplaysToReference)
{
    // 8 rows x 16 lanes = 128 slots per column: two mask words.
    const TileShape shape{8, 16, 16};
    for (const auto &pc : kPinned) {
        if (pc.shape.m0 * pc.shape.k0 <= 64)
            continue;
        SCOPED_TRACE(pc.name);
        const auto run = runPinned(pc);
        auto got = replayDualSchedule(run.recorded.ops, run.a, run.b, 0,
                                      0, pc.shape);
        auto want = referenceTile(run.a, run.b, 0, 0, pc.shape);
        EXPECT_EQ(got, want);
    }
    Rng rng(80);
    auto a = randomSparse(8, 640, 0.45, rng);
    auto b = randomSparse(640, 16, 0.75, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 1, 1, 2, 1, 1, true);
    Shuffler sh(cfg.shuffle, shape.k0);
    TileViewA va(a, shape, 0);
    TileViewB vb(b, shape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    auto dual = scheduleDual(va, vb, cfg, sh, &stream, 9.0, true);
    EXPECT_GT(dual.stage2.stolenOps, 0);
    EXPECT_EQ(static_cast<std::int64_t>(dual.ops.size()),
              dual.effectualPairs);
    EXPECT_EQ(replayDualSchedule(dual.ops, a, b, 0, 0, shape),
              referenceTile(a, b, 0, 0, shape));
}

TEST(DualAsync, CachedStreamRejectsBadEmptyMarker)
{
    // The engine loads A occupancy at each stream slot's flat k, with
    // -1 the only empty marker, so a cached stream holding anything
    // below -1 is corrupt.
    Rng rng(81);
    auto a = randomSparse(4, 256, 0.5, rng);
    auto b = randomSparse(256, 16, 0.7, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 1, 1, 2, 0, 1, true);
    Shuffler sh(cfg.shuffle, kShape.k0);
    TileViewA va(a, kShape, 0);
    TileViewB vb(b, kShape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    std::ostringstream os;
    stream.serialize(os);
    std::string bytes = os.str();

    std::istringstream good(bytes);
    BSchedule back;
    ASSERT_TRUE(BSchedule::deserialize(good, back));
    const auto want = scheduleDual(va, vb, cfg, sh, &stream, 9.0, false);
    const auto got = scheduleDual(va, vb, cfg, sh, &back, 9.0, false);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.stage2.ops, want.stage2.ops);

    // Ten 8-byte header fields precede the flat-k table; make its
    // first value -2.
    bytes.replace(80, 8, "\xfe\xff\xff\xff\xff\xff\xff\xff", 8);
    std::istringstream bad(bytes);
    EXPECT_FALSE(BSchedule::deserialize(bad, back));
}

TEST(DualAsyncDeathTest, MissingStreamPanics)
{
    Rng rng(79);
    auto a = randomSparse(4, 128, 0.5, rng);
    auto b = randomSparse(128, 16, 0.5, rng);
    TileViewA va(a, kShape, 0);
    TileViewB vb(b, kShape, 0);
    Shuffler sh(false, kShape.k0);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, false);
    EXPECT_DEATH(scheduleDual(va, vb, cfg, sh, nullptr, 9.0, false),
                 "needs the B");
}

} // namespace
} // namespace griffin
