/**
 * @file
 * Link-time spans around each simulator module's public entry point.
 *
 * CMakeLists.txt links perfbench_traced with `-Wl,--wrap=<symbol>` for
 * every `__wrap_` asm label below, so every call the library makes to
 * one of these functions from another translation unit lands in the
 * hook, which opens a span and calls the original through `__real_`.
 * The library is neither recompiled nor changed.  Calls a module makes
 * to itself inside one translation unit are not interposed; none of
 * the hooked entry points is called that way on the measured paths
 * (Accelerator::run calls runLayer internally, which is why the traced
 * `points` replay drives runLayer + reduceLayers itself).
 *
 * Member functions are hooked as free functions taking the object
 * pointer first: the Itanium C++ ABI passes `this` as the leading
 * argument (after any hidden return-slot pointer), exactly as for a
 * free function whose first parameter is that pointer.
 */

#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "baselines/sparten.hh"
#include "griffin/accelerator.hh"
#include "sched/a_arbiter.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sim/gemm_sim.hh"
#include "tensor/workset.hh"

namespace perfbench {
namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Frame
{
    std::uint64_t startNs = 0;
    std::uint64_t childNs = 0;
};

/** One thread's aggregates; written only by that thread. */
struct ThreadState
{
    TraceTotals totals;
    std::vector<Frame> stack;
};

std::atomic<bool> g_timing{false};
std::mutex g_mu;
/** Every thread's state, kept past thread exit so pool workers of a
 *  finished sweep still count. */
std::vector<std::unique_ptr<ThreadState>> g_states;

ThreadState &
localState()
{
    thread_local ThreadState *state = nullptr;
    if (state == nullptr) {
        auto fresh = std::make_unique<ThreadState>();
        state = fresh.get();
        std::lock_guard<std::mutex> lock(g_mu);
        g_states.push_back(std::move(fresh));
    }
    return *state;
}

class Span
{
  public:
    Span(ThreadState &state, Layer layer)
        : state_(state), totals_(state.totals.layers[layer]),
          timed_(g_timing.load(std::memory_order_relaxed))
    {
        ++totals_.calls;
        if (timed_)
            state_.stack.push_back({nowNs(), 0});
    }
    explicit Span(Layer layer) : Span(localState(), layer) {}

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    ~Span()
    {
        if (!timed_)
            return;
        const Frame frame = state_.stack.back();
        state_.stack.pop_back();
        const std::uint64_t ns = nowNs() - frame.startNs;
        totals_.inclusiveNs += ns;
        totals_.selfNs += ns - frame.childNs;
        ++state_.totals.spans;
        if (state_.stack.empty())
            state_.totals.rootNs += ns;
        else
            state_.stack.back().childNs += ns;
    }

    void addItems(std::uint64_t n) { totals_.items += n; }

  private:
    ThreadState &state_;
    LayerTotals &totals_;
    bool timed_;
};

} // namespace

void
setTiming(bool on)
{
    g_timing.store(on, std::memory_order_relaxed);
}

void
resetTrace()
{
    std::lock_guard<std::mutex> lock(g_mu);
    for (auto &state : g_states)
        state->totals = TraceTotals{};
}

TraceTotals
collectTrace()
{
    TraceTotals out;
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto &state : g_states) {
        for (int l = 0; l < kLayerCount; ++l) {
            const LayerTotals &t = state->totals.layers[l];
            out.layers[l].calls += t.calls;
            out.layers[l].inclusiveNs += t.inclusiveNs;
            out.layers[l].selfNs += t.selfNs;
            out.layers[l].items += t.items;
        }
        out.rootNs += state->totals.rootNs;
        out.spans += state->totals.spans;
    }
    return out;
}

double
spanCostNs()
{
    // Time nested pairs of spans on a private state, the shape the
    // hooks record (a child inside a parent), and keep the fastest of
    // several rounds: the cost of the instrumentation itself.
    const bool was = g_timing.exchange(true);
    constexpr int kPairs = 100000;
    double best = 0.0;
    for (int round = 0; round < 5; ++round) {
        ThreadState scratch;
        scratch.stack.reserve(4);
        const std::uint64_t start = nowNs();
        for (int i = 0; i < kPairs; ++i) {
            Span outer(scratch, kRunLayer);
            Span inner(scratch, kGemm);
        }
        const double ns = static_cast<double>(nowNs() - start) /
                          (2.0 * kPairs);
        if (round == 0 || ns < best)
            best = ns;
    }
    g_timing.store(was);
    return best;
}

} // namespace perfbench

using namespace griffin;
using perfbench::Span;

// Each hook: the original under its `__real_` name, the hook under its
// `__wrap_` name (one per line — CMakeLists.txt reads these labels).

LayerWorkset real_generate(const WorksetParams &)
    __asm__("__real__ZN7griffin20generateLayerWorksetERKNS_13WorksetParamsE");
LayerWorkset hook_generate(const WorksetParams &)
    __asm__("__wrap__ZN7griffin20generateLayerWorksetERKNS_13WorksetParamsE");

BSchedule real_preprocess_b(const TileViewB &, const Borrow &,
                            const Shuffler &, bool)
    __asm__("__real__ZN7griffin11preprocessBERKNS_9TileViewBERKNS_6BorrowERKNS_8ShufflerEb");
BSchedule hook_preprocess_b(const TileViewB &, const Borrow &,
                            const Shuffler &, bool)
    __asm__("__wrap__ZN7griffin11preprocessBERKNS_9TileViewBERKNS_6BorrowERKNS_8ShufflerEb");

DualSchedule real_schedule_dual(const TileViewA &, const TileViewB &,
                                const RoutingConfig &, const Shuffler &,
                                const BSchedule *, double, bool)
    __asm__("__real__ZN7griffin12scheduleDualERKNS_9TileViewAERKNS_9TileViewBERKNS_13RoutingConfigERKNS_8ShufflerEPKNS_9BScheduleEdb");
DualSchedule hook_schedule_dual(const TileViewA &, const TileViewB &,
                                const RoutingConfig &, const Shuffler &,
                                const BSchedule *, double, bool)
    __asm__("__wrap__ZN7griffin12scheduleDualERKNS_9TileViewAERKNS_9TileViewBERKNS_13RoutingConfigERKNS_8ShufflerEPKNS_9BScheduleEdb");

ScheduleResult real_schedule_a(const TileViewA &, const Borrow &,
                               const Shuffler &, double, bool)
    __asm__("__real__ZN7griffin9scheduleAERKNS_9TileViewAERKNS_6BorrowERKNS_8ShufflerEdb");
ScheduleResult hook_schedule_a(const TileViewA &, const Borrow &,
                               const Shuffler &, double, bool)
    __asm__("__wrap__ZN7griffin9scheduleAERKNS_9TileViewAERKNS_6BorrowERKNS_8ShufflerEdb");

GemmSimResult real_simulate_gemm(const GemmOperands &, const ArchConfig &,
                                 DnnCategory, const SimOptions &)
    __asm__("__real__ZN7griffin12simulateGemmERKNS_12GemmOperandsERKNS_10ArchConfigENS_11DnnCategoryERKNS_10SimOptionsE");
GemmSimResult hook_simulate_gemm(const GemmOperands &, const ArchConfig &,
                                 DnnCategory, const SimOptions &)
    __asm__("__wrap__ZN7griffin12simulateGemmERKNS_12GemmOperandsERKNS_10ArchConfigENS_11DnnCategoryERKNS_10SimOptionsE");

GemmSimResult real_simulate_sparten(const MatrixI8 &, const MatrixI8 &,
                                    const ArchConfig &, DnnCategory,
                                    const SimOptions &)
    __asm__("__real__ZN7griffin15simulateSparTenERKNS_6MatrixIaEES3_RKNS_10ArchConfigENS_11DnnCategoryERKNS_10SimOptionsE");
GemmSimResult hook_simulate_sparten(const MatrixI8 &, const MatrixI8 &,
                                    const ArchConfig &, DnnCategory,
                                    const SimOptions &)
    __asm__("__wrap__ZN7griffin15simulateSparTenERKNS_6MatrixIaEES3_RKNS_10ArchConfigENS_11DnnCategoryERKNS_10SimOptionsE");

LayerResult real_run_layer(const Accelerator *, const NetworkSpec &,
                           std::size_t, DnnCategory, const RunOptions &)
    __asm__("__real__ZNK7griffin11Accelerator8runLayerERKNS_11NetworkSpecEmNS_11DnnCategoryERKNS_10RunOptionsE");
LayerResult hook_run_layer(const Accelerator *, const NetworkSpec &,
                           std::size_t, DnnCategory, const RunOptions &)
    __asm__("__wrap__ZNK7griffin11Accelerator8runLayerERKNS_11NetworkSpecEmNS_11DnnCategoryERKNS_10RunOptionsE");

NetworkResult real_reduce(const Accelerator *, const NetworkSpec &,
                          DnnCategory, std::vector<LayerResult>,
                          const RunOptions &)
    __asm__("__real__ZNK7griffin11Accelerator12reduceLayersERKNS_11NetworkSpecENS_11DnnCategoryESt6vectorINS_11LayerResultESaIS6_EERKNS_10RunOptionsE");
NetworkResult hook_reduce(const Accelerator *, const NetworkSpec &,
                          DnnCategory, std::vector<LayerResult>,
                          const RunOptions &)
    __asm__("__wrap__ZNK7griffin11Accelerator12reduceLayersERKNS_11NetworkSpecENS_11DnnCategoryESt6vectorINS_11LayerResultESaIS6_EERKNS_10RunOptionsE");

LayerWorkset
hook_generate(const WorksetParams &params)
{
    Span span(perfbench::kGenerate);
    LayerWorkset workset = real_generate(params);
    span.addItems(workset.a.size() + workset.b.size());
    return workset;
}

BSchedule
hook_preprocess_b(const TileViewB &b, const Borrow &db,
                  const Shuffler &shuffler, bool record)
{
    Span span(perfbench::kBPreprocess);
    return real_preprocess_b(b, db, shuffler, record);
}

DualSchedule
hook_schedule_dual(const TileViewA &a, const TileViewB &b,
                   const RoutingConfig &cfg, const Shuffler &shuffler,
                   const BSchedule *b_stream, double advance_cap,
                   bool record)
{
    Span span(perfbench::kDual);
    return real_schedule_dual(a, b, cfg, shuffler, b_stream, advance_cap,
                              record);
}

ScheduleResult
hook_schedule_a(const TileViewA &a, const Borrow &da,
                const Shuffler &shuffler, double advance_cap, bool record)
{
    Span span(perfbench::kAArbiter);
    return real_schedule_a(a, da, shuffler, advance_cap, record);
}

GemmSimResult
hook_simulate_gemm(const GemmOperands &operands, const ArchConfig &arch,
                   DnnCategory cat, const SimOptions &opt)
{
    Span span(perfbench::kGemm);
    GemmSimResult result = real_simulate_gemm(operands, arch, cat, opt);
    span.addItems(static_cast<std::uint64_t>(result.simulatedTiles));
    return result;
}

GemmSimResult
hook_simulate_sparten(const MatrixI8 &a, const MatrixI8 &b,
                      const ArchConfig &arch, DnnCategory cat,
                      const SimOptions &opt)
{
    Span span(perfbench::kSparten);
    GemmSimResult result = real_simulate_sparten(a, b, arch, cat, opt);
    span.addItems(static_cast<std::uint64_t>(result.simulatedTiles));
    return result;
}

LayerResult
hook_run_layer(const Accelerator *self, const NetworkSpec &net,
               std::size_t layer, DnnCategory cat, const RunOptions &opt)
{
    Span span(perfbench::kRunLayer);
    return real_run_layer(self, net, layer, cat, opt);
}

NetworkResult
hook_reduce(const Accelerator *self, const NetworkSpec &net,
            DnnCategory cat, std::vector<LayerResult> layers,
            const RunOptions &opt)
{
    Span span(perfbench::kReduce);
    return real_reduce(self, net, cat, std::move(layers), opt);
}
