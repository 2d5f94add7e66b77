/**
 * @file
 * Span aggregates of the traced program (perfbench_traced).
 *
 * trace_hooks.cc interposes the public entry point of each simulator
 * module at link time and records, per thread, a call count, the
 * inclusive time of each span and its self time (inclusive minus the
 * time covered by child spans).  Calls are always counted; spans are
 * timed only while setTiming(true) is in effect, so one binary can run
 * an untimed pass (pool counters) and a timed one (layer self time).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <cstdint>

namespace perfbench {

/** The interposed entry points, one per simulator layer. */
enum Layer : int
{
    kGenerate,    ///< generateLayerWorkset (tensor/)
    kBPreprocess, ///< preprocessB (sched/b_preprocess)
    kDual,        ///< scheduleDual (sched/dual_scheduler)
    kAArbiter,    ///< scheduleA (sched/a_arbiter)
    kGemm,        ///< simulateGemm (sim/)
    kSparten,     ///< simulateSparTen (baselines/)
    kRunLayer,    ///< Accelerator::runLayer (griffin/)
    kReduce,      ///< Accelerator::reduceLayers (griffin/)
    kLayerCount
};

struct LayerTotals
{
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t selfNs = 0;
    /** Work items: generated elements (kGenerate), simulated tiles
     *  (kGemm, kSparten). */
    std::uint64_t items = 0;
};

struct TraceTotals
{
    std::array<LayerTotals, kLayerCount> layers{};
    /** Time covered by outermost spans. */
    std::uint64_t rootNs = 0;
    /** Timed spans recorded. */
    std::uint64_t spans = 0;
};

/** Time spans from now on (true) or only count calls (false).  Flip
 *  only while no hooked call is in flight. */
void setTiming(bool on);

/** Zero every thread's aggregates.  Call with no pool running. */
void resetTrace();

/** Merge every thread's aggregates.  Call with no pool running. */
TraceTotals collectTrace();

/** Measured host cost of one timed span, in nanoseconds. */
double spanCostNs();

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
