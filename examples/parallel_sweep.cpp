/**
 * @file
 * Parallel sweep via the runtime/ subsystem, declared as a named-axis
 * grid: build a GridSpec with the builder API (or pass --grid), shard
 * the expanded jobs across a thread pool — one sub-job per (grid
 * point, network layer), running every architecture of the grid point
 * — share generated operands and preprocessed weight schedules
 * between those architectures, and serialize the merged results as
 * JSON rows that carry their own grid coordinates.
 *
 *   ./parallel_sweep
 *   ./parallel_sweep --grid "weight_lane_bias=0:1:0.25,seed=1..2"
 *
 * The printed JSON is bit-identical to a --threads 1 run of the same
 * grid: every layer sub-job carries an order-independent seed and
 * results merge in submission order, so parallelism never changes the
 * numbers.
 */

#include <iostream>

#include "arch/presets.hh"
#include "common/cli.hh"
#include "runtime/grid.hh"
#include "runtime/result_sink.hh"
#include "runtime/runner.hh"
#include "runtime/thread_pool.hh"

using namespace griffin;

int
main(int argc, char **argv)
{
    Cli cli("Parallel sweep example: a named-axis grid on the "
            "work-stealing pool");
    cli.addInt("threads", ThreadPool::hardwareThreads(),
               "worker threads (1 = serial)");
    cli.addString("grid", "",
                  "replace the built-in grid with a parsed spec, e.g. "
                  "\"arch=Griffin,network=resnet50,weight_lane_bias="
                  "0:1:0.5\"");
    cli.parse(argc, argv);

    // The sweep is a GridSpec: named axes, each a value list, expanded
    // as a cartesian product in declaration order.  A 2-arch x
    // 2-network x 2-category x 2-lane-bias grid is 16 jobs, run as one
    // sub-job per (grid point, layer), so even this small grid keeps
    // every worker busy.  Real studies push more values onto
    // the axes (ranges like "0:1:0.25" and "1..8" expand inline).
    GridSpec grid;
    if (!cli.getString("grid").empty())
        grid = GridSpec::parse(cli.getString("grid"));
    else
        grid.axis("arch", {"Griffin", "Sparse.B*"})
            .axis("network", {"resnet50", "bert"})
            .axis("category", {"b", "ab"})
            .axis("weight_lane_bias", {0.25, 0.75});

    // The base spec supplies whatever the grid leaves unswept: default
    // identity axes and the RunOptions fields every variant inherits.
    SweepSpec base;
    base.archs = {griffinArch(), sparseBStar()};
    base.networks = {resNet50(), bertBase()};
    base.categories = {DnnCategory::B, DnnCategory::AB};
    RunOptions fast;
    fast.sim.sampleFraction = 0.05;
    fast.sim.minSampledTiles = 4;
    fast.rowCap = 64;
    base.optionVariants = {fast};

    SweepSpec spec = grid.toSweepSpec(base);
    spec.batchArchs = true;

    const int threads = static_cast<int>(cli.getInt("threads"));
    std::cerr << "running " << spec.jobCount() << " jobs on " << threads
              << " threads\n";

    const auto sweep = runSweep(spec, threads);

    // The architectures of one grid point run on the same tensors, so
    // those sharing a B routing reuse each other's preprocessed
    // weight schedules: each column tile is packed once per distinct
    // (tile content, borrow window, shuffle) triple within a sub-job.
    // Griffin and Sparse.B* pack under different windows, so the
    // built-in grid reports no hits; a --grid of archs with one B
    // routing, e.g. "arch=AB(2,0,0,4,0,1,on),AB(1,0,0,4,0,1,on)", does.
    const auto &cs = sweep.cacheStats();
    std::cerr << "schedule memo: " << cs.hits << " hits, " << cs.misses
              << " misses\n";

    // Every row carries its resolved options and grid coordinates
    // ("coords"), so a two-variant sweep stays distinguishable in the
    // output alone.
    writeJson(std::cout, sweep);
    return 0;
}
