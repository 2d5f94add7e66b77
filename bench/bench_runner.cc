/**
 * @file
 * Parallel sweep driver over the (architecture x network x category x
 * RunOptions) grid — the runtime/ subsystem's command-line face.
 *
 *   ./bench_runner --threads 8 --json sweep.json
 *   ./bench_runner --archs Griffin,SparTen.AB --cats b,ab --threads 4
 *   ./bench_runner --grid "weight_lane_bias=0:1:0.25,seed=1..4"
 *   ./bench_runner --grid "arch=B(2,0,0,off),B(4,0,1,on),category=b"
 *   ./bench_runner --batch-archs false --workset-budget-mb 64
 *
 * --grid adds named RunOptions axes (weight_lane_bias,
 * act_run_length, sample_fraction, row_cap, seed, enforce_dram_bound)
 * to the sweep, expanded as a cartesian product in axis order; its
 * arch/network/category axes override --archs/--networks/--cats.
 * Every JSON/CSV row carries the resolved options and grid
 * coordinates, so rows from different variants are distinguishable in
 * the file alone.
 *
 * The merged results are bit-identical for any --threads value, with
 * or without --batch-archs, and for any --workset-budget-mb (the
 * resident bound of the generated-operand cache).  --grid-shard i/n
 * runs one contiguous slice of the job list (n processes cover the
 * grid disjointly; tables are suppressed and the shards' --json
 * .jsonl files concatenate byte-identically to the unsharded run).  The
 * registered paper experiments (griffin_bench) remain the curated
 * per-figure views, this one regenerates arbitrary grids.
 */

#include <iostream>

#include "arch/presets.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "runtime/experiment.hh"
#include "runtime/grid.hh"
#include "runtime/result_sink.hh"
#include "runtime/runner.hh"
#include "runtime/thread_pool.hh"

using namespace griffin;

int
main(int argc, char **argv)
{
    Cli cli("Parallel experiment runner: sweep architectures x "
            "networks x categories x RunOptions on a thread pool");
    cli.addString("archs", "Griffin,Sparse.B*,Sparse.A*,Sparse.AB*",
                  "comma-separated architecture names (presets or "
                  "routing specs like \"B(4,0,1,on)\")");
    cli.addString("networks",
                  "alexnet,googlenet,resnet50,inceptionv3,mobilenetv2,"
                  "bert",
                  "comma-separated benchmark networks");
    cli.addString("cats", "dense,a,b,ab",
                  "comma-separated workload categories");
    cli.addString("grid", "",
                  "named-axis grid spec, e.g. "
                  "\"weight_lane_bias=0:1:0.25,seed=1..4\"; axes: "
                  "arch, network, category, weight_lane_bias, "
                  "act_run_length, sample_fraction, row_cap, seed, "
                  "enforce_dram_bound (identity axes override "
                  "--archs/--networks/--cats)");
    cli.addInt("threads", ThreadPool::hardwareThreads(),
               "worker threads (1 = serial)");
    cli.addBool("batch-archs", true,
                "batch multiple GEMMs per job: all architectures of "
                "one (network, category, options) grid point share "
                "one sub-job per layer, generating each operand "
                "workset once (bit-identical results)");
    addCacheFlags(cli);
    cli.addString("grid-shard", "",
                  "run shard i of n (\"i/n\"): contiguous slice of the "
                  "job list; suppresses tables, results via --json");
    addFidelityFlags(cli);
    cli.addBool("csv", false, "emit per-layer CSV instead of the table");
    cli.addString("json", "", "write merged results to this path");
    const auto positional = cli.parse(argc, argv);
    if (!positional.empty())
        fatal("unexpected positional argument '", positional.front(),
              "'\n", cli.usage());

    SweepSpec spec;
    for (const auto &name : splitTopLevel(cli.getString("archs")))
        spec.archs.push_back(archByName(name));
    for (const auto &name : splitList(cli.getString("networks")))
        spec.networks.push_back(networkByName(name));
    for (const auto &name : splitList(cli.getString("cats")))
        spec.categories.push_back(categoryFromString(name));
    spec.optionVariants = {resolveFidelity(cli, /*default_sample=*/0.04,
                                           /*default_rowcap=*/48)};

    if (!cli.getString("grid").empty())
        spec = GridSpec::parse(cli.getString("grid")).toSweepSpec(spec);
    spec.batchArchs = cli.getBool("batch-archs");
    parseShardSpec(cli.getString("grid-shard"), spec.shardIndex,
                   spec.shardCount);
    // A shard suppresses tables, so without --json the sweep's results
    // would be computed and discarded — fail before the work.
    if (spec.shardCount > 1 && cli.getString("json").empty())
        fatal("--grid-shard suppresses tables; pass --json <path> "
              "(.jsonl, so shard files concatenate to the unsharded "
              "document)");

    WorksetCache worksets;
    applyCacheFlags(cli, worksets);

    const int threads = static_cast<int>(cli.getInt("threads"));
    const auto sweep = runSweep(spec, threads, &worksets);

    const bool multi_variant = spec.optionVariants.size() > 1;
    if (spec.shardCount > 1) {
        // A shard holds one slice of the grid; per-slice tables and
        // geomeans would silently aggregate a partial suite, so sharded
        // runs emit result rows only (--json, ideally .jsonl so the
        // shards concatenate byte-identically to the unsharded run).
    } else if (cli.getBool("csv")) {
        writeCsv(std::cout, sweep);
    } else {
        std::vector<std::string> headers{"network", "arch", "category",
                                         "speedup", "TOPS/W"};
        if (multi_variant)
            headers.insert(headers.begin() + 3, "grid point");
        Table t("Sweep results (" + std::to_string(threads) +
                    " threads)",
                headers);
        for (std::size_t i = 0; i < sweep.results().size(); ++i) {
            const auto &r = sweep.results()[i];
            std::vector<std::string> row{r.network, r.arch,
                                         toString(r.category)};
            if (multi_variant)
                row.push_back(coordsLabel(sweep.jobs()[i].coords));
            row.push_back(Table::num(r.speedup));
            row.push_back(Table::num(r.topsPerWatt));
            t.addRow(row);
        }
        t.print(std::cout);
        std::cout << '\n';

        std::vector<std::string> gheaders{"arch", "category", "geomean"};
        if (multi_variant)
            gheaders.insert(gheaders.begin() + 2, "grid point");
        Table g("Geomean speedup per architecture and category",
                gheaders);
        for (std::size_t o = 0; o < spec.optionVariants.size(); ++o) {
            for (std::size_t a = 0; a < spec.archs.size(); ++a) {
                for (std::size_t c = 0; c < spec.categories.size();
                     ++c) {
                    const auto slice =
                        sweep.slice([&](const SweepJob &job) {
                            return job.optionsIndex == o &&
                                   job.archIndex == a &&
                                   job.categoryIndex == c;
                        });
                    std::vector<std::string> row{
                        spec.archs[a].name,
                        toString(spec.categories[c])};
                    if (multi_variant)
                        row.push_back(coordsLabel(
                            spec.optionCoords.empty()
                                ? std::vector<AxisCoordinate>{}
                                : spec.optionCoords[o]));
                    row.push_back(Table::num(geomeanSpeedup(slice)));
                    g.addRow(row);
                }
            }
        }
        g.print(std::cout);
        std::cout << '\n';
    }

    const auto &cs = sweep.cacheStats();
    inform("schedule memo: ", cs.hits, " hits / ", cs.misses,
           " misses (", Table::num(100.0 * cs.hitRate(), 1),
           "% hit rate)");

    if (!cli.getString("json").empty()) {
        ResultSink sink(cli.getString("json"));
        sink.add(sweep);
        sink.flush();
        inform("wrote ", sweep.results().size(), " results to ",
               cli.getString("json"));
    }
    return 0;
}
