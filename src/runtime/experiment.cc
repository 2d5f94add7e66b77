#include "runtime/experiment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strings.hh"

namespace griffin {

namespace {

std::vector<Experiment> &
registry()
{
    static std::vector<Experiment> experiments;
    return experiments;
}

} // namespace

double
ExperimentContext::archGeomean(std::size_t archIndex) const
{
    GRIFFIN_ASSERT(sweep != nullptr,
                   "archGeomean on a render-only experiment");
    GRIFFIN_ASSERT(archIndex < spec->archs.size(),
                   "archGeomean index out of range");
    return geomeanSpeedup(sweep->slice([&](const SweepJob &job) {
        return job.archIndex == archIndex;
    }));
}

double
ExperimentContext::suiteGeomean(std::size_t archIndex,
                                std::size_t categoryIndex) const
{
    GRIFFIN_ASSERT(sweep != nullptr,
                   "suiteGeomean on a render-only experiment");
    GRIFFIN_ASSERT(archIndex < spec->archs.size() &&
                       categoryIndex < spec->categories.size(),
                   "suiteGeomean index out of range");
    return geomeanSpeedup(sweep->slice([&](const SweepJob &job) {
        return job.archIndex == archIndex &&
               job.categoryIndex == categoryIndex;
    }));
}

double
ExperimentContext::variantGeomean(std::size_t optionsIndex,
                                  std::size_t archIndex,
                                  std::size_t categoryIndex) const
{
    GRIFFIN_ASSERT(sweep != nullptr,
                   "variantGeomean on a render-only experiment");
    GRIFFIN_ASSERT(optionsIndex < spec->optionVariants.size() &&
                       archIndex < spec->archs.size() &&
                       categoryIndex < spec->categories.size(),
                   "variantGeomean index out of range");
    return geomeanSpeedup(sweep->slice([&](const SweepJob &job) {
        return job.optionsIndex == optionsIndex &&
               job.archIndex == archIndex &&
               job.categoryIndex == categoryIndex;
    }));
}

bool
registerExperiment(Experiment experiment)
{
    if (experiment.name.empty())
        fatal("experiment registration needs a name");
    if (!experiment.render)
        fatal("experiment '", experiment.name, "' has no render");
    auto &experiments = registry();
    const auto pos = std::lower_bound(
        experiments.begin(), experiments.end(), experiment,
        [](const Experiment &a, const Experiment &b) {
            return a.name < b.name;
        });
    if (pos != experiments.end() && pos->name == experiment.name)
        fatal("experiment '", experiment.name, "' registered twice");
    experiments.insert(pos, std::move(experiment));
    return true;
}

const std::vector<Experiment> &
experimentRegistry()
{
    return registry();
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &exp : registry())
        if (exp.name == name)
            return &exp;
    return nullptr;
}

namespace {

/** Expand an experiment's plan at its default fidelity (for list/
 *  describe sizing; never simulated). */
SweepSpec
planSpec(const Experiment &exp)
{
    RunOptions run;
    run.sim.sampleFraction = exp.defaultSample;
    run.rowCap = exp.defaultRowCap;
    ExperimentPlan plan = exp.setup(run);
    plan.base.optionVariants = {run};
    return plan.grid.axes().empty()
               ? plan.base
               : plan.grid.toSweepSpec(plan.base);
}

} // namespace

Table
experimentListTable()
{
    Table t("Registered experiments",
            {"name", "jobs", "description"});
    for (const auto &exp : registry()) {
        std::string jobs = "-";
        if (exp.setup)
            jobs = std::to_string(expandSweep(planSpec(exp)).size());
        t.addRow({exp.name, jobs, exp.description});
    }
    return t;
}

std::string
describeExperiment(const Experiment &exp)
{
    std::string out = exp.name + " — " + exp.description + "\n";
    out += "  defaults: --sample " +
           formatShortestDouble(exp.defaultSample) + " --rowcap " +
           std::to_string(exp.defaultRowCap) + "\n";
    if (!exp.setup) {
        out += "  sweep: none (render-only)\n";
        return out;
    }
    RunOptions run;
    run.sim.sampleFraction = exp.defaultSample;
    run.rowCap = exp.defaultRowCap;
    const ExperimentPlan plan = exp.setup(run);
    for (const auto &axis : plan.grid.axes()) {
        out += "  axis " + axis.name + " (" +
               std::to_string(axis.values.size()) + " values):";
        for (const auto &v : axis.values)
            out += " " + v;
        out += "\n";
    }
    const SweepSpec spec = planSpec(exp);
    out += "  grid: " + std::to_string(spec.archs.size()) +
           " archs x " + std::to_string(spec.networks.size()) +
           " networks x " + std::to_string(spec.categories.size()) +
           " categories x " +
           std::to_string(spec.optionVariants.size()) +
           " option variants = " +
           std::to_string(expandSweep(spec).size()) + " jobs";
    if (spec.jobFilter)
        out += " (job filter applied)";
    out += "\n";
    return out;
}

SweepSpec
buildExperimentSpec(const Experiment &exp, const RunOptions &run,
                    const std::string &gridOverride)
{
    if (!exp.setup)
        fatal("experiment '", exp.name,
              "' is render-only and has no sweep spec");
    ExperimentPlan plan = exp.setup(run);
    if (plan.base.optionVariants.size() != 1 ||
        !plan.base.optionCoords.empty())
        fatal("experiment '", exp.name,
              "' setup populated base option variants; RunOptions "
              "sweeps must be grid axes");
    plan.base.optionVariants = {run};
    GridSpec grid = std::move(plan.grid);
    if (!gridOverride.empty()) {
        // Merge the override into the plan's own grid *before*
        // expansion: same-named axes take the override's values in
        // place, new axes append after the plan's — so experiments
        // whose plans already declare RunOptions axes stay
        // overridable, and the merged coordinates stay complete.
        const GridSpec over = GridSpec::parse(gridOverride);
        for (const auto &axis : over.axes())
            for (const auto &locked : plan.lockedAxes)
                if (axis.name == locked)
                    fatal("experiment '", exp.name, "': the '", locked,
                          "' axis is structural (its values and "
                          "order are baked into the rendered "
                          "tables) and cannot be overridden with "
                          "--grid");
        auto overrideValues =
            [&](const std::string &name)
            -> const std::vector<std::string> * {
            for (const auto &axis : over.axes())
                if (axis.name == name)
                    return &axis.values;
            return nullptr;
        };
        GridSpec merged;
        for (const auto &axis : grid.axes()) {
            const auto *replacement = overrideValues(axis.name);
            merged.axis(axis.name, replacement != nullptr
                                       ? *replacement
                                       : axis.values);
        }
        for (const auto &axis : over.axes())
            if (!grid.has(axis.name))
                merged.axis(axis.name, axis.values);
        grid = std::move(merged);
    }
    return grid.axes().empty() ? plan.base : grid.toSweepSpec(plan.base);
}

ExperimentOutcome
runExperiment(const Experiment &exp, const ExperimentRunConfig &config)
{
    ExperimentOutcome outcome;
    ExperimentContext ctx;
    ctx.run = config.run;

    if (exp.setup) {
        SweepSpec spec = buildExperimentSpec(exp, config.run,
                                             config.gridOverride);
        spec.batchArchs = config.batchArchs;
        spec.collectTimings = config.collectTimings;
        spec.shardIndex = config.shardIndex;
        spec.shardCount = config.shardCount;
        outcome.sweep =
            runSweep(spec, config.threads, config.worksetCache);
        outcome.spec = std::move(spec);
        outcome.hasSweep = true;
        ctx.spec = &outcome.spec;
        ctx.sweep = &outcome.sweep;
    }

    // A shard sees only its slice of the grid, so rendered aggregate
    // tables would silently mix complete and missing slices — sharded
    // runs emit result rows only.
    if (config.shardCount <= 1)
        outcome.tables = exp.render(ctx);
    return outcome;
}

void
addFidelityFlags(Cli &cli)
{
    cli.addDouble("sample", -1.0,
                  "fraction of tiles simulated per layer "
                  "(-1 = the experiment's default)");
    cli.addInt("rowcap", -1,
               "max activation rows simulated per layer "
               "(-1 = the experiment's default)");
    cli.addInt("seed", 1, "tensor generation seed");
    cli.addDouble("lanebias", 0.5,
                  "weight lane-imbalance depth (see sparsity.hh)");
}

RunOptions
resolveFidelity(const Cli &cli, double default_sample,
                std::int64_t default_rowcap)
{
    RunOptions run;
    const double sample = cli.getDouble("sample");
    run.sim.sampleFraction = sample < 0.0 ? default_sample : sample;
    run.sim.minSampledTiles = defaultMinSampledTiles;
    const auto rowcap = cli.getInt("rowcap");
    run.rowCap = rowcap < 0 ? default_rowcap : rowcap;
    run.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    run.weightLaneBias = cli.getDouble("lanebias");
    return run;
}

void
addCacheFlags(Cli &cli)
{
    cli.addInt("workset-budget-mb",
               static_cast<std::int64_t>(defaultWorksetByteBudget >>
                                         20),
               "workset-cache byte budget in MiB (0 = unbounded; "
               "worksets hold whole weight matrices, so the default "
               "is bounded)");
}

void
applyCacheFlags(const Cli &cli, WorksetCache &worksets)
{
    const auto budget_mb = cli.getInt("workset-budget-mb");
    if (budget_mb < 0)
        fatal("--workset-budget-mb must be non-negative, got ",
              budget_mb);
    if (budget_mb > 0)
        worksets.setByteBudget(static_cast<std::uint64_t>(budget_mb)
                               << 20);
}

void
parseShardSpec(const std::string &text, std::size_t &index,
               std::size_t &count)
{
    index = 0;
    count = 1;
    if (text.empty())
        return;
    const auto slash = text.find('/');
    bool ok = slash != std::string::npos && slash > 0 &&
              slash + 1 < text.size();
    std::size_t i = 0;
    std::size_t n = 0;
    if (ok) {
        try {
            std::size_t pos = 0;
            i = std::stoul(text.substr(0, slash), &pos);
            ok = pos == slash;
            std::size_t pos2 = 0;
            const auto rest = text.substr(slash + 1);
            n = std::stoul(rest, &pos2);
            ok = ok && pos2 == rest.size();
        } catch (...) {
            ok = false;
        }
    }
    if (!ok || n == 0 || i >= n)
        fatal("--grid-shard '", text,
              "' is not of the form i/n with 0 <= i < n");
    index = i;
    count = n;
}

} // namespace griffin
