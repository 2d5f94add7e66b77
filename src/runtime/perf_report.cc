#include "runtime/perf_report.hh"

#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "runtime/result_sink.hh"

namespace griffin {

namespace {

void
writeCacheObject(std::ostream &os, const CacheStats &stats)
{
    os << "{\"hits\": " << stats.hits << ", \"misses\": " << stats.misses
       << ", \"hit_rate\": " << jsonNumber(stats.hitRate())
       << ", \"entries\": " << stats.entries
       << ", \"resident_bytes\": " << stats.residentBytes
       << ", \"evictions\": " << stats.evictions << "}";
}

} // namespace

void
writePerfJson(std::ostream &os, const PerfDocument &doc)
{
    os << "{\n"
       << "  \"schema\": \"" << perfSchemaName << "\",\n"
       << "  \"schema_version\": " << doc.schemaVersion << ",\n"
       << "  \"threads\": " << doc.threads << ",\n"
       << "  \"fidelity\": {\"sample\": " << jsonNumber(doc.sample)
       << ", \"rowcap\": " << doc.rowCap << ", \"seed\": " << doc.seed
       << "},\n"
       << "  \"total_wall_ms\": " << jsonNumber(doc.totalWallMs)
       << ",\n";
    if (!doc.kernels.empty()) {
        os << "  \"kernels\": [";
        for (std::size_t i = 0; i < doc.kernels.size(); ++i) {
            const PerfKernel &k = doc.kernels[i];
            os << (i == 0 ? "\n" : ",\n") << "    {\"kernel\": \""
               << jsonEscape(k.kernel) << "\", \"backend\": \""
               << jsonEscape(k.backend) << "\", \"ops\": " << k.ops
               << ", \"total_ms\": " << jsonNumber(k.totalMs)
               << ", \"ns_per_op\": " << jsonNumber(k.nsPerOp) << "}";
        }
        os << "\n  ],\n";
    }
    os << "  \"suite\": [";
    for (std::size_t i = 0; i < doc.suite.size(); ++i) {
        const PerfEntry &e = doc.suite[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\n"
           << "      \"experiment\": \"" << jsonEscape(e.experiment)
           << "\",\n"
           << "      \"jobs\": " << e.jobs << ",\n"
           << "      \"wall_ms\": " << jsonNumber(e.wallMs) << ",\n"
           << "      \"jobs_per_sec\": " << jsonNumber(e.jobsPerSec)
           << ",\n"
           << "      \"thread_utilization\": "
           << jsonNumber(e.threadUtilization) << ",\n"
           << "      \"pool\": {\"steals\": " << e.poolSteals
           << ", \"busy_ms\": " << jsonNumber(e.poolBusyMs) << "},\n"
           << "      \"stages\": [";
        for (std::size_t s = 0; s < e.stages.size(); ++s) {
            const PerfStage &stage = e.stages[s];
            os << (s == 0 ? "\n" : ",\n")
               << "        {\"stage\": \"" << jsonEscape(stage.stage)
               << "\", \"count\": " << stage.count
               << ", \"total_ms\": " << jsonNumber(stage.totalMs)
               << "}";
        }
        if (!e.stages.empty())
            os << "\n      ";
        os << "],\n"
           << "      \"caches\": {\n"
           << "        \"schedule\": ";
        writeCacheObject(os, e.scheduleMemo);
        os << ",\n        \"workset\": ";
        writeCacheObject(os, e.worksetCache);
        os << "\n      }\n    }";
    }
    if (!doc.suite.empty())
        os << "\n  ";
    os << "]\n}\n";
}

namespace {

/**
 * Strict field accessors: a missing or mistyped member fails the whole
 * parse with a path-ish message, so a truncated or hand-edited
 * artifact is rejected rather than read as zeros.
 */
const JsonValue *
requireMember(const JsonValue &obj, const std::string &key,
              const char *where, std::string &error)
{
    if (!obj.isObject()) {
        error = std::string(where) + " is not an object";
        return nullptr;
    }
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        error = std::string(where) + " is missing \"" + key + "\"";
    return v;
}

bool
requireNumber(const JsonValue &obj, const std::string &key,
              const char *where, double &into, std::string &error)
{
    const JsonValue *v = requireMember(obj, key, where, error);
    if (v == nullptr)
        return false;
    if (!v->isNumber()) {
        error = std::string(where) + " \"" + key + "\" is not a number";
        return false;
    }
    into = v->asDouble();
    return true;
}

bool
requireUint(const JsonValue &obj, const std::string &key,
            const char *where, std::uint64_t &into, std::string &error)
{
    const JsonValue *v = requireMember(obj, key, where, error);
    if (v == nullptr)
        return false;
    if (!v->isNumber()) {
        error = std::string(where) + " \"" + key + "\" is not a number";
        return false;
    }
    into = v->asUint();
    return true;
}

bool
requireString(const JsonValue &obj, const std::string &key,
              const char *where, std::string &into, std::string &error)
{
    const JsonValue *v = requireMember(obj, key, where, error);
    if (v == nullptr)
        return false;
    if (!v->isString()) {
        error = std::string(where) + " \"" + key + "\" is not a string";
        return false;
    }
    into = v->asString();
    return true;
}

bool
parseCacheObject(const JsonValue &obj, const char *where,
                 CacheStats &into, std::string &error)
{
    double ignored_rate = 0.0;
    return requireUint(obj, "hits", where, into.hits, error) &&
           requireUint(obj, "misses", where, into.misses, error) &&
           requireNumber(obj, "hit_rate", where, ignored_rate, error) &&
           requireUint(obj, "entries", where, into.entries, error) &&
           requireUint(obj, "resident_bytes", where, into.residentBytes,
                       error) &&
           requireUint(obj, "evictions", where, into.evictions, error);
}

} // namespace

bool
parsePerfDocument(const std::string &text, PerfDocument &out,
                  std::string &error)
{
    JsonValue doc;
    if (!parseJson(text, doc, error))
        return false;
    std::string schema;
    if (!requireString(doc, "schema", "document", schema, error))
        return false;
    if (schema != perfSchemaName) {
        error = "\"schema\" is \"" + schema + "\", expected \"" +
                perfSchemaName + "\"";
        return false;
    }
    double version = 0.0;
    if (!requireNumber(doc, "schema_version", "document", version,
                       error))
        return false;
    out.schemaVersion = static_cast<int>(version);
    if (out.schemaVersion < 1 ||
        out.schemaVersion > perfSchemaVersion) {
        error = "\"schema_version\" " +
                std::to_string(out.schemaVersion) +
                " is not understood by this build (max " +
                std::to_string(perfSchemaVersion) + ")";
        return false;
    }
    double threads = 0.0;
    if (!requireNumber(doc, "threads", "document", threads, error))
        return false;
    out.threads = static_cast<int>(threads);
    const JsonValue *fidelity =
        requireMember(doc, "fidelity", "document", error);
    if (fidelity == nullptr)
        return false;
    double rowcap = 0.0;
    if (!requireNumber(*fidelity, "sample", "\"fidelity\"", out.sample,
                       error) ||
        !requireNumber(*fidelity, "rowcap", "\"fidelity\"", rowcap,
                       error) ||
        !requireUint(*fidelity, "seed", "\"fidelity\"", out.seed,
                     error))
        return false;
    out.rowCap = static_cast<std::int64_t>(rowcap);
    if (!requireNumber(doc, "total_wall_ms", "document",
                       out.totalWallMs, error))
        return false;
    // "kernels" arrived in schema v2 and is optional even there (only
    // --kernels runs emit it); its absence is not an error, but a
    // present-and-malformed section is.
    out.kernels.clear();
    const JsonValue *kernels = doc.find("kernels");
    if (kernels != nullptr) {
        if (!kernels->isArray()) {
            error = "\"kernels\" is not an array";
            return false;
        }
        for (const JsonValue &item : kernels->items) {
            PerfKernel k;
            if (!requireString(item, "kernel", "kernels entry",
                               k.kernel, error) ||
                !requireString(item, "backend", "kernels entry",
                               k.backend, error) ||
                !requireUint(item, "ops", "kernels entry", k.ops,
                             error) ||
                !requireNumber(item, "total_ms", "kernels entry",
                               k.totalMs, error) ||
                !requireNumber(item, "ns_per_op", "kernels entry",
                               k.nsPerOp, error))
                return false;
            out.kernels.push_back(std::move(k));
        }
    }
    const JsonValue *suite =
        requireMember(doc, "suite", "document", error);
    if (suite == nullptr)
        return false;
    if (!suite->isArray()) {
        error = "\"suite\" is not an array";
        return false;
    }
    out.suite.clear();
    for (const JsonValue &item : suite->items) {
        PerfEntry e;
        if (!requireString(item, "experiment", "suite entry",
                           e.experiment, error) ||
            !requireUint(item, "jobs", "suite entry", e.jobs, error) ||
            !requireNumber(item, "wall_ms", "suite entry", e.wallMs,
                           error) ||
            !requireNumber(item, "jobs_per_sec", "suite entry",
                           e.jobsPerSec, error) ||
            !requireNumber(item, "thread_utilization", "suite entry",
                           e.threadUtilization, error))
            return false;
        const JsonValue *pool =
            requireMember(item, "pool", "suite entry", error);
        if (pool == nullptr ||
            !requireUint(*pool, "steals", "\"pool\"", e.poolSteals,
                         error) ||
            !requireNumber(*pool, "busy_ms", "\"pool\"", e.poolBusyMs,
                           error))
            return false;
        const JsonValue *stages =
            requireMember(item, "stages", "suite entry", error);
        if (stages == nullptr)
            return false;
        if (!stages->isArray()) {
            error = "\"stages\" is not an array";
            return false;
        }
        for (const JsonValue &stage : stages->items) {
            PerfStage s;
            if (!requireString(stage, "stage", "stage entry", s.stage,
                               error) ||
                !requireUint(stage, "count", "stage entry", s.count,
                             error) ||
                !requireNumber(stage, "total_ms", "stage entry",
                               s.totalMs, error))
                return false;
            e.stages.push_back(std::move(s));
        }
        const JsonValue *caches =
            requireMember(item, "caches", "suite entry", error);
        if (caches == nullptr)
            return false;
        // v1/v2 documents also carry "a_schedule"; it is ignored.
        const JsonValue *schedule =
            requireMember(*caches, "schedule", "\"caches\"", error);
        const JsonValue *workset =
            schedule == nullptr
                ? nullptr
                : requireMember(*caches, "workset", "\"caches\"",
                                error);
        if (workset == nullptr ||
            !parseCacheObject(*schedule, "\"caches.schedule\"",
                              e.scheduleMemo, error) ||
            !parseCacheObject(*workset, "\"caches.workset\"",
                              e.worksetCache, error))
            return false;
        out.suite.push_back(std::move(e));
    }
    return true;
}

PerfDocument
loadPerfDocument(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open perf document '", path, "'");
    std::ostringstream text;
    text << is.rdbuf();
    PerfDocument doc;
    std::string error;
    if (!parsePerfDocument(text.str(), doc, error))
        fatal("perf document '", path, "': ", error);
    return doc;
}

namespace {

std::string
deltaPercent(double old_value, double new_value)
{
    if (old_value == 0.0)
        return "-";
    const double pct = (new_value - old_value) / old_value * 100.0;
    return (pct >= 0.0 ? "+" : "") + Table::num(pct, 1) + "%";
}

const PerfEntry *
findEntry(const PerfDocument &doc, const std::string &experiment)
{
    for (const auto &e : doc.suite)
        if (e.experiment == experiment)
            return &e;
    return nullptr;
}

const PerfStage *
findStage(const PerfEntry &entry, const std::string &stage)
{
    for (const auto &s : entry.stages)
        if (s.stage == stage)
            return &s;
    return nullptr;
}

/** Old document's order first, new-only names appended after. */
std::vector<std::string>
unionNames(const std::vector<std::string> &old_names,
           const std::vector<std::string> &new_names)
{
    std::vector<std::string> out = old_names;
    for (const auto &name : new_names) {
        bool present = false;
        for (const auto &have : out)
            present = present || have == name;
        if (!present)
            out.push_back(name);
    }
    return out;
}

} // namespace

std::vector<Table>
renderPerfCompare(const PerfDocument &oldDoc, const PerfDocument &newDoc)
{
    std::vector<std::string> old_names;
    std::vector<std::string> new_names;
    for (const auto &e : oldDoc.suite)
        old_names.push_back(e.experiment);
    for (const auto &e : newDoc.suite)
        new_names.push_back(e.experiment);
    const auto experiments = unionNames(old_names, new_names);

    Table summary("Perf comparison (old -> new)",
                  {"experiment", "wall_ms old", "wall_ms new", "delta",
                   "jobs/s old", "jobs/s new", "util old", "util new"});
    for (const auto &name : experiments) {
        const PerfEntry *o = findEntry(oldDoc, name);
        const PerfEntry *n = findEntry(newDoc, name);
        summary.addRow(
            {name,
             o != nullptr ? Table::num(o->wallMs) : "-",
             n != nullptr ? Table::num(n->wallMs) : "-",
             o != nullptr && n != nullptr
                 ? deltaPercent(o->wallMs, n->wallMs)
                 : "-",
             o != nullptr ? Table::num(o->jobsPerSec, 1) : "-",
             n != nullptr ? Table::num(n->jobsPerSec, 1) : "-",
             o != nullptr ? Table::num(o->threadUtilization) : "-",
             n != nullptr ? Table::num(n->threadUtilization) : "-"});
    }

    Table stages("Per-stage wall time (old -> new)",
                 {"experiment", "stage", "total_ms old", "total_ms new",
                  "delta"});
    for (const auto &name : experiments) {
        const PerfEntry *o = findEntry(oldDoc, name);
        const PerfEntry *n = findEntry(newDoc, name);
        std::vector<std::string> old_stages;
        std::vector<std::string> new_stages;
        if (o != nullptr)
            for (const auto &s : o->stages)
                old_stages.push_back(s.stage);
        if (n != nullptr)
            for (const auto &s : n->stages)
                new_stages.push_back(s.stage);
        for (const auto &stage : unionNames(old_stages, new_stages)) {
            const PerfStage *os_ =
                o != nullptr ? findStage(*o, stage) : nullptr;
            const PerfStage *ns_ =
                n != nullptr ? findStage(*n, stage) : nullptr;
            stages.addRow(
                {name, stage,
                 os_ != nullptr ? Table::num(os_->totalMs) : "-",
                 ns_ != nullptr ? Table::num(ns_->totalMs) : "-",
                 os_ != nullptr && ns_ != nullptr
                     ? deltaPercent(os_->totalMs, ns_->totalMs)
                     : "-"});
        }
    }

    return {std::move(summary), std::move(stages)};
}

std::vector<std::string>
perfGateViolations(const PerfDocument &oldDoc, const PerfDocument &newDoc,
                   double tolerance)
{
    std::vector<std::string> violations;
    // Throughput is only comparable at the same parallelism and
    // fidelity; a mismatch is a violation, not a pass.
    const auto mismatch = [&violations](const char *field,
                                        const auto &o, const auto &n) {
        if (o != n) {
            std::ostringstream os;
            os << field << " differs (old " << o << ", new " << n
               << "); the gate compares like against like";
            violations.push_back(os.str());
        }
    };
    mismatch("threads", oldDoc.threads, newDoc.threads);
    mismatch("sample", oldDoc.sample, newDoc.sample);
    mismatch("rowcap", oldDoc.rowCap, newDoc.rowCap);
    mismatch("seed", oldDoc.seed, newDoc.seed);
    // An old document with nothing to compare against would pass every
    // new one.
    if (oldDoc.suite.empty())
        violations.push_back("the old document has no experiments; the "
                             "gate has nothing to hold the new one to");
    for (const auto &o : oldDoc.suite) {
        const PerfEntry *n = findEntry(newDoc, o.experiment);
        if (n == nullptr) {
            violations.push_back(o.experiment +
                                 ": missing from the new document");
            continue;
        }
        if (o.jobsPerSec <= 0.0) {
            violations.push_back(o.experiment + ": old jobs_per_sec " +
                                 Table::num(o.jobsPerSec, 2) +
                                 " is not positive; no floor to hold");
            continue;
        }
        const double floor = o.jobsPerSec * (1.0 - tolerance);
        if (n->jobsPerSec < floor)
            violations.push_back(
                o.experiment + ": jobs_per_sec " +
                Table::num(n->jobsPerSec, 2) + " is below " +
                Table::num(floor, 2) + " (old " +
                Table::num(o.jobsPerSec, 2) + " - " +
                Table::num(tolerance * 100.0, 0) + "% band)");
    }
    return violations;
}

} // namespace griffin
