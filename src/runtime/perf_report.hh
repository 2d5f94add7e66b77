/**
 * @file
 * The BENCH_perf.json perf-trajectory artifact.
 *
 * `griffin_bench perf` runs a pinned microbench suite and serializes
 * its execution profile — per-stage wall-time breakdown (from
 * Telemetry::stageBreakdown), cache hit rates, and thread-pool
 * utilization — as a schema-versioned JSON document.  The document is
 * the repo's perf trajectory: CI produces one per run, and
 * `perf --compare old.json new.json` renders the run-over-run deltas
 * that let a scheduler or SIMD change be judged against the checked-in
 * seed (bench/baselines/BENCH_perf_seed.json).
 *
 * Unlike result documents, perf documents are machine- and load-
 * dependent by nature; nothing here participates in the byte-identical
 * baseline guarantee.  The schema name/version pair is what consumers
 * validate: parsePerfDocument() rejects any document whose "schema"
 * is not griffin_bench_perf or whose "schema_version" is newer than
 * this build understands.
 */

#ifndef GRIFFIN_RUNTIME_PERF_REPORT_HH
#define GRIFFIN_RUNTIME_PERF_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "runtime/cache_key.hh"

namespace griffin {

constexpr const char *perfSchemaName = "griffin_bench_perf";
/** v2 added the optional "kernels" micro-benchmark section
 *  (`griffin_bench perf --kernels`); v3 dropped the always-empty
 *  "caches.a_schedule" record; v4 dropped the always-zero
 *  "loaded_entries"/"load_hits" cache fields.  Older documents still
 *  parse (those records and fields are ignored), so historical seeds
 *  keep working as compare inputs. */
constexpr int perfSchemaVersion = 4;

/** One pipeline stage's merged wall-time total within one entry. */
struct PerfStage
{
    std::string stage;
    std::uint64_t count = 0;
    double totalMs = 0.0;
};

/** One suite experiment's execution profile. */
struct PerfEntry
{
    std::string experiment;
    std::uint64_t jobs = 0;
    double wallMs = 0.0;
    double jobsPerSec = 0.0;
    /** pool busy time / (threads * wall time), 0..1. */
    double threadUtilization = 0.0;
    std::uint64_t poolSteals = 0;
    double poolBusyMs = 0.0;
    std::vector<PerfStage> stages; ///< stage-name order
    CacheStats scheduleMemo;
    CacheStats worksetCache;
};

/**
 * One SIMD kernel's micro-benchmark sample (schema v2 "kernels"
 * section): `ops` elements processed across the timed repetitions of
 * one KernelTable entry under the named dispatch backend.
 */
struct PerfKernel
{
    std::string kernel;
    std::string backend;
    std::uint64_t ops = 0;
    double totalMs = 0.0;
    double nsPerOp = 0.0;
};

/** The whole artifact. */
struct PerfDocument
{
    int schemaVersion = perfSchemaVersion;
    int threads = 1;
    double sample = 0.0;
    std::int64_t rowCap = 0;
    std::uint64_t seed = 0;
    double totalWallMs = 0.0;
    std::vector<PerfEntry> suite; ///< suite run order
    /** `perf --kernels` micro-bench rows; empty when the mode was not
     *  requested (the "kernels" key is then omitted entirely, and v1
     *  documents never carry it). */
    std::vector<PerfKernel> kernels;
};

/** Serialize as pretty JSON with a fixed key order. */
void writePerfJson(std::ostream &os, const PerfDocument &doc);

/**
 * Parse + schema-validate one perf document.  Returns false and fills
 * `error` on malformed JSON, a wrong "schema" tag, a "schema_version"
 * this build does not understand, or a missing/mistyped field.
 */
bool parsePerfDocument(const std::string &text, PerfDocument &out,
                       std::string &error);

/** Read + parse a perf document file; fatal() on any failure. */
PerfDocument loadPerfDocument(const std::string &path);

/**
 * Run-over-run deltas: a summary table (wall time, throughput,
 * utilization per experiment) and a per-stage wall-time table.
 * Experiments or stages present in only one document render with "-"
 * cells on the missing side.
 */
std::vector<Table> renderPerfCompare(const PerfDocument &oldDoc,
                                     const PerfDocument &newDoc);

/**
 * Gating comparison (`perf --compare --gate`): one human-readable
 * violation line per differing run parameter (threads, sample,
 * rowcap, seed), for an `oldDoc` without experiments, per experiment
 * of `oldDoc` missing from `newDoc` or without a positive
 * jobs_per_sec, and per experiment whose jobs_per_sec regressed by
 * more than `tolerance` (0.10 = the CI band).  Improvements and
 * experiments only in `newDoc` never violate.  Empty result = gate
 * passes.
 */
std::vector<std::string> perfGateViolations(const PerfDocument &oldDoc,
                                            const PerfDocument &newDoc,
                                            double tolerance);

} // namespace griffin

#endif // GRIFFIN_RUNTIME_PERF_REPORT_HH
