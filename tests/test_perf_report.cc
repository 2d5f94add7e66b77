/**
 * @file
 * BENCH_perf.json schema: v2 "kernels" section round-trip, v3
 * without "caches.a_schedule", v1/v2 back-compat (historical seeds
 * keep parsing), strict rejection of
 * malformed sections, and the --gate checks: regression band,
 * missing experiments, and threads/fidelity mismatches.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "runtime/perf_report.hh"

namespace griffin {
namespace {

PerfDocument
sampleDocument()
{
    PerfDocument doc;
    doc.threads = 2;
    doc.sample = 0.01;
    doc.rowCap = 4;
    doc.seed = 1;
    doc.totalWallMs = 12.5;
    PerfEntry e;
    e.experiment = "fig5";
    e.jobs = 144;
    e.wallMs = 10.0;
    e.jobsPerSec = 14.4;
    e.threadUtilization = 0.9;
    e.stages.push_back({"operand_gen", 7, 4.5});
    doc.suite.push_back(std::move(e));
    return doc;
}

std::string
renderJson(const PerfDocument &doc)
{
    std::ostringstream os;
    writePerfJson(os, doc);
    return os.str();
}

TEST(PerfReport, KernelsSectionRoundTrips)
{
    PerfDocument doc = sampleDocument();
    doc.kernels.push_back({"nonzero_masks", "avx2", 131072000, 21.0,
                           0.16});
    doc.kernels.push_back({"mt_temper", "avx2", 31200000, 9.1, 0.29});

    PerfDocument back;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(renderJson(doc), back, error))
        << error;
    EXPECT_EQ(back.schemaVersion, perfSchemaVersion);
    ASSERT_EQ(back.kernels.size(), 2u);
    EXPECT_EQ(back.kernels[0].kernel, "nonzero_masks");
    EXPECT_EQ(back.kernels[0].backend, "avx2");
    EXPECT_EQ(back.kernels[0].ops, 131072000u);
    EXPECT_DOUBLE_EQ(back.kernels[0].totalMs, 21.0);
    EXPECT_DOUBLE_EQ(back.kernels[0].nsPerOp, 0.16);
    EXPECT_EQ(back.kernels[1].kernel, "mt_temper");
    ASSERT_EQ(back.suite.size(), 1u);
    EXPECT_EQ(back.suite[0].experiment, "fig5");
}

TEST(PerfReport, KernelsKeyOmittedWhenEmpty)
{
    const std::string text = renderJson(sampleDocument());
    EXPECT_EQ(text.find("\"kernels\""), std::string::npos);

    PerfDocument back;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(text, back, error)) << error;
    EXPECT_TRUE(back.kernels.empty());
}

TEST(PerfReport, V1DocumentWithoutKernelsStillParses)
{
    // A historical seed: schema_version 1 and no "kernels" key.  The
    // v2 parser must accept it unchanged — CI's --gate compare runs
    // against exactly such documents.
    PerfDocument doc = sampleDocument();
    doc.schemaVersion = 1;
    PerfDocument back;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(renderJson(doc), back, error))
        << error;
    EXPECT_EQ(back.schemaVersion, 1);
    EXPECT_TRUE(back.kernels.empty());
    ASSERT_EQ(back.suite.size(), 1u);
    EXPECT_DOUBLE_EQ(back.suite[0].jobsPerSec, 14.4);
}

/** A one-experiment perf document as JSON text; `extra_cache` is
 *  spliced into its "caches" object between "schedule" and
 *  "workset". */
std::string
handWrittenDocument(int version, const std::string &extra_cache)
{
    const std::string cache =
        "{\"hits\": 3, \"misses\": 5, \"hit_rate\": 0.375, "
        "\"entries\": 5, \"resident_bytes\": 640, \"evictions\": 0, "
        "\"loaded_entries\": 0, \"load_hits\": 0}";
    return "{\"schema\": \"griffin_bench_perf\", \"schema_version\": " +
           std::to_string(version) +
           ", \"threads\": 2, \"fidelity\": {\"sample\": 0.01, "
           "\"rowcap\": 4, \"seed\": 1}, \"total_wall_ms\": 9.5, "
           "\"suite\": [{\"experiment\": \"fig5\", \"jobs\": 144, "
           "\"wall_ms\": 9, \"jobs_per_sec\": 16, "
           "\"thread_utilization\": 0.9, "
           "\"pool\": {\"steals\": 1, \"busy_ms\": 16}, "
           "\"stages\": [], \"caches\": {\"schedule\": " +
           cache + ", " + extra_cache + "\"workset\": " + cache + "}}]}";
}

TEST(PerfReport, DocumentWithoutAScheduleParses)
{
    // v3 dropped the always-empty "caches.a_schedule" record: neither
    // the writer nor the parser may need it.
    PerfDocument back;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(handWrittenDocument(3, ""), back, error))
        << error;
    EXPECT_EQ(back.schemaVersion, 3);
    ASSERT_EQ(back.suite.size(), 1u);
    EXPECT_EQ(back.suite[0].scheduleMemo.hits, 3u);
    EXPECT_EQ(back.suite[0].worksetCache.residentBytes, 640u);
    EXPECT_EQ(renderJson(sampleDocument()).find("a_schedule"),
              std::string::npos);
}

TEST(PerfReport, V2DocumentWithAScheduleStillParses)
{
    // bench/baselines/BENCH_perf_seed.json-era documents carry the
    // record; it is read past, not rejected.
    const std::string a_schedule =
        "\"a_schedule\": {\"hits\": 0, \"misses\": 6094, "
        "\"hit_rate\": 0, \"entries\": 6094, \"resident_bytes\": 1, "
        "\"evictions\": 0, \"loaded_entries\": 0, \"load_hits\": 0}, ";
    PerfDocument back;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(handWrittenDocument(2, a_schedule),
                                  back, error))
        << error;
    EXPECT_EQ(back.schemaVersion, 2);
    ASSERT_EQ(back.suite.size(), 1u);
    EXPECT_EQ(back.suite[0].scheduleMemo.misses, 5u);
}

TEST(PerfReport, MalformedKernelsEntryRejected)
{
    PerfDocument doc = sampleDocument();
    doc.kernels.push_back({"le_mask", "scalar", 1000, 1.0, 1.0});
    std::string text = renderJson(doc);
    const auto pos = text.find("\"ns_per_op\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 11, "\"ns_per_opX\"");

    PerfDocument back;
    std::string error;
    EXPECT_FALSE(parsePerfDocument(text, back, error));
    EXPECT_NE(error.find("ns_per_op"), std::string::npos) << error;
}

TEST(PerfReport, NewerSchemaVersionRejected)
{
    PerfDocument doc = sampleDocument();
    doc.schemaVersion = perfSchemaVersion + 1;
    PerfDocument back;
    std::string error;
    EXPECT_FALSE(parsePerfDocument(renderJson(doc), back, error));
    EXPECT_NE(error.find("schema_version"), std::string::npos)
        << error;
}

PerfDocument
suiteWith(std::initializer_list<std::pair<const char *, double>> rates)
{
    PerfDocument doc;
    for (const auto &r : rates) {
        PerfEntry e;
        e.experiment = r.first;
        e.jobsPerSec = r.second;
        doc.suite.push_back(std::move(e));
    }
    return doc;
}

TEST(PerfReport, GateFlagsOnlyRegressionsBeyondTheBand)
{
    // a: -9% (inside the band), b: -20% (violation), c: improved,
    // new-only experiments never violate.
    const PerfDocument old_doc =
        suiteWith({{"a", 100.0}, {"b", 100.0}, {"c", 10.0}});
    const PerfDocument new_doc =
        suiteWith({{"a", 91.0}, {"b", 80.0}, {"c", 25.0},
                   {"new_only", 1.0}});

    const auto violations =
        perfGateViolations(old_doc, new_doc, 0.10);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rfind("b:", 0), 0u) << violations[0];
}

TEST(PerfReport, GateFailsAKernelsOnlyDocument)
{
    // `perf --kernels` with no experiment names simulates nothing; it
    // must not pass a gate whose old document holds a suite.
    const PerfDocument old_doc =
        suiteWith({{"fig5", 12.0}, {"fig6", 3.0}, {"fig7", 2.0}});
    PerfDocument new_doc;
    new_doc.kernels.push_back({"le_mask", "scalar", 1000, 1.0, 1.0});

    const auto violations =
        perfGateViolations(old_doc, new_doc, 0.10);
    ASSERT_EQ(violations.size(), 3u);
    const char *names[] = {"fig5", "fig6", "fig7"};
    for (std::size_t i = 0; i < violations.size(); ++i) {
        EXPECT_EQ(violations[i].rfind(std::string(names[i]) + ":", 0),
                  0u)
            << violations[i];
        EXPECT_NE(violations[i].find("missing"), std::string::npos)
            << violations[i];
    }
}

TEST(PerfReport, GateFailsWhenAnExperimentIsMissing)
{
    const PerfDocument old_doc =
        suiteWith({{"fig5", 12.0}, {"fig6", 3.0}, {"fig7", 2.0}});
    const PerfDocument new_doc =
        suiteWith({{"fig5", 12.0}, {"fig7", 2.0}});

    const auto violations =
        perfGateViolations(old_doc, new_doc, 0.10);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rfind("fig6:", 0), 0u) << violations[0];
}

TEST(PerfReport, GateComparesOnlyLikeAgainstLike)
{
    const PerfDocument base = sampleDocument();
    const auto violationsWith = [&base](auto mutate) {
        PerfDocument changed = base;
        mutate(changed);
        return perfGateViolations(base, changed, 0.10);
    };
    const auto expectOne = [](const std::vector<std::string> &v,
                              const std::string &field) {
        ASSERT_EQ(v.size(), 1u);
        EXPECT_EQ(v[0].rfind(field + " differs", 0), 0u) << v[0];
    };
    expectOne(violationsWith([](PerfDocument &d) { d.threads = 4; }),
              "threads");
    expectOne(violationsWith([](PerfDocument &d) { d.sample = 0.02; }),
              "sample");
    expectOne(violationsWith([](PerfDocument &d) { d.rowCap = 8; }),
              "rowcap");
    expectOne(violationsWith([](PerfDocument &d) { d.seed = 2; }),
              "seed");
    // Every other field (timings, totals, kernels) may differ freely.
    EXPECT_TRUE(violationsWith([](PerfDocument &d) {
                    d.totalWallMs *= 3.0;
                    d.kernels.push_back(
                        {"le_mask", "scalar", 1000, 1.0, 1.0});
                }).empty());
}

TEST(PerfReport, GatePassesOnIdenticalDocuments)
{
    const PerfDocument doc = suiteWith({{"a", 100.0}, {"b", 5.0}});
    EXPECT_TRUE(perfGateViolations(doc, doc, 0.10).empty());
}

TEST(PerfReport, GateFailsAnEmptyOldDocument)
{
    // Nothing to compare against is not a pass, whatever the new
    // document holds.
    const PerfDocument empty;
    const auto violations = perfGateViolations(
        empty, suiteWith({{"fig5", 12.0}}), 0.10);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("no experiments"), std::string::npos)
        << violations[0];
    EXPECT_FALSE(perfGateViolations(empty, empty, 0.10).empty());
}

TEST(PerfReport, GateFailsAnOldEntryWithoutThroughput)
{
    const PerfDocument old_doc = suiteWith({{"a", 100.0}, {"b", 0.0}});
    const auto violations = perfGateViolations(
        old_doc, suiteWith({{"a", 100.0}, {"b", 50.0}}), 0.10);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rfind("b:", 0), 0u) << violations[0];
}

TEST(PerfReport, GateFailsAtHalfTheThroughput)
{
    const PerfDocument old_doc =
        suiteWith({{"fig5", 12.0}, {"fig6", 3.0}, {"fig7", 2.0}});
    const PerfDocument slowed =
        suiteWith({{"fig5", 6.0}, {"fig6", 1.5}, {"fig7", 1.0}});
    EXPECT_EQ(perfGateViolations(old_doc, slowed, 0.10).size(), 3u);
}

} // namespace
} // namespace griffin
