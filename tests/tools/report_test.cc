/** @file
 * Contracts of the report CLI (tools/report.hh).
 *  - BenchDiff: record-key matching, the exact failure message when a
 *    baseline record is missing from the candidate (key and side both
 *    named), candidate-only records as notes, modelled-field drift and
 *    the matched==0 fatal path.
 *  - ReportJson / ReportCli: the one JSON reader and argv parser reject
 *    trailing content, empty or duplicate record keys and malformed
 *    numeric flags with exit 2.
 *  - ReportGates: each gate's negative case. The committed BENCH_*.json
 *    baselines are mutated in memory and the gate must fail.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "../../tools/report.hh"

namespace aquoman::tools {
namespace {

Record
makeRecord(double query, double devices, double wall, double modelled)
{
    Record r;
    r["query"] = query;
    r["devices"] = devices;
    r["wall_seconds"] = wall;
    r["modelled_seconds"] = modelled;
    return r;
}

bool
containsMessage(const std::vector<std::string> &msgs,
                const std::string &needle)
{
    for (const std::string &m : msgs)
        if (m.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(BenchDiff, IdenticalReportsMatchCleanly)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 3.0, 4.0)};
    DiffResult d = diffReports(base, base, DiffOptions{});
    EXPECT_FALSE(d.fatal);
    EXPECT_EQ(d.failures, 0);
    EXPECT_EQ(d.matched, 2);
    EXPECT_DOUBLE_EQ(d.wallGeomean, 1.0);
    EXPECT_TRUE(d.notes.empty());
}

TEST(BenchDiff, BaselineOnlyRecordFailsNamingKeyAndSide)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 8, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.0, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_FALSE(d.fatal);
    EXPECT_EQ(d.matched, 1);
    EXPECT_EQ(d.failures, 1);
    // The message must name the missing record's key AND which side
    // lacks it, so a CI log is actionable without rerunning locally.
    EXPECT_TRUE(containsMessage(
        d.failureMessages,
        "record 'query=14,devices=8' missing from candidate report"))
        << (d.failureMessages.empty() ? std::string("<none>")
                                      : d.failureMessages.front());
}

TEST(BenchDiff, CandidateOnlyRecordIsANoteNotAFailure)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(19, 4, 1.0, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 0);
    EXPECT_EQ(d.matched, 1);
    EXPECT_TRUE(containsMessage(
        d.notes,
        "record 'query=19,devices=4' missing from baseline report"));
}

TEST(BenchDiff, ModelledDriftFails)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.0, 2.5)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 1);
    EXPECT_TRUE(containsMessage(d.failureMessages, "modelled_seconds"));
}

TEST(BenchDiff, MissingModelledFieldNamesFieldAndSide)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.0, 2.0)};
    cand[0].erase("modelled_seconds");
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 1);
    EXPECT_TRUE(containsMessage(
        d.failureMessages,
        "field 'modelled_seconds' missing from candidate report"));
}

TEST(BenchDiff, WallClockGateUsesGeomean)
{
    // Individual records may regress as long as the geomean holds.
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.3, 2.0),
                             makeRecord(14, 4, 0.8, 2.0)};
    DiffOptions opt;
    opt.wallThresholdPct = 10.0;
    DiffResult d = diffReports(base, cand, opt);
    // geomean(1.3 * 0.8) = sqrt(1.04) ~ 1.02 <= 1.10.
    EXPECT_EQ(d.failures, 0);
    EXPECT_NEAR(d.wallGeomean, 1.0198, 1e-3);

    cand[1]["wall_seconds"] = 1.3; // geomean 1.3 > 1.10
    DiffResult bad = diffReports(base, cand, opt);
    EXPECT_GE(bad.failures, 1);
    EXPECT_TRUE(containsMessage(bad.failureMessages, "geomean"));
}

TEST(BenchDiff, TrippedWallGateListsPerRecordRatiosWorstFirst)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 1.0, 2.0),
                             makeRecord(19, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.2, 2.0),
                             makeRecord(14, 4, 2.0, 2.0),
                             makeRecord(19, 4, 0.9, 2.0)};
    DiffOptions opt;
    opt.wallThresholdPct = 10.0;
    DiffResult d = diffReports(base, cand, opt);
    ASSERT_GE(d.failures, 1);
    // Every matched record gets a ratio line, sorted worst first, so a
    // CI log pinpoints which queries dragged the geomean over.
    std::vector<std::string> ratio_lines;
    for (const std::string &m : d.failureMessages)
        if (m.find("wall_seconds '") != std::string::npos)
            ratio_lines.push_back(m);
    ASSERT_EQ(ratio_lines.size(), 3u);
    EXPECT_NE(ratio_lines[0].find("'query=14,devices=4' ratio 2.0000"),
              std::string::npos)
        << ratio_lines[0];
    EXPECT_NE(ratio_lines[1].find("'query=6,devices=4' ratio 1.2000"),
              std::string::npos)
        << ratio_lines[1];
    EXPECT_NE(ratio_lines[2].find("'query=19,devices=4' ratio 0.9000"),
              std::string::npos)
        << ratio_lines[2];
    // The breakdown includes the raw baseline -> candidate values.
    EXPECT_NE(ratio_lines[0].find("(1 -> 2)"), std::string::npos)
        << ratio_lines[0];
}

TEST(BenchDiff, HealthyWallGateEmitsNoPerRecordBreakdown)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.05, 2.0),
                             makeRecord(14, 4, 0.95, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 0);
    EXPECT_FALSE(containsMessage(d.failureMessages, "wall_seconds '"));
}

TEST(BenchDiff, VerboseEmitsPerRecordRatioNotesWhenHealthy)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0),
                             makeRecord(14, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.05, 2.0),
                             makeRecord(14, 4, 0.95, 2.0)};
    DiffOptions opt;
    opt.verbose = true;
    DiffResult d = diffReports(base, cand, opt);
    EXPECT_EQ(d.failures, 0);
    // Ratio lines are notes (informational), never failure messages,
    // and appear even though the geomean gate passes.
    EXPECT_FALSE(containsMessage(d.failureMessages, "wall_seconds '"));
    std::vector<std::string> ratio_lines;
    for (const std::string &m : d.notes)
        if (m.find("wall_seconds '") != std::string::npos)
            ratio_lines.push_back(m);
    ASSERT_EQ(ratio_lines.size(), 2u);
    // Worst first.
    EXPECT_NE(ratio_lines[0].find("'query=6,devices=4' ratio 1.0500"),
              std::string::npos)
        << ratio_lines[0];
    EXPECT_NE(ratio_lines[1].find("'query=14,devices=4' ratio 0.9500"),
              std::string::npos)
        << ratio_lines[1];
}

TEST(BenchDiff, NonVerboseHealthyRunEmitsNoRatioNotes)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(6, 4, 1.02, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_EQ(d.failures, 0);
    EXPECT_FALSE(containsMessage(d.notes, "wall_seconds '"));
}

TEST(BenchDiff, NoMatchedRecordsIsFatal)
{
    std::vector<Record> base{makeRecord(6, 4, 1.0, 2.0)};
    std::vector<Record> cand{makeRecord(19, 8, 1.0, 2.0)};
    DiffResult d = diffReports(base, cand, DiffOptions{});
    EXPECT_TRUE(d.fatal);
    EXPECT_FALSE(d.fatalMessage.empty());
}

TEST(BenchDiff, RecordKeyComposition)
{
    Record r = makeRecord(6, 4, 1.0, 2.0);
    r["tenant"] = 2;
    EXPECT_EQ(recordKey(r), "query=6,devices=4,tenant=2");
    Record plain;
    plain["wall_seconds"] = 1.0;
    EXPECT_EQ(recordKey(plain), "");
}

// ---------------------------------------------------------------------
// Input validation: exit 2, naming what is wrong
// ---------------------------------------------------------------------

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = ::testing::TempDir() + "report_test_" + name;
    std::ofstream(path) << text;
    return path;
}

/** argv of `report <args...>`, pointing into @p args. */
std::vector<const char *>
argvOf(const std::vector<std::string> &args)
{
    std::vector<const char *> argv{"report"};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    return argv;
}

int
runReport(const std::vector<std::string> &args)
{
    std::vector<const char *> argv = argvOf(args);
    return reportMain(static_cast<int>(argv.size()), argv.data());
}

TEST(ReportJson, TrailingContentIsAParseError)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson("{\"records\": []} \n", &v, &error)) << error;
    for (const char *text : {"{\"records\": []} }garbage[", "{} xx", "1 2",
                             "[1,]", "{\"a\":nan}", "[-nan]", "[-inf]",
                             "[0x10]", "", "[[[["}) {
        JsonValue bad;
        EXPECT_FALSE(parseJson(text, &bad, &error)) << text;
    }
    EXPECT_FALSE(parseJson("{} }garbage[", &v, &error));
    EXPECT_NE(error.find("trailing content"), std::string::npos) << error;

    std::string good = writeTemp("good.json", "{\"runs\": []}\n");
    std::string bad = writeTemp("trailing.json", "{\"runs\": []}\nxx");
    EXPECT_EQ(runReport({"diff", good, good}), 0);
    EXPECT_EQ(runReport({"diff", good, bad}), 2);
    EXPECT_EQ(runReport({"bench", bad, good}), 2);
}

TEST(ReportCli, DuplicateOrEmptyRecordKeyIsAParseError)
{
    // Two query=1 records: the first drifts 5 -> 9. Matching on a map
    // that kept only the last record would pass this pair.
    std::string base = writeTemp(
        "dup_base.json",
        "{\"records\": [{\"query\": 1, \"modelled_x\": 5},"
        " {\"query\": 1, \"modelled_x\": 7}]}");
    std::string cand = writeTemp(
        "dup_cand.json",
        "{\"records\": [{\"query\": 1, \"modelled_x\": 9},"
        " {\"query\": 1, \"modelled_x\": 7}]}");
    EXPECT_EQ(runReport({"bench", base, cand}), 2);
    std::vector<Record> records;
    std::string error;
    EXPECT_FALSE(readReport(base, &records, &error));
    EXPECT_NE(error.find("'query=1'"), std::string::npos) << error;
    EXPECT_NE(error.find(base), std::string::npos) << error;

    std::string keyless = writeTemp(
        "keyless.json", "{\"records\": [{\"modelled_x\": 5}]}");
    EXPECT_EQ(runReport({"bench", keyless, keyless}), 2);
    EXPECT_FALSE(readReport(keyless, &records, &error));
    EXPECT_NE(error.find("empty identity key"), std::string::npos) << error;
}

TEST(ReportCli, MalformedNumericFlagsAreUsageErrors)
{
    auto parses = [](const std::vector<std::string> &args) {
        std::vector<const char *> argv = argvOf(args);
        ReportArgs parsed;
        std::string error;
        return parseReportArgs(static_cast<int>(argv.size()), argv.data(),
                               &parsed, &error);
    };
    for (const char *bad :
         {"abc", "", "-1", "nan", "inf", "1e999", "5x", " "}) {
        for (const char *flag : {"--wall-threshold-pct", "--model-tolerance",
                                 "--flash-bytes-threshold-pct"})
            EXPECT_FALSE(parses({"bench", "a", "b", flag, bad}))
                << flag << " '" << bad << "'";
        EXPECT_FALSE(parses({"diff", "a", "b", "--tolerance", bad})) << bad;
        EXPECT_FALSE(parses({"anatomy", "a", "--top", bad})) << bad;
    }
    EXPECT_FALSE(parses({"anatomy", "a", "--top", "1.5"}));
    EXPECT_FALSE(parses({"bench", "a", "b", "--wall-threshold-pct"}));
    // Flags belong to their own subcommand only.
    EXPECT_FALSE(parses({"diff", "a", "b", "--verbose"}));
    EXPECT_FALSE(parses({"slo", "a", "--tolerance", "0"}));
    EXPECT_FALSE(parses({"bench", "a"}));
    EXPECT_FALSE(parses({"merge", "a", "b"}));

    EXPECT_TRUE(parses({"bench", "a", "b", "--wall-threshold-pct", "25",
                        "--model-tolerance", "0",
                        "--flash-bytes-threshold-pct", "1e-3", "--verbose"}));
    EXPECT_TRUE(parses({"diff", "a", "b", "--tolerance", "0.5"}));
    EXPECT_TRUE(parses({"anatomy", "a", "--top", "0", "--report", "r",
                        "--json", "j"}));
    EXPECT_TRUE(parses({"slo", "a"}));

    std::string good = writeTemp("flag.json", "{\"records\": []}");
    EXPECT_EQ(runReport({"bench", good, good, "--wall-threshold-pct", "abc"}),
              2);
}

// ---------------------------------------------------------------------
// Gate negatives on the committed baselines
// ---------------------------------------------------------------------

JsonValue
committed(const std::string &name)
{
    JsonValue root;
    std::string error;
    EXPECT_TRUE(parseJsonFile(std::string(AQUOMAN_SOURCE_DIR) + "/" + name,
                              &root, &error))
        << error;
    return root;
}

std::vector<Record>
recordsOf(const JsonValue &root)
{
    std::vector<Record> out;
    std::string error;
    EXPECT_TRUE(recordsFromJson(root, &out, &error)) << error;
    return out;
}

/** Scale @p field by @p factor on every record @p pick selects. */
int
scaleField(JsonValue &root, const char *field, double factor,
           const std::function<bool(const JsonValue &)> &pick)
{
    int scaled = 0;
    for (JsonValue &rec : root.find("records")->array)
        if (JsonValue *v = rec.find(field); v && pick(rec)) {
            v->number *= factor;
            ++scaled;
        }
    return scaled;
}

TEST(ReportGates, Fig16WallRegressionOf20PercentFails)
{
    JsonValue root = committed("BENCH_fig16.json");
    std::vector<Record> base = recordsOf(root);
    ASSERT_EQ(base.size(), 22u);
    EXPECT_EQ(diffReports(base, base, DiffOptions{}).failures, 0);

    scaleField(root, "wall_seconds", 1.2,
               [](const JsonValue &) { return true; });
    DiffResult d = diffReports(base, recordsOf(root), DiffOptions{});
    EXPECT_EQ(d.failures, 1);
    EXPECT_NEAR(d.wallGeomean, 1.2, 1e-9);
    EXPECT_NE(d.failureMessages.front().find("wall_seconds geomean"),
              std::string::npos);
}

TEST(ReportGates, ServiceWorkloadModelledRegressionsFail)
{
    DiffOptions opt;
    opt.wallThresholdPct = 25.0;
    JsonValue clean = committed("BENCH_service_workload.json");
    std::vector<Record> base = recordsOf(clean);
    EXPECT_EQ(diffReports(base, base, opt).failures, 0);

    // Per-tenant p99 x1.5.
    JsonValue p99 = clean;
    int tenants = scaleField(p99, "modelled_p99_latency_seconds", 1.5,
                             [](const JsonValue &r) {
                                 return r.find("tenant") != nullptr
                                     && r.find("modelled_p99_latency_seconds")
                                            ->number > 0.0;
                             });
    ASSERT_GT(tenants, 0);
    EXPECT_EQ(diffReports(base, recordsOf(p99), opt).failures, tenants);

    // Run-level modelled_wait_device_busy_seconds x1.5.
    JsonValue wait = clean;
    int runs = scaleField(wait, "modelled_wait_device_busy_seconds", 1.5,
                          [](const JsonValue &r) {
                              return r.find("tenant") == nullptr
                                  && r.find("modelled_wait_device_busy_"
                                            "seconds")->number > 0.0;
                          });
    ASSERT_GT(runs, 0);
    DiffResult d = diffReports(base, recordsOf(wait), opt);
    EXPECT_EQ(d.failures, runs);
    EXPECT_NE(d.failureMessages.front().find(
                  "modelled_wait_device_busy_seconds drifted"),
              std::string::npos);
}

TEST(ReportGates, SloBreachFailsTheStructuralDiff)
{
    JsonValue base = committed("BENCH_slo_report.json");
    Findings same;
    diffJson("$", base, base, 0.0, same);
    EXPECT_EQ(same.count, 0);

    // Every query of every tenant misses its objective.
    JsonValue breached = base;
    int tenants = 0;
    for (JsonValue &run : breached.find("runs")->array)
        for (JsonValue &t : run.find("slo")->find("tenants")->array) {
            JsonValue *totals = t.find("totals");
            totals->find("violations")->number =
                totals->find("completed")->number;
            totals->find("attainment")->number = 0.0;
            ++tenants;
        }
    ASSERT_GT(tenants, 0);
    Findings st;
    diffJson("$", base, breached, 0.0, st);
    EXPECT_GE(st.count, tenants);
    EXPECT_NE(st.messages.front().find(".totals."), std::string::npos)
        << st.messages.front();
}

TEST(ReportGates, AnatomyCatchesAnInflatedWaitClass)
{
    // One completed query, latency 2s = 0.5 + 0.5 + 1 over the six
    // classes, tiled by two path segments; 0.5s of blamed contention.
    const char *text = R"({"runs": [{"label": "r", "overload": 1,
        "fifo": 0, "queries": [{"id": 0, "name": "q1", "tenant": 0,
        "submit_seconds": 1, "done_seconds": 3, "shed": 0,
        "wait": {"admission_queue": 0.5, "dram_wait": 0,
                 "device_busy": 0.5, "device_exec": 1,
                 "suspend_host": 0, "host_finish": 0},
        "path": [{"start_seconds": 1, "end_seconds": 2},
                 {"start_seconds": 2, "end_seconds": 3}]}],
        "wait_totals": {"admission_queue": 0.5, "dram_wait": 0,
                        "device_busy": 0.5, "device_exec": 1,
                        "suspend_host": 0, "host_finish": 0},
        "blame": {"tenants": ["a"], "seconds": [[0.5]]},
        "tenant_contention_seconds": [0.5]}]})";
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(text, &root, &error)) << error;
    JsonValue &run = root.find("runs")->array[0];
    Findings clean;
    ASSERT_EQ(validateRun(run, "r", clean).size(), 1u);
    EXPECT_EQ(clean.count, 0) << clean.messages.front();

    run.find("queries")->array[0].find("wait")->find("device_busy")
        ->number += 0.5;
    Findings inflated;
    validateRun(run, "r", inflated);
    ASSERT_GE(inflated.count, 1);
    EXPECT_NE(inflated.messages.front().find("wait classes sum to"),
              std::string::npos)
        << inflated.messages.front();
}

} // namespace
} // namespace aquoman::tools
