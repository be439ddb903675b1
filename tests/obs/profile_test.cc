/**
 * @file
 * Tests for the query profiler: the cost-attribution tree's exact-sum
 * invariants (on the tree and on its JSON read back by the report
 * CLI's reader, for all 22 queries), the determinism contract (profile
 * JSON byte-identical across thread counts and batch modes), the
 * SuspendReason taxonomy, the flight recorder ring, and the debug
 * ledger audits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "aquoman/device.hh"
#include "aquoman/query_profile.hh"
#include "common/batch_mode.hh"
#include "common/thread_pool.hh"
#include "engine/host_model.hh"
#include "obs/profile.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

#include "../../tools/report.hh"

namespace aquoman {
namespace {

constexpr double kSf = 0.01;

const tpch::TpchDatabase &
database()
{
    static tpch::TpchDatabase db =
        tpch::TpchDatabase::generate(tpch::TpchConfig{kSf, 19920101});
    return db;
}

struct RunArtifacts
{
    OffloadedQueryResult result;
    obs::QueryProfile profile;
};

/** Run query @p q on one device and build its profile. */
RunArtifacts
runQuery(int q)
{
    FlashConfig fc;
    fc.capacityBytes = 8ll << 30;
    FlashDevice flash(fc);
    ControllerSwitch sw(flash);
    TableStore store(sw);
    Catalog catalog;
    database().installInto(catalog, store);

    AquomanDevice dev(catalog, sw, AquomanConfig{});
    RunArtifacts out{dev.runQuery(tpch::tpchQuery(q, kSf)), {}};

    HostModel host(HostConfig::large());
    const AquomanRunStats &st = out.result.stats;
    HostRunEstimate est = host.estimate(st.hostResidual);
    HostPhaseProfile hp;
    hp.hostSeconds = est.runtime;
    hp.dmaSeconds = static_cast<double>(st.dmaBytes)
        / host.cfg().storageReadBandwidth;
    hp.dmaBytes = st.dmaBytes;
    out.profile = buildQueryProfile("q" + std::to_string(q),
                                    out.result.compilation, st, hp);
    return out;
}

void
forEachNode(const obs::ProfileNode &n,
            const std::function<void(const obs::ProfileNode &)> &fn)
{
    fn(n);
    for (const obs::ProfileNode &c : n.children)
        forEachNode(c, fn);
}

/** @p p's JSON rendering, read back by the report CLI's reader. */
tools::JsonValue
readBack(const obs::QueryProfile &p)
{
    tools::JsonValue root;
    std::string error;
    EXPECT_TRUE(tools::parseJson(p.jsonString(), &root, &error)) << error;
    return root;
}

/** Visit the JSON profile tree below @p n in pre-order. */
void
forEachJsonNode(const tools::JsonValue &n,
                const std::function<void(const tools::JsonValue &)> &fn)
{
    fn(n);
    for (const tools::JsonValue &c : tools::elements(n.find("children")))
        forEachJsonNode(c, fn);
}

// ---------------------------------------------------------------------
// Exact-sum invariants
// ---------------------------------------------------------------------

TEST(ProfileSums, StageSecondsSumExactlyToNodeSeconds)
{
    for (int q = 1; q <= 22; ++q) {
        RunArtifacts run = runQuery(q);
        forEachNode(run.profile.root, [&](const obs::ProfileNode &n) {
            double sum = 0.0;
            for (int i = 0; i < obs::kNumPipeStages; ++i)
                sum += n.stages.sec[i];
            EXPECT_EQ(sum, n.selfSeconds())
                << "q" << q << " node " << n.name;
        });
        // The %.17g rendering keeps the sum bitwise: stage_seconds, in
        // file order, add up to the node's seconds.
        tools::JsonValue json = readBack(run.profile);
        forEachJsonNode(*json.find("root"), [&](const tools::JsonValue &n) {
            double sum = 0.0;
            for (const auto &[stage, v] : n.find("stage_seconds")->object)
                sum += v.number;
            EXPECT_EQ(sum, tools::num(n.find("seconds")))
                << "q" << q << " JSON node " << tools::strOf(n.find("name"));
        });
    }
}

TEST(ProfileSums, TreeTotalReproducesDevicePlusHostSeconds)
{
    for (int q = 1; q <= 22; ++q) {
        RunArtifacts run = runQuery(q);
        const AquomanRunStats &st = run.result.stats;
        HostModel host(HostConfig::large());
        HostRunEstimate est = host.estimate(st.hostResidual);
        double host_phase = est.runtime
            + static_cast<double>(st.dmaBytes)
                / host.cfg().storageReadBandwidth;
        // Pre-order visit order matches chronological accrual order,
        // so the sum reproduces the ledger totals bitwise.
        EXPECT_EQ(run.profile.totalSeconds(),
                  st.deviceSeconds + host_phase)
            << "q" << q;
        // So does the pre-order sum of the rendered node seconds.
        tools::JsonValue json = readBack(run.profile);
        double total = 0.0;
        forEachJsonNode(*json.find("root"), [&](const tools::JsonValue &n) {
            total += tools::num(n.find("seconds"));
        });
        EXPECT_EQ(total, tools::num(json.find("total_seconds"))) << "q" << q;
        EXPECT_EQ(total, run.profile.totalSeconds()) << "q" << q;
    }
}

TEST(ProfileSums, TaskSecondsPartitionDeviceSeconds)
{
    RunArtifacts run = runQuery(1);
    const AquomanRunStats &st = run.result.stats;
    ASSERT_FALSE(st.tasks.empty());
    double acc = 0.0;
    std::int64_t bytes = 0;
    for (const TableTaskRecord &t : st.tasks) {
        acc += t.seconds;
        bytes += t.flashBytes;
    }
    EXPECT_EQ(acc, st.deviceSeconds);
    EXPECT_EQ(bytes, st.deviceFlashBytes);
}

// ---------------------------------------------------------------------
// Determinism: profile JSON byte-identical across THREADS x BATCH
// ---------------------------------------------------------------------

class ProfileDeterminism : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        ThreadPool::setGlobalParallelism(
            ThreadPool::configuredParallelism());
        // Restore whatever AQUOMAN_BATCH asked for, even on failure.
        const char *env = std::getenv("AQUOMAN_BATCH");
        setBatchExecutionEnabled(env == nullptr
                                 || std::string_view(env) != "0");
    }
};

TEST_F(ProfileDeterminism, JsonIdenticalAcrossThreadsAndBatchMode)
{
    for (int q : {1, 6, 13}) {
        std::vector<std::string> renders;
        for (int threads : {1, 4}) {
            for (bool batch : {false, true}) {
                ThreadPool::setGlobalParallelism(threads);
                setBatchExecutionEnabled(batch);
                renders.push_back(runQuery(q).profile.jsonString());
            }
        }
        for (std::size_t i = 1; i < renders.size(); ++i)
            EXPECT_EQ(renders[0], renders[i])
                << "q" << q << " variant " << i;
    }
}

// ---------------------------------------------------------------------
// SuspendReason taxonomy
// ---------------------------------------------------------------------

TEST(SuspendReasons, FullyOffloadedQueryHasNone)
{
    RunArtifacts run = runQuery(6);
    EXPECT_EQ(run.profile.suspend, obs::SuspendReason::None);
    EXPECT_EQ(run.profile.offloadClass, "full");
}

TEST(SuspendReasons, RegexOverWideStringHeapClassifies)
{
    // Q13 filters orders on a regex over o_comment: too many distinct
    // strings for the accelerator cache, so the compiler forces the
    // query to the host with a structured reason.
    RunArtifacts run = runQuery(13);
    EXPECT_EQ(run.profile.suspend, obs::SuspendReason::StringHeapRegex);
    EXPECT_EQ(run.result.stats.tasks.empty(),
              run.profile.offloadClass == "none");
}

TEST(SuspendReasons, NamesAreStable)
{
    EXPECT_STREQ(obs::suspendReasonName(obs::SuspendReason::None),
                 "none");
    EXPECT_STREQ(
        obs::suspendReasonName(obs::SuspendReason::MidPlanGroupBy),
        "mid_plan_group_by");
    EXPECT_STREQ(
        obs::suspendReasonName(obs::SuspendReason::StringHeapRegex),
        "string_heap_regex");
    EXPECT_STREQ(obs::suspendReasonName(obs::SuspendReason::GroupSpill),
                 "group_spill");
    EXPECT_STREQ(
        obs::suspendReasonName(obs::SuspendReason::DramOverflow),
        "dram_overflow");
    EXPECT_STREQ(
        obs::suspendReasonName(obs::SuspendReason::AdmissionDram),
        "admission_dram");
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

TEST(ProfileRender, TextTreeCarriesHeaderAndBottlenecks)
{
    RunArtifacts run = runQuery(1);
    std::string text = run.profile.textString();
    EXPECT_NE(text.find("EXPLAIN ANALYZE q1"), std::string::npos);
    EXPECT_NE(text.find("class=full"), std::string::npos);
    EXPECT_NE(text.find("[table-task]"), std::string::npos);
    // q1 is flash-bound on raw layouts and decode-bound on encoded
    // ones; either way the bottleneck column names a pipeline stage.
    EXPECT_TRUE(text.find("flash_read") != std::string::npos
                || text.find("decode") != std::string::npos);
}

TEST(ProfileRender, JsonStageSecondsUseStableKeys)
{
    RunArtifacts run = runQuery(6);
    std::string json = run.profile.jsonString();
    EXPECT_NE(json.find("\"query\":\"q6\""), std::string::npos);
    EXPECT_NE(json.find("\"stage_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"flash_read\""), std::string::npos);
    EXPECT_NE(json.find("\"offload_class\":\"full\""),
              std::string::npos);
}

TEST(ProfileRender, HostResidualOperatorsReportHostOps)
{
    RunArtifacts run = runQuery(13); // host-heavy query
    EXPECT_FALSE(run.result.stats.hostOps.children.empty());
}

// ---------------------------------------------------------------------
// Flight recorder ring
// ---------------------------------------------------------------------

TEST(FlightRecorder, RingKeepsNewestAndCountsDrops)
{
    obs::FlightRecorder fr(4);
    for (int i = 0; i < 10; ++i)
        fr.record(static_cast<double>(i), "tick",
                  "s" + std::to_string(i), "");
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.recorded(), 10);
    EXPECT_EQ(fr.dropped(), 6);
    std::vector<obs::FlightEvent> events = fr.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().subject, "s6"); // oldest retained
    EXPECT_EQ(events.back().subject, "s9");  // newest
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].seq, events[i].seq);
}

TEST(FlightRecorder, OverwriteAccountingAcrossCapacities)
{
    // The ring's size / recorded / dropped ledger must stay exact at
    // the degenerate capacity 1, the default 256, and an oversized
    // 4096 that never wraps.
    for (std::size_t cap : {std::size_t{1}, std::size_t{256},
                            std::size_t{4096}}) {
        obs::FlightRecorder fr(cap);
        EXPECT_EQ(fr.capacityEvents(), cap);
        const int total = 1000;
        for (int i = 0; i < total; ++i)
            fr.record(static_cast<double>(i), "tick",
                      "s" + std::to_string(i), "");
        std::size_t expect_size =
            std::min(cap, static_cast<std::size_t>(total));
        EXPECT_EQ(fr.size(), expect_size) << "cap " << cap;
        EXPECT_EQ(fr.recorded(), total) << "cap " << cap;
        EXPECT_EQ(fr.dropped(),
                  static_cast<std::int64_t>(total - expect_size))
            << "cap " << cap;
        std::vector<obs::FlightEvent> events = fr.snapshot();
        ASSERT_EQ(events.size(), expect_size) << "cap " << cap;
        // Oldest retained is exactly the first not-overwritten event,
        // and sequence numbers are contiguous through the wrap.
        EXPECT_EQ(events.front().seq,
                  static_cast<std::int64_t>(total - expect_size))
            << "cap " << cap;
        for (std::size_t i = 1; i < events.size(); ++i)
            EXPECT_EQ(events[i].seq, events[i - 1].seq + 1)
                << "cap " << cap;
    }
}

TEST(FlightRecorder, RenderMentionsWhyAndOverwrites)
{
    obs::FlightRecorder fr(2);
    fr.record(0.5, "submit", "q1#0", "");
    fr.record(1.5, "suspend", "q1#0", "dram");
    fr.record(2.5, "done", "q1#0", "");
    std::ostringstream os;
    fr.render(os, "unit test dump");
    std::string text = os.str();
    EXPECT_NE(text.find("unit test dump"), std::string::npos);
    EXPECT_NE(text.find("suspend"), std::string::npos);
    EXPECT_NE(text.find("overwritten"), std::string::npos);
    EXPECT_EQ(text.find("submit"), std::string::npos); // overwritten
}

// ---------------------------------------------------------------------
// Ledger audits
// ---------------------------------------------------------------------

TEST(LedgerAudit, PassesOnConsistentLedgersAndCatchesDrift)
{
    obs::LedgerAudit audit;
    audit.taskSeconds = {0.25, 0.5, 0.125};
    audit.deviceSeconds = 0.25 + 0.5 + 0.125;
    audit.taskFlashBytes = {100, 200};
    audit.deviceFlashBytes = 300;
    std::string err;
    EXPECT_TRUE(obs::auditLedgers(audit, &err)) << err;

    audit.deviceFlashBytes = 301;
    EXPECT_FALSE(obs::auditLedgers(audit, &err));
    EXPECT_NE(err.find("flash"), std::string::npos);

    audit.deviceFlashBytes = 300;
    audit.deviceSeconds += 1e-9;
    EXPECT_FALSE(obs::auditLedgers(audit, &err));
}

TEST(LedgerAudit, PortPartitionChecksExpectedTotal)
{
    obs::LedgerAudit audit;
    audit.portBytes = {4096, 8192};
    audit.expectedPortTotal = 4096 + 8192;
    std::string err;
    EXPECT_TRUE(obs::auditLedgers(audit, &err)) << err;

    audit.expectedPortTotal += 1;
    EXPECT_FALSE(obs::auditLedgers(audit, &err));
}

TEST(LedgerAudit, RealRunPassesAudit)
{
    RunArtifacts run = runQuery(1);
    const AquomanRunStats &st = run.result.stats;
    obs::LedgerAudit audit;
    for (const TableTaskRecord &t : st.tasks) {
        audit.taskSeconds.push_back(t.seconds);
        audit.taskFlashBytes.push_back(t.flashBytes);
    }
    audit.deviceSeconds = st.deviceSeconds;
    audit.deviceFlashBytes = st.deviceFlashBytes;
    std::string err;
    EXPECT_TRUE(obs::auditLedgers(audit, &err)) << err;
}

} // namespace
} // namespace aquoman
