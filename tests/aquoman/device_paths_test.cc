/** @file
 * Targeted tests for the device executor's join strategies and
 * Swissknife paths that TPC-H exercises only lightly: the general
 * sort-merge path (non-dense keys), semi/anti joins with residuals,
 * the regex accelerator inside transforms, and the TOPK operator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "aquoman/device.hh"
#include "common/batch_mode.hh"
#include "common/rng.hh"

namespace aquoman {
namespace {

std::vector<std::string>
canon(const RelTable &t)
{
    std::vector<std::string> rows;
    for (std::int64_t r = 0; r < t.numRows(); ++r) {
        std::ostringstream os;
        for (int c = 0; c < t.numColumns(); ++c) {
            if (t.col(c).type == ColumnType::Varchar)
                os << t.col(c).str(r) << "|";
            else
                os << t.col(c).get(r) << "|";
        }
        rows.push_back(os.str());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

class DevicePathsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        flash = std::make_unique<FlashDevice>(flashConfig());
        sw = std::make_unique<ControllerSwitch>(*flash);
        store = std::make_unique<TableStore>(*sw);

        // "events": a fact table whose join key is NOT a dense pk
        // (forces the sort-merge path) plus a text column with a small
        // dictionary (regex-accelerator friendly).
        auto ev = std::make_shared<Table>("events");
        auto &eid = ev->addColumn("e_id", ColumnType::Int64);
        auto &code = ev->addColumn("e_code", ColumnType::Int64);
        auto &val = ev->addColumn("e_val", ColumnType::Decimal);
        auto &tag = ev->addColumn("e_tag", ColumnType::Varchar);
        Rng rng(77);
        const char *tags[] = {"alpha-hot", "alpha-cold", "beta-hot",
                              "beta-cold"};
        for (int i = 1; i <= 4000; ++i) {
            eid.push(i);
            code.push(rng.uniform(0, 499) * 7 + 3); // sparse codes
            val.push(rng.uniform(0, 100000));
            ev->pushString(tag, tags[rng.uniform(0, 3)]);
        }
        eid.setSorted(true);

        // "codes": keyed by the same sparse code domain (non-dense).
        auto cd = std::make_shared<Table>("codes");
        auto &ck = cd->addColumn("c_code", ColumnType::Int64);
        auto &cw = cd->addColumn("c_weight", ColumnType::Int64);
        std::vector<std::int64_t> keys;
        for (int k = 0; k < 500; ++k)
            keys.push_back(k * 7 + 3);
        // Shuffle so neither side's key stream arrives sorted.
        for (std::size_t i = keys.size(); i-- > 1;)
            std::swap(keys[i], keys[rng.uniform(0, i)]);
        for (std::int64_t k : keys) {
            ck.push(k);
            cw.push(k % 10);
        }

        catalog.put(ev, store->store(ev));
        catalog.get("events").densePrimaryKey = "e_id";
        catalog.put(cd, store->store(cd));
    }

    static FlashConfig
    flashConfig()
    {
        FlashConfig fc;
        fc.capacityBytes = 1ll << 30;
        return fc;
    }

    RelTable
    baseline(const Query &q)
    {
        Executor ex(catalog);
        return ex.run(q);
    }

    OffloadedQueryResult
    device(const Query &q, AquomanConfig cfg = AquomanConfig::paper40())
    {
        AquomanDevice dev(catalog, *sw, cfg);
        return dev.runQuery(q);
    }

    bool
    logContains(const AquomanRunStats &st, const std::string &needle)
    {
        for (const auto &line : st.taskLog)
            if (line.find(needle) != std::string::npos)
                return true;
        return false;
    }

    std::unique_ptr<FlashDevice> flash;
    std::unique_ptr<ControllerSwitch> sw;
    std::unique_ptr<TableStore> store;
    Catalog catalog;
};

TEST_F(DevicePathsTest, SortMergeJoinPathOnNonDenseKeys)
{
    // Neither join key is a dense primary key and the codes side is
    // shuffled, so the device must use the streaming sorter + merger.
    Query q{"sm",
            {{"out", groupBy(
                  join(JoinType::Inner,
                       filter(scan("events"),
                              gt(col("e_val"), litDec("100.00"))),
                       scan("codes"), {"e_code"}, {"c_code"}),
                  {"c_weight"},
                  {{"total", AggKind::Sum, col("e_val")},
                   {"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_EQ(canon(got.result), canon(want));
    EXPECT_TRUE(logContains(got.stats, "SORT_MERGE"));
    EXPECT_TRUE(logContains(got.stats, "SORT"));
}

TEST_F(DevicePathsTest, SemiAndAntiWithResidualOnDevice)
{
    // Events that share a code with a *different, bigger* event.
    auto semi = groupBy(
        join(JoinType::LeftSemi, scan("events"),
             scan("events", "o", {"e_id", "e_code", "e_val"}),
             {"e_code"}, {"o.e_code"},
             andE(ne(col("e_id"), col("o.e_id")),
                  lt(col("e_val"), col("o.e_val")))),
        {}, {{"n", AggKind::Count, nullptr}});
    auto anti = groupBy(
        join(JoinType::LeftAnti, scan("events"),
             scan("events", "o", {"e_id", "e_code", "e_val"}),
             {"e_code"}, {"o.e_code"},
             andE(ne(col("e_id"), col("o.e_id")),
                  lt(col("e_val"), col("o.e_val")))),
        {}, {{"n", AggKind::Count, nullptr}});
    for (auto plan : {semi, anti}) {
        Query q{"sa", {{"out", plan}}};
        RelTable want = baseline(q);
        OffloadedQueryResult got = device(q);
        ASSERT_TRUE(got.stats.hostStages.empty())
            << got.stats.hostStages[0].second;
        EXPECT_EQ(got.result.col("n").get(0), want.col("n").get(0));
    }
}

TEST_F(DevicePathsTest, ConstantFilterAndJoinResidualOnDevice)
{
    // Predicates with no column references pass or drop every tuple on
    // the device, in both batch modes, and match the host engine.
    const bool batch_before = batchExecutionEnabled();
    auto count = [](PlanPtr p) {
        return groupBy(p, {}, {{"n", AggKind::Count, nullptr}});
    };
    for (bool batch : {true, false}) {
        SCOPED_TRACE(testing::Message() << "batch=" << batch);
        setBatchExecutionEnabled(batch);
        for (ExprPtr pred : {eq(lit(1), lit(1)), lt(lit(2), lit(1))}) {
            PlanPtr filtered = count(filter(scan("events"), pred));
            PlanPtr joined = count(join(JoinType::Inner, scan("events"),
                                        scan("codes"), {"e_code"},
                                        {"c_code"}, pred));
            for (const PlanPtr &plan : {filtered, joined}) {
                Query q{"const", {{"out", plan}}};
                RelTable want = baseline(q);
                OffloadedQueryResult got = device(q);
                ASSERT_TRUE(got.stats.hostStages.empty())
                    << got.stats.hostStages[0].second;
                EXPECT_EQ(canon(got.result), canon(want));
            }
        }
    }
    setBatchExecutionEnabled(batch_before);
}

TEST_F(DevicePathsTest, RegexAcceleratorInsideTransform)
{
    // LIKE over the small-dictionary tag column inside a CASE: the
    // regex accelerator pre-computes a bit column for the PEs.
    Query q{"rx",
            {{"out", groupBy(
                  project(scan("events"),
                          {{"hot_val",
                            caseWhen({like(col("e_tag"), "%hot"),
                                      col("e_val")},
                                     litDec("0.00"))}}),
                  {}, {{"hot_total", AggKind::Sum, col("hot_val")}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.hostStages.empty())
        << got.stats.hostStages[0].second;
    EXPECT_EQ(got.result.col("hot_total").get(0),
              want.col("hot_total").get(0));
    EXPECT_TRUE(logContains(got.stats, "regexAccel"));
}

TEST_F(DevicePathsTest, TopKOperatorOffloads)
{
    Query q{"topk",
            {{"out", orderBy(filter(scan("events"),
                                    gt(col("e_val"), litDec("10.00"))),
                             {{"e_val", true}}, 25)}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.hostStages.empty());
    EXPECT_TRUE(logContains(got.stats, "TOPK"));
    ASSERT_EQ(got.result.numRows(), 25);
    EXPECT_EQ(canon(got.result), canon(want));
}

TEST_F(DevicePathsTest, AscendingTopKOffloads)
{
    Query q{"bottomk",
            {{"out", orderBy(scan("events"), {{"e_val", false}}, 10)}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_TRUE(logContains(got.stats, "TOPK"));
    EXPECT_EQ(canon(got.result), canon(want));
}

TEST_F(DevicePathsTest, FanOutExplosionSuspends)
{
    // A self-join on a constant column would produce a quadratic
    // per-key product; the merger refuses and the host takes over.
    auto big = std::make_shared<Table>("flat");
    auto &fk = big->addColumn("k", ColumnType::Int64);
    auto &fv = big->addColumn("v", ColumnType::Int64);
    for (int i = 0; i < 2000; ++i) {
        fk.push(7); // every row shares one key
        fv.push(i);
    }
    catalog.put(big, store->store(big));
    Query q{"boom",
            {{"out", groupBy(join(JoinType::Inner, scan("flat"),
                                  scan("flat", "o", {"k"}),
                                  {"k"}, {"o.k"}),
                             {}, {{"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_FALSE(got.stats.hostStages.empty());
    EXPECT_EQ(got.result.col("n").get(0), want.col("n").get(0));
}

TEST_F(DevicePathsTest, GroupByMinMaxAvgMatchBaseline)
{
    Query q{"agg",
            {{"out", groupBy(scan("events"), {"e_tag"},
                             {{"lo", AggKind::Min, col("e_val")},
                              {"hi", AggKind::Max, col("e_val")},
                              {"mean", AggKind::Avg, col("e_val")},
                              {"n", AggKind::Count, nullptr}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    ASSERT_TRUE(got.stats.hostStages.empty());
    EXPECT_EQ(canon(got.result), canon(want));
}

TEST_F(DevicePathsTest, DmaAccountedWhenHostConsumesDeviceStage)
{
    // Stage 1 is a plain filter (device-resident tuples); stage 2 has
    // a count(distinct), which only the host can run.
    Query q{"dma",
            {{"s1", filter(scan("events"),
                           gt(col("e_val"), litDec("500.00")))},
             {"out", groupBy(scanStage("s1"), {},
                             {{"d", AggKind::CountDistinct,
                               col("e_code")}})}}};
    RelTable want = baseline(q);
    OffloadedQueryResult got = device(q);
    EXPECT_EQ(got.result.col("d").get(0), want.col("d").get(0));
    EXPECT_FALSE(got.stats.deviceStages.empty());
    EXPECT_FALSE(got.stats.hostStages.empty());
    EXPECT_GT(got.stats.dmaBytes, 0);
}

} // namespace
} // namespace aquoman
