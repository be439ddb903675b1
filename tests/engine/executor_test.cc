/** @file Unit tests for the baseline engine's operators. */

#include <gtest/gtest.h>

#include <memory>

#include "common/batch_mode.hh"
#include "engine/executor.hh"

namespace aquoman {
namespace {

/** Small sales/inventory database matching the paper's Sec. III example. */
class ExecutorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto inv = std::make_shared<Table>("inventory");
        auto &ik = inv->addColumn("invtID", ColumnType::Int64);
        auto &cat_c = inv->addColumn("category", ColumnType::Varchar);
        for (int i = 1; i <= 10; ++i) {
            ik.push(i);
            inv->pushString(cat_c, i % 3 == 0 ? "Shoes" : "Toys");
        }

        auto sales = std::make_shared<Table>("sales_transactions");
        auto &tid = sales->addColumn("transactionID", ColumnType::Int64);
        auto &dept = sales->addColumn("department", ColumnType::Varchar);
        auto &sdate = sales->addColumn("saledate", ColumnType::Date);
        auto &price = sales->addColumn("price", ColumnType::Decimal);
        auto &disc = sales->addColumn("discount", ColumnType::Decimal);
        auto &tax = sales->addColumn("tax", ColumnType::Decimal);
        auto &item = sales->addColumn("invtID", ColumnType::Int64);
        for (int i = 0; i < 100; ++i) {
            tid.push(i);
            sales->pushString(dept, i % 2 ? "east" : "west");
            sdate.push(parseDate("2018-01-01") + i * 5);
            price.push(makeDecimal(10 + i));
            disc.push(i % 10);
            tax.push(i % 5);
            item.push(i % 10 + 1);
        }

        catalog.put(inv, nullptr);
        catalog.put(sales, nullptr);
    }

    Catalog catalog;
};

TEST_F(ExecutorTest, FilterProjectAggregate)
{
    // The paper's Fig. 1 query: net sale and revenue per department
    // before a date cutoff.
    std::int32_t cutoff = parseDate("2018-12-01");
    auto plan = orderBy(
        groupBy(
            project(
                filter(scan("sales_transactions"),
                       le(col("saledate"), litDateDays(cutoff))),
                {{"department", col("department")},
                 {"netsale", mul(col("price"),
                                 sub(litDec("1.00"), col("discount")))},
                 {"revenue",
                  mul(mul(col("price"),
                          sub(litDec("1.00"), col("discount"))),
                      add(litDec("1.00"), col("tax")))}}),
            {"department"},
            {{"netsale", AggKind::Sum, col("netsale")},
             {"revenue", AggKind::Sum, col("revenue")}}),
        {{"department", false}});
    Executor ex(catalog);
    RelTable out = ex.run(Query{"fig1", {{"out", plan}}});
    ASSERT_EQ(out.numRows(), 2);
    EXPECT_EQ(out.col("department").str(0), "east");
    EXPECT_EQ(out.col("department").str(1), "west");

    // Independent reference computation.
    std::int64_t east = 0, west = 0;
    const auto &sales = *catalog.get("sales_transactions").table;
    for (std::int64_t i = 0; i < sales.numRows(); ++i) {
        if (sales.col("saledate").get(i) > cutoff)
            continue;
        std::int64_t v = decimalMul(sales.col("price").get(i),
                                    100 - sales.col("discount").get(i));
        (i % 2 ? east : west) += v;
    }
    EXPECT_EQ(out.col("netsale").get(0), east);
    EXPECT_EQ(out.col("netsale").get(1), west);
}

TEST_F(ExecutorTest, InnerJoinMatchesReference)
{
    // The paper's Fig. 4 join query: shoe sales after a date.
    std::int32_t cutoff = parseDate("2018-03-15");
    auto plan = groupBy(
        join(JoinType::Inner,
             filter(scan("sales_transactions"),
                    gt(col("saledate"), litDateDays(cutoff))),
             filter(scan("inventory"),
                    eq(col("category"), litStr("Shoes"))),
             {"invtID"}, {"invtID"}),
        {}, {{"shoe_sales", AggKind::Sum, col("price")}});
    // Column name collision (invtID on both sides) must be reported.
    Executor ex(catalog);
    EXPECT_THROW(ex.run(Query{"bad", {{"out", plan}}}), PanicError);

    auto good = groupBy(
        join(JoinType::Inner,
             filter(scan("sales_transactions"),
                    gt(col("saledate"), litDateDays(cutoff))),
             filter(scan("inventory", "i"),
                    eq(col("i.category"), litStr("Shoes"))),
             {"invtID"}, {"i.invtID"}),
        {}, {{"shoe_sales", AggKind::Sum, col("price")}});
    RelTable out = ex.run(Query{"fig4", {{"out", good}}});
    ASSERT_EQ(out.numRows(), 1);

    std::int64_t want = 0;
    const auto &sales = *catalog.get("sales_transactions").table;
    for (std::int64_t i = 0; i < sales.numRows(); ++i) {
        std::int64_t item = sales.col("invtID").get(i);
        if (sales.col("saledate").get(i) > cutoff && item % 3 == 0)
            want += sales.col("price").get(i);
    }
    EXPECT_EQ(out.col("shoe_sales").get(0), want);
}

TEST_F(ExecutorTest, SemiAndAntiJoinPartitionLeftRows)
{
    auto shoes = filter(scan("inventory"),
                        eq(col("category"), litStr("Shoes")));
    auto semi = join(JoinType::LeftSemi, scan("sales_transactions"),
                     shoes, {"invtID"}, {"invtID"});
    auto anti = join(JoinType::LeftAnti, scan("sales_transactions"),
                     shoes, {"invtID"}, {"invtID"});
    Executor ex(catalog);
    RelTable s = ex.runPlan(semi, {});
    RelTable a = ex.runPlan(anti, {});
    EXPECT_EQ(s.numRows() + a.numRows(), 100);
    for (std::int64_t i = 0; i < s.numRows(); ++i)
        EXPECT_EQ(s.col("invtID").get(i) % 3, 0);
    for (std::int64_t i = 0; i < a.numRows(); ++i)
        EXPECT_NE(a.col("invtID").get(i) % 3, 0);
}

TEST_F(ExecutorTest, SemiJoinWithResidual)
{
    // Sales that share an item with a *different* transaction.
    auto semi = join(JoinType::LeftSemi, scan("sales_transactions"),
                     scan("sales_transactions", "o",
                          {"transactionID", "invtID"}),
                     {"invtID"}, {"o.invtID"},
                     ne(col("transactionID"), col("o.transactionID")));
    Executor ex(catalog);
    RelTable out = ex.runPlan(semi, {});
    // Every item appears in 10 transactions, so all rows qualify.
    EXPECT_EQ(out.numRows(), 100);
}

TEST_F(ExecutorTest, LeftOuterJoinProducesNulls)
{
    // Join inventory against sales of expensive items only.
    auto expensive = filter(scan("sales_transactions", "s"),
                            gt(col("s.price"), litDec("105.00")));
    auto outer = join(JoinType::LeftOuter, scan("inventory"), expensive,
                      {"invtID"}, {"s.invtID"});
    Executor ex(catalog);
    RelTable out = ex.runPlan(outer, {});
    // Items 6..10 sell above 105.00 at least once (prices 10..109).
    std::int64_t nulls = 0;
    for (std::int64_t i = 0; i < out.numRows(); ++i)
        nulls += out.col("s.transactionID").get(i) == kNullValue;
    EXPECT_GT(nulls, 0);
    EXPECT_EQ(out.numRows() - nulls + nulls, out.numRows());

    // Count() over the nullable column skips NULLs.
    auto counted = groupBy(outer, {"invtID"},
                           {{"n", AggKind::Count,
                             col("s.transactionID")}});
    RelTable cnt = ex.runPlan(counted, {});
    EXPECT_EQ(cnt.numRows(), 10);
    std::int64_t zero_groups = 0;
    for (std::int64_t i = 0; i < cnt.numRows(); ++i)
        zero_groups += cnt.col("n").get(i) == 0;
    EXPECT_GT(zero_groups, 0);
}

TEST_F(ExecutorTest, OrderByWithLimitAndDescending)
{
    auto plan = orderBy(scan("sales_transactions"),
                        {{"price", true}, {"transactionID", false}}, 5);
    Executor ex(catalog);
    RelTable out = ex.runPlan(plan, {});
    ASSERT_EQ(out.numRows(), 5);
    for (int i = 0; i < 4; ++i)
        EXPECT_GE(out.col("price").get(i), out.col("price").get(i + 1));
    EXPECT_EQ(out.col("price").get(0), makeDecimal(109));
}

TEST_F(ExecutorTest, GroupByCountDistinctAndMinMax)
{
    auto plan = groupBy(scan("sales_transactions"), {"department"},
                        {{"items", AggKind::CountDistinct, col("invtID")},
                         {"lo", AggKind::Min, col("price")},
                         {"hi", AggKind::Max, col("price")},
                         {"avg_price", AggKind::Avg, col("price")}});
    Executor ex(catalog);
    RelTable out = ex.runPlan(plan, {});
    ASSERT_EQ(out.numRows(), 2);
    for (std::int64_t g = 0; g < 2; ++g) {
        EXPECT_EQ(out.col("items").get(g), 5); // 10 items split evenly
        EXPECT_LE(out.col("lo").get(g), out.col("hi").get(g));
    }
}

TEST_F(ExecutorTest, CrossJoinBroadcastWithResidual)
{
    // Keyless join broadcasts a single-row stage (q11/q22 pattern).
    auto avg_stage = groupBy(scan("sales_transactions"), {},
                             {{"avg_price", AggKind::Avg, col("price")}});
    auto out_plan = join(JoinType::Inner,
                         scan("sales_transactions"),
                         scanStage("avg"), {}, {},
                         gt(col("price"), col("avg_price")));
    Executor ex(catalog);
    RelTable out = ex.run(Query{"q", {{"avg", avg_stage},
                                      {"out", out_plan}}});
    // Prices are 10.00..109.00 uniform; about half exceed the mean.
    EXPECT_GT(out.numRows(), 40);
    EXPECT_LT(out.numRows(), 60);
}

TEST_F(ExecutorTest, ConstantFilterAndJoinResidual)
{
    // Predicates with no column references pass or drop every row, in
    // both batch modes.
    const bool batch_before = batchExecutionEnabled();
    for (bool batch : {true, false}) {
        SCOPED_TRACE(testing::Message() << "batch=" << batch);
        setBatchExecutionEnabled(batch);
        Executor ex(catalog);
        auto filtered = [&](ExprPtr pred) {
            return ex.runPlan(filter(scan("sales_transactions"), pred), {})
                .numRows();
        };
        EXPECT_EQ(filtered(eq(lit(1), lit(1))), 100);
        EXPECT_EQ(filtered(lt(lit(2), lit(1))), 0);
        auto joined = [&](ExprPtr residual) {
            return ex.runPlan(join(JoinType::Inner,
                                   scan("sales_transactions"),
                                   scan("inventory", "i"), {"invtID"},
                                   {"i.invtID"}, residual),
                              {})
                .numRows();
        };
        EXPECT_EQ(joined(eq(lit(1), lit(1))), 100);
        EXPECT_EQ(joined(lt(lit(2), lit(1))), 0);
    }
    setBatchExecutionEnabled(batch_before);
}

TEST_F(ExecutorTest, MetricsAccumulate)
{
    Executor ex(catalog);
    ex.runPlan(orderBy(scan("sales_transactions"), {{"price", false}}), {});
    const EngineMetrics &m = ex.metrics();
    EXPECT_GT(m.rowOps, 0.0);
    EXPECT_GT(m.touchedBaseBytes, 0);
    EXPECT_GT(m.peakIntermediateBytes, 0);
    EXPECT_GT(m.seqRowOps, 0.0);
    EXPECT_LE(m.seqRowOps, m.rowOps);
}

TEST_F(ExecutorTest, UnknownStageIsFatal)
{
    Executor ex(catalog);
    EXPECT_THROW(ex.runPlan(scanStage("nope"), {}), FatalError);
}

} // namespace
} // namespace aquoman
