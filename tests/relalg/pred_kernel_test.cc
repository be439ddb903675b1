/**
 * @file
 * Differential tests for ConjunctKernel: every compiled mask must be
 * bit-identical to the evalPredicate oracle over the same rows, across
 * the (compare op × operand shape × type promotion) matrix, with
 * NULL-heavy data and dense, sub-range and sparse selections. The same
 * oracle checks filterSelection, the Row Selector built on them, in
 * both batch modes and at one and four threads.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/batch_mode.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "relalg/eval.hh"
#include "relalg/plan.hh"
#include "relalg/pred_kernel.hh"

namespace aquoman {
namespace {

/** Random typed table: ~30% NULLs, values bounded away from overflow. */
RelTable
makeTable(std::int64_t rows, unsigned seed)
{
    std::mt19937_64 rng(seed);
    auto fill = [&](RelColumn &c, std::int64_t lo, std::int64_t hi) {
        std::uniform_int_distribution<std::int64_t> val(lo, hi);
        std::uniform_int_distribution<int> pct(0, 99);
        for (std::int64_t i = 0; i < rows; ++i)
            c.push(pct(rng) < 30 ? kNullValue : val(rng));
    };
    RelTable t;
    RelColumn a("a", ColumnType::Int64);
    fill(a, -1000, 1000);
    t.addColumn(std::move(a));
    RelColumn b("b", ColumnType::Int64);
    fill(b, -50, 50);
    t.addColumn(std::move(b));
    RelColumn d("d", ColumnType::Decimal);
    fill(d, -100000, 100000);
    t.addColumn(std::move(d));
    RelColumn e("e", ColumnType::Decimal);
    fill(e, -500, 500);
    t.addColumn(std::move(e));
    RelColumn dt("dt", ColumnType::Date);
    fill(dt, 7000, 12000);
    t.addColumn(std::move(dt));
    RelColumn i32("i32", ColumnType::Int32);
    fill(i32, -100, 100);
    t.addColumn(std::move(i32));
    RelColumn s("s", ColumnType::Varchar);
    auto heap = std::make_shared<StringHeap>();
    for (std::int64_t i = 0; i < rows; ++i)
        s.push(heap->intern(i % 2 == 0 ? "even" : "odd"));
    s.heap = heap;
    t.addColumn(std::move(s));
    return t;
}

/** The predicate matrix the kernel must reproduce bit-for-bit. */
std::vector<ExprPtr>
predicateMatrix()
{
    std::vector<ExprPtr> out;
    // Every compare op, col vs const and const vs col.
    for (CmpOp op : {CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le,
                     CmpOp::Gt, CmpOp::Ge}) {
        out.push_back(cmp(op, col("a"), lit(17)));
        out.push_back(cmp(op, lit(17), col("a")));
        out.push_back(cmp(op, col("a"), col("b")));
    }
    // Decimal promotion: integer side scaled on compare and in arith.
    out.push_back(lt(col("d"), lit(120)));
    out.push_back(ge(lit(-3), col("e")));
    out.push_back(gt(col("d"), col("a")));
    out.push_back(le(col("d"), litDec("55.25")));
    // Arithmetic subtrees, including decimal mul/div semantics.
    out.push_back(gt(add(col("a"), col("b")), lit(10)));
    out.push_back(lt(sub(col("a"), lit(3)), col("b")));
    out.push_back(ge(mul(col("e"), litDec("0.05")), litDec("1.00")));
    out.push_back(le(div(col("d"), col("e")), litDec("2.50")));
    out.push_back(ne(div(col("a"), col("b")), lit(0))); // int div, /0 -> 0
    out.push_back(eq(mul(col("b"), lit(2)), col("a")));
    // Date arithmetic: shift stays a Date, difference is an Int64.
    out.push_back(lt(add(col("dt"), lit(30)), litDate("2001-01-01")));
    out.push_back(gt(sub(col("dt"), litDate("1995-01-01")), lit(365)));
    // Mixed promotion inside a deeper tree, with a constant subtree
    // that must fold to the same value the oracle computes.
    out.push_back(gt(mul(add(col("e"), litDec("0.10")), lit(3)),
                     add(litDec("1.00"), litDec("0.50"))));
    out.push_back(lt(col("i32"), lit(0)));
    // NULL literal on one side: every row must fail.
    out.push_back(eq(col("a"), lit(kNullValue)));
    return out;
}

void
expectMaskMatches(const ExprPtr &pred, const RelTable &t,
                  const std::int64_t *rows, std::int64_t first,
                  std::int64_t n, const BitVector &oracle_full)
{
    auto k = ConjunctKernel::tryCompile(pred, t);
    ASSERT_NE(k, nullptr);
    ConjunctKernel::Scratch scratch;
    BitVector got;
    k->evalMask(t, rows, first, n, got, scratch);
    ASSERT_EQ(got.size(), n);
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t row = rows != nullptr ? rows[i] : first + i;
        ASSERT_EQ(got.get(i), oracle_full.get(row))
            << "selection position " << i << " (row " << row << ")";
    }
}

TEST(PredKernelTest, DenseMaskMatchesOracleAcrossMatrix)
{
    RelTable t = makeTable(4097, 42);
    for (const ExprPtr &p : predicateMatrix()) {
        SCOPED_TRACE(testing::Message() << "predicate #"
                     << (&p - predicateMatrix().data()));
        BitVector oracle = evalPredicate(p, t);
        expectMaskMatches(p, t, nullptr, 0, t.numRows(), oracle);
    }
}

TEST(PredKernelTest, DenseSubrangeMatchesOracle)
{
    RelTable t = makeTable(2000, 7);
    for (const ExprPtr &p : predicateMatrix()) {
        BitVector oracle = evalPredicate(p, t);
        expectMaskMatches(p, t, nullptr, 123, 777, oracle);
        expectMaskMatches(p, t, nullptr, 1990, 10, oracle); // tail < word
    }
}

TEST(PredKernelTest, SparseRowsMatchOracle)
{
    RelTable t = makeTable(3000, 99);
    std::mt19937_64 rng(5);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < t.numRows(); ++r)
        if (rng() % 3 == 0)
            rows.push_back(r);
    for (const ExprPtr &p : predicateMatrix()) {
        BitVector oracle = evalPredicate(p, t);
        expectMaskMatches(p, t, rows.data(), 0,
                          static_cast<std::int64_t>(rows.size()), oracle);
    }
}

TEST(PredKernelTest, AllPassAndNonePassEdges)
{
    RelTable t = makeTable(130, 3);
    // a in [-1000, 1000] or NULL: no row passes < -5000, and every
    // non-NULL row passes > -5000.
    ExprPtr none = lt(col("a"), lit(-5000));
    ExprPtr all_non_null = gt(col("a"), lit(-5000));
    for (const ExprPtr &p : {none, all_non_null}) {
        BitVector oracle = evalPredicate(p, t);
        expectMaskMatches(p, t, nullptr, 0, t.numRows(), oracle);
    }
    ConjunctKernel::Scratch s;
    BitVector got;
    auto k = ConjunctKernel::tryCompile(none, t);
    ASSERT_NE(k, nullptr);
    k->evalMask(t, nullptr, 0, t.numRows(), got, s);
    EXPECT_TRUE(got.allZero());
}

TEST(PredKernelTest, CheapOnlyForBareCompares)
{
    RelTable t = makeTable(16, 1);
    auto bare = ConjunctKernel::tryCompile(lt(col("a"), lit(3)), t);
    ASSERT_NE(bare, nullptr);
    EXPECT_TRUE(bare->cheap());
    // Decimal-vs-int col compare needs no temporaries either (compare
    // scaling handles promotion), so it stays cheap.
    auto promoted = ConjunctKernel::tryCompile(gt(col("d"), col("a")), t);
    ASSERT_NE(promoted, nullptr);
    EXPECT_TRUE(promoted->cheap());
    auto arith_k =
        ConjunctKernel::tryCompile(gt(add(col("a"), col("b")), lit(0)), t);
    ASSERT_NE(arith_k, nullptr);
    EXPECT_FALSE(arith_k->cheap());
}

TEST(PredKernelTest, RejectsIneligibleConjuncts)
{
    RelTable t = makeTable(16, 2);
    EXPECT_EQ(ConjunctKernel::tryCompile(like(col("s"), "%ev%"), t),
              nullptr);
    EXPECT_EQ(ConjunctKernel::tryCompile(inList(col("a"), {1, 2}), t),
              nullptr);
    EXPECT_EQ(ConjunctKernel::tryCompile(
                  andE(lt(col("a"), lit(0)), gt(col("b"), lit(0))), t),
              nullptr);
    EXPECT_EQ(ConjunctKernel::tryCompile(notE(lt(col("a"), lit(0))), t),
              nullptr);
    EXPECT_EQ(ConjunctKernel::tryCompile(eq(col("s"), litStr("even")), t),
              nullptr);
    EXPECT_EQ(ConjunctKernel::tryCompile(eq(year(col("dt")), lit(1997)), t),
              nullptr);
}

TEST(PredKernelTest, KernelIsReusableAcrossSameSchemaTables)
{
    RelTable t1 = makeTable(500, 11);
    RelTable t2 = makeTable(700, 12);
    ExprPtr p = gt(add(col("a"), col("b")), lit(5));
    auto k = ConjunctKernel::tryCompile(p, t1);
    ASSERT_NE(k, nullptr);
    ConjunctKernel::Scratch s;
    BitVector got;
    k->evalMask(t2, nullptr, 0, t2.numRows(), got, s);
    BitVector oracle = evalPredicate(p, t2);
    for (std::int64_t i = 0; i < t2.numRows(); ++i)
        ASSERT_EQ(got.get(i), oracle.get(i)) << "row " << i;
}

TEST(PredKernelTest, Avx2AndScalarPathsAreBitIdentical)
{
    RelTable t = makeTable(1025, 21);
    const bool host_avx2 = avx2Available(); // never force beyond this
    for (const ExprPtr &p : predicateMatrix()) {
        auto k = ConjunctKernel::tryCompile(p, t);
        ASSERT_NE(k, nullptr);
        ConjunctKernel::Scratch s;
        BitVector with_avx2, without;
        setAvx2Enabled(host_avx2);
        k->evalMask(t, nullptr, 0, t.numRows(), with_avx2, s);
        setAvx2Enabled(false);
        k->evalMask(t, nullptr, 0, t.numRows(), without, s);
        setAvx2Enabled(host_avx2);
        ASSERT_EQ(with_avx2.size(), without.size());
        for (std::int64_t w = 0; w < with_avx2.numWords(); ++w)
            ASSERT_EQ(with_avx2.word(w), without.word(w)) << "word " << w;
    }
}

/**
 * filterSelection runs under both batch modes and two pool sizes; the
 * fixture restores the process defaults whatever a case sets.
 */
class FilterSelectionTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        ThreadPool::setGlobalParallelism(
            ThreadPool::configuredParallelism());
        const char *env = std::getenv("AQUOMAN_BATCH");
        setBatchExecutionEnabled(env == nullptr
                                 || std::string_view(env) != "0");
    }

    /** Run @p check once per (batch mode, pool size) combination. */
    template <typename Fn>
    void
    forEachMode(Fn check)
    {
        for (bool batch : {true, false}) {
            for (int threads : {1, 4}) {
                SCOPED_TRACE(testing::Message() << "batch=" << batch
                             << " threads=" << threads);
                setBatchExecutionEnabled(batch);
                ThreadPool::setGlobalParallelism(threads);
                check();
            }
        }
    }

    /** The rows of @p sel passing @p pred per evalPredicate, ascending. */
    static std::vector<std::int64_t>
    oracle(const ExprPtr &pred, const RelTable &t,
           const SelectionVector &sel)
    {
        BitVector pass = evalPredicate(pred, t);
        std::vector<std::int64_t> out;
        for (std::int64_t i = 0; i < sel.size(); ++i)
            if (pass.get(sel[i]))
                out.push_back(sel[i]);
        return out;
    }
};

/**
 * Multi-conjunct predicates: cheap compares the batched path AND-folds,
 * arithmetic kernels, and LIKE / IN / OR / constant conjuncts that fall
 * back to the reference evaluator.
 */
std::vector<ExprPtr>
selectorPredicates()
{
    return {
        andE(gt(col("a"), lit(-200)), lt(col("b"), lit(30))),
        andE(andE(gt(add(col("a"), col("b")), lit(10)),
                  le(col("d"), litDec("55.25"))),
             ne(col("i32"), lit(3))),
        andE(like(col("s"), "%ev%"), gt(col("a"), lit(0))),
        andE(inList(col("b"), {1, 2, 3, -4, 10}),
             lt(col("dt"), litDate("2001-01-01"))),
        andE(orE(lt(col("a"), lit(-500)), gt(col("e"), lit(2))),
             ge(col("a"), lit(-900))),
        andE(lt(col("a"), lit(0)), eq(lit(1), lit(1))),
        eq(col("a"), lit(kNullValue)),
    };
}

TEST_F(FilterSelectionTest, MatchesEvalPredicateOnDenseAndSparseInputs)
{
    // Sizes straddle the 32-row mask words and the 16K-row morsels.
    for (std::int64_t rows : {1, 31, 33, 16384, 16385, 40001}) {
        RelTable t = makeTable(rows, static_cast<unsigned>(rows));
        std::mt19937_64 rng(rows);
        std::vector<std::int64_t> some;
        for (std::int64_t r = 1; r < rows; ++r)
            if (rng() % 3 != 0)
                some.push_back(r);
        for (const SelectionVector &in :
             {SelectionVector::dense(rows), SelectionVector::sparse(some)}) {
            const std::vector<ExprPtr> preds = selectorPredicates();
            for (std::size_t i = 0; i < preds.size(); ++i) {
                const ExprPtr &p = preds[i];
                SCOPED_TRACE(testing::Message() << "rows=" << rows
                             << " dense=" << in.isDense()
                             << " predicate #" << i);
                std::vector<std::int64_t> want = oracle(p, t, in);
                forEachMode([&] {
                    SelectionVector sel = in;
                    filterSelection(p, t, sel);
                    ASSERT_EQ(sel.toIndices(), want);
                });
            }
        }
    }
}

TEST_F(FilterSelectionTest, PredicateWithoutColumnsUsesSelectionRowCount)
{
    // No column references: the input has no columns (so no rows of
    // its own) and the selection alone sizes the verdict.
    RelTable none;
    const std::int64_t rows = 40001;
    forEachMode([&] {
        SelectionVector keep = SelectionVector::dense(rows);
        filterSelection(andE(eq(lit(1), lit(1)), le(lit(2), lit(3))),
                        none, keep);
        EXPECT_TRUE(keep.isDense());
        EXPECT_EQ(keep.size(), rows);
        SelectionVector drop = SelectionVector::dense(rows);
        filterSelection(lt(lit(2), lit(1)), none, drop);
        EXPECT_TRUE(drop.empty());
        SelectionVector drop_null = SelectionVector::dense(rows);
        filterSelection(inList(lit(kNullValue), {1, 2}), none, drop_null);
        EXPECT_TRUE(drop_null.empty());
    });
}

TEST_F(FilterSelectionTest, ZeroRowInputStaysEmpty)
{
    RelTable t = makeTable(0, 1);
    forEachMode([&] {
        for (const ExprPtr &p : selectorPredicates()) {
            SelectionVector sel = SelectionVector::dense(0);
            filterSelection(p, t, sel);
            EXPECT_TRUE(sel.empty());
        }
    });
}

} // namespace
} // namespace aquoman
