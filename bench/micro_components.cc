/**
 * @file
 * Google-benchmark microbenchmarks of the AQUOMAN hardware-model
 * components: bitonic sorter, VCAS/TopK chain, merger, Aggregate
 * Group-By and PE interpretation. These measure the *simulator's* cost,
 * useful when scaling the benches to larger scale factors.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string_view>

#include "aquoman/swissknife/bitonic.hh"
#include "flash/flash_device.hh"
#include "obs/trace.hh"
#include "aquoman/swissknife/groupby.hh"
#include "aquoman/swissknife/merger.hh"
#include "aquoman/swissknife/streaming_sorter.hh"
#include "aquoman/swissknife/topk.hh"
#include "aquoman/pe_batch.hh"
#include "aquoman/transform_compiler.hh"
#include "columnstore/encoding.hh"
#include "common/batch_mode.hh"
#include "common/rng.hh"
#include "relalg/eval.hh"
#include "relalg/pred_kernel.hh"

namespace aquoman {
namespace {

KvStream
randomStream(std::int64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    KvStream s(n);
    for (std::int64_t i = 0; i < n; ++i)
        s[i] = {rng.uniform(0, 1 << 30), i};
    return s;
}

void
BM_BitonicSortVector(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    BitonicSorter sorter(n);
    KvStream v = randomStream(n, 1);
    for (auto _ : state) {
        KvStream copy = v;
        sorter.sortVector(copy.data());
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BitonicSortVector)->Arg(8)->Arg(32)->Arg(64);

void
BM_TopKChain(benchmark::State &state)
{
    std::int64_t n = state.range(0);
    KvStream input = randomStream(n, 2);
    for (auto _ : state) {
        TopKAccelerator topk(100, 32);
        topk.pushAll(input);
        benchmark::DoNotOptimize(topk.finish());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKChain)->Arg(1 << 12)->Arg(1 << 16);

void
BM_MergerIntersect(benchmark::State &state)
{
    std::int64_t n = state.range(0);
    KvStream left = randomStream(n, 3);
    std::sort(left.begin(), left.end());
    KvStream right;
    for (std::int64_t k = 0; k < n / 4; ++k)
        right.push_back({k * 4, k});
    for (auto _ : state)
        benchmark::DoNotOptimize(intersectInner(left, right));
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergerIntersect)->Arg(1 << 14)->Arg(1 << 18);

void
BM_GroupByAccelerator(benchmark::State &state)
{
    std::int64_t groups = state.range(0);
    Rng rng(4);
    std::vector<std::pair<std::int64_t, std::int64_t>> rows(1 << 16);
    for (auto &r : rows)
        r = {rng.uniform(0, groups - 1), rng.uniform(0, 100)};
    for (auto _ : state) {
        GroupByAccelerator gb(AquomanConfig{}, 1,
                              {HwAgg::Sum, HwAgg::Cnt});
        for (const auto &[g, v] : rows)
            gb.update({g}, {v, 0});
        benchmark::DoNotOptimize(gb.finish());
    }
    state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_GroupByAccelerator)->Arg(16)->Arg(1024)->Arg(100000);

void
BM_StreamingSorter(benchmark::State &state)
{
    std::int64_t n = state.range(0);
    AquomanConfig cfg;
    cfg.sorterBlockBytes = 1 << 16;
    StreamingSorter sorter(cfg);
    KvStream input = randomStream(n, 5);
    for (auto _ : state) {
        KvStream copy = input;
        benchmark::DoNotOptimize(sorter.sort(copy, true));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StreamingSorter)->Arg(1 << 14)->Arg(1 << 18);

void
BM_PeTransformRow(benchmark::State &state)
{
    std::map<std::string, ColumnType> schema = {
        {"ep", ColumnType::Decimal},
        {"disc", ColumnType::Decimal},
        {"tax", ColumnType::Decimal}};
    auto rev = mul(col("ep"), sub(litDec("1.00"), col("disc")));
    TransformResult tr = compileTransform(
        {{"disc_price", rev},
         {"charge", mul(rev, add(litDec("1.00"), col("tax")))}},
        schema, AquomanConfig{});
    SystolicArray array = tr.program->buildArray();
    std::vector<std::int64_t> in = {10000, 5, 4}, out;
    for (auto _ : state) {
        array.runRow(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PeTransformRow);

// ---------------------------------------------------------------------
// Row Selector / Row Transformer: scalar vs batched
// ---------------------------------------------------------------------

/** q6-shaped probe relation for the selector benchmarks. */
RelTable
selectorInput(std::int64_t rows)
{
    Rng rng(6);
    RelColumn ship("l_shipdate", ColumnType::Date);
    RelColumn disc("l_discount", ColumnType::Decimal);
    RelColumn qty("l_quantity", ColumnType::Decimal);
    RelColumn ep("l_extendedprice", ColumnType::Decimal);
    RelColumn tax("l_tax", ColumnType::Decimal);
    for (std::int64_t i = 0; i < rows; ++i) {
        ship.push(rng.uniform(8035, 10592)); // 1992..1998
        disc.push(rng.uniform(0, 10));
        qty.push(rng.uniform(100, 5000));
        ep.push(rng.uniform(100000, 10000000));
        tax.push(rng.uniform(0, 8));
    }
    RelTable t;
    t.addColumn(std::move(ship));
    t.addColumn(std::move(disc));
    t.addColumn(std::move(qty));
    t.addColumn(std::move(ep));
    t.addColumn(std::move(tax));
    return t;
}

/**
 * A q6/q19-shaped predicate: a selective leading date-range conjunct,
 * then a computed revenue comparison plus two cheap compares. The
 * shrinking selection only evaluates the computed conjunct at the
 * survivors of the date range — the Row Selector's canonical win.
 */
ExprPtr
selectorPredicate()
{
    auto rev = mul(col("l_extendedprice"),
                   sub(litDec("1.00"), col("l_discount")));
    auto charge = mul(rev, add(litDec("1.00"), col("l_tax")));
    return andE(
        andE(lt(col("l_shipdate"), litDateDays(9131)),
             ge(col("l_shipdate"), litDateDays(8766))),
        andE(andE(gt(rev, litDec("30000.00")),
                  lt(charge, litDec("80000.00"))),
             andE(ge(col("l_discount"), litDec("0.05")),
                  lt(col("l_quantity"), litDec("24.00")))));
}

/** Scalar selector: full-width predicate bitmap, then row gather. */
std::vector<std::int64_t>
runSelectorScalar(const ExprPtr &pred, const RelTable &t)
{
    BitVector bv = evalPredicate(pred, t);
    std::vector<std::int64_t> rows;
    for (std::int64_t i = 0; i < t.numRows(); ++i) {
        if (bv.get(i))
            rows.push_back(i);
    }
    return rows;
}

void
BM_RowSelectorScalar(benchmark::State &state)
{
    RelTable t = selectorInput(state.range(0));
    ExprPtr pred = selectorPredicate();
    for (auto _ : state)
        benchmark::DoNotOptimize(runSelectorScalar(pred, t).data());
    state.SetItemsProcessed(state.iterations() * t.numRows());
}
BENCHMARK(BM_RowSelectorScalar)->Arg(1 << 16)->Arg(1 << 20);

void
BM_RowSelectorBatched(benchmark::State &state)
{
    RelTable t = selectorInput(state.range(0));
    ExprPtr pred = selectorPredicate();
    for (auto _ : state) {
        SelectionVector sel = SelectionVector::dense(t.numRows());
        filterSelection(pred, t, sel);
        benchmark::DoNotOptimize(sel.size());
    }
    state.SetItemsProcessed(state.iterations() * t.numRows());
}
BENCHMARK(BM_RowSelectorBatched)->Arg(1 << 16)->Arg(1 << 20);

/** The Fig. 9 revenue transform compiled for the PE chain. */
TransformResult
transformerProgram()
{
    std::map<std::string, ColumnType> schema = {
        {"ep", ColumnType::Decimal},
        {"disc", ColumnType::Decimal},
        {"tax", ColumnType::Decimal}};
    auto rev = mul(col("ep"), sub(litDec("1.00"), col("disc")));
    return compileTransform(
        {{"disc_price", rev},
         {"charge", mul(rev, add(litDec("1.00"), col("tax")))}},
        schema, AquomanConfig{});
}

std::vector<std::vector<std::int64_t>>
transformerInput(std::int64_t rows)
{
    Rng rng(9);
    std::vector<std::vector<std::int64_t>> cols(3);
    for (auto &c : cols) {
        c.resize(rows);
        for (auto &v : c)
            v = rng.uniform(0, 20000);
    }
    return cols;
}

void
BM_RowTransformerScalar(benchmark::State &state)
{
    TransformResult tr = transformerProgram();
    SystolicArray array = tr.program->buildArray();
    auto cols = transformerInput(state.range(0));
    const std::int64_t n = state.range(0);
    std::vector<std::int64_t> in(3), out;
    std::vector<std::int64_t> sink(n);
    for (auto _ : state) {
        for (std::int64_t r = 0; r < n; ++r) {
            in[0] = cols[0][r];
            in[1] = cols[1][r];
            in[2] = cols[2][r];
            array.runRow(in, out);
            sink[r] = out[0] + out[1];
        }
        benchmark::DoNotOptimize(sink.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RowTransformerScalar)->Arg(1 << 16);

void
BM_RowTransformerBatched(benchmark::State &state)
{
    TransformResult tr = transformerProgram();
    PeBatchKernel kernel(tr.program->programs, 3);
    auto cols = transformerInput(state.range(0));
    const std::int64_t n = state.range(0);
    std::vector<std::int64_t> o0(n), o1(n), sink(n);
    const std::int64_t *ins[3] =
        {cols[0].data(), cols[1].data(), cols[2].data()};
    std::int64_t *outs[2] = {o0.data(), o1.data()};
    for (auto _ : state) {
        kernel.run(ins, n, outs, 2);
        for (std::int64_t r = 0; r < n; ++r)
            sink[r] = o0[r] + o1[r];
        benchmark::DoNotOptimize(sink.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RowTransformerBatched)->Arg(1 << 16);

// ---------------------------------------------------------------------
// Column-codec decode throughput
// ---------------------------------------------------------------------

/**
 * Synthetic columns that force each codec to win the per-page size
 * contest: a low-cardinality shuffle (dictionary), long runs (RLE),
 * and a dense high-cardinality band (frame-of-reference). The bench
 * decodes every page back to int64 and reports logical GB/s, i.e. the
 * software line rate backing the simulator's Decode pipe stage.
 */
std::vector<std::int64_t>
codecInput(ColumnCodec codec, std::int64_t n)
{
    Rng rng(static_cast<std::uint64_t>(codec) + 11);
    std::vector<std::int64_t> v(n);
    switch (codec) {
      case ColumnCodec::Dict:
        // 64 distinct wide-spread values, shuffled: too sparse for
        // FOR, too choppy for RLE, dict table cheap per page.
        for (std::int64_t i = 0; i < n; ++i)
            v[i] = rng.uniform(0, 63) * 1'000'000'007;
        break;
      case ColumnCodec::Rle:
        for (std::int64_t i = 0; i < n; ++i)
            v[i] = (i / 500) * 7;
        break;
      default:
        // > kMaxDictValues distinct values in a narrow band.
        for (std::int64_t i = 0; i < n; ++i)
            v[i] = 1'000'000'000 + rng.uniform(0, 999'999);
        break;
    }
    return v;
}

/** The input must actually exercise the codec under test. */
bool
selectsCodec(const ColumnEncoding &enc, ColumnCodec codec)
{
    std::int64_t hits = 0;
    for (const EncodedPage &p : enc.pages)
        hits += p.codec == codec ? p.rows : 0;
    return hits * 2 >= enc.rows;
}

void
decodeBench(benchmark::State &state, ColumnCodec codec)
{
    const std::int64_t n = state.range(0);
    std::vector<std::int64_t> vals = codecInput(codec, n);
    ColumnEncoding enc = encodeValues(vals.data(), n, 8);
    if (!selectsCodec(enc, codec)) {
        state.SkipWithError("input did not select intended codec");
        return;
    }
    std::vector<std::int64_t> out;
    out.reserve(n);
    for (auto _ : state) {
        out.clear();
        for (const EncodedPage &p : enc.pages)
            decodePage(p.bytes.data(), p.bytes.size(), out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * n * 8);
    state.counters["ratio"] =
        static_cast<double>(n * 8) / enc.encodedBytes;
}

void
BM_DecodeDict(benchmark::State &state)
{
    decodeBench(state, ColumnCodec::Dict);
}
BENCHMARK(BM_DecodeDict)->Arg(1 << 20);

void
BM_DecodeRle(benchmark::State &state)
{
    decodeBench(state, ColumnCodec::Rle);
}
BENCHMARK(BM_DecodeRle)->Arg(1 << 20);

void
BM_DecodeFor(benchmark::State &state)
{
    decodeBench(state, ColumnCodec::For);
}
BENCHMARK(BM_DecodeFor)->Arg(1 << 20);

/**
 * The encoder on the same inputs: page fill, codec choice and payload
 * packing, in logical (int64) bytes per second. This is the kernel
 * behind every table install (TableStore, ShardedTableStore).
 */
void
encodeBench(benchmark::State &state, ColumnCodec codec)
{
    const std::int64_t n = state.range(0);
    std::vector<std::int64_t> vals = codecInput(codec, n);
    if (!selectsCodec(encodeValues(vals.data(), n, 8), codec)) {
        state.SkipWithError("input did not select intended codec");
        return;
    }
    for (auto _ : state) {
        ColumnEncoding enc = encodeValues(vals.data(), n, 8);
        benchmark::DoNotOptimize(enc.pages.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * n * 8);
}

void
BM_EncodeDict(benchmark::State &state)
{
    encodeBench(state, ColumnCodec::Dict);
}
BENCHMARK(BM_EncodeDict)->Arg(1 << 20);

void
BM_EncodeRle(benchmark::State &state)
{
    encodeBench(state, ColumnCodec::Rle);
}
BENCHMARK(BM_EncodeRle)->Arg(1 << 20);

void
BM_EncodeFor(benchmark::State &state)
{
    encodeBench(state, ColumnCodec::For);
}
BENCHMARK(BM_EncodeFor)->Arg(1 << 20);

void
BM_EncodedPredicate(benchmark::State &state)
{
    // Predicate evaluation directly on dictionary codes, no decode.
    const std::int64_t n = state.range(0);
    std::vector<std::int64_t> vals = codecInput(ColumnCodec::Dict, n);
    ColumnEncoding enc = encodeValues(vals.data(), n, 8);
    for (auto _ : state) {
        std::int64_t matches = 0;
        for (const EncodedPage &p : enc.pages)
            matches += countMatchesEncoded(p, ZoneOp::Lt,
                                           32ll * 1'000'000'007);
        benchmark::DoNotOptimize(matches);
    }
    state.SetBytesProcessed(state.iterations() * n * 8);
}
BENCHMARK(BM_EncodedPredicate)->Arg(1 << 20);

// ---------------------------------------------------------------------
// Disabled-observability overhead check
// ---------------------------------------------------------------------

double
bestOfSeconds(int reps, const std::function<void()> &fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(
            best, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    }
    return best;
}

/**
 * The observability layer promises that with tracing disabled, the
 * SimTracer::enabled() guard on the hot paths is negligible: one call
 * site under 1% of one 8KB FlashDevice page read — the cheapest
 * instrumented operation. The loop body holds one guard, so the
 * per-call-site figure is the whole iteration cost, loop overhead
 * included: an upper bound on the guard itself.
 * Returns 0 on success, 1 on violation.
 */
int
checkDisabledObservabilityOverhead()
{
    obs::SimTracer &tracer = obs::SimTracer::global();
    if (tracer.enabled()) {
        std::printf("observability enabled; skipping disabled-overhead "
                    "check\n");
        return 0;
    }

    constexpr int kGuardIters = 1 << 22;
    auto guard_loop = [&] {
        int hits = 0;
        for (int i = 0; i < kGuardIters; ++i) {
            if (tracer.enabled())
                ++hits;
        }
        benchmark::DoNotOptimize(hits);
    };
    double guard_sec = bestOfSeconds(5, guard_loop) / kGuardIters;

    FlashConfig fc;
    FlashDevice flash(fc);
    FlashExtent ext = flash.allocate(fc.pageBytes);
    std::vector<std::uint8_t> buf(fc.pageBytes, 1);
    flash.write(ext, 0, buf.data(), fc.pageBytes);
    constexpr int kReadIters = 1 << 12;
    auto read_loop = [&] {
        for (int i = 0; i < kReadIters; ++i)
            flash.read(ext, 0, buf.data(), fc.pageBytes);
        benchmark::DoNotOptimize(buf.data());
    };
    double read_sec = bestOfSeconds(5, read_loop) / kReadIters;

    double overhead = read_sec > 0.0 ? guard_sec / read_sec : 0.0;
    std::printf("disabled-observability guard: %.2fns per call site, "
                "8KB flash read: %.0fns, overhead: %.3f%% (budget "
                "1%%)\n",
                guard_sec * 1e9, read_sec * 1e9, overhead * 100.0);
    if (overhead >= 0.01) {
        std::fprintf(stderr,
                     "FAIL: disabled-observability overhead %.3f%% "
                     ">= 1%%\n",
                     overhead * 100.0);
        return 1;
    }
    return 0;
}

/**
 * Per-kernel throughput sections: each specialized kernel against its
 * scalar reference, in Mrows/s, on the q6-shaped probe relation. Not
 * gated — the numbers locate regressions when the end-to-end gate in
 * checkBatchSpeedup trips.
 */
void
reportKernelSections()
{
    constexpr std::int64_t kRows = 1 << 20;
    RelTable t = selectorInput(kRows);
    std::printf("per-kernel throughput (%lld rows, best of 5):\n",
                static_cast<long long>(kRows));
    auto line = [&](const char *name, double scalar_sec,
                    double kernel_sec, std::int64_t rows) {
        std::printf("  %-17s scalar %7.1f Mrows/s, kernel %7.1f "
                    "Mrows/s (%.1fx)\n",
                    name, rows / scalar_sec / 1e6,
                    rows / kernel_sec / 1e6, scalar_sec / kernel_sec);
    };

    // Branch-free int64/date compare: one column vs one constant.
    {
        ExprPtr p = lt(col("l_shipdate"), litDateDays(9131));
        double scalar = bestOfSeconds(5, [&] {
            benchmark::DoNotOptimize(evalPredicate(p, t).popcount());
        });
        auto k = ConjunctKernel::tryCompile(p, t);
        ConjunctKernel::Scratch s;
        BitVector m;
        double spec = bestOfSeconds(5, [&] {
            k->evalMask(t, nullptr, 0, kRows, m, s);
            benchmark::DoNotOptimize(m.popcount());
        });
        line("int64 compare:", scalar, spec, kRows);
    }

    // Decimal arithmetic subtree: scaled mul + promotion + compare.
    {
        ExprPtr p = gt(mul(col("l_extendedprice"),
                           sub(litDec("1.00"), col("l_discount"))),
                       litDec("30000.00"));
        double scalar = bestOfSeconds(5, [&] {
            benchmark::DoNotOptimize(evalPredicate(p, t).popcount());
        });
        auto k = ConjunctKernel::tryCompile(p, t);
        ConjunctKernel::Scratch s;
        BitVector m;
        double spec = bestOfSeconds(5, [&] {
            k->evalMask(t, nullptr, 0, kRows, m, s);
            benchmark::DoNotOptimize(m.popcount());
        });
        line("decimal arith:", scalar, spec, kRows);
    }

    // Full AND-fold: interpreted conjunct-at-a-time sparse merges
    // (AQUOMAN_BATCH=0 path) vs the compiled word-wise fold.
    {
        ExprPtr p = selectorPredicate();
        const bool was = batchExecutionEnabled();
        setBatchExecutionEnabled(false);
        double scalar = bestOfSeconds(5, [&] {
            SelectionVector sel = SelectionVector::dense(kRows);
            filterSelection(p, t, sel);
            benchmark::DoNotOptimize(sel.size());
        });
        setBatchExecutionEnabled(true);
        double spec = bestOfSeconds(5, [&] {
            SelectionVector sel = SelectionVector::dense(kRows);
            filterSelection(p, t, sel);
            benchmark::DoNotOptimize(sel.size());
        });
        setBatchExecutionEnabled(was);
        line("AND-fold:", scalar, spec, kRows);
    }

    // String prefilter: high-cardinality heap so the dictionary memo
    // is out of play; the literal-run reject skips the wildcard
    // matcher on all but the rare hits.
    {
        constexpr std::int64_t kStrRows = 1 << 17;
        Rng rng(23);
        RelColumn c("p_name", ColumnType::Varchar);
        auto heap = std::make_shared<StringHeap>();
        const char *colors[] = {"red", "blue", "ivory", "linen",
                                "magenta"};
        for (std::int64_t i = 0; i < kStrRows; ++i) {
            std::string s = "part-" + std::to_string(i) + "-"
                + colors[rng.uniform(0, 3)] // magenta never sampled
                + "-" + std::to_string(rng.uniform(0, 1 << 20));
            c.push(heap->intern(s));
        }
        c.heap = heap;
        RelTable st;
        st.addColumn(std::move(c));
        const std::string pat = "%magenta%";
        const RelColumn &sc = st.col(0);
        double scalar = bestOfSeconds(5, [&] {
            std::int64_t hits = 0;
            for (std::int64_t i = 0; i < kStrRows; ++i)
                hits += likeMatch(sc.str(i), pat);
            benchmark::DoNotOptimize(hits);
        });
        ExprPtr p = like(col("p_name"), pat);
        double spec = bestOfSeconds(5, [&] {
            benchmark::DoNotOptimize(evalPredicate(p, st).popcount());
        });
        line("string prefilter:", scalar, spec, kStrRows);
    }
}

/**
 * Morsel-size sweep (--morsel-sweep): Row Transformer throughput at
 * each candidate morsel size, 4K to 64K. Informational — the
 * winner is recorded as kPeBatchRows's default. Returns 0 always.
 */
int
morselSweep()
{
    constexpr std::int64_t kRows = 1 << 21;
    TransformResult tr = transformerProgram();
    PeBatchKernel kernel(tr.program->programs, 3);
    auto cols = transformerInput(kRows);
    std::vector<std::int64_t> o0(kRows), o1(kRows);
    std::vector<const std::int64_t *> in_ptrs(3);
    std::vector<std::int64_t *> out_ptrs(2);
    std::printf("morsel-size sweep (row transformer, %lld rows, best "
                "of 5):\n",
                static_cast<long long>(kRows));
    for (std::int64_t m : {4096, 8192, 16384, 32768, 65536}) {
        setPeBatchMorselRows(m);
        const std::int64_t morsel = peBatchMorselRows();
        double sec = bestOfSeconds(5, [&] {
            for (std::int64_t b = 0; b < kRows; b += morsel) {
                std::int64_t e = std::min(kRows, b + morsel);
                for (int i = 0; i < 3; ++i)
                    in_ptrs[i] = cols[i].data() + b;
                out_ptrs[0] = o0.data() + b;
                out_ptrs[1] = o1.data() + b;
                kernel.run(in_ptrs.data(), e - b, out_ptrs.data(), 2);
            }
            benchmark::DoNotOptimize(o0.data());
        });
        std::printf("  %6lld rows/morsel: %7.1f Mrows/s%s\n",
                    static_cast<long long>(m), kRows / sec / 1e6,
                    m == kPeBatchRows ? "  (default)" : "");
    }
    setPeBatchMorselRows(0); // restore the default
    return 0;
}

/**
 * CI perf-smoke gate (--check-batch-speedup): the batched Row Selector
 * must clear 4x the scalar selector's throughput on the q6-shaped
 * probe relation. Also reports the Row Transformer ratio for context
 * (not gated: its win varies more across hosts). Returns 0 on success.
 */
int
checkBatchSpeedup()
{
    constexpr std::int64_t kRows = 1 << 20;
    RelTable t = selectorInput(kRows);
    ExprPtr pred = selectorPredicate();
    double scalar_sel = bestOfSeconds(7, [&] {
        benchmark::DoNotOptimize(runSelectorScalar(pred, t).data());
    });
    double batched_sel = bestOfSeconds(7, [&] {
        SelectionVector sel = SelectionVector::dense(t.numRows());
        filterSelection(pred, t, sel);
        benchmark::DoNotOptimize(sel.size());
    });

    TransformResult tr = transformerProgram();
    SystolicArray array = tr.program->buildArray();
    PeBatchKernel kernel(tr.program->programs, 3);
    auto cols = transformerInput(kRows);
    std::vector<std::int64_t> in(3), out, o0(kRows), o1(kRows);
    const std::int64_t *ins[3] =
        {cols[0].data(), cols[1].data(), cols[2].data()};
    std::int64_t *outs[2] = {o0.data(), o1.data()};
    double scalar_tr = bestOfSeconds(3, [&] {
        for (std::int64_t r = 0; r < kRows; ++r) {
            in[0] = cols[0][r];
            in[1] = cols[1][r];
            in[2] = cols[2][r];
            array.runRow(in, out);
            o0[r] = out[0];
        }
        benchmark::DoNotOptimize(o0.data());
    });
    double batched_tr = bestOfSeconds(3, [&] {
        kernel.run(ins, kRows, outs, 2);
        benchmark::DoNotOptimize(o0.data());
    });

    double sel_speedup =
        batched_sel > 0.0 ? scalar_sel / batched_sel : 0.0;
    double tr_speedup = batched_tr > 0.0 ? scalar_tr / batched_tr : 0.0;
    std::printf("row selector:    scalar %.1f Mrows/s, batched %.1f "
                "Mrows/s, speedup %.2fx (gate: >= 4x)\n",
                kRows / scalar_sel / 1e6, kRows / batched_sel / 1e6,
                sel_speedup);
    std::printf("row transformer: scalar %.1f Mrows/s, batched %.1f "
                "Mrows/s, speedup %.2fx (informational)\n",
                kRows / scalar_tr / 1e6, kRows / batched_tr / 1e6,
                tr_speedup);
    reportKernelSections();
    if (sel_speedup < 4.0) {
        std::fprintf(stderr,
                     "FAIL: batched selector speedup %.2fx < 4x\n",
                     sel_speedup);
        return 1;
    }
    return 0;
}

/**
 * CI zone-map gate (--check-skip-rate): a q6-style one-year window
 * over a *clustered* (sorted) synthetic shipdate column must let the
 * page zone maps skip at least half the pages. Real TPC-H shipdate is
 * unclustered, so fig16 sees ~0 skips; this gate covers the layout the
 * zone maps are designed for. Also cross-checks soundness: the pages
 * that survive pruning must hold every matching row.
 */
int
checkSkipRate()
{
    constexpr std::int64_t kRows = 1 << 21;
    constexpr std::int64_t kSpanDays = 2466; // 1992..1998, like TPC-H
    constexpr std::int64_t kBaseDay = 8036;  // 1992-01-01
    std::vector<std::int64_t> days(kRows);
    for (std::int64_t i = 0; i < kRows; ++i)
        days[i] = kBaseDay + i * kSpanDays / kRows;
    ColumnEncoding enc = encodeValues(days.data(), kRows, 4);

    // l_shipdate >= 1995-01-01 AND l_shipdate < 1996-01-01.
    const std::int64_t lo = kBaseDay + 1096;
    const std::int64_t hi = lo + 365;
    std::int64_t skipped = 0, all_rows_match = 0, kept_rows_match = 0;
    for (const EncodedPage &p : enc.pages) {
        bool skip =
            zoneCompare(p.zone, ZoneOp::Ge, lo) == ZoneVerdict::NonePass
            || zoneCompare(p.zone, ZoneOp::Lt, hi)
                == ZoneVerdict::NonePass;
        std::int64_t m = 0;
        if (countMatchesEncoded(p, ZoneOp::Ge, lo) > 0)
            m = countMatchesEncoded(p, ZoneOp::Lt, hi)
                + countMatchesEncoded(p, ZoneOp::Ge, lo) - p.rows;
        m = std::max<std::int64_t>(m, 0);
        all_rows_match += m;
        if (skip)
            ++skipped;
        else
            kept_rows_match += m;
    }
    double rate = static_cast<double>(skipped) / enc.numPages();
    std::printf("zone-map skip rate: %lld of %lld pages skipped "
                "(%.1f%%) on clustered q6 window (gate: >= 50%%)\n",
                static_cast<long long>(skipped),
                static_cast<long long>(enc.numPages()), rate * 100.0);
    if (kept_rows_match != all_rows_match) {
        std::fprintf(stderr,
                     "FAIL: pruning dropped matching rows (%lld of "
                     "%lld survive)\n",
                     static_cast<long long>(kept_rows_match),
                     static_cast<long long>(all_rows_match));
        return 1;
    }
    if (rate < 0.5) {
        std::fprintf(stderr, "FAIL: skip rate %.1f%% < 50%%\n",
                     rate * 100.0);
        return 1;
    }
    return 0;
}

} // namespace
} // namespace aquoman

int
main(int argc, char **argv)
{
    // Strip our flags before google-benchmark sees the argument list.
    bool check_batch = false;
    bool check_skip = false;
    bool morsel_sweep = false;
    int out_argc = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--check-batch-speedup")
            check_batch = true;
        else if (std::string_view(argv[i]) == "--check-skip-rate")
            check_skip = true;
        else if (std::string_view(argv[i]) == "--morsel-sweep")
            morsel_sweep = true;
        else
            argv[out_argc++] = argv[i];
    }
    argc = out_argc;

    if (int rc = aquoman::checkDisabledObservabilityOverhead())
        return rc;
    if (check_batch || check_skip || morsel_sweep) {
        int rc = 0;
        if (check_batch)
            rc = aquoman::checkBatchSpeedup();
        if (rc == 0 && check_skip)
            rc = aquoman::checkSkipRate();
        if (rc == 0 && morsel_sweep)
            rc = aquoman::morselSweep();
        return rc;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
