/** @file
 * Windowed time-series rollup contracts: samples land in the right
 * fixed-width windows, merge() is order-independent (sharded stores
 * render byte-identical JSON however they are combined), and
 * Histogram::merge itself is order-independent under a deterministic
 * fuzz of shardings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/timeseries.hh"

namespace aquoman::obs {
namespace {

TEST(TimeSeriesStore, WindowIndexing)
{
    TimeSeriesStore ts(0.5);
    EXPECT_EQ(ts.windowIndex(0.0), 0);
    EXPECT_EQ(ts.windowIndex(0.49), 0);
    EXPECT_EQ(ts.windowIndex(0.5), 1);
    EXPECT_EQ(ts.windowIndex(1.74), 3);
    // Negative modelled times clamp to window 0.
    EXPECT_EQ(ts.windowIndex(-2.0), 0);
    EXPECT_DOUBLE_EQ(ts.windowStartSec(3), 1.5);
}

TEST(TimeSeriesStore, CountersAndRanges)
{
    TimeSeriesStore ts(1.0);
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.firstWindow(), 0);
    EXPECT_EQ(ts.lastWindow(), -1);

    ts.add("c", 0.2, 1.0);
    ts.add("c", 0.7, 2.0);
    ts.add("c", 2.5, 4.0);
    EXPECT_FALSE(ts.empty());
    EXPECT_EQ(ts.firstWindow(), 0);
    EXPECT_EQ(ts.lastWindow(), 2);
    EXPECT_DOUBLE_EQ(ts.counterAt("c", 0), 3.0);
    EXPECT_DOUBLE_EQ(ts.counterAt("c", 1), 0.0);
    EXPECT_DOUBLE_EQ(ts.counterAt("c", 2), 4.0);
    EXPECT_DOUBLE_EQ(ts.counterAt("missing", 0), 0.0);
    EXPECT_DOUBLE_EQ(ts.counterInRange("c", 0, 2), 7.0);
    EXPECT_DOUBLE_EQ(ts.counterInRange("c", 1, 2), 4.0);
    EXPECT_DOUBLE_EQ(ts.counterInRange("c", 3, 9), 0.0);
}

TEST(TimeSeriesStore, HistogramWindows)
{
    TimeSeriesStore ts(1.0);
    ts.observe("h", 0.1, 1.0);
    ts.observe("h", 0.9, 3.0);
    ts.observe("h", 1.5, 10.0);
    EXPECT_EQ(ts.histogramAt("h", 0).count(), 2);
    EXPECT_EQ(ts.histogramAt("h", 1).count(), 1);
    EXPECT_EQ(ts.histogramAt("h", 5).count(), 0);
    Histogram merged = ts.histogramInRange("h", 0, 1);
    EXPECT_EQ(merged.count(), 3);
    EXPECT_DOUBLE_EQ(merged.sum(), 14.0);
}

/** Tiny deterministic PRNG so the fuzz never depends on libc. */
struct Lcg
{
    std::uint64_t s;
    explicit Lcg(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    }
    double frac() { return static_cast<double>(next() % 100000) / 1e3; }
    /** Multiples of 1/256 in [1/256, 100]: summation is exact in a
     *  double regardless of association, so sharded partial sums equal
     *  the direct accumulation bit-for-bit. */
    double
    dyadic()
    {
        return static_cast<double>(1 + next() % 25600) / 256.0;
    }
};

TEST(TimeSeriesStore, MergeIsOrderIndependent)
{
    // One reference store fed directly, versus three shards fed
    // round-robin and merged in two different orders.
    Lcg rng(7);
    TimeSeriesStore direct(0.25);
    std::vector<TimeSeriesStore> shards(3, TimeSeriesStore(0.25));
    for (int i = 0; i < 400; ++i) {
        double at = rng.frac();
        double v = rng.dyadic();
        const std::string key = (i % 2) ? "a" : "b";
        direct.add(key, at, v);
        direct.observe("lat", at, v);
        shards[i % 3].add(key, at, v);
        shards[i % 3].observe("lat", at, v);
    }

    TimeSeriesStore fwd(0.25);
    for (const TimeSeriesStore &s : shards)
        fwd.merge(s);
    TimeSeriesStore rev(0.25);
    for (auto it = shards.rbegin(); it != shards.rend(); ++it)
        rev.merge(*it);

    EXPECT_EQ(direct.jsonString(), fwd.jsonString());
    EXPECT_EQ(direct.jsonString(), rev.jsonString());
    EXPECT_EQ(direct.jsonString(), direct.jsonString());
}

TEST(HistogramMerge, OrderIndependenceFuzz)
{
    // 20 rounds: random samples split into random shards, shards merged
    // in forward and reverse order; every aggregate and quantile must
    // equal the directly-built histogram exactly.
    for (std::uint64_t round = 0; round < 20; ++round) {
        Lcg rng(1000 + round);
        int n = 50 + static_cast<int>(rng.next() % 450);
        int num_shards = 1 + static_cast<int>(rng.next() % 7);

        Histogram direct;
        std::vector<Histogram> shards(num_shards);
        for (int i = 0; i < n; ++i) {
            double v = rng.dyadic();
            direct.record(v);
            shards[rng.next() % num_shards].record(v);
        }

        Histogram fwd;
        for (const Histogram &s : shards)
            fwd.merge(s);
        Histogram rev;
        for (auto it = shards.rbegin(); it != shards.rend(); ++it)
            rev.merge(*it);

        for (const Histogram *m : {&fwd, &rev}) {
            EXPECT_EQ(m->count(), direct.count()) << "round " << round;
            EXPECT_DOUBLE_EQ(m->sum(), direct.sum())
                << "round " << round;
            EXPECT_DOUBLE_EQ(m->min(), direct.min())
                << "round " << round;
            EXPECT_DOUBLE_EQ(m->max(), direct.max())
                << "round " << round;
            for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
                EXPECT_DOUBLE_EQ(m->quantile(q), direct.quantile(q))
                    << "round " << round << " q " << q;
        }

        std::ostringstream a, b;
        direct.toJson(a);
        fwd.toJson(b);
        EXPECT_EQ(a.str(), b.str()) << "round " << round;
    }
}

TEST(TimeSeriesStore, JsonShapeAndClear)
{
    TimeSeriesStore ts(2.0);
    ts.add("c", 1.0, 5.0);
    ts.observe("h", 3.0, 1.5);
    std::string j = ts.jsonString();
    EXPECT_NE(j.find("\"window_seconds\":2"), std::string::npos) << j;
    EXPECT_NE(j.find("\"counters\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"histograms\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"start_seconds\":2"), std::string::npos) << j;
    ts.clear();
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.lastWindow(), -1);
}

} // namespace
} // namespace aquoman::obs
