/** @file
 * Unit tests of the observability metrics layer: log-bucketed histogram
 * accuracy and order-independence, its JSON form, and the labeled
 * series keys the time-series store is indexed by.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace aquoman::obs {
namespace {

std::string
histJson(const Histogram &h)
{
    std::ostringstream os;
    h.toJson(os);
    return os.str();
}

TEST(HistogramTest, EmptyHistogramIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, BasicMoments)
{
    Histogram h;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        h.record(v);
    EXPECT_EQ(h.count(), 4);
    EXPECT_EQ(h.sum(), 10.0);
    EXPECT_EQ(h.min(), 1.0);
    EXPECT_EQ(h.max(), 4.0);
    EXPECT_EQ(h.mean(), 2.5);
}

TEST(HistogramTest, SingleSampleQuantilesAreThatSample)
{
    Histogram h;
    h.record(0.125);
    // Quantiles clamp to [min, max], so one sample pins every quantile.
    EXPECT_EQ(h.quantile(0.0), 0.125);
    EXPECT_EQ(h.quantile(0.5), 0.125);
    EXPECT_EQ(h.quantile(0.99), 0.125);
    EXPECT_EQ(h.quantile(1.0), 0.125);
}

TEST(HistogramTest, QuantileRelativeErrorBounded)
{
    // 1..1000: p50 must land within one sub-bucket (1/16 relative) of
    // the exact order statistic, across three orders of magnitude.
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    for (double q : {0.5, 0.9, 0.99}) {
        double exact = q * 1000.0;
        double approx = h.quantile(q);
        EXPECT_GE(approx, exact * (1.0 - 1.0 / Histogram::kSubBuckets))
            << "q=" << q;
        EXPECT_LE(approx, exact * (1.0 + 2.0 / Histogram::kSubBuckets))
            << "q=" << q;
    }
    EXPECT_GE(h.quantile(0.5), h.quantile(0.25));
    EXPECT_GE(h.quantile(0.99), h.quantile(0.9));
}

TEST(HistogramTest, ZeroAndNegativeSamplesShareTheZeroBucket)
{
    Histogram h;
    h.record(0.0);
    h.record(-3.0);
    h.record(8.0);
    EXPECT_EQ(h.count(), 3);
    EXPECT_EQ(h.min(), -3.0);
    EXPECT_EQ(h.max(), 8.0);
    // Two of three samples are <= 0, so the median is the zero bucket,
    // clamped to the observed minimum.
    EXPECT_LE(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, MergeIsOrderIndependent)
{
    std::vector<double> a{0.001, 0.5, 12.0, 3e6};
    std::vector<double> b{7.0, 7.0, 0.25, 1e-9, 42.0};
    Histogram fwd, rev, merged_ab, merged_ba, part_a, part_b;
    for (double v : a)
        fwd.record(v);
    for (double v : b)
        fwd.record(v);
    for (auto it = b.rbegin(); it != b.rend(); ++it)
        rev.record(*it);
    for (auto it = a.rbegin(); it != a.rend(); ++it)
        rev.record(*it);
    for (double v : a)
        part_a.record(v);
    for (double v : b)
        part_b.record(v);
    merged_ab.merge(part_a);
    merged_ab.merge(part_b);
    merged_ba.merge(part_b);
    merged_ba.merge(part_a);
    EXPECT_EQ(histJson(fwd), histJson(rev));
    EXPECT_EQ(histJson(fwd), histJson(merged_ab));
    EXPECT_EQ(histJson(fwd), histJson(merged_ba));
}

TEST(HistogramTest, JsonContainsAllFields)
{
    Histogram h;
    h.record(2.0);
    h.record(4.0);
    std::string js = histJson(h);
    for (const char *key :
         {"\"count\"", "\"sum\"", "\"min\"", "\"max\"", "\"mean\"",
          "\"p50\"", "\"p90\"", "\"p99\""})
        EXPECT_NE(js.find(key), std::string::npos) << js;
    EXPECT_NE(js.find("\"count\": 2"), std::string::npos) << js;
}

TEST(LabeledMetricTest, BuildsEscapedKey)
{
    EXPECT_EQ(labeledMetric("m", {{"a", "x"}, {"b", "y\"z"}}),
              "m{a=\"x\",b=\"y\\\"z\"}");
    EXPECT_EQ(promLabelEscape("plain"), "plain");
    EXPECT_EQ(promLabelEscape("a\nb"), "a\\nb");
    EXPECT_EQ(promLabelEscape("a\\b"), "a\\\\b");
    // Every character the label syntax must escape, in one value.
    EXPECT_EQ(labeledMetric("m", {{"d", "a\\b\"c\nd"}}),
              "m{d=\"a\\\\b\\\"c\\nd\"}");
}

} // namespace
} // namespace aquoman::obs
