/**
 * @file
 * Metric building blocks shared by the SLO engine's time-series store,
 * the SLO and anatomy JSON and the bench reports: a log-bucketed
 * histogram whose quantiles do not depend on sample order, labeled
 * series keys, and exact JSON number / string rendering.
 */

#ifndef AQUOMAN_OBS_METRICS_HH
#define AQUOMAN_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace aquoman::obs {

/** Render @p v as a JSON number that round-trips exactly (%.17g). */
std::string jsonNumber(double v);

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string jsonEscape(const std::string &s);

/**
 * Escape a label value: backslash, double quote and newline become
 * \\, \" and \n, as in the Prometheus text format.
 */
std::string promLabelEscape(const std::string &s);

/**
 * Canonical series key for a labeled metric:
 * `name{key="escaped value",...}`, labels in the order given.
 */
std::string labeledMetric(
    const std::string &name,
    const std::vector<std::pair<std::string, std::string>> &labels);

/**
 * A log-bucketed histogram of non-negative samples. Buckets subdivide
 * each power-of-two octave into kSubBuckets equal slices, so relative
 * quantile error is bounded by 1/kSubBuckets regardless of magnitude.
 * Counts are order-independent: merging or reordering record() calls
 * yields the identical histogram, which keeps quantiles deterministic.
 */
class Histogram
{
  public:
    static constexpr int kSubBuckets = 16;

    void record(double v);
    void merge(const Histogram &other);

    std::int64_t count() const { return n; }
    double sum() const { return total; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }

    /**
     * Quantile @p q in [0, 1]: the upper bound of the bucket holding
     * the ceil(q*n)-th sample, clamped to the observed [min, max].
     */
    double quantile(double q) const;

    /** {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,
     *  "p90":..,"p99":..} */
    void toJson(std::ostream &os) const;

  private:
    static int bucketOf(double v);
    static double bucketUpperBound(int idx);

    /// Sparse bucket index -> sample count; std::map iteration order is
    /// ascending bucket (hence ascending value), giving deterministic
    /// quantile walks.
    std::map<int, std::int64_t> buckets;
    std::int64_t n = 0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_METRICS_HH
