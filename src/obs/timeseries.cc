#include "obs/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace aquoman::obs {

TimeSeriesStore::TimeSeriesStore(double window_sec) : width(window_sec)
{
    AQ_ASSERT(window_sec > 0.0, "window width must be positive");
}

std::int64_t
TimeSeriesStore::windowIndex(double at_sec) const
{
    if (!(at_sec > 0.0))
        return 0;
    return static_cast<std::int64_t>(std::floor(at_sec / width));
}

void
TimeSeriesStore::add(const std::string &key, double at_sec, double delta)
{
    counters[key][windowIndex(at_sec)] += delta;
}

void
TimeSeriesStore::observe(const std::string &key, double at_sec,
                         double value)
{
    hists[key][windowIndex(at_sec)].record(value);
}

void
TimeSeriesStore::merge(const TimeSeriesStore &other)
{
    AQ_ASSERT(width == other.width,
              "cannot merge stores with different window widths");
    for (const auto &[key, windows] : other.counters)
        for (const auto &[idx, v] : windows)
            counters[key][idx] += v;
    for (const auto &[key, windows] : other.hists)
        for (const auto &[idx, h] : windows)
            hists[key][idx].merge(h);
}

double
TimeSeriesStore::counterAt(const std::string &key,
                           std::int64_t idx) const
{
    auto it = counters.find(key);
    if (it == counters.end())
        return 0.0;
    auto wit = it->second.find(idx);
    return wit == it->second.end() ? 0.0 : wit->second;
}

double
TimeSeriesStore::counterInRange(const std::string &key,
                                std::int64_t first,
                                std::int64_t last) const
{
    auto it = counters.find(key);
    if (it == counters.end())
        return 0.0;
    double sum = 0.0;
    for (auto wit = it->second.lower_bound(first);
         wit != it->second.end() && wit->first <= last; ++wit)
        sum += wit->second;
    return sum;
}

Histogram
TimeSeriesStore::histogramAt(const std::string &key,
                             std::int64_t idx) const
{
    auto it = hists.find(key);
    if (it == hists.end())
        return Histogram{};
    auto wit = it->second.find(idx);
    return wit == it->second.end() ? Histogram{} : wit->second;
}

Histogram
TimeSeriesStore::histogramInRange(const std::string &key,
                                  std::int64_t first,
                                  std::int64_t last) const
{
    Histogram out;
    auto it = hists.find(key);
    if (it == hists.end())
        return out;
    for (auto wit = it->second.lower_bound(first);
         wit != it->second.end() && wit->first <= last; ++wit)
        out.merge(wit->second);
    return out;
}

std::int64_t
TimeSeriesStore::firstWindow() const
{
    bool any = false;
    std::int64_t first = 0;
    for (const auto &[key, windows] : counters)
        if (!windows.empty()) {
            std::int64_t w = windows.begin()->first;
            first = any ? std::min(first, w) : w;
            any = true;
        }
    for (const auto &[key, windows] : hists)
        if (!windows.empty()) {
            std::int64_t w = windows.begin()->first;
            first = any ? std::min(first, w) : w;
            any = true;
        }
    return any ? first : 0;
}

std::int64_t
TimeSeriesStore::lastWindow() const
{
    bool any = false;
    std::int64_t last = 0;
    for (const auto &[key, windows] : counters)
        if (!windows.empty()) {
            std::int64_t w = windows.rbegin()->first;
            last = any ? std::max(last, w) : w;
            any = true;
        }
    for (const auto &[key, windows] : hists)
        if (!windows.empty()) {
            std::int64_t w = windows.rbegin()->first;
            last = any ? std::max(last, w) : w;
            any = true;
        }
    return any ? last : -1;
}

void
TimeSeriesStore::toJson(std::ostream &os) const
{
    os << "{\"window_seconds\":" << jsonNumber(width);
    os << ",\"counters\":{";
    bool first_series = true;
    for (const auto &[key, windows] : counters) {
        os << (first_series ? "" : ",") << '"' << jsonEscape(key)
           << "\":[";
        first_series = false;
        bool first_win = true;
        for (const auto &[idx, v] : windows) {
            os << (first_win ? "" : ",") << "{\"window\":" << idx
               << ",\"start_seconds\":" << jsonNumber(windowStartSec(idx))
               << ",\"value\":" << jsonNumber(v) << '}';
            first_win = false;
        }
        os << ']';
    }
    os << "},\"histograms\":{";
    first_series = true;
    for (const auto &[key, windows] : hists) {
        os << (first_series ? "" : ",") << '"' << jsonEscape(key)
           << "\":[";
        first_series = false;
        bool first_win = true;
        for (const auto &[idx, h] : windows) {
            os << (first_win ? "" : ",") << "{\"window\":" << idx
               << ",\"start_seconds\":" << jsonNumber(windowStartSec(idx))
               << ",\"histogram\":";
            h.toJson(os);
            os << '}';
            first_win = false;
        }
        os << ']';
    }
    os << "}}";
}

std::string
TimeSeriesStore::jsonString() const
{
    std::ostringstream os;
    toJson(os);
    return os.str();
}

void
TimeSeriesStore::clear()
{
    counters.clear();
    hists.clear();
}

} // namespace aquoman::obs
