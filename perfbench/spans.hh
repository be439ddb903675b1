/**
 * @file
 * In-memory wall-clock spans for the benchmark's traced run.
 *
 * A span is recorded around each call the benchmark makes into one of
 * the simulator's modules. Its name is "<layer>.<call>" (the layer is
 * the src/ module name); names without a dot are the benchmark's own
 * grouping spans (process, setup, unit, fig16 row) and belong to no
 * layer. Spans nest strictly: they are opened and closed on the
 * benchmark's single driving thread, and each records its parent, so a
 * layer's self time is its duration minus the part its child spans
 * cover. CPU time is the whole process's (every pool thread), read at
 * both ends of a span, so CPU over wall is the layer's parallelism.
 */

#ifndef AQUOMAN_PERFBENCH_SPANS_HH
#define AQUOMAN_PERFBENCH_SPANS_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** User plus system CPU seconds of the whole process so far. */
inline double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Peak resident set size of the process, in MB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

struct Span
{
    std::string name;
    double start = 0.0; ///< wall seconds since the process origin
    double end = 0.0;
    double cpuStart = 0.0; ///< process CPU seconds
    double cpuEnd = 0.0;
    int parent = -1;
    std::int64_t request = -1; ///< query/pass id, -1 when none

    double wall() const { return end - start; }
    double cpu() const { return cpuEnd - cpuStart; }

    /** "engine" for "engine.run"; empty for grouping spans. */
    std::string
    layer() const
    {
        std::size_t dot = name.find('.');
        return dot == std::string::npos ? std::string()
                                        : name.substr(0, dot);
    }
};

/** Measure of the union of [start, end) intervals. */
inline double
unionLength(std::vector<std::pair<double, double>> iv)
{
    std::sort(iv.begin(), iv.end());
    double total = 0.0, lo = 0.0, hi = 0.0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (open && s <= hi) {
            hi = std::max(hi, e);
            continue;
        }
        if (open)
            total += hi - lo;
        lo = s;
        hi = e;
        open = true;
    }
    if (open)
        total += hi - lo;
    return total;
}

/**
 * Span recorder. Disabled, begin() returns -1 and nothing is stored,
 * so untraced runs pay one branch per call site.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Wall seconds since the process origin. */
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    int
    begin(std::string name, std::int64_t request = -1)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = std::move(name);
        s.parent = open_.empty() ? -1 : open_.back();
        s.request = request;
        s.cpuStart = processCpuSeconds();
        s.start = now();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        Span &s = spans_[id];
        s.end = now();
        s.cpuEnd = processCpuSeconds();
        // Strict nesting: the closed span is the innermost open one.
        if (open_.empty() || open_.back() != id)
            nestingBroken_ = true;
        std::erase(open_, id);
    }

    const std::vector<Span> &spans() const { return spans_; }
    bool nestingBroken() const { return nestingBroken_ || !open_.empty(); }

    /** Self wall seconds of span @p i: its duration minus the union of
     *  its children's intervals clipped to it. */
    double
    selfWall(int i) const
    {
        const Span &s = spans_[i];
        std::vector<std::pair<double, double>> kids;
        for (int c : children(i))
            kids.emplace_back(std::max(s.start, spans_[c].start),
                              std::min(s.end, spans_[c].end));
        return s.wall() - unionLength(std::move(kids));
    }

    /** Self CPU seconds of span @p i (children run inside it on the
     *  same driving thread, so their CPU nests too). */
    double
    selfCpu(int i) const
    {
        double cpu = spans_[i].cpu();
        for (int c : children(i))
            cpu -= spans_[c].cpu();
        return cpu;
    }

    /** Indices of the direct children of span @p i. */
    const std::vector<int> &
    children(int i) const
    {
        if (childIndex_.size() != spans_.size()) {
            childIndex_.assign(spans_.size(), {});
            for (std::size_t c = 0; c < spans_.size(); ++c)
                if (spans_[c].parent >= 0)
                    childIndex_[spans_[c].parent].push_back(
                        static_cast<int>(c));
        }
        return childIndex_[i];
    }

    /** Chrome trace_event JSON (complete "X" events, microseconds). */
    void
    writeChromeTrace(std::ostream &os) const
    {
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::string cat = s.layer();
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"cat\":\"" << (cat.empty() ? "bench" : cat)
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << static_cast<std::int64_t>(s.start * 1e6)
               << ",\"dur\":"
               << static_cast<std::int64_t>(s.wall() * 1e6)
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"request\":" << s.request << ",\"cpu_us\":"
               << static_cast<std::int64_t>(s.cpu() * 1e6) << "}}";
        }
        os << "\n]}\n";
    }

  private:
    Clock::time_point origin_;
    bool enabled_ = false;
    bool nestingBroken_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
    mutable std::vector<std::vector<int>> childIndex_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, std::string name, std::int64_t request = -1)
        : rec_(rec), id_(rec.begin(std::move(name), request))
    {
    }
    ~Scope() { rec_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace perfbench

#endif // AQUOMAN_PERFBENCH_SPANS_HH
