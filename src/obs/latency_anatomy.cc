#include "obs/latency_anatomy.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/metrics.hh"

namespace aquoman::obs {

const char *
waitClassName(WaitClass c)
{
    switch (c) {
      case WaitClass::AdmissionQueue:
        return "admission_queue";
      case WaitClass::DramWait:
        return "dram_wait";
      case WaitClass::DeviceBusy:
        return "device_busy";
      case WaitClass::DeviceExec:
        return "device_exec";
      case WaitClass::SuspendHost:
        return "suspend_host";
      case WaitClass::HostFinish:
        return "host_finish";
    }
    return "?";
}

double
WaitLedger::total() const
{
    double t = 0.0;
    for (int i = 0; i < kNumWaitClasses; ++i)
        t += sec[i];
    return t;
}

WaitClass
WaitLedger::dominant() const
{
    int best = 0;
    for (int i = 1; i < kNumWaitClasses; ++i)
        if (sec[i] > sec[best])
            best = i;
    return static_cast<WaitClass>(best);
}

WaitLedger &
WaitLedger::operator+=(const WaitLedger &o)
{
    for (int i = 0; i < kNumWaitClasses; ++i)
        sec[i] += o.sec[i];
    return *this;
}

void
WaitLedger::toJson(std::ostream &os) const
{
    os << '{';
    for (int i = 0; i < kNumWaitClasses; ++i)
        os << (i ? "," : "") << '"'
           << waitClassName(static_cast<WaitClass>(i))
           << "\":" << jsonNumber(sec[i]);
    os << '}';
}

bool
validateWaitPartition(const WaitLedger &w, double total_sec,
                      std::string *error)
{
    if (w.total() == total_sec)
        return true;
    if (error != nullptr) {
        std::ostringstream os;
        os << "wait ledger sums to " << jsonNumber(w.total())
           << " but end-to-end latency is " << jsonNumber(total_sec);
        *error = os.str();
    }
    return false;
}

std::vector<WaitSegment>
criticalPath(const std::vector<WaitSegment> &segments,
             const QueryProfile *profile)
{
    std::vector<WaitSegment> out;
    for (const WaitSegment &s : segments) {
        if (!(s.endSec > s.startSec))
            continue;
        if (!out.empty() && out.back().cls == s.cls &&
            out.back().device == s.device) {
            out.back().endSec = s.endSec;
            if (out.back().detail.empty())
                out.back().detail = s.detail;
            continue;
        }
        out.push_back(s);
    }
    if (profile != nullptr) {
        std::string bottleneck = std::string("bottleneck=") +
            pipeStageName(profile->root.subtreeStages().bottleneck());
        for (WaitSegment &s : out) {
            if (s.cls != WaitClass::DeviceExec)
                continue;
            s.detail += s.detail.empty() ? bottleneck
                                         : " " + bottleneck;
        }
    }
    return out;
}

void
BlameMatrix::resize(int tenants)
{
    n = tenants;
    cells.assign(static_cast<std::size_t>(n) *
                     static_cast<std::size_t>(n),
                 0.0);
}

double
BlameMatrix::rowSum(int victim) const
{
    double t = 0.0;
    for (int c = 0; c < n; ++c)
        t += at(victim, c);
    return t;
}

double
BlameMatrix::total() const
{
    double t = 0.0;
    for (double v : cells)
        t += v;
    return t;
}

BlameMatrix &
BlameMatrix::operator+=(const BlameMatrix &o)
{
    if (n == 0)
        resize(o.n);
    if (o.n == n)
        for (std::size_t i = 0; i < cells.size(); ++i)
            cells[i] += o.cells[i];
    return *this;
}

void
BlameMatrix::toJson(std::ostream &os,
                    const std::vector<std::string> &tenantNames) const
{
    os << "{\"tenants\":[";
    for (int i = 0; i < n; ++i)
        os << (i ? "," : "") << '"'
           << jsonEscape(i < static_cast<int>(tenantNames.size())
                             ? tenantNames[static_cast<std::size_t>(i)]
                             : std::to_string(i))
           << '"';
    os << "],\"seconds\":[";
    for (int v = 0; v < n; ++v) {
        os << (v ? "," : "") << '[';
        for (int c = 0; c < n; ++c)
            os << (c ? "," : "") << jsonNumber(at(v, c));
        os << ']';
    }
    os << "]}";
}

void
BlameMatrix::renderText(std::ostream &os,
                        const std::vector<std::string> &tenantNames) const
{
    auto name = [&](int i) -> std::string {
        return i < static_cast<int>(tenantNames.size())
                   ? tenantNames[static_cast<std::size_t>(i)]
                   : std::to_string(i);
    };
    std::size_t w = 12;
    for (int i = 0; i < n; ++i)
        w = std::max(w, name(i).size() + 2);
    os << std::left << std::setw(static_cast<int>(w))
       << "victim\\culprit";
    for (int c = 0; c < n; ++c)
        os << std::right << std::setw(static_cast<int>(w)) << name(c);
    os << std::right << std::setw(static_cast<int>(w)) << "row_sum"
       << '\n';
    for (int v = 0; v < n; ++v) {
        os << std::left << std::setw(static_cast<int>(w)) << name(v);
        for (int c = 0; c < n; ++c)
            os << std::right << std::setw(static_cast<int>(w))
               << std::fixed << std::setprecision(4) << at(v, c);
        os << std::right << std::setw(static_cast<int>(w)) << std::fixed
           << std::setprecision(4) << rowSum(v) << '\n';
    }
    os.unsetf(std::ios::floatfield);
}

} // namespace aquoman::obs
