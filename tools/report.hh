/**
 * @file
 * The `report` CLI's logic, kept in one header so the tests reach every
 * gate directly. Four subcommands share one JSON reader, one record
 * index, one structural diff and one argv parser:
 *
 *   report bench <baseline.json> <candidate.json>
 *                [--wall-threshold-pct P] [--model-tolerance T]
 *                [--flash-bytes-threshold-pct P] [--verbose]
 *       Regression gate over two writeJsonReport files (fig16_tpch,
 *       service_workload). Records pair on their composed identity key
 *       (query / devices / tenant / overload / fifo). It fails when:
 *        - a modelled_* field drifts by more than --model-tolerance
 *          (relative, default 0 = exact) or is missing from the
 *          candidate;
 *        - a baseline record key is missing from the candidate (named,
 *          with the side). Candidate-only keys are notes;
 *        - the geomean of candidate/baseline wall_seconds ratios
 *          exceeds 1 + --wall-threshold-pct/100 (default 10);
 *        - the geomean of flash_bytes ratios exceeds
 *          1 + --flash-bytes-threshold-pct/100 (default 0).
 *       --verbose prints every matched record's wall ratio, worst
 *       first, even when the gate passes.
 *
 *   report slo <slo-report.json>
 *       Pretty-print service_workload's --slo-report timeline: per-run,
 *       per-tenant totals, windowed latency quantiles, burn rates,
 *       budget consumption and burn-rate alert firings.
 *
 *   report anatomy <anatomy.json> [--report <bench.json>] [--top K]
 *                  [--json <out.json>]
 *       Validate service_workload's --anatomy file, then print per run
 *       the wait-class breakdown, the blame matrix and the top-K
 *       slowest queries' critical paths. Invariants (exit 1 on any
 *       failure):
 *        - each query's six wait-class seconds sum, in fixed class
 *          order, to done_seconds - submit_seconds bitwise (shed
 *          queries: all zero);
 *        - blame row sums equal tenant_contention_seconds per tenant;
 *        - wait_totals match the per-class sums over the queries
 *          (ulp-tolerant: the two sides accumulate in different
 *          orders);
 *        - critical paths tile [submit, done] contiguously.
 *       --report cross-checks the bench's --json report: the p99
 *       recomputed from the anatomy must reproduce
 *       modelled_p99_latency_seconds, and the modelled_wait_* and
 *       contention fields must equal the anatomy's aggregates exactly.
 *       --json writes a deterministic summary of the runs.
 *
 *   report diff <baseline.json> <candidate.json> [--tolerance T]
 *       Structural diff of any two JSON files. Every missing member is
 *       named with the side it is missing from; numeric leaves compare
 *       exactly unless --tolerance (relative) is given.
 *
 * Exit codes: 0 pass / identical, 1 regression, check failure or
 * difference, 2 usage or parse error. The reader accepts exactly one
 * JSON value per file: trailing content is a parse error, as is a
 * bench record with an empty or duplicate identity key.
 */

#ifndef AQUOMAN_TOOLS_REPORT_HH
#define AQUOMAN_TOOLS_REPORT_HH

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace aquoman::tools {

inline std::string
formatMsg(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/** What one check found, the first kMaxReported lines kept verbatim. */
struct Findings
{
    static constexpr int kMaxReported = 64;

    int count = 0;
    std::vector<std::string> messages;

    void
    add(const std::string &msg)
    {
        if (++count <= kMaxReported)
            messages.push_back(msg);
        if (count == kMaxReported + 1)
            messages.push_back("(further findings suppressed)");
    }
};

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /// Members in file order (deterministic writers sort their keys).
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Member @p key of an object (nullptr when absent / not object). */
    const JsonValue *
    find(const std::string &key) const
    {
        if (kind != Kind::Object)
            return nullptr;
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }

    JsonValue *
    find(const std::string &key)
    {
        return const_cast<JsonValue *>(std::as_const(*this).find(key));
    }

    double
    numberOr(double fallback) const
    {
        return kind == Kind::Number ? number : fallback;
    }
};

/** Number of @p v (a member lookup result), or @p fallback. */
inline double
num(const JsonValue *v, double fallback = 0.0)
{
    return v ? v->numberOr(fallback) : fallback;
}

/** String of @p v, or "?" when absent or not a string. */
inline const char *
strOf(const JsonValue *v)
{
    return v && v->kind == JsonValue::Kind::String ? v->str.c_str() : "?";
}

/** Elements of @p v: none when absent or not an array. */
inline const std::vector<JsonValue> &
elements(const JsonValue *v)
{
    static const std::vector<JsonValue> none;
    return v ? v->array : none;
}

namespace detail {

/** Recursive-descent reader over one in-memory document. */
class JsonReader
{
  public:
    explicit JsonReader(const std::string &text)
        : begin(text.data()), p(text.data()),
          end(text.data() + text.size())
    {
    }

    /** Parse exactly one value followed only by whitespace. */
    bool
    document(JsonValue *out)
    {
        if (!value(out, 0))
            return false;
        skipWs();
        return p == end || fail("trailing content after the JSON value");
    }

    std::string error;

  private:
    static constexpr int kMaxDepth = 256;

    const char *begin;
    const char *p;
    const char *end;

    bool
    fail(const char *what)
    {
        if (error.empty())
            error = formatMsg("%s at offset %td", what, p - begin);
        return false;
    }

    void
    skipWs()
    {
        while (p < end
               && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    /** Consume @p c after whitespace; false (no error) otherwise. */
    bool
    accept(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    expect(char c)
    {
        return accept(c)
            || fail((std::string("expected '") + c + "'").c_str());
    }

    bool
    string(std::string *out)
    {
        if (!expect('"'))
            return false;
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (p >= end)
                break;
            switch (char e = *p++) {
              case 'n': *out += '\n'; break;
              case 't': *out += '\t'; break;
              case 'r': *out += '\r'; break;
              // Kept verbatim: no field the tools read uses \u.
              case 'u': *out += "\\u"; break;
              default: *out += e; break;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p;
        return true;
    }

    bool
    literal(const char *lit)
    {
        std::size_t len = std::strlen(lit);
        if (static_cast<std::size_t>(end - p) < len
            || std::strncmp(p, lit, len) != 0)
            return fail("bad literal");
        p += len;
        return true;
    }

    bool
    value(JsonValue *out, int depth)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        using Kind = JsonValue::Kind;
        switch (*p) {
          case '{':
            ++p;
            out->kind = Kind::Object;
            if (accept('}'))
                return true;
            do {
                std::string key;
                JsonValue v;
                if (!string(&key) || !expect(':') || !value(&v, depth + 1))
                    return false;
                out->object.emplace_back(std::move(key), std::move(v));
            } while (accept(','));
            return expect('}');
          case '[':
            ++p;
            out->kind = Kind::Array;
            if (accept(']'))
                return true;
            do {
                out->array.emplace_back();
                if (!value(&out->array.back(), depth + 1))
                    return false;
            } while (accept(','));
            return expect(']');
          case '"':
            out->kind = Kind::String;
            return string(&out->str);
          case 't':
          case 'f':
            out->kind = Kind::Bool;
            out->boolean = *p == 't';
            return literal(out->boolean ? "true" : "false");
          case 'n':
            out->kind = Kind::Null;
            return literal("null");
          default: {
            if (*p != '-' && (*p < '0' || *p > '9'))
                return fail("unexpected character");
            // The document is a std::string, so strtod stops at its
            // terminating NUL at the latest. JSON has no "-nan", "-inf"
            // or hex numbers: a NaN would compare as no drift.
            char *num_end = nullptr;
            out->kind = Kind::Number;
            out->number = std::strtod(p, &num_end);
            if (num_end == p
                || !std::all_of(p, static_cast<const char *>(num_end),
                                [](char c) {
                                    return (c >= '0' && c <= '9')
                                        || std::strchr("+-.eE", c);
                                }))
                return fail("expected number");
            p = num_end;
            return true;
          }
        }
    }
};

} // namespace detail

/** Parse @p text as exactly one JSON value (whitespace may follow). */
inline bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    detail::JsonReader reader(text);
    if (reader.document(out))
        return true;
    *error = reader.error;
    return false;
}

inline bool
parseJsonFile(const std::string &path, JsonValue *out, std::string *error)
{
    std::ifstream f(path);
    if (!f) {
        *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    if (parseJson(buf.str(), out, error))
        return true;
    *error = path + ": " + *error;
    return false;
}

// ---------------------------------------------------------------------
// Bench-report records and the regression gate
// ---------------------------------------------------------------------

/** Numeric fields of one record; non-numeric members are dropped. */
using Record = std::map<std::string, double>;

/**
 * Key a record by its identity fields for baseline/candidate matching.
 * All present identity fields compose, so the multi-tenant workload
 * bench can distinguish (tenant, overload, policy) slices while the
 * single-field figure benches keep their "query=N" / "devices=M" keys.
 */
inline std::string
recordKey(const Record &r)
{
    std::string key;
    for (const char *id :
         {"query", "devices", "tenant", "overload", "fifo"}) {
        auto it = r.find(id);
        if (it != r.end())
            key += formatMsg("%s%s=%g", key.empty() ? "" : ",", id,
                             it->second);
    }
    return key;
}

/**
 * The records of a writeJsonReport document ({"records": [{...}], ...}).
 * Every record must carry a non-empty identity key no other record
 * shares: a silently dropped duplicate would hide its regressions.
 */
inline bool
recordsFromJson(const JsonValue &root, std::vector<Record> *out,
                std::string *error)
{
    if (root.kind != JsonValue::Kind::Object) {
        *error = "top-level value is not an object";
        return false;
    }
    const JsonValue *records = root.find("records");
    if (records == nullptr)
        return true;
    if (records->kind != JsonValue::Kind::Array) {
        *error = "\"records\" is not an array";
        return false;
    }
    std::map<std::string, std::size_t> seen;
    for (const JsonValue &r : records->array) {
        if (r.kind != JsonValue::Kind::Object) {
            *error = formatMsg("record %zu is not an object", out->size());
            return false;
        }
        Record rec;
        for (const auto &[name, v] : r.object)
            if (v.kind == JsonValue::Kind::Number)
                rec[name] = v.number;
        std::string key = recordKey(rec);
        if (key.empty()) {
            *error = formatMsg("record %zu has an empty identity key",
                               out->size());
            return false;
        }
        auto [it, fresh] = seen.emplace(key, out->size());
        if (!fresh) {
            *error = formatMsg("records %zu and %zu share identity key "
                               "'%s'",
                               it->second, out->size(), key.c_str());
            return false;
        }
        out->push_back(std::move(rec));
    }
    return true;
}

inline bool
readReport(const std::string &path, std::vector<Record> *out,
           std::string *error)
{
    JsonValue root;
    if (!parseJsonFile(path, &root, error))
        return false;
    if (recordsFromJson(root, out, error))
        return true;
    *error = path + ": " + *error;
    return false;
}

struct DiffOptions
{
    double wallThresholdPct = 10.0;
    double modelTolerance = 0.0;
    double flashThresholdPct = 0.0;

    /** Emit every matched record's wall ratio (worst first) as notes,
     *  healthy or not — the gate only lists them on failure. */
    bool verbose = false;
};

struct DiffResult
{
    int failures = 0;
    int matched = 0;
    /// FAIL lines, one per violation; callers print them to stderr.
    std::vector<std::string> failureMessages;
    /// Informational lines (candidate-only records etc.).
    std::vector<std::string> notes;
    double wallGeomean = 1.0;
    int wallSamples = 0;
    double flashGeomean = 1.0;
    int flashSamples = 0;
    bool fatal = false; ///< no records matched at all
    std::string fatalMessage;
};

/** Relative drift of @p cand from @p base (absolute when base is 0). */
inline double
relDrift(double base, double cand)
{
    return std::fabs(cand - base)
        / (std::fabs(base) > 0.0 ? std::fabs(base) : 1.0);
}

/**
 * Compare @p candidate against @p baseline (records with unique,
 * non-empty keys, as recordsFromJson guarantees). Fails when a
 * modelled_* field drifts beyond tolerance, when a baseline record key
 * or modelled field is missing from the candidate (named, with the
 * side), or when the wall / flash geomean gates trip. Candidate-only
 * record keys are notes, not failures, so new bench coverage never
 * trips the gate.
 */
inline DiffResult
diffReports(const std::vector<Record> &baseline,
            const std::vector<Record> &candidate, const DiffOptions &opt)
{
    DiffResult res;
    auto index = [](const std::vector<Record> &records) {
        std::map<std::string, const Record *> by_key;
        for (const Record &r : records)
            by_key.emplace(recordKey(r), &r);
        return by_key;
    };
    std::map<std::string, const Record *> base_by_key = index(baseline);
    std::map<std::string, const Record *> cand_by_key = index(candidate);

    // Baseline coverage that disappeared is a regression;
    // candidate-only records are informational.
    for (const auto &[key, rec] : base_by_key)
        if (!cand_by_key.count(key)) {
            res.failureMessages.push_back(formatMsg(
                "FAIL record '%s' missing from candidate report",
                key.c_str()));
            ++res.failures;
        }
    for (const auto &[key, rec] : cand_by_key)
        if (!base_by_key.count(key))
            res.notes.push_back(formatMsg(
                "note: record '%s' missing from baseline report "
                "(new coverage)",
                key.c_str()));

    // Per matched record, kept so a tripped geomean gate can name the
    // records that dragged it over the line.
    struct Sample
    {
        double ratio;
        std::string key;
        double base;
        double cand;
    };
    std::vector<Sample> wall_samples, flash_samples;
    auto sample = [](const char *field, const std::string &key,
                     const Record &base, const Record &cand,
                     std::vector<Sample> &out) {
        auto b = base.find(field);
        auto c = cand.find(field);
        if (b != base.end() && c != cand.end() && b->second > 0.0
            && c->second > 0.0)
            out.push_back({c->second / b->second, key, b->second,
                           c->second});
    };

    for (const auto &[key, candp] : cand_by_key) {
        auto bit = base_by_key.find(key);
        if (bit == base_by_key.end())
            continue;
        const Record &base = *bit->second;
        const Record &cand = *candp;
        ++res.matched;
        sample("wall_seconds", key, base, cand, wall_samples);
        sample("flash_bytes", key, base, cand, flash_samples);

        for (const auto &[name, base_v] : base) {
            if (name.rfind("modelled_", 0) != 0)
                continue;
            auto cit = cand.find(name);
            if (cit == cand.end()) {
                res.failureMessages.push_back(formatMsg(
                    "FAIL %s: field '%s' missing from candidate report",
                    key.c_str(), name.c_str()));
                ++res.failures;
                continue;
            }
            double drift = relDrift(base_v, cit->second);
            if (drift > opt.modelTolerance) {
                res.failureMessages.push_back(formatMsg(
                    "FAIL %s: %s drifted %.17g -> %.17g "
                    "(rel %.3g > tol %.3g)",
                    key.c_str(), name.c_str(), base_v, cit->second,
                    drift, opt.modelTolerance));
                ++res.failures;
            }
        }
    }

    if (res.matched == 0) {
        res.fatal = true;
        res.fatalMessage = "no matching records between the reports";
        return res;
    }

    auto worstFirst = [](std::vector<Sample> samples) {
        std::sort(samples.begin(), samples.end(),
                  [](const Sample &a, const Sample &b) {
                      return a.ratio > b.ratio;
                  });
        return samples;
    };
    auto ratioLine = [](const char *field, const Sample &s) {
        return formatMsg("%s '%s' ratio %.4f (%.6g -> %.6g)", field,
                         s.key.c_str(), s.ratio, s.base, s.cand);
    };
    // Geomean of the ratios; a trip lists every matched record's
    // ratio, worst first, so the offenders need no rerun to find.
    auto gate = [&](const char *field, const std::vector<Sample> &samples,
                    double threshold_pct, double *geomean) {
        double log_sum = 0.0;
        for (const Sample &s : samples)
            log_sum += std::log(s.ratio);
        *geomean = samples.empty()
            ? 1.0 : std::exp(log_sum / static_cast<double>(samples.size()));
        double limit = 1.0 + threshold_pct / 100.0;
        if (*geomean <= limit)
            return;
        res.failureMessages.push_back(formatMsg(
            "FAIL %s geomean ratio %.4f exceeds limit %.4f", field,
            *geomean, limit));
        ++res.failures;
        for (const Sample &s : worstFirst(samples))
            res.failureMessages.push_back("  " + ratioLine(field, s));
    };

    res.wallSamples = static_cast<int>(wall_samples.size());
    res.flashSamples = static_cast<int>(flash_samples.size());
    if (opt.verbose)
        for (const Sample &s : worstFirst(wall_samples))
            res.notes.push_back(ratioLine("wall_seconds", s));
    gate("wall_seconds", wall_samples, opt.wallThresholdPct,
         &res.wallGeomean);
    gate("flash_bytes", flash_samples, opt.flashThresholdPct,
         &res.flashGeomean);
    return res;
}

// ---------------------------------------------------------------------
// Structural diff
// ---------------------------------------------------------------------

inline const char *
kindName(JsonValue::Kind k)
{
    static const char *const names[] = {"null",   "bool",  "number",
                                        "string", "array", "object"};
    return names[static_cast<int>(k)];
}

/**
 * Diff @p a (baseline) against @p b (candidate) below @p path. Numeric
 * leaves compare within @p tolerance (relative); every other leaf,
 * every array length and every member set compares exactly.
 */
inline void
diffJson(const std::string &path, const JsonValue &a, const JsonValue &b,
         double tolerance, Findings &st)
{
    using Kind = JsonValue::Kind;
    if (a.kind != b.kind) {
        st.add(path + ": type " + kindName(a.kind) + " in baseline vs "
                  + kindName(b.kind) + " in candidate");
        return;
    }
    switch (a.kind) {
      case Kind::Null:
        return;
      case Kind::Bool:
        if (a.boolean != b.boolean)
            st.add(path + ": " + (a.boolean ? "true" : "false")
                      + " vs " + (b.boolean ? "true" : "false"));
        return;
      case Kind::Number: {
        double drift = relDrift(a.number, b.number);
        if (drift > tolerance)
            st.add(formatMsg("%s: %.17g vs %.17g (rel %.3g > tol %.3g)",
                             path.c_str(), a.number, b.number, drift,
                             tolerance));
        return;
      }
      case Kind::String:
        if (a.str != b.str)
            st.add(path + ": \"" + a.str + "\" vs \"" + b.str + "\"");
        return;
      case Kind::Array: {
        if (a.array.size() != b.array.size())
            st.add(formatMsg(
                "%s: array length %zu in baseline vs %zu in candidate",
                path.c_str(), a.array.size(), b.array.size()));
        std::size_t n = std::min(a.array.size(), b.array.size());
        for (std::size_t i = 0; i < n; ++i)
            diffJson(formatMsg("%s[%zu]", path.c_str(), i), a.array[i],
                     b.array[i], tolerance, st);
        return;
      }
      case Kind::Object:
        for (const auto &[key, av] : a.object) {
            if (const JsonValue *bv = b.find(key))
                diffJson(path + "." + key, av, *bv, tolerance, st);
            else
                st.add(path + "." + key + ": missing from candidate");
        }
        for (const auto &[key, bv] : b.object)
            if (a.find(key) == nullptr)
                st.add(path + "." + key + ": missing from baseline");
        return;
    }
}

// ---------------------------------------------------------------------
// SLO timeline printer
// ---------------------------------------------------------------------

inline void
printSloRun(const JsonValue &run)
{
    std::printf("run %s  (overload x%.1f, %s)\n", strOf(run.find("label")),
                num(run.find("overload"), 1.0),
                num(run.find("fifo")) != 0.0 ? "fifo" : "drr");
    const JsonValue *slo = run.find("slo");
    if (!slo) {
        std::printf("  (no slo section)\n");
        return;
    }
    const JsonValue *tenants = slo->find("tenants");
    for (const JsonValue &t : elements(tenants)) {
        std::printf("  tenant %-12s", strOf(t.find("name")));
        const JsonValue *obj = t.find("objective");
        if (obj && obj->kind == JsonValue::Kind::Object)
            std::printf(" slo<=%.3fs @%.2f%%",
                        num(obj->find("latency_target_seconds")),
                        100.0 * num(obj->find("attainment")));
        else
            std::printf(" (no objective)");
        if (const JsonValue *tot = t.find("totals"))
            std::printf("  done=%g viol=%g shed=%g susp=%g attain=%.4f "
                        "budget=%.3f",
                        num(tot->find("completed")),
                        num(tot->find("violations")),
                        num(tot->find("shed")), num(tot->find("suspended")),
                        num(tot->find("attainment"), 1.0),
                        num(tot->find("budget_consumed")));
        std::printf("\n");

        const JsonValue *wins = t.find("windows");
        if (!wins || wins->array.empty())
            continue;
        std::printf("    %6s %9s %5s %5s %5s %5s %8s %8s %8s %7s %7s\n",
                    "win", "start_s", "done", "viol", "shed", "susp",
                    "p50_s", "p90_s", "p99_s", "burn", "budget");
        for (const JsonValue &w : wins->array) {
            const JsonValue *lat = w.find("latency");
            std::printf("    %6.0f %9.2f %5.0f %5.0f %5.0f %5.0f %8.4f "
                        "%8.4f %8.4f %7.2f %7.3f\n",
                        num(w.find("window")), num(w.find("start_seconds")),
                        num(w.find("completed")), num(w.find("violations")),
                        num(w.find("shed")), num(w.find("suspended")),
                        lat ? num(lat->find("p50")) : 0.0,
                        lat ? num(lat->find("p90")) : 0.0,
                        lat ? num(lat->find("p99")) : 0.0,
                        num(w.find("burn")), num(w.find("budget_consumed")));
        }
    }
    const JsonValue *alerts = slo->find("alerts");
    if (alerts && alerts->kind == JsonValue::Kind::Array
        && alerts->array.empty())
        std::printf("  alerts: none\n");
    for (const JsonValue &a : elements(alerts))
        std::printf("  ALERT %-8s tenant=%-12s at=%.2fs short_burn=%.2f "
                    "long_burn=%.2f\n",
                    strOf(a.find("rule")), strOf(a.find("tenant")),
                    num(a.find("at_seconds")), num(a.find("short_burn")),
                    num(a.find("long_burn")));
}

// ---------------------------------------------------------------------
// Latency anatomy
// ---------------------------------------------------------------------

/// Fixed wait-class order: must match obs::WaitClass declaration
/// order, which is also the order WaitLedger::toJson emits.
inline const char *const kWaitClasses[] = {
    "admission_queue", "dram_wait",    "device_busy",
    "device_exec",     "suspend_host", "host_finish",
};
constexpr int kNumWaitClasses = 6;

inline std::string
fmtNum(double v)
{
    return formatMsg("%.17g", v);
}

/** Same nearest-rank percentile the service and bench use. */
inline double
percentileOf(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    auto idx = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size()))) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

/** One parsed query of a run. */
struct QueryRow
{
    double id = -1.0;
    std::string name;
    double tenant = 0.0;
    double latency = 0.0;
    bool shed = false;
    double wait[kNumWaitClasses] = {};
    const JsonValue *path = nullptr;

    /** Earliest-wins argmax over the wait classes. */
    const char *
    dominant() const
    {
        return kWaitClasses[std::max_element(wait, wait + kNumWaitClasses)
                            - wait];
    }
};

/** Per-class sums over @p rows, in row order. */
inline std::vector<double>
classSums(const std::vector<QueryRow> &rows)
{
    std::vector<double> sums(kNumWaitClasses, 0.0);
    for (const QueryRow &q : rows)
        for (int i = 0; i < kNumWaitClasses; ++i)
            sums[i] += q.wait[i];
    return sums;
}

/** Sorted latencies of the completed (non-shed) queries. */
inline std::vector<double>
completedLatencies(const std::vector<QueryRow> &rows)
{
    std::vector<double> lat;
    for (const QueryRow &q : rows)
        if (!q.shed)
            lat.push_back(q.latency);
    std::sort(lat.begin(), lat.end());
    return lat;
}

/** The @p k slowest completed queries, slowest first, ties by id. */
inline std::vector<const QueryRow *>
slowest(const std::vector<QueryRow> &rows, int k)
{
    std::vector<const QueryRow *> out;
    for (const QueryRow &q : rows)
        if (!q.shed)
            out.push_back(&q);
    std::sort(out.begin(), out.end(),
              [](const QueryRow *a, const QueryRow *b) {
                  if (a->latency != b->latency)
                      return a->latency > b->latency;
                  return a->id < b->id;
              });
    out.resize(std::min(out.size(), static_cast<std::size_t>(k)));
    return out;
}

/** Sum of every cell of the run's blame matrix, row-major. */
inline double
blameTotal(const JsonValue &run)
{
    const JsonValue *blame = run.find("blame");
    const JsonValue *seconds = blame ? blame->find("seconds") : nullptr;
    double total = 0.0;
    for (const JsonValue &r : elements(seconds))
        for (const JsonValue &cell : r.array)
            total += cell.numberOr(0.0);
    return total;
}

/**
 * Validate one run's anatomy and collect its rows: per-query exact
 * partition, critical-path tiling, wait_totals vs per-class query
 * sums, blame row sums vs tenant_contention_seconds.
 */
inline std::vector<QueryRow>
validateRun(const JsonValue &run, const std::string &label, Findings &st)
{
    std::vector<QueryRow> rows;
    const JsonValue *queries = run.find("queries");
    if (!queries || queries->kind != JsonValue::Kind::Array) {
        st.add(label + ": no \"queries\" array");
        return rows;
    }

    for (const JsonValue &q : queries->array) {
        QueryRow row;
        row.id = num(q.find("id"), -1.0);
        if (const JsonValue *name = q.find("name"))
            row.name = name->str;
        row.tenant = num(q.find("tenant"));
        double submit = num(q.find("submit_seconds"));
        double done = num(q.find("done_seconds"));
        row.latency = done - submit;
        row.shed = num(q.find("shed")) != 0.0;
        row.path = q.find("path");

        const JsonValue *wait = q.find("wait");
        std::string qlabel = label + " query " + fmtNum(row.id);
        if (!wait || wait->kind != JsonValue::Kind::Object) {
            st.add(qlabel + ": no \"wait\" ledger");
            continue;
        }
        double sum = 0.0;
        for (int i = 0; i < kNumWaitClasses; ++i) {
            const JsonValue *v = wait->find(kWaitClasses[i]);
            if (!v)
                st.add(qlabel + ": wait ledger missing class "
                        + kWaitClasses[i]);
            row.wait[i] = num(v);
            sum += row.wait[i];
        }
        // The exact-partition contract: fixed-order class sum equals
        // end-to-end latency bitwise (all-zero for shed queries).
        if (sum != row.latency)
            st.add(qlabel + ": wait classes sum to " + fmtNum(sum)
                    + " but done - submit = " + fmtNum(row.latency));
        if (row.shed && sum != 0.0)
            st.add(qlabel + ": shed query has non-zero wait ledger");

        // Critical-path tiling: contiguous from submit to done.
        if (!elements(row.path).empty()) {
            double cursor = submit;
            for (std::size_t si = 0; si < row.path->array.size(); ++si) {
                const JsonValue &seg = row.path->array[si];
                double s = num(seg.find("start_seconds"));
                if (s != cursor) {
                    st.add(qlabel + ": path segment " + std::to_string(si)
                            + " starts at " + fmtNum(s) + ", expected "
                            + fmtNum(cursor));
                    break;
                }
                cursor = num(seg.find("end_seconds"));
            }
            if (cursor != done)
                st.add(qlabel + ": path ends at " + fmtNum(cursor)
                        + ", done at " + fmtNum(done));
        }
        rows.push_back(std::move(row));
    }

    // The service accumulates wait_totals in completion order, this
    // pass in id order, so the comparison is ulp-tolerant — unlike the
    // per-query partition, which is bitwise.
    const JsonValue *totals = run.find("wait_totals");
    std::vector<double> sums = classSums(rows);
    for (int i = 0; i < kNumWaitClasses; ++i) {
        double t = totals ? num(totals->find(kWaitClasses[i])) : 0.0;
        if (std::fabs(t - sums[i]) > 1e-9 * std::max(1.0, std::fabs(t)))
            st.add(label + ": wait_totals." + kWaitClasses[i] + " = "
                    + fmtNum(t) + " but queries sum to " + fmtNum(sums[i]));
    }

    // Blame row sums ARE each tenant's total contention wait.
    const JsonValue *blame = run.find("blame");
    const JsonValue *seconds = blame ? blame->find("seconds") : nullptr;
    const JsonValue *contention = run.find("tenant_contention_seconds");
    if (!seconds || seconds->kind != JsonValue::Kind::Array || !contention
        || contention->kind != JsonValue::Kind::Array) {
        st.add(label + ": missing blame matrix or "
                "tenant_contention_seconds");
        return rows;
    }
    if (seconds->array.size() != contention->array.size())
        st.add(label + ": blame rows vs contention entries length "
                "mismatch");
    std::size_t n = std::min(seconds->array.size(),
                             contention->array.size());
    for (std::size_t v = 0; v < n; ++v) {
        double row_sum = 0.0;
        for (const JsonValue &cell : seconds->array[v].array)
            row_sum += cell.numberOr(0.0);
        double want = contention->array[v].numberOr(0.0);
        if (row_sum != want)
            st.add(label + ": blame row " + std::to_string(v) + " sums to "
                    + fmtNum(row_sum) + " but tenant_contention_seconds = "
                    + fmtNum(want));
    }
    return rows;
}

/**
 * Cross-check one run against the bench --json report: find the
 * run-level record (no "tenant" key) matching (overload, fifo), then
 * require the nearest-rank p99 recomputed from the anatomy's non-shed
 * latencies to reproduce modelled_p99_latency_seconds, and the
 * modelled_wait_* / modelled_contention_wait_seconds fields to equal
 * the anatomy aggregates exactly.
 */
inline void
crossCheckReport(const JsonValue &run, const std::string &label,
                 const std::vector<QueryRow> &rows,
                 const std::vector<Record> &records, Findings &st)
{
    double overload = num(run.find("overload"), 1.0);
    double fifo = num(run.find("fifo"));
    auto match = std::find_if(
        records.begin(), records.end(), [&](const Record &r) {
            auto ov = r.find("overload");
            auto fi = r.find("fifo");
            return !r.count("tenant") && ov != r.end() && fi != r.end()
                && ov->second == overload && fi->second == fifo;
        });
    if (match == records.end()) {
        st.add(label + ": no run record (overload=" + fmtNum(overload)
                + ", fifo=" + fmtNum(fifo) + ") in the bench report");
        return;
    }
    auto expectField = [&](const std::string &name, double anatomy,
                           const char *what) {
        auto it = match->find(name);
        double rep = it == match->end() ? -1.0 : it->second;
        if (rep != anatomy)
            st.add(label + ": " + name + " = " + fmtNum(rep)
                    + " in the report but " + fmtNum(anatomy) + " "
                    + what);
    };
    expectField("modelled_p99_latency_seconds",
                percentileOf(completedLatencies(rows), 0.99),
                "recomputed from the anatomy");
    const JsonValue *totals = run.find("wait_totals");
    for (const char *cls : kWaitClasses)
        expectField(std::string("modelled_wait_") + cls + "_seconds",
                    totals ? num(totals->find(cls)) : 0.0,
                    "in the anatomy");
    expectField("modelled_contention_wait_seconds", blameTotal(run),
                "in the anatomy's blame matrix");
}

inline void
printAnatomyRun(const JsonValue &run, const std::string &label,
                const std::vector<QueryRow> &rows, int topk)
{
    std::printf("\nrun %s  (overload x%.1f, %s): %zu queries\n",
                label.c_str(), num(run.find("overload"), 1.0),
                num(run.find("fifo")) != 0.0 ? "fifo" : "drr",
                rows.size());

    std::vector<double> sums = classSums(rows);
    double total = 0.0;
    for (double s : sums)
        total += s;
    std::printf("  %-16s %12s %7s\n", "wait class", "seconds", "share");
    for (int i = 0; i < kNumWaitClasses; ++i)
        std::printf("  %-16s %12.4f %6.1f%%\n", kWaitClasses[i], sums[i],
                    total > 0.0 ? 100.0 * sums[i] / total : 0.0);

    const JsonValue *blame = run.find("blame");
    const JsonValue *tenants = blame ? blame->find("tenants") : nullptr;
    const JsonValue *seconds = blame ? blame->find("seconds") : nullptr;
    if (tenants && seconds) {
        std::printf("  blame (victim rows x culprit columns, "
                    "waiter-seconds):\n");
        std::printf("  %-14s", "victim\\culprit");
        for (const JsonValue &t : tenants->array)
            std::printf(" %12s", t.str.c_str());
        std::printf(" %12s\n", "row_sum");
        for (std::size_t v = 0; v < seconds->array.size(); ++v) {
            std::printf("  %-14s", v < tenants->array.size()
                                       ? tenants->array[v].str.c_str()
                                       : "?");
            double row_sum = 0.0;
            for (const JsonValue &cell : seconds->array[v].array) {
                std::printf(" %12.4f", cell.numberOr(0.0));
                row_sum += cell.numberOr(0.0);
            }
            std::printf(" %12.4f\n", row_sum);
        }
    }

    std::vector<const QueryRow *> top = slowest(rows, topk);
    std::printf("  top %zu critical paths:\n", top.size());
    for (const QueryRow *q : top) {
        std::printf("    #%.0f %-4s tenant=%.0f latency=%.4fs dominant=%s\n",
                    q->id, q->name.c_str(), q->tenant, q->latency,
                    q->dominant());
        for (const JsonValue &seg : elements(q->path)) {
            std::printf("      %-16s %9.4fs", strOf(seg.find("class")),
                        num(seg.find("end_seconds"))
                            - num(seg.find("start_seconds")));
            if (double device = num(seg.find("device"), -1.0); device >= 0.0)
                std::printf("  dev%.0f", device);
            const JsonValue *detail = seg.find("detail");
            if (detail && !detail->str.empty())
                std::printf("  %s", detail->str.c_str());
            std::printf("\n");
        }
    }
}

/** Deterministic summary JSON (stable key order, %.17g numbers). */
inline void
writeAnatomySummary(std::ostream &os, const JsonValue &root,
                    const std::vector<std::vector<QueryRow>> &run_rows,
                    int topk)
{
    const std::vector<JsonValue> &runs = root.find("runs")->array;
    os << "{\"seed\":" << fmtNum(num(root.find("seed"))) << ",\"runs\":[";
    for (std::size_t ri = 0; ri < runs.size(); ++ri) {
        const JsonValue &run = runs[ri];
        const std::vector<QueryRow> &rows = run_rows[ri];
        const JsonValue *label = run.find("label");
        os << (ri ? "," : "") << "{\"label\":\""
           << (label ? label->str : std::string()) << "\",\"overload\":"
           << fmtNum(num(run.find("overload"), 1.0)) << ",\"fifo\":"
           << fmtNum(num(run.find("fifo")));

        std::vector<double> lat = completedLatencies(rows);
        os << ",\"queries\":" << rows.size()
           << ",\"shed\":" << rows.size() - lat.size()
           << ",\"p50_seconds\":" << fmtNum(percentileOf(lat, 0.50))
           << ",\"p99_seconds\":" << fmtNum(percentileOf(lat, 0.99));
        std::vector<double> sums = classSums(rows);
        os << ",\"wait_totals\":{";
        for (int i = 0; i < kNumWaitClasses; ++i)
            os << (i ? "," : "") << '"' << kWaitClasses[i]
               << "\":" << fmtNum(sums[i]);
        os << "},\"tenant_contention_seconds\":[";
        const std::vector<JsonValue> &contention =
            elements(run.find("tenant_contention_seconds"));
        for (std::size_t i = 0; i < contention.size(); ++i)
            os << (i ? "," : "") << fmtNum(contention[i].numberOr(0.0));
        os << "],\"top\":[";
        std::vector<const QueryRow *> top = slowest(rows, topk);
        for (std::size_t i = 0; i < top.size(); ++i)
            os << (i ? "," : "") << "{\"id\":" << fmtNum(top[i]->id)
               << ",\"name\":\"" << top[i]->name << "\",\"tenant\":"
               << fmtNum(top[i]->tenant) << ",\"latency_seconds\":"
               << fmtNum(top[i]->latency) << ",\"dominant\":\""
               << top[i]->dominant() << "\"}";
        os << "]}";
    }
    os << "]}\n";
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

inline constexpr const char *kUsage =
    "usage: report bench <baseline.json> <candidate.json>\n"
    "                    [--wall-threshold-pct P] [--model-tolerance T]\n"
    "                    [--flash-bytes-threshold-pct P] [--verbose]\n"
    "       report slo <slo-report.json>\n"
    "       report anatomy <anatomy.json> [--report <bench.json>]\n"
    "                      [--top K] [--json <out.json>]\n"
    "       report diff <baseline.json> <candidate.json> "
    "[--tolerance T]\n";

struct ReportArgs
{
    std::string command;
    std::vector<std::string> paths;
    DiffOptions bench;          ///< bench
    double tolerance = 0.0;     ///< diff
    int top = 5;                ///< anatomy
    std::string reportPath;     ///< anatomy --report
    std::string jsonPath;       ///< anatomy --json
};

/**
 * Parse argv (argv[1] is the subcommand). A flag another subcommand
 * owns, an unknown flag, a missing or malformed value, or the wrong
 * number of files is a usage error described in @p error. Numeric
 * values must be consumed whole and be finite and >= 0.
 */
inline bool
parseReportArgs(int argc, const char *const *argv, ReportArgs *a,
                std::string *error)
{
    if (argc < 2) {
        *error = "missing subcommand";
        return false;
    }
    a->command = argv[1];
    const std::string &cmd = a->command;
    if (cmd != "bench" && cmd != "slo" && cmd != "anatomy"
        && cmd != "diff") {
        *error = "unknown subcommand '" + cmd + "'";
        return false;
    }
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        auto text = [&](std::string *out) {
            if (!value) {
                *error = flag + " needs a value";
                return false;
            }
            *out = value;
            ++i;
            return true;
        };
        auto number = [&](double *out, bool whole = false) {
            char *end = nullptr;
            double v = value ? std::strtod(value, &end) : 0.0;
            if (!value || end == value || *end != '\0' || !std::isfinite(v)
                || v < 0.0 || (whole && (v != std::floor(v) || v > INT_MAX))) {
                *error = flag + " needs a finite " + (whole ? "whole " : "")
                    + "number >= 0, got '" + (value ? value : "") + "'";
                return false;
            }
            *out = v;
            ++i;
            return true;
        };
        bool ok = true;
        if (cmd == "bench" && flag == "--wall-threshold-pct")
            ok = number(&a->bench.wallThresholdPct);
        else if (cmd == "bench" && flag == "--model-tolerance")
            ok = number(&a->bench.modelTolerance);
        else if (cmd == "bench" && flag == "--flash-bytes-threshold-pct")
            ok = number(&a->bench.flashThresholdPct);
        else if (cmd == "bench" && flag == "--verbose")
            a->bench.verbose = true;
        else if (cmd == "diff" && flag == "--tolerance")
            ok = number(&a->tolerance);
        else if (cmd == "anatomy" && flag == "--report")
            ok = text(&a->reportPath);
        else if (cmd == "anatomy" && flag == "--json")
            ok = text(&a->jsonPath);
        else if (cmd == "anatomy" && flag == "--top") {
            double top = 0.0;
            if ((ok = number(&top, true)))
                a->top = static_cast<int>(top);
        } else if (flag.rfind("-", 0) == 0) {
            *error = "unknown option '" + flag + "' for " + cmd;
            ok = false;
        } else {
            a->paths.push_back(flag);
        }
        if (!ok)
            return false;
    }
    std::size_t want = cmd == "bench" || cmd == "diff" ? 2 : 1;
    if (a->paths.size() != want) {
        *error = formatMsg("%s takes %zu file(s), got %zu", cmd.c_str(),
                           want, a->paths.size());
        return false;
    }
    return true;
}

inline int
runBench(const ReportArgs &a)
{
    std::vector<Record> baseline, candidate;
    std::string error;
    if (!readReport(a.paths[0], &baseline, &error)
        || !readReport(a.paths[1], &candidate, &error)) {
        std::fprintf(stderr, "report bench: %s\n", error.c_str());
        return 2;
    }
    DiffResult res = diffReports(baseline, candidate, a.bench);
    if (res.fatal) {
        std::fprintf(stderr, "report bench: %s (%s vs %s)\n",
                     res.fatalMessage.c_str(), a.paths[0].c_str(),
                     a.paths[1].c_str());
        return 2;
    }
    for (const std::string &note : res.notes)
        std::printf("report bench: %s\n", note.c_str());
    for (const std::string &msg : res.failureMessages)
        std::fprintf(stderr, "%s\n", msg.c_str());
    std::printf("report bench: %d record(s) matched, wall geomean ratio "
                "%.4f (limit %.4f), failures %d\n",
                res.matched, res.wallGeomean,
                1.0 + a.bench.wallThresholdPct / 100.0, res.failures);
    if (res.flashSamples > 0)
        std::printf("report bench: flash_bytes geomean ratio %.4f over "
                    "%d record(s) (limit %.4f)\n",
                    res.flashGeomean, res.flashSamples,
                    1.0 + a.bench.flashThresholdPct / 100.0);
    return res.failures > 0 ? 1 : 0;
}

inline int
runDiff(const ReportArgs &a)
{
    JsonValue base, cand;
    std::string error;
    if (!parseJsonFile(a.paths[0], &base, &error)
        || !parseJsonFile(a.paths[1], &cand, &error)) {
        std::fprintf(stderr, "report diff: %s\n", error.c_str());
        return 2;
    }
    Findings st;
    diffJson("$", base, cand, a.tolerance, st);
    for (const std::string &msg : st.messages)
        std::fprintf(stderr, "DIFF %s\n", msg.c_str());
    if (st.count == 0) {
        std::printf("report diff: %s and %s match\n", a.paths[0].c_str(),
                    a.paths[1].c_str());
        return 0;
    }
    std::fprintf(stderr, "report diff: %d difference(s) between %s and %s\n",
                 st.count, a.paths[0].c_str(), a.paths[1].c_str());
    return 1;
}

/** Parse @p path and return its "runs" array (nullptr + message). */
inline const JsonValue *
readRuns(const char *cmd, const std::string &path, JsonValue *root)
{
    std::string error;
    if (!parseJsonFile(path, root, &error)) {
        std::fprintf(stderr, "report %s: %s\n", cmd, error.c_str());
        return nullptr;
    }
    const JsonValue *runs = root->find("runs");
    if (!runs || runs->kind != JsonValue::Kind::Array) {
        std::fprintf(stderr, "report %s: %s has no \"runs\" array\n", cmd,
                     path.c_str());
        return nullptr;
    }
    return runs;
}

inline int
runSlo(const ReportArgs &a)
{
    JsonValue root;
    const JsonValue *runs = readRuns("slo", a.paths[0], &root);
    if (!runs)
        return 2;
    std::printf("slo report %s  window=%.3gs seed=%g\n", a.paths[0].c_str(),
                num(root.find("window_seconds")), num(root.find("seed")));
    for (const JsonValue &run : runs->array)
        printSloRun(run);
    return 0;
}

inline int
runAnatomy(const ReportArgs &a)
{
    JsonValue root;
    const JsonValue *runs = readRuns("anatomy", a.paths[0], &root);
    if (!runs)
        return 2;
    std::vector<Record> records;
    std::string error;
    if (!a.reportPath.empty()
        && !readReport(a.reportPath, &records, &error)) {
        std::fprintf(stderr, "report anatomy: %s\n", error.c_str());
        return 2;
    }
    std::printf("anatomy %s  seed=%g, %zu run(s)\n", a.paths[0].c_str(),
                num(root.find("seed")), runs->array.size());

    Findings st;
    std::vector<std::vector<QueryRow>> run_rows;
    for (const JsonValue &run : runs->array) {
        std::string label = strOf(run.find("label"));
        run_rows.push_back(validateRun(run, label, st));
        if (!a.reportPath.empty())
            crossCheckReport(run, label, run_rows.back(), records, st);
        printAnatomyRun(run, label, run_rows.back(), a.top);
    }

    if (!a.jsonPath.empty()) {
        std::ofstream f(a.jsonPath);
        if (f)
            writeAnatomySummary(f, root, run_rows, a.top);
        if (!f) {
            std::fprintf(stderr, "report anatomy: cannot write %s\n",
                         a.jsonPath.c_str());
            return 2;
        }
        std::printf("wrote %s\n", a.jsonPath.c_str());
    }

    for (const std::string &msg : st.messages)
        std::fprintf(stderr, "CHECK FAIL %s\n", msg.c_str());
    if (st.count > 0) {
        std::fprintf(stderr, "report anatomy: %d check failure(s)\n",
                     st.count);
        return 1;
    }
    std::printf("report anatomy: all anatomy checks passed%s\n",
                a.reportPath.empty() ? "" : " (report cross-check included)");
    return 0;
}

/** The whole CLI: exit 0 pass, 1 failure / difference, 2 usage / parse. */
inline int
reportMain(int argc, const char *const *argv)
{
    ReportArgs a;
    std::string error;
    if (!parseReportArgs(argc, argv, &a, &error)) {
        std::fprintf(stderr, "report: %s\n%s", error.c_str(), kUsage);
        return 2;
    }
    if (a.command == "bench")
        return runBench(a);
    if (a.command == "diff")
        return runDiff(a);
    if (a.command == "slo")
        return runSlo(a);
    return runAnatomy(a);
}

} // namespace aquoman::tools

#endif // AQUOMAN_TOOLS_REPORT_HH
