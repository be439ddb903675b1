/**
 * @file
 * The simulator's own wall-clock benchmark, one workload per process.
 *
 *   perfbench_harness --workload <tpch_sweep|service_1x|service_2x_replay>
 *                     --seed <n> --seconds <s> --trace <0|1>
 *                     [--commit <id>] [--out-dir <dir>]
 *                     [--sensitivity <AQUOMAN_VAR>]
 *
 * A run sets the workload up kSetupReps times (setup_s is the median),
 * then repeats the workload's unit of work — one Fig. 16 pass, or one
 * service trace — until --seconds have passed. Modelled seconds are the
 * simulator's output, not a cost: they are emitted only as per-layer
 * model.* values and folded into one digest that must repeat exactly
 * across units and runs. Output checks (device results against the
 * host Executor, service ledgers, sampled service results against a
 * standalone Executor) run after each unit's timer has stopped. Every
 * wall time is scaled to a nominal host by probes of fixed reference
 * work taken around it (see referenceSeconds), because the shared
 * host's speed drifts by tens of percent over minutes.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 records spans
 * around every call into a module's public functions on alternate
 * units and prints per-layer metrics, each normalised to one "figure":
 * one set-up plus one unit. The last stdout line is the JSON result.
 */

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aquoman/query_profile.hh"
#include "bench_util.hh"
#include "common/thread_pool.hh"
#include "service/query_service.hh"
#include "spans.hh"
#include "workload/tenant_mix.hh"
#include "workload/tpch_params.hh"

extern char **environ;

using namespace aquoman;
namespace pb = perfbench;

namespace {

constexpr int kSetupReps = 3;
constexpr double kSweepSf = 0.05;
constexpr double kServiceSf = 0.02;
/// Completions per query_wall_ms sample on the service workloads.
constexpr int kCompletionChunk = 10;
/// Completions between host probes inside a service unit.
constexpr int kProbeCompletions = 25 * kCompletionChunk;
/// Reference passes per host probe (see referenceSeconds).
constexpr int kReferencePasses = 3;
/// One reference pass on the nominal host every time is scaled to; a
/// typical value on a 4-vCPU Intel Xeon VM.
constexpr double kReferenceSec = 0.040;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string outDir = ".";
    std::string sensitivity; ///< the one AQUOMAN_* variable allowed
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_harness: %s\n", msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + k);
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                die("--seed must be a whole number");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0.0)
                || a.seconds > 600.0)
                die("--seconds must be in (0, 600]");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                die("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (k == "--commit") {
            a.commit = v;
        } else if (k == "--out-dir") {
            a.outDir = v;
        } else if (k == "--sensitivity") {
            a.sensitivity = v;
        } else {
            die("unknown argument " + k);
        }
    }
    if (a.workload.empty())
        die("--workload is required");
    return a;
}

/**
 * Measured runs refuse to start under any AQUOMAN_* variable: each one
 * changes what the simulator does. Only the sensitivity self-test sets
 * one, and it names it with --sensitivity so the run record shows it.
 */
std::map<std::string, std::string>
checkEnvironment(const Args &a)
{
    std::map<std::string, std::string> seen;
    for (char **e = environ; *e; ++e) {
        std::string kv = *e;
        if (kv.rfind("AQUOMAN_", 0) != 0)
            continue;
        std::size_t eq = kv.find('=');
        seen[kv.substr(0, eq)] =
            eq == std::string::npos ? "" : kv.substr(eq + 1);
    }
    for (const auto &[k, v] : seen)
        if (k != a.sensitivity)
            die("refusing to measure with " + k + "=" + v
                + " set; unset every AQUOMAN_* variable");
    if (!a.sensitivity.empty() && !seen.count(a.sensitivity))
        die("--sensitivity " + a.sensitivity + " but it is not set");
    return seen;
}

/** FNV-1a over the bit patterns of modelled values. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void num(double v) { bytes(&v, sizeof v); }
    void num(std::int64_t v) { bytes(&v, sizeof v); }
    void
    str(std::string_view s)
    {
        bytes(s.data(), s.size());
        bytes("", 1);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Canonical multiset-of-rows form for result comparison. */
std::vector<std::string>
canonicalRows(const RelTable &t)
{
    std::vector<std::string> rows;
    for (std::int64_t r = 0; r < t.numRows(); ++r) {
        std::ostringstream os;
        for (int c = 0; c < t.numColumns(); ++c) {
            const RelColumn &col = t.col(c);
            if (col.type == ColumnType::Varchar)
                os << col.str(r);
            else
                os << col.get(r);
            os << "|";
        }
        rows.push_back(os.str());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
}

/**
 * Order-independent hash of a relation's rows, over the cells
 * canonicalRows compares: equal multisets of rows hash equal. It lets
 * every unit check its results without sorting them.
 */
std::uint64_t
rowMultisetHash(const RelTable &t)
{
    std::uint64_t sum = static_cast<std::uint64_t>(t.numColumns());
    for (std::int64_t r = 0; r < t.numRows(); ++r) {
        Digest d;
        for (int c = 0; c < t.numColumns(); ++c) {
            const RelColumn &col = t.col(c);
            if (col.type == ColumnType::Varchar)
                d.str(col.str(r));
            else
                d.num(col.get(r));
        }
        std::uint64_t z = d.value();
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        sum += z ^ (z >> 31);
    }
    return sum;
}

/** Output checks; failures feed the result's "failed" count. */
struct Checks
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        if (++failed <= 20)
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, as the service's aggregate() uses. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto idx = static_cast<std::size_t>(
                   std::ceil(p * static_cast<double>(v.size())))
        - 1;
    return v[std::min(idx, v.size() - 1)];
}

using Values = std::map<std::string, double>;

volatile std::uint64_t referenceSink;

/**
 * Wall of one pass of fixed reference work: a sort, a hash-table build
 * and probe, and a sequential scan, over data made from a constant seed.
 * It calls nothing in the simulator, so no change to the program moves
 * it; only the host's speed at that moment does.
 */
double
referenceSeconds()
{
    static const std::vector<std::uint64_t> keys = [] {
        std::vector<std::uint64_t> k(1 << 18);
        std::uint64_t x = 0;
        for (std::uint64_t &v : k) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            v = z ^ (z >> 31);
        }
        return k;
    }();
    pb::Clock::time_point t0 = pb::Clock::now();
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<std::uint64_t, std::uint32_t> table;
    table.reserve(1 << 16);
    for (std::uint32_t i = 0; i < (1u << 16); ++i)
        table.emplace(keys[i] & 0xfffff, i);
    std::uint64_t sink = 0;
    for (std::uint64_t k : keys) {
        auto it = table.find(k & 0xfffff);
        sink += it == table.end() ? k : it->second;
    }
    for (std::uint64_t v : sorted)
        sink += v >> 7;
    referenceSink = sink;
    return std::chrono::duration<double>(pb::Clock::now() - t0).count();
}

/** What one measured unit produced. */
struct UnitOut
{
    double wall = 0.0; ///< sum of the segment walls
    bool traced = false;
    std::int64_t completed = 0;         ///< simulated queries produced
    std::vector<double> queryWallMs;    ///< per-query wall samples
    std::vector<std::size_t> sampleSegment; ///< per sample: its segment
    /** The unit's wall split at its host probes: each segment's wall,
     *  and the index of the probe that opened it. */
    std::vector<std::pair<double, std::size_t>> segments;
    pb::Clock::time_point segmentStart;
    Values counts;                      ///< exact per-layer counts
    Values model;                       ///< model.* values
    std::uint64_t digest = 0;           ///< over every modelled field

    void
    sample(double ms)
    {
        queryWallMs.push_back(ms);
        sampleSegment.push_back(segments.size());
    }
};

/** A workload: a set-up, a repeatable unit, and its output checks. */
class Workload
{
  public:
    explicit Workload(pb::SpanRecorder &rec) : rec_(rec) {}
    virtual ~Workload() = default;

    virtual double scaleFactor() const = 0;
    /** Minimum units per run (the sweep needs ten samples past p90). */
    virtual int minUnits() const { return 1; }
    /** One complete set-up. */
    virtual void setup() = 0;
    /** Untimed: drop the previous set-up before the next one. */
    virtual void releaseSetup() = 0;
    /** One unit of measured work into @p u; everything it does is timed
     *  except the host probes of checkpoint(). */
    virtual void unit(int index, UnitOut &u) = 0;
    /** Untimed: fill the digest, run the unit's output checks. */
    virtual void afterUnit(UnitOut &u, Checks &c) = 0;
    /** Untimed: drop the previous unit's state before the next one. */
    virtual void release() {}
    /** Untimed: checks on the final unit's retained state. */
    virtual void finalChecks(Checks &) {}

    /** Exact counts of the most recent set-up. */
    Values setupCounts;
    /** Set by the run loop: ends the unit's current segment, probes the
     *  host and starts the next segment. A workload calls it at points
     *  that fall at the same place in the simulated work on every
     *  repetition. */
    std::function<void(UnitOut &)> checkpoint;

  protected:
    pb::SpanRecorder &rec_;
};

// =====================================================================
// tpch_sweep: the Fig. 16 loop.
// =====================================================================

/** One simulated SSD holding TPC-H, as bench::Fixture builds it. */
struct SweepDatabase
{
    tpch::TpchDatabase db;
    FlashDevice flash;
    ControllerSwitch sw;
    TableStore store;
    Catalog catalog;

    SweepDatabase()
        : flash(bench::Fixture::flashConfig()), sw(flash), store(sw)
    {
    }
};

/** One Fig. 16 row and the results behind it. */
struct Fig16Row
{
    int q = 0;
    double runS = 0, runL = 0, runSAq = 0, runLAq = 0, runSAq16 = 0;
    double cpuSaving = 0, fracOnDevice = 0;
    std::int64_t deviceFlashBytes = 0;
    obs::StageSeconds stages;
    std::string profileJson;
    RelTable host, dev40, dev16;
};

class TpchSweep : public Workload
{
  public:
    TpchSweep(pb::SpanRecorder &rec, std::uint64_t seed)
        : Workload(rec), seed_(seed), hostS_(HostConfig::small()),
          hostL_(HostConfig::large())
    {
    }

    double scaleFactor() const override { return kSweepSf; }
    /** The faster half of at least 10 passes of 22 queries leaves 11
     *  samples past p90. */
    int minUnits() const override { return 10; }

    void releaseSetup() override { db_.reset(); }

    void
    setup() override
    {
        db_ = std::make_unique<SweepDatabase>();
        {
            pb::Scope s(rec_, "tpch.generate");
            db_->db = tpch::TpchDatabase::generate(
                tpch::TpchConfig{kSweepSf, seed_});
        }
        {
            pb::Scope s(rec_, "columnstore.install");
            db_->db.installInto(db_->catalog, db_->store);
        }
        Values c;
        std::int64_t rows = 0, logical = 0, encoded = 0;
        for (const auto &[name, e] : db_->catalog.all()) {
            const Table &t = *e.table;
            rows += t.numRows();
            for (int col = 0; col < t.numColumns(); ++col) {
                std::int64_t lb = t.numRows()
                    * columnTypeWidth(t.col(col).type());
                const ColumnLayoutMeta *m =
                    e.resident ? e.resident->encodingMeta(col) : nullptr;
                logical += lb;
                encoded += m ? m->encodedBytes : lb;
            }
        }
        c["tpch.rows"] = static_cast<double>(rows);
        c["columnstore.encoded_bytes"] = static_cast<double>(encoded);
        c["columnstore.compression_ratio"] = encoded > 0
            ? static_cast<double>(logical) / static_cast<double>(encoded)
            : 0.0;
        c["flash.bytes_written"] = static_cast<double>(
            db_->sw.bytesWritten(FlashPort::Host)
            + db_->sw.bytesWritten(FlashPort::Aquoman));
        setupCounts = c;
    }

    void
    unit(int index, UnitOut &u) override
    {
        ControllerSwitch &sw = db_->sw;
        std::int64_t aqRead0 = sw.bytesRead(FlashPort::Aquoman);
        std::int64_t hostRead0 = sw.bytesRead(FlashPort::Host);
        double rowOps = 0, tasks = 0, transformed = 0, suspended = 0;
        rows_.clear();
        for (int q : tpch::allQueryNumbers()) {
            auto t0 = pb::Clock::now();
            rows_.push_back(row(q, index, rowOps, tasks, transformed,
                                suspended));
            u.sample(1e3
                     * std::chrono::duration<double>(pb::Clock::now() - t0)
                           .count());
        }
        u.completed = static_cast<std::int64_t>(rows_.size());
        u.counts["engine.row_ops"] = rowOps;
        u.counts["aquoman.tasks"] = tasks;
        u.counts["aquoman.transformed_rows"] = transformed;
        u.counts["aquoman.suspended_queries"] = suspended;
        u.counts["flash.aquoman_bytes_read"] = static_cast<double>(
            sw.bytesRead(FlashPort::Aquoman) - aqRead0);
        u.counts["flash.host_bytes_read"] = static_cast<double>(
            sw.bytesRead(FlashPort::Host) - hostRead0);
    }

    void
    afterUnit(UnitOut &u, Checks &c) override
    {
        Digest d;
        double sumL = 0, sumLAq = 0, sumSAq16 = 0, saving = 0;
        double flashBytes = 0;
        obs::StageSeconds stages;
        for (const Fig16Row &r : rows_) {
            for (double v : {r.runS, r.runL, r.runSAq, r.runLAq,
                             r.runSAq16, r.cpuSaving, r.fracOnDevice})
                d.num(v);
            d.num(r.deviceFlashBytes);
            d.str(r.profileJson);
            sumL += r.runL;
            sumLAq += r.runLAq;
            sumSAq16 += r.runSAq16;
            saving += r.cpuSaving;
            flashBytes += static_cast<double>(r.deviceFlashBytes);
            stages += r.stages;

            // Every unit compares row-multiset hashes; the first also
            // compares the canonical rows themselves.
            std::string q = "q" + std::to_string(r.q);
            std::uint64_t want = rowMultisetHash(r.host);
            c.expect(rowMultisetHash(r.dev40) == want,
                     q + ": 40GB device result != host Executor");
            c.expect(rowMultisetHash(r.dev16) == want,
                     q + ": 16GB device result != host Executor");
            auto [first, fresh] = hostHash_.emplace(r.q, want);
            c.expect(first->second == want,
                     q + ": host Executor result differs from unit 0");
            if (fresh) {
                std::vector<std::string> rows = canonicalRows(r.host);
                c.expect(canonicalRows(r.dev40) == rows,
                         q + ": 40GB device rows != host Executor");
                c.expect(canonicalRows(r.dev16) == rows,
                         q + ": 16GB device rows != host Executor");
            }
        }
        u.digest = d.value();
        u.model["model.l_s"] = sumL;
        u.model["model.l_aquoman_s"] = sumLAq;
        u.model["model.saq16_over_l"] = sumL > 0 ? sumSAq16 / sumL : 0;
        u.model["model.cpu_saving_mean"] =
            rows_.empty() ? 0 : saving / static_cast<double>(rows_.size());
        u.model["model.device_flash_bytes"] = flashBytes;
        for (int s = 0; s < obs::kNumPipeStages; ++s)
            u.model[std::string("model.stage_")
                    + obs::pipeStageName(static_cast<obs::PipeStage>(s))
                    + "_s"] = stages.sec[s];
    }

    void release() override { rows_.clear(); }

  private:
    /** AQUOMAN config scaled from the paper's 1TB point to kSweepSf
     *  (bench::Fixture::scaledDevice). */
    static AquomanConfig
    scaledDevice(std::int64_t paper_dram_bytes)
    {
        AquomanConfig cfg;
        double ratio = kSweepSf / 1000.0;
        cfg.dramBytes = static_cast<std::int64_t>(
            static_cast<double>(paper_dram_bytes) * ratio);
        cfg.sorterBlockBytes = std::max<std::int64_t>(
            4096, static_cast<std::int64_t>((1ll << 30) * ratio));
        cfg.paperScaleRatio = 1.0 / ratio;
        return cfg;
    }

    /** What fig16_tpch computes for query @p q, run serially. */
    Fig16Row
    row(int q, int pass, double &rowOps, double &tasks,
        double &transformed, double &suspended)
    {
        std::int64_t req = pass * 100 + q;
        pb::Scope rowSpan(rec_, "fig16_row", req);
        Fig16Row r;
        r.q = q;
        SweepDatabase &fx = *db_;

        Executor ex(fx.catalog, &fx.sw);
        Query plan = tpch::tpchQuery(q, kSweepSf);
        {
            pb::Scope s(rec_, "engine.run", req);
            r.host = ex.run(plan);
        }
        rowOps += ex.metrics().rowOps;
        EngineMetrics base = bench::scaleMetrics(ex.metrics(), kSweepSf);

        auto offload = [&](std::int64_t dram) {
            AquomanDevice dev(fx.catalog, fx.sw, scaledDevice(dram));
            pb::Scope s(rec_, "aquoman.run_query", req);
            return dev.runQuery(plan);
        };
        OffloadedQueryResult off40 = offload(40ll << 30);
        OffloadedQueryResult off16 = offload(16ll << 30);
        for (const OffloadedQueryResult *o : {&off40, &off16}) {
            tasks += static_cast<double>(o->stats.tasksExecuted);
            transformed += static_cast<double>(o->stats.transformedRows);
            suspended += o->stats.suspensions.empty()
                    && !o->stats.suspendedDram
                ? 0
                : 1;
        }
        AquomanRunStats aq40 = bench::scaleStats(off40.stats, kSweepSf);
        AquomanRunStats aq16 = bench::scaleStats(off16.stats, kSweepSf);

        SystemEvaluation evS40 = evaluateOffload(base, aq40, hostS_);
        SystemEvaluation evL40 = evaluateOffload(base, aq40, hostL_);
        SystemEvaluation evS16 = evaluateOffload(base, aq16, hostS_);
        r.runS = hostS_.estimate(base).runtime;
        r.runL = hostL_.estimate(base).runtime;
        r.runSAq = evS40.offloadRuntime;
        r.runLAq = evL40.offloadRuntime;
        r.runSAq16 = evS16.offloadRuntime;
        r.cpuSaving = evL40.cpuSaving;
        r.fracOnDevice = evL40.offloadFraction;
        r.deviceFlashBytes = aq40.deviceFlashBytes;

        HostRunEstimate resL = hostL_.estimate(aq40.hostResidual);
        HostPhaseProfile hp;
        hp.hostSeconds = resL.runtime;
        hp.dmaSeconds = static_cast<double>(aq40.dmaBytes)
            / hostL_.cfg().storageReadBandwidth;
        hp.dmaBytes = aq40.dmaBytes;
        hp.hostBytes = std::max<std::int64_t>(
            0, aq40.hostResidual.hostFinishBytes - aq40.dmaBytes);
        {
            pb::Scope s(rec_, "obs.profile", req);
            obs::QueryProfile prof = buildQueryProfile(
                "q" + std::to_string(q), off40.compilation, aq40, hp,
                offloadClassName(evL40.offloadClass));
            r.profileJson = prof.jsonString();
            r.stages = prof.root.subtreeStages();
        }
        r.dev40 = std::move(off40.result);
        r.dev16 = std::move(off16.result);
        return r;
    }

    std::uint64_t seed_;
    HostModel hostS_, hostL_;
    std::unique_ptr<SweepDatabase> db_;
    std::vector<Fig16Row> rows_;
    std::map<int, std::uint64_t> hostHash_; ///< unit 0's, per query
};

// =====================================================================
// service_1x / service_2x_replay: the service_workload tenant mix.
// =====================================================================

constexpr int kDevices = 4;
constexpr int kAdmissionLimit = 8;
constexpr int kMaxQueuedPerTenant = 64;
constexpr double kTraceTarget = 1100.0;
/// Sampled service results re-run on a standalone Executor.
constexpr int kSampledInstances = 16;

/** The three-tenant mix of bench/service_workload. */
std::vector<workload::TenantSpec>
makeMix()
{
    using namespace workload;
    std::vector<TenantSpec> mix(3);
    mix[0].name = "interactive";
    mix[0].priority = 0;
    mix[0].weight = 2.0;
    mix[0].arrivals.process = ArrivalProcess::Poisson;
    mix[0].classes = {{6, 2.0}, {14, 1.0}};
    mix[1].name = "reporting";
    mix[1].priority = 1;
    mix[1].weight = 2.0;
    mix[1].arrivals.process = ArrivalProcess::OnOff;
    mix[1].arrivals.meanOnSec = 2.0;
    mix[1].arrivals.meanOffSec = 6.0;
    mix[1].classes = {{12, 1.0}, {4, 1.0}, {3, 1.0}};
    mix[2].name = "batch";
    mix[2].priority = 1;
    mix[2].weight = 1.0;
    mix[2].arrivals.process = ArrivalProcess::Diurnal;
    mix[2].arrivals.diurnalProfile = {0.4, 1.6, 1.6, 0.4};
    mix[2].classes = {{1, 1.0}, {13, 1.0}, {19, 1.0}};
    return mix;
}

/** One service run: the service is kept for the output checks. */
struct ServiceRun
{
    std::unique_ptr<service::QueryService> svc;
    bool fifo = false;
};

class ServiceMix : public Workload
{
  public:
    ServiceMix(pb::SpanRecorder &rec, std::uint64_t seed,
               double overload, bool replay, std::string report_path)
        : Workload(rec), seed_(seed), overload_(overload),
          replay_(replay), reportPath_(std::move(report_path))
    {
    }

    double scaleFactor() const override { return kServiceSf; }

    void
    releaseSetup() override
    {
        db_ = tpch::TpchDatabase();
        gen_.reset();
    }

    /** dbgen plus the closed capacity probe that calibrates the mix. */
    void
    setup() override
    {
        {
            pb::Scope s(rec_, "tpch.generate");
            db_ = tpch::TpchDatabase::generate(
                tpch::TpchConfig{kServiceSf, 19920101});
        }
        gen_ = std::make_unique<workload::TpchInstanceGenerator>(
            seed_, kServiceSf);
        mix_ = makeMix();

        service::ServiceConfig cfg;
        cfg.numDevices = kDevices;
        cfg.admissionLimit = kAdmissionLimit;
        service::QueryService svc(cfg);
        addTables(svc);
        std::map<service::QueryId, int> queryOf;
        for (int rep = 0; rep < 3; ++rep)
            for (const workload::TenantSpec &t : mix_)
                for (const workload::QueryClassWeight &c : t.classes)
                    queryOf[submit(svc, c.queryNumber, 0, 0.0, 0)] =
                        c.queryNumber;
        {
            pb::Scope s(rec_, "service.drain");
            svc.drain();
        }
        double capacity;
        {
            pb::Scope s(rec_, "obs.report");
            capacity = svc.aggregate().throughputQps;
        }
        std::map<int, double> sum, n;
        for (const auto &[id, q] : queryOf) {
            const service::QueryRecord &r = svc.record(id);
            sum[q] += r.latencySec() - r.queueWaitSec;
            n[q] += 1;
        }
        const double kSloSlack[] = {4.0, 6.0, 8.0};
        for (std::size_t i = 0; i < mix_.size(); ++i) {
            double s = 0, w = 0;
            for (const auto &c : mix_[i].classes) {
                s += sum[c.queryNumber] / n[c.queryNumber] * c.weight;
                w += c.weight;
            }
            mix_[i].sloSec = kSloSlack[i] * s / w;
        }
        service::ServiceConfig quotaRef;
        quotaRef.admissionLimit = kAdmissionLimit;
        mix_[2].dramQuotaBytes = 2 * quotaRef.resolvedQueryDramBytes();
        const double kShare[] = {0.3, 0.3, 0.4};
        for (std::size_t i = 0; i < mix_.size(); ++i)
            mix_[i].arrivals.rateQps =
                overload_ * capacity * kShare[i];
        horizon_ = kTraceTarget / (2.0 * capacity);

        std::int64_t rows = 0;
        for (const auto &t : tables())
            rows += t->numRows();
        setupCounts = {{"tpch.rows", static_cast<double>(rows)}};
    }

    void
    unit(int, UnitOut &u) override
    {
        {
            pb::Scope s(rec_, "workload.trace");
            trace_ = workload::buildTrace(mix_, seed_, horizon_);
        }
        runs_.push_back(runTrace(false, u));
        if (replay_) {
            checkpoint(u);
            runs_.push_back(runTrace(true, u));
        }
    }

    void
    afterUnit(UnitOut &u, Checks &c) override
    {
        Digest d;
        double completed = 0, shed = 0, tasks = 0, suspended = 0;
        double written = 0, aqRead = 0, hostRead = 0;
        for (const ServiceRun &run : runs_) {
            const service::QueryService &svc = *run.svc;
            service::ServiceStats st = svc.aggregate();
            for (service::QueryId id = 0;
                 id < static_cast<service::QueryId>(svc.numQueries());
                 ++id) {
                const service::QueryRecord &r = svc.record(id);
                d.num(static_cast<std::int64_t>(r.shed));
                d.str(r.shedReason);
                d.num(r.submitSec);
                d.num(r.doneSec);
                for (double w : r.waitLedger.sec)
                    d.num(w);
                d.num(r.suspendCount);
                suspended += r.suspendCount > 0 ? 1 : 0;
                if (!r.shed)
                    c.expect(r.waitLedger.total() == r.latencySec(),
                             "query " + std::to_string(id)
                                 + ": wait ledger does not sum to its "
                                   "latency");
            }
            c.expect(svc.numQueries() == trace_.size()
                         && st.completed + st.shedTotal
                             == static_cast<std::int64_t>(trace_.size()),
                     "completed + shed != submitted");
            for (double v : {st.makespanSec, st.p99LatencySec,
                             st.shedRate, st.throughputQps})
                d.num(v);
            completed += static_cast<double>(st.completed);
            shed += static_cast<double>(st.shedTotal);
            for (std::int64_t n : st.deviceTasksRun)
                tasks += static_cast<double>(n);
            for (int dev = 0; dev < svc.numDevices(); ++dev) {
                const ControllerSwitch &sw = svc.deviceSwitch(dev);
                written += static_cast<double>(
                    sw.bytesWritten(FlashPort::Host)
                    + sw.bytesWritten(FlashPort::Aquoman));
                aqRead += static_cast<double>(
                    sw.bytesRead(FlashPort::Aquoman));
                hostRead += static_cast<double>(
                    sw.bytesRead(FlashPort::Host));
            }
        }
        u.digest = d.value();
        std::set<std::pair<int, std::uint64_t>> distinct;
        for (const workload::WorkloadEvent &ev : trace_)
            distinct.emplace(ev.queryNumber, ev.instance);
        u.counts["workload.arrivals"] = static_cast<double>(trace_.size());
        u.counts["workload.distinct_instances"] =
            static_cast<double>(distinct.size());
        u.counts["service.completed"] = completed;
        u.counts["service.shed"] = shed;
        u.counts["service.device_tasks"] = tasks;
        u.counts["service.suspended"] = suspended;
        u.counts["flash.bytes_written"] = written;
        u.counts["flash.aquoman_bytes_read"] = aqRead;
        u.counts["flash.host_bytes_read"] = hostRead;

        // model.* describe the first (DRR) run; the digest covers all.
        service::ServiceStats st = runs_.front().svc->aggregate();
        double goodput = 0;
        for (const service::TenantStats &t : st.tenants)
            goodput += t.goodputQps;
        u.model["model.makespan_s"] = st.makespanSec;
        u.model["model.p99_latency_s"] = st.p99LatencySec;
        u.model["model.goodput_qps"] = goodput;
        u.model["model.shed_rate"] = st.shedRate;
        for (int w = 0; w < obs::kNumWaitClasses; ++w)
            u.model[std::string("model.wait_")
                    + obs::waitClassName(static_cast<obs::WaitClass>(w))
                    + "_s"] = st.waitLedger.sec[w];
    }

    void release() override { runs_.clear(); }

    /** Sampled distinct instances: service result == a standalone
     *  Executor run of the same plan. */
    void
    finalChecks(Checks &c) override
    {
        for (const ServiceRun &run : runs_) {
            service::QueryService &svc = *run.svc;
            std::set<std::pair<int, std::uint64_t>> seen;
            std::size_t stride =
                std::max<std::size_t>(1, trace_.size() / kSampledInstances);
            for (std::size_t i = 0; i < trace_.size(); i += stride) {
                const workload::WorkloadEvent &ev = trace_[i];
                const service::QueryRecord &r =
                    svc.record(static_cast<service::QueryId>(i));
                if (r.shed || !seen.emplace(ev.queryNumber, ev.instance)
                                   .second)
                    continue;
                Executor ex(svc.catalog());
                RelTable want = ex.run(
                    gen_->build(gen_->instance(ev.queryNumber, ev.instance)));
                c.expect(canonicalRows(r.result) == canonicalRows(want),
                         std::string(run.fifo ? "fifo" : "drr")
                             + " query " + std::to_string(i)
                             + ": service result != Executor");
            }
        }
    }

  private:
    std::vector<std::shared_ptr<Table>>
    tables() const
    {
        return {db_.region,   db_.nation, db_.supplier, db_.customer,
                db_.part,     db_.partsupp, db_.orders, db_.lineitem};
    }

    void
    addTables(service::QueryService &svc)
    {
        for (const auto &t : tables()) {
            pb::Scope s(rec_, "service.add_table");
            svc.addTable(t);
        }
        db_.registerMetadata(svc.catalog());
    }

    service::QueryId
    submit(service::QueryService &svc, int q, std::uint64_t instance,
           double at, int tenant)
    {
        std::int64_t req = static_cast<std::int64_t>(svc.numQueries());
        Query plan;
        {
            pb::Scope s(rec_, "workload.plan_build", req);
            plan = gen_->build(gen_->instance(q, instance));
        }
        pb::Scope s(rec_, "service.submit", req);
        return svc.submit(plan, at, tenant);
    }

    /** service_workload's runTrace: DRR with the tenant table, or the
     *  FIFO replay with one shared queue of equal total capacity. */
    ServiceRun
    runTrace(bool fifo, UnitOut &u)
    {
        service::ServiceConfig cfg;
        cfg.numDevices = kDevices;
        cfg.admissionLimit = kAdmissionLimit;
        cfg.slo.windowSec = horizon_ / 24.0;
        if (fifo) {
            cfg.maxQueuedPerTenant =
                kMaxQueuedPerTenant * static_cast<int>(mix_.size());
        } else {
            cfg.maxQueuedPerTenant = kMaxQueuedPerTenant;
            for (const workload::TenantSpec &t : mix_) {
                service::TenantConfig tc;
                tc.name = t.name;
                tc.priority = t.priority;
                tc.weight = t.weight;
                tc.dramQuotaBytes = t.dramQuotaBytes;
                tc.sloSec = t.sloSec;
                cfg.tenants.push_back(tc);
            }
        }
        ServiceRun run;
        run.fifo = fifo;
        run.svc = std::make_unique<service::QueryService>(cfg);
        service::QueryService &svc = *run.svc;
        addTables(svc);
        for (const workload::WorkloadEvent &ev : trace_)
            submit(svc, ev.queryNumber, ev.instance, ev.atSec,
                   fifo ? 0 : ev.tenant);

        // Wall per completed query, sampled every kCompletionChunk
        // completions inside drain(); the host is probed every
        // kProbeCompletions.
        int done = 0;
        auto last = pb::Clock::now();
        svc.setOnComplete([&](const service::QueryRecord &r) {
            if (r.shed || ++done % kCompletionChunk)
                return;
            u.sample(1e3
                     * std::chrono::duration<double>(pb::Clock::now() - last)
                           .count()
                     / kCompletionChunk);
            if (done % kProbeCompletions == 0)
                checkpoint(u);
            last = pb::Clock::now();
        });
        {
            pb::Scope s(rec_, "service.drain");
            svc.drain();
        }
        svc.setOnComplete(nullptr);
        {
            pb::Scope s(rec_, "obs.report");
            service::ServiceStats st = svc.aggregate();
            std::ofstream f(reportPath_);
            f << "{\"completed\":" << st.completed
              << ",\"shed\":" << st.shedTotal
              << ",\"slo\":" << svc.sloEngine().jsonString() << "}\n";
            u.completed += st.completed;
        }
        return run;
    }

    std::uint64_t seed_;
    double overload_;
    bool replay_;
    std::string reportPath_;
    tpch::TpchDatabase db_;
    std::unique_ptr<workload::TpchInstanceGenerator> gen_;
    std::vector<workload::TenantSpec> mix_;
    double horizon_ = 0.0;
    std::vector<workload::WorkloadEvent> trace_;
    std::vector<ServiceRun> runs_;
};

// =====================================================================
// Run loop, analysis and output.
// =====================================================================

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (--trace 0), in BENCHMARK.json order. */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"total_wall_s", "s"},
    {"queries_per_s", "1/s"},   {"query_wall_ms_p50", "ms"},
    {"query_wall_ms_p90", "ms"}, {"peak_rss_mb", "MB"},
    {"check_pass_rate", "ratio"},
};

/** Per-layer metrics (--trace 1), in BENCHMARK.json order. */
const MetricSpec kPerLayer[] = {
    {"tpch.generate_s", "s"},
    {"tpch.generate_parallelism", "ratio"},
    {"tpch.rows", "count"},
    {"columnstore.install_s", "s"},
    {"columnstore.install_parallelism", "ratio"},
    {"columnstore.encoded_bytes", "B"},
    {"columnstore.compression_ratio", "ratio"},
    {"flash.bytes_written", "B"},
    {"flash.aquoman_bytes_read", "B"},
    {"flash.host_bytes_read", "B"},
    {"engine.run_s", "s"},
    {"engine.run_ms_p50", "ms"},
    {"engine.run_ms_p90", "ms"},
    {"engine.parallelism", "ratio"},
    {"engine.row_ops", "count"},
    {"engine.row_ops_per_s", "1/s"},
    {"aquoman.run_query_s", "s"},
    {"aquoman.run_query_ms_p50", "ms"},
    {"aquoman.run_query_ms_p90", "ms"},
    {"aquoman.parallelism", "ratio"},
    {"aquoman.tasks", "count"},
    {"aquoman.transformed_rows", "count"},
    {"aquoman.suspended_queries", "count"},
    {"aquoman.rows_per_s", "1/s"},
    {"obs.profile_s", "s"},
    {"obs.report_s", "s"},
    {"workload.trace_s", "s"},
    {"workload.plan_build_s", "s"},
    {"workload.arrivals", "count"},
    {"workload.distinct_instances", "count"},
    {"service.add_table_s", "s"},
    {"service.submit_s", "s"},
    {"service.drain_s", "s"},
    {"service.drain_ms_per_completed", "ms"},
    {"service.drain_parallelism", "ratio"},
    {"service.completed", "count"},
    {"service.shed", "count"},
    {"service.device_tasks", "count"},
    {"service.suspended", "count"},
    {"model.l_s", "s"},
    {"model.l_aquoman_s", "s"},
    {"model.saq16_over_l", "ratio"},
    {"model.cpu_saving_mean", "ratio"},
    {"model.device_flash_bytes", "B"},
    {"model.stage_flash_read_s", "s"},
    {"model.stage_selector_s", "s"},
    {"model.stage_transformer_s", "s"},
    {"model.stage_swissknife_s", "s"},
    {"model.stage_switch_s", "s"},
    {"model.stage_host_phase_s", "s"},
    {"model.stage_decode_s", "s"},
    {"model.makespan_s", "s"},
    {"model.p99_latency_s", "s"},
    {"model.goodput_qps", "1/s"},
    {"model.shed_rate", "ratio"},
    {"model.wait_admission_queue_s", "s"},
    {"model.wait_dram_wait_s", "s"},
    {"model.wait_device_busy_s", "s"},
    {"model.wait_device_exec_s", "s"},
    {"model.wait_suspend_host_s", "s"},
    {"model.wait_host_finish_s", "s"},
    {"model.digest", "hash"},
    {"process.cpu_s", "s"},
    {"process.parallelism", "ratio"},
    {"process.other_s", "s"},
    {"bench.trace_overhead_s", "s"},
    {"bench.check_s", "s"},
    {"bench.host_reference_ms", "ms"},
};

/** Per-figure times from the recorded spans, keyed by span name. */
struct LayerTimes
{
    /** Self wall/CPU per layer call, per figure: the mean over set-ups
     *  plus the mean over traced units. */
    std::map<std::string, double> wall, cpu;
    /** Self wall per layer call over traced units only, per unit. */
    std::map<std::string, double> unitWall, unitCpu;
    /** Wall of each call over traced units, ms. */
    std::map<std::string, std::vector<double>> callMs;
    /** The benchmark's output checks, total seconds. */
    double benchWall = 0;
    double otherWall = 0, figureWall = 0, figureCpu = 0;
    double partitionError = 0; ///< |sum layer self + other - wall|
    double processWall = 0;
};

LayerTimes
analyse(const pb::SpanRecorder &rec, int root)
{
    const std::vector<pb::Span> &spans = rec.spans();
    LayerTimes lt;

    // Window (set-up or traced unit) enclosing each span.
    std::vector<int> window(spans.size(), -1);
    int setups = 0, units = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == "setup" || spans[i].name == "unit") {
            window[i] = static_cast<int>(i);
            ++(spans[i].name == "setup" ? setups : units);
        } else if (spans[i].parent >= 0) {
            window[i] = window[spans[i].parent];
        }
    }
    auto share = [&](int w) {
        return 1.0 / std::max(1, spans[w].name == "setup" ? setups : units);
    };

    // Process-wide partition: the layer spans' self times plus the
    // wall no layer span covers must add up to the process wall.
    std::vector<std::pair<double, double>> covered;
    std::map<int, std::vector<std::pair<double, double>>> windowCovered;
    double layerSelfSum = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const pb::Span &s = spans[i];
        if (s.layer().empty())
            continue;
        double self = rec.selfWall(static_cast<int>(i));
        double selfCpu = rec.selfCpu(static_cast<int>(i));
        layerSelfSum += self;
        covered.emplace_back(s.start, s.end);
        if (s.name == "bench.check")
            lt.benchWall += self;
        int w = window[i];
        if (w < 0)
            continue;
        windowCovered[w].emplace_back(s.start, s.end);
        lt.wall[s.name] += self * share(w);
        lt.cpu[s.name] += selfCpu * share(w);
        if (spans[w].name == "unit") {
            lt.unitWall[s.name] += self / units;
            lt.unitCpu[s.name] += selfCpu / units;
            lt.callMs[s.name].push_back(1e3 * s.wall());
        }
    }
    lt.processWall = spans[root].wall();
    double other = lt.processWall - pb::unionLength(covered);
    lt.partitionError = std::fabs(layerSelfSum + other - lt.processWall);

    for (std::size_t w = 0; w < spans.size(); ++w) {
        if (window[w] != static_cast<int>(w))
            continue;
        double k = share(static_cast<int>(w));
        lt.figureWall += spans[w].wall() * k;
        lt.figureCpu += spans[w].cpu() * k;
        lt.otherWall +=
            (spans[w].wall() - pb::unionLength(windowCovered[w])) * k;
    }
    return lt;
}

void
printMetric(const std::string &name, double value, const char *unit,
            const std::string &note = "")
{
    std::printf("  %-34s %18.6f %-6s%s\n", name.c_str(), value, unit,
                note.c_str());
}

std::string
jsonMetrics(const std::vector<std::pair<const MetricSpec *, double>> &m)
{
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < m.size(); ++i)
        os << (i ? ", " : "") << '"' << m[i].first->name
           << "\": {\"value\": " << obs::jsonNumber(m[i].second)
           << ", \"unit\": \"" << m[i].first->unit << "\"}";
    os << '}';
    return os.str();
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

} // namespace

int
main(int argc, char **argv)
{
    const pb::Clock::time_point origin = pb::Clock::now();
    pb::SpanRecorder rec(origin);
    Args args = parseArgs(argc, argv);
    std::map<std::string, std::string> env = checkEnvironment(args);
    std::filesystem::create_directories(args.outDir);
    std::string stem = args.outDir + "/" + args.workload + "-seed"
        + std::to_string(args.seed);

    std::unique_ptr<Workload> wl;
    if (args.workload == "tpch_sweep")
        wl = std::make_unique<TpchSweep>(rec, args.seed);
    else if (args.workload == "service_1x")
        wl = std::make_unique<ServiceMix>(rec, args.seed, 1.0, false,
                                          stem + "-slo.json");
    else if (args.workload == "service_2x_replay")
        wl = std::make_unique<ServiceMix>(rec, args.seed, 2.0, true,
                                          stem + "-slo.json");
    else
        die("unknown workload " + args.workload);

    rec.setEnabled(args.trace);
    int root = rec.begin("process");
    Checks checks;

    std::vector<double> setupWalls;
    double firstSetupAt = rec.now();
    // Each set-up and unit starts from a trimmed heap, as a fresh
    // process would: freed memory goes back to the system, so peak RSS
    // does not grow with the repetitions.
    auto release = [&](int n, bool setup) {
        pb::Scope s(rec, "bench.release", n);
        setup ? wl->releaseSetup() : wl->release();
        malloc_trim(0);
    };
    // The host's speed drifts by tens of percent over minutes, as other
    // tenants come and go. A probe before each set-up and unit, at each
    // checkpoint inside a unit, and after the last unit times the fixed
    // reference work. Each set-up and unit segment is then scaled by the
    // probes on either side of it.
    std::vector<double> probes; ///< mean reference pass wall per probe
    auto probeHost = [&] {
        pb::Scope s(rec, "bench.reference",
                    static_cast<std::int64_t>(probes.size()));
        double sum = 0.0;
        for (int i = 0; i < kReferencePasses; ++i)
            sum += referenceSeconds();
        probes.push_back(sum / kReferencePasses);
    };
    auto endSegment = [&](UnitOut &u) {
        u.segments.emplace_back(
            std::chrono::duration<double>(pb::Clock::now() - u.segmentStart)
                .count(),
            probes.size() - 1);
    };
    wl->checkpoint = [&](UnitOut &u) {
        endSegment(u);
        probeHost();
        u.segmentStart = pb::Clock::now();
    };
    for (int rep = 0; rep < kSetupReps; ++rep) {
        release(rep, true);
        probeHost();
        double t0 = rec.now();
        {
            pb::Scope s(rec, "setup", rep);
            wl->setup();
        }
        setupWalls.push_back(rec.now() - t0);
    }

    // Measured phase. In a traced run the odd units record spans and
    // the even ones do not, so bench.trace_overhead_s compares the two;
    // unit 0, the warm-up, is then left out of that comparison.
    std::vector<UnitOut> units;
    // A unit starts only if, at the last unit's pace, it ends within
    // half a unit of --seconds (or the workload's minimum count is not
    // yet reached), so the measured phase rounds to the nearest unit.
    int minUnits = std::max(wl->minUnits(), args.trace ? 2 : 1);
    double measureStart = rec.now();
    while (static_cast<int>(units.size()) < minUnits
           || rec.now() - measureStart + 0.5 * units.back().wall
               <= args.seconds) {
        int n = static_cast<int>(units.size());
        release(n, false);
        probeHost();
        bool traced = args.trace && n % 2 == 1;
        rec.setEnabled(traced);
        UnitOut u;
        u.segmentStart = pb::Clock::now();
        {
            pb::Scope s(rec, "unit", n);
            wl->unit(n, u);
        }
        endSegment(u);
        for (const auto &[wall, probe] : u.segments)
            u.wall += wall;
        u.traced = traced;

        rec.setEnabled(args.trace);
        {
            pb::Scope s(rec, "bench.check", n);
            wl->afterUnit(u, checks);
            if (!units.empty()) {
                checks.expect(u.digest == units.front().digest,
                              "unit " + std::to_string(n)
                                  + ": model digest differs from unit 0");
                checks.expect(u.counts == units.front().counts
                                  && u.model == units.front().model,
                              "unit " + std::to_string(n)
                                  + ": exact counts differ from unit 0");
            }
        }
        units.push_back(std::move(u));
    }
    probeHost();
    {
        pb::Scope s(rec, "bench.check", -1);
        wl->finalChecks(checks);
    }
    rec.end(root);
    rec.setEnabled(false);
    LayerTimes lt;
    if (args.trace) {
        checks.expect(!rec.nestingBroken(), "spans did not nest");
        lt = analyse(rec, root);
        checks.expect(lt.partitionError
                          <= 1e-6 * static_cast<double>(rec.spans().size()),
                      "layer self times plus process.other_s do not "
                      "partition the process wall");
    }

    // --- End-to-end values (untraced units only). ---------------------
    // Each wall is scaled to the nominal host by the reference probes
    // on either side of it: probe k precedes set-up k, and each unit
    // segment records the probe that opened it. The units repeat
    // identical simulated work, so the estimates are medians over them;
    // per-query samples keep the faster half of each position's repeats.
    auto scaleAt = [&](std::size_t k) {
        return kReferenceSec / (0.5 * (probes[k] + probes[k + 1]));
    };
    std::vector<double> setupScaled;
    for (std::size_t i = 0; i < setupWalls.size(); ++i)
        setupScaled.push_back(setupWalls[i] * scaleAt(i));
    std::vector<const UnitOut *> measured;
    std::vector<double> unitScaled;
    for (const UnitOut &u : units) {
        if (u.traced)
            continue;
        measured.push_back(&u);
        double scaled = 0.0;
        for (const auto &[wall, probe] : u.segments)
            scaled += wall * scaleAt(probe);
        unitScaled.push_back(scaled);
    }
    std::size_t positions = measured.front()->queryWallMs.size();
    for (const UnitOut *u : measured)
        positions = std::min(positions, u->queryWallMs.size());
    std::vector<double> queryMs;
    for (std::size_t j = 0; j < positions; ++j) {
        std::vector<double> repeats;
        for (const UnitOut *u : measured)
            repeats.push_back(
                u->queryWallMs[j]
                * scaleAt(u->segments[u->sampleSegment[j]].second));
        std::sort(repeats.begin(), repeats.end());
        queryMs.insert(queryMs.end(), repeats.begin(),
                       repeats.begin() + (repeats.size() + 1) / 2);
    }
    double setupS = median(setupScaled);
    double unitS = median(unitScaled);
    // One figure: process start, one set-up, one unit.
    double totalWall = firstSetupAt * scaleAt(0) + setupS + unitS;
    double qps = static_cast<double>(measured.front()->completed) / unitS;
    double p50 = percentile(queryMs, 0.50);
    double p90 = percentile(queryMs, 0.90);
    std::size_t beyondP90 = static_cast<std::size_t>(std::count_if(
        queryMs.begin(), queryMs.end(), [&](double v) { return v > p90; }));
    double rss = pb::peakRssMb();

    const UnitOut &last = units.back();
    std::string digest = hex64(last.digest);
    double passRate = checks.attempted > 0
        ? 1.0 - static_cast<double>(checks.failed) / checks.attempted
        : 0.0;

    // --- Run record. --------------------------------------------------
    std::ostringstream record;
    record << "{\"workload\": \"" << args.workload
           << "\", \"seed\": " << args.seed
           << ", \"seconds\": " << obs::jsonNumber(args.seconds)
           << ", \"trace\": " << (args.trace ? 1 : 0)
           << ", \"scale_factor\": " << obs::jsonNumber(wl->scaleFactor())
           << ", \"threads\": " << ThreadPool::global().parallelism()
           << ", \"nproc\": " << std::thread::hardware_concurrency()
           << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
           << "\", \"commit\": \"" << obs::jsonEscape(args.commit)
           << "\", \"env\": {";
    bool first = true;
    for (const auto &[k, v] : env) {
        record << (first ? "" : ", ") << '"' << k << "\": \""
               << obs::jsonEscape(v) << '"';
        first = false;
    }
    record << "}, \"reference_sec\": " << obs::jsonNumber(kReferenceSec)
           << ", \"host_reference_sec\": " << obs::jsonNumber(median(probes))
           << ", \"setups\": " << setupWalls.size()
           << ", \"units\": " << units.size()
           << ", \"model_digest\": \"" << digest << "\"}";

    std::printf("perfbench %s seed %llu (%s)\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced" : "untraced");
    std::printf("run record: %s\n", record.str().c_str());
    bool stable = std::all_of(units.begin(), units.end(),
                              [&](const UnitOut &u) {
                                  return u.digest == last.digest;
                              });
    std::printf("model digest: %s (%s across %zu units)\n",
                digest.c_str(), stable ? "identical" : "DIFFERENT",
                units.size());
    std::printf("unit walls (s):");
    for (const UnitOut &u : units)
        std::printf(" %.3f%s", u.wall, u.traced ? "t" : "");
    std::printf("\nhost reference pass (ms), per probe:");
    for (double p : probes)
        std::printf(" %.1f", 1e3 * p);
    std::printf("\nscaled to a %.0f ms reference pass (s): set-ups",
                1e3 * kReferenceSec);
    for (double v : setupScaled)
        std::printf(" %.3f", v);
    std::printf(", untraced units");
    for (double v : unitScaled)
        std::printf(" %.3f", v);
    std::printf("\n");
    std::printf("checks: %lld attempted, %lld failed\n",
                static_cast<long long>(checks.attempted),
                static_cast<long long>(checks.failed));

    std::vector<std::pair<const MetricSpec *, double>> out;
    auto emit = [&](const MetricSpec &m, double v,
                    const std::string &note = "") {
        out.emplace_back(&m, v);
        printMetric(m.name, v, m.unit, note);
    };

    if (!args.trace) {
        std::string samples = " (" + std::to_string(queryMs.size())
            + " samples, " + std::to_string(beyondP90) + " beyond p90)";
        std::printf("end-to-end metrics:\n");
        const double values[] = {setupS, totalWall, qps, p50, p90, rss,
                                 passRate};
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
            emit(kEndToEnd[i], values[i],
                 i == 3 || i == 4 ? samples : "");
    } else {
        std::printf("partition: process wall %.6f s, |layers + other - "
                    "wall| = %.3g s over %zu spans\n",
                    lt.processWall, lt.partitionError, rec.spans().size());

        Values v;
        for (const auto &[k, x] : wl->setupCounts)
            v[k] += x;
        for (const auto &[k, x] : last.counts)
            v[k] += x;
        for (const auto &[k, x] : last.model)
            v[k] = x;
        auto par = [&](const std::string &call) {
            return lt.wall[call] > 0 ? lt.cpu[call] / lt.wall[call] : 0;
        };
        auto perSec = [&](const std::string &count,
                          const std::string &call) {
            return lt.unitWall[call] > 0 ? v[count] / lt.unitWall[call]
                                         : 0;
        };
        for (const char *call :
             {"tpch.generate", "columnstore.install", "engine.run",
              "aquoman.run_query", "obs.profile", "obs.report",
              "workload.trace", "workload.plan_build",
              "service.add_table", "service.submit", "service.drain"})
            v[std::string(call) + "_s"] = lt.wall[call];
        v["tpch.generate_parallelism"] = par("tpch.generate");
        v["columnstore.install_parallelism"] = par("columnstore.install");
        v["engine.run_ms_p50"] = percentile(lt.callMs["engine.run"], 0.5);
        v["engine.run_ms_p90"] = percentile(lt.callMs["engine.run"], 0.9);
        v["engine.parallelism"] = par("engine.run");
        v["engine.row_ops_per_s"] = perSec("engine.row_ops", "engine.run");
        v["aquoman.run_query_ms_p50"] =
            percentile(lt.callMs["aquoman.run_query"], 0.5);
        v["aquoman.run_query_ms_p90"] =
            percentile(lt.callMs["aquoman.run_query"], 0.9);
        v["aquoman.parallelism"] = par("aquoman.run_query");
        v["aquoman.rows_per_s"] =
            perSec("aquoman.transformed_rows", "aquoman.run_query");
        v["service.drain_ms_per_completed"] = v["service.completed"] > 0
            ? 1e3 * lt.unitWall["service.drain"] / v["service.completed"]
            : 0;
        v["service.drain_parallelism"] = lt.unitWall["service.drain"] > 0
            ? lt.unitCpu["service.drain"] / lt.unitWall["service.drain"]
            : 0;
        v["model.digest"] = static_cast<double>(last.digest >> 12);
        v["process.cpu_s"] = lt.figureCpu;
        v["process.parallelism"] =
            lt.figureWall > 0 ? lt.figureCpu / lt.figureWall : 0;
        v["process.other_s"] = lt.otherWall;
        std::vector<double> on, off;
        for (std::size_t i = 1; i < units.size(); ++i)
            (units[i].traced ? on : off).push_back(units[i].wall);
        if (off.empty())
            off.push_back(units.front().wall);
        v["bench.trace_overhead_s"] = median(on) - median(off);
        v["bench.check_s"] = lt.benchWall / static_cast<double>(units.size());
        v["bench.host_reference_ms"] = 1e3 * median(probes);

        std::printf("per-layer metrics (per figure: one set-up + one "
                    "unit; %d set-ups, %zu traced units):\n",
                    kSetupReps, on.size());
        for (const MetricSpec &m : kPerLayer)
            emit(m, v[m.name]);

        std::ofstream tf(stem + "-trace.json");
        rec.writeChromeTrace(tf);
        std::printf("wrote %s-trace.json (%zu spans)\n", stem.c_str(),
                    rec.spans().size());
    }

    std::string metrics = jsonMetrics(out);
    {
        std::ofstream rf(stem + (args.trace ? "-trace1" : "-trace0")
                         + ".json");
        rf << "{\"record\": " << record.str() << ", \"checks\": {"
           << "\"attempted\": " << checks.attempted
           << ", \"failed\": " << checks.failed
           << "}, \"metrics\": " << metrics << "}\n";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                checks.failed == 0 ? "true" : "false",
                static_cast<long long>(checks.attempted),
                static_cast<long long>(checks.failed), metrics.c_str());
    return 0;
}
