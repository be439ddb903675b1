/** @file
 * Latency-anatomy contracts of the query service: every completed
 * query's wait-state ledger partitions (doneSec - submitSec) into the
 * six exclusive classes bitwise; the ledgers, blame matrix, and
 * per-tenant contention totals are byte-identical across
 * AQUOMAN_THREADS x AQUOMAN_BATCH; blame row sums ARE the per-tenant
 * contention totals; shed queries carry structured reasons with
 * all-zero ledgers; every query's compressed critical path tiles its
 * [submit, done] interval; and an empty service run exports valid,
 * all-zero observability artifacts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/batch_mode.hh"
#include "common/thread_pool.hh"
#include "obs/latency_anatomy.hh"
#include "obs/trace.hh"
#include "service/query_service.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

#include "../../tools/report.hh"

namespace aquoman::service {
namespace {

using tpch::TpchConfig;
using tpch::TpchDatabase;
using tpch::tpchQuery;

constexpr double kSf = 0.01;

const TpchDatabase &
database()
{
    static TpchDatabase db = [] {
        TpchConfig cfg;
        cfg.scaleFactor = kSf;
        return TpchDatabase::generate(cfg);
    }();
    return db;
}

void
installTables(QueryService &svc)
{
    const TpchDatabase &db = database();
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());
}

TenantConfig
tenant(const std::string &name, int priority = 1, double weight = 1.0,
       std::int64_t quota = 0)
{
    TenantConfig t;
    t.name = name;
    t.priority = priority;
    t.weight = weight;
    t.dramQuotaBytes = quota;
    return t;
}

/**
 * The contended two-tenant workload the anatomy tests share: "fast"
 * (priority 0) races "greedy", whose DRAM quota admits exactly one
 * reservation — so its queries queue behind their own quota (dram_wait)
 * as well as behind full admission slots (admission_queue), and
 * admitted queries contend for two devices (device_busy).
 */
std::unique_ptr<QueryService>
makeContendedService()
{
    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.admissionLimit = 2;
    cfg.slo.windowSec = 0.05;
    cfg.tenants = {tenant("fast", 0, 2.0),
                   tenant("greedy", 1, 1.0,
                          cfg.resolvedQueryDramBytes())};
    auto svc = std::make_unique<QueryService>(cfg);
    installTables(*svc);
    return svc;
}

void
submitContended(QueryService &svc)
{
    // Near-simultaneous arrivals so the burst overwhelms both the two
    // admission slots (admission_queue) and greedy's one-reservation
    // quota (dram_wait) while devices stay busy (device_busy).
    const int qs[] = {6, 14, 6, 14, 6, 14, 6, 14, 6, 14, 6, 14};
    for (int i = 0; i < 12; ++i)
        svc.submit(tpchQuery(qs[i], kSf),
                   1e-6 * static_cast<double>(i), i % 2);
    svc.drain();
}

/** Full-precision render of every ledger, contention total, and blame
 *  cell — byte-equality of two fingerprints is the determinism bar. */
std::string
fingerprint(const QueryService &svc, const ServiceStats &stats)
{
    std::ostringstream os;
    os.precision(17);
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc.numQueries()); ++id) {
        const QueryRecord &r = svc.record(id);
        os << id << ':' << r.submitSec << ',' << r.doneSec;
        for (int i = 0; i < obs::kNumWaitClasses; ++i)
            os << ',' << r.waitLedger.sec[i];
        os << ',' << r.contentionWaitSec << ';';
    }
    os << '|';
    for (double c : stats.blame.cells)
        os << c << ',';
    for (const TenantStats &t : stats.tenants)
        os << t.contentionWaitSec << ';';
    return os.str();
}

class WaitLedgerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        threadsBefore = ThreadPool::configuredParallelism();
        batchBefore = batchExecutionEnabled();
        tracerWasEnabled = obs::SimTracer::global().enabled();
    }

    void
    TearDown() override
    {
        ThreadPool::setGlobalParallelism(threadsBefore);
        setBatchExecutionEnabled(batchBefore);
        obs::SimTracer::global().clear();
        if (!tracerWasEnabled)
            obs::SimTracer::global().disable();
    }

    int threadsBefore = 1;
    bool batchBefore = true;
    bool tracerWasEnabled = false;
};

TEST_F(WaitLedgerTest, ExactPartitionForEveryQuery)
{
    auto svc = makeContendedService();
    submitContended(*svc);

    int completed = 0;
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc->numQueries()); ++id) {
        const QueryRecord &r = svc->record(id);
        if (r.shed) {
            for (int i = 0; i < obs::kNumWaitClasses; ++i)
                EXPECT_EQ(r.waitLedger.sec[i], 0.0)
                    << "shed query " << id << " accrued wait";
            continue;
        }
        ++completed;
        std::string err;
        EXPECT_TRUE(obs::validateWaitPartition(
            r.waitLedger, r.doneSec - r.submitSec, &err))
            << "query " << id << ": " << err;
    }
    ASSERT_GT(completed, 0);
}

TEST_F(WaitLedgerTest, ByteIdenticalAcrossThreadsAndBatchModes)
{
    std::vector<std::string> prints;
    for (int threads : {1, 4}) {
        for (bool batch : {false, true}) {
            ThreadPool::setGlobalParallelism(threads);
            setBatchExecutionEnabled(batch);
            auto svc = makeContendedService();
            submitContended(*svc);
            ServiceStats stats = svc->aggregate();
            prints.push_back(fingerprint(*svc, stats));
        }
    }
    for (std::size_t i = 1; i < prints.size(); ++i)
        EXPECT_EQ(prints[0], prints[i])
            << "ledger fingerprint diverged at config " << i;
}

TEST_F(WaitLedgerTest, BlameRowSumsAreTenantContentionTotals)
{
    auto svc = makeContendedService();
    submitContended(*svc);
    ServiceStats stats = svc->aggregate();

    ASSERT_EQ(stats.blame.n,
              static_cast<int>(stats.tenants.size()));
    double perQuery = 0.0;
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc->numQueries()); ++id)
        perQuery += svc->record(id).contentionWaitSec;
    for (std::size_t ti = 0; ti < stats.tenants.size(); ++ti)
        EXPECT_EQ(stats.tenants[ti].contentionWaitSec,
                  stats.blame.rowSum(static_cast<int>(ti)))
            << "tenant " << stats.tenants[ti].name;
    EXPECT_EQ(stats.contentionWaitSec, stats.blame.total());
    // Per-query accrual groups the same quantities differently, so it
    // reproduces the matrix total only to rounding.
    EXPECT_NEAR(perQuery, stats.blame.total(),
                1e-9 * std::max(1.0, stats.blame.total()));
    EXPECT_GT(stats.contentionWaitSec, 0.0);
}

TEST_F(WaitLedgerTest, ContendedRunExercisesQueueDramAndBusyClasses)
{
    auto svc = makeContendedService();
    submitContended(*svc);
    ServiceStats stats = svc->aggregate();

    EXPECT_GT(stats.waitLedger.at(obs::WaitClass::AdmissionQueue), 0.0);
    EXPECT_GT(stats.waitLedger.at(obs::WaitClass::DramWait), 0.0);
    EXPECT_GT(stats.waitLedger.at(obs::WaitClass::DeviceBusy), 0.0);
    EXPECT_GT(stats.waitLedger.at(obs::WaitClass::DeviceExec), 0.0);
    // dram_wait is self-inflicted: greedy must blame itself.
    EXPECT_GT(stats.blame.at(1, 1), 0.0);

    // The aggregate ledger is the per-query ledgers summed (the two
    // sides accumulate in different orders: rounding-level equality).
    double classSum[obs::kNumWaitClasses] = {};
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc->numQueries()); ++id)
        for (int i = 0; i < obs::kNumWaitClasses; ++i)
            classSum[i] += svc->record(id).waitLedger.sec[i];
    for (int i = 0; i < obs::kNumWaitClasses; ++i)
        EXPECT_NEAR(stats.waitLedger.sec[i], classSum[i],
                    1e-9 * std::max(1.0, classSum[i]))
            << obs::waitClassName(static_cast<obs::WaitClass>(i));
}

TEST_F(WaitLedgerTest, HostClassesAreMutuallyExclusive)
{
    auto svc = makeContendedService();
    submitContended(*svc);
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc->numQueries()); ++id) {
        const QueryRecord &r = svc->record(id);
        if (r.shed)
            continue;
        if (r.suspendCount > 0)
            EXPECT_EQ(r.waitLedger.at(obs::WaitClass::HostFinish), 0.0)
                << "suspended query " << id
                << " accrued host_finish";
        else
            EXPECT_EQ(r.waitLedger.at(obs::WaitClass::SuspendHost), 0.0)
                << "never-suspended query " << id
                << " accrued suspend_host";
    }
}

TEST_F(WaitLedgerTest, ShedQueriesCarryStructuredReasons)
{
    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.admissionLimit = 1;
    cfg.maxQueuedPerTenant = 1;
    // "starved" gets a quota below a single reservation, so admission
    // can never reserve for it and sheds at the head of the queue.
    cfg.tenants = {tenant("ok"), tenant("starved", 1, 1.0, 1)};
    QueryService svc(cfg);
    installTables(svc);
    std::vector<QueryId> ok, starved;
    for (int i = 0; i < 4; ++i)
        ok.push_back(svc.submit(tpchQuery(6, kSf), 0.0, 0));
    starved.push_back(svc.submit(tpchQuery(6, kSf), 0.0, 1));
    svc.drain();

    std::int64_t queueFull = 0, quotaShed = 0;
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc.numQueries()); ++id) {
        const QueryRecord &r = svc.record(id);
        if (!r.shed) {
            EXPECT_TRUE(r.shedReason.empty());
            continue;
        }
        for (int i = 0; i < obs::kNumWaitClasses; ++i)
            EXPECT_EQ(r.waitLedger.sec[i], 0.0);
        if (r.shedReason == "queue_full")
            ++queueFull;
        else if (r.shedReason == "quota_below_reservation")
            ++quotaShed;
        else
            ADD_FAILURE() << "query " << id
                          << " shed with unexpected reason '"
                          << r.shedReason << "'";
    }
    EXPECT_GT(queueFull, 0);
    EXPECT_GT(quotaShed, 0);

    ServiceStats stats = svc.aggregate();
    EXPECT_EQ(stats.shedReasonCounts["queue_full"], queueFull);
    EXPECT_EQ(stats.shedReasonCounts["quota_below_reservation"],
              quotaShed);
    EXPECT_EQ(queueFull + quotaShed, stats.shedTotal);
}

TEST_F(WaitLedgerTest, CriticalPathTilesEveryQuery)
{
    auto svc = makeContendedService();
    submitContended(*svc);
    int withSegments = 0;
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc->numQueries()); ++id) {
        const QueryRecord &r = svc->record(id);
        if (r.shed || r.waitSegments.empty())
            continue;
        ++withSegments;
        // The compressed critical path tiles [submit, done]
        // contiguously and never keeps two mergeable neighbours.
        std::vector<obs::WaitSegment> path =
            obs::criticalPath(r.waitSegments, &r.profile);
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front().startSec, r.submitSec);
        EXPECT_EQ(path.back().endSec, r.doneSec);
        for (std::size_t i = 0; i < path.size(); ++i) {
            EXPECT_GT(path[i].endSec, path[i].startSec);
            if (i == 0)
                continue;
            EXPECT_EQ(path[i].startSec, path[i - 1].endSec);
            EXPECT_FALSE(path[i].cls == path[i - 1].cls
                         && path[i].device == path[i - 1].device)
                << "unmerged neighbours at segment " << i;
        }
    }
    EXPECT_GT(withSegments, 0);
}

TEST_F(WaitLedgerTest, SloStoreCarriesQueueWaitAndBlameSeries)
{
    auto svc = makeContendedService();
    submitContended(*svc);
    const obs::TimeSeriesStore &ts = svc->sloEngine().store();
    ASSERT_FALSE(ts.empty());

    obs::Histogram qw = ts.histogramInRange(
        obs::labeledMetric("slo_queue_wait_seconds",
                           {{"tenant", "fast"}}),
        ts.firstWindow(), ts.lastWindow());
    EXPECT_GT(qw.count(), 0);

    // dram_wait shows up as greedy blaming itself in the windowed twin
    // of the blame matrix.
    double selfBlame = ts.counterInRange(
        obs::labeledMetric("slo_blame_seconds",
                           {{"culprit", "greedy"},
                            {"tenant", "greedy"}}),
        ts.firstWindow(), ts.lastWindow());
    EXPECT_GT(selfBlame, 0.0);
}

TEST_F(WaitLedgerTest, EmptyServiceRunExportsCleanly)
{
    obs::SimTracer::global().clear();
    obs::SimTracer::global().enable();

    ServiceConfig cfg;
    cfg.numDevices = 2;
    cfg.admissionLimit = 2;
    cfg.slo.windowSec = 0.05;
    TenantConfig a = tenant("a"), b = tenant("b");
    // Objectives make the engine list both tenants even though no
    // query ever arrives — the export must still show zero rollups.
    a.sloSec = b.sloSec = 1.0;
    cfg.tenants = {a, b};
    QueryService svc(cfg);
    installTables(svc);
    svc.drain(); // no submissions at all

    ServiceStats stats = svc.aggregate();
    EXPECT_EQ(stats.completed, 0);
    EXPECT_EQ(stats.shedTotal, 0);
    EXPECT_TRUE(stats.shedReasonCounts.empty());
    EXPECT_EQ(stats.waitLedger.total(), 0.0);
    ASSERT_EQ(stats.blame.n, 2);
    EXPECT_EQ(stats.blame.total(), 0.0);
    EXPECT_EQ(stats.blame.rowSum(0), 0.0);
    EXPECT_EQ(stats.blame.rowSum(1), 0.0);
    EXPECT_EQ(stats.contentionWaitSec, 0.0);

    // The SLO timeline must still be valid JSON with zero rollups.
    std::string slo = svc.sloEngine().jsonString();
    tools::JsonValue root;
    std::string error;
    ASSERT_TRUE(tools::parseJson(slo, &root, &error)) << error;
    const tools::JsonValue *tenants = root.find("tenants");
    ASSERT_NE(tenants, nullptr);
    EXPECT_EQ(tenants->array.size(), 2u);
    for (const tools::JsonValue &t : tenants->array) {
        const tools::JsonValue *windows = t.find("windows");
        ASSERT_NE(windows, nullptr);
        EXPECT_TRUE(windows->array.empty());
        const tools::JsonValue *totals = t.find("totals");
        ASSERT_NE(totals, nullptr);
        EXPECT_EQ(totals->find("completed")->number, 0.0);
    }
    const tools::JsonValue *alerts = root.find("alerts");
    ASSERT_NE(alerts, nullptr);
    EXPECT_TRUE(alerts->array.empty());

    // No queries ran, so the enabled tracer holds zero spans and its
    // export is still valid JSON.
    EXPECT_EQ(obs::SimTracer::global().eventCount(), 0u);
    std::string trace = obs::SimTracer::global().toJson();
    tools::JsonValue troot;
    EXPECT_TRUE(tools::parseJson(trace, &troot, &error)) << error;
}

} // namespace
} // namespace aquoman::service
