/** @file
 * Workload-generator contract tests: drawn substitution parameters stay
 * inside the dbgen value domains for every (seed, query, instance);
 * identical seeds reproduce byte-identical parameter streams in any
 * generation order; instance 0 is pinned to the validation parameters;
 * generated instances execute end-to-end on the engine; and the arrival
 * processes / tenant-mix traces are deterministic, strictly ordered,
 * and hit their configured mean rates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/date.hh"
#include "engine/executor.hh"
#include "tpch/dbgen.hh"
#include "workload/arrivals.hh"
#include "workload/tenant_mix.hh"
#include "workload/tpch_params.hh"

namespace aquoman::workload {
namespace {

using tpch::TpchQueryParams;

/** Every field of a parameter set, rendered to one comparable string. */
std::string
fingerprint(const TpchQueryParams &p)
{
    std::ostringstream os;
    os << p.q1CutoffDate << '|' << p.q2Size << '|' << p.q2TypeSuffix
       << '|' << p.q2Region << '|' << p.q3Segment << '|' << p.q3Date
       << '|' << p.q4StartDate << '|' << p.q5Region << '|'
       << p.q5StartDate << '|' << p.q6StartDate << '|'
       << p.q6DiscountCents << '|' << p.q6Quantity << '|' << p.q7Nation1
       << '|' << p.q7Nation2 << '|' << p.q8Nation << '|' << p.q8Region
       << '|' << p.q8Type << '|' << p.q9Color << '|' << p.q10StartDate
       << '|' << p.q11Nation << '|' << p.q12Mode1 << '|' << p.q12Mode2
       << '|' << p.q12StartDate << '|' << p.q14StartDate << '|'
       << p.q15StartDate << '|' << p.q16Brand << '|' << p.q16TypePrefix;
    for (std::int64_t s : p.q16Sizes)
        os << ',' << s;
    os << '|' << p.q17Brand << '|' << p.q17Container << '|'
       << p.q18Quantity << '|' << p.q19Brand1 << '|' << p.q19Brand2
       << '|' << p.q19Brand3 << '|' << p.q19Qty1 << '|' << p.q19Qty2
       << '|' << p.q19Qty3 << '|' << p.q20Color << '|' << p.q20StartDate
       << '|' << p.q20Nation << '|' << p.q21Nation;
    for (std::int64_t c : p.q22Codes)
        os << ',' << c;
    return os.str();
}

TEST(TpchParams, InstanceZeroIsTheValidationParameters)
{
    for (int q = 1; q <= 22; ++q) {
        EXPECT_EQ(fingerprint(drawParams(1, q, 0)),
                  fingerprint(TpchQueryParams{}))
            << "q" << q;
        EXPECT_EQ(fingerprint(drawParams(999, q, 0)),
                  fingerprint(TpchQueryParams{}))
            << "q" << q;
    }
    EXPECT_EQ((QueryInstance{6, 0, {}}.name()), "q06");
    EXPECT_EQ((QueryInstance{6, 17, {}}.name()), "q06#17");
    EXPECT_EQ((QueryInstance{14, 3, {}}.name()), "q14#3");
}

TEST(TpchParams, DrawnParametersStayInDbgenDomains)
{
    // validateParams() fatal()s on the first out-of-domain value, so
    // surviving the sweep is the assertion.
    for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull})
        for (int q = 1; q <= 22; ++q)
            for (std::uint64_t i = 1; i <= 40; ++i)
                validateParams(q, drawParams(seed, q, i));
}

TEST(TpchParams, IdenticalSeedsYieldIdenticalStreams)
{
    TpchInstanceGenerator a(7, 0.01), b(7, 0.01);
    for (int q = 1; q <= 22; ++q) {
        for (std::uint64_t i = 1; i <= 10; ++i) {
            EXPECT_EQ(fingerprint(a.instance(q, i).params),
                      fingerprint(b.instance(q, i).params))
                << "q" << q << "#" << i;
        }
    }
    // Generation order is irrelevant: a fresh draw of an early index
    // after later ones is unchanged (independent sub-streams).
    std::string early = fingerprint(a.instance(6, 1).params);
    (void)a.instance(6, 1000);
    EXPECT_EQ(fingerprint(a.instance(6, 1).params), early);
}

TEST(TpchParams, DifferentSeedsAndIndicesDiverge)
{
    int seed_diffs = 0, index_diffs = 0;
    for (int q = 1; q <= 22; ++q) {
        if (q == 13) // q13 has no substitution parameters
            continue;
        for (std::uint64_t i = 1; i <= 5; ++i) {
            seed_diffs += fingerprint(drawParams(1, q, i))
                != fingerprint(drawParams(2, q, i));
            index_diffs += fingerprint(drawParams(1, q, i))
                != fingerprint(drawParams(1, q, i + 5));
        }
    }
    // Over 105 draws of multi-valued domains, collisions on every
    // draw would mean the seed / index is not reaching the stream.
    EXPECT_GT(seed_diffs, 50);
    EXPECT_GT(index_diffs, 50);
}

TEST(TpchParams, GeneratedInstancesExecuteOnTheEngine)
{
    tpch::TpchConfig cfg;
    cfg.scaleFactor = 0.01;
    tpch::TpchDatabase db = tpch::TpchDatabase::generate(cfg);
    Catalog catalog;
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        catalog.put(t, nullptr);
    db.registerMetadata(catalog);

    TpchInstanceGenerator gen(3, cfg.scaleFactor);
    for (int q : {3, 6, 12, 14}) {
        for (std::uint64_t i : {1ull, 2ull}) {
            QueryInstance inst = gen.instance(q, i);
            Executor ex(catalog);
            RelTable out = ex.run(gen.build(inst));
            EXPECT_GT(out.numColumns(), 0) << inst.name();
        }
    }
}

TEST(Arrivals, DeterministicStrictlyIncreasingWithinHorizon)
{
    for (ArrivalProcess p : {ArrivalProcess::Poisson, ArrivalProcess::OnOff,
                             ArrivalProcess::Diurnal}) {
        ArrivalConfig cfg;
        cfg.process = p;
        cfg.rateQps = 20.0;
        cfg.diurnalProfile = {0.5, 2.0, 1.0, 0.5};
        std::vector<double> a = generateArrivals(cfg, 11, 4, 50.0);
        std::vector<double> b = generateArrivals(cfg, 11, 4, 50.0);
        EXPECT_EQ(a, b) << arrivalProcessName(p);
        ASSERT_FALSE(a.empty()) << arrivalProcessName(p);
        EXPECT_GE(a.front(), 0.0);
        EXPECT_LT(a.back(), 50.0);
        for (std::size_t i = 1; i < a.size(); ++i)
            EXPECT_GT(a[i], a[i - 1]) << arrivalProcessName(p);
        // Different sub-streams give different sequences.
        EXPECT_NE(a, generateArrivals(cfg, 11, 5, 50.0))
            << arrivalProcessName(p);
    }
}

TEST(Arrivals, LongRunMeanMatchesConfiguredRate)
{
    // 20 qps over 200 s => 4000 expected; allow generous slack for the
    // bursty processes (all draws are deterministic, so this cannot
    // flake — the bounds just document the calibration). The on/off
    // cycle is shortened so ~80 burst cycles fit the horizon: the
    // long-run mean only concentrates once many cycles average out.
    for (ArrivalProcess p : {ArrivalProcess::Poisson, ArrivalProcess::OnOff,
                             ArrivalProcess::Diurnal}) {
        ArrivalConfig cfg;
        cfg.process = p;
        cfg.rateQps = 20.0;
        cfg.meanOnSec = 0.5;
        cfg.meanOffSec = 2.0;
        cfg.diurnalProfile = {0.2, 1.0, 2.0, 0.8};
        auto n = static_cast<double>(
            generateArrivals(cfg, 5, 1, 200.0).size());
        EXPECT_NEAR(n, 4000.0, 4000.0 * 0.25) << arrivalProcessName(p);
    }
}

TEST(TenantMix, TraceIsOrderedDistinctAndDeterministic)
{
    std::vector<TenantSpec> mix(2);
    mix[0].name = "a";
    mix[0].arrivals.rateQps = 30.0;
    mix[0].classes = {{6, 1.0}, {14, 2.0}};
    mix[1].name = "b";
    mix[1].arrivals.process = ArrivalProcess::OnOff;
    mix[1].arrivals.rateQps = 15.0;
    mix[1].classes = {{6, 1.0}, {1, 1.0}};

    std::vector<WorkloadEvent> trace = buildTrace(mix, 9, 40.0);
    ASSERT_GT(trace.size(), 100u);

    std::set<std::pair<int, std::uint64_t>> seen;
    std::set<int> tenants;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const WorkloadEvent &ev = trace[i];
        if (i > 0) {
            EXPECT_GE(ev.atSec, trace[i - 1].atSec) << "event " << i;
        }
        EXPECT_GE(ev.atSec, 0.0);
        EXPECT_LT(ev.atSec, 40.0);
        EXPECT_NE(ev.instance, 0u) << "instance 0 is reserved";
        // Every event is a distinct generated plan, even where the two
        // tenants share query class 6.
        EXPECT_TRUE(
            seen.emplace(ev.queryNumber, ev.instance).second)
            << "event " << i;
        tenants.insert(ev.tenant);
    }
    EXPECT_EQ(tenants.size(), 2u);

    // Byte-identical replay.
    std::vector<WorkloadEvent> again = buildTrace(mix, 9, 40.0);
    ASSERT_EQ(again.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(again[i].atSec, trace[i].atSec);
        EXPECT_EQ(again[i].tenant, trace[i].tenant);
        EXPECT_EQ(again[i].queryNumber, trace[i].queryNumber);
        EXPECT_EQ(again[i].instance, trace[i].instance);
    }
}

} // namespace
} // namespace aquoman::workload
