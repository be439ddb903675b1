/**
 * @file
 * Reproduces Figure 16 of the paper on TPC-H:
 *  (a) per-query runtime for the five systems S, L, S-AQUOMAN,
 *      L-AQUOMAN and S-AQUOMAN16 (Table VI);
 *  (b) maximum / average memory of L vs L-AQUOMAN (x86 + device DRAM);
 *  (c) fraction of runtime on AQUOMAN and x86 CPU-cycle saving.
 *
 * Queries execute functionally at the bench scale factor (AQUOMAN_SF);
 * machine-independent traces are extrapolated to the paper's SF-1000
 * operating point before the system models price them, so shapes are
 * comparable with the published figure.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "aquoman/query_profile.hh"
#include "bench_util.hh"
#include "columnstore/encoding.hh"
#include "common/compress_mode.hh"
#include "common/thread_pool.hh"

using namespace aquoman;
using namespace aquoman::bench;

namespace {

struct QueryRow
{
    int q;
    double runS, runL, runSAq, runLAq, runSAq16;
    double maxMemL, maxMemLAq, devMemLAq;
    double avgMemL, avgMemLAq;
    double fracOnDevice, cpuSaving;
    double queueWait, suspendCount, hostFinishBytes;
    double flashBytes, zoneConsidered, zoneSkipped;
    OffloadClass cls;
    double wallSeconds; ///< real time of this query's functional runs
    obs::QueryProfile profile; ///< L-AQUOMAN cost attribution
};

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == flag)
            return true;
    return false;
}

std::string
flagValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == flag) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a path\n", flag);
                std::exit(2);
            }
            return argv[i + 1];
        }
    }
    return std::string();
}

/**
 * Per-table, per-column compression report: the codec mix the page
 * encoder chose, logical vs encoded bytes, and the resulting ratio.
 * Written as deterministic JSON for the CI artifact.
 */
bool
writeCompressionReport(const std::string &path, const Catalog &cat)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    f << "{\n  \"compression_enabled\": "
      << (compressionEnabled() ? "true" : "false")
      << ",\n  \"tables\": [\n";
    bool first_table = true;
    std::int64_t total_logical = 0, total_encoded = 0;
    for (const auto &[name, entry] : cat.all()) {
        if (!entry.resident)
            continue;
        f << (first_table ? "" : ",\n") << "    {\"table\": \"" << name
          << "\", \"columns\": [\n";
        first_table = false;
        const Table &t = *entry.table;
        for (int c = 0; c < t.numColumns(); ++c) {
            const Column &col = t.col(c);
            std::int64_t logical =
                t.numRows() * columnTypeWidth(col.type());
            const ColumnLayoutMeta *enc =
                entry.resident->encodingMeta(c);
            std::int64_t encoded = enc ? enc->encodedBytes : logical;
            total_logical += logical;
            total_encoded += encoded;
            // Dominant codec over the column's pages (raw layout when
            // the column is stored unencoded).
            std::string codec = "raw";
            if (enc) {
                std::int64_t counts[4] = {};
                for (const PageBlockMeta &p : enc->pages)
                    ++counts[static_cast<int>(p.codec)];
                int best = 0;
                for (int k = 1; k < 4; ++k)
                    if (counts[k] > counts[best])
                        best = k;
                codec = columnCodecName(
                    static_cast<ColumnCodec>(best));
            }
            double ratio = encoded > 0
                ? static_cast<double>(logical) / encoded : 1.0;
            f << "      {\"column\": \"" << col.name()
              << "\", \"codec\": \"" << codec
              << "\", \"logical_bytes\": " << logical
              << ", \"encoded_bytes\": " << encoded
              << ", \"pages\": " << (enc ? enc->numPages() : 0)
              << ", \"ratio\": " << obs::jsonNumber(ratio) << "}"
              << (c + 1 < t.numColumns() ? "," : "") << "\n";
        }
        f << "    ]}";
    }
    double total_ratio = total_encoded > 0
        ? static_cast<double>(total_logical) / total_encoded : 1.0;
    f << "\n  ],\n  \"total_logical_bytes\": " << total_logical
      << ",\n  \"total_encoded_bytes\": " << total_encoded
      << ",\n  \"total_ratio\": " << obs::jsonNumber(total_ratio)
      << "\n}\n";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = jsonPathFromArgs(argc, argv);
    double sf = scaleFactor();
    Fixture fx(sf);
    header("Fig 16: TPC-H SF-1000 AQUOMAN performance profiling "
           "(functional runs at SF " + std::to_string(sf) + ")");

    HostModel hostS(HostConfig::small());
    HostModel hostL(HostConfig::large());

    // Queries are independent: run them across the shared pool, each
    // writing its own row. Modelled numbers are bit-identical to the
    // serial loop; only wall-clock changes.
    std::vector<int> queries = tpch::allQueryNumbers();
    std::vector<QueryRow> rows(queries.size());
    double gb = 1024.0 * 1024.0 * 1024.0;
    WallTimer bench_timer;
    parallelFor(0, static_cast<std::int64_t>(queries.size()), 1,
                [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
        int q = queries[i];
        WallTimer query_timer;
        EngineMetrics base = scaleMetrics(fx.baselineMetrics(q), sf);
        // Per-configuration trace labels keep every run on its own
        // simulation-trace track when AQUOMAN_TRACE is set.
        AquomanConfig cfg40 = fx.scaledDevice(40ll << 30);
        cfg40.traceLabel = "q" + std::to_string(q) + " dram40";
        AquomanConfig cfg16 = fx.scaledDevice(16ll << 30);
        cfg16.traceLabel = "q" + std::to_string(q) + " dram16";
        OffloadedQueryResult off40 = fx.offload(q, cfg40);
        AquomanRunStats aq40 = scaleStats(off40.stats, sf);
        AquomanRunStats aq16 = scaleStats(fx.offload(q, cfg16).stats, sf);

        SystemEvaluation evS40 = evaluateOffload(base, aq40, hostS);
        SystemEvaluation evL40 = evaluateOffload(base, aq40, hostL);
        SystemEvaluation evS16 = evaluateOffload(base, aq16, hostS);

        QueryRow &r = rows[i];
        r.q = q;
        r.runS = hostS.estimate(base).runtime;
        r.runL = hostL.estimate(base).runtime;
        r.runSAq = evS40.offloadRuntime;
        r.runLAq = evL40.offloadRuntime;
        r.runSAq16 = evS16.offloadRuntime;
        r.maxMemL = hostL.estimate(base).maxRss / gb;
        r.maxMemLAq = evL40.hostMaxRss / gb;
        r.devMemLAq = evL40.deviceDramPeak / gb;
        r.avgMemL = hostL.estimate(base).avgRss / gb;
        r.avgMemLAq = evL40.hostAvgRss / gb;
        r.fracOnDevice = evL40.offloadFraction;
        r.cpuSaving = evL40.cpuSaving;
        r.queueWait = aq40.hostResidual.queueWaitSec;
        r.suspendCount =
            static_cast<double>(aq40.hostResidual.suspendCount);
        r.hostFinishBytes =
            static_cast<double>(aq40.hostResidual.hostFinishBytes);
        r.flashBytes = static_cast<double>(aq40.deviceFlashBytes);
        r.zoneConsidered =
            static_cast<double>(aq40.zonePagesConsidered);
        r.zoneSkipped = static_cast<double>(aq40.zonePagesSkipped);
        r.cls = evL40.offloadClass;

        // Cost-attribution tree: host phase split exactly the way
        // evaluateOffload prices it (residual estimate + result DMA),
        // so the tree's pre-order seconds reproduce the modelled
        // L-AQUOMAN device + host total bitwise.
        HostRunEstimate resL = hostL.estimate(aq40.hostResidual);
        HostPhaseProfile hp;
        hp.hostSeconds = resL.runtime;
        hp.dmaSeconds = static_cast<double>(aq40.dmaBytes)
            / hostL.cfg().storageReadBandwidth;
        hp.dmaBytes = aq40.dmaBytes;
        hp.hostBytes = std::max<std::int64_t>(
            0, aq40.hostResidual.hostFinishBytes - aq40.dmaBytes);
        r.profile = buildQueryProfile(
            "q" + std::to_string(q), off40.compilation, aq40, hp,
            offloadClassName(evL40.offloadClass));
#ifndef NDEBUG
        {
            obs::LedgerAudit audit;
            for (const TableTaskRecord &t : aq40.tasks) {
                audit.taskSeconds.push_back(t.seconds);
                audit.taskFlashBytes.push_back(t.flashBytes);
            }
            audit.deviceSeconds = aq40.deviceSeconds;
            audit.deviceFlashBytes = aq40.deviceFlashBytes;
            std::string err;
            if (!obs::auditLedgers(audit, &err)) {
                std::fprintf(stderr,
                             "ledger audit failed for q%d: %s\n", q,
                             err.c_str());
                std::abort();
            }
        }
#endif
        r.wallSeconds = query_timer.seconds();
    }
    });
    double bench_wall = bench_timer.seconds();

    header("Fig 16(a): run time (seconds, modelled at SF-1000)");
    StatTable tbl_a(5, {{"S", 9, 1},
                        {"L", 9, 1},
                        {"S-AQUOMAN", 11, 1},
                        {"L-AQUOMAN", 11, 1},
                        {"S-AQUOMAN16", 11, 1}});
    tbl_a.printHeader("query");
    double sum_s = 0, sum_l = 0, sum_saq = 0, sum_laq = 0, sum_saq16 = 0;
    for (const auto &r : rows) {
        tbl_a.printRow("q" + std::to_string(r.q),
                       {r.runS, r.runL, r.runSAq, r.runLAq, r.runSAq16});
        sum_s += r.runS;
        sum_l += r.runL;
        sum_saq += r.runSAq;
        sum_laq += r.runLAq;
        sum_saq16 += r.runSAq16;
    }
    tbl_a.printRow("Total", {sum_s, sum_l, sum_saq, sum_laq, sum_saq16});
    std::printf("\npaper shape checks: L/S speedup = %.2fx "
                "(paper ~1.6x); S-AQUOMAN16/L = %.2fx (paper ~1.0x)\n",
                sum_s / sum_l, sum_saq16 / sum_l);

    header("Fig 16(b): memory footprint (GB, system L)");
    StatTable tbl_b(5, {{"L maxRSS", 10, 1},
                        {"L-AQ maxRSS", 12, 1},
                        {"L-AQ devDRAM", 13, 1},
                        {"L avgRSS", 10, 1},
                        {"L-AQ avgRSS", 12, 1}});
    tbl_b.printHeader("query");
    double max_dev = 0, sum_avg_l = 0, sum_avg_laq = 0;
    for (const auto &r : rows) {
        tbl_b.printRow("q" + std::to_string(r.q),
                       {r.maxMemL, r.maxMemLAq, r.devMemLAq, r.avgMemL,
                        r.avgMemLAq});
        max_dev = std::max(max_dev, r.devMemLAq);
        sum_avg_l += r.avgMemL;
        sum_avg_laq += r.avgMemLAq;
    }
    std::printf("\npaper shape checks: max AQUOMAN DRAM = %.1fGB "
                "(paper 40GB); avg x86 RSS saving = %.0f%% "
                "(paper ~60%%, ~3x reduction)\n",
                max_dev, 100.0 * (1.0 - sum_avg_laq / sum_avg_l));

    header("Fig 16(c): % runtime on AQUOMAN and x86 CPU-cycle saving "
           "(system L)");
    StatTable tbl_c(5, {{"run time %", 14, 1}, {"cpu saving %", 14, 1}},
                    9);
    tbl_c.printHeader("query", "class");
    double sum_saving = 0;
    for (const auto &r : rows) {
        tbl_c.printRow("q" + std::to_string(r.q),
                       {100.0 * r.fracOnDevice, 100.0 * r.cpuSaving},
                       offloadClassName(r.cls));
        sum_saving += r.cpuSaving;
    }
    std::printf("\npaper shape check: average CPU saving = %.0f%% "
                "(paper ~71%%)\n",
                100.0 * sum_saving / rows.size());

    std::printf("\nbench wall-clock: %.2fs for %zu queries on %d "
                "thread(s)\n", bench_wall, rows.size(),
                ThreadPool::global().parallelism());

    if (hasFlag(argc, argv, "--explain")) {
        header("EXPLAIN ANALYZE: L-AQUOMAN (40GB device DRAM, modelled "
               "at SF-1000)");
        for (const auto &r : rows)
            std::printf("\n%s", r.profile.textString().c_str());
    }

    if (!json_path.empty()) {
        std::vector<JsonRecord> records;
        for (const auto &r : rows) {
            JsonRecord rec;
            rec.add("query", r.q);
            rec.add("wall_seconds", r.wallSeconds);
            rec.add("modelled_s_seconds", r.runS);
            rec.add("modelled_l_seconds", r.runL);
            rec.add("modelled_s_aquoman_seconds", r.runSAq);
            rec.add("modelled_l_aquoman_seconds", r.runLAq);
            rec.add("modelled_s_aquoman16_seconds", r.runSAq16);
            rec.add("frac_runtime_on_device", r.fracOnDevice);
            rec.add("cpu_saving", r.cpuSaving);
            rec.add("queue_wait_seconds", r.queueWait);
            rec.add("suspend_count", r.suspendCount);
            rec.add("host_finish_bytes", r.hostFinishBytes);
            rec.add("flash_bytes", r.flashBytes);
            rec.add("zone_pages_considered", r.zoneConsidered);
            rec.add("zone_pages_skipped", r.zoneSkipped);
            rec.addRaw("profile", r.profile.jsonString());
            records.push_back(std::move(rec));
        }
        // Latency distributions over the 22 queries (modelled seconds;
        // deterministic, so p50/p90/p99 are stable across runs).
        obs::Histogram lat_hist, queue_hist, wall_hist;
        for (const auto &r : rows) {
            lat_hist.record(r.runLAq);
            queue_hist.record(r.queueWait);
            wall_hist.record(r.wallSeconds);
        }
        if (writeJsonReport(json_path, records,
                            {{"query_latency_seconds", lat_hist},
                             {"queue_wait_seconds", queue_hist},
                             {"wall_seconds", wall_hist}}))
            std::printf("wrote %s\n", json_path.c_str());
        else
            return 1;
    }

    std::string report_path =
        flagValue(argc, argv, "--compression-report");
    if (!report_path.empty()) {
        if (!writeCompressionReport(report_path, fx.catalog))
            return 1;
        std::printf("wrote %s\n", report_path.c_str());
    }
    return 0;
}
