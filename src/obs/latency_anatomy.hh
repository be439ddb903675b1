/**
 * @file
 * Latency anatomy: the wait-state ledger, per-query critical path, and
 * the cross-tenant blame matrix.
 *
 * AQUOMAN's SLO engine (DESIGN.md §15) can say *that* a query was
 * slow; this header is the vocabulary for *why*. Every modelled second
 * between a query's submission and its completion is accounted into
 * exactly one of six exclusive wait classes:
 *
 *  - admission_queue: queued while every admission slot was taken.
 *  - dram_wait: queued with free slots, blocked by the tenant's own
 *    device-DRAM quota (the culprit is the tenant itself).
 *  - device_busy: admitted, with no subtask of this query in flight —
 *    another query's subtask held every device it was ready on.
 *  - device_exec: at least one of the query's subtasks executing
 *    (the union of in-flight intervals, so parallel per-device slices
 *    of one Table Task count wall-clock once).
 *  - suspend_host: the trailing host phase of a query that suspended
 *    (Sec. VI-E or an admission DRAM-reservation failure).
 *  - host_finish: the trailing host phase of a never-suspended query
 *    (residual stages + result DMA).
 *
 * Exact-ledger discipline, like StageSeconds and auditLedgers: the
 * fixed-order sum of the six slots equals (doneSec - submitSec)
 * **bitwise** for every completed query, and everything here is
 * modelled time, so the ledger is byte-identical across
 * AQUOMAN_THREADS and AQUOMAN_BATCH.
 *
 * Alongside the wall-exclusive ledger, contention is attributed to a
 * *culprit*: when a subtask completes, every query then pending on
 * that device charges the overlap of its pending interval with the
 * completed hold to the culprit's tenant (waiter-seconds — several
 * victims may blame the same hold, so rows are not bounded by wall
 * time). dram_wait charges the victim's own tenant. The per-(victim ×
 * culprit) totals form the BlameMatrix; a tenant's "total contention
 * wait" is by definition its row sum.
 *
 * WaitSegments record the same partition as timestamped intervals;
 * compressed (criticalPath), they are the chain of waits and
 * executions that bounds the query's completion time.
 */

#ifndef AQUOMAN_OBS_LATENCY_ANATOMY_HH
#define AQUOMAN_OBS_LATENCY_ANATOMY_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/profile.hh"

namespace aquoman::obs {

/**
 * The exclusive wait classes. Declaration order is load-bearing
 * twice over: WaitLedger::total() sums the slots in this order, and
 * the two host classes sit last so the service can absorb the
 * floating-point residual of the partition into the final (host)
 * slot without disturbing the earlier classes.
 */
enum class WaitClass
{
    AdmissionQueue,
    DramWait,
    DeviceBusy,
    DeviceExec,
    SuspendHost,
    HostFinish,
};

inline constexpr int kNumWaitClasses = 6;

/** Stable snake_case name ("admission_queue", ..., "host_finish"). */
const char *waitClassName(WaitClass c);

/**
 * Modelled seconds split over the wait classes. total() sums the
 * slots in fixed declaration order (deterministic association), the
 * same discipline as StageSeconds.
 */
struct WaitLedger
{
    double sec[kNumWaitClasses] = {};

    void
    add(WaitClass c, double t)
    {
        sec[static_cast<int>(c)] += t;
    }

    double at(WaitClass c) const { return sec[static_cast<int>(c)]; }

    /** Fixed-order sum of the six slots. */
    double total() const;

    /**
     * Dominant class: argmax over the slots, earliest slot wins ties
     * (deterministic). An all-zero ledger reports AdmissionQueue.
     */
    WaitClass dominant() const;

    WaitLedger &operator+=(const WaitLedger &o);

    /** {"admission_queue":...,...,"host_finish":...} (%.17g). */
    void toJson(std::ostream &os) const;
};

/**
 * Verify the exact-partition contract: ledger slots sum bitwise to
 * @p total_sec. Returns true when it holds; otherwise fills *error
 * (if non-null). Callers assert this under !NDEBUG builds.
 */
bool validateWaitPartition(const WaitLedger &w, double total_sec,
                           std::string *error);

/**
 * One timestamped interval of the per-query wait partition. `device`
 * is the device the interval ended on (-1 when not device-bound);
 * `detail` is a deterministic annotation (the Table-Task label for
 * device intervals, "host" for the trailing phase).
 */
struct WaitSegment
{
    WaitClass cls = WaitClass::AdmissionQueue;
    double startSec = 0.0;
    double endSec = 0.0;
    int device = -1;
    std::string detail;
};

/**
 * The per-query critical path: @p segments with zero-length intervals
 * dropped and adjacent segments of the same (class, device) merged.
 * The segments partition [submit, done], so the compressed chain IS
 * the sequence of waits and executions bounding completion time.
 * When @p profile is non-null, device_exec segments are annotated
 * with the profile's bottleneck pipeline stage.
 */
std::vector<WaitSegment> criticalPath(
    const std::vector<WaitSegment> &segments,
    const QueryProfile *profile = nullptr);

/**
 * Dense per-(victim-tenant x culprit-tenant) contention-seconds
 * matrix. Row = victim, column = culprit; rowSum(v) is tenant v's
 * total contention wait (fixed-order sum, so re-summing the rendered
 * cells reproduces it exactly).
 */
struct BlameMatrix
{
    int n = 0;
    std::vector<double> cells; ///< n*n, victim-major

    void resize(int tenants);

    void
    add(int victim, int culprit, double sec)
    {
        cells[static_cast<std::size_t>(victim * n + culprit)] += sec;
    }

    double
    at(int victim, int culprit) const
    {
        return cells[static_cast<std::size_t>(victim * n + culprit)];
    }

    /** Fixed-order sum over row @p victim. */
    double rowSum(int victim) const;

    /** Fixed-order sum over all cells (row-major). */
    double total() const;

    BlameMatrix &operator+=(const BlameMatrix &o);

    /** {"tenants":[...],"seconds":[[row0...],[row1...]]} (%.17g). */
    void toJson(std::ostream &os,
                const std::vector<std::string> &tenantNames) const;

    /** Aligned victim-rows x culprit-columns text table. */
    void renderText(std::ostream &os,
                    const std::vector<std::string> &tenantNames) const;
};

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_LATENCY_ANATOMY_HH
