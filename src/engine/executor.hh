/**
 * @file
 * Column-at-a-time query executor over the flash-resident column store.
 * This is the software baseline (the paper's MonetDB role): it computes
 * exact query answers and collects machine-independent work metrics
 * which HostModel converts into runtimes for the S and L hosts.
 */

#ifndef AQUOMAN_ENGINE_EXECUTOR_HH
#define AQUOMAN_ENGINE_EXECUTOR_HH

#include <map>
#include <string>
#include <vector>

#include "columnstore/catalog.hh"
#include "engine/metrics.hh"
#include "obs/profile.hh"
#include "relalg/plan.hh"
#include "relalg/reltable.hh"

namespace aquoman {

/** Cost (abstract row-ops) of evaluating one expression node per row. */
double exprCost(const ExprPtr &e);

/**
 * Gather rows @p idx of @p t into a new relation. A negative index
 * emits a NULL row (used by outer joins).
 */
RelTable gatherRows(const RelTable &t, const std::vector<std::int64_t> &idx);

/** Executes Query stages against a Catalog. */
class Executor
{
  public:
    /**
     * @param cat database catalog
     * @param sw  flash controller switch; when non-null, base-table
     *            scans move real bytes through the host port
     */
    explicit Executor(const Catalog &cat, ControllerSwitch *sw = nullptr)
        : catalog(cat), flashSwitch(sw)
    {
    }

    /** Run all stages; returns the last stage's relation. */
    RelTable run(const Query &q);

    /**
     * Run a single plan tree against previously computed stage results.
     */
    RelTable runPlan(const PlanPtr &plan,
                     const std::map<std::string, RelTable> &stages);

    /** Work metrics accumulated since construction (or clearMetrics). */
    const EngineMetrics &metrics() const { return trace; }
    void clearMetrics() { trace = EngineMetrics{}; }

    /**
     * Name this executor's simulation-trace track ("host:<label>").
     * While the tracer is enabled, every plan node then emits one span
     * on the modelled operator timeline (cumulative abstract row-ops at
     * the host's nominal per-thread rate — never wall clock, so spans
     * are identical for every AQUOMAN_THREADS). Empty label (the
     * default) keeps the executor un-traced.
     */
    void
    setTraceLabel(const std::string &label)
    {
        traceLabel = label;
        traceTrack = -1;
    }

    /**
     * Collect per-operator profile nodes into @p sink: each top-level
     * runPlan() appends one "host-op" subtree (rows in/out plus the
     * modelled row-op cost) as a child of @p sink; pass nullptr to
     * stop. The sink must outlive every run routed through this
     * executor.
     */
    void setProfileSink(obs::ProfileNode *sink) { profileSink = sink; }

  private:
    RelTable execNode(const PlanPtr &p,
                      const std::map<std::string, RelTable> &stages);
    RelTable execNodeDispatch(const PlanPtr &p,
                              const std::map<std::string, RelTable> &stages);

    RelTable execScan(const Plan &p,
                      const std::map<std::string, RelTable> &stages);
    RelTable execFilter(const Plan &p, const RelTable &in);
    RelTable execProject(const Plan &p, const RelTable &in);
    RelTable execJoin(const Plan &p, const RelTable &left,
                      const RelTable &right);
    RelTable execGroupBy(const Plan &p, const RelTable &in);
    RelTable execOrderBy(const Plan &p, const RelTable &in);

    /**
     * Track intermediate memory with MonetDB-like charges: @p out_bytes
     * is the operator's materialised footprint (candidate lists for
     * filters, computed BATs for projects, RowID pair lists for joins),
     * not the logical relation width.
     */
    void accountIntermediate(std::int64_t out_bytes,
                             std::int64_t child_bytes);

    const Catalog &catalog;
    ControllerSwitch *flashSwitch;
    EngineMetrics trace;

    std::string traceLabel;
    int traceTrack = -1;

    obs::ProfileNode *profileSink = nullptr;
    /** Node the currently executing operator reports into. */
    obs::ProfileNode *profileCur = nullptr;
};

} // namespace aquoman

#endif // AQUOMAN_ENGINE_EXECUTOR_HH
