#include "engine/executor.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "columnstore/selection_vector.hh"
#include "common/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "relalg/eval.hh"

namespace aquoman {

namespace {

/**
 * Rows per morsel for the parallel operator paths. Inputs at or below
 * one morsel run inline on the calling thread (parallelFor's serial
 * fast path), so small relations pay no scheduling overhead.
 */
constexpr std::int64_t kMorselRows = 16384;

/** Append the hashable encoding of one value to @p key. */
void
appendKeyValue(std::string &key, const RelColumn &c, std::int64_t row)
{
    if (c.type == ColumnType::Varchar) {
        auto s = c.str(row);
        key.append(s.data(), s.size());
        key.push_back('\0');
    } else {
        std::int64_t v = c.get(row);
        key.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }
}

/** Build the composite key string for @p row over @p cols. */
std::string
makeKey(const RelTable &t, const std::vector<int> &cols, std::int64_t row)
{
    std::string key;
    for (int c : cols)
        appendKeyValue(key, t.col(c), row);
    return key;
}

std::vector<int>
resolveColumns(const RelTable &t, const std::vector<std::string> &names)
{
    std::vector<int> out;
    for (const auto &n : names)
        out.push_back(t.indexOf(n));
    return out;
}

/**
 * Fixed-width composite key over up to four non-varchar columns. Key
 * equality matches the string encoding exactly (raw int64 values), so
 * hash containers group identical row sets in identical insertion
 * order — results are bit-identical to the string-keyed path, minus
 * the per-row string allocation.
 */
struct IntKey
{
    std::array<std::int64_t, 4> v;
    std::uint32_t n;

    bool
    operator==(const IntKey &o) const
    {
        return n == o.n && std::equal(v.begin(), v.begin() + n,
                                      o.v.begin());
    }
};

struct IntKeyHash
{
    std::size_t
    operator()(const IntKey &k) const
    {
        std::uint64_t h = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t i = 0; i < k.n; ++i) {
            std::uint64_t x = static_cast<std::uint64_t>(k.v[i]) + h;
            x ^= x >> 33;
            x *= 0xff51afd7ed558ccdull;
            x ^= x >> 33;
            h = x;
        }
        return static_cast<std::size_t>(h);
    }
};

/** Can rows of @p cols be keyed by raw int64 values? */
bool
intKeyable(const RelTable &t, const std::vector<int> &cols)
{
    if (cols.size() > 4)
        return false;
    for (int c : cols) {
        if (t.col(c).type == ColumnType::Varchar)
            return false;
    }
    return true;
}

IntKey
makeIntKey(const RelTable &t, const std::vector<int> &cols,
           std::int64_t row)
{
    IntKey k;
    k.n = static_cast<std::uint32_t>(cols.size());
    for (std::uint32_t c = 0; c < k.n; ++c)
        k.v[c] = t.col(cols[c]).get(row);
    return k;
}

/**
 * Hash-join candidate enumeration, generic over the key type. Builds
 * on the right side in row order, probes the left in morsels; each
 * morsel's matches land in a local pair list and concatenation in
 * morsel order reproduces the serial probe order exactly (equal_range
 * iteration order is a property of the table, not the prober).
 */
template <typename Key, typename Hash, typename MakeKeyFn>
void
hashJoinCandidates(const RelTable &left, const std::vector<int> &lk,
                   const RelTable &right, const std::vector<int> &rk,
                   MakeKeyFn make_key, std::vector<std::int64_t> &li,
                   std::vector<std::int64_t> &ri)
{
    std::unordered_multimap<Key, std::int64_t, Hash> ht;
    ht.reserve(right.numRows() * 2);
    for (std::int64_t j = 0; j < right.numRows(); ++j)
        ht.emplace(make_key(right, rk, j), j);
    auto morsels = ThreadPool::splitRange(0, left.numRows(), kMorselRows);
    std::vector<std::vector<std::int64_t>> lloc(morsels.size());
    std::vector<std::vector<std::int64_t>> rloc(morsels.size());
    parallelFor(0, static_cast<std::int64_t>(morsels.size()), 1,
                [&](std::int64_t m0, std::int64_t m1) {
        for (std::int64_t m = m0; m < m1; ++m) {
            auto [b, e] = morsels[m];
            for (std::int64_t i = b; i < e; ++i) {
                auto [lo, hi] = ht.equal_range(make_key(left, lk, i));
                for (auto it = lo; it != hi; ++it) {
                    lloc[m].push_back(i);
                    rloc[m].push_back(it->second);
                }
            }
        }
    });
    for (std::size_t m = 0; m < morsels.size(); ++m) {
        li.insert(li.end(), lloc[m].begin(), lloc[m].end());
        ri.insert(ri.end(), rloc[m].begin(), rloc[m].end());
    }
}

/** Three-way compare of two rows on one column (NULL sorts first). */
int
compareValues(const RelColumn &c, std::int64_t a, std::int64_t b)
{
    if (c.type == ColumnType::Varchar) {
        int r = c.str(a).compare(c.str(b));
        return r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
    std::int64_t x = c.get(a), y = c.get(b);
    return x < y ? -1 : (x > y ? 1 : 0);
}

} // namespace

double
exprCost(const ExprPtr &e)
{
    if (!e)
        return 0.0;
    double cost = 1.0;
    if (e->kind == ExprKind::Like)
        cost = 8.0; // string scan per row
    for (const auto &c : e->children)
        cost += exprCost(c);
    return cost;
}

RelTable
gatherRows(const RelTable &t, const std::vector<std::int64_t> &idx)
{
    std::int64_t n = static_cast<std::int64_t>(idx.size());
    RelTable out;
    for (int c = 0; c < t.numColumns(); ++c) {
        const RelColumn &src = t.col(c);
        RelColumn dst(src.name, src.type);
        dst.heap = src.heap;
        dst.vals->resize(n);
        std::vector<std::int64_t> &vals = *dst.vals;
        // Morsels write disjoint ranges of the preallocated vector, so
        // the gather is bit-identical for any thread count.
        parallelFor(0, n, kMorselRows,
                    [&](std::int64_t k0, std::int64_t k1) {
            for (std::int64_t k = k0; k < k1; ++k) {
                std::int64_t i = idx[k];
                vals[k] = i < 0 ? kNullValue : src.get(i);
            }
        });
        out.addColumn(std::move(dst));
    }
    return out;
}

RelTable
Executor::run(const Query &q)
{
    std::map<std::string, RelTable> stages;
    RelTable last;
    for (const auto &s : q.stages) {
        last = runPlan(s.plan, stages);
        stages[s.id] = last;
    }
    return last;
}

RelTable
Executor::runPlan(const PlanPtr &plan,
                  const std::map<std::string, RelTable> &stages)
{
    return execNode(plan, stages);
}

namespace {

/** Human-readable label for one plan node's trace span. */
std::string
planNodeName(const Plan &p)
{
    switch (p.kind) {
      case PlanKind::Scan:
        return p.scanStage.empty() ? "scan " + p.scanTable
                                   : "scan stage " + p.scanStage;
      case PlanKind::Filter:
        return "filter";
      case PlanKind::Project:
        return "project";
      case PlanKind::Join:
        return "join";
      case PlanKind::GroupBy:
        return "groupby";
      case PlanKind::OrderBy:
        return "orderby";
    }
    return "?";
}

/**
 * Rate converting the executor's abstract row-ops into the modelled
 * operator timeline (HostConfig's nominal per-thread rate). The trace
 * axis is modelled work, never wall clock.
 */
constexpr double kTraceOpsPerSec = 125e6;

} // namespace

RelTable
Executor::execNode(const PlanPtr &p,
                   const std::map<std::string, RelTable> &stages)
{
    obs::SimTracer &tracer = obs::SimTracer::global();
    bool tracing = !traceLabel.empty() && tracer.enabled();
    bool profiling = profileSink != nullptr;
    if (!tracing && !profiling)
        return execNodeDispatch(p, stages);
    if (tracing && traceTrack < 0)
        traceTrack = tracer.track("host:" + traceLabel, "operators");
    obs::ProfileNode *parent = profileCur;
    obs::ProfileNode local;
    if (profiling)
        profileCur = &local; // children report into this node
    double ops_before = trace.rowOps;
    RelTable out = execNodeDispatch(p, stages);
    double ops = trace.rowOps - ops_before;
    if (tracing) {
        // Children ran inside the dispatch, so their spans nest within
        // this one on the shared cumulative row-ops axis.
        tracer.span(traceTrack, planNodeName(*p), "operator",
                    ops_before / kTraceOpsPerSec,
                    trace.rowOps / kTraceOpsPerSec,
                    {obs::arg("rows", out.numRows()),
                     obs::arg("row_ops", ops)});
    }
    if (profiling) {
        profileCur = parent;
        local.name = planNodeName(*p);
        local.kind = "host-op";
        local.rowsOut = out.numRows();
        // Unary/n-ary operators consume their children's outputs;
        // scans have no relational input (rowsIn stays -1).
        std::int64_t rows_in = -1;
        for (const obs::ProfileNode &c : local.children)
            rows_in = rows_in < 0 ? c.rowsOut : rows_in + c.rowsOut;
        local.rowsIn = rows_in;
        // Abstract row-op cost only: host modelled seconds live in the
        // query's host-phase node, never per operator, so profile
        // stage-seconds keep summing exactly to the modelled totals.
        local.detail = "row_ops=" + obs::jsonNumber(ops);
        (parent ? *parent : *profileSink)
            .children.push_back(std::move(local));
    }
    return out;
}

RelTable
Executor::execNodeDispatch(const PlanPtr &p,
                           const std::map<std::string, RelTable> &stages)
{
    switch (p->kind) {
      case PlanKind::Scan:
        return execScan(*p, stages);
      case PlanKind::Filter: {
        // MonetDB filters produce candidate lists (8B per surviving
        // row), not materialised copies.
        RelTable in = execNode(p->children[0], stages);
        RelTable out = execFilter(*p, in);
        accountIntermediate(out.numRows() * 8, in.numRows() * 8);
        return out;
      }
      case PlanKind::Project: {
        // Only computed expressions materialise new BATs; column
        // pass-throughs are views.
        RelTable in = execNode(p->children[0], stages);
        RelTable out = execProject(*p, in);
        std::int64_t computed = 0;
        for (const auto &ne : p->projections)
            computed += ne.expr->kind != ExprKind::ColRef;
        accountIntermediate(out.numRows() * 8 * computed,
                            in.numRows() * 8);
        return out;
      }
      case PlanKind::Join: {
        // Joins materialise <leftRowId, rightRowId> pair lists.
        RelTable l = execNode(p->children[0], stages);
        RelTable r = execNode(p->children[1], stages);
        RelTable out = execJoin(*p, l, r);
        accountIntermediate(out.numRows() * 16,
                            (l.numRows() + r.numRows()) * 8);
        return out;
      }
      case PlanKind::GroupBy: {
        RelTable in = execNode(p->children[0], stages);
        RelTable out = execGroupBy(*p, in);
        accountIntermediate(out.residentBytes(), in.numRows() * 8);
        return out;
      }
      case PlanKind::OrderBy: {
        // Sorting materialises an order-index permutation.
        RelTable in = execNode(p->children[0], stages);
        RelTable out = execOrderBy(*p, in);
        accountIntermediate(in.numRows() * 8, in.numRows() * 8);
        return out;
      }
    }
    panic("unknown plan node");
}

RelTable
Executor::execScan(const Plan &p,
                   const std::map<std::string, RelTable> &stages)
{
    if (!p.scanStage.empty()) {
        auto it = stages.find(p.scanStage);
        if (it == stages.end())
            fatal("unknown stage '", p.scanStage, "'");
        return it->second;
    }
    const CatalogEntry &entry = catalog.get(p.scanTable);
    const Table &t = *entry.table;
    std::vector<std::string> wanted = p.scanColumns;
    if (wanted.empty()) {
        for (int i = 0; i < t.numColumns(); ++i)
            wanted.push_back(t.col(i).name());
    }
    // Materialise columns concurrently (per-column flash reads and
    // decode), then account metrics serially in column order so the
    // trace matches the serial engine bit for bit.
    std::vector<RelColumn> cols(wanted.size());
    TaskGroup group;
    for (std::size_t w = 0; w < wanted.size(); ++w) {
        group.run([&, w] {
            const std::string &name = wanted[w];
            int ci = t.indexOf(name);
            const Column &c = t.col(ci);
            std::string out_name = p.scanAlias.empty()
                ? name : p.scanAlias + "." + name;
            RelColumn rc(out_name, c.type());
            if (flashSwitch && entry.resident) {
                entry.resident->readColumnRange(*flashSwitch,
                                                FlashPort::Host, ci, 0,
                                                c.size(), *rc.vals);
            } else {
                *rc.vals = c.data();
            }
            if (c.type() == ColumnType::Varchar)
                rc.heap = t.stringsPtr();
            cols[w] = std::move(rc);
        });
    }
    group.wait();
    RelTable out;
    for (std::size_t w = 0; w < wanted.size(); ++w) {
        const std::string &name = wanted[w];
        const Column &c = t.col(t.indexOf(name));
        if (flashSwitch) {
            trace.flashBytesRead += c.storedBytes();
            // Without a resident handle the bytes do not physically
            // round-trip (the service's sharded catalogs compute on
            // in-memory columns), but the host-port ledger still
            // records the modelled stream so contention is observable.
            if (!entry.resident)
                flashSwitch->accountRead(FlashPort::Host,
                                         c.storedBytes());
        }
        trace.touchedBaseBytes += c.storedBytes();
        if (c.type() == ColumnType::Varchar) {
            std::int64_t hb = columnHeapBytes(entry, name);
            if (flashSwitch) {
                trace.flashBytesRead += hb;
                if (!entry.resident)
                    flashSwitch->accountRead(FlashPort::Host, hb);
            }
            trace.touchedBaseBytes += hb;
        }
        trace.rowOps += c.size() * 0.25; // mmap-style decode
        out.addColumn(std::move(cols[w]));
    }
    return out;
}

RelTable
Executor::execFilter(const Plan &p, const RelTable &in)
{
    trace.rowOps += in.numRows() * (1.0 + exprCost(p.predicate));
    SelectionVector sel = SelectionVector::dense(in.numRows());
    filterSelection(p.predicate, in, sel);
    if (sel.isDense() && sel.size() == in.numRows())
        return in; // all rows pass: share columns, materialize nothing
    return gatherRows(in, sel.toIndices());
}

RelTable
Executor::execProject(const Plan &p, const RelTable &in)
{
    // Projections are independent: evaluate them as a task group, then
    // assemble columns and merge per-task metrics in projection order
    // (the same order the serial loop accumulated them).
    std::vector<RelColumn> cols(p.projections.size());
    TaskGroup group;
    for (std::size_t i = 0; i < p.projections.size(); ++i) {
        group.run([&, i] {
            cols[i] = evalExpr(p.projections[i].expr, in,
                               p.projections[i].name);
            cols[i].name = p.projections[i].name;
        });
    }
    group.wait();
    RelTable out;
    for (std::size_t i = 0; i < p.projections.size(); ++i) {
        trace.rowOps += in.numRows() * exprCost(p.projections[i].expr);
        out.addColumn(std::move(cols[i]));
    }
    return out;
}

RelTable
Executor::execJoin(const Plan &p, const RelTable &left,
                   const RelTable &right)
{
    AQ_ASSERT(p.leftKeys.size() == p.rightKeys.size());
    std::vector<int> lk = resolveColumns(left, p.leftKeys);
    std::vector<int> rk = resolveColumns(right, p.rightKeys);

    // Candidate pairs from the equi-keys (or the full cross product
    // when keyless, used only for scalar broadcasts).
    std::vector<std::int64_t> li, ri;
    if (lk.empty()) {
        for (std::int64_t i = 0; i < left.numRows(); ++i) {
            for (std::int64_t j = 0; j < right.numRows(); ++j) {
                li.push_back(i);
                ri.push_back(j);
            }
        }
        trace.rowOps += static_cast<double>(left.numRows())
            * right.numRows();
    } else {
        trace.rowOps += right.numRows() * 4.0;
        if (intKeyable(left, lk) && intKeyable(right, rk)) {
            // All-integer keys: fixed-width composites skip the
            // per-row key-string allocation.
            hashJoinCandidates<IntKey, IntKeyHash>(
                left, lk, right, rk, makeIntKey, li, ri);
        } else {
            hashJoinCandidates<std::string, std::hash<std::string>>(
                left, lk, right, rk, makeKey, li, ri);
        }
        trace.rowOps += left.numRows() * 4.0 + li.size() * 2.0;
    }

    // Apply the residual predicate over the combined candidate rows.
    std::vector<char> pass(li.size(), 1);
    if (p.residual) {
        std::vector<std::string> need;
        collectColumns(p.residual, need);
        // Gather only the columns the residual references (names are
        // disjoint across sides), at the candidate pairs.
        std::int64_t pairs = static_cast<std::int64_t>(li.size());
        RelTable combined;
        for (const auto &cname : need) {
            bool from_left = left.hasColumn(cname);
            const RelColumn &src = from_left ? left.col(cname)
                                             : right.col(cname);
            const std::vector<std::int64_t> &idx = from_left ? li : ri;
            RelColumn cc(cname, src.type);
            cc.heap = src.heap;
            cc.vals->resize(pairs);
            std::vector<std::int64_t> &vals = *cc.vals;
            parallelFor(0, pairs, kMorselRows,
                        [&](std::int64_t k0, std::int64_t k1) {
                for (std::int64_t k = k0; k < k1; ++k) {
                    std::int64_t i = idx[k];
                    vals[k] = i < 0 ? kNullValue : src.get(i);
                }
            });
            combined.addColumn(std::move(cc));
        }
        if (need.empty()) {
            // Constant residual: a placeholder column gives the
            // column-less view one row per candidate pair.
            RelColumn placeholder("__pairs", ColumnType::Int64);
            placeholder.vals->assign(pairs, 0);
            combined.addColumn(std::move(placeholder));
        }
        BitVector mask = evalPredicate(p.residual, combined);
        trace.rowOps += li.size() * exprCost(p.residual);
        for (std::size_t k = 0; k < li.size(); ++k)
            pass[k] = mask.get(k);
    }

    std::vector<std::int64_t> out_l, out_r;
    switch (p.joinType) {
      case JoinType::Inner: {
        for (std::size_t k = 0; k < li.size(); ++k) {
            if (pass[k]) {
                out_l.push_back(li[k]);
                out_r.push_back(ri[k]);
            }
        }
        break;
      }
      case JoinType::LeftSemi:
      case JoinType::LeftAnti: {
        std::vector<char> matched(left.numRows(), 0);
        for (std::size_t k = 0; k < li.size(); ++k)
            if (pass[k])
                matched[li[k]] = 1;
        bool want = p.joinType == JoinType::LeftSemi;
        for (std::int64_t i = 0; i < left.numRows(); ++i)
            if (static_cast<bool>(matched[i]) == want)
                out_l.push_back(i);
        break;
      }
      case JoinType::LeftOuter: {
        std::vector<char> matched(left.numRows(), 0);
        for (std::size_t k = 0; k < li.size(); ++k) {
            if (pass[k]) {
                matched[li[k]] = 1;
                out_l.push_back(li[k]);
                out_r.push_back(ri[k]);
            }
        }
        for (std::int64_t i = 0; i < left.numRows(); ++i) {
            if (!matched[i]) {
                out_l.push_back(i);
                out_r.push_back(-1); // NULL right side
            }
        }
        break;
      }
    }

    RelTable lg = gatherRows(left, out_l);
    if (p.joinType == JoinType::LeftSemi || p.joinType == JoinType::LeftAnti)
        return lg;
    RelTable rg = gatherRows(right, out_r);
    RelTable out;
    for (int c = 0; c < lg.numColumns(); ++c)
        out.addColumn(lg.col(c));
    for (int c = 0; c < rg.numColumns(); ++c)
        out.addColumn(rg.col(c));
    return out;
}

RelTable
Executor::execGroupBy(const Plan &p, const RelTable &in)
{
    std::vector<int> gcols = resolveColumns(in, p.groupColumns);

    // Evaluate aggregate inputs once, vectorised.
    std::vector<RelColumn> agg_in;
    for (const auto &a : p.aggregates) {
        agg_in.push_back(a.input ? evalExpr(a.input, in)
                                 : RelColumn("one", ColumnType::Int64));
        if (!a.input)
            agg_in.back().vals->assign(in.numRows(), 1);
        trace.rowOps += in.numRows() * (a.input ? exprCost(a.input) : 0.5);
    }

    std::size_t nagg = p.aggregates.size();

    // SQL: a global aggregate over an empty input yields one row
    // (NULL for Sum/Min/Max/Avg, 0 for Count).
    bool empty_global = p.groupColumns.empty() && in.numRows() == 0;

    // Group ids in row order; first-seen order defines the output
    // order, so both key representations yield identical results.
    std::vector<std::int64_t> first_rows;
    if (empty_global)
        first_rows.push_back(-1);
    std::vector<int> gidx(in.numRows());
    // Grouping only needs key EQUALITY, and heap interning gives every
    // distinct string one canonical offset — so varchar group columns
    // can be keyed by their raw offset values too.
    if (gcols.size() <= 4) {
        std::unordered_map<IntKey, int, IntKeyHash> index;
        index.reserve(in.numRows());
        for (std::int64_t i = 0; i < in.numRows(); ++i) {
            auto [it, fresh] = index.emplace(
                makeIntKey(in, gcols, i),
                static_cast<int>(first_rows.size()));
            if (fresh)
                first_rows.push_back(i);
            gidx[i] = it->second;
        }
    } else {
        std::unordered_map<std::string, int> index;
        index.reserve(in.numRows());
        for (std::int64_t i = 0; i < in.numRows(); ++i) {
            auto [it, fresh] = index.emplace(
                makeKey(in, gcols, i),
                static_cast<int>(first_rows.size()));
            if (fresh)
                first_rows.push_back(i);
            gidx[i] = it->second;
        }
    }
    std::int64_t num_groups =
        static_cast<std::int64_t>(first_rows.size());

    // Accumulate one aggregate at a time into flat per-group arrays.
    // Each group still sees its rows in ascending row order, so every
    // accumulator value matches the row-at-a-time formulation exactly.
    std::vector<std::int64_t> accum(nagg * num_groups, 0);
    std::vector<std::int64_t> counts(nagg * num_groups, 0);
    std::vector<std::vector<std::unordered_set<std::int64_t>>>
        distinct(nagg);
    std::int64_t nrows = in.numRows();
    for (std::size_t a = 0; a < nagg; ++a) {
        std::int64_t *acc = accum.data() + a * num_groups;
        std::int64_t *cnt = counts.data() + a * num_groups;
        const std::vector<std::int64_t> &av = *agg_in[a].vals;
        switch (p.aggregates[a].kind) {
          case AggKind::Sum:
          case AggKind::Avg:
            for (std::int64_t i = 0; i < nrows; ++i) {
                std::int64_t v = av[i];
                if (v == kNullValue)
                    continue;
                cnt[gidx[i]]++;
                acc[gidx[i]] += v;
            }
            break;
          case AggKind::Min:
            std::fill(acc, acc + num_groups,
                      std::numeric_limits<std::int64_t>::max());
            for (std::int64_t i = 0; i < nrows; ++i) {
                std::int64_t v = av[i];
                if (v == kNullValue)
                    continue;
                cnt[gidx[i]]++;
                acc[gidx[i]] = std::min(acc[gidx[i]], v);
            }
            break;
          case AggKind::Max:
            std::fill(acc, acc + num_groups,
                      std::numeric_limits<std::int64_t>::min());
            for (std::int64_t i = 0; i < nrows; ++i) {
                std::int64_t v = av[i];
                if (v == kNullValue)
                    continue;
                cnt[gidx[i]]++;
                acc[gidx[i]] = std::max(acc[gidx[i]], v);
            }
            break;
          case AggKind::Count:
            for (std::int64_t i = 0; i < nrows; ++i) {
                if (av[i] != kNullValue)
                    cnt[gidx[i]]++;
            }
            break;
          case AggKind::CountDistinct:
            distinct[a].resize(num_groups);
            for (std::int64_t i = 0; i < nrows; ++i) {
                std::int64_t v = av[i];
                if (v == kNullValue)
                    continue;
                cnt[gidx[i]]++;
                distinct[a][gidx[i]].insert(v);
            }
            break;
        }
        if (empty_global)
            acc[0] = kNullValue;
    }
    double group_cost = in.numRows() * (4.0 + nagg);
    trace.rowOps += group_cost;
    // Aggregations over huge group domains (orderkey, partkey, custkey
    // granularity) run effectively single-threaded in MonetDB: the
    // shared hash table defeats its per-column parallelism. This is
    // the behaviour AQUOMAN exploits on q17/q18 (Sec. VIII-B: "the
    // part that is off-loaded happens to execute sequentially on the
    // host, effectively using only one hardware thread").
    if (num_groups > 1024 && num_groups > in.numRows() / 50)
        trace.seqRowOps += group_cost * 0.9;

    RelTable out;
    for (int gc : gcols) {
        const RelColumn &src = in.col(gc);
        RelColumn dst(src.name, src.type);
        dst.heap = src.heap;
        for (std::int64_t g = 0; g < num_groups; ++g)
            dst.vals->push_back(src.get(first_rows[g]));
        out.addColumn(std::move(dst));
    }
    for (std::size_t a = 0; a < nagg; ++a) {
        const AggSpec &spec = p.aggregates[a];
        ColumnType in_type = spec.input ? agg_in[a].type : ColumnType::Int64;
        ColumnType out_type = in_type;
        if (spec.kind == AggKind::Count
                || spec.kind == AggKind::CountDistinct) {
            out_type = ColumnType::Int64;
        } else if (spec.kind == AggKind::Avg) {
            out_type = ColumnType::Decimal;
        }
        const std::int64_t *acc = accum.data() + a * num_groups;
        const std::int64_t *cnt = counts.data() + a * num_groups;
        RelColumn dst(spec.name, out_type);
        for (std::int64_t g = 0; g < num_groups; ++g) {
            std::int64_t v = 0;
            switch (spec.kind) {
              case AggKind::Sum:
                v = acc[g];
                break;
              case AggKind::Min:
              case AggKind::Max:
                v = cnt[g] ? acc[g] : kNullValue;
                break;
              case AggKind::Count:
                v = cnt[g];
                break;
              case AggKind::CountDistinct:
                v = static_cast<std::int64_t>(distinct[a][g].size());
                break;
              case AggKind::Avg: {
                std::int64_t sum = acc[g];
                if (in_type != ColumnType::Decimal)
                    sum *= kDecimalScale;
                v = cnt[g] ? sum / cnt[g] : kNullValue;
                break;
              }
            }
            dst.vals->push_back(v);
        }
        out.addColumn(std::move(dst));
    }
    return out;
}

RelTable
Executor::execOrderBy(const Plan &p, const RelTable &in)
{
    std::vector<int> keys;
    for (const auto &k : p.sortKeys)
        keys.push_back(in.indexOf(k.column));
    std::vector<std::int64_t> idx(in.numRows());
    for (std::int64_t i = 0; i < in.numRows(); ++i)
        idx[i] = i;
    if (intKeyable(in, keys)) {
        // All-integer sort keys: compare raw values without the
        // per-key column-type dispatch.
        std::vector<const std::int64_t *> kv;
        std::vector<bool> desc;
        for (std::size_t k = 0; k < keys.size(); ++k) {
            kv.push_back(in.col(keys[k]).vals->data());
            desc.push_back(p.sortKeys[k].descending);
        }
        std::stable_sort(idx.begin(), idx.end(),
            [&](std::int64_t a, std::int64_t b) {
                for (std::size_t k = 0; k < kv.size(); ++k) {
                    std::int64_t x = kv[k][a], y = kv[k][b];
                    if (x != y)
                        return desc[k] ? x > y : x < y;
                }
                return false;
            });
    } else {
        std::stable_sort(idx.begin(), idx.end(),
            [&](std::int64_t a, std::int64_t b) {
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    int c = compareValues(in.col(keys[k]), a, b);
                    if (c != 0)
                        return p.sortKeys[k].descending ? c > 0 : c < 0;
                }
                return false;
            });
    }
    double n = static_cast<double>(std::max<std::int64_t>(in.numRows(), 1));
    double sort_ops = n * std::log2(n + 1) * 3.0;
    trace.rowOps += sort_ops;
    trace.seqRowOps += sort_ops * 0.3; // merge phases parallelise poorly
    if (p.limit >= 0 && static_cast<std::int64_t>(idx.size()) > p.limit)
        idx.resize(p.limit);
    return gatherRows(in, idx);
}

void
Executor::accountIntermediate(std::int64_t out_bytes,
                              std::int64_t child_bytes)
{
    trace.totalIntermediateBytes += out_bytes;
    trace.peakIntermediateBytes = std::max(trace.peakIntermediateBytes,
                                           child_bytes + out_bytes);
}

} // namespace aquoman
