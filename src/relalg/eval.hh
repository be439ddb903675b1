/**
 * @file
 * Vectorised expression evaluation over materialised relations. This is
 * the semantic reference both execution paths share: the baseline engine
 * evaluates expressions with it directly, and the AQUOMAN Row
 * Transformer's PE programs are checked against it in tests.
 */

#ifndef AQUOMAN_RELALG_EVAL_HH
#define AQUOMAN_RELALG_EVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "columnstore/selection_vector.hh"
#include "common/bitvector.hh"
#include "relalg/expr.hh"
#include "relalg/reltable.hh"

namespace aquoman {

/**
 * Resolve the result type of @p e against @p input's schema.
 * Applies SQL-ish promotion: any Decimal operand makes arithmetic and
 * comparison decimal-scaled.
 */
ColumnType bindType(const ExprPtr &e, const RelTable &input);

/** Evaluate @p e over all rows of @p input into a column named @p name. */
RelColumn evalExpr(const ExprPtr &e, const RelTable &input,
                   const std::string &name = "expr");

/** Evaluate a boolean expression into a row-selection bit vector. */
BitVector evalPredicate(const ExprPtr &e, const RelTable &input);

/**
 * Evaluate @p e at @p n selected rows of @p input into a column of
 * length @p n. @p rows names the selected row ids; when nullptr the
 * selection is the dense range [first, first + n). The full dense
 * range delegates to evalExpr (zero-copy column references), so the
 * two entry points are bit-identical by construction.
 */
RelColumn evalExprSel(const ExprPtr &e, const RelTable &input,
                      const std::int64_t *rows, std::int64_t first,
                      std::int64_t n, const std::string &name = "expr");

/** Split the top-level AND tree of @p e into its conjuncts, in order. */
void splitAndConjuncts(const ExprPtr &e, std::vector<ExprPtr> &out);

/**
 * The Row Selector both engines filter through: shrink @p sel to the
 * rows of @p input passing @p pred, evaluating conjunct by conjunct so
 * later conjuncts only see survivors. The resulting selection is
 * exactly the ascending pass set evalPredicate would produce over the
 * rows @p sel selects, for any thread count.
 *
 * The batched path cuts @p sel into morsels of 16K positions and runs
 * them under parallelFor: each morsel AND-folds its cheap compiled
 * conjuncts word-wise while still dense, then applies the rest over
 * its shrinking survivors, and morsel survivor lists are concatenated
 * in order. AQUOMAN_BATCH=0 runs the serial reference path instead.
 * @p sel, not @p input, carries the row count, so a predicate with no
 * column references may be filtered over a column-less @p input.
 */
void filterSelection(const ExprPtr &pred, const RelTable &input,
                     SelectionVector &sel);

} // namespace aquoman

#endif // AQUOMAN_RELALG_EVAL_HH
