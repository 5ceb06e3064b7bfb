#ifndef PHOENIX_ENGINE_PLANNER_H_
#define PHOENIX_ENGINE_PLANNER_H_

#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"
#include "sql/ast.h"
#include "storage/table_store.h"

namespace phoenix::eng {

/// How the executor will read one table.
enum class AccessKind : uint8_t {
  kSeqScan,     ///< full heap scan in RowId order
  kIndexEq,     ///< probe an ordered index with an equality key prefix
  kIndexRange,  ///< range-scan an ordered index (bounds may be open)
};

/// How one joined table is matched against the rows accumulated so far.
enum class JoinStrategy : uint8_t { kHash, kIndexNestedLoop, kCross };

/// The chosen way to read one base table. `eq` holds the row-invariant
/// expressions bound to the leading index key columns; `lo`/`hi` optionally
/// bound the next key column. All pointers borrow from the statement being
/// planned — a plan never outlives its statement. Every conjunct the bounds
/// came from is still re-applied to the scanned rows, so a plan can only
/// over-enumerate, never produce wrong results.
struct AccessPath {
  AccessKind kind = AccessKind::kSeqScan;
  std::string index;  ///< "PRIMARY" or a secondary index name; "" for seq
  std::vector<int> key_columns;
  std::vector<const sql::Expr*> eq;  ///< one per leading key column
  const sql::Expr* lo = nullptr;     ///< bound on key column eq.size()
  bool lo_inclusive = false;
  const sql::Expr* hi = nullptr;
  bool hi_inclusive = false;
  double est_rows = 0;
};

/// The chosen strategy for one table beyond the first.
struct JoinPlan {
  JoinStrategy strategy = JoinStrategy::kHash;
  bool left = false;  ///< LEFT OUTER join (never index-nested-loop)
  std::string table;  ///< binding name, for display
  std::string index;  ///< probe index when kIndexNestedLoop
  double est_rows = 0;  ///< estimated working-set size after this join
};

/// The full access-path plan for one SELECT. Computed once, up front, from
/// table statistics (row count + distinct-key sketch per index) — the same
/// object drives both execution and EXPLAIN, so the two can never drift.
struct SelectPlan {
  bool enabled = true;       ///< false = planner off, everything seq-scans
  std::string base_table;    ///< binding of from[0]; "" when FROM is empty
  AccessPath base;
  std::vector<JoinPlan> joins;  ///< one per from[1..]
  /// Base index enumeration order already satisfies ORDER BY, so the
  /// executor may skip its sort. Only ever set for single-table selects.
  bool order_by_index = false;
  bool order_reverse = false;  ///< ORDER BY ... DESC — enumerate backwards

  /// Human-readable plan, one line per row of the EXPLAIN result set.
  std::vector<std::string> Describe() const;
};

/// Plans how to read one table: collects the `col OP <row-invariant>`
/// bounds among `conjuncts` (columns resolve against `t` under the binding
/// name `binding`) and picks the cheapest access path. PlanSelect uses it
/// for its base table; UPDATE, DELETE and their EXPLAIN use it for their
/// target table. Disabled, or below the small-table guard, it is a seq scan.
AccessPath PlanTableAccess(const storage::Table& t, const std::string& binding,
                           const std::vector<const sql::Expr*>& conjuncts,
                           bool enabled);

/// Plans `sel` against the current catalog. Missing tables yield a trivial
/// plan (the executor reports the error). With `enabled` false the plan is
/// all seq scans and hash joins — the pre-planner behavior.
SelectPlan PlanSelect(const sql::SelectStmt& sel,
                      const storage::TableStore& store, bool enabled);

/// Evaluated key bounds for one index probe.
struct IndexBounds {
  Row eq;  ///< leading equality prefix
  const Value* lo = nullptr;  ///< bound on key column eq.size()
  bool lo_inclusive = false;
  const Value* hi = nullptr;
  bool hi_inclusive = false;
};

/// Appends the RowIds matching `bounds` in index-key order (ties in RowId
/// order). Comparison semantics are Value::Compare — identical to the
/// executor's `=`/`<`/`>` — so enumeration agrees with filtering.
void ScanIndex(const storage::SecondaryIndex& idx, const IndexBounds& bounds,
               std::vector<storage::RowId>* out);
/// Same walk over any key→rid-set map in index shape. Used by snapshot
/// scans to probe an index's `dead_entries` (keys of superseded versions)
/// and a table's dead-PK map alongside the live entries.
void ScanEntryMap(
    const std::map<Row, std::set<storage::RowId>, storage::RowLess>& entries,
    const IndexBounds& bounds, std::vector<storage::RowId>* out);
/// Same over the table's unique PK index.
void ScanPkIndex(const storage::Table& table, const IndexBounds& bounds,
                 std::vector<storage::RowId>* out);

/// Cost decision for joining `rhs` via an equality on its column `rhs_col`,
/// shared by PlanSelect and any caller that re-derives join columns.
JoinPlan ChooseJoinStrategy(double est_outer, const storage::Table& rhs,
                            int rhs_col, bool enabled);

// ---- Predicate helpers shared with the executor ------------------------
/// Splits an expression into AND-conjuncts.
void SplitConjuncts(const sql::Expr* e, std::vector<const sql::Expr*>* out);
/// True if `e` references no columns, parameters, or aggregates — its value
/// is the same for every row and can be folded (or used as an index bound).
bool IsRowInvariant(const sql::Expr& e);
/// True if every column reference in `e` resolves against (schema, quals).
bool Resolvable(const sql::Expr& e, const Schema& schema,
                const std::vector<std::string>& quals);

}  // namespace phoenix::eng

#endif  // PHOENIX_ENGINE_PLANNER_H_
