#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "engine/expression.h"

namespace phoenix::eng {

using sql::BinOp;
using sql::Expr;
using sql::ExprKind;

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

bool IsRowInvariant(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef || e.kind == ExprKind::kParam ||
      e.kind == ExprKind::kStar) {
    return false;
  }
  if (e.kind == ExprKind::kFunction) {
    // ROWCOUNT() is session state, but still row-invariant; aggregates are
    // handled elsewhere and never appear in WHERE conjuncts.
    if (e.func_name == "COUNT" || e.func_name == "SUM" ||
        e.func_name == "AVG" || e.func_name == "MIN" ||
        e.func_name == "MAX") {
      return false;
    }
  }
  if (e.left && !IsRowInvariant(*e.left)) return false;
  if (e.right && !IsRowInvariant(*e.right)) return false;
  if (e.extra && !IsRowInvariant(*e.extra)) return false;
  for (const auto& a : e.args) {
    if (!IsRowInvariant(*a)) return false;
  }
  return true;
}

bool Resolvable(const Expr& e, const Schema& schema,
                const std::vector<std::string>& quals) {
  if (e.kind == ExprKind::kColumnRef) {
    auto r = ResolveColumn(schema, &quals, e.table_qualifier, e.column);
    return r.ok();
  }
  if (e.left && !Resolvable(*e.left, schema, quals)) return false;
  if (e.right && !Resolvable(*e.right, schema, quals)) return false;
  if (e.extra && !Resolvable(*e.extra, schema, quals)) return false;
  for (const auto& a : e.args) {
    if (!Resolvable(*a, schema, quals)) return false;
  }
  return true;
}

namespace {

/// Scans below this many rows are cheaper than deciding how to scan them.
constexpr size_t kSmallTable = 8;
/// Per-row cost of an index probe (Find + re-filter) relative to one step
/// of a sequential scan.
constexpr double kIndexRowCost = 2.0;

/// Compares the leading prefix.size() values of an index key. RowLess sorts
/// shorter rows before their extensions, so a negative result also covers
/// short keys.
int ComparePrefix(const Row& key, const Row& prefix) {
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (i >= key.size()) return -1;
    int c = key[i].Compare(prefix[i]);
    if (c != 0) return c;
  }
  return 0;
}

/// Walks an ordered map keyed by Row through `bounds`, invoking emit on each
/// matching mapped value. Shared by the secondary-index and PK scans.
template <typename Map, typename Emit>
void ScanOrderedMap(const Map& map, const IndexBounds& b, Emit emit) {
  Row start = b.eq;
  if (b.lo != nullptr) start.push_back(*b.lo);
  for (auto it = map.lower_bound(start); it != map.end(); ++it) {
    const Row& key = it->first;
    if (ComparePrefix(key, b.eq) != 0) break;
    if (key.size() > b.eq.size()) {
      const Value& v = key[b.eq.size()];
      if (b.lo != nullptr && !b.lo_inclusive && v.Compare(*b.lo) == 0) {
        continue;
      }
      if (b.hi != nullptr) {
        int c = v.Compare(*b.hi);
        if (c > 0 || (c == 0 && !b.hi_inclusive)) break;
      }
    }
    emit(it->second);
  }
}

/// A column's usable bounds, collected from the conjunct pool.
struct ColumnBounds {
  const Expr* eq = nullptr;
  const Expr* lo = nullptr;
  bool lo_inclusive = false;
  const Expr* hi = nullptr;
  bool hi_inclusive = false;
};

/// Collects `col OP <row-invariant>` bounds per base-table column. Params
/// are excluded by IsRowInvariant — their values are not known at plan time.
std::map<int, ColumnBounds> CollectBounds(
    const std::vector<const Expr*>& conjuncts, const Schema& schema,
    const std::vector<std::string>& quals) {
  std::map<int, ColumnBounds> bounds;
  auto col_of = [&](const Expr& e) -> int {
    if (e.kind != ExprKind::kColumnRef) return -1;
    auto r = ResolveColumn(schema, &quals, e.table_qualifier, e.column);
    return r.ok() ? r.value() : -1;
  };
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBetween && !c->negated) {
      int col = col_of(*c->left);
      if (col < 0 || !IsRowInvariant(*c->right) || !IsRowInvariant(*c->extra)) {
        continue;
      }
      ColumnBounds& b = bounds[col];
      if (b.lo == nullptr) { b.lo = c->right.get(); b.lo_inclusive = true; }
      if (b.hi == nullptr) { b.hi = c->extra.get(); b.hi_inclusive = true; }
      continue;
    }
    if (c->kind != ExprKind::kBinary) continue;
    BinOp op = c->bin_op;
    if (op != BinOp::kEq && op != BinOp::kLt && op != BinOp::kLe &&
        op != BinOp::kGt && op != BinOp::kGe) {
      continue;
    }
    const Expr* value = nullptr;
    int col = col_of(*c->left);
    if (col >= 0 && IsRowInvariant(*c->right)) {
      value = c->right.get();
    } else {
      col = col_of(*c->right);
      if (col < 0 || !IsRowInvariant(*c->left)) continue;
      value = c->left.get();
      // value OP col reads as col (flipped OP) value.
      switch (op) {
        case BinOp::kLt: op = BinOp::kGt; break;
        case BinOp::kLe: op = BinOp::kGe; break;
        case BinOp::kGt: op = BinOp::kLt; break;
        case BinOp::kGe: op = BinOp::kLe; break;
        default: break;
      }
    }
    ColumnBounds& b = bounds[col];
    switch (op) {
      case BinOp::kEq:
        if (b.eq == nullptr) b.eq = value;
        break;
      case BinOp::kLt:
      case BinOp::kLe:
        if (b.hi == nullptr) {
          b.hi = value;
          b.hi_inclusive = op == BinOp::kLe;
        }
        break;
      case BinOp::kGt:
      case BinOp::kGe:
        if (b.lo == nullptr) {
          b.lo = value;
          b.lo_inclusive = op == BinOp::kGe;
        }
        break;
      default:
        break;
    }
  }
  return bounds;
}

/// Picks the cheapest access path for one table given the collected bounds.
/// Cost model: a seq scan costs n; an index scan costs log2(n) to seek plus
/// kIndexRowCost per estimated row (Find + re-filter). Selectivity comes
/// from the distinct-key count of the index (the PK is perfectly selective
/// by construction); ranges are guessed at n/4 (closed) or n/2 (half-open).
AccessPath ChooseAccessPath(const storage::Table& t,
                            const std::map<int, ColumnBounds>& bounds,
                            bool enabled) {
  double n = static_cast<double>(t.num_rows());
  AccessPath seq;
  seq.est_rows = n;
  if (!enabled || t.num_rows() < kSmallTable || bounds.empty()) return seq;

  AccessPath best = seq;
  double best_cost = n;
  auto consider = [&](const std::string& name, const std::vector<int>& cols,
                      double distinct) {
    AccessPath p;
    p.index = name;
    p.key_columns = cols;
    size_t k = 0;
    for (; k < cols.size(); ++k) {
      auto it = bounds.find(cols[k]);
      if (it == bounds.end() || it->second.eq == nullptr) break;
      p.eq.push_back(it->second.eq);
    }
    double est;
    if (k > 0) {
      p.kind = AccessKind::kIndexEq;
      est = n / std::max(1.0, distinct);
      if (k < cols.size()) {
        // Partial prefix: the distinct count covers the full key, so the
        // prefix is less selective than n/distinct suggests.
        est = std::max(est, n / 4.0);
        auto it = bounds.find(cols[k]);
        if (it != bounds.end() &&
            (it->second.lo != nullptr || it->second.hi != nullptr)) {
          p.lo = it->second.lo;
          p.lo_inclusive = it->second.lo_inclusive;
          p.hi = it->second.hi;
          p.hi_inclusive = it->second.hi_inclusive;
          est = std::max(1.0, est / 2.0);
        }
      }
    } else {
      auto it = bounds.find(cols[0]);
      if (it == bounds.end()) return;
      const ColumnBounds& b = it->second;
      if (b.lo == nullptr && b.hi == nullptr) return;
      p.kind = AccessKind::kIndexRange;
      p.lo = b.lo;
      p.lo_inclusive = b.lo_inclusive;
      p.hi = b.hi;
      p.hi_inclusive = b.hi_inclusive;
      est = (b.lo != nullptr && b.hi != nullptr) ? n / 4.0 : n / 2.0;
    }
    if (est < 1.0) est = 1.0;
    double cost = std::log2(n + 1.0) + kIndexRowCost * est;
    if (cost < best_cost) {
      p.est_rows = est;
      best_cost = cost;
      best = std::move(p);
    }
  };
  if (!t.pk_columns().empty()) {
    consider("PRIMARY", t.pk_columns(), n);
  }
  for (const storage::SecondaryIndex& idx : t.indexes()) {
    consider(idx.name, idx.columns, static_cast<double>(idx.entries.size()));
  }
  return best;
}

/// True when every ORDER BY item is a bare column reference matching
/// `cols[start..]` in sequence and all items share one direction.
bool OrderMatchesIndex(const sql::SelectStmt& sel, const Schema& schema,
                       const std::vector<std::string>& quals,
                       const std::vector<int>& cols, size_t start,
                       bool* desc) {
  if (sel.order_by.empty()) return false;
  if (start > cols.size() || sel.order_by.size() > cols.size() - start) {
    return false;
  }
  for (size_t i = 0; i < sel.order_by.size(); ++i) {
    const sql::OrderItem& oi = sel.order_by[i];
    if (oi.desc != sel.order_by[0].desc) return false;
    if (oi.expr->kind != ExprKind::kColumnRef) return false;
    auto r = ResolveColumn(schema, &quals, oi.expr->table_qualifier,
                           oi.expr->column);
    if (!r.ok() || r.value() != cols[start + i]) return false;
  }
  *desc = sel.order_by[0].desc;
  return true;
}

}  // namespace

void ScanIndex(const storage::SecondaryIndex& idx, const IndexBounds& bounds,
               std::vector<storage::RowId>* out) {
  ScanEntryMap(idx.entries, bounds, out);
}

void ScanEntryMap(
    const std::map<Row, std::set<storage::RowId>, storage::RowLess>& entries,
    const IndexBounds& bounds, std::vector<storage::RowId>* out) {
  ScanOrderedMap(entries, bounds,
                 [out](const std::set<storage::RowId>& rids) {
                   out->insert(out->end(), rids.begin(), rids.end());
                 });
}

void ScanPkIndex(const storage::Table& table, const IndexBounds& bounds,
                 std::vector<storage::RowId>* out) {
  ScanOrderedMap(table.pk_index(), bounds,
                 [out](storage::RowId rid) { out->push_back(rid); });
}

JoinPlan ChooseJoinStrategy(double est_outer, const storage::Table& rhs,
                            int rhs_col, bool enabled) {
  JoinPlan jp;
  jp.strategy = JoinStrategy::kHash;
  double n = static_cast<double>(rhs.num_rows());
  jp.est_rows = std::max(est_outer, 1.0);
  if (!enabled || rhs.num_rows() < kSmallTable) return jp;

  double hash_cost = n + est_outer;
  double best_cost = hash_cost;
  auto consider = [&](const std::string& name, double per_probe) {
    per_probe = std::max(per_probe, 1.0);
    double cost =
        est_outer * (std::log2(n + 1.0) + kIndexRowCost * per_probe);
    if (cost < best_cost) {
      best_cost = cost;
      jp.strategy = JoinStrategy::kIndexNestedLoop;
      jp.index = name;
      jp.est_rows = std::max(est_outer * per_probe, 1.0);
    }
  };
  if (!rhs.pk_columns().empty() && rhs.pk_columns()[0] == rhs_col) {
    consider("PRIMARY", rhs.pk_columns().size() == 1 ? 1.0 : n / 4.0);
  }
  for (const storage::SecondaryIndex& idx : rhs.indexes()) {
    if (!idx.columns.empty() && idx.columns[0] == rhs_col) {
      consider(idx.name, n / std::max(1.0, double(idx.entries.size())));
    }
  }
  return jp;
}

AccessPath PlanTableAccess(const storage::Table& t, const std::string& binding,
                           const std::vector<const Expr*>& conjuncts,
                           bool enabled) {
  std::vector<std::string> quals(t.schema().num_columns(), binding);
  return ChooseAccessPath(t, CollectBounds(conjuncts, t.schema(), quals),
                          enabled);
}

SelectPlan PlanSelect(const sql::SelectStmt& sel,
                      const storage::TableStore& store, bool enabled) {
  SelectPlan plan;
  plan.enabled = enabled;
  if (sel.from.empty()) return plan;

  std::vector<const storage::Table*> tables;
  for (const sql::TableRef& ref : sel.from) {
    const storage::Table* t = store.Get(ref.name);
    if (t == nullptr) return plan;  // executor reports the missing table
    tables.push_back(t);
  }
  plan.base_table = sel.from[0].BindingName();

  // The same conjunct pool the executor gathers: WHERE plus inner-join ON.
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(sel.where.get(), &conjuncts);
  std::map<int, const sql::JoinSpec*> left_spec_of;
  for (const sql::JoinSpec& j : sel.joins) {
    if (j.left) {
      left_spec_of[j.table_index] = &j;
    } else {
      SplitConjuncts(j.on.get(), &conjuncts);
    }
  }

  plan.base = PlanTableAccess(*tables[0], plan.base_table, conjuncts, enabled);
  const Schema& base_schema = tables[0]->schema();
  std::vector<std::string> base_quals(base_schema.num_columns(),
                                      plan.base_table);

  // ORDER BY satisfaction (single-table only; join output interleaves).
  if (tables.size() == 1 && enabled) {
    bool desc = false;
    if (plan.base.kind != AccessKind::kSeqScan) {
      // Order within an eq prefix is governed by the key columns after it.
      if (OrderMatchesIndex(sel, base_schema, base_quals,
                            plan.base.key_columns, plan.base.eq.size(),
                            &desc)) {
        plan.order_by_index = true;
        plan.order_reverse = desc;
      }
    } else if (!sel.order_by.empty()) {
      // No filtering index won — a full index scan can still replace the
      // sort when ORDER BY matches an index prefix from its first column.
      auto try_order = [&](const std::string& name,
                           const std::vector<int>& cols) {
        if (plan.order_by_index) return;
        if (OrderMatchesIndex(sel, base_schema, base_quals, cols, 0, &desc)) {
          plan.base.kind = AccessKind::kIndexRange;
          plan.base.index = name;
          plan.base.key_columns = cols;
          plan.base.est_rows = static_cast<double>(tables[0]->num_rows());
          plan.order_by_index = true;
          plan.order_reverse = desc;
        }
      };
      if (tables[0]->num_rows() >= kSmallTable) {
        if (!tables[0]->pk_columns().empty()) {
          try_order("PRIMARY", tables[0]->pk_columns());
        }
        for (const storage::SecondaryIndex& idx : tables[0]->indexes()) {
          try_order(idx.name, idx.columns);
        }
      }
    }
  }

  // Join strategies, re-deriving the executor's equi-pair detection.
  Schema cur_schema = base_schema;
  std::vector<std::string> cur_quals = base_quals;
  double est = plan.base.est_rows;
  for (size_t ti = 1; ti < tables.size(); ++ti) {
    JoinPlan jp;
    jp.table = sel.from[ti].BindingName();
    jp.left = left_spec_of.count(static_cast<int>(ti)) > 0;
    Schema rhs_schema;
    std::vector<std::string> rhs_quals;
    for (const Column& c : tables[ti]->schema().columns()) {
      rhs_schema.AddColumn(c);
      rhs_quals.push_back(jp.table);
    }
    std::vector<const Expr*> join_pool;
    if (jp.left) {
      SplitConjuncts(left_spec_of[static_cast<int>(ti)]->on.get(), &join_pool);
    } else {
      join_pool = conjuncts;
    }
    int rhs_col = -1;
    for (const Expr* c : join_pool) {
      if (c->kind != ExprKind::kBinary || c->bin_op != BinOp::kEq) continue;
      if (c->left->kind != ExprKind::kColumnRef ||
          c->right->kind != ExprKind::kColumnRef) {
        continue;
      }
      auto lc = ResolveColumn(cur_schema, &cur_quals,
                              c->left->table_qualifier, c->left->column);
      auto lr = ResolveColumn(rhs_schema, &rhs_quals,
                              c->left->table_qualifier, c->left->column);
      auto rc = ResolveColumn(cur_schema, &cur_quals,
                              c->right->table_qualifier, c->right->column);
      auto rr = ResolveColumn(rhs_schema, &rhs_quals,
                              c->right->table_qualifier, c->right->column);
      if (lc.ok() && !lr.ok() && rr.ok() && !rc.ok()) {
        rhs_col = rr.value();
        break;
      }
      if (rc.ok() && !rr.ok() && lr.ok() && !lc.ok()) {
        rhs_col = lr.value();
        break;
      }
    }
    if (rhs_col < 0) {
      jp.strategy = JoinStrategy::kCross;
      est = std::max(est * static_cast<double>(tables[ti]->num_rows()), 1.0);
      jp.est_rows = est;
    } else {
      JoinPlan chosen =
          ChooseJoinStrategy(est, *tables[ti], rhs_col,
                             enabled && !jp.left);
      jp.strategy = chosen.strategy;
      jp.index = chosen.index;
      jp.est_rows = chosen.est_rows;
      est = chosen.est_rows;
    }
    for (size_t i = 0; i < rhs_schema.num_columns(); ++i) {
      cur_schema.AddColumn(rhs_schema.column(i));
      cur_quals.push_back(rhs_quals[i]);
    }
    plan.joins.push_back(std::move(jp));
  }
  return plan;
}

namespace {

std::string EstString(double est) {
  return std::to_string(static_cast<long long>(est + 0.5));
}

}  // namespace

std::vector<std::string> SelectPlan::Describe() const {
  std::vector<std::string> lines;
  if (!enabled) lines.push_back("planner: off");
  if (base_table.empty()) {
    lines.push_back("no table: constant result");
    return lines;
  }
  std::string b = "table " + base_table + ": ";
  switch (base.kind) {
    case AccessKind::kSeqScan:
      b += "SEQ SCAN";
      break;
    case AccessKind::kIndexEq:
      b += "INDEX EQ " + base.index;
      break;
    case AccessKind::kIndexRange:
      b += "INDEX RANGE " + base.index;
      break;
  }
  b += " (est " + EstString(base.est_rows) + " rows)";
  lines.push_back(std::move(b));
  for (const JoinPlan& jp : joins) {
    std::string j = jp.left ? "left join " : "join ";
    j += jp.table + ": ";
    switch (jp.strategy) {
      case JoinStrategy::kHash:
        j += "HASH";
        break;
      case JoinStrategy::kIndexNestedLoop:
        j += "INDEX NESTED LOOP (" + jp.index + ")";
        break;
      case JoinStrategy::kCross:
        j += "CROSS";
        break;
    }
    j += " (est " + EstString(jp.est_rows) + " rows)";
    lines.push_back(std::move(j));
  }
  if (order_by_index) {
    lines.push_back(std::string("order by: INDEX ") + base.index +
                    (order_reverse ? " DESC" : ""));
  }
  return lines;
}

}  // namespace phoenix::eng
