#include "checks.h"

namespace phxbench {

Verdict CheckPointRow(int64_t key, const std::vector<IdV>& rows,
                      const int64_t* want_v) {
  Verdict v;
  if (rows.size() != 1) {
    v.Fail("point select of ID " + std::to_string(key) + " returned " +
           std::to_string(rows.size()) + " rows");
  } else if (rows[0].id != key) {
    v.Fail("point select of ID " + std::to_string(key) + " returned ID " +
           std::to_string(rows[0].id));
  } else if (want_v != nullptr && rows[0].v != *want_v) {
    v.Fail("ID " + std::to_string(key) + " has V=" +
           std::to_string(rows[0].v) + ", acknowledged writes give " +
           std::to_string(*want_v));
  }
  return v;
}

Verdict CheckTotals(int64_t count, int64_t sum, int64_t want_count,
                    int64_t want_sum) {
  Verdict v;
  if (count != want_count) {
    v.Fail("COUNT(*)=" + std::to_string(count) + ", acknowledged inserts give " +
           std::to_string(want_count));
  } else if (sum != want_sum) {
    v.Fail("SUM(V)=" + std::to_string(sum) + ", acknowledged writes give " +
           std::to_string(want_sum));
  }
  return v;
}

ReportCheck::ReportCheck(std::vector<int64_t> want_ids,
                         std::vector<int64_t> want_v)
    : want_ids_(std::move(want_ids)), want_v_(std::move(want_v)) {}

void ReportCheck::Row(const IdV& row) {
  if (!verdict_.ok) return;
  if (next_ >= want_ids_.size()) {
    verdict_.Fail("report delivered more than " +
                  std::to_string(want_ids_.size()) + " rows");
    return;
  }
  if (row.id != want_ids_[next_]) {
    verdict_.Fail("report row " + std::to_string(next_) + " has ID " +
                  std::to_string(row.id) + ", want " +
                  std::to_string(want_ids_[next_]));
  } else if (!want_v_.empty() && row.v != want_v_[next_]) {
    verdict_.Fail("report row " + std::to_string(next_) + " (ID " +
                  std::to_string(row.id) + ") has V=" + std::to_string(row.v) +
                  ", want " + std::to_string(want_v_[next_]));
  }
  ++next_;
}

void ReportCheck::End() {
  if (verdict_.ok && next_ != want_ids_.size()) {
    verdict_.Fail("report ended after " + std::to_string(next_) + " of " +
                  std::to_string(want_ids_.size()) + " rows");
  }
}

}  // namespace phxbench
