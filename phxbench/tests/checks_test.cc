// Tests of phxbench's correctness checks: each check passes on a correct
// stream and fails on a planted fault — a skipped acknowledgement, a
// duplicated write, a shifted or duplicated resume row, a short report.
//
//   .bench_build/phxbench/phxbench_checks_test   (exit 0 = all passed)

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"

namespace phxbench {
namespace {

int g_failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void PointRow() {
  int64_t v = 7;
  Expect(CheckPointRow(5, {{5, 7}}, &v).ok, "matching row passes");
  Expect(CheckPointRow(5, {{5, 8}}).ok, "V unchecked without want_v");
  Expect(!CheckPointRow(5, {}).ok, "missing row fails");
  Expect(!CheckPointRow(5, {{6, 7}}).ok, "wrong ID fails");
  Expect(!CheckPointRow(5, {{5, 7}, {5, 7}}).ok, "duplicate row fails");
  Expect(!CheckPointRow(5, {{5, 8}}, &v).ok, "wrong V fails");
}

/// A tiny model of the exactly-once check: `applied` are the UPDATE deltas
/// the server executed, `acked` the ones the application recorded.
Verdict Totals(const std::vector<int64_t>& applied,
               const std::vector<int64_t>& acked, int inserted,
               int recorded_inserts) {
  const int64_t rows = 100, initial_sum = 4950;
  int64_t server_sum = initial_sum, want_sum = initial_sum;
  for (int64_t d : applied) server_sum += d;
  for (int64_t d : acked) want_sum += d;
  return CheckTotals(rows + inserted, server_sum, rows + recorded_inserts,
                     want_sum);
}

void ExactlyOnce() {
  Expect(Totals({3, 4, 5}, {3, 4, 5}, 2, 2).ok, "every ack recorded passes");
  Expect(!Totals({3, 4, 5}, {3, 5}, 2, 2).ok,
         "planted skipped acknowledgement fails");
  Expect(!Totals({3, 4, 4, 5}, {3, 4, 5}, 2, 2).ok,
         "a write applied twice fails");
  Expect(!Totals({3, 4, 5}, {3, 4, 5}, 3, 2).ok, "an unrecorded insert fails");
}

/// Delivers `ids` (V = 10 * ID) into a check expecting IDs 1..n.
Verdict Resume(int64_t n, const std::vector<int64_t>& ids, bool end = true) {
  std::vector<int64_t> want_ids, want_v;
  for (int64_t id = 1; id <= n; ++id) {
    want_ids.push_back(id);
    want_v.push_back(10 * id);
  }
  ReportCheck check(want_ids, want_v);
  for (int64_t id : ids) check.Row(IdV{id, 10 * id});
  if (end) check.End();
  return check.verdict();
}

std::vector<int64_t> Seq(int64_t lo, int64_t hi) {
  std::vector<int64_t> v;
  for (int64_t i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

std::vector<int64_t> Cat(std::vector<int64_t> a, const std::vector<int64_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

void ResumedReport() {
  Expect(Resume(100, Cat(Seq(1, 50), Seq(51, 100))).ok,
         "resume at the exact next row passes");
  Expect(!Resume(100, Cat(Seq(1, 50), Seq(52, 100))).ok,
         "planted shifted resume row (gap) fails");
  Expect(!Resume(100, Cat(Seq(1, 50), Seq(50, 100))).ok,
         "resume that redelivers a row fails");
  Expect(!Resume(100, Seq(1, 99)).ok, "short report fails");
  Expect(!Resume(100, Seq(1, 101)).ok, "extra row fails");

  ReportCheck wrong_v({1, 2}, {10, 20});
  wrong_v.Row({1, 10});
  wrong_v.Row({2, 21});
  Expect(!wrong_v.verdict().ok, "stale V in a resumed row fails");

  ReportCheck ids_only({1, 2}, {});
  ids_only.Row({1, 99});
  ids_only.Row({2, 98});
  ids_only.End();
  Expect(ids_only.verdict().ok, "ID-only check ignores V");
}

}  // namespace
}  // namespace phxbench

int main() {
  phxbench::PointRow();
  phxbench::ExactlyOnce();
  phxbench::ResumedReport();
  if (phxbench::g_failures == 0) std::printf("phxbench checks: all passed\n");
  return phxbench::g_failures == 0 ? 0 : 1;
}
