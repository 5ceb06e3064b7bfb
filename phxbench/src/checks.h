#ifndef PHXBENCH_CHECKS_H_
#define PHXBENCH_CHECKS_H_

// The correctness checks every run applies to what the application saw.
// They are pure functions over plain values so that tests can feed them
// planted faults (tests/checks_test.cc).

#include <cstdint>
#include <string>
#include <vector>

namespace phxbench {

/// One (ID, V) row as the application fetched it.
struct IdV {
  int64_t id = 0;
  int64_t v = 0;
};

/// Outcome of a check: the first failure wins and is kept.
struct Verdict {
  bool ok = true;
  std::string why;
  void Fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
  void Merge(const Verdict& other) {
    if (!other.ok) Fail(other.why);
  }
};

/// Point SELECT by primary key `key`: exactly one row, carrying that ID.
/// When `want_v` is non-null (no concurrent writers), V must match too.
Verdict CheckPointRow(int64_t key, const std::vector<IdV>& rows,
                      const int64_t* want_v = nullptr);

/// Exactly-once: the table's final COUNT(*) and SUM(V) equal the initial
/// values plus every acknowledged INSERT and UPDATE delta, no more and no
/// fewer.
Verdict CheckTotals(int64_t count, int64_t sum, int64_t want_count,
                    int64_t want_sum);

/// Follows one report row by row: rows must be exactly `want`, in order,
/// each once. It spans the crash of a crash-resume cycle, so a resumed
/// stream that starts one row early (duplicate) or late (gap) fails at the
/// first shifted row. An empty `want_v` checks IDs only (reports read
/// while writers run).
class ReportCheck {
 public:
  ReportCheck(std::vector<int64_t> want_ids, std::vector<int64_t> want_v);
  /// Feeds the next fetched row.
  void Row(const IdV& row);
  /// The cursor reported end of data.
  void End();
  size_t delivered() const { return next_; }
  const Verdict& verdict() const { return verdict_; }

 private:
  std::vector<int64_t> want_ids_;
  std::vector<int64_t> want_v_;
  size_t next_ = 0;
  Verdict verdict_;
};

}  // namespace phxbench

#endif  // PHXBENCH_CHECKS_H_
