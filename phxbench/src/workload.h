#ifndef PHXBENCH_WORKLOAD_H_
#define PHXBENCH_WORKLOAD_H_

// The three phxbench workloads and the machinery that drives them: a
// seeded table, closed-loop clients (each a synchronous Phoenix ODBC
// caller), a shadow model of every acknowledged write, and the crash
// probes that give every workload a recovery stall.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "host.h"
#include "stats.h"

namespace phxbench {

struct WorkloadSpec {
  std::string name;
  std::string why;
  int64_t rows = 0;  ///< initial ACCT rows, IDs 1..rows
  int clients = 0;   ///< closed-loop client threads
  /// Operations per Phoenix session of an oltp client or a report_pinned
  /// writer; then it disconnects and reconnects, inside the timed window.
  /// Phoenix keeps each materialized result table until its session ends,
  /// so a session's length sets how many tables the server holds. A fixed
  /// count keeps that, the server's memory and the per-operation work
  /// independent of the program's speed; a time bound does not.
  int session_ops = 0;
  /// oltp mix, percent of operations (the rest are INSERTs).
  int select_pct = 0;
  int update_pct = 0;
  /// report_pinned: client 0 holds each report open for this many writer
  /// commits, fetching it in blocks, then drains and closes it.
  bool pinned_reporter = false;
  int64_t pinned_report_rows = 0;
  uint64_t pin_window_commits = 0;
  /// crash_resume: every cycle runs this many wrapped UPDATEs, then one
  /// crash-resume report.
  bool crash_cycles = false;
  int cycle_updates = 0;
  /// Rows of a crash-resume report and of a clean report.
  int64_t report_rows = 4000;
  /// Auto-checkpoint cadence of the server (PHX_CKPT_EVERY).
  uint64_t checkpoint_every_n_commits = 0;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  /// Window time.
  double seconds = 10;
  /// Set-ups per run; the last one is measured, setup_s is their median.
  int setups = 7;
  /// Warm-up operations per client after each set-up.
  int warmup_ops = 60;
  std::string data_dir;
  std::string server_binary;
  bool in_process = false;        ///< host the server in this process
  SpanRecorder* spans = nullptr;  ///< non-null: traced run
  /// Planted fault, for testing the checks: "skip_ack" drops one
  /// acknowledged UPDATE from the shadow model; "shift_resume" makes the
  /// application skip one row right after a crash-resume.
  std::string plant;
  /// Crash probes: crash-resume cycles after the window, from a fresh
  /// Phoenix client, for a workload whose mix has none, so that every
  /// workload reports the recovery stall. They come after the window so
  /// that they reset nothing it measures.
  int crash_probes = 40;
};

/// Latency samples of a run: the window's, and the crash probes' stalls.
struct Samples {
  std::vector<double> select_us;
  std::vector<double> dml_us;
  /// Clean reports: time inside the driver manager from ExecDirect to the
  /// last row, and each report's rows over that time.
  std::vector<double> report_ms;
  std::vector<double> report_rows_per_s;
  std::vector<double> stall_ms;
};

/// Everything one run measured. Latency samples are in the units named.
struct RunResult {
  std::vector<double> setup_s;
  Samples samples;
  /// The window's operations, in order of completion, cut into one block
  /// per second of window time: the operation rate of each block.
  std::vector<double> block_rates;
  /// The median of block_rates. Unlike the window's mean rate, it does not
  /// follow a stall of the host that lasts a few seconds.
  double OpsPerSecond() const;

  std::vector<double> restart_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0;
  Verdict verdict;
  // Per-layer inputs (traced run; a few are also filled untraced).
  struct OpNet {
    double ops = 0, round_trips = 0, bytes = 0;
  };
  std::map<std::string, OpNet> net_by_kind;  ///< "select", "dml", "report"
  /// Gauges sampled every 0.5 ms over the window (traced run).
  std::vector<double> queue_depth, mvcc_versions_live;
  std::vector<double> recovery_vs_ms, recovery_sql_ms, reconnects;
  std::vector<double> wal_bytes_at_crash, replay_ms, checkpoint_load_ms;
  /// Registry counter deltas and commits over the window.
  std::map<std::string, double> window_counters;
  double window_commits = 0;
  uint64_t window_ops = 0;
  double checkpoint_ms = 0;  ///< mean checkpoint duration over the run
};

/// Runs one workload end to end: set-ups, the timed closed-loop window,
/// then the crash probes and the exactly-once totals. Fills `out`;
/// returns false on an
/// infrastructure failure (server would not start), with the reason in
/// out->verdict.
bool RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                 RunResult* out);

/// CREATE TABLE ACCT, HIST and the one-row SETTLE, plus the INSERT
/// batches that load `rows` seeded rows into ACCT.
std::vector<std::string> LoadScript(int64_t rows, uint64_t seed);
/// Runs LoadScript through the plain driver manager over `endpoint`.
bool LoadTables(const std::string& endpoint, int64_t rows, uint64_t seed,
                std::string* err);

/// Workload-independent layer probes of the traced run, keyed by
/// per-layer metric name.
std::map<std::string, double> RunLayerProbes(const WorkloadSpec& spec,
                                             const RunOptions& options);

}  // namespace phxbench

#endif  // PHXBENCH_WORKLOAD_H_
