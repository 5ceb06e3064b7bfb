#include "workload.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "core/phoenix_driver_manager.h"
#include "obs/metrics.h"
#include "odbc/driver_manager.h"

namespace phxbench {

namespace core = phoenix::core;
namespace obs = phoenix::obs;
namespace odbc = phoenix::odbc;
using phoenix::Rng;
using phoenix::Value;

namespace {

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec oltp;
    oltp.name = "oltp";
    oltp.why =
        "per-request Phoenix path: point SELECTs, keyed UPDATEs and history "
        "INSERTs from 3 clients, per-commit fsync, no long cursors";
    oltp.rows = 10000;
    oltp.clients = 3;
    oltp.select_pct = 60;
    oltp.update_pct = 30;
    oltp.session_ops = 250;
    oltp.checkpoint_every_n_commits = 500;
    all.push_back(oltp);

    WorkloadSpec pinned;
    pinned.name = "report_pinned";
    pinned.why =
        "half-delivered 5k-row Phoenix reports held open while 2 writers "
        "commit: snapshot pins, version retention, per-row materialization";
    pinned.rows = 20000;
    pinned.clients = 3;
    pinned.pinned_reporter = true;
    pinned.pinned_report_rows = 5000;
    pinned.pin_window_commits = 300;
    pinned.session_ops = 250;
    pinned.checkpoint_every_n_commits = 500;
    all.push_back(pinned);

    WorkloadSpec crash;
    crash.name = "crash_resume";
    crash.why =
        "Figure 2 across a process boundary: SIGKILL phoenixd mid-report, "
        "restart, and resume at the exact next row";
    crash.rows = 10000;
    crash.clients = 1;
    crash.crash_cycles = true;
    crash.cycle_updates = 100;
    // Below the commits of one cycle, so every incarnation checkpoints and
    // the WAL replayed at each crash stays bounded.
    crash.checkpoint_every_n_commits = 50;
    all.push_back(crash);
    return all;
  }();
  return kAll;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

constexpr const char* kDsn = "phxbench";
constexpr const char* kSettleSql = "UPDATE SETTLE SET N = N + 1 WHERE ID = 1";
constexpr size_t kBlock = 64;  // PhoenixConfig::fetch_block default

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

int64_t InitialV(uint64_t seed, int64_t id) {
  return static_cast<int64_t>(Mix(seed * 0x100000001B3ULL + id) % 1000);
}

std::string Pad(int64_t id) {
  std::string s = "row-" + std::to_string(id);
  s.resize(24, '.');
  return s;
}

/// Expected table contents: the initial ACCT rows plus every acknowledged
/// UPDATE, and every acknowledged INSERT into HIST.
struct Shadow {
  std::vector<int64_t> v;  ///< ACCT: v[id - 1]
  std::map<int64_t, int64_t> hist;  ///< HIST: id → V

  void Init(uint64_t seed, int64_t rows) {
    v.resize(rows);
    for (int64_t id = 1; id <= rows; ++id) v[id - 1] = InitialV(seed, id);
    hist.clear();
  }
  int64_t AcctSum() const {
    int64_t s = 0;
    for (int64_t x : v) s += x;
    return s;
  }
  int64_t HistSum() const {
    int64_t s = 0;
    for (const auto& [id, x] : hist) s += x;
    return s;
  }
};

struct Client {
  int index = 0;
  phoenix::net::Network network;
  std::unique_ptr<core::PhoenixDriverManager> dm;
  odbc::Henv* env = nullptr;
  odbc::Hdbc* dbc = nullptr;
  odbc::Hstmt* stmt = nullptr;
  int session_ops = 0;  ///< operations in the current session
  Rng rng;
  // Acknowledged writes not yet merged into the shadow.
  std::map<int64_t, int64_t> delta;
  std::vector<IdV> inserted;
  int64_t next_insert_id = 0;
  // Samples.
  std::vector<double> select_us, dml_us, report_ms, report_rows_per_s,
      stall_ms;
  /// Completion time of every operation in the window, for ops_per_s.
  std::vector<double> done_us;
  uint64_t attempted = 0, failed = 0;
  Verdict verdict;
  std::map<std::string, RunResult::OpNet> net;
};

std::atomic<uint64_t> g_next_op{1};

/// One run's shared state.
class Run {
 public:
  Run(const WorkloadSpec& spec, const RunOptions& opt, RunResult* out)
      : spec_(spec), opt_(opt), out_(out), spans_(opt.spans) {}

  bool Execute();

 private:
  // ---- set-up ----
  bool SetUp(bool keep);
  bool Load();
  std::unique_ptr<Client> Connect(int index);
  bool OpenSession(Client* c);
  void Disconnect(Client* c);
  /// Ends the client's Phoenix session and opens a new one; false if that
  /// failed. A report's session ends with the report, because Phoenix
  /// keeps every materialized result table until the session disconnects.
  bool NewSession(Client* c);
  void Warmup(Client* c);
  // ---- operations (each is one application operation) ----
  void PointSelect(Client* c, int64_t key, const int64_t* want_v);
  void KeyedUpdate(Client* c, int64_t key, int64_t d);
  void Insert(Client* c);
  /// A range report of `rows` rows through Phoenix, checked row by row.
  void Report(Client* c, int64_t rows, bool pinned);
  void CrashCycle(Client* c, int64_t rows);
  /// Exactly-once: COUNT(*) and SUM(V) of `table` against the shadow.
  bool Totals(Client* c, const char* table, int64_t want_count,
              int64_t want_sum);
  // ---- loops ----
  void ClientLoop(Client* c);
  /// The timed window: the workload's clients in a closed loop.
  void Window();
  /// The crash probes (see RunOptions), then the exactly-once totals.
  void FinalPass();
  /// Commits on the one-row SETTLE table over a plain connection until the
  /// server checkpoints, which truncates its WAL. Run before every crash
  /// probe, so that each probe replays the same short WAL tail, whatever
  /// the window and the probes before it left; false on a failure.
  bool SettleWal(Client* c);
  // ---- helpers ----
  bool Query(Client* c, const std::string& sql, std::vector<IdV>* rows,
             std::string* err);
  void Fail(Client* c, const std::string& what, const std::string& err);
  int64_t ExpectedV(const Client* c, int64_t id) const;
  RunResult::OpNet NetNow(Client* c) const;
  void AddNet(Client* c, const char* kind, const RunResult::OpNet& before);
  std::vector<int64_t> RangeIds(int64_t lo, int64_t rows) const;
  void MergeShadow(Client* c);
  void Collect(Client* c);
  double HistogramSum(const char* name) const;

  const WorkloadSpec& spec_;
  const RunOptions& opt_;
  RunResult* out_;
  SpanRecorder* spans_;
  std::unique_ptr<Host> host_;
  std::vector<std::unique_ptr<Client>> clients_;
  Shadow shadow_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> writer_commits_{0};
  std::atomic<bool> planted_ack_{false};
  std::mutex restart_mu_;
  double deadline_us_ = 0;
};

std::string Sql(const char* fmt, int64_t a, int64_t b = 0, int64_t c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<long long>(a),
                static_cast<long long>(b), static_cast<long long>(c));
  return buf;
}

std::string RangeSql(int64_t lo, int64_t rows) {
  return Sql("SELECT ID, V FROM ACCT WHERE ID >= %lld AND ID < %lld ORDER BY ID",
             lo, lo + rows);
}

}  // namespace

// ---------------------------------------------------------------------------
// Set-up: spawn the server, load the table, connect and warm up the clients.
// ---------------------------------------------------------------------------

bool Run::SetUp(bool keep) {
  double t0 = NowUs();
  HostConfig hc;
  hc.data_dir = opt_.data_dir;
  hc.checkpoint_every_n_commits = spec_.checkpoint_every_n_commits;
  hc.server_binary = opt_.server_binary;
  host_ = opt_.in_process ? MakeInProcHost(hc) : MakeProcessHost(hc);
  Status st = host_->Start();
  if (!st.ok()) {
    out_->verdict.Fail("server start: " + st.ToString());
    return false;
  }
  if (!Load()) return false;
  // The window runs on a recovered server: rows freshly inserted by the
  // load carry version state that recovered rows do not, and run
  // measurably slower.
  host_->Kill();
  st = host_->Restart();
  if (!st.ok()) {
    out_->verdict.Fail("server restart after load: " + st.ToString());
    return false;
  }
  shadow_.Init(opt_.seed, spec_.rows);
  clients_.clear();
  for (int i = 0; i < spec_.clients; ++i) {
    auto c = Connect(i);
    if (c == nullptr) return false;
    clients_.push_back(std::move(c));
  }
  for (auto& c : clients_) Warmup(c.get());
  out_->setup_s.push_back((NowUs() - t0) / 1e6);
  if (!keep) {
    for (auto& c : clients_) Disconnect(c.get());
    clients_.clear();
    out_->peak_rss_mb = std::max(out_->peak_rss_mb, host_->PeakRssMb());
    host_->Stop();
  }
  return true;
}

bool Run::Load() {
  std::string err;
  if (!LoadTables(host_->endpoint(), spec_.rows, opt_.seed, &err)) {
    out_->verdict.Fail("load: " + err);
    return false;
  }
  return true;
}

std::vector<std::string> LoadScript(int64_t rows, uint64_t seed) {
  std::vector<std::string> script = {
      "CREATE TABLE ACCT (ID BIGINT, V BIGINT, PAD VARCHAR(24), "
      "PRIMARY KEY (ID))",
      "CREATE TABLE HIST (ID BIGINT, V BIGINT, PAD VARCHAR(24), "
      "PRIMARY KEY (ID))",
      "CREATE TABLE SETTLE (ID BIGINT, N BIGINT, PRIMARY KEY (ID))",
      "INSERT INTO SETTLE VALUES (1, 0)"};
  constexpr int64_t kBatch = 500;
  for (int64_t lo = 1; lo <= rows; lo += kBatch) {
    std::string sql = "INSERT INTO ACCT VALUES ";
    for (int64_t id = lo; id < lo + kBatch && id <= rows; ++id) {
      if (id != lo) sql += ", ";
      sql += "(" + std::to_string(id) + ", " +
             std::to_string(InitialV(seed, id)) + ", '" + Pad(id) + "')";
    }
    script.push_back(std::move(sql));
  }
  return script;
}

bool LoadTables(const std::string& endpoint, int64_t rows, uint64_t seed,
              std::string* err) {
  phoenix::net::Network network;
  network.RegisterRemote(kDsn, endpoint);
  odbc::DriverManager dm(&network);
  odbc::Hdbc* dbc = dm.AllocConnect(dm.AllocEnv());
  if (!odbc::Succeeded(dm.Connect(dbc, kDsn, "loader"))) {
    *err = dbc->diag.ToString();
    return false;
  }
  odbc::Hstmt* stmt = dm.AllocStmt(dbc);
  for (const std::string& sql : LoadScript(rows, seed)) {
    if (!odbc::Succeeded(dm.ExecDirect(stmt, sql))) {
      *err = stmt->diag.ToString();
      return false;
    }
  }
  dm.Disconnect(dbc);
  return true;
}

std::unique_ptr<Client> Run::Connect(int index) {
  auto c = std::make_unique<Client>();
  c->index = index;
  c->rng = Rng(Mix(opt_.seed * 131 + static_cast<uint64_t>(index) + 1));
  c->next_insert_id = 1 + index;
  c->network.RegisterRemote(kDsn, host_->endpoint());
  core::PhoenixConfig config;
  // A crash-resume restarts the killed server from Phoenix's reconnect
  // loop, the way an operator's restart races a retrying client.
  config.retry_wait = [this] {
    std::lock_guard<std::mutex> lk(restart_mu_);
    if (host_->running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return;
    }
    SpanRecorder::Scope span(spans_, "server.Restart");
    double t0 = NowUs();
    Status st = host_->Restart();
    if (st.ok()) out_->restart_ms.push_back((NowUs() - t0) / 1e3);
  };
  c->dm = std::make_unique<core::PhoenixDriverManager>(&c->network, config);
  c->env = c->dm->AllocEnv();
  if (!OpenSession(c.get())) return nullptr;
  return c;
}

bool Run::OpenSession(Client* c) {
  c->dbc = c->dm->AllocConnect(c->env);
  c->session_ops = 0;
  if (!odbc::Succeeded(c->dm->Connect(c->dbc, kDsn,
                                      "client" + std::to_string(c->index)))) {
    c->verdict.Fail("client connect: " + c->dbc->diag.ToString());
    out_->verdict.Fail("client connect: " + c->dbc->diag.ToString());
    return false;
  }
  c->stmt = c->dm->AllocStmt(c->dbc);
  return true;
}

void Run::Disconnect(Client* c) {
  if (c->dbc != nullptr) c->dm->Disconnect(c->dbc);
  c->dbc = nullptr;
}

bool Run::NewSession(Client* c) {
  SpanRecorder::Scope span(spans_, "app.new_session", g_next_op++);
  Disconnect(c);
  return OpenSession(c);
}

void Run::Warmup(Client* c) {
  // Read-only SELECTs and zero-delta UPDATEs: they warm every path the
  // window uses without changing the data the checks expect.
  for (int i = 0; i < opt_.warmup_ops; ++i) {
    int64_t key = 1 + static_cast<int64_t>(c->rng.NextBelow(spec_.rows));
    std::vector<IdV> rows;
    std::string err;
    if (i % 2 == 0) {
      Query(c, Sql("SELECT ID, V FROM ACCT WHERE ID = %lld", key), &rows, &err);
    } else {
      c->dm->ExecDirect(c->stmt,
                        Sql("UPDATE ACCT SET V = V + 0 WHERE ID = %lld", key));
    }
  }
}

// ---------------------------------------------------------------------------
// Operations.
// ---------------------------------------------------------------------------

bool Run::Query(Client* c, const std::string& sql, std::vector<IdV>* rows,
                std::string* err) {
  {
    SpanRecorder::Scope span(spans_, "core.ExecDirect");
    if (!odbc::Succeeded(c->dm->ExecDirect(c->stmt, sql))) {
      *err = c->stmt->diag.ToString();
      return false;
    }
  }
  while (true) {
    odbc::SqlReturn r;
    {
      SpanRecorder::Scope span(spans_, "core.Fetch");
      r = c->dm->Fetch(c->stmt);
    }
    if (r == odbc::SqlReturn::kNoData) break;
    if (!odbc::Succeeded(r)) {
      *err = c->stmt->diag.ToString();
      return false;
    }
    Value id, v;
    c->dm->GetData(c->stmt, 0, &id);
    c->dm->GetData(c->stmt, 1, &v);
    rows->push_back(IdV{id.AsInt64(), v.AsInt64()});
  }
  SpanRecorder::Scope span(spans_, "core.CloseCursor");
  c->dm->CloseCursor(c->stmt);
  return true;
}

void Run::Fail(Client* c, const std::string& what, const std::string& err) {
  ++c->failed;
  c->verdict.Fail(what + " failed: " + err);
}

int64_t Run::ExpectedV(const Client* c, int64_t id) const {
  int64_t v = shadow_.v[id - 1];
  if (c != nullptr) {
    auto it = c->delta.find(id);
    if (it != c->delta.end()) v += it->second;
  }
  return v;
}

RunResult::OpNet Run::NetNow(Client* c) const {
  RunResult::OpNet n;
  auto add = [&n](odbc::DriverConnection* conn) {
    if (conn == nullptr || conn->channel() == nullptr) return;
    phoenix::net::ChannelStats s = conn->channel()->stats();
    n.round_trips += static_cast<double>(s.round_trips);
    n.bytes += static_cast<double>(s.bytes_sent + s.bytes_received);
  };
  add(c->dbc->driver.get());
  if (core::ConnState* cs = core::PhoenixDriverManager::conn_state(c->dbc)) {
    add(cs->private_conn.get());
  }
  return n;
}

void Run::AddNet(Client* c, const char* kind, const RunResult::OpNet& before) {
  RunResult::OpNet now = NetNow(c);
  // A recovery swaps the channels; such an operation's counts are lost.
  if (now.round_trips < before.round_trips) return;
  RunResult::OpNet& agg = c->net[kind];
  agg.ops += 1;
  agg.round_trips += now.round_trips - before.round_trips;
  agg.bytes += now.bytes - before.bytes;
}

void Run::PointSelect(Client* c, int64_t key, const int64_t* want_v) {
  uint64_t op = g_next_op++;
  RunResult::OpNet net0 = spans_ ? NetNow(c) : RunResult::OpNet{};
  std::vector<IdV> rows;
  std::string err;
  double t0 = NowUs();
  bool ok;
  {
    SpanRecorder::Scope span(spans_, "app.select", op);
    ok = Query(c, Sql("SELECT ID, V FROM ACCT WHERE ID = %lld", key), &rows,
               &err);
  }
  double us = NowUs() - t0;
  ++c->attempted;
  if (!ok) return Fail(c, "point select", err);
  c->select_us.push_back(us);
  c->done_us.push_back(NowUs());
  c->verdict.Merge(CheckPointRow(key, rows, want_v));
  if (spans_) AddNet(c, "select", net0);
}

void Run::KeyedUpdate(Client* c, int64_t key, int64_t d) {
  uint64_t op = g_next_op++;
  RunResult::OpNet net0 = spans_ ? NetNow(c) : RunResult::OpNet{};
  double t0 = NowUs();
  odbc::SqlReturn r;
  {
    SpanRecorder::Scope span(spans_, "app.update", op);
    SpanRecorder::Scope call(spans_, "core.ExecDirect");
    r = c->dm->ExecDirect(
        c->stmt, Sql("UPDATE ACCT SET V = V + %lld WHERE ID = %lld", d, key));
  }
  double us = NowUs() - t0;
  ++c->attempted;
  if (!odbc::Succeeded(r)) return Fail(c, "update", c->stmt->diag.ToString());
  int64_t affected = 0;
  c->dm->RowCount(c->stmt, &affected);
  if (affected != 1) {
    c->verdict.Fail("update of ID " + std::to_string(key) + " affected " +
                    std::to_string(affected) + " rows");
  }
  c->dml_us.push_back(us);
  c->done_us.push_back(NowUs());
  writer_commits_.fetch_add(1, std::memory_order_relaxed);
  if (spans_) AddNet(c, "dml", net0);
  if (opt_.plant == "skip_ack" && !planted_ack_.exchange(true)) return;
  c->delta[key] += d;
}

void Run::Insert(Client* c) {
  uint64_t op = g_next_op++;
  RunResult::OpNet net0 = spans_ ? NetNow(c) : RunResult::OpNet{};
  int64_t id = c->next_insert_id;
  int64_t v = static_cast<int64_t>(c->rng.NextBelow(1000));
  double t0 = NowUs();
  odbc::SqlReturn r;
  {
    SpanRecorder::Scope span(spans_, "app.insert", op);
    SpanRecorder::Scope call(spans_, "core.ExecDirect");
    r = c->dm->ExecDirect(c->stmt, Sql("INSERT INTO HIST VALUES (%lld, %lld, ",
                                       id, v) +
                                       "'" + Pad(id) + "')");
  }
  double us = NowUs() - t0;
  ++c->attempted;
  if (!odbc::Succeeded(r)) return Fail(c, "insert", c->stmt->diag.ToString());
  c->dml_us.push_back(us);
  c->done_us.push_back(NowUs());
  c->next_insert_id += spec_.clients;
  c->inserted.push_back(IdV{id, v});
  if (spans_) AddNet(c, "dml", net0);
}

std::vector<int64_t> Run::RangeIds(int64_t lo, int64_t rows) const {
  std::vector<int64_t> ids(rows);
  for (int64_t i = 0; i < rows; ++i) ids[i] = lo + i;
  return ids;
}

/// Fetches up to `n` rows into `check`; returns false on error, sets *done
/// at end of data. `busy_us` accumulates time inside the driver manager.
static bool FetchRows(core::PhoenixDriverManager* dm, odbc::Hstmt* stmt,
                      SpanRecorder* spans, size_t n, ReportCheck* check,
                      bool* done, double* busy_us) {
  SpanRecorder::Scope span(spans, "core.Fetch(block)");
  for (size_t i = 0; i < n; ++i) {
    double t0 = NowUs();
    odbc::SqlReturn r = dm->Fetch(stmt);
    *busy_us += NowUs() - t0;
    if (r == odbc::SqlReturn::kNoData) {
      *done = true;
      return true;
    }
    if (!odbc::Succeeded(r)) return false;
    Value id, v;
    dm->GetData(stmt, 0, &id);
    dm->GetData(stmt, 1, &v);
    check->Row(IdV{id.AsInt64(), v.AsInt64()});
  }
  return true;
}

void Run::Report(Client* c, int64_t rows, bool pinned) {
  uint64_t op = g_next_op++;
  RunResult::OpNet net0 = spans_ ? NetNow(c) : RunResult::OpNet{};
  int64_t lo = 1 + static_cast<int64_t>(c->rng.NextBelow(spec_.rows - rows + 1));
  // A pinned report is read while writers run: only IDs and order are
  // known in advance.
  std::vector<int64_t> want_v;
  for (int64_t id = lo; !pinned && id < lo + rows; ++id) {
    want_v.push_back(ExpectedV(c, id));
  }
  ReportCheck check(RangeIds(lo, rows), std::move(want_v));
  SpanRecorder::Scope span(spans_, pinned ? "app.pinned_report" : "app.report",
                           op);
  ++c->attempted;
  double busy = 0, t0 = NowUs();
  odbc::SqlReturn r;
  {
    SpanRecorder::Scope call(spans_, "core.ExecDirect");
    r = c->dm->ExecDirect(c->stmt, RangeSql(lo, rows));
  }
  busy += NowUs() - t0;
  if (!odbc::Succeeded(r)) return Fail(c, "report", c->stmt->diag.ToString());
  // A pinned report holds the half-delivered result open for a fixed
  // window of writer commits, one block at a time, then drains it.
  const uint64_t blocks = (rows + kBlock - 1) / kBlock;
  const uint64_t commits0 = writer_commits_.load();
  bool done = false;
  for (uint64_t b = 1; !done; ++b) {
    if (!FetchRows(c->dm.get(), c->stmt, spans_, kBlock, &check, &done, &busy)) {
      return Fail(c, "report fetch", c->stmt->diag.ToString());
    }
    uint64_t target =
        commits0 + std::min(b, blocks) * spec_.pin_window_commits / blocks;
    while (pinned && !done && NowUs() < deadline_us_ &&
           writer_commits_.load() < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  check.End();
  t0 = NowUs();
  {
    SpanRecorder::Scope call(spans_, "core.CloseCursor");
    c->dm->CloseCursor(c->stmt);
  }
  busy += NowUs() - t0;
  c->verdict.Merge(check.verdict());
  c->report_ms.push_back(busy / 1e3);
  c->report_rows_per_s.push_back(static_cast<double>(rows) / (busy / 1e6));
  c->done_us.push_back(NowUs());
  if (spans_) AddNet(c, "report", net0);
}

double Run::HistogramSum(const char* name) const {
  return static_cast<double>(
      obs::MetricsRegistry::Default()->GetHistogram(name)->Sum());
}

void Run::CrashCycle(Client* c, int64_t rows) {
  uint64_t op = g_next_op++;
  int64_t lo = 1 + static_cast<int64_t>(c->rng.NextBelow(spec_.rows - rows + 1));
  std::vector<int64_t> want_v;
  for (int64_t id = lo; id < lo + rows; ++id) want_v.push_back(ExpectedV(c, id));
  ReportCheck check(RangeIds(lo, rows), std::move(want_v));
  SpanRecorder::Scope span(spans_, "app.crash_resume", op);
  ++c->attempted;
  {
    SpanRecorder::Scope call(spans_, "core.ExecDirect");
    if (!odbc::Succeeded(c->dm->ExecDirect(c->stmt, RangeSql(lo, rows)))) {
      return Fail(c, "crash-resume report", c->stmt->diag.ToString());
    }
  }
  bool done = false;
  double busy = 0;
  if (!FetchRows(c->dm.get(), c->stmt, spans_, rows / 2, &check, &done, &busy)) {
    return Fail(c, "crash-resume fetch", c->stmt->diag.ToString());
  }
  const uint64_t recoveries0 = c->dm->stats().recoveries;
  const double replay0 = HistogramSum("storage.recovery.wal_replay_us");
  const double load0 = HistogramSum("storage.recovery.checkpoint_load_us");
  double kill_us;
  {
    std::lock_guard<std::mutex> lk(restart_mu_);
    out_->peak_rss_mb = std::max(out_->peak_rss_mb, host_->PeakRssMb());
    SpanRecorder::Scope kill(spans_, "server.Kill");
    kill_us = NowUs();
    host_->Kill();
  }
  out_->wal_bytes_at_crash.push_back(
      static_cast<double>(FileSize(opt_.data_dir + "/phxdb.wal")));
  // Keep fetching: the first row beyond the client's block buffer can only
  // come from the restarted server, after Phoenix's two-phase recovery.
  bool stalled = false;
  while (!done) {
    // Row by row until the recovery, so the stall ends at the right row.
    if (!FetchRows(c->dm.get(), c->stmt, spans_, stalled ? kBlock : 1, &check,
                   &done, &busy)) {
      return Fail(c, "resumed fetch", c->stmt->diag.ToString());
    }
    if (!stalled && c->dm->stats().recoveries > recoveries0) {
      stalled = true;
      c->stall_ms.push_back((NowUs() - kill_us) / 1e3);
      if (opt_.plant == "shift_resume") c->dm->Fetch(c->stmt);
    }
  }
  check.End();
  {
    SpanRecorder::Scope call(spans_, "core.CloseCursor");
    c->dm->CloseCursor(c->stmt);
  }
  if (!stalled) c->verdict.Fail("report finished without a recovery");
  c->verdict.Merge(check.verdict());
  const core::PhoenixStats& st = c->dm->stats();
  out_->recovery_vs_ms.push_back(st.last_virtual_session_seconds * 1e3);
  out_->recovery_sql_ms.push_back(st.last_sql_state_seconds * 1e3);
  out_->reconnects.push_back(
      static_cast<double>(st.last_recovery.reconnect_attempts));
  if (host_->server() != nullptr) {  // the replay ran in this process
    out_->replay_ms.push_back((HistogramSum("storage.recovery.wal_replay_us") - replay0) / 1e3);
    out_->checkpoint_load_ms.push_back(
        (HistogramSum("storage.recovery.checkpoint_load_us") - load0) / 1e3);
  }
  c->done_us.push_back(NowUs());
}

bool Run::Totals(Client* c, const char* table, int64_t want_count,
                 int64_t want_sum) {
  SpanRecorder::Scope span(spans_, "app.totals", g_next_op++);
  ++c->attempted;
  bool ok = odbc::Succeeded(c->dm->ExecDirect(
      c->stmt, std::string("SELECT COUNT(*), SUM(V) FROM ") + table));
  Value count, sum;
  ok = ok && odbc::Succeeded(c->dm->Fetch(c->stmt));
  if (!ok) {
    Fail(c, "totals", c->stmt->diag.ToString());
    return false;
  }
  c->dm->GetData(c->stmt, 0, &count);
  c->dm->GetData(c->stmt, 1, &sum);
  c->dm->CloseCursor(c->stmt);
  // SUM over an empty table is NULL.
  int64_t got_sum = sum.is_null() ? 0 : sum.AsInt64();
  c->verdict.Merge(
      CheckTotals(count.AsInt64(), got_sum, want_count, want_sum));
  return true;
}

// ---------------------------------------------------------------------------
// The window and the final pass.
// ---------------------------------------------------------------------------

void Run::ClientLoop(Client* c) {
  auto key = [&] { return 1 + static_cast<int64_t>(c->rng.NextBelow(spec_.rows)); };
  auto delta = [&] { return 1 + static_cast<int64_t>(c->rng.NextBelow(9)); };
  const bool reporter = spec_.pinned_reporter && c->index == 0;
  while (!stop_.load() && NowUs() < deadline_us_) {
    if (spec_.crash_cycles) {
      for (int i = 0; i < spec_.cycle_updates; ++i) {
        int64_t k = key();
        KeyedUpdate(c, k, delta());
      }
      CrashCycle(c, spec_.report_rows);
      if (!NewSession(c)) break;
    } else if (reporter) {
      Report(c, spec_.pinned_report_rows, /*pinned=*/true);
      if (!NewSession(c)) break;
    } else if (spec_.pinned_reporter) {
      int64_t k = key();
      KeyedUpdate(c, k, delta());
      if (++c->session_ops == spec_.session_ops && !NewSession(c)) break;
    } else {
      uint64_t r = c->rng.NextBelow(100);
      if (r < static_cast<uint64_t>(spec_.select_pct)) {
        PointSelect(c, key(), nullptr);
      } else if (r < static_cast<uint64_t>(spec_.select_pct + spec_.update_pct)) {
        int64_t k = key();
        KeyedUpdate(c, k, delta());
      } else {
        Insert(c);
      }
      if (++c->session_ops == spec_.session_ops && !NewSession(c)) break;
    }
    if (!c->verdict.ok) break;  // a wrong answer ends the run
  }
  if (spec_.pinned_reporter && !reporter) return;
  stop_.store(true);  // the reporter's last report drains without waiting
}

void Run::MergeShadow(Client* c) {
  for (const auto& [id, d] : c->delta) shadow_.v[id - 1] += d;
  c->delta.clear();
  for (const IdV& row : c->inserted) shadow_.hist[row.id] = row.v;
  c->inserted.clear();
}

void Run::Collect(Client* c) {
  auto move = [](std::vector<double>* to, std::vector<double>* from) {
    to->insert(to->end(), from->begin(), from->end());
    from->clear();
  };
  Samples& s = out_->samples;
  move(&s.select_us, &c->select_us);
  move(&s.dml_us, &c->dml_us);
  move(&s.report_ms, &c->report_ms);
  move(&s.report_rows_per_s, &c->report_rows_per_s);
  move(&s.stall_ms, &c->stall_ms);
  out_->attempted += c->attempted;
  out_->failed += c->failed;
  c->attempted = c->failed = 0;
  out_->verdict.Merge(c->verdict);
  for (const auto& [kind, n] : c->net) {
    RunResult::OpNet& agg = out_->net_by_kind[kind];
    agg.ops += n.ops;
    agg.round_trips += n.round_trips;
    agg.bytes += n.bytes;
  }
  c->net.clear();
}

void Run::FinalPass() {
  const int probes = spec_.crash_cycles ? 0 : opt_.crash_probes;
  auto c = Connect(100);     // a key stream of its own
  if (c == nullptr) return;  // Connect recorded the failure
  for (int i = 0; i < probes && c->verdict.ok; ++i) {
    if (!SettleWal(c.get())) break;
    CrashCycle(c.get(), spec_.report_rows);
    if (!NewSession(c.get())) break;
  }
  if (c->verdict.ok) {
    Totals(c.get(), "ACCT", spec_.rows, shadow_.AcctSum()) &&
        Totals(c.get(), "HIST", static_cast<int64_t>(shadow_.hist.size()),
               shadow_.HistSum());
  }
  Disconnect(c.get());
  Collect(c.get());
}

bool Run::SettleWal(Client* c) {
  const std::string wal = opt_.data_dir + "/phxdb.wal";
  phoenix::net::Network network;
  network.RegisterRemote(kDsn, host_->endpoint());
  odbc::DriverManager dm(&network);
  odbc::Hdbc* dbc = dm.AllocConnect(dm.AllocEnv());
  if (!odbc::Succeeded(dm.Connect(dbc, kDsn, "settle"))) {
    c->verdict.Fail("settle connect: " + dbc->diag.ToString());
    return false;
  }
  odbc::Hstmt* stmt = dm.AllocStmt(dbc);
  uint64_t size = FileSize(wal);
  // A checkpoint comes within one cadence of commits; two are the cap.
  for (uint64_t i = 0; i < 2 * spec_.checkpoint_every_n_commits; ++i) {
    if (!odbc::Succeeded(dm.ExecDirect(stmt, kSettleSql))) {
      c->verdict.Fail("settle: " + stmt->diag.ToString());
      break;
    }
    uint64_t now = FileSize(wal);
    if (now < size) break;
    size = now;
  }
  dm.Disconnect(dbc);
  return c->verdict.ok;
}

void Run::Window() {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  obs::MetricsSnapshot before = reg->Snapshot();
  uint64_t commits0 = host_->commits();
  for (auto& c : clients_) c->done_us.clear();
  stop_.store(false);
  double t0 = NowUs();
  deadline_us_ = t0 + opt_.seconds * 1e6;
  std::atomic<bool> sampling{spans_ != nullptr && host_->server() != nullptr};
  std::thread sampler([&] {
    obs::Gauge* depth = reg->GetGauge("server.pool.queue_depth");
    obs::Gauge* versions = reg->GetGauge("engine.mvcc.versions_live");
    while (sampling.load()) {
      out_->queue_depth.push_back(static_cast<double>(depth->Value()));
      out_->mvcc_versions_live.push_back(static_cast<double>(versions->Value()));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  std::vector<std::thread> threads;
  for (auto& c : clients_) threads.emplace_back([this, &c] { ClientLoop(c.get()); });
  for (auto& t : threads) t.join();
  sampling.store(false);
  sampler.join();

  obs::MetricsSnapshot after = reg->Snapshot();
  for (const auto& [name, value] : after.counters) {
    out_->window_counters[name] =
        static_cast<double>(value - before.counter(name));
  }
  out_->window_commits = static_cast<double>(host_->commits() - commits0);
  std::vector<double> done;
  for (auto& c : clients_) {
    done.insert(done.end(), c->done_us.begin(), c->done_us.end());
    MergeShadow(c.get());
    Collect(c.get());
  }
  std::sort(done.begin(), done.end());
  out_->window_ops = done.size();
  // One block of operations per second of the window, each block's rate
  // measured from the completion that ended the block before it.
  const size_t blocks = std::max<size_t>(1, static_cast<size_t>(opt_.seconds));
  double from = t0;
  size_t begin = 0;
  for (size_t b = 1; b <= blocks && done.size() >= blocks; ++b) {
    size_t end = done.size() * b / blocks;
    double to = done[end - 1];
    out_->block_rates.push_back(static_cast<double>(end - begin) /
                                ((to - from) / 1e6));
    from = to;
    begin = end;
  }
}

bool Run::Execute() {
  for (int s = 0; s < opt_.setups; ++s) {
    if (!SetUp(/*keep=*/s + 1 == opt_.setups)) return false;
  }
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  obs::MetricsSnapshot before = reg->Snapshot();
  Window();
  for (auto& c : clients_) Disconnect(c.get());
  clients_.clear();
  if (out_->verdict.ok) FinalPass();

  obs::MetricsSnapshot end = reg->Snapshot();
  auto hist = [&](const obs::MetricsSnapshot& s, const char* name,
                  bool sum) -> double {
    auto it = s.histograms.find(name);
    if (it == s.histograms.end()) return 0;
    return static_cast<double>(sum ? it->second.sum : it->second.count);
  };
  double ck_n = hist(end, "storage.checkpoint.duration_us", false) -
                hist(before, "storage.checkpoint.duration_us", false);
  if (ck_n > 0) {
    out_->checkpoint_ms = (hist(end, "storage.checkpoint.duration_us", true) -
                           hist(before, "storage.checkpoint.duration_us", true)) /
                          ck_n / 1e3;
  }
  out_->peak_rss_mb = std::max(out_->peak_rss_mb, host_->PeakRssMb());
  host_->Stop();
  host_.reset();
  return true;
}

double RunResult::OpsPerSecond() const { return Median(block_rates); }

bool RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                 RunResult* out) {
  Run run(spec, options, out);
  return run.Execute();
}

}  // namespace phxbench
