// Layer probes of the traced run: each times the benchmark's own calls into
// one layer's public functions, on a server (or engine, or disk) loaded
// with the workload's seeded table.

#include <memory>

#include "core/phoenix_driver_manager.h"
#include "engine/database.h"
#include "net/channel.h"
#include "odbc/driver_manager.h"
#include "storage/sim_disk.h"
#include "workload.h"

namespace phxbench {

namespace core = phoenix::core;
namespace eng = phoenix::eng;
namespace net = phoenix::net;
namespace odbc = phoenix::odbc;
namespace storage = phoenix::storage;
using phoenix::Rng;

namespace {

constexpr int kPointProbes = 300;
constexpr int kReportProbes = 3;
constexpr int kPingProbes = 500;
constexpr int kFsyncProbes = 200;

struct Timed {
  double us = 0;     ///< whole operation
  double fetch_us = 0;  ///< inside Fetch calls only
  int64_t rows = 0;
  bool ok = true;
};

/// ExecDirect, drain with Fetch, CloseCursor — through `dm`.
Timed Drain(odbc::DriverManager* dm, odbc::Hstmt* stmt, const std::string& sql,
            SpanRecorder* spans, const char* layer) {
  Timed t;
  double t0 = NowUs();
  {
    SpanRecorder::Scope span(spans, layer);
    t.ok = odbc::Succeeded(dm->ExecDirect(stmt, sql));
  }
  while (t.ok) {
    double f0 = NowUs();
    odbc::SqlReturn r = dm->Fetch(stmt);
    t.fetch_us += NowUs() - f0;
    if (r == odbc::SqlReturn::kNoData) break;
    t.ok = odbc::Succeeded(r);
    ++t.rows;
  }
  dm->CloseCursor(stmt);
  t.us = NowUs() - t0;
  return t;
}

}  // namespace

std::map<std::string, double> RunLayerProbes(const WorkloadSpec& spec,
                                             const RunOptions& opt) {
  std::map<std::string, double> m;
  SpanRecorder* spans = opt.spans;
  const int64_t report_rows = spec.report_rows;
  Rng rng(opt.seed ^ 0x5EED);
  auto key = [&] { return 1 + static_cast<int64_t>(rng.NextBelow(spec.rows)); };
  auto range_sql = [&](int64_t lo) {
    return "SELECT ID, V FROM ACCT WHERE ID >= " + std::to_string(lo) +
           " AND ID < " + std::to_string(lo + report_rows) + " ORDER BY ID";
  };

  // ---- core / odbc / net, over a unix socket to an in-process server ----
  HostConfig hc;
  hc.data_dir = opt.data_dir + "-probe";
  hc.checkpoint_every_n_commits = spec.checkpoint_every_n_commits;
  auto host = MakeInProcHost(hc);
  std::string err;
  if (host->Start().ok() &&
      LoadTables(host->endpoint(), spec.rows, opt.seed, &err)) {
    net::Network network;
    network.RegisterRemote("probe", host->endpoint());
    core::PhoenixDriverManager phx(&network);
    odbc::DriverManager native(&network);
    odbc::Hdbc* phx_dbc = phx.AllocConnect(phx.AllocEnv());
    odbc::Hdbc* nat_dbc = native.AllocConnect(native.AllocEnv());
    if (odbc::Succeeded(phx.Connect(phx_dbc, "probe", "phx")) &&
        odbc::Succeeded(native.Connect(nat_dbc, "probe", "native"))) {
      odbc::Hstmt* ps = phx.AllocStmt(phx_dbc);
      odbc::Hstmt* ns = native.AllocStmt(nat_dbc);
      std::vector<double> phx_us, nat_us;
      for (int i = 0; i < kPointProbes; ++i) {
        std::string sql = "SELECT ID, V FROM ACCT WHERE ID = " + std::to_string(key());
        phx_us.push_back(Drain(&phx, ps, sql, spans, "core.ExecDirect").us);
        nat_us.push_back(Drain(&native, ns, sql, spans, "odbc.ExecDirect").us);
      }
      m["core.select_overhead_us"] = Median(phx_us) - Median(nat_us);

      // Native reports use a static server cursor fetched in the same
      // block size as Phoenix's own cursor over its result table, so the
      // difference is Phoenix's materialization.
      odbc::Hstmt* cs = native.AllocStmt(nat_dbc);
      native.SetStmtAttr(cs, odbc::StmtAttr::kCursorMode,
                         static_cast<int64_t>(odbc::CursorMode::kStaticCursor));
      native.SetStmtAttr(cs, odbc::StmtAttr::kBlockSize, 64);
      std::vector<double> phx_ms, nat_ms, fetch_per_row;
      for (int i = 0; i < kReportProbes; ++i) {
        int64_t lo = 1 + static_cast<int64_t>(rng.NextBelow(spec.rows - report_rows + 1));
        Timed p = Drain(&phx, ps, range_sql(lo), spans, "core.ExecDirect");
        Timed n = Drain(&native, cs, range_sql(lo), spans, "odbc.ExecDirect");
        phx_ms.push_back(p.us);
        nat_ms.push_back(n.us);
        if (n.rows > 0) fetch_per_row.push_back(n.fetch_us / static_cast<double>(n.rows));
      }
      m["core.materialize_us_per_row"] =
          (Median(phx_ms) - Median(nat_ms)) / static_cast<double>(report_rows);
      m["odbc.fetch_us_per_row"] = Median(fetch_per_row);
      phx.Disconnect(phx_dbc);
      native.Disconnect(nat_dbc);
    }
    auto channel = network.Connect("probe");
    if (channel.ok()) {
      std::vector<double> rtt;
      net::Request ping;
      ping.kind = net::Request::Kind::kPing;
      for (int i = 0; i < kPingProbes; ++i) {
        SpanRecorder::Scope span(spans, "net.Channel.RoundTrip");
        double t0 = NowUs();
        auto reply = channel.value()->RoundTrip(ping);
        if (reply.ok()) rtt.push_back(NowUs() - t0);
      }
      m["net.ping_rtt_us"] = Median(rtt);
      channel.value()->Disconnect();
    }
  }
  host->Stop();

  // ---- engine: an in-process twin over an in-memory disk (no fsync) ----
  {
    storage::SimDisk disk;
    eng::Database db(&disk);
    if (db.Open().ok()) {
      auto sid = db.CreateSession("twin");
      for (const std::string& sql : LoadScript(spec.rows, opt.seed)) {
        db.ExecuteScript(sid.value(), sql);
      }
      auto exec_us = [&](const std::string& sql) {
        SpanRecorder::Scope span(spans, "engine.ExecuteScript");
        double t0 = NowUs();
        db.ExecuteScript(sid.value(), sql);
        return NowUs() - t0;
      };
      std::vector<double> sel, upd, ins;
      for (int i = 0; i < kPointProbes; ++i) {
        sel.push_back(exec_us("SELECT ID, V FROM ACCT WHERE ID = " + std::to_string(key())));
        upd.push_back(exec_us("UPDATE ACCT SET V = V + 1 WHERE ID = " + std::to_string(key())));
      }
      for (int i = 0; i < kReportProbes; ++i) {
        int64_t lo = 1 + static_cast<int64_t>(rng.NextBelow(spec.rows - report_rows + 1));
        db.ExecuteScript(sid.value(), "CREATE TABLE PROBE_IS (ID BIGINT, V BIGINT)");
        ins.push_back(exec_us("INSERT INTO PROBE_IS SELECT ID, V FROM ACCT WHERE ID >= " +
                              std::to_string(lo) + " AND ID < " +
                              std::to_string(lo + report_rows)) /
                      static_cast<double>(report_rows));
        db.ExecuteScript(sid.value(), "DROP TABLE PROBE_IS");
      }
      m["engine.point_select_us"] = Median(sel);
      m["engine.keyed_update_us"] = Median(upd);
      m["engine.insert_select_us_per_row"] = Median(ins);
    }
  }

  // ---- storage: the device floor, on the data dir's filesystem ----
  {
    std::string dir = opt.data_dir + "-fsync";
    if (ResetDir(dir).ok()) {
      storage::SimDisk disk(dir);
      std::string record(128, 'x');
      std::vector<double> sync_us;
      for (int i = 0; i < kFsyncProbes; ++i) {
        disk.Append("probe.wal", record);
        SpanRecorder::Scope span(spans, "storage.SimDisk.Sync");
        double t0 = NowUs();
        if (disk.Sync("probe.wal").ok()) sync_us.push_back(NowUs() - t0);
      }
      m["storage.fsync_us"] = Median(sync_us);
    }
  }
  return m;
}

}  // namespace phxbench
