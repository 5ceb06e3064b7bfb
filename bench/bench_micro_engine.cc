// Google-benchmark microbenchmarks for the substrate pieces: lexer/parser,
// expression evaluation, engine DML and scans, WAL append, wire codec.
// These are not paper artifacts; they exist to keep the substrate honest
// (regressions here distort every paper-level measurement).

#include <algorithm>
#include <map>
#include <memory>

#include "benchmark/benchmark.h"

#include "bench_util.h"

#include "engine/database.h"
#include "net/protocol.h"
#include "sql/parser.h"
#include "storage/wal.h"

namespace phoenix {
namespace {

const char kQ3ish[] =
    "SELECT L_ORDERKEY, SUM(L_EXTENDEDPRICE * (1 - L_DISCOUNT)) AS REVENUE,"
    " O_ORDERDATE, O_SHIPPRIORITY FROM CUSTOMER, ORDERS, LINEITEM"
    " WHERE C_MKTSEGMENT = 'BUILDING' AND C_CUSTKEY = O_CUSTKEY"
    " AND L_ORDERKEY = O_ORDERKEY AND O_ORDERDATE < DATE '1995-03-15'"
    " GROUP BY L_ORDERKEY, O_ORDERDATE, O_SHIPPRIORITY"
    " ORDER BY REVENUE DESC LIMIT 10";

void BM_ParseComplexSelect(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sql::Parser::ParseStatement(kQ3ish);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseComplexSelect);

void BM_ToSqlRoundTrip(benchmark::State& state) {
  auto stmt = sql::Parser::ParseStatement(kQ3ish).take();
  for (auto _ : state) {
    std::string sql = stmt->ToSql();
    benchmark::DoNotOptimize(sql);
  }
}
BENCHMARK(BM_ToSqlRoundTrip);

void BM_ExprEval(benchmark::State& state) {
  auto expr =
      sql::Parser::ParseExpression("(1 + 2 * 3 - 4) % 5 = 2 AND 'abc' LIKE 'a%'")
          .take();
  eng::EvalEnv env;
  for (auto _ : state) {
    auto v = eng::EvalExpr(*expr, env);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExprEval);

struct EngineFixture {
  storage::SimDisk disk;
  eng::Database db{&disk};
  uint64_t sid = 0;
  EngineFixture() {
    (void)db.Open();
    sid = db.CreateSession("bench").take();
    (void)db.ExecuteScript(
        sid, "CREATE TABLE T (K INTEGER PRIMARY KEY, V DOUBLE)");
  }
};

void BM_InsertAutocommit(benchmark::State& state) {
  EngineFixture fx;
  int64_t k = 0;
  for (auto _ : state) {
    auto r = fx.db.ExecuteScript(
        fx.sid, "INSERT INTO T VALUES (" + std::to_string(k++) + ", 1.5)");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertAutocommit);

void BM_ScanFilter(benchmark::State& state) {
  EngineFixture fx;
  std::string values;
  for (int i = 0; i < 10000; ++i) {
    if (i) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i % 13) + ".0)";
  }
  (void)fx.db.ExecuteScript(fx.sid, "INSERT INTO T VALUES " + values);
  for (auto _ : state) {
    auto r = fx.db.ExecuteScript(
        fx.sid, "SELECT K FROM T WHERE V = 7.0 AND K % 2 = 0");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ScanFilter);

/// T loaded with `n` rows, K = 0..n-1. Shared by the keyed benches of one
/// size: each leaves the table with the same keys it found.
EngineFixture& LoadedFixture(int64_t n) {
  static std::map<int64_t, std::unique_ptr<EngineFixture>> fixtures;
  std::unique_ptr<EngineFixture>& fx = fixtures[n];
  if (fx == nullptr) {
    fx = std::make_unique<EngineFixture>();
    for (int64_t base = 0; base < n; base += 10000) {
      std::string values;
      for (int64_t k = base; k < std::min(n, base + 10000); ++k) {
        if (k > base) values += ", ";
        values += "(" + std::to_string(k) + ", 1.5)";
      }
      (void)fx->db.ExecuteScript(fx->sid, "INSERT INTO T VALUES " + values);
    }
  }
  return *fx;
}

/// Visits the keys of an n-row table in a scattered order.
int64_t NextKey(int64_t k, int64_t n) { return (k + 7919) % n; }

void BM_PointSelectPk(benchmark::State& state) {
  int64_t n = state.range(0);
  EngineFixture& fx = LoadedFixture(n);
  int64_t k = 0;
  for (auto _ : state) {
    auto r = fx.db.ExecuteScript(
        fx.sid, "SELECT V FROM T WHERE K = " + std::to_string(k));
    benchmark::DoNotOptimize(r);
    k = NextKey(k, n);
  }
}
BENCHMARK(BM_PointSelectPk)->Arg(10000)->Arg(100000);

void BM_KeyedUpdatePk(benchmark::State& state) {
  int64_t n = state.range(0);
  EngineFixture& fx = LoadedFixture(n);
  int64_t k = 0;
  for (auto _ : state) {
    auto r = fx.db.ExecuteScript(
        fx.sid, "UPDATE T SET V = V + 1 WHERE K = " + std::to_string(k));
    benchmark::DoNotOptimize(r);
    k = NextKey(k, n);
  }
}
BENCHMARK(BM_KeyedUpdatePk)->Arg(10000)->Arg(100000);

/// One iteration deletes a row by key and re-inserts it, so the table
/// keeps its size.
void BM_KeyedDeletePk(benchmark::State& state) {
  int64_t n = state.range(0);
  EngineFixture& fx = LoadedFixture(n);
  int64_t k = 0;
  for (auto _ : state) {
    std::string key = std::to_string(k);
    auto d = fx.db.ExecuteScript(fx.sid, "DELETE FROM T WHERE K = " + key);
    auto i = fx.db.ExecuteScript(fx.sid,
                                 "INSERT INTO T VALUES (" + key + ", 1.5)");
    benchmark::DoNotOptimize(d);
    benchmark::DoNotOptimize(i);
    k = NextKey(k, n);
  }
}
BENCHMARK(BM_KeyedDeletePk)->Arg(10000)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  EngineFixture fx;
  (void)fx.db.ExecuteScript(
      fx.sid, "CREATE TABLE U (K INTEGER PRIMARY KEY, W DOUBLE)");
  std::string tv, uv;
  for (int i = 0; i < 4000; ++i) {
    if (i) {
      tv += ", ";
      uv += ", ";
    }
    tv += "(" + std::to_string(i) + ", 1.0)";
    uv += "(" + std::to_string(i) + ", 2.0)";
  }
  (void)fx.db.ExecuteScript(fx.sid, "INSERT INTO T VALUES " + tv);
  (void)fx.db.ExecuteScript(fx.sid, "INSERT INTO U VALUES " + uv);
  for (auto _ : state) {
    auto r = fx.db.ExecuteScript(
        fx.sid,
        "SELECT COUNT(*) AS N FROM T, U WHERE T.K = U.K AND T.V < U.W");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_HashJoin);

void BM_WalAppendCommit(benchmark::State& state) {
  storage::SimDisk disk;
  storage::WalWriter writer(&disk, "bench.wal");
  storage::WalCommitRecord rec;
  rec.txn_id = 1;
  rec.ops.push_back(storage::WalOp::Insert(
      "T", 1, Row{Value::Int64(1), Value::String("payload-payload")}));
  for (auto _ : state) {
    auto st = writer.AppendCommit(rec);
    benchmark::DoNotOptimize(st);
  }
  state.SetBytesProcessed(static_cast<int64_t>(disk.bytes_written()));
}
BENCHMARK(BM_WalAppendCommit);

void BM_WireCodecRow(benchmark::State& state) {
  net::Response resp;
  resp.kind = net::Response::Kind::kRows;
  for (int i = 0; i < 64; ++i) {
    resp.rows.push_back(Row{Value::Int64(i), Value::Double(i * 1.5),
                            Value::String("col-payload-string")});
  }
  for (auto _ : state) {
    std::string wire = resp.Encode();
    auto back = net::Response::Decode(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_WireCodecRow);

}  // namespace
}  // namespace phoenix

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  phoenix::bench::DumpMetrics("bench_micro_engine");
  return 0;
}
