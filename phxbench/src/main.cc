// phxbench — the Phoenix end-to-end benchmark.
//
//   phxbench --workload oltp|report_pinned|crash_resume --seed N
//            --seconds S --trace 0|1 [--out DIR] [--data DIR]
//            [--server-bin PATH] [--plant skip_ack|shift_resume]
//
// --trace 0 drives a phoenixd child over a unix socket and prints the
// end-to-end metrics. --trace 1 spends half the time on the same untraced
// run and half on a traced replay of the seeded operation stream against
// the same server hosted in this process, then probes each layer, and
// prints the per-layer metrics. Either way the last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and DIR receives result.json (with the configuration the run used), and
// for traced runs spans.json and layers.md. phxbench/README.md defines every
// metric.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/options.h"
#include "workload.h"

namespace phxbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/phxbench-out";
  std::string data_dir = ".bench_build/phxbench-data";
  std::string server_bin;
  std::string plant;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--out") a->out_dir = v;
    else if (k == "--data") a->data_dir = v;
    else if (k == "--server-bin") a->server_bin = v;
    else if (k == "--plant") a->plant = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string DefaultServerBinary() {
  std::error_code ec;
  auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  return (self.parent_path() / "phx_src" / "phoenixd").string();
}

/// The configuration a result was measured under.
JsonObject Config(const Args& args, const WorkloadSpec& spec,
                  const RunOptions& opt) {
  phoenix::Options o = phoenix::Options::FromEnv();
  JsonObject phx;  // the PHX_* settings phoenixd runs with (it inherits env)
  phx.Bool("PHX_GROUP_COMMIT", o.group_commit)
      .Bool("PHX_GC_FLUSHER", o.gc_dedicated_flusher)
      .Int("PHX_GC_MAX_WAIT_US", static_cast<int64_t>(o.gc_max_wait_us))
      .Int("PHX_GC_MAX_BATCH_BYTES", static_cast<int64_t>(o.gc_max_batch_bytes))
      .Bool("PHX_CKPT_BG", o.background_checkpoint)
      .Bool("PHX_INDEX_PLANNER", o.index_planner)
      .Bool("PHX_MVCC", o.mvcc)
      .Int("PHX_RECOVERY_THREADS", static_cast<int64_t>(o.recovery_threads))
      .Int("PHX_CKPT_EVERY", static_cast<int64_t>(spec.checkpoint_every_n_commits))
      .Int("PHX_WORKERS", static_cast<int64_t>(HostConfig{}.worker_threads));
  JsonObject env;  // any PHX_* variable set explicitly
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv = *e;
    size_t eq = kv.find('=');
    if (kv.rfind("PHX_", 0) == 0 && eq != std::string::npos) {
      env.Str(kv.substr(0, eq), kv.substr(eq + 1));
    }
  }
  JsonObject c;
  c.Str("workload", spec.name)
      .Str("why", spec.why)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Num("seconds", args.seconds)
      .Int("trace", args.trace)
      .Int("rows", spec.rows)
      .Int("clients", spec.clients)
      .Int("session_ops", spec.session_ops)
      .Int("pin_window_commits", static_cast<int64_t>(spec.pin_window_commits))
      .Int("cycle_updates", spec.cycle_updates)
      .Int("checkpoint_every_n_commits",
           static_cast<int64_t>(spec.checkpoint_every_n_commits))
      .Int("setups", opt.setups)
      .Obj("phoenixd_settings", phx)
      .Obj("phx_env", env)
      .Str("build_type", PHXBENCH_BUILD_TYPE)
      .Str("git_sha", PHXBENCH_GIT_SHA)
      .Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Str("data_dir_fs", FilesystemOf(opt.data_dir))
      .Int("report_rows", spec.report_rows)
      .Int("crash_probes", spec.crash_cycles ? 0 : opt.crash_probes);
  if (!args.plant.empty()) c.Str("plant", args.plant);
  return c;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (double x : values) out += (out.size() > 1 ? ", " : "") + JsonNumber(x);
  return out + "]";
}

/// The end-to-end metrics every workload has, as the result line carries
/// them. Latency quantiles are taken over all samples of the run;
/// ops_per_s is the window's operations over the window's time.
std::vector<Metric> EndToEnd(const RunResult& r) {
  const Samples& s = r.samples;
  return {
      {"setup_s", "s", Median(r.setup_s)},
      {"ops_per_s", "1/s", r.OpsPerSecond()},
      {"dml_p50_us", "us", Quantile(s.dml_us, 0.5)},
      {"recovery_stall_p50_ms", "ms", Quantile(s.stall_ms, 0.5)},
      {"recovery_stall_p90_ms", "ms", Quantile(s.stall_ms, 0.9)},
      {"server_peak_rss_mb", "MiB", r.peak_rss_mb},
  };
}

/// End-to-end metrics recorded in result.json only, for the workloads
/// whose mix has the operation. Across runs they spread by more than a
/// regression bound can absorb (README.md gives the figures).
JsonObject Recorded(const RunResult& r) {
  const Samples& s = r.samples;
  JsonObject out;
  if (!s.select_us.empty()) {
    out.Num("select_p50_us", Quantile(s.select_us, 0.5))
        .Num("select_p90_us", Quantile(s.select_us, 0.9))
        .Num("select_p99_us", Quantile(s.select_us, 0.99));
  }
  out.Num("dml_p90_us", Quantile(s.dml_us, 0.9))
      .Num("dml_p99_us", Quantile(s.dml_us, 0.99));
  if (!s.report_ms.empty()) {
    out.Num("report_p50_ms", Quantile(s.report_ms, 0.5))
        .Num("report_rows_per_s", Quantile(s.report_rows_per_s, 0.5));
  }
  return out;
}

/// How many samples each latency metric rests on.
JsonObject SampleCounts(const RunResult& r) {
  const Samples& s = r.samples;
  return JsonObject()
      .Int("select", static_cast<int64_t>(s.select_us.size()))
      .Int("dml", static_cast<int64_t>(s.dml_us.size()))
      .Int("report", static_cast<int64_t>(s.report_ms.size()))
      .Int("stall", static_cast<int64_t>(s.stall_ms.size()));
}

/// Per-layer metrics, each with the end-to-end metric (and workload) it
/// should move.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::string drives;
  double value;
};

std::vector<LayerMetric> PerLayer(const RunResult& u, const RunResult& t,
                                  std::map<std::string, double> probe) {
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto net = [&](const char* kind) {
    auto it = t.net_by_kind.find(kind);
    return it == t.net_by_kind.end() ? RunResult::OpNet{} : it->second;
  };
  double net_ops = 0, net_bytes = 0;
  for (const auto& [kind, n] : t.net_by_kind) {
    net_ops += n.ops;
    net_bytes += n.bytes;
  }
  auto counter = [&](const char* name) {
    auto it = t.window_counters.find(name);
    return it == t.window_counters.end() ? 0.0 : it->second;
  };
  const double ops = static_cast<double>(t.window_ops);
  return {
      {"core.select_overhead_us", "us", "select_p50_us (oltp)",
       probe["core.select_overhead_us"]},
      {"core.round_trips_per_select", "count", "select_p50_us, ops_per_s (oltp)",
       per(net("select").round_trips, net("select").ops)},
      {"core.round_trips_per_dml", "count", "dml_p50_us, ops_per_s (oltp)",
       per(net("dml").round_trips, net("dml").ops)},
      {"core.materialize_us_per_row", "us", "report_rows_per_s (report_pinned)",
       probe["core.materialize_us_per_row"]},
      {"core.recovery_virtual_session_ms", "ms",
       "recovery_stall_p50_ms (crash_resume)", Median(t.recovery_vs_ms)},
      {"core.recovery_sql_state_ms", "ms", "recovery_stall_p50_ms (crash_resume)",
       Median(t.recovery_sql_ms)},
      {"core.reconnect_attempts_per_recovery", "count",
       "recovery_stall_p90_ms (crash_resume)", Mean(t.reconnects)},
      {"odbc.fetch_us_per_row", "us", "report_rows_per_s (report_pinned)",
       probe["odbc.fetch_us_per_row"]},
      {"net.ping_rtt_us", "us", "latency floor of every workload",
       probe["net.ping_rtt_us"]},
      {"net.bytes_per_op", "B", "ops_per_s (oltp), report_rows_per_s",
       per(net_bytes, net_ops)},
      {"server.restart_ms", "ms", "recovery_stall_p50_ms (crash_resume)",
       Median(u.restart_ms)},
      {"server.queue_depth_p99", "count", "ops_per_s, select_p50_us (oltp)",
       Quantile(t.queue_depth, 0.99)},
      {"engine.point_select_us", "us", "select_p50_us (oltp)",
       probe["engine.point_select_us"]},
      {"engine.keyed_update_us", "us", "dml_p50_us (oltp)",
       probe["engine.keyed_update_us"]},
      {"engine.insert_select_us_per_row", "us",
       "report_rows_per_s (report_pinned)",
       probe["engine.insert_select_us_per_row"]},
      {"engine.statements_per_op", "count", "ops_per_s (oltp)",
       per(counter("engine.statements_executed"), ops)},
      {"engine.mvcc_versions_live", "count",
       "server_peak_rss_mb, dml_p50_us (report_pinned)",
       Mean(t.mvcc_versions_live)},
      {"engine.versions_reclaimed_per_commit", "count",
       "dml_p50_us (report_pinned)",
       per(counter("engine.mvcc.versions_reclaimed"), t.window_commits)},
      {"storage.fsync_us", "us", "dml_p50_us (oltp)", probe["storage.fsync_us"]},
      {"storage.wal_syncs_per_commit", "count", "dml_p50_us, ops_per_s (oltp)",
       per(counter("storage.wal.syncs"), t.window_commits)},
      {"storage.wal_bytes_per_op", "B", "ops_per_s (oltp)",
       per(counter("storage.wal.bytes"), ops)},
      {"storage.checkpoint_ms", "ms", "dml_p50_us (oltp), dml p99 in result.json",
       t.checkpoint_ms},
      {"storage.wal_bytes_at_crash", "B", "recovery_stall_p50_ms (crash_resume)",
       Median(t.wal_bytes_at_crash)},
      {"storage.recovery_replay_ms", "ms", "recovery_stall_p50_ms (crash_resume)",
       Median(t.replay_ms)},
      {"storage.checkpoint_load_ms", "ms", "recovery_stall_p50_ms (crash_resume)",
       Median(t.checkpoint_load_ms)},
  };
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream(path) << body;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Metrics as the result line carries them.
template <typename M>
JsonObject MetricsJson(const std::vector<M>& metrics) {
  JsonObject out;
  for (const M& m : metrics) {
    out.Obj(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit));
  }
  return out;
}

/// The traced half of a --trace 1 run: replays the workload against an
/// in-process server with spans on, probes the layers, writes layers.md
/// and spans.json, and returns the per-layer metrics. `result` receives
/// them and the traced-versus-untraced overhead.
std::vector<LayerMetric> TracedRun(const WorkloadSpec& spec,
                                   const RunOptions& opt,
                                   const RunResult& untraced,
                                   const std::string& out_dir,
                                   RunResult* traced, JsonObject* result) {
  SpanRecorder spans;
  RunOptions topt = opt;
  topt.in_process = true;
  topt.spans = &spans;
  topt.data_dir = opt.data_dir + "-traced";
  RunWorkload(spec, topt, traced);
  std::vector<LayerMetric> layers =
      PerLayer(untraced, *traced, RunLayerProbes(spec, topt));
  result->Obj("per_layer", MetricsJson(layers));

  std::string table = "# phxbench per-layer table: " + out_dir + "\n\n" +
                      "| metric | value | unit | should move |\n"
                      "|---|---|---|---|\n";
  for (const LayerMetric& m : layers) {
    table += "| " + m.name + " | " + Fmt(m.value) + " | " + m.unit + " | " +
             m.drives + " |\n";
  }
  // Tracing-and-hosting overhead: the same end-to-end metrics, traced
  // in-process against untraced over phoenixd.
  table +=
      "\n## Traced (in-process server, spans on) vs untraced (phoenixd)\n\n"
      "| metric | untraced | traced | overhead |\n|---|---|---|---|\n";
  std::vector<Metric> eu = EndToEnd(untraced), et = EndToEnd(*traced);
  JsonObject overhead;
  for (size_t i = 0; i < eu.size(); ++i) {
    double pct = eu[i].value != 0 ? (et[i].value / eu[i].value - 1) * 100 : 0;
    overhead.Obj(eu[i].name, JsonObject()
                                 .Num("untraced", eu[i].value)
                                 .Num("traced", et[i].value)
                                 .Num("overhead_pct", pct));
    table += "| " + eu[i].name + " (" + eu[i].unit + ") | " +
             Fmt(eu[i].value) + " | " + Fmt(et[i].value) + " | " + Fmt(pct) +
             "% |\n";
  }
  result->Obj("trace_overhead", overhead);
  table += "\n## Spans (bench-side, around calls into each layer)\n\n"
           "| span | count | total ms | self ms |\n|---|---|---|---|\n";
  for (const auto& [name, t] : spans.Totals()) {
    table += "| " + name + " | " + std::to_string(t.count) + " | " +
             Fmt(t.total_us / 1e3) + " | " + Fmt(t.self_us / 1e3) + " |\n";
  }
  WriteFile(out_dir + "/layers.md", table);
  WriteFile(out_dir + "/spans.json", spans.ExportChromeJson());
  std::fprintf(stderr, "%s", table.c_str());
  return layers;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: phxbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--data DIR] [--server-bin PATH] "
                 "[--plant skip_ack|shift_resume]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "phxbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::string out_dir = args.out_dir + "/" + spec->name + "-seed" +
                        std::to_string(args.seed) + "-trace" +
                        std::to_string(args.trace);
  std::filesystem::create_directories(out_dir);
  std::filesystem::create_directories(args.data_dir);

  RunOptions opt;
  opt.seed = args.seed;
  opt.seconds = args.seconds;
  opt.data_dir = args.data_dir + "/" + spec->name;
  opt.server_binary =
      args.server_bin.empty() ? DefaultServerBinary() : args.server_bin;
  opt.plant = args.plant;
  if (args.trace == 1) {
    // Half the time untraced on phoenixd, half traced in-process.
    opt.seconds = args.seconds / 2;
    opt.setups = 1;
  }
  JsonObject config = Config(args, *spec, opt);
  std::printf("PHXBENCH_CONFIG %s\n", config.str().c_str());
  std::fflush(stdout);
  JsonObject result;
  result.Obj("config", config);

  RunResult untraced, traced;
  bool ran = RunWorkload(*spec, opt, &untraced);
  std::vector<Metric> e2e = EndToEnd(untraced);
  JsonObject metrics = MetricsJson(e2e);
  result.Obj("metrics", metrics);
  if (args.trace == 1) {
    metrics = MetricsJson(
        TracedRun(*spec, opt, untraced, out_dir, &traced, &result));
  }
  Verdict verdict = untraced.verdict;
  verdict.Merge(traced.verdict);
  bool correct = ran && verdict.ok;
  uint64_t attempted = untraced.attempted + traced.attempted;
  uint64_t failed = untraced.failed + traced.failed;
  double failed_frac = attempted > 0 ? static_cast<double>(failed) /
                                           static_cast<double>(attempted)
                                     : 0;
  result.Bool("correct", correct)
      .Str("why", verdict.why)
      .Int("attempted", static_cast<int64_t>(attempted))
      .Int("failed", static_cast<int64_t>(failed))
      .Num("failed_ops_frac", failed_frac)
      .Obj("recorded", Recorded(untraced))
      .Obj("samples", SampleCounts(untraced))
      .Raw("ops_per_s_by_block", JsonArray(untraced.block_rates));
  WriteFile(out_dir + "/result.json", result.str() + "\n");

  if (!correct) {
    std::fprintf(stderr, "phxbench: check failed: %s\n", verdict.why.c_str());
  }
  std::fprintf(stderr,
               "phxbench: %s seed %llu: failed_ops_frac %g, samples %s, "
               "ops/s by block %s; result in %s\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               failed_frac, SampleCounts(untraced).str().c_str(),
               JsonArray(untraced.block_rates).c_str(), out_dir.c_str());
  for (const Metric& m : e2e) {
    std::fprintf(stderr, "  %-24s %12.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", static_cast<int64_t>(attempted))
                          .Int("failed", static_cast<int64_t>(failed))
                          .Obj("metrics", metrics)
                          .str()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace phxbench

int main(int argc, char** argv) { return phxbench::Main(argc, argv); }
