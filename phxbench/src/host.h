#ifndef PHXBENCH_HOST_H_
#define PHXBENCH_HOST_H_

// Where the benchmarked server lives. The untraced runs drive a real
// phoenixd child (ProcessHost); the traced run hosts the same server inside
// the benchmark process (InProcHost), wired the way src/server/main.cc wires
// phoenixd, so the server-side MetricsRegistry can be read.

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/db_server.h"

namespace phxbench {

using phoenix::Status;

struct HostConfig {
  /// Durable state directory; created empty by Start().
  std::string data_dir;
  /// Auto-checkpoint cadence (PHX_CKPT_EVERY), fixed by the benchmark.
  uint64_t checkpoint_every_n_commits = 0;
  /// Dispatcher workers; phoenixd's default.
  uint64_t worker_threads = 4;
  /// phoenixd binary (ProcessHost only).
  std::string server_binary;
};

class Host {
 public:
  virtual ~Host() = default;
  /// Boots a server over an emptied data dir.
  virtual Status Start() = 0;
  /// Process death: SIGKILL for the child, crash + teardown in-process.
  virtual void Kill() = 0;
  /// Boots a fresh incarnation over the same data dir and endpoint.
  virtual Status Restart() = 0;
  /// Graceful shutdown.
  virtual void Stop() = 0;
  virtual bool running() = 0;
  virtual std::string endpoint() const = 0;
  /// Peak resident set of the server so far, over all incarnations (MiB).
  virtual double PeakRssMb() = 0;
  /// The in-process server, or nullptr for a child process.
  virtual phoenix::net::DbServer* server() { return nullptr; }
  /// Commits over all incarnations so far (in-process only; 0 otherwise).
  virtual uint64_t commits() { return 0; }

 protected:
  explicit Host(HostConfig config) : config_(std::move(config)) {}
  HostConfig config_;
};

std::unique_ptr<Host> MakeProcessHost(HostConfig config);
std::unique_ptr<Host> MakeInProcHost(HostConfig config);

/// VmHWM of `pid` ("self" for this process) in MiB, 0 when unreadable.
double ReadVmHwmMb(const std::string& pid);
/// Removes and recreates a flat directory.
Status ResetDir(const std::string& dir);
/// Size of `path` in bytes, 0 when absent.
uint64_t FileSize(const std::string& path);
/// Filesystem type of the mount holding `path` (from /proc/self/mounts).
std::string FilesystemOf(const std::string& path);

}  // namespace phxbench

#endif  // PHXBENCH_HOST_H_
