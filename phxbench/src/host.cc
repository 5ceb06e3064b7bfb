#include "host.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "net/process_server.h"
#include "net/socket_transport.h"
#include "storage/sim_disk.h"

namespace phxbench {

namespace net = phoenix::net;
namespace storage = phoenix::storage;

double ReadVmHwmMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  return Status::Ok();
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

std::string FilesystemOf(const std::string& path) {
  std::error_code ec;
  std::string abs = std::filesystem::weakly_canonical(path, ec).string();
  std::ifstream in("/proc/self/mounts");
  std::string line, best_dir, best_type = "unknown";
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string dev, dir, type;
    fields >> dev >> dir >> type;
    bool under = abs == dir || dir == "/" ||
                 (abs.rfind(dir, 0) == 0 && abs.size() > dir.size() &&
                  abs[dir.size()] == '/');
    if (under && dir.size() >= best_dir.size()) {
      best_dir = dir;
      best_type = type;
    }
  }
  return best_type;
}

namespace {

/// A phoenixd child process.
class ProcessHost final : public Host {
 public:
  explicit ProcessHost(HostConfig config) : Host(std::move(config)) {}
  ~ProcessHost() override { Stop(); }

  Status Start() override {
    PHX_RETURN_IF_ERROR(ResetDir(config_.data_dir));
    net::ProcessServerOptions opts;
    opts.binary = config_.server_binary;
    opts.transport = "unix";
    opts.data_dir = config_.data_dir;
    opts.checkpoint_every_n_commits = config_.checkpoint_every_n_commits;
    opts.worker_threads = config_.worker_threads;
    handle_ = std::make_unique<net::ProcessServerHandle>(opts);
    return handle_->Start();
  }
  void Kill() override {
    NoteRss();
    handle_->Kill();
  }
  Status Restart() override { return handle_->Restart(); }
  void Stop() override {
    if (handle_ == nullptr) return;
    NoteRss();
    handle_->Terminate(5.0);
    handle_.reset();
  }
  bool running() override { return handle_ != nullptr && handle_->running(); }
  std::string endpoint() const override { return handle_->endpoint(); }
  double PeakRssMb() override {
    NoteRss();
    return peak_mb_;
  }

 private:
  void NoteRss() {
    if (running()) {
      peak_mb_ = std::max(peak_mb_, ReadVmHwmMb(std::to_string(handle_->pid())));
    }
  }

  std::unique_ptr<net::ProcessServerHandle> handle_;
  double peak_mb_ = 0;
};

/// The same server inside this process: a DbServer over a backing-dir
/// SimDisk behind a SocketServer on a unix socket, with phoenixd's durable
/// boot counter partitioning session ids across incarnations.
class InProcHost final : public Host {
 public:
  explicit InProcHost(HostConfig config) : Host(std::move(config)) {}
  ~InProcHost() override { Stop(); }

  Status Start() override {
    PHX_RETURN_IF_ERROR(ResetDir(config_.data_dir));
    endpoint_ = "unix:" + config_.data_dir + "/phoenixd.sock";
    return Boot();
  }
  void Kill() override {
    if (db_server_ == nullptr) return;
    sockets_->Shutdown();
    past_commits_ += db_server_->database()->commit_count();
    db_server_->Crash();
    sockets_.reset();
    db_server_.reset();
    disk_.reset();
  }
  Status Restart() override { return Boot(); }
  void Stop() override {
    if (sockets_ != nullptr) sockets_->Shutdown();
    sockets_.reset();
    db_server_.reset();
    disk_.reset();
  }
  bool running() override { return db_server_ != nullptr; }
  std::string endpoint() const override { return endpoint_; }
  double PeakRssMb() override { return ReadVmHwmMb("self"); }
  net::DbServer* server() override { return db_server_.get(); }
  uint64_t commits() override {
    return past_commits_ +
           (db_server_ ? db_server_->database()->commit_count() : 0);
  }

 private:
  Status Boot() {
    disk_ = std::make_unique<storage::SimDisk>(config_.data_dir);
    uint64_t boot = 1;
    auto prev = disk_->ReadDurable("phxd.boot");
    if (prev.ok()) boot = std::strtoull(prev.value().c_str(), nullptr, 10) + 1;
    PHX_RETURN_IF_ERROR(disk_->WriteAtomic("phxd.boot", std::to_string(boot)));
    net::ServerOptions opts;
    opts.db.checkpoint_every_n_commits = config_.checkpoint_every_n_commits;
    opts.worker_threads = config_.worker_threads;
    opts.first_session_id = (boot & 0xFFFFFF) << 32;
    opts.initial_epoch = boot - 1;
    db_server_ = std::make_unique<net::DbServer>(disk_.get(), opts);
    PHX_RETURN_IF_ERROR(db_server_->Start());
    sockets_ = std::make_unique<net::SocketServer>(db_server_.get());
    return sockets_->Start(endpoint_);
  }

  std::string endpoint_;
  std::unique_ptr<storage::SimDisk> disk_;
  std::unique_ptr<net::DbServer> db_server_;
  std::unique_ptr<net::SocketServer> sockets_;
  uint64_t past_commits_ = 0;  ///< of incarnations already killed
};

}  // namespace

std::unique_ptr<Host> MakeProcessHost(HostConfig config) {
  return std::make_unique<ProcessHost>(std::move(config));
}

std::unique_ptr<Host> MakeInProcHost(HostConfig config) {
  return std::make_unique<InProcHost>(std::move(config));
}

}  // namespace phxbench
