#include "net/process_server.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

extern char** environ;

namespace phoenix::net {

namespace {

std::string DirName(const std::string& path) {
  size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool Executable(const std::string& path) {
  return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

}  // namespace

std::string FindServerBinary(const std::string& explicit_path) {
  if (Executable(explicit_path)) return explicit_path;
  const char* env = std::getenv("PHX_SERVER_BIN");
  if (env != nullptr && Executable(env)) return env;
  // Fall back to build-tree-relative guesses so a bare
  // `./chaos_matrix_test` repro run from build/tests still finds it.
  std::string self(4096, '\0');
  ssize_t n = ::readlink("/proc/self/exe", self.data(), self.size() - 1);
  if (n > 0) {
    self.resize(static_cast<size_t>(n));
    std::string dir = DirName(self);
    for (const char* rel : {"/../src/phoenixd", "/phoenixd", "/src/phoenixd"}) {
      std::string candidate = dir + rel;
      if (Executable(candidate)) return candidate;
    }
  }
  for (const char* rel : {"../src/phoenixd", "./src/phoenixd", "./phoenixd"}) {
    if (Executable(rel)) return rel;
  }
  return "";
}

ProcessServerHandle::~ProcessServerHandle() {
  Kill();
  ClosePipes();
}

void ProcessServerHandle::ClosePipes() {
  StopWatcher();
  for (int* fd : {&notify_read_fd_, &rendezvous_read_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

Status ProcessServerHandle::Start() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pid_ > 0 && !reaped_) {
      return Status::Internal("phoenixd already running (pid " +
                              std::to_string(pid_) + ")");
    }
  }
  if (opts_.data_dir.empty()) {
    return Status::InvalidArgument("ProcessServerOptions.data_dir is required");
  }
  std::string endpoint = endpoint_;  // restart: reuse the resolved address
  if (endpoint.empty()) endpoint = opts_.endpoint;
  if (endpoint.empty()) {
    std::string sock = opts_.server_id > 0
                           ? "phoenixd." + std::to_string(opts_.server_id) +
                                 ".sock"
                           : "phoenixd.sock";
    endpoint = (opts_.transport == "tcp")
                   ? "tcp:127.0.0.1:0"
                   : "unix:" + opts_.data_dir + "/" + sock;
  }
  PHX_RETURN_IF_ERROR(Spawn(endpoint));
  if (arm_on_start_) {
    // Arm against the freshly-spawned child's pipes — a "recovery"
    // rendezvous fires before READY, so arming after WaitReady is too late.
    arm_on_start_ = false;
    ArmKillOnRendezvous();
  }
  Status ready = WaitReady();
  if (!ready.ok()) {
    Kill();
    return ready;
  }
  return Status::Ok();
}

Status ProcessServerHandle::Spawn(const std::string& endpoint) {
  std::string binary = FindServerBinary(opts_.binary);
  if (binary.empty()) {
    return Status::NotFound(
        "phoenixd binary not found (set PHX_SERVER_BIN or "
        "ProcessServerOptions.binary)");
  }
  ClosePipes();

  // Plain pipes (no CLOEXEC): the child inherits the write ends across
  // exec and learns their numbers from the environment.
  int notify[2] = {-1, -1};
  int rendezvous[2] = {-1, -1};
  if (::pipe(notify) != 0 || ::pipe(rendezvous) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }

  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.push_back(*e);
  auto put_env = [&env_strings](const std::string& name,
                                const std::string& value) {
    const std::string prefix = name + "=";
    for (std::string& entry : env_strings) {
      if (entry.rfind(prefix, 0) == 0) {
        entry = prefix + value;
        return;
      }
    }
    env_strings.push_back(prefix + value);
  };
  put_env("PHX_LISTEN", endpoint);
  put_env("PHX_DATA_DIR", opts_.data_dir);
  put_env("PHX_NOTIFY_FD", std::to_string(notify[1]));
  put_env("PHX_RENDEZVOUS_FD", std::to_string(rendezvous[1]));
  put_env("PHX_CKPT_EVERY", std::to_string(opts_.checkpoint_every_n_commits));
  if (opts_.server_id > 0) {
    put_env("PHX_SERVER_ID", std::to_string(opts_.server_id));
  }
  if (opts_.worker_threads > 0) {
    put_env("PHX_WORKERS", std::to_string(opts_.worker_threads));
  }
  if (!opts_.rendezvous.empty()) put_env("PHX_RENDEZVOUS", opts_.rendezvous);
  for (const auto& [name, value] : opts_.env) put_env(name, value);

  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (std::string& entry : env_strings) envp.push_back(entry.data());
  envp.push_back(nullptr);
  std::vector<char*> argv;
  argv.push_back(binary.data());
  argv.push_back(nullptr);

  pid_t pid = -1;
  int rc = ::posix_spawn(&pid, binary.c_str(), nullptr, nullptr, argv.data(),
                         envp.data());
  // Parent keeps only the read ends.
  ::close(notify[1]);
  ::close(rendezvous[1]);
  if (rc != 0) {
    ::close(notify[0]);
    ::close(rendezvous[0]);
    return Status::IoError(std::string("posix_spawn ") + binary + ": " +
                           std::strerror(rc));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    pid_ = pid;
    reaped_ = false;
    notify_read_fd_ = notify[0];
    rendezvous_read_fd_ = rendezvous[0];
  }
  return Status::Ok();
}

Status ProcessServerHandle::WaitReady() {
  // The child writes one line — "READY <endpoint>\n" — once it is
  // listening with a recovered database. EOF first means it died booting.
  std::string line;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      static_cast<int64_t>(opts_.ready_timeout_s * 1000));
  while (true) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return Status::Timeout("phoenixd did not become ready in time");
    }
    pollfd pfd{notify_read_fd_, POLLIN, 0};
    int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (pr == 0) {
      return Status::Timeout("phoenixd did not become ready in time");
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    char buf[256];
    ssize_t n = ::read(notify_read_fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      ReapIfExited(/*block=*/true);
      return Status::CommError("phoenixd died before becoming ready");
    }
    line.append(buf, static_cast<size_t>(n));
    size_t nl = line.find('\n');
    if (nl == std::string::npos) continue;
    line.resize(nl);
    if (line.rfind("READY ", 0) != 0) {
      return Status::Internal("unexpected phoenixd greeting: " + line);
    }
    endpoint_ = line.substr(6);
    return Status::Ok();
  }
}

void ProcessServerHandle::ReapIfExited(bool block) {
  // Caller does NOT hold mu_.
  std::lock_guard<std::mutex> lk(mu_);
  if (pid_ <= 0 || reaped_) return;
  int status = 0;
  pid_t r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  if (r == pid_) reaped_ = true;
}

bool ProcessServerHandle::running() {
  ReapIfExited(/*block=*/false);
  std::lock_guard<std::mutex> lk(mu_);
  return pid_ > 0 && !reaped_;
}

void ProcessServerHandle::Kill() {
  StopWatcher();
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pid_ <= 0 || reaped_) return;
    pid = pid_;
  }
  ::kill(pid, SIGKILL);
  ReapIfExited(/*block=*/true);
}

Status ProcessServerHandle::Terminate(double timeout_s) {
  StopWatcher();
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pid_ <= 0 || reaped_) return Status::Ok();
    pid = pid_;
  }
  ::kill(pid, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      static_cast<int64_t>(timeout_s * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    ReapIfExited(/*block=*/false);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (reaped_) return Status::Ok();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  ReapIfExited(/*block=*/true);
  return Status::Timeout("phoenixd ignored SIGTERM; killed");
}

Status ProcessServerHandle::Restart() {
  if (running()) {
    return Status::Internal("phoenixd still running; Kill/Terminate first");
  }
  return Start();
}

void ProcessServerHandle::ArmKillOnRendezvous() {
  if (watcher_armed_.exchange(true)) return;
  int stop[2] = {-1, -1};
  if (::pipe(stop) != 0) {
    watcher_armed_.store(false);
    return;
  }
  watcher_stop_fd_ = stop[1];
  watcher_stop_read_ = stop[0];
  int rdv_fd = rendezvous_read_fd_;
  int stop_read = stop[0];
  watcher_ = std::thread([this, rdv_fd, stop_read] {
    pollfd pfds[2] = {{rdv_fd, POLLIN, 0}, {stop_read, POLLIN, 0}};
    while (true) {
      int pr = ::poll(pfds, 2, -1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (pfds[1].revents != 0) return;  // disarmed
      if (pfds[0].revents & POLLIN) {
        char byte = 0;
        ssize_t n = ::read(rdv_fd, &byte, 1);
        if (n <= 0) return;  // child gone; write end closed
        // The child is parked inside its fsync (or checkpoint rename, or
        // request dispatch), holding the rendezvous. Kill it there.
        pid_t pid = -1;
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (pid_ > 0 && !reaped_) pid = pid_;
        }
        if (pid > 0) {
          // Count first: a caller polling running() may reap the child and
          // read the counter before this thread runs again after kill().
          rendezvous_kills_.fetch_add(1);
          ::kill(pid, SIGKILL);
        }
        return;
      }
      if (pfds[0].revents != 0) return;  // HUP/ERR: child died unsignaled
    }
  });
}

void ProcessServerHandle::StopWatcher() {
  if (!watcher_armed_.load()) return;
  if (watcher_stop_fd_ >= 0) {
    char byte = 'q';
    [[maybe_unused]] ssize_t n = ::write(watcher_stop_fd_, &byte, 1);
  }
  if (watcher_.joinable()) watcher_.join();
  if (watcher_stop_fd_ >= 0) {
    ::close(watcher_stop_fd_);
    watcher_stop_fd_ = -1;
  }
  if (watcher_stop_read_ >= 0) {
    ::close(watcher_stop_read_);
    watcher_stop_read_ = -1;
  }
  watcher_armed_.store(false);
}

bool ProcessServerHandle::WaitRendezvousKill(double timeout_s) {
  // "The child died" is the observable; whether the armed rendezvous
  // specifically fired is rendezvous_kills(). (A child can also die by the
  // failsafe _exit if the parent lost the race — still a death.)
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      static_cast<int64_t>(timeout_s * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    if (!running()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace phoenix::net
