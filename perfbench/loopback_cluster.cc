#include "loopback_cluster.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Live daemon pids for the signal handler; 0 marks a free slot. Lock-free
// atomics keep the handler async-signal-safe.
std::array<std::atomic<pid_t>, 32> g_live{};

void Register(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void KillAndReapAll() {
  for (auto& slot : g_live) {
    const pid_t pid = slot.exchange(0);
    if (pid <= 0) continue;
    ::kill(-pid, SIGKILL);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
}

void OnFatalSignal(int sig) {
  KillAndReapAll();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

std::uint16_t PickPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      port = ntohs(bound.sin_port);
    }
  }
  ::close(fd);
  return port;
}

constexpr auto kReadyTimeout = std::chrono::seconds(20);
constexpr auto kStopGrace = std::chrono::seconds(2);
constexpr std::size_t kLogKeep = 8192;
constexpr int kSpawnAttempts = 3;

}  // namespace

void InstallDaemonReaper() {
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGABRT, SIGSEGV, SIGBUS}) {
    ::signal(sig, OnFatalSignal);
  }
  std::atexit(KillAndReapAll);
}

LoopbackCluster::LoopbackCluster(std::string hotmand)
    : hotmand_(std::move(hotmand)) {}

LoopbackCluster::~LoopbackCluster() { Stop(); }

bool LoopbackCluster::Start(std::string* error) {
  bool up = false;
  for (int attempt = 0; attempt < kSpawnAttempts && !up; ++attempt) {
    if (SpawnAll(error)) up = WaitReady(error);
    if (!up) Stop();
  }
  if (!up) return false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    hotman::net::RemoteClientConfig config;
    config.port = nodes_[i].port;
    config.name = "pb-stats-" + std::to_string(::getpid()) + "-" +
                  std::to_string(nodes_[i].port);
    config.op_timeout = 5 * hotman::kMicrosPerSecond;
    stats_clients_.push_back(
        std::make_unique<hotman::net::RemoteClient>(config));
  }
  return true;
}

bool LoopbackCluster::SpawnAll(std::string* error) {
  nodes_.clear();
  nodes_.resize(3);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].port = PickPort();
    if (nodes_[i].port == 0) {
      *error = "no free loopback port";
      return false;
    }
    nodes_[i].name =
        "db" + std::to_string(i + 1) + ":" + std::to_string(nodes_[i].port);
  }
  const pid_t parent = ::getpid();
  for (Node& node : nodes_) {
    std::vector<std::string> args = {
        hotmand_, "--node", node.name,
        "--listen", "127.0.0.1:" + std::to_string(node.port),
        "--seeds", nodes_[0].name,
        "--n", "3", "--w", "2", "--r", "1", "--shards", "1"};
    for (const Node& peer : nodes_) {
      args.push_back("--peer");
      args.push_back(peer.name + "=127.0.0.1:" + std::to_string(peer.port));
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      *error = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec.
      ::setpgid(0, 0);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      ::dup2(pipefd[1], STDERR_FILENO);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execv(hotmand_.c_str(), argv.data());
      ::_exit(127);
    }
    ::setpgid(pid, pid);
    Register(pid);
    ::close(pipefd[1]);
    node.pid = pid;
    node.err_fd = pipefd[0];
  }
  drainer_ = std::thread([this] { DrainLoop(); });
  return true;
}

bool LoopbackCluster::WaitReady(std::string* error) {
  std::unique_lock<std::mutex> lock(mu_);
  auto all_ready = [this] {
    for (const Node& n : nodes_) {
      if (!n.ready) return false;
    }
    return true;
  };
  ready_cv_.wait_until(lock, Clock::now() + kReadyTimeout, [&] {
    for (const Node& n : nodes_) {
      if (!n.ready && n.err_fd < 0) return true;  // exited before ready
    }
    return all_ready();
  });
  if (all_ready()) return true;
  *error = "a daemon did not print its readiness line";
  for (const Node& n : nodes_) {
    if (!n.ready) *error += "; " + n.name + " said: " + n.log;
  }
  return false;
}

void LoopbackCluster::DrainLoop() {
  std::vector<std::string> partial(nodes_.size());
  char buf[4096];
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].err_fd >= 0) {
          fds.push_back({nodes_[i].err_fd, POLLIN, 0});
          owner.push_back(i);
        }
      }
    }
    if (fds.empty()) return;
    if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const ssize_t n = ::read(fds[k].fd, buf, sizeof(buf));
      std::lock_guard<std::mutex> lock(mu_);
      Node& node = nodes_[owner[k]];
      if (n <= 0) {
        ::close(node.err_fd);
        node.err_fd = -1;
        ready_cv_.notify_all();
        continue;
      }
      std::string& line = partial[owner[k]];
      line.append(buf, static_cast<std::size_t>(n));
      for (std::size_t nl; (nl = line.find('\n')) != std::string::npos;) {
        const std::string text = line.substr(0, nl);
        line.erase(0, nl + 1);
        if (text.find(" serving on ") != std::string::npos) node.ready = true;
        node.log += text + "\n";
        if (node.log.size() > kLogKeep) {
          node.log.erase(0, node.log.size() - kLogKeep);
        }
      }
      ready_cv_.notify_all();
    }
  }
}

void LoopbackCluster::Stop() {
  stats_clients_.clear();
  for (Node& node : nodes_) {
    if (node.pid > 0) ::kill(node.pid, SIGTERM);
  }
  const auto deadline = Clock::now() + kStopGrace;
  for (Node& node : nodes_) {
    while (node.pid > 0) {
      if (::waitpid(node.pid, nullptr, WNOHANG) == node.pid) {
        Unregister(node.pid);
        node.pid = -1;
      } else if (Clock::now() >= deadline) {
        ::kill(-node.pid, SIGKILL);
        ::kill(node.pid, SIGKILL);
        ::waitpid(node.pid, nullptr, 0);
        Unregister(node.pid);
        node.pid = -1;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
  if (drainer_.joinable()) drainer_.join();
  for (Node& node : nodes_) {
    if (node.err_fd >= 0) ::close(node.err_fd);
    node.err_fd = -1;
  }
}

bool LoopbackCluster::Stats(std::size_t i, std::string* json, int* timeouts) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto r = stats_clients_[i]->Stats(nodes_[i].name);
    if (r.ok()) {
      *json = std::move(*r);
      return true;
    }
    if (r.status().IsTimeout()) ++*timeouts;
  }
  return false;
}

double LoopbackCluster::CpuSeconds(std::size_t i) const {
  std::ifstream in("/proc/" + std::to_string(nodes_[i].pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  // After "pid (comm) " the fields start at #3 (state); utime is #14 and
  // stime #15.
  for (int k = 3; k <= 15 && (fields >> field); ++k) {
    if (k >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double LoopbackCluster::PeakRssMb(std::size_t i) const {
  std::ifstream in("/proc/" + std::to_string(nodes_[i].pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
