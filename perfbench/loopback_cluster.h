// Three `hotmand` processes on loopback, owned by the benchmark: spawned in
// their own process group with PR_SET_PDEATHSIG, ready once each has
// printed its "serving on" line, and killed and reaped on every exit path
// of the benchmark (normal return, error, SIGINT/SIGTERM, abort).

#ifndef HOTMAN_PERFBENCH_LOOPBACK_CLUSTER_H_
#define HOTMAN_PERFBENCH_LOOPBACK_CLUSTER_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/remote_client.h"

namespace perfbench {

/// Kills and reaps every live daemon when the benchmark is interrupted or
/// aborts, then lets the signal take its default course. Call once, early.
void InstallDaemonReaper();

class LoopbackCluster {
 public:
  struct Node {
    std::string name;  ///< cluster endpoint, e.g. "db1:40123"
    std::uint16_t port = 0;
    pid_t pid = -1;
    int err_fd = -1;   ///< read end of the daemon's stderr
    bool ready = false;
    std::string log;   ///< stderr kept for error reports (bounded)
  };

  explicit LoopbackCluster(std::string hotmand);
  ~LoopbackCluster();

  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  /// Spawns the three daemons (N=3 W=2 R=1, one shard each) and waits for
  /// each one's readiness line. False with `*error` set on failure.
  bool Start(std::string* error);
  /// SIGTERM, a grace period, then SIGKILL; reaps every daemon.
  void Stop();

  const std::vector<Node>& nodes() const { return nodes_; }

  /// The daemon's `client_stats` JSON over a dedicated connection.
  /// `*timeouts` counts attempts that timed out.
  bool Stats(std::size_t i, std::string* json, int* timeouts);

  /// utime + stime of daemon `i`, from /proc/<pid>/stat.
  double CpuSeconds(std::size_t i) const;
  /// Peak resident set (VmHWM) of daemon `i` in MB, from /proc/<pid>/status.
  double PeakRssMb(std::size_t i) const;

 private:
  bool SpawnAll(std::string* error);
  bool WaitReady(std::string* error);
  void DrainLoop();

  std::string hotmand_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<hotman::net::RemoteClient>> stats_clients_;
  std::mutex mu_;  // guards Node::ready / Node::log while the drainer runs
  std::condition_variable ready_cv_;
  std::thread drainer_;
};

}  // namespace perfbench

#endif  // HOTMAN_PERFBENCH_LOOPBACK_CLUSTER_H_
