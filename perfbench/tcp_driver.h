// Closed-loop socket clients against a LoopbackCluster: each client has its
// own net::RemoteClient connection to its own coordinator and waits for
// every reply before sending the next request.

#ifndef HOTMAN_PERFBENCH_TCP_DRIVER_H_
#define HOTMAN_PERFBENCH_TCP_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "loopback_cluster.h"
#include "workload.h"

namespace perfbench {

/// The program seen from outside at one instant.
struct Reading {
  std::vector<std::string> json;  ///< stats document per daemon (or cluster)
  double cpu_s = 0.0;             ///< CPU of the daemons (or this process)
  double self_cpu_s = 0.0;        ///< CPU of this process
};

/// user + system CPU seconds of this process.
double SelfCpuSeconds();

class TcpDriver {
 public:
  struct SetupTimes {
    double ready_s = 0.0;   ///< every daemon printed its readiness line
    double probed_s = 0.0;  ///< every daemon answered a stats call
    double total_s = 0.0;   ///< every key preloaded
  };

  explicit TcpDriver(const std::string& hotmand) : cluster_(hotmand) {}

  /// (Re)spawns the daemons, waits for their readiness lines, probes each
  /// with a stats call and preloads every key as writer 0.
  bool Setup(const Workload& w, SetupTimes* times, std::string* error);

  /// One window of `seconds`: the clients connect, `before` is read, the
  /// clients run, stop, and `after` is read. Operations completing after
  /// the window closed are not logged. `phase` keeps request streams and
  /// client names of different windows apart.
  bool Window(const Workload& w, std::uint64_t seed, int phase, double seconds,
              OpLog* log, double* wall_s, Reading* before, Reading* after);

  bool Read(Reading* r);

  LoopbackCluster& cluster() { return cluster_; }
  /// Stats calls that timed out, boot probes included.
  int probe_timeouts() const { return probe_timeouts_; }

 private:
  LoopbackCluster cluster_;
  int probe_timeouts_ = 0;
};

}  // namespace perfbench

#endif  // HOTMAN_PERFBENCH_TCP_DRIVER_H_
