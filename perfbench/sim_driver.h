// Closed-loop simulated users against the in-process core::MyStore over the
// deterministic simulator (no sockets). Users live on the sim::EventLoop:
// each thinks, issues GetAsync/PostAsync and, once the callback fires,
// thinks again. The benchmark pumps the loop in fixed virtual slices for a
// given wall time and stamps each completion with the pumping thread's CPU
// time, so ops per CPU second measures the simulator's speed while
// latencies are read off the virtual clock.

#ifndef HOTMAN_PERFBENCH_SIM_DRIVER_H_
#define HOTMAN_PERFBENCH_SIM_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mystore.h"
#include "workload.h"

namespace perfbench {

/// user + system CPU seconds of the calling thread. The kernel charges a
/// thread neither for time the hypervisor steals (paravirt steal
/// accounting) nor for time other threads hold its CPU.
double ThreadCpuSeconds();

class SimDriver {
 public:
  struct Pumped {
    double wall_s = 0.0;
    double cpu_s = 0.0;  ///< CPU time of the pumping thread
    std::uint64_t events = 0;
    std::int64_t virtual_us = 0;
  };

  /// `workload` must outlive the driver.
  SimDriver(const Workload& workload, std::uint64_t seed,
            std::size_t cache_bytes_per_server);
  ~SimDriver();

  SimDriver(const SimDriver&) = delete;
  SimDriver& operator=(const SimDriver&) = delete;

  /// Builds MyStore (paper set-up, 5 nodes, no faults), starts it and
  /// preloads every key through the storage cluster, leaving the cache
  /// cold. False with `*error` set when a preload write fails.
  bool Setup(std::string* error);
  /// Starts every user's first think time.
  void Launch();
  /// Pumps the loop for `seconds` of wall time. Operations that complete
  /// meanwhile are recorded into `log` when it is non-null, stamped with
  /// the thread CPU time into the window at the end of the previous pump.
  Pumped Run(double seconds, OpLog* log);

  hotman::core::MyStore* store() { return store_.get(); }
  /// Every operation completed since Launch, measured or not.
  const OpLog& totals() const { return totals_; }

 private:
  struct User {
    std::size_t writer = 0;
    hotman::Rng rng{0};
    std::size_t item = 0;
    bool is_get = false;
    bool returned = false;  ///< the async call has returned to the issuer
    bool miss = false;      ///< the get went below the cache
    std::int64_t started_us = 0;
    std::uint64_t hits_before = 0;
  };

  void Think(User* user);
  void Issue(User* user);
  void Complete(User* user, const hotman::Status& status,
                const hotman::Bytes* value, std::size_t bytes);

  const Workload& workload_;
  std::uint64_t seed_;
  std::size_t cache_bytes_per_server_;
  std::vector<std::unique_ptr<User>> users_;
  OpLog* log_ = nullptr;
  double window_cpu_s_ = 0.0;  ///< thread CPU seconds into the window
  OpLog totals_;
  // Declared last: destroyed first, together with the pending loop events
  // that point at users_.
  std::unique_ptr<hotman::core::MyStore> store_;
};

}  // namespace perfbench

#endif  // HOTMAN_PERFBENCH_SIM_DRIVER_H_
