// What every workload shares: the keys and values it reads and writes, how
// it picks them, and the log of one measured window.

#ifndef HOTMAN_PERFBENCH_WORKLOAD_H_
#define HOTMAN_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"

namespace perfbench {

/// The inputs of a closed-loop workload. Writer 0 is the preloader; the
/// clients (or simulated users) are writers 1..clients.
struct Workload {
  std::vector<std::string> keys;
  /// The next value `writer` puts under item `item`.
  std::function<hotman::Bytes(std::size_t item, std::size_t writer)> value;
  /// True when `got` is an acceptable read of item `item`.
  std::function<bool(std::size_t item, const hotman::Bytes& got)> check;
  /// Draws the next item.
  std::function<std::size_t(hotman::Rng*)> pick;
  int clients = 1;
  double get_share = 0.5;
  /// Uniform think time in [0, think_max_us] before each operation
  /// (simulated users only; socket clients never think).
  std::int64_t think_max_us = 0;
};

/// One operation completed inside a measured window.
struct Sample {
  double t_s = 0.0;         ///< completion, seconds since the window began:
                            ///< wall, or the pumping thread's CPU time on
                            ///< the simulator
  double us = 0.0;          ///< latency: wall, or virtual on the simulator
  std::uint32_t bytes = 0;  ///< user payload moved, when the op succeeded
  bool miss = false;        ///< a get served below the cache (simulator)
};

/// Operations completed inside one measured window.
struct OpLog {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t failed = 0;  ///< error or timeout
  std::uint64_t wrong = 0;   ///< returned a value the check rejected
  std::uint64_t payload_bytes = 0;
  std::vector<Sample> get;
  std::vector<Sample> put;

  std::uint64_t ops() const { return gets + puts; }
  void Merge(OpLog&& other) {
    gets += other.gets;
    puts += other.puts;
    failed += other.failed;
    wrong += other.wrong;
    payload_bytes += other.payload_bytes;
    get.insert(get.end(), other.get.begin(), other.get.end());
    put.insert(put.end(), other.put.begin(), other.put.end());
  }
};

}  // namespace perfbench

#endif  // HOTMAN_PERFBENCH_WORKLOAD_H_
