#include "tcp_driver.h"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "net/remote_client.h"
#include "trace.h"
#include "values.h"

namespace perfbench {
namespace {

using hotman::Bytes;
using hotman::Rng;
using SteadyClock = std::chrono::steady_clock;

double Since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

hotman::net::RemoteClientConfig ClientConfig(const LoopbackCluster::Node& node,
                                             const std::string& tag) {
  hotman::net::RemoteClientConfig config;
  config.port = node.port;
  config.name = "pb-" + std::to_string(::getpid()) + "-" + tag;
  // A real client's patience; never shortened to hide the boot-gap stall.
  config.op_timeout = 5 * hotman::kMicrosPerSecond;
  return config;
}

}  // namespace

double SelfCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

bool TcpDriver::Read(Reading* r) {
  r->json.assign(cluster_.nodes().size(), "");
  r->cpu_s = 0.0;
  for (std::size_t i = 0; i < cluster_.nodes().size(); ++i) {
    if (!cluster_.Stats(i, &r->json[i], &probe_timeouts_)) return false;
    r->cpu_s += cluster_.CpuSeconds(i);
  }
  r->self_cpu_s = SelfCpuSeconds();
  return true;
}

bool TcpDriver::Setup(const Workload& w, SetupTimes* times,
                      std::string* error) {
  cluster_.Stop();
  const auto t0 = SteadyClock::now();
  if (!cluster_.Start(error)) return false;
  times->ready_s = Since(t0);
  Reading probe;
  if (!Read(&probe)) {
    *error = "boot probe got no stats reply";
    return false;
  }
  times->probed_s = Since(t0);
  // Preload from three connections, one per coordinator.
  const auto& nodes = cluster_.nodes();
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> loaders;
  for (std::size_t t = 0; t < nodes.size(); ++t) {
    loaders.emplace_back([&, t] {
      hotman::net::RemoteClient client(
          ClientConfig(nodes[t], "load-" + std::to_string(nodes[t].port)));
      for (std::size_t i = t; i < w.keys.size(); i += nodes.size()) {
        if (!client.Put(nodes[t].name, w.keys[i], w.value(i, 0)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : loaders) th.join();
  if (failures.load() > 0) {
    *error = std::to_string(failures.load()) + " preload puts failed";
    return false;
  }
  times->total_s = Since(t0);
  return true;
}

bool TcpDriver::Window(const Workload& w, std::uint64_t seed, int phase,
                       double seconds, OpLog* log, double* wall_s,
                       Reading* before, Reading* after) {
  // Readings are taken with the clients connected but idle, so the daemon
  // deltas cover the window only.
  const auto& nodes = cluster_.nodes();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<OpLog> logs(static_cast<std::size_t>(w.clients));
  SteadyClock::time_point go_at;  // written before `go`, read after it
  std::vector<std::thread> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.emplace_back([&, c] {
      const auto& node = nodes[static_cast<std::size_t>(c) % nodes.size()];
      char tag[32];
      std::snprintf(tag, sizeof(tag), "p%d-c%d", phase, c);
      hotman::net::RemoteClient client(ClientConfig(node, tag));
      client.Connect().ok();  // operations redial lazily on failure
      Rng rng(Mix64(seed) ^ Mix64(static_cast<std::uint64_t>(phase * 64 + c)));
      const std::size_t writer = static_cast<std::size_t>(c) + 1;
      OpLog& mine = logs[static_cast<std::size_t>(c)];
      std::uint64_t op = static_cast<std::uint64_t>(writer) << 48;
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t item = w.pick(&rng);
        const bool is_get = rng.NextDouble() < w.get_share;
        const std::string& key = w.keys[item];
        ++op;
        bool ok = false;
        bool wrong = false;
        std::size_t bytes = 0;
        const auto t0 = SteadyClock::now();
        if (is_get) {
          hotman::Result<Bytes> r = [&] {
            ScopedSpan span("net.RemoteClient.Get", op);
            return client.Get(node.name, key);
          }();
          if (stop.load(std::memory_order_relaxed)) break;
          ok = r.ok();
          if (ok) {
            wrong = !w.check(item, *r);
            bytes = r->size();
          } else {
            wrong = r.status().IsNotFound();  // every key was preloaded
          }
        } else {
          Bytes value = w.value(item, writer);
          bytes = value.size();
          hotman::Status s = [&] {
            ScopedSpan span("net.RemoteClient.Put", op);
            return client.Put(node.name, key, std::move(value));
          }();
          if (stop.load(std::memory_order_relaxed)) break;
          ok = s.ok();
        }
        const auto now = SteadyClock::now();
        Sample sample;
        sample.t_s = std::chrono::duration<double>(now - go_at).count();
        sample.us = std::chrono::duration<double, std::micro>(now - t0).count();
        if (wrong) {
          mine.wrong += 1;
        } else if (!ok) {
          mine.failed += 1;
        } else {
          mine.payload_bytes += bytes;
          sample.bytes = static_cast<std::uint32_t>(bytes);
        }
        (is_get ? mine.gets : mine.puts) += 1;
        (is_get ? mine.get : mine.put).push_back(sample);
      }
    });
  }
  while (ready.load() < w.clients) std::this_thread::yield();
  bool read_ok = before == nullptr || Read(before);
  go_at = SteadyClock::now();
  go.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  *wall_s = Since(go_at);
  for (std::thread& th : clients) th.join();
  read_ok = read_ok && (after == nullptr || Read(after));
  for (OpLog& l : logs) log->Merge(std::move(l));
  return read_ok;
}

}  // namespace perfbench
