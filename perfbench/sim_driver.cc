#include "sim_driver.h"

#include <time.h>

#include <chrono>
#include <functional>

#include "trace.h"

namespace perfbench {
namespace {

using hotman::Bytes;
using hotman::Micros;
using hotman::Status;

/// Virtual time per pump: short enough that the wall-clock deadline is
/// checked often, long enough that the check costs nothing.
constexpr Micros kSlice = 10 * hotman::kMicrosPerMilli;
constexpr std::size_t kPreloadInFlight = 64;

double WallSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

SimDriver::SimDriver(const Workload& workload, std::uint64_t seed,
                     std::size_t cache_bytes_per_server)
    : workload_(workload),
      seed_(seed),
      cache_bytes_per_server_(cache_bytes_per_server) {}

SimDriver::~SimDriver() = default;

bool SimDriver::Setup(std::string* error) {
  hotman::core::MyStoreConfig config;
  config.cluster = hotman::cluster::ClusterConfig::PaperSetup();
  config.failures = hotman::sim::FailureConfig::None();
  config.cache_servers = 4;
  config.cache_bytes_per_server = cache_bytes_per_server_;
  config.seed = seed_;
  store_ = std::make_unique<hotman::core::MyStore>(config);
  if (Status s = store_->Start(); !s.ok()) {
    *error = "MyStore start failed: " + s.ToString();
    return false;
  }
  hotman::cluster::Cluster* cluster = store_->storage();
  const std::size_t n = workload_.keys.size();
  std::size_t next = 0;
  std::size_t done = 0;
  std::string failure;
  std::function<void()> issue = [&] {
    const std::size_t i = next++;
    cluster->Put(workload_.keys[i], workload_.value(i, 0),
                 [&](const Status& s) {
                   if (!s.ok() && failure.empty()) failure = s.ToString();
                   ++done;
                   if (next < n) issue();
                 });
  };
  while (next < n && next < kPreloadInFlight) issue();
  const Micros deadline = cluster->loop()->Now() + 3600 * hotman::kMicrosPerSecond;
  while (done < n && cluster->loop()->Now() < deadline) {
    cluster->RunFor(hotman::kMicrosPerMilli);
  }
  if (!failure.empty() || done < n) {
    *error = "preload failed: " + (failure.empty() ? "timed out" : failure);
    return false;
  }
  return true;
}

void SimDriver::Launch() {
  for (int c = 0; c < workload_.clients; ++c) {
    auto user = std::make_unique<User>();
    user->writer = static_cast<std::size_t>(c) + 1;
    user->rng = hotman::Rng(seed_ * 1000003u + static_cast<std::uint64_t>(c));
    users_.push_back(std::move(user));
    Think(users_.back().get());
  }
}

void SimDriver::Think(User* user) {
  const Micros delay =
      workload_.think_max_us > 0
          ? user->rng.UniformRange(0, workload_.think_max_us)
          : 0;
  store_->storage()->loop()->Schedule(delay, [this, user] { Issue(user); });
}

void SimDriver::Issue(User* user) {
  user->item = workload_.pick(&user->rng);
  user->is_get = user->rng.NextDouble() < workload_.get_share;
  user->started_us = store_->storage()->loop()->Now();
  user->returned = false;
  const std::string& key = workload_.keys[user->item];
  if (user->is_get) {
    hotman::cache::CachePool* pool = store_->cache_pool();
    user->hits_before = pool->TotalHits();
    {
      ScopedSpan span("core.MyStore.GetAsync");
      store_->GetAsync(key, [this, user](const hotman::Result<Bytes>& r) {
        Complete(user, r.status(), r.ok() ? &*r : nullptr,
                 r.ok() ? r->size() : 0);
      });
    }
    user->returned = true;
    // A hit answers inline; a get still pending went below the cache.
    user->miss = pool->TotalHits() == user->hits_before;
    return;
  }
  Bytes value;
  {
    ScopedSpan span("harness.value");
    value = workload_.value(user->item, user->writer);
  }
  const std::size_t bytes = value.size();
  ScopedSpan span("core.MyStore.PostAsync");
  store_->PostAsync(key, std::move(value), [this, user, bytes](const Status& s) {
    Complete(user, s, nullptr, bytes);
  });
  user->returned = true;
}

void SimDriver::Complete(User* user, const Status& status, const Bytes* value,
                         std::size_t bytes) {
  const double latency_us = static_cast<double>(
      store_->storage()->loop()->Now() - user->started_us);
  bool miss = false;
  if (user->is_get) {
    miss = user->returned
               ? user->miss
               : store_->cache_pool()->TotalHits() == user->hits_before;
  }
  enum { kOk, kFailed, kWrong } outcome = kOk;
  if (!status.ok()) {
    // A preloaded key never reads as NotFound: that is a wrong answer.
    outcome = status.IsNotFound() ? kWrong : kFailed;
  } else if (value != nullptr) {
    ScopedSpan span("harness.check");
    if (!workload_.check(user->item, *value)) outcome = kWrong;
  }
  for (OpLog* log : {&totals_, log_}) {
    if (log == nullptr) continue;
    if (outcome == kFailed) log->failed += 1;
    if (outcome == kWrong) log->wrong += 1;
    if (outcome == kOk) log->payload_bytes += bytes;
    (user->is_get ? log->gets : log->puts) += 1;
  }
  if (log_ != nullptr) {
    Sample sample;
    sample.t_s = window_cpu_s_;
    sample.us = latency_us;
    sample.bytes = outcome == kOk ? static_cast<std::uint32_t>(bytes) : 0;
    sample.miss = miss;
    (user->is_get ? log_->get : log_->put).push_back(sample);
  }
  Think(user);
}

SimDriver::Pumped SimDriver::Run(double seconds, OpLog* log) {
  log_ = log;
  Pumped out;
  hotman::sim::EventLoop* loop = store_->storage()->loop();
  const Micros v0 = loop->Now();
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = ThreadCpuSeconds();
  window_cpu_s_ = 0.0;
  while (WallSeconds(t0) < seconds) {
    ScopedSpan span("sim.EventLoop.RunFor");
    out.events += loop->RunFor(kSlice);
    window_cpu_s_ = ThreadCpuSeconds() - cpu0;
  }
  out.wall_s = WallSeconds(t0);
  out.cpu_s = ThreadCpuSeconds() - cpu0;
  out.virtual_us = loop->Now() - v0;
  log_ = nullptr;
  return out;
}

}  // namespace perfbench
