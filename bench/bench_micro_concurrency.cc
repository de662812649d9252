// Read-path concurrency scaling: docstore shared-lock reads and the sharded
// cache against single-exclusive-lock baselines, at 1/2/4/8 threads.
//
// A plain binary (not google-benchmark) because it owns its thread pools and
// emits BENCH_micro_concurrency.json via bench_common.h like the figure
// harnesses. `--short` shrinks the measured window for CI smoke runs.
//
// Scaling above 1 is only physically possible with multiple cores; the
// `cores` field records what the run actually had. On a single-core host
// every multi-threaded arm degenerates to ~1x (plus scheduling overhead).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cache/lru_cache.h"
#include "cache/sharded_lru_cache.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "docstore/collection.h"

namespace hotman {
namespace {

using bson::Document;
using bson::Value;

constexpr int kDocs = 4096;
constexpr int kCacheKeys = 4096;
constexpr std::size_t kPayloadBytes = 512;
const int kThreadCounts[] = {1, 2, 4, 8};

std::string DocId(int i) { return "doc" + std::to_string(i); }

/// A record-shaped document: a dozen short fields plus a binary payload,
/// so per-read copy work (the thing shared Binary payloads make O(1))
/// dominates the lock handshake itself.
Document MakeDoc(int i) {
  Document doc;
  doc.Append("_id", Value(DocId(i)));
  doc.Append("app", Value("hotman"));
  doc.Append("kind", Value("k" + std::to_string(i % 20)));
  doc.Append("owner", Value("user" + std::to_string(i % 97)));
  doc.Append("region", Value("dc" + std::to_string(i % 4)));
  doc.Append("state", Value("live"));
  doc.Append("rev", Value(std::int32_t{1}));
  doc.Append("size", Value(std::int32_t{i}));
  doc.Append("flags", Value(std::int32_t{0}));
  doc.Append("score", Value(static_cast<double>(i) * 0.5));
  doc.Append("tag", Value("t" + std::to_string(i % 13)));
  doc.Append("note", Value("benchmark fixture row"));
  doc.Append("value", Value(bson::Binary(Bytes(kPayloadBytes, 'x'))));
  return doc;
}

std::unique_ptr<docstore::Collection> PopulatedCollection(
    bson::ObjectIdGenerator* gen) {
  auto collection = std::make_unique<docstore::Collection>("bench", gen);
  for (int i = 0; i < kDocs; ++i) {
    collection->Insert(MakeDoc(i)).ok();
  }
  return collection;
}

/// Runs `op(thread_id, iteration)` on `threads` threads for `window` and
/// returns aggregate operations per second. Threads start together (spin
/// barrier) and the window is measured around the running phase only.
template <typename Op>
double MeasureOpsPerSec(int threads, std::chrono::milliseconds window,
                        const Op& op) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        op(t, n);
        ++n;
      }
      counts[static_cast<std::size_t>(t)] = n;
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(window);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : pool) t.join();
  const auto end = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  return seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
}

}  // namespace
}  // namespace hotman

int main(int argc, char** argv) {
  using namespace hotman;  // NOLINT(google-build-using-namespace)

  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
  }
  const std::chrono::milliseconds window(short_mode ? 60 : 400);
  const unsigned cores = std::thread::hardware_concurrency();

  bench::Header("micro_concurrency",
                "read-path scaling: shared locks and sharded cache vs "
                "single-lock baselines");
  std::printf("cores=%u window=%lldms%s\n", cores,
              static_cast<long long>(window.count()),
              short_mode ? " (short mode)" : "");

  ManualClock clock(0);
  bson::ObjectIdGenerator gen(1, &clock);
  auto collection = PopulatedCollection(&gen);
  // Models the pre-shared-lock engine: every operation serialized behind
  // one exclusive mutex (the collection's internal lock contributes the
  // same handshake in both arms, so the delta isolates reader sharing).
  Mutex serial_mu;

  bench::JsonWriter json("micro_concurrency");
  json.Integer("cores", cores);
  json.Integer("docs", kDocs);
  json.Integer("payload_bytes", static_cast<long long>(kPayloadBytes));
  json.Text("mode", short_mode ? "short" : "full");

  const auto read_op = [&](int t, std::uint64_t n) {
    const int i = static_cast<int>((n * 17 + static_cast<std::uint64_t>(t) * 131) % kDocs);
    collection->FindById(Value(DocId(i))).ok();
  };
  const auto read_op_exclusive = [&](int t, std::uint64_t n) {
    MutexLock lock(&serial_mu);
    read_op(t, n);
  };
  // 95/5 read/write over the same keyspace.
  const auto mixed_op = [&](int t, std::uint64_t n) {
    const int i = static_cast<int>((n * 17 + static_cast<std::uint64_t>(t) * 131) % kDocs);
    if (n % 20 == 19) {
      collection->PutDocument(MakeDoc(i)).ok();
    } else {
      collection->FindById(Value(DocId(i))).ok();
    }
  };
  const auto mixed_op_exclusive = [&](int t, std::uint64_t n) {
    MutexLock lock(&serial_mu);
    mixed_op(t, n);
  };

  bench::Section("docstore read-only: FindById ops/sec");
  bench::Row({"threads", "exclusive", "shared", "shared/excl"});
  double read_shared_1t = 0, read_shared_4t = 0;
  for (int threads : kThreadCounts) {
    const double excl = MeasureOpsPerSec(threads, window, read_op_exclusive);
    const double shared = MeasureOpsPerSec(threads, window, read_op);
    if (threads == 1) read_shared_1t = shared;
    if (threads == 4) read_shared_4t = shared;
    json.Number("read_exclusive_" + std::to_string(threads) + "t_ops_per_sec",
                excl, 0);
    json.Number("read_shared_" + std::to_string(threads) + "t_ops_per_sec",
                shared, 0);
    bench::Row({std::to_string(threads), bench::Fmt(excl, 0),
                bench::Fmt(shared, 0), bench::Fmt(shared / excl, 2) + "x"});
  }
  const double read_speedup_4t =
      read_shared_1t > 0 ? read_shared_4t / read_shared_1t : 0.0;
  json.Number("read_shared_speedup_4t", read_speedup_4t, 2);
  std::printf("read-only shared-lock speedup at 4 threads vs 1: %.2fx\n",
              read_speedup_4t);

  bench::Section("docstore mixed 95/5 read/write: ops/sec");
  bench::Row({"threads", "exclusive", "shared", "shared/excl"});
  double mixed_shared_1t = 0, mixed_exclusive_1t = 0;
  for (int threads : kThreadCounts) {
    const double excl = MeasureOpsPerSec(threads, window, mixed_op_exclusive);
    const double shared = MeasureOpsPerSec(threads, window, mixed_op);
    if (threads == 1) {
      mixed_exclusive_1t = excl;
      mixed_shared_1t = shared;
    }
    json.Number("mixed_exclusive_" + std::to_string(threads) + "t_ops_per_sec",
                excl, 0);
    json.Number("mixed_shared_" + std::to_string(threads) + "t_ops_per_sec",
                shared, 0);
    bench::Row({std::to_string(threads), bench::Fmt(excl, 0),
                bench::Fmt(shared, 0), bench::Fmt(shared / excl, 2) + "x"});
  }
  const double mixed_regression_pct =
      mixed_exclusive_1t > 0
          ? (mixed_exclusive_1t - mixed_shared_1t) / mixed_exclusive_1t * 100.0
          : 0.0;
  json.Number("mixed_single_thread_regression_pct", mixed_regression_pct, 2);
  std::printf(
      "mixed 95/5 single-thread regression (shared vs exclusive): %.2f%%\n",
      mixed_regression_pct);

  bench::Section("cache hit path: single-locked Get vs sharded GetShared");
  cache::LruCache single_cache(64 << 20);
  Mutex cache_mu;
  cache::ShardedLruCache sharded_cache(64 << 20);
  for (int i = 0; i < kCacheKeys; ++i) {
    single_cache.Put("key" + std::to_string(i), Bytes(4096, 'x'));
    sharded_cache.Put("key" + std::to_string(i), Bytes(4096, 'x'));
  }
  const auto cache_single_op = [&](int t, std::uint64_t n) {
    const int i = static_cast<int>((n * 13 + static_cast<std::uint64_t>(t) * 71) % kCacheKeys);
    Bytes out;
    MutexLock lock(&cache_mu);
    single_cache.Get("key" + std::to_string(i), &out);
  };
  const auto cache_sharded_op = [&](int t, std::uint64_t n) {
    const int i = static_cast<int>((n * 13 + static_cast<std::uint64_t>(t) * 71) % kCacheKeys);
    std::shared_ptr<const Bytes> out;
    sharded_cache.GetShared("key" + std::to_string(i), &out);
  };
  bench::Row({"threads", "single", "sharded", "sharded/single"});
  double cache_sharded_1t = 0, cache_sharded_4t = 0;
  for (int threads : kThreadCounts) {
    const double single = MeasureOpsPerSec(threads, window, cache_single_op);
    const double sharded = MeasureOpsPerSec(threads, window, cache_sharded_op);
    if (threads == 1) cache_sharded_1t = sharded;
    if (threads == 4) cache_sharded_4t = sharded;
    json.Number("cache_single_" + std::to_string(threads) + "t_ops_per_sec",
                single, 0);
    json.Number("cache_sharded_" + std::to_string(threads) + "t_ops_per_sec",
                sharded, 0);
    bench::Row({std::to_string(threads), bench::Fmt(single, 0),
                bench::Fmt(sharded, 0), bench::Fmt(sharded / single, 2) + "x"});
  }
  json.Number("cache_sharded_speedup_4t",
              cache_sharded_1t > 0 ? cache_sharded_4t / cache_sharded_1t : 0.0,
              2);

  std::printf("\n");
  json.WriteFile();
  return 0;
}
