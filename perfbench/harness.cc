// perfbench_harness: runs one benchmark workload against the real stack and
// prints its metrics. The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every line before it is for people.
//
// Workloads (see spec.json for why each exists):
//   tcp_small_read  3 hotmand on loopback, 2 clients, 95% get of 100 B values
//   tcp_paper_mix   same daemons, 2 clients, 50% put of the paper's 3-600 KB
//                   files
//   sim_zipf_cache  in-process MyStore over the simulator, 300 users with
//                   think time, Zipf 0.99 over a corpus 3x the cache
//
// Usage: perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//            --hotmand PATH [--trace-out FILE] [--git-sha SHA]
//        perfbench_harness --list-metrics

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bson/codec.h"
#include "bson/object_id.h"
#include "cache/cache_pool.h"
#include "cluster/messages.h"
#include "cluster/replica_store.h"
#include "common/clock.h"
#include "core/record.h"
#include "docstore/database.h"
#include "hashring/ring.h"
#include "net/client_proto.h"
#include "net/frame.h"
#include "sim_driver.h"
#include "stats.h"
#include "tcp_driver.h"
#include "trace.h"
#include "values.h"
#include "workload.h"
#include "workload/dataset.h"
#include "workload/skew.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using hotman::Bytes;
using hotman::Rng;
using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Metric vocabulary. BENCHMARK.json lists the same names and units; the
// runner refuses a result whose names differ from it.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"ops_per_s", "ops/s"}, {"payload_mb_per_s", "MB/s"},
    {"get_p50_us", "us"}, {"put_p50_us", "us"},   {"rss_mb", "MB"},
};

// The p99s are here rather than end to end: on a shared 4-vCPU host one
// or two noisy runs in ten moved them by 2-3x, beyond any bound a
// regression gate can hold (see spec.json "tail").
constexpr MetricDef kPerLayer[] = {
    {"tail.get_p99_us", "us"},
    {"tail.put_p99_us", "us"},
    {"net.client_hop_get_us", "us"},
    {"net.frames_per_op", "count"},
    {"net.wire_bytes_per_payload_byte", "ratio"},
    {"net.frame_encode_ns.small", "ns"},
    {"net.frame_encode_ns.large", "ns"},
    {"net.frame_decode_ns.small", "ns"},
    {"net.frame_decode_ns.large", "ns"},
    {"net.frames_dropped", "count"},
    {"net.dropped_no_endpoint", "count"},
    {"net.connections_opened", "count"},
    {"bson.encode_ns.small", "ns"},
    {"bson.encode_ns.large", "ns"},
    {"bson.decode_ns.small", "ns"},
    {"bson.decode_ns.large", "ns"},
    {"cluster.coord_get_mean_us", "us"},
    {"cluster.coord_put_mean_us", "us"},
    {"cluster.replica_reads_per_get", "ratio"},
    {"cluster.replica_writes_per_put", "ratio"},
    {"cluster.ops_failed", "count"},
    {"daemon.cpu_us_per_op", "us"},
    {"client.cpu_us_per_op", "us"},
    {"docstore.apply_us.small", "us"},
    {"docstore.apply_us.large", "us"},
    {"docstore.get_us.small", "us"},
    {"docstore.get_us.large", "us"},
    {"hashring.preference_list_ns", "ns"},
    {"cache.hit_ratio", "ratio"},
    {"cache.get_ns", "ns"},
    {"cache.put_ns", "ns"},
    {"sim.events_per_op", "count"},
    {"sim.events_per_s", "events/s"},
    {"core.vget_miss_us", "us"},
    {"setup.boot_probe_timeouts", "count"},
    {"trace.overhead_pct", "%"},
};

constexpr const char* kWorkloads[] = {"tcp_small_read", "tcp_paper_mix",
                                      "sim_zipf_cache"};

// ---------------------------------------------------------------------------
// Fixed shape of each workload.

// Set-ups per run: the first warms the benchmark's own allocator and is not
// timed; setup_s is the median of the other five.
constexpr int kSetupReps = 6;
constexpr double kWarmSeconds = 3.0;   // untimed load before every window
constexpr std::uint64_t kCorpusSeed = 1;  // the file corpus is fixed; --seed
                                          // drives the request stream
constexpr std::size_t kSmallKeys = 10000;
constexpr std::size_t kPaperItems = 500;
constexpr std::size_t kSimItems = 2000;
constexpr int kSimUsers = 300;
constexpr std::int64_t kSimThinkMaxUs = 500 * hotman::kMicrosPerMilli;
constexpr double kZipfTheta = 0.99;
constexpr std::size_t kCacheBytesPerServer = std::size_t{16} << 20;
constexpr double kReplaySeconds = 2.0;  // in-process replay of tcp_* inputs
constexpr double kMicroSeconds = 0.15;  // per micro rung
constexpr double kSubWindowSeconds = 2.5;  // see EndToEnd

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string hotmand;
  std::string trace_out;
  std::string git_sha = "unknown";
};

double Since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double SelfPeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

void Say(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Say(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::printf("perfbench: ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
}

void SayRuns(const char* what, const std::vector<double>& seconds) {
  std::string each;
  for (double x : seconds) each.append(" ").append(std::to_string(x));
  Say("%s %zu times: median %.4f s (each:%s)", what, seconds.size(),
      Median(seconds), each.c_str());
}

// ---------------------------------------------------------------------------
// Inputs.

/// The paper's §6.1 corpus of `count` files: log-uniform 3-600 KB, sorted
/// by size.
hotman::workload::Dataset CorpusDataset(std::size_t count) {
  auto spec = hotman::workload::DatasetSpec::SystemEvaluation(count);
  spec.seed = kCorpusSeed;
  return hotman::workload::Dataset(spec);
}

/// The median file of a corpus: the "large" size of the micro rungs.
Bytes MedianFile(const hotman::workload::Dataset& dataset) {
  return dataset.Payload(dataset.item(dataset.size() / 2));
}

/// A corpus with every file's payload, for workloads that store the files.
struct Corpus {
  explicit Corpus(std::size_t count) : dataset(CorpusDataset(count)) {
    for (const auto& item : dataset.items()) {
      keys.push_back(item.key);
      payloads.push_back(dataset.Payload(item));
    }
  }

  hotman::workload::Dataset dataset;
  std::vector<std::string> keys;
  std::vector<Bytes> payloads;
};

/// Everything a run needs: the workload plus what its closures refer to.
struct Inputs {
  std::unique_ptr<SeqBook> book;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<hotman::workload::ZipfGenerator> zipf;
  std::vector<std::size_t> rank_to_item;
  Workload workload;
  Bytes small;  ///< 100 B value for the micro rungs
  Bytes large;  ///< median corpus file for the micro rungs
};

void UseCorpus(Inputs* in) {
  const Corpus* corpus = in->corpus.get();
  in->workload.keys = corpus->keys;
  in->workload.value = [corpus](std::size_t item, std::size_t) {
    return corpus->payloads[item];
  };
  in->workload.check = [corpus](std::size_t item, const Bytes& got) {
    return got == corpus->payloads[item];
  };
}

std::unique_ptr<Inputs> MakeInputs(const std::string& name) {
  auto in = std::make_unique<Inputs>();
  Workload& w = in->workload;
  if (name == "tcp_small_read") {
    w.clients = 2;
    w.get_share = 0.95;
    in->book = std::make_unique<SeqBook>(static_cast<std::size_t>(w.clients) + 1);
    for (std::size_t i = 0; i < kSmallKeys; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%05zu", i);
      w.keys.push_back(key);
    }
    SeqBook* book = in->book.get();
    const std::vector<std::string>* keys = &w.keys;
    w.value = [book, keys](std::size_t item, std::size_t writer) {
      const std::uint64_t seq = writer == 0 ? 0 : book->Next(writer);
      return MakeSmallValue((*keys)[item], writer, seq);
    };
    w.check = [book, keys](std::size_t item, const Bytes& got) {
      return CheckSmallValue(got, (*keys)[item], *book);
    };
    const std::size_t n = w.keys.size();
    w.pick = [n](Rng* rng) { return static_cast<std::size_t>(rng->Uniform(n)); };
    in->large = MedianFile(CorpusDataset(kPaperItems));
  } else if (name == "tcp_paper_mix") {
    w.clients = 2;
    w.get_share = 0.5;
    in->corpus = std::make_unique<Corpus>(kPaperItems);
    UseCorpus(in.get());
    const std::size_t n = w.keys.size();
    w.pick = [n](Rng* rng) { return static_cast<std::size_t>(rng->Uniform(n)); };
  } else if (name == "sim_zipf_cache") {
    w.clients = kSimUsers;
    w.get_share = 0.8;
    w.think_max_us = kSimThinkMaxUs;
    in->corpus = std::make_unique<Corpus>(kSimItems);
    UseCorpus(in.get());
    // Popularity is independent of size: a fixed shuffle maps Zipf ranks
    // onto the size-sorted corpus.
    in->rank_to_item.resize(kSimItems);
    std::iota(in->rank_to_item.begin(), in->rank_to_item.end(), 0);
    Rng shuffle(kCorpusSeed);
    for (std::size_t i = kSimItems - 1; i > 0; --i) {
      std::swap(in->rank_to_item[i], in->rank_to_item[shuffle.Uniform(i + 1)]);
    }
    in->zipf = std::make_unique<hotman::workload::ZipfGenerator>(kSimItems,
                                                                 kZipfTheta);
    const auto* zipf = in->zipf.get();
    const auto* ranks = &in->rank_to_item;
    w.pick = [zipf, ranks](Rng* rng) { return (*ranks)[zipf->Next(rng)]; };
  } else {
    return nullptr;
  }
  in->small = MakeSmallValue("micro", 0, 0);
  if (in->corpus != nullptr) in->large = MedianFile(in->corpus->dataset);
  return in;
}

// ---------------------------------------------------------------------------
// Sums and deltas over the readings taken around a window.

double Sum(const Reading& r, std::initializer_list<std::string_view> path) {
  double total = 0.0;
  for (const std::string& doc : r.json) total += JsonNumber(doc, path).value_or(0.0);
  return total;
}

double Delta(const Reading& a, const Reading& b, const char* counter) {
  return Sum(b, {"counters", counter}) - Sum(a, {"counters", counter});
}

std::vector<HistReading> Hists(const Reading& r, const char* name) {
  std::vector<HistReading> out;
  for (const std::string& doc : r.json) {
    out.push_back({JsonNumber(doc, {"histograms", name, "count"}).value_or(0.0),
                   JsonNumber(doc, {"histograms", name, "mean_us"}).value_or(0.0)});
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The loopback cluster workloads.

// ---------------------------------------------------------------------------
// Micro rungs: timed calls into each layer's public functions with the
// workload's sizes and keys, one span per call or batch of calls.

template <typename Fn>
void Rung(const char* name, std::uint32_t batch, Fn&& fn) {
  const auto t0 = SteadyClock::now();
  while (Since(t0) < kMicroSeconds) {
    ScopedSpan span(name, 0, batch);
    for (std::uint32_t i = 0; i < batch; ++i) fn(i);
  }
}

hotman::net::Message ClientPutFrame(const Bytes& value) {
  hotman::net::Message msg;
  msg.from = "pb-client";
  msg.to = "db1:19870";
  msg.type = hotman::net::kMsgClientPut;
  msg.body = hotman::net::EncodeClientPut({1, "key00042", value});
  return msg;
}

void RunMicros(const Inputs& in, std::uint64_t seed) {
  hotman::ManualClock clock(1);
  hotman::bson::ObjectIdGenerator ids(7, &clock);
  const std::pair<const char*, const Bytes*> sizes[] = {{"small", &in.small},
                                                        {"large", &in.large}};
  static std::map<std::string, std::string> names;  // stable span names
  auto span_name = [](const std::string& n) { return names.emplace(n, n).first->second.c_str(); };

  for (const auto& [size, value] : sizes) {
    const std::string tag = std::string(".") + size;
    const hotman::net::Message msg = ClientPutFrame(*value);
    std::string frame;
    Rung(span_name("net.EncodeFrame" + tag), 16, [&](std::uint32_t) {
      frame.clear();
      hotman::net::EncodeFrame(msg, &frame);
    });
    Rung(span_name("net.FrameReader" + tag), 16, [&](std::uint32_t) {
      hotman::net::FrameReader reader;
      reader.Append(frame);
      hotman::net::Message out;
      bool complete = false;
      if (!reader.Next(&out, &complete).ok() || !complete) std::abort();
    });

    const hotman::bson::Document record = hotman::core::MakeRecord(
        ids.Next(), "key00042", *value, true, false, 1, "db1:19870");
    const hotman::bson::Document replica =
        hotman::cluster::EncodePutReplica({1, record});
    std::string encoded;
    Rung(span_name("bson.Encode" + tag), 16, [&](std::uint32_t) {
      encoded.clear();
      hotman::bson::Encode(replica, &encoded);
    });
    Rung(span_name("bson.Decode" + tag), 16, [&](std::uint32_t) {
      hotman::bson::Document doc;
      if (!hotman::bson::Decode(encoded, &doc).ok()) std::abort();
    });

    // LWW overwrite of a live key, and a read by key, on a fresh database.
    hotman::docstore::Database db("perfbench", 1, &clock);
    hotman::cluster::ReplicaStore store(&db, "records");
    if (!store.Init().ok()) std::abort();
    const std::size_t live = std::string(size) == "small" ? 1000 : 64;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < live; ++i) {
      keys.push_back("live" + std::to_string(i));
      if (!store.Apply(hotman::core::MakeRecord(ids.Next(), keys.back(), *value,
                                                 true, false, 1, "db1:19870"))
               .ok()) {
        std::abort();
      }
    }
    std::int64_t ts = 2;
    const char* apply_name = span_name("docstore.ReplicaStore.Apply" + tag);
    const char* get_name = span_name("docstore.ReplicaStore.GetByKey" + tag);
    for (const auto t0 = SteadyClock::now(); Since(t0) < kMicroSeconds;) {
      const std::string& key = keys[static_cast<std::size_t>(ts) % live];
      hotman::bson::Document next = hotman::core::MakeRecord(
          ids.Next(), key, *value, true, false, ts++, "db1:19870");
      ScopedSpan span(apply_name);
      if (!store.Apply(next).ok()) std::abort();
    }
    for (const auto t0 = SteadyClock::now(); Since(t0) < kMicroSeconds;) {
      const std::string& key = keys[static_cast<std::size_t>(ts++) % live];
      ScopedSpan span(get_name);
      if (!store.GetByKey(key).ok()) std::abort();
    }
  }

  hotman::hashring::Ring ring;
  for (int i = 1; i <= 3; ++i) {
    if (!ring.AddNode("db" + std::to_string(i) + ":19870", 128).ok()) std::abort();
  }
  const std::vector<std::string>& keys = in.workload.keys;
  std::size_t k = 0;
  Rung("hashring.Ring.PreferenceList", 64, [&](std::uint32_t) {
    if (ring.PreferenceList(keys[k++ % keys.size()], 3).size() != 3) std::abort();
  });

  // The workload's key stream through a pool shaped like MyStore's cache:
  // a get, and on a miss the put that a read-through cache would make.
  hotman::cache::CachePool pool(4, kCacheBytesPerServer);
  Rng rng(Mix64(seed) ^ 0x6361636865ull);
  for (const auto t0 = SteadyClock::now(); Since(t0) < 2 * kMicroSeconds;) {
    const std::size_t item = in.workload.pick(&rng);
    Bytes got;
    bool hit = false;
    {
      ScopedSpan span("cache.CachePool.Get");
      hit = pool.Get(keys[item], &got);
    }
    if (!hit) {
      Bytes value = in.workload.value(item, 0);
      ScopedSpan span("cache.CachePool.Put");
      pool.Put(keys[item], std::move(value));
    }
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Result {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

void Print(const Result& r, bool trace) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    const auto it = r.values.find(m.name);
    if (it == r.values.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", m.name);
      std::exit(1);
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", it->second);
    Say("%-34s %16.6f %s", m.name, it->second, m.unit);
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
            num + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::vector<double> Latencies(const std::vector<Sample>& samples,
                              bool misses_only, double from = 0.0,
                              double to = 1e300) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.t_s >= from && s.t_s < to && (!misses_only || s.miss)) {
      out.push_back(s.us);
    }
  }
  return out;
}

/// End-to-end figures of one window. The window is cut into
/// kSubWindowSeconds slices and each slice computes its own rate and
/// percentiles. A figure is the slice value a quarter of the way from the
/// best one (the 75th percentile of rates, the 25th of latencies): the host
/// this runs on steals CPU in bursts, interference only ever slows a slice,
/// and so the better slices are the closer to the program's own speed,
/// while a program change moves every slice. Sample counts are printed,
/// with a warning when a p99 has fewer than ten samples beyond it.
/// `window_s` is in the samples' clock: wall on tcp_*, the pumping thread's
/// CPU time (ThreadCpuSeconds) on the simulator, which is single-threaded.
void EndToEnd(const OpLog& log, double window_s, bool sim, Result* r) {
  // On the simulator a cache hit answers at the same virtual instant, so
  // get percentiles there are over the gets the storage cluster served.
  const int slices = std::max(1, static_cast<int>(window_s / kSubWindowSeconds));
  const double len = window_s / slices;
  std::map<std::string, std::vector<double>> per_slice;
  std::size_t min_gets = SIZE_MAX;
  std::size_t min_puts = SIZE_MAX;
  for (int i = 0; i < slices; ++i) {
    const double from = i * len;
    const double to = (i + 1) * len;
    double ops = 0.0;
    double bytes = 0.0;
    for (const auto* samples : {&log.get, &log.put}) {
      for (const Sample& s : *samples) {
        if (s.t_s >= from && s.t_s < to) {
          ops += 1.0;
          bytes += s.bytes;
        }
      }
    }
    const std::vector<double> gets = Latencies(log.get, sim, from, to);
    const std::vector<double> puts = Latencies(log.put, false, from, to);
    min_gets = std::min(min_gets, gets.size());
    min_puts = std::min(min_puts, puts.size());
    per_slice["ops_per_s"].push_back(ops / len);
    per_slice["payload_mb_per_s"].push_back(bytes / 1e6 / len);
    per_slice["get_p50_us"].push_back(Percentile(gets, 50));
    per_slice["tail.get_p99_us"].push_back(Percentile(gets, 99));
    per_slice["put_p50_us"].push_back(Percentile(puts, 50));
    per_slice["tail.put_p99_us"].push_back(Percentile(puts, 99));
  }
  std::string medians;
  for (const auto& [name, values] : per_slice) {
    const bool rate = name == "ops_per_s" || name == "payload_mb_per_s";
    r->values[name] = Percentile(values, rate ? 75 : 25);
    medians.append(" ").append(name).append("=").append(std::to_string(Median(values)));
  }
  Say("slice medians, for comparison:%s", medians.c_str());
  std::string rates;
  for (double x : per_slice["ops_per_s"]) {
    rates.append(" ").append(std::to_string(static_cast<long>(x)));
  }
  Say("ops/s per slice:%s", rates.c_str());
  Say("window %.3f s in %d slices: %llu gets, %llu puts, failed %llu, "
      "wrong %llu, error_rate %.6f ratio",
      window_s, slices, static_cast<unsigned long long>(log.gets),
      static_cast<unsigned long long>(log.puts),
      static_cast<unsigned long long>(log.failed),
      static_cast<unsigned long long>(log.wrong),
      Ratio(static_cast<double>(log.failed + log.wrong),
            static_cast<double>(log.ops())));
  Say("percentile samples per slice: >= %zu gets (%zu beyond p99), >= %zu puts "
      "(%zu beyond p99)%s",
      min_gets, SamplesBeyond(min_gets, 99), min_puts,
      SamplesBeyond(min_puts, 99),
      sim ? "; gets below the cache only, virtual (EventLoop clock) us" : "");
  if (SamplesBeyond(min_gets, 99) < 10 || SamplesBeyond(min_puts, 99) < 10) {
    Say("warning: fewer than 10 samples beyond a p99; lengthen --seconds");
  }
  Say("whole window: get p50 %.1f p99 %.1f, put p50 %.1f p99 %.1f us",
      Percentile(Latencies(log.get, sim), 50),
      Percentile(Latencies(log.get, sim), 99),
      Percentile(Latencies(log.put, false), 50),
      Percentile(Latencies(log.put, false), 99));
}

/// Per-layer figures that come from readings around a window.
void WindowLayers(const OpLog& log, const Reading& a, const Reading& b,
                  double client_cpu_us, Result* r) {
  const double ops = static_cast<double>(log.ops());
  auto& v = r->values;
  v["cluster.coord_get_mean_us"] =
      WindowMean(Hists(a, "get_latency_us"), Hists(b, "get_latency_us"));
  v["cluster.coord_put_mean_us"] =
      WindowMean(Hists(a, "put_latency_us"), Hists(b, "put_latency_us"));
  v["net.client_hop_get_us"] =
      Mean(Latencies(log.get, false)) - v["cluster.coord_get_mean_us"];
  v["net.frames_per_op"] = Ratio(Delta(a, b, "net.frames_sent"), ops);
  v["net.wire_bytes_per_payload_byte"] =
      Ratio(Delta(a, b, "net.bytes_sent"), static_cast<double>(log.payload_bytes));
  v["net.frames_dropped"] = Sum(b, {"counters", "net.frames_dropped"});
  v["net.dropped_no_endpoint"] = Sum(b, {"counters", "net.dropped_no_endpoint"});
  v["net.connections_opened"] = Sum(b, {"counters", "net.connections_opened"});
  v["cluster.replica_reads_per_get"] = Ratio(
      Delta(a, b, "replica_gets_served"), Delta(a, b, "gets_coordinated"));
  v["cluster.replica_writes_per_put"] = Ratio(
      Delta(a, b, "replica_puts_applied"), Delta(a, b, "puts_coordinated"));
  v["cluster.ops_failed"] =
      Delta(a, b, "gets_failed") + Delta(a, b, "puts_failed");
  v["daemon.cpu_us_per_op"] = Ratio((b.cpu_s - a.cpu_s) * 1e6, ops);
  v["client.cpu_us_per_op"] = Ratio(client_cpu_us, ops);
}

void SimLayers(const OpLog& log, const SimDriver::Pumped& pumped,
               std::uint64_t hits, std::uint64_t lookups, Result* r) {
  auto& v = r->values;
  v["sim.events_per_op"] =
      Ratio(static_cast<double>(pumped.events), static_cast<double>(log.ops()));
  v["sim.events_per_s"] = Ratio(static_cast<double>(pumped.events), pumped.cpu_s);
  v["core.vget_miss_us"] = Mean(Latencies(log.get, true));
  v["cache.hit_ratio"] =
      Ratio(static_cast<double>(hits), static_cast<double>(lookups));
}

void MicroLayers(const std::map<std::string, SpanTotal>& t, Result* r) {
  auto per_call = [&](const std::string& name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.PerCallNs();
  };
  auto& v = r->values;
  for (const char* size : {"small", "large"}) {
    const std::string tag = std::string(".") + size;
    v["net.frame_encode_ns" + tag] = per_call("net.EncodeFrame" + tag);
    v["net.frame_decode_ns" + tag] = per_call("net.FrameReader" + tag);
    v["bson.encode_ns" + tag] = per_call("bson.Encode" + tag);
    v["bson.decode_ns" + tag] = per_call("bson.Decode" + tag);
    v["docstore.apply_us" + tag] =
        per_call("docstore.ReplicaStore.Apply" + tag) / 1000.0;
    v["docstore.get_us" + tag] =
        per_call("docstore.ReplicaStore.GetByKey" + tag) / 1000.0;
  }
  v["hashring.preference_list_ns"] = per_call("hashring.Ring.PreferenceList");
  v["cache.get_ns"] = per_call("cache.CachePool.Get");
  v["cache.put_ns"] = per_call("cache.CachePool.Put");
}

/// "Microseconds per operation by layer" for one tcp_* workload: the rows
/// the outside view can attribute, then what it cannot, summing to the
/// client-observed mean.
void PrintLadder(const char* op, double client_mean_us, double coord_mean_us,
                 const std::vector<std::pair<std::string, double>>& client_rows,
                 const std::vector<std::pair<std::string, double>>& coord_rows) {
  Say("ladder: us per %s by layer (traced window, outside view)", op);
  double client_part = 0.0;
  for (const auto& [name, us] : client_rows) {
    Say("  %-58s %10.2f", name.c_str(), us);
    client_part += us;
  }
  double coord_part = 0.0;
  for (const auto& [name, us] : coord_rows) {
    Say("  %-58s %10.2f", name.c_str(), us);
    coord_part += us;
  }
  Say("  %-58s %10.2f", "remainder inside coordinator (bookkeeping, fan-out RTT)",
      coord_mean_us - coord_part);
  Say("  %-58s %10.2f", "remainder client<->coordinator (socket, reactor wake-ups)",
      client_mean_us - coord_mean_us - client_part);
  Say("  %-58s %10.2f", "= client-observed mean", client_mean_us);
}

void NoteOverhead(double untraced_ops_s, double traced_ops_s, Result* r) {
  r->values["trace.overhead_pct"] =
      (Ratio(untraced_ops_s, traced_ops_s) - 1.0) * 100.0;
  Say("tracing overhead: %.2f%% (untraced %.1f ops/s, traced %.1f ops/s)",
      r->values["trace.overhead_pct"], untraced_ops_s, traced_ops_s);
}

void WriteSpans(const std::string& path) {
  if (path.empty()) return;
  const long n = Tracer::Get().WriteJsonl(path);
  Say("spans written: %ld to %s (%llu more not kept)", n, path.c_str(),
      static_cast<unsigned long long>(Tracer::Get().dropped()));
}

// ---------------------------------------------------------------------------

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 1;
}

int RunTcp(const Options& opt, Inputs* in) {
  const Workload& w = in->workload;
  TcpDriver tcp(opt.hotmand);
  std::vector<double> setups;
  std::string error;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    TcpDriver::SetupTimes t;
    if (!tcp.Setup(w, &t, &error)) return Fail("set-up failed: " + error);
    Say("set-up: daemons ready after %.4f s, probed %.4f s, preloaded %.4f s",
        t.ready_s, t.probed_s, t.total_s);
    if (rep > 0) setups.push_back(t.total_s);
  }
  Result r;
  r.values["setup_s"] = Median(setups);
  SayRuns("set-up", setups);

  OpLog warm;
  double wall = 0.0;
  tcp.Window(w, opt.seed, 0, kWarmSeconds, &warm, &wall, nullptr, nullptr);
  OpLog log;
  Reading a, b;
  if (!tcp.Window(w, opt.seed, 1, opt.seconds, &log, &wall, &a, &b)) {
    return Fail("a daemon stopped answering stats");
  }
  r.attempted = warm.ops() + log.ops();
  r.failed = warm.failed + warm.wrong + log.failed + log.wrong;
  r.correct = warm.wrong + log.wrong == 0;
  EndToEnd(log, wall, false, &r);

  if (!opt.trace) {
    double rss = 0.0;
    for (std::size_t i = 0; i < tcp.cluster().nodes().size(); ++i) {
      rss += tcp.cluster().PeakRssMb(i);
    }
    r.values["rss_mb"] = rss;
    Print(r, false);
    return 0;
  }

  // Traced run: a second window with spans on, then the in-process replay
  // of the same inputs and the micro rungs.
  const double untraced_ops_s = r.values["ops_per_s"];
  Tracer::Get().Enable(true);
  OpLog traced;
  Reading ta, tb;
  if (!tcp.Window(w, opt.seed, 2, opt.seconds, &traced, &wall, &ta, &tb)) {
    return Fail("a daemon stopped answering stats");
  }
  r.attempted += traced.ops();
  r.failed += traced.failed + traced.wrong;
  r.correct = r.correct && traced.wrong == 0;
  const double traced_ops_s = Ratio(static_cast<double>(traced.ops()), wall);
  WindowLayers(traced, ta, tb, (tb.self_cpu_s - ta.self_cpu_s) * 1e6, &r);
  r.values["setup.boot_probe_timeouts"] = tcp.probe_timeouts();
  NoteOverhead(untraced_ops_s, traced_ops_s, &r);

  SimDriver replay(w, opt.seed, kCacheBytesPerServer);
  if (!replay.Setup(&error)) return Fail("in-process replay: " + error);
  replay.Launch();
  hotman::cache::CachePool* pool = replay.store()->cache_pool();
  OpLog replayed;
  const SimDriver::Pumped pumped = replay.Run(kReplaySeconds, &replayed);
  SimLayers(replayed, pumped, pool->TotalHits(),
            pool->TotalHits() + pool->TotalMisses(), &r);
  r.correct = r.correct && replay.totals().wrong == 0;
  Say("in-process replay of these inputs: %llu ops in %.2f s, %llu events",
      static_cast<unsigned long long>(replayed.ops()), pumped.wall_s,
      static_cast<unsigned long long>(pumped.events));

  RunMicros(*in, opt.seed);
  const auto totals = Tracer::Get().Totals();
  MicroLayers(totals, &r);

  const bool small = opt.workload == "tcp_small_read";
  const char* size = small ? "small" : "large";
  auto& v = r.values;
  const std::string s = size;
  PrintLadder(
      "get", Mean(Latencies(traced.get, false)), v["cluster.coord_get_mean_us"],
      {{"client: encode request frame (micro, small)", v["net.frame_encode_ns.small"] / 1e3},
       {"client: decode reply frame (micro, " + s + ")", v["net.frame_decode_ns." + s] / 1e3}},
      {{"coordinator: ring preference list (micro)", v["hashring.preference_list_ns"] / 1e3},
       {"coordinator: local replica read (micro, " + s + ")", v["docstore.get_us." + s]},
       {"coordinator: bson decode of a replica ack (micro, " + s + ")", v["bson.decode_ns." + s] / 1e3}});
  PrintLadder(
      "put", Mean(Latencies(traced.put, false)), v["cluster.coord_put_mean_us"],
      {{"client: encode request frame (micro, " + s + ")", v["net.frame_encode_ns." + s] / 1e3},
       {"client: decode ack frame (micro, small)", v["net.frame_decode_ns.small"] / 1e3}},
      {{"coordinator: ring preference list (micro)", v["hashring.preference_list_ns"] / 1e3},
       {"coordinator: bson encode of put_replica (micro, " + s + ")", v["bson.encode_ns." + s] / 1e3},
       {"coordinator: local LWW apply (micro, " + s + ")", v["docstore.apply_us." + s]}});
  Tracer::Get().Enable(false);
  WriteSpans(opt.trace_out);
  Print(r, true);
  return 0;
}

int RunSim(const Options& opt, Inputs* in) {
  const Workload& w = in->workload;
  std::unique_ptr<SimDriver> driver;
  // Set-up runs on this thread alone, so it is timed in this thread's CPU
  // time like the window below.
  std::vector<double> setups;
  std::vector<double> wall_setups;
  std::string error;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    driver.reset();
    driver = std::make_unique<SimDriver>(w, opt.seed, kCacheBytesPerServer);
    const auto t0 = SteadyClock::now();
    const double cpu0 = ThreadCpuSeconds();
    if (!driver->Setup(&error)) return Fail("set-up failed: " + error);
    if (rep > 0) {
      setups.push_back(ThreadCpuSeconds() - cpu0);
      wall_setups.push_back(Since(t0));
    }
  }
  Result r;
  r.values["setup_s"] = Median(setups);
  SayRuns("set-up (thread CPU)", setups);
  SayRuns("set-up (wall)", wall_setups);

  driver->Launch();
  driver->Run(kWarmSeconds, nullptr);
  OpLog log;
  const SimDriver::Pumped pumped = driver->Run(opt.seconds, &log);
  EndToEnd(log, pumped.cpu_s, true, &r);
  Say("simulated %.3f s in %.3f s of wall time (%.3f s CPU), %llu events; "
      "whole window %.1f ops per wall s, %.1f per CPU s",
      static_cast<double>(pumped.virtual_us) / 1e6, pumped.wall_s,
      pumped.cpu_s, static_cast<unsigned long long>(pumped.events),
      Ratio(static_cast<double>(log.ops()), pumped.wall_s),
      Ratio(static_cast<double>(log.ops()), pumped.cpu_s));

  if (!opt.trace) {
    r.values["rss_mb"] = SelfPeakRssMb();
    r.attempted = driver->totals().ops();
    r.failed = driver->totals().failed + driver->totals().wrong;
    r.correct = driver->totals().wrong == 0;
    Print(r, false);
    return 0;
  }

  const double untraced_ops_s = r.values["ops_per_s"];
  hotman::core::MyStore* store = driver->store();
  hotman::cache::CachePool* pool = store->cache_pool();
  Tracer::Get().Enable(true);
  Reading a, b;
  a.json = {store->storage()->StatsJson()};
  a.cpu_s = SelfCpuSeconds();
  const std::uint64_t hits0 = pool->TotalHits();
  const std::uint64_t lookups0 = hits0 + pool->TotalMisses();
  OpLog traced;
  const SimDriver::Pumped tp = driver->Run(opt.seconds, &traced);
  b.cpu_s = SelfCpuSeconds();
  b.json = {store->storage()->StatsJson()};
  const std::uint64_t hits = pool->TotalHits() - hits0;
  const std::uint64_t lookups = pool->TotalHits() + pool->TotalMisses() - lookups0;
  const auto window_totals = Tracer::Get().Totals();
  auto span_ns = [&](const char* name) {
    const auto it = window_totals.find(name);
    return it == window_totals.end() ? 0.0 : it->second.ns;
  };
  // One process plays both sides here: the daemon figure is the whole
  // process, the client figure the benchmark's own callbacks.
  WindowLayers(traced, a, b,
               (span_ns("harness.check") + span_ns("harness.value")) / 1e3, &r);
  r.values["net.client_hop_get_us"] =
      Mean(Latencies(traced.get, true)) - r.values["cluster.coord_get_mean_us"];
  SimLayers(traced, tp, hits, lookups, &r);
  r.values["setup.boot_probe_timeouts"] = 0;
  const double traced_ops_s = Ratio(static_cast<double>(traced.ops()), tp.cpu_s);
  NoteOverhead(untraced_ops_s, traced_ops_s, &r);

  RunMicros(*in, opt.seed);
  MicroLayers(Tracer::Get().Totals(), &r);
  Tracer::Get().Enable(false);
  r.attempted = driver->totals().ops();
  r.failed = driver->totals().failed + driver->totals().wrong;
  r.correct = driver->totals().wrong == 0;
  WriteSpans(opt.trace_out);
  Print(r, true);
  return 0;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--hotmand") {
      opt->hotmand = value;
    } else if (flag == "--trace-out") {
      opt->trace_out = value;
    } else if (flag == "--git-sha") {
      opt->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(google-build-using-namespace)
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    for (const char* w : kWorkloads) std::printf("workload %s\n", w);
    for (const MetricDef& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
    for (const MetricDef& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
    return 0;
  }
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--hotmand PATH [--trace-out FILE] [--git-sha SHA]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Inputs> in = MakeInputs(opt.workload);
  if (in == nullptr) return Fail("unknown workload " + opt.workload);
  InstallDaemonReaper();
  Say("host: %u cores, compiler %s, build %s, source %s", std::thread::hardware_concurrency(),
      __VERSION__, PERFBENCH_BUILD_TYPE, opt.git_sha.c_str());
  Say("workload %s, seed %llu, %.1f s window, trace %d", opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  if (opt.workload.rfind("tcp_", 0) == 0) {
    if (opt.hotmand.empty()) return Fail("--hotmand is required for " + opt.workload);
    return RunTcp(opt, in.get());
  }
  return RunSim(opt, in.get());
}
