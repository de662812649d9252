// Self-test of the benchmark's own logic: percentile ranks and sample
// counts, the (mean x count) window arithmetic, number lookup in the real
// stats JSON, the small-value checks, and negative controls proving that a
// corrupted expected value is counted as a wrong answer on the simulator
// path and, given --hotmand PATH, on the loopback-cluster path too.
//
// Usage: perfbench_selftest [--hotmand PATH]. Exit code 0 when all pass.

#include <signal.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "sim_driver.h"
#include "stats.h"
#include "tcp_driver.h"
#include "values.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9 * (1 + std::fabs(b)); }

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT(Percentile(hundred, 50) == 50);
  EXPECT(Percentile(hundred, 99) == 99);
  EXPECT(Percentile(hundred, 100) == 100);
  EXPECT(Percentile({7.0}, 99) == 7.0);
  EXPECT(Percentile({}, 50) == 0.0);
  // A p99 has ten samples beyond it from 1 000 samples on, not before.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(SamplesBeyond(999, 99) == 9);
  EXPECT(SamplesBeyond(2500, 99) == 25);
  EXPECT(NearestRank(1000, 50) == 500);
  EXPECT(Mean({1.0, 2.0, 6.0}) == 3.0);
}

void TestWindowMean() {
  // One daemon: 100 samples of mean 10 before, 300 of mean 20 after, so
  // the 200 in the window sum to 6000 - 1000 and average 25.
  EXPECT(Near(WindowMean({{100, 10}}, {{300, 20}}), 25.0));
  // Two daemons pool their windows: (5000 + (500 - 0)) / (200 + 50) = 22.
  EXPECT(Near(WindowMean({{100, 10}, {0, 0}}, {{300, 20}, {50, 10}}), 22.0));
  EXPECT(WindowMean({{5, 1}}, {{5, 1}}) == 0.0);  // nothing recorded
}

void TestJsonNumber() {
  hotman::metrics::Registry registry;
  registry.counter("gets_failed")->Increment(3);
  registry.counter("net.frames_sent")->Increment(123456789);
  hotman::metrics::Histogram* fast = registry.histogram("fast_get_latency_us");
  hotman::metrics::Histogram* all = registry.histogram("get_latency_us");
  fast->Record(1);
  for (int v : {10, 20, 30, 40}) all->Record(v);
  const std::string json = registry.ToJson();
  EXPECT(JsonNumber(json, {"counters", "gets_failed"}) == 3.0);
  EXPECT(JsonNumber(json, {"counters", "net.frames_sent"}) == 123456789.0);
  EXPECT(JsonNumber(json, {"histograms", "get_latency_us", "count"}) == 4.0);
  EXPECT(JsonNumber(json, {"histograms", "get_latency_us", "mean_us"}) == 25.0);
  EXPECT(JsonNumber(json, {"histograms", "fast_get_latency_us", "mean_us"}) == 1.0);
  EXPECT(!JsonNumber(json, {"counters", "no_such_counter"}).has_value());
}

void TestSmallValues() {
  SeqBook book(3);
  const std::uint64_t seq = book.Next(1);
  const hotman::Bytes v = MakeSmallValue("key00007", 1, seq);
  EXPECT(v.size() == kSmallValueBytes);
  EXPECT(CheckSmallValue(v, "key00007", book));
  EXPECT(CheckSmallValue(MakeSmallValue("key00007", 0, 0), "key00007", book));
  book.Next(1);  // a newer write exists: the older version is still allowed
  EXPECT(CheckSmallValue(v, "key00007", book));
  // Negative controls: a foreign key, an unknown writer, a sequence number
  // never handed out, a flipped byte anywhere, a truncated value.
  EXPECT(!CheckSmallValue(v, "key00008", book));
  EXPECT(!CheckSmallValue(MakeSmallValue("key00007", 3, 1), "key00007", book));
  EXPECT(!CheckSmallValue(MakeSmallValue("key00007", 2, 1), "key00007", book));
  for (std::size_t i = 0; i < v.size(); i += 7) {
    hotman::Bytes bad = v;
    bad[i] ^= 0x01;
    EXPECT(!CheckSmallValue(bad, "key00007", book));
  }
  hotman::Bytes shorter(v.begin(), v.end() - 1);
  EXPECT(!CheckSmallValue(shorter, "key00007", book));
}

/// A small-value workload whose check can be told to reject item 0, the
/// way a corrupted expected value would.
Workload SmallWorkload(SeqBook* book, const bool* corrupt_item0, int clients) {
  Workload w;
  for (char c = 'a'; c < 'i'; ++c) w.keys.push_back(std::string("k") + c);
  const std::vector<std::string>* keys = &w.keys;
  w.value = [book, keys](std::size_t item, std::size_t writer) {
    return MakeSmallValue((*keys)[item], writer, writer == 0 ? 0 : book->Next(writer));
  };
  w.check = [book, keys, corrupt_item0](std::size_t item, const hotman::Bytes& got) {
    if (item == 0 && *corrupt_item0) {
      hotman::Bytes expected_garbled = got;
      expected_garbled[kSmallValueBytes - 1] ^= 0x01;
      return CheckSmallValue(expected_garbled, (*keys)[item], *book);
    }
    return CheckSmallValue(got, (*keys)[item], *book);
  };
  w.pick = [n = w.keys.size()](hotman::Rng* rng) {
    return static_cast<std::size_t>(rng->Uniform(n));
  };
  w.clients = clients;
  w.get_share = 0.7;
  return w;
}

void TestSimNegativeControl() {
  for (bool corrupt : {false, true}) {
    SeqBook book(3);
    const Workload w = SmallWorkload(&book, &corrupt, 2);
    SimDriver driver(w, 5, 1 << 20);
    std::string error;
    EXPECT(driver.Setup(&error));
    driver.Launch();
    OpLog log;
    driver.Run(0.2, &log);
    EXPECT(log.get.size() > 50);
    EXPECT(driver.totals().failed == 0);
    if (corrupt) {
      EXPECT(driver.totals().wrong > 0);
    } else {
      EXPECT(driver.totals().wrong == 0);
    }
  }
}

void TestTcpNegativeControl(const std::string& hotmand) {
  std::vector<pid_t> pids;
  for (bool corrupt : {false, true}) {
    SeqBook book(3);
    const Workload w = SmallWorkload(&book, &corrupt, 2);
    TcpDriver tcp(hotmand);
    TcpDriver::SetupTimes times;
    std::string error;
    EXPECT(tcp.Setup(w, &times, &error));
    if (!error.empty()) std::fprintf(stderr, "set-up: %s\n", error.c_str());
    OpLog log;
    double wall = 0.0;
    Reading before, after;
    EXPECT(tcp.Window(w, 9, 1, 0.3, &log, &wall, &before, &after));
    EXPECT(log.get.size() > 50);
    EXPECT(log.failed == 0);
    EXPECT(corrupt ? log.wrong > 0 : log.wrong == 0);
    EXPECT(tcp.probe_timeouts() == 0);
    for (const auto& node : tcp.cluster().nodes()) pids.push_back(node.pid);
  }
  // Every daemon was killed and reaped when its driver went away.
  for (pid_t pid : pids) {
    EXPECT(pid > 0 && ::kill(pid, 0) == -1 && errno == ESRCH);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(google-build-using-namespace)
  InstallDaemonReaper();
  TestPercentiles();
  TestWindowMean();
  TestJsonNumber();
  TestSmallValues();
  TestSimNegativeControl();
  if (argc == 3 && std::strcmp(argv[1], "--hotmand") == 0) {
    TestTcpNegativeControl(argv[2]);
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all passed%s\n",
              argc == 3 ? " (loopback cluster included)" : "");
  return 0;
}
