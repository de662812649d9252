// Hot-spot taming under skew (ISSUE 10): Zipf and flash-crowd workloads
// against the strict-quorum cluster, hot-key read rotation off vs. on.
//
// Closed-loop clients draw read keys Zipfian(theta) (theta in {0.8, 0.99,
// 1.2}) or from a flash-crowd schedule (one key ramps to 90% of traffic,
// holds, decays); the 2% writes draw uniformly (read storms are read
// phenomena), except the t120w arm where writes ride the same Zipf — the
// boundary regime where fanned reads race in-flight head-key writes,
// digest-mismatch and demote. With the rotation off every read of the
// head key anchors its payload on the key's primary holder; with it on,
// hot clean keys rotate the payload fetch across the N preference
// replicas, digest-verified against the primary. Reported:
// client-observed read p50/p99/p999, completed reads per simulated
// second, and the replica-serve balance (max/mean payload serves per
// node — 1.0 is perfectly even).
//
// The acceptance shape: at theta = 1.2 the p999 improves with the rotation
// on (same seed, same demand), because the head key's payload serves no
// longer queue on one service station.
//
//   bench_skew [--short]    # --short: CI smoke (small sweep)

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "workload/metrics.h"
#include "workload/skew.h"

using namespace hotman;  // NOLINT

namespace {

struct ArmResult {
  double reads_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double balance = 0;      ///< max/mean replica payload serves per node
  double hot_hit_pct = 0;  ///< % of coordinated gets served by the rotation
  double demote_pct = 0;   ///< % of coordinated gets that demoted after fanning
};

/// One closed-loop client: finishes an op, draws the next key from the
/// skewed picker, repeats. Lives outside the Cluster so Stop()'s callback
/// flush during teardown still finds it alive.
struct Driver {
  cluster::Cluster* cluster = nullptr;
  Rng rng{0};
  const workload::ZipfGenerator* zipf = nullptr;        ///< zipf arms
  const workload::FlashCrowdGenerator* crowd = nullptr; ///< flash arm
  int keys = 0;
  double write_ratio = 0;
  /// Writes draw from the same skewed picker as reads. Off by default: a
  /// flash crowd / Zipf read storm is a *read* phenomenon, and uniform
  /// writes isolate the read-path comparison. The skewed-writes arm
  /// measures the boundary where the head key is write-hot too — fanned
  /// reads then race in-flight writes, digest-mismatch and demote, and
  /// the rotation's tail win shrinks to parity.
  bool skewed_writes = false;
  workload::LatencyRecorder* reads = nullptr;
  const bool* measuring = nullptr;
  long long reads_done = 0;
  long long reads_failed = 0;
  bool stop = false;

  void Next() {
    if (stop) return;
    const Micros now = cluster->loop()->Now();
    if (rng.NextDouble() < write_ratio) {
      const std::size_t rank =
          skewed_writes
              ? (crowd != nullptr ? crowd->Next(&rng, now) : zipf->Next(&rng))
              : rng.Uniform(keys);
      cluster->Put("k" + std::to_string(rank), ToBytes("v"),
                   [this](const Status&) { Next(); });
    } else {
      const std::size_t rank =
          crowd != nullptr ? crowd->Next(&rng, now) : zipf->Next(&rng);
      const std::string key = "k" + std::to_string(rank);
      const Micros issued = now;
      cluster->Get(key, [this, issued](const Result<bson::Document>& value) {
        ++reads_done;
        if (!value.ok()) ++reads_failed;
        if (*measuring) {
          reads->Record(cluster->loop()->Now() - issued);
        }
        Next();
      });
    }
  }
};

/// One measured run: `theta` < 0 selects the flash-crowd schedule.
ArmResult RunOne(double theta, bool skewed_writes, bool hot, bool short_mode) {
  ArmResult result;
  const int kKeys = short_mode ? 128 : 512;
  const int kClients = short_mode ? 64 : 128;
  const Micros kMeasure = (short_mode ? 4 : 12) * kMicrosPerSecond;

  // Drivers declared before the cluster: teardown flushes pending callbacks.
  std::vector<std::unique_ptr<Driver>> drivers;

  cluster::ClusterConfig config = cluster::ClusterConfig::Uniform(5);
  config.replication_factor = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;  // strict (R+W>N): both arms serve consistent reads
  config.hinted_handoff = false;
  // The rotation refines the primary plan, so both arms run single-replica
  // reads; only the hot rotation differs.
  config.read_path =
      hot ? cluster::ReadPath::kHotRotation : cluster::ReadPath::kPrimary;
  // The Zipf head sees thousands of qps at this closed-loop demand; the
  // uniform tail a handful. This bar separates them with a wide margin.
  config.heat.hot_qps = 50.0;
  cluster::Cluster cluster(config, /*seed=*/7);
  if (!cluster.Start().ok()) return result;

  for (int i = 0; i < kKeys; ++i) {
    (void)cluster.PutSync("k" + std::to_string(i), ToBytes("seed"));
  }
  // Age the preload past the quiescence window: clean dirty sets all round.
  cluster.RunFor(cluster::kFastReadQuiescence + kMicrosPerSecond);

  // The pickers are built after the preload so the flash-crowd schedule can
  // anchor its onset in the warmup that follows.
  std::unique_ptr<workload::ZipfGenerator> zipf;
  std::unique_ptr<workload::FlashCrowdGenerator> crowd;
  if (theta >= 0) {
    zipf = std::make_unique<workload::ZipfGenerator>(kKeys, theta);
  } else {
    workload::FlashCrowdSpec spec;
    spec.n = kKeys;
    spec.crowd_rank = 0;
    spec.start = cluster.loop()->Now() + 3 * kMicrosPerSecond;  // mid-warmup
    spec.ramp = kMicrosPerSecond;
    spec.hold = kMeasure;  // the whole measured window rides the spike
    spec.decay_half_life = 2 * kMicrosPerSecond;
    spec.peak_fraction = 0.9;
    crowd = std::make_unique<workload::FlashCrowdGenerator>(spec);
  }

  workload::LatencyRecorder reads;
  bool measuring = false;
  Rng master(0x5eedba5e);
  for (int c = 0; c < kClients; ++c) {
    auto driver = std::make_unique<Driver>();
    driver->cluster = &cluster;
    driver->rng = master.Fork();
    driver->zipf = zipf.get();
    driver->crowd = crowd.get();
    driver->keys = kKeys;
    driver->write_ratio = 0.02;
    driver->skewed_writes = skewed_writes;
    driver->reads = &reads;
    driver->measuring = &measuring;
    drivers.push_back(std::move(driver));
  }
  for (auto& driver : drivers) driver->Next();
  cluster.RunFor(4 * kMicrosPerSecond);  // warmup (heats the sketch too)

  long long reads_before = 0;
  for (auto& driver : drivers) reads_before += driver->reads_done;
  const cluster::NodeStats total_before = cluster.AggregateStats();
  std::vector<std::size_t> served_before;
  for (cluster::StorageNode* node : cluster.nodes()) {
    served_before.push_back(node->stats().replica_gets_served);
  }

  measuring = true;
  cluster.RunFor(kMeasure);
  measuring = false;

  long long reads_after = 0;
  for (auto& driver : drivers) {
    reads_after += driver->reads_done;
    driver->stop = true;
  }
  const cluster::NodeStats total_after = cluster.AggregateStats();
  double served_max = 0, served_sum = 0;
  std::size_t node_index = 0;
  for (cluster::StorageNode* node : cluster.nodes()) {
    const double served = static_cast<double>(
        node->stats().replica_gets_served - served_before[node_index++]);
    served_max = std::max(served_max, served);
    served_sum += served;
  }
  cluster.RunFor(2 * kMicrosPerSecond);  // drain in-flight ops

  const double seconds =
      static_cast<double>(kMeasure) / static_cast<double>(kMicrosPerSecond);
  result.reads_per_s =
      static_cast<double>(reads_after - reads_before) / seconds;
  if (reads.count() > 0) {
    result.p50_ms = static_cast<double>(reads.Percentile(50)) / 1000.0;
    result.p99_ms = static_cast<double>(reads.Percentile(99)) / 1000.0;
    result.p999_ms = static_cast<double>(reads.Percentile(99.9)) / 1000.0;
  }
  const double mean =
      served_sum / static_cast<double>(std::max<std::size_t>(node_index, 1));
  if (mean > 0) result.balance = served_max / mean;
  const double gets = static_cast<double>(total_after.gets_coordinated -
                                          total_before.gets_coordinated);
  if (gets > 0) {
    result.hot_hit_pct =
        100.0 * static_cast<double>(total_after.hot_read_hits -
                                    total_before.hot_read_hits) / gets;
    result.demote_pct =
        100.0 * static_cast<double>(total_after.hot_read_demotions -
                                    total_before.hot_read_demotions) / gets;
  }
  return result;
}

struct Arm {
  const char* name;   ///< table + json tag
  double theta;       ///< < 0 = flash crowd
  bool skewed_writes; ///< writes drawn from the skewed picker too
};

}  // namespace

int main(int argc, char** argv) {
  const bool short_mode = argc > 1 && std::strcmp(argv[1], "--short") == 0;

  bench::Header("skew", "hot-key read rotation under Zipf / flash crowds");
  std::printf("5 nodes, N=3 W=2 R=2 strict, fast reads on in both arms, "
              "2%% uniform\nwrites (t120w: writes skewed too), closed-loop "
              "clients;\noff = primary-anchored, on = hot rotation\n\n");
  bench::Row({"arm", "off r/s", "on r/s", "off p99", "on p99", "off p999",
              "on p999", "off bal", "on bal", "hot %"}, 10);

  bench::JsonWriter json("skew");
  json.Text("mode", short_mode ? "short" : "full");

  const Arm arms_full[] = {{"t080", 0.8, false},
                           {"t099", 0.99, false},
                           {"t120", 1.2, false},
                           {"t120w", 1.2, true},  // head key write-hot too
                           {"flash", -1.0, false}};
  const Arm arms_short[] = {{"t099", 0.99, false}, {"flash", -1.0, false}};
  const Arm* arms = short_mode ? arms_short : arms_full;
  const int n_arms = short_mode ? 2 : 5;

  double p999_gain_t120 = 0;
  for (int i = 0; i < n_arms; ++i) {
    const Arm& arm = arms[i];
    const ArmResult off =
        RunOne(arm.theta, arm.skewed_writes, /*hot=*/false, short_mode);
    const ArmResult on =
        RunOne(arm.theta, arm.skewed_writes, /*hot=*/true, short_mode);
    if (std::strcmp(arm.name, "t120") == 0 && on.p999_ms > 0) {
      p999_gain_t120 = off.p999_ms / on.p999_ms;
    }
    bench::Row({arm.name, bench::Fmt(off.reads_per_s, 0),
                bench::Fmt(on.reads_per_s, 0), bench::Fmt(off.p99_ms, 1),
                bench::Fmt(on.p99_ms, 1), bench::Fmt(off.p999_ms, 1),
                bench::Fmt(on.p999_ms, 1), bench::Fmt(off.balance, 2),
                bench::Fmt(on.balance, 2), bench::Fmt(on.hot_hit_pct, 1)},
               10);
    const std::string tag = arm.name;
    json.Number(tag + "_off_reads_per_s", off.reads_per_s, 0);
    json.Number(tag + "_on_reads_per_s", on.reads_per_s, 0);
    json.Number(tag + "_off_p50_ms", off.p50_ms, 2);
    json.Number(tag + "_on_p50_ms", on.p50_ms, 2);
    json.Number(tag + "_off_p99_ms", off.p99_ms, 2);
    json.Number(tag + "_on_p99_ms", on.p99_ms, 2);
    json.Number(tag + "_off_p999_ms", off.p999_ms, 2);
    json.Number(tag + "_on_p999_ms", on.p999_ms, 2);
    json.Number(tag + "_off_balance", off.balance, 3);
    json.Number(tag + "_on_balance", on.balance, 3);
    json.Number(tag + "_hot_hit_pct", on.hot_hit_pct, 1);
    json.Number(tag + "_demote_pct", on.demote_pct, 2);
  }
  if (!short_mode) json.Number("p999_gain_t120", p999_gain_t120, 3);
  json.WriteFile();

  bench::Section("expected shapes");
  std::printf("- theta = 0.8: mild skew, both arms near-even balance, the\n");
  std::printf("  rotation engages rarely (head key barely clears the bar)\n");
  std::printf("- theta rising: the off arm's balance worsens (one primary\n");
  std::printf("  serves the head) and its p999 inflates with that queue;\n");
  std::printf("  the on arm spreads payload serves, p999 gain > 1 at 1.2\n");
  std::printf("- t120w (head key write-hot too): fanned reads race the\n");
  std::printf("  writes and demote on digest mismatch — the tail win\n");
  std::printf("  shrinks toward parity, throughput/balance still improve\n");
  std::printf("- flash crowd: the spike key is hot within a half-life;\n");
  std::printf("  the on arm rides it with near-even balance\n");
  return 0;
}
