#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cluster/heat_tracker.h"
#include "common/random.h"
#include "workload/skew.h"

namespace hotman::cluster {
namespace {

std::string Key(std::size_t i) { return "k" + std::to_string(i); }

TEST(HeatTrackerTest, TopKMatchesExactCountsOnSmallKeyspace) {
  // Keyspace fits in capacity: the sketch is exact (no evictions, error 0).
  HeatConfig config;
  config.capacity = 64;
  config.half_life = kMicrosPerSecond;
  HeatTracker tracker(config);

  std::map<std::string, int> exact;
  for (std::size_t i = 0; i < 16; ++i) {
    const int hits = 160 - static_cast<int>(i) * 10;
    for (int h = 0; h < hits; ++h) tracker.Record(Key(i), 0);
    exact[Key(i)] = hits;
  }

  const HeatSnapshot snap = tracker.Snapshot(0);
  ASSERT_EQ(snap.top.size(), 16u);
  for (std::size_t rank = 0; rank < snap.top.size(); ++rank) {
    const HeatEntry& e = snap.top[rank];
    EXPECT_DOUBLE_EQ(e.count, exact[e.key]) << e.key;
    EXPECT_DOUBLE_EQ(e.error, 0.0);
    EXPECT_EQ(e.key, Key(rank)) << "rank order must follow exact counts";
  }
  EXPECT_EQ(snap.ops, 16u * 160u - 10u * (15u * 16u / 2u));
}

TEST(HeatTrackerTest, SpaceSavingErrorBoundHoldsUnderEviction) {
  HeatConfig config;
  config.capacity = 4;
  config.half_life = 10 * kMicrosPerSecond;
  HeatTracker tracker(config);

  // One heavy key interleaved with a churn of 16 light keys.
  std::map<std::string, int> exact;
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const std::string key =
        (i % 2 == 0) ? "heavy" : Key(rng.Uniform(16));
    tracker.Record(key, 0);
    ++exact[key];
  }

  const HeatSnapshot snap = tracker.Snapshot(0);
  ASSERT_LE(snap.top.size(), 4u);
  // The heavy key must survive, and every tracked counter must bracket the
  // true count: count >= true >= count - error.
  bool saw_heavy = false;
  for (const HeatEntry& e : snap.top) {
    const double true_hits = exact.count(e.key) ? exact[e.key] : 0;
    EXPECT_GE(e.count + 1e-9, true_hits) << e.key;
    EXPECT_LE(e.count - e.error - 1e-9, true_hits) << e.key;
    if (e.key == "heavy") saw_heavy = true;
  }
  EXPECT_TRUE(saw_heavy);
  EXPECT_EQ(snap.top[0].key, "heavy");
}

TEST(HeatTrackerTest, DecayHalvesEveryHalfLife) {
  HeatConfig config;
  config.half_life = kMicrosPerSecond;
  config.hot_qps = 50.0;
  HeatTracker tracker(config);
  for (int i = 0; i < 200; ++i) tracker.Record("hot", 0);

  const double q0 = tracker.EstimatedQps("hot", 0);
  const double q1 = tracker.EstimatedQps("hot", kMicrosPerSecond);
  const double q3 = tracker.EstimatedQps("hot", 3 * kMicrosPerSecond);
  EXPECT_GT(q0, config.hot_qps);
  EXPECT_NEAR(q1 / q0, 0.5, 1e-6);
  EXPECT_NEAR(q3 / q0, 0.125, 1e-6);

  EXPECT_TRUE(tracker.IsHot("hot", 0));
  // 200 hits * ln2 ~ 138 qps: below 50 after two half-lives.
  EXPECT_FALSE(tracker.IsHot("hot", 2 * kMicrosPerSecond));
}

TEST(HeatTrackerTest, MergeIsAssociativeWithinCapacity) {
  HeatConfig config;
  config.capacity = 64;
  config.half_life = kMicrosPerSecond;

  // Three per-node trackers over overlapping keyspaces that jointly fit
  // in capacity, as in the /stats rollup.
  HeatTracker a(config), b(config), c(config);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    a.Record(Key(rng.Uniform(12)), 0);
    b.Record(Key(4 + rng.Uniform(12)), 0);
    c.Record(Key(8 + rng.Uniform(12)), 0);
  }
  const HeatSnapshot sa = a.Snapshot(0), sb = b.Snapshot(0),
                     sc = c.Snapshot(0);

  HeatSnapshot left = sa;          // (a + b) + c
  left.MergeFrom(sb, config.capacity);
  left.MergeFrom(sc, config.capacity);
  HeatSnapshot bc = sb;            // a + (b + c)
  bc.MergeFrom(sc, config.capacity);
  HeatSnapshot right = sa;
  right.MergeFrom(bc, config.capacity);

  ASSERT_EQ(left.top.size(), right.top.size());
  for (std::size_t i = 0; i < left.top.size(); ++i) {
    EXPECT_EQ(left.top[i].key, right.top[i].key) << "rank " << i;
    EXPECT_NEAR(left.top[i].count, right.top[i].count, 1e-9);
    EXPECT_NEAR(left.top[i].error, right.top[i].error, 1e-9);
  }
  EXPECT_NEAR(left.total_qps, right.total_qps, 1e-9);
  EXPECT_EQ(left.ops, right.ops);
  EXPECT_NEAR(left.skew_coefficient, right.skew_coefficient, 1e-9);
}

TEST(HeatTrackerTest, UniformWorkloadFlagsNothingHot) {
  // Negative control: high aggregate rate spread over many keys must not
  // flag anything. 256 keys, ~4000 ops over 1 virtual second: ~16 qps per
  // key, far under the 200 qps default threshold.
  HeatConfig config;  // defaults: hot_qps = 200, half_life = 2 s
  HeatTracker tracker(config);
  Rng rng(29);
  Micros now = 0;
  for (int i = 0; i < 4000; ++i) {
    tracker.Record(Key(rng.Uniform(256)), now);
    now += 250;  // 4000 ops/sec aggregate
  }
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_FALSE(tracker.IsHot(Key(i), now)) << Key(i);
  }
  const HeatSnapshot snap = tracker.Snapshot(now);
  EXPECT_LT(snap.skew_coefficient, 0.3);
}

TEST(HeatTrackerTest, SkewCoefficientRecoversTheta) {
  HeatConfig config;
  config.capacity = 64;
  config.half_life = 10 * kMicrosPerSecond;
  HeatTracker tracker(config);

  const workload::ZipfGenerator zipf(48, 0.99);
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    tracker.Record(Key(zipf.Next(&rng)), 0);
  }
  const HeatSnapshot snap = tracker.Snapshot(0);
  EXPECT_NEAR(snap.skew_coefficient, 0.99, 0.2);
  EXPECT_GT(snap.total_qps, 0.0);
  // The hottest key should clearly be flagged at these rates.
  EXPECT_EQ(snap.top[0].key, Key(0));
}

TEST(HeatTrackerTest, RotationTicketsRoundRobinPerKey) {
  HeatTracker tracker;
  tracker.Record("a", 0);
  tracker.Record("b", 0);
  EXPECT_EQ(tracker.NextRotation("a"), 0u);
  EXPECT_EQ(tracker.NextRotation("a"), 1u);
  EXPECT_EQ(tracker.NextRotation("b"), 0u);
  EXPECT_EQ(tracker.NextRotation("a"), 2u);
  EXPECT_EQ(tracker.NextRotation("untracked"), 0u);
  EXPECT_EQ(tracker.NextRotation("untracked"), 0u);
}

}  // namespace
}  // namespace hotman::cluster
