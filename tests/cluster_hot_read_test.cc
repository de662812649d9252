// Hot-key read fan-out (ISSUE 10): reads of *hot, clean* keys rotate their
// payload fetch across the preference replicas, digest-verified against the
// primary. These tests pin down the safety edges: dirty keys never fan out,
// a stale replica's value is never served (version mismatch demotes), and
// interleaved writes always read back fresh. The MyStore test at the bottom
// covers the front-side heat -> cache-pin loop, including the
// pin-released-after-decay regression.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/mystore.h"

namespace hotman::cluster {
namespace {

ClusterConfig HotConfig() {
  ClusterConfig config = ClusterConfig::Uniform(5);
  config.replication_factor = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;  // R+W > N, strict mode: fast path engages
  config.hinted_handoff = false;
  config.read_path = ReadPath::kHotRotation;
  // Test-scale thresholds: a key read a few dozen times at ~200 ops/s of
  // virtual time is comfortably hot.
  config.heat.hot_qps = 5.0;
  config.heat.min_hits = 8.0;
  return config;
}

/// Issues `reads` paced reads of `key` (about 200/s of virtual time) and
/// returns how many came back ok.
int PacedReads(Cluster& cluster, StorageNode* coordinator,
               const std::string& key, int reads,
               std::vector<std::string>* values = nullptr) {
  int ok = 0;
  for (int i = 0; i < reads; ++i) {
    coordinator->CoordinateGet(
        key, [&ok, values](const Result<bson::Document>& value) {
          if (!value.ok()) return;
          ++ok;
          if (values != nullptr) {
            values->push_back(ToString(core::RecordValue(*value)));
          }
        });
    cluster.RunFor(5 * kMicrosPerMilli);
  }
  return ok;
}

TEST(HotReadTest, HotKeyReadsRotateAcrossReplicas) {
  Cluster cluster(HotConfig(), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  bool put_ok = false;
  coordinator->CoordinatePut("hk", ToBytes("fresh"),
                             [&put_ok](const Status& s) { put_ok = s.ok(); });
  cluster.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(put_ok);
  ASSERT_TRUE(coordinator->KeyIsClean("hk"));

  const auto before = cluster.AggregateStats();
  std::vector<std::string> values;
  const int ok = PacedReads(cluster, coordinator, "hk", 120, &values);
  EXPECT_EQ(ok, 120);
  for (const std::string& value : values) EXPECT_EQ(value, "fresh");

  const auto after = cluster.AggregateStats();
  // The rotation engaged: some reads fanned to a non-primary replica, each
  // verified by a digest probe at the primary, and none had to demote.
  EXPECT_GT(after.hot_gets_fanned, before.hot_gets_fanned);
  EXPECT_GT(after.hot_read_hits, before.hot_read_hits);
  EXPECT_GT(after.replica_digests_served, before.replica_digests_served);
  EXPECT_EQ(after.hot_read_demotions, before.hot_read_demotions);
  // Every fanned hit is also a fast-read hit (the hot path is a refinement
  // of the fast path, not a third consistency mode).
  EXPECT_GE(after.fast_read_hits - before.fast_read_hits,
            after.hot_read_hits - before.hot_read_hits);

  // The heat sketch saw it all: the key tops this coordinator's snapshot.
  const HeatSnapshot snap = coordinator->heat_snapshot();
  ASSERT_FALSE(snap.top.empty());
  EXPECT_EQ(snap.top.front().key, "hk");
  EXPECT_GT(snap.total_qps, 0.0);
}

TEST(HotReadTest, DirtyKeyIsNeverFanned) {
  Cluster cluster(HotConfig(), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  bool put_ok = false;
  coordinator->CoordinatePut("hk", ToBytes("v0"),
                             [&put_ok](const Status& s) { put_ok = s.ok(); });
  cluster.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(put_ok);
  // Make the key hot while it is clean.
  ASSERT_EQ(PacedReads(cluster, coordinator, "hk", 60), 60);

  // A read issued while a write is in flight sees a dirty key: it must
  // take the quorum path — no fan-out, however hot the key is.
  const auto before = cluster.AggregateStats();
  bool put2_ok = false, read_ok = false;
  coordinator->CoordinatePut(
      "hk", ToBytes("v1"), [&put2_ok](const Status& s) { put2_ok = s.ok(); });
  coordinator->CoordinateGet(
      "hk", [&read_ok](const Result<bson::Document>& value) {
        read_ok = value.ok();
      });
  cluster.RunFor(2 * kMicrosPerSecond);
  EXPECT_TRUE(put2_ok);
  EXPECT_TRUE(read_ok);
  const auto after = cluster.AggregateStats();
  EXPECT_EQ(after.hot_gets_fanned, before.hot_gets_fanned);
  EXPECT_EQ(after.hot_read_hits, before.hot_read_hits);
  EXPECT_GT(after.fast_read_fallbacks, before.fast_read_fallbacks);
}

TEST(HotReadTest, StaleReplicaIsNeverServed) {
  // Freeze read repair so a deliberately stale replica *stays* stale: every
  // fanned read that lands on it must catch the version mismatch via the
  // primary digest and demote, never serve the old value.
  ClusterConfig config = HotConfig();
  config.read_repair = false;
  Cluster cluster(std::move(config), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  bool put_ok = false;
  coordinator->CoordinatePut("hk", ToBytes("old"),
                             [&put_ok](const Status& s) { put_ok = s.ok(); });
  cluster.RunFor(kMicrosPerSecond);
  ASSERT_TRUE(put_ok);
  ASSERT_EQ(PacedReads(cluster, coordinator, "hk", 40), 40);

  // Plant a newer version at the primary and the first replica, bypassing
  // replication; the last holder now lags permanently. This mimics a
  // W = 2 write that settled on {primary, replica1} while replica2 is
  // still catching up — exactly the window the digest check must cover.
  const auto prefs = coordinator->ring().PreferenceList("hk", 3);
  ASSERT_EQ(prefs.size(), 3u);
  const Micros newer_ts = cluster.loop()->Now() + kMicrosPerSecond;
  for (int i = 0; i < 2; ++i) {
    StorageNode* holder = cluster.node(prefs[i]);
    ASSERT_NE(holder, nullptr);
    const bson::Document newer = core::MakeRecord(
        holder->server()->db()->id_generator()->Next(), "hk", ToBytes("new"),
        /*is_copy=*/i != 0, /*deleted=*/false, newer_ts, prefs[0]);
    ASSERT_TRUE(holder->store()->Apply(newer).ok());
  }

  const auto before = cluster.AggregateStats();
  std::vector<std::string> values;
  ASSERT_GT(PacedReads(cluster, coordinator, "hk", 80, &values), 0);
  // Safety: not one read returned the stale holder's value. Fanned reads
  // that landed on the fresh replica verified against the primary digest
  // and served; fanned reads that landed on the lagging one mismatched and
  // demoted to the quorum path, where every R = 2 subset contains a fresh
  // holder and last-write-wins picks the new version.
  for (const std::string& value : values) EXPECT_EQ(value, "new");
  const auto after = cluster.AggregateStats();
  EXPECT_GT(after.hot_read_demotions, before.hot_read_demotions);
  EXPECT_GT(after.hot_read_hits, before.hot_read_hits);
}

TEST(HotReadTest, InterleavedWritesAlwaysReadFresh) {
  Cluster cluster(HotConfig(), 11);
  ASSERT_TRUE(cluster.Start().ok());
  StorageNode* coordinator = cluster.node("db1:19870");
  ASSERT_NE(coordinator, nullptr);

  const auto start = cluster.AggregateStats();
  for (int round = 0; round < 8; ++round) {
    const std::string expected = "v" + std::to_string(round);
    bool put_ok = false;
    coordinator->CoordinatePut(
        "hk", ToBytes(expected),
        [&put_ok](const Status& s) { put_ok = s.ok(); });
    cluster.RunFor(200 * kMicrosPerMilli);  // settles on all N -> clean
    ASSERT_TRUE(put_ok);
    std::vector<std::string> values;
    ASSERT_EQ(PacedReads(cluster, coordinator, "hk", 25, &values), 25);
    for (const std::string& value : values) ASSERT_EQ(value, expected);
  }
  // The rounds were hot enough that the fan-out actually exercised: this
  // is read-your-writes *through* the rotation, not around it.
  const auto end = cluster.AggregateStats();
  EXPECT_GT(end.hot_gets_fanned, start.hot_gets_fanned);
}

TEST(HotReadTest, MyStorePinReleasedAfterDecay) {
  // Front-side loop: a hammered key gets pinned in the cache pool; once its
  // heat decays the next refresh releases the pin, and cold churn can then
  // evict the entry — no permanent pin leak.
  core::MyStoreConfig config;
  config.cache_servers = 1;
  config.cache_bytes_per_server = 4096;
  config.cache_heat.hot_qps = 1.0;
  config.cache_heat.min_hits = 4.0;
  config.cache_heat.half_life = kMicrosPerSecond;
  core::MyStore store(std::move(config));
  ASSERT_TRUE(store.Start().ok());

  ASSERT_TRUE(store.Post("hot", ToBytes("payload")).ok());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(store.Get("hot").ok());
  ASSERT_EQ(store.HotPinnedKeys(), std::vector<std::string>{"hot"});
  EXPECT_EQ(store.cache_pool()->TotalPinned(), 1u);

  // Let the heat decay to nothing, then run enough cold traffic to trigger
  // a pin refresh (every 128 ops).
  store.RunFor(10 * kMicrosPerSecond);
  for (int i = 0; i < 140; ++i) {
    EXPECT_FALSE(store.Get("cold" + std::to_string(i)).ok());  // misses
  }
  EXPECT_TRUE(store.HotPinnedKeys().empty());
  EXPECT_EQ(store.cache_pool()->TotalPinned(), 0u);

  // With the pin gone the entry ages out under churn like any other. The
  // values are sized so each cache shard's slice overflows several times.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Post("churn" + std::to_string(i), Bytes(100, 'x')).ok());
  }
  Bytes out;
  EXPECT_FALSE(store.cache_pool()->Get("hot", &out));
}

}  // namespace
}  // namespace hotman::cluster
