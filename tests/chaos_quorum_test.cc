// Chaos sweep, strict-quorum profile: R+W>N with hinted handoff off must
// be checker-clean under partitions, link drops, duplication and crashes
// (Wing–Gong real-time rules: no stale reads, no stale absences, sessions
// read their own writes, nothing converges backwards).
//
// Seeds 1-50 include every seed in tests/chaos_seeds.txt that exposed the
// three read-quorum bugs in src/cluster/storage_node.cc — this sweep is
// their regression test. The lying-replica test is the negative control:
// it breaks one replica on purpose and asserts the checker has teeth.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/harness.h"

namespace hotman::chaos {
namespace {

TEST(ChaosQuorum, Sweep50SeedsCheckerClean) {
  std::vector<std::uint64_t> failing;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ChaosResult result = RunChaos(ChaosOptions::QuorumProfile(seed));
    EXPECT_TRUE(result.drained) << "seed " << seed << " did not drain";
    if (!result.ok()) {
      failing.push_back(seed);
      ADD_FAILURE() << "seed " << seed << ": " << result.report.Summary();
    }
  }
  EXPECT_TRUE(failing.empty())
      << "reproduce with: chaos_runner --seed=N --profile=quorum";
}

// The quorum-plan sweep above is the control for this one: same seeds,
// same profile, dirty-set single-replica (primary-plan) reads switched on. Any phantom or
// stale read the fast path could introduce trips the same checker rules.
TEST(ChaosQuorum, Sweep50SeedsCheckerCleanWithFastReads) {
  std::vector<std::uint64_t> failing;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ChaosOptions options = ChaosOptions::QuorumProfile(seed);
    options.read_path = cluster::ReadPath::kPrimary;
    const ChaosResult result = RunChaos(options);
    EXPECT_TRUE(result.drained) << "seed " << seed << " did not drain";
    if (!result.ok()) {
      failing.push_back(seed);
      ADD_FAILURE() << "seed " << seed << ": " << result.report.Summary();
    }
  }
  EXPECT_TRUE(failing.empty())
      << "reproduce with: chaos_runner --seed=N --read-path=primary";
}

TEST(ChaosQuorum, SameSeedSameHistory) {
  const ChaosResult first = RunChaos(ChaosOptions::QuorumProfile(7));
  const ChaosResult second = RunChaos(ChaosOptions::QuorumProfile(7));
  EXPECT_EQ(first.history_hash, second.history_hash)
      << "seeded chaos runs must be bit-deterministic";
  EXPECT_EQ(first.history.Canonical(), second.history.Canonical());
  const ChaosResult other = RunChaos(ChaosOptions::QuorumProfile(8));
  EXPECT_NE(first.history_hash, other.history_hash);
}

// Negative control: one replica acks every write without applying it.
// A checker that stays green here would be decorative.
TEST(ChaosQuorum, LyingReplicaIsCaught) {
  int caught = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ChaosOptions options = ChaosOptions::QuorumProfile(seed);
    options.lying_replica = "db1:19870";
    const ChaosResult result = RunChaos(options);
    if (!result.ok()) ++caught;
  }
  EXPECT_EQ(caught, 5) << "a replica dropping every write went unnoticed";
}

}  // namespace
}  // namespace hotman::chaos
