#ifndef HOTMAN_CHAOS_HARNESS_H_
#define HOTMAN_CHAOS_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/checker.h"
#include "chaos/nemesis.h"
#include "cluster/config.h"
#include "cluster/heat_tracker.h"
#include "common/clock.h"
#include "workload/history.h"

namespace hotman::chaos {

/// One deterministic chaos run: cluster profile + workload shape + nemesis
/// menu + checker assumptions. Everything derives from `seed`; two runs
/// with equal options produce byte-identical histories (hash-checked).
struct ChaosOptions {
  std::uint64_t seed = 1;

  // --- cluster profile ---
  int nodes = 5;
  int replication = 3;   ///< N
  int write_quorum = 2;  ///< W
  int read_quorum = 1;   ///< R
  bool hinted_handoff = true;
  bool read_repair = true;
  bool anti_entropy = true;
  /// Read plan for clean keys (ClusterConfig::read_path). The
  /// single-replica plans only engage when hinted_handoff is off; the
  /// checker's full real-time rule set is exactly what proves them safe,
  /// hot-key rotation included.
  cluster::ReadPath read_path = cluster::ReadPath::kQuorum;
  /// Heat-sketch thresholds for the hot plan. The defaults flag nothing at
  /// chaos traffic rates (a few ops/sec); SkewProfile lowers them so the
  /// Zipf head actually trips the fan-out under the nemesis.
  cluster::HeatConfig heat;
  /// Negative control: this replica acks writes without applying them
  /// (see ClusterConfig::chaos_lying_replica). Empty = honest cluster.
  std::string lying_replica;
  /// Negative control: old owners keep their copies of migrated-away arcs
  /// (see ClusterConfig::chaos_skip_ownership_purge), so a membership run
  /// with a join must trip the orphan-replica check.
  bool chaos_skip_ownership_purge = false;

  // --- workload shape ---
  int clients = 4;
  int ops_per_client = 50;
  int keys = 8;
  /// Key-popularity skew: 0 keeps the historical uniform draw; theta > 0
  /// draws key ranks from Zipf(theta) over `keys` (rank 0 hottest), so the
  /// head keys see most of the contention the nemesis races against.
  double zipf_theta = 0.0;
  Micros think_min = 20 * kMicrosPerMilli;
  Micros think_max = 200 * kMicrosPerMilli;
  double put_fraction = 0.5;
  double delete_fraction = 0.1;  ///< rest are gets

  // --- schedule ---
  Micros warmup = kMicrosPerSecond;            ///< traffic before faults
  Micros drain_budget = 120 * kMicrosPerSecond;  ///< cap on the whole run
  Micros quiesce = 20 * kMicrosPerSecond;      ///< heal-to-measure window
  /// Deterministic pair-wise anti-entropy passes during quiesce (belt and
  /// suspenders on top of the random-peer timer, so convergence never
  /// depends on lucky peer draws).
  int ae_passes = 3;

  NemesisOptions nemesis;
  CheckOptions check;
  bool check_convergence = true;
  /// After quiesce, assert elastic-membership safety: every running node's
  /// ring agrees on the member set, and nobody holds a key outside its
  /// preference list (the ownership sweep must have purged migrated-away
  /// arcs). Only sound with hinted handoff off — substitutes legitimately
  /// hold foreign keys until their hints deliver.
  bool check_ownership = false;

  /// Strict-quorum profile: R+W>N with hinted handoff off, so every read
  /// quorum intersects every write quorum and the full real-time rule set
  /// applies. Clock skew and state loss stay off — last-write-wins and
  /// replica durability are assumptions of those rules, not guarantees the
  /// strict quorum adds.
  static ChaosOptions QuorumProfile(std::uint64_t seed);

  /// Sloppy-quorum profile: the paper's (N,W,R)=(3,2,1) with hinted
  /// handoff, plus the whole nemesis menu (clock skew, blank-disk
  /// restarts). Staleness is expected and not checked; phantom values and
  /// post-heal divergence still are.
  static ChaosOptions ConvergenceProfile(std::uint64_t seed);

  /// Elastic-membership profile: strict quorum base (R+W>N, handoff off,
  /// honest clocks, durable disks) with the nemesis additionally joining
  /// fresh nodes and decommissioning members mid-run. Reads may observe a
  /// newcomer that has not finished streaming its arcs, so the real-time
  /// read rules are off; what must hold is the data-safety core: no
  /// phantoms, no lost updates, full convergence, and clean ownership
  /// (every key on exactly its preference members once the dust settles).
  static ChaosOptions MembershipProfile(std::uint64_t seed);

  /// Skewed-workload profile: the strict-quorum base with Zipf(0.99) key
  /// popularity and the hot-rotation read plan armed at test-scale heat
  /// thresholds. The head key stays dirty-prone (half the ops are writes)
  /// while its reads fan across replicas mid-partition — exactly the
  /// window where a digest bug would surface as a stale read.
  static ChaosOptions SkewProfile(std::uint64_t seed);
};

struct ChaosResult {
  workload::History history;
  std::string history_hash;  ///< MD5 of the canonical history
  CheckReport report;        ///< checker verdicts + divergence findings
  std::map<std::string, FinalKeyState> final_state;
  std::vector<std::string> nemesis_log;
  std::size_t faults_injected = 0;
  bool drained = false;  ///< every client op completed within budget

  /// Hot-read counters aggregated over the cluster after quiesce, so skew
  /// sweeps can assert the rotation actually engaged (a hot path that
  /// silently never fires would make its checker pass vacuous).
  std::uint64_t hot_gets_fanned = 0;
  std::uint64_t hot_read_hits = 0;
  std::uint64_t hot_read_demotions = 0;

  bool ok() const { return report.ok(); }
};

/// Runs one seeded chaos experiment end to end: boots the cluster on the
/// simulated transport, drives sequential client sessions that record
/// every operation into the history, lets the nemesis inject faults, heals
/// everything, quiesces anti-entropy and hint delivery, extracts the final
/// replica state, and replays the history through the offline checker.
ChaosResult RunChaos(const ChaosOptions& options);

}  // namespace hotman::chaos

#endif  // HOTMAN_CHAOS_HARNESS_H_
