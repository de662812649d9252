#ifndef HOTMAN_CLUSTER_CONFIG_H_
#define HOTMAN_CLUSTER_CONFIG_H_

#include <string>
#include <vector>

#include "cluster/heat_tracker.h"
#include "common/status.h"
#include "gossip/failure_detector.h"
#include "gossip/gossiper.h"
#include "rebalance/rebalancer.h"
#include "sim/network_config.h"
#include "sim/service_station.h"

namespace hotman::cluster {

/// How long a key stays dirty after a write that did not settle on all N
/// holders (some holder may still be catching up via read repair or
/// anti-entropy; quorum reads keep repair pressure on it meanwhile).
inline constexpr Micros kFastReadQuiescence = 3 * kMicrosPerSecond;

/// The plan a read of a clean key runs (StorageNode::CoordinateGet).
enum class ReadPath {
  /// Every read asks the N preference holders and waits for R answers.
  kQuorum,
  /// Harmonia-style single-replica read at the key's primary holder. To
  /// keep the quorum intersection, writes are then primary-anchored: in
  /// strict mode (hinted_handoff off) a write only succeeds once the
  /// primary acked, so the one-replica read set {primary} intersects every
  /// completed write set.
  kPrimary,
  /// kPrimary, plus reads of *hot* keys rotate their payload read across
  /// the non-primary holders, verified by a version digest probe at the
  /// primary: the replica's value is served only when its (_ts, _origin)
  /// equals the primary's, so the served version is always the primary's.
  kHotRotation,
};

/// Declaration of one physical storage node.
struct NodeSpec {
  std::string address;  ///< e.g. "db1:19870"
  int vnodes = 128;     ///< virtual nodes ∝ node capability (§5.2.1)
  bool is_seed = false;
  /// Capacity weight (DynoStore-style heterogeneous placement): the node
  /// takes `vnodes * capacity` ring points, so a half-size box owns half
  /// the keyspace share. 1.0 keeps the homogeneous default.
  double capacity = 1.0;
};

/// Ring points `spec` contributes: its vnode base scaled by its capacity
/// weight (at least 1 so every node owns something).
int EffectiveVnodes(const NodeSpec& spec);

/// Whole-cluster configuration. Defaults mirror the paper's evaluation
/// setup: (N, W, R) = (3, 2, 1) on five DB nodes (§6.2), Netty-port-style
/// addresses, and Table 1's software parameters where they are meaningful
/// to the model.
struct ClusterConfig {
  // --- NWR replication (§5.2.2) ---
  int replication_factor = 3;  ///< N
  int write_quorum = 2;        ///< W
  int read_quorum = 1;         ///< R

  // --- membership ---
  std::vector<NodeSpec> nodes;
  std::string collection = "records";

  // --- timeouts ---
  Micros put_timeout = 800 * kMicrosPerMilli;
  Micros get_timeout = 800 * kMicrosPerMilli;

  // --- failure handling ---
  bool hinted_handoff = true;       ///< short-failure handling (Fig. 8)
  bool read_repair = true;          ///< replica supplementation on Get

  // --- read path (one ReadPlan executor; DESIGN.md "Read plans") ---
  /// Which plan a read of a *clean* key runs. The single-replica plans
  /// fall back to the R-quorum plan on any miss, error, corrupt ack or
  /// timeout; dirty keys, sloppy mode (hinted_handoff on) and a suspected
  /// primary always take the quorum plan.
  ReadPath read_path = ReadPath::kQuorum;
  /// Heat-sketch shape and hot thresholds (capacity, decay half-life, qps
  /// bar); the sketch feeds kHotRotation and /stats heat.*.
  HeatConfig heat;

  // --- chaos negative controls (test-only; see src/chaos/) ---
  /// Address of a replica that acknowledges put_replica traffic *without
  /// applying it* — a deliberately broken node that makes write quorums
  /// lie. Used by the negative-control chaos tests to prove the offline
  /// consistency checker detects lost updates and stale reads; must stay
  /// empty everywhere else.
  std::string chaos_lying_replica;
  /// Disables the ownership sweep's purge of migrated-away records (the
  /// push-before-purge half still runs). Negative control proving the
  /// chaos orphan-replica check has teeth; must stay false everywhere else.
  bool chaos_skip_ownership_purge = false;

  // --- anti-entropy (future-work extension: background consistency) ---
  /// When enabled, every node periodically exchanges record digests with a
  /// random ring peer and pushes/pulls whatever last-write-wins says the
  /// other side is missing — repairing divergence without waiting for reads.
  bool anti_entropy = false;
  Micros anti_entropy_interval = 10 * kMicrosPerSecond;

  // --- elastic membership (src/rebalance/) ---
  /// Live data movement on join/decommission/reweight: throttle, resume
  /// and autonomic-trigger policy shared by every node.
  rebalance::RebalanceConfig rebalance;

  // --- substrates ---
  gossip::GossipConfig gossip;
  gossip::FailureDetector::Config detector;
  sim::NetworkConfig network;
  sim::ServiceConfig service;
  /// Model replica-side queueing/service time with a ServiceStation. On by
  /// default for simulation fidelity; the real daemon disables it (actual
  /// CPU time is spent instead of modeled).
  bool simulate_service_time = true;

  /// Validates quorum arithmetic and membership (W <= N, R <= N, at least
  /// one node, N >= 1, at least one seed when >1 node).
  Status Validate() const;

  /// Convenience: `count` uniform nodes "db1".."dbN", first `seeds` of them
  /// seeds, with the paper's default parameters.
  static ClusterConfig Uniform(int count, int seeds = 1, int vnodes = 128);

  /// The paper's five-node evaluation topology: one seed DB node plus four
  /// normal DB nodes, (N,W,R)=(3,2,1).
  static ClusterConfig PaperSetup() { return Uniform(5, /*seeds=*/1); }
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_CONFIG_H_
