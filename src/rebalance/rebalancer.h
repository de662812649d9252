#ifndef HOTMAN_REBALANCE_REBALANCER_H_
#define HOTMAN_REBALANCE_REBALANCER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bson/document.h"
#include "common/clock.h"
#include "common/status.h"
#include "hashring/migration.h"
#include "hashring/ring.h"
#include "net/executor.h"
#include "rebalance/messages.h"

namespace hotman::rebalance {

/// Tuning of the live data-movement subsystem. Lives inside ClusterConfig
/// so a whole cluster shares one policy; the throttle exists to keep
/// foreground p99 bounded while a rebalance streams in the background
/// (measured by bench_rebalance).
struct RebalanceConfig {
  /// Master switch: off falls back to the pre-rebalancer behaviour (blunt
  /// re-replication on membership change, anti-entropy fills new nodes).
  bool enabled = true;

  /// Source-side pacing: records per second across each transfer
  /// (0 = unthrottled). The default keeps a laptop-scale background
  /// rebalance well below foreground service capacity.
  int records_per_sec = 2000;

  /// Records per range_push batch (ack-paced: one batch in flight per
  /// transfer).
  int batch_records = 32;

  /// Byte budget across all in-flight batches of this node's outgoing
  /// transfers; a transfer stalls (counted) rather than exceed it.
  std::size_t max_inflight_bytes = 256 * 1024;

  /// Loss recovery: a transfer with no progress for this long re-sends its
  /// range_digest (the target's watermark makes that idempotent).
  Micros retry_interval = kMicrosPerSecond;

  /// H2O-style autonomic trigger: when on, a node whose record count
  /// exceeds `imbalance_threshold` times the cluster mean (as gossiped via
  /// the load state key) sheds ring weight and streams the released arcs
  /// out. Off by default: membership changes still rebalance explicitly.
  bool autonomic = false;
  double imbalance_threshold = 2.0;
  Micros autonomic_interval = 5 * kMicrosPerSecond;
  int autonomic_min_vnodes = 8;
};

/// Counters exported as rebalance.* in /stats.
struct RebalanceStats {
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t transfers_aborted = 0;   ///< target left the ring mid-stream
  std::uint64_t arcs_planned = 0;        ///< steps this node was source for
  std::uint64_t arcs_completed = 0;
  std::uint64_t records_streamed = 0;    ///< source side, sent
  std::uint64_t bytes_streamed = 0;
  std::uint64_t records_received = 0;    ///< target side, applied
  std::uint64_t records_skipped = 0;     ///< target side, below watermark
  std::uint64_t throttle_stalls = 0;     ///< sends deferred by pacing/budget
  std::uint64_t resumes = 0;             ///< digest acks that fast-forwarded
  std::uint64_t retries = 0;             ///< digests re-sent on stall
  std::uint64_t autonomic_reweights = 0;

  void MergeFrom(const RebalanceStats& other);
};

/// The surface the Rebalancer needs from its host node, as hooks so the
/// subsystem stays free of cluster/ dependencies (and unit-testable
/// against fakes). All hooks are invoked on the host node's loop.
struct RebalancerEnv {
  hashring::NodeId self;

  /// Sends a cluster message (type, body) to a peer endpoint.
  std::function<void(const hashring::NodeId& to, const std::string& type,
                     bson::Document body)>
      send_msg;

  /// Snapshot of every record held locally.
  std::function<std::vector<bson::Document>()> snapshot;

  /// Freshest local version of `key` (NotFound when purged since the
  /// snapshot).
  std::function<Result<bson::Document>(const std::string& key)> lookup;

  /// Target side: applies a pushed record (LWW, idempotent) and calls
  /// `done(ok)` when the node's service station has absorbed the work —
  /// that routing is what makes an unthrottled inbound stream visibly
  /// contend with foreground traffic. `ok == false` (shed, crashed, store
  /// error) keeps the watermark where it was so the source re-streams.
  std::function<void(const bson::Document& record,
                     std::function<void(bool ok)> done)>
      apply;

  /// True while the node is up (not crash-injected); a down node neither
  /// streams nor acks.
  std::function<bool()> available;

  /// True while `peer` is still a ring member; a transfer whose target
  /// left is aborted instead of retried forever.
  std::function<bool(const hashring::NodeId& peer)> peer_known;

  /// Timers + clock (the node's transport).
  net::Executor* executor = nullptr;
};

/// Per-node engine of elastic membership: turns replica-aware migration
/// plans into throttled, resumable record streams over the host's
/// transport. Source side: StartTransfers() filters the plan to steps this
/// node must stream and drives one transfer per (source, target, arcs)
/// group. Target side: the Handle* methods apply pushed batches and
/// maintain per-transfer watermark cursors so a source that lost its
/// progress resumes instead of restarting. Like anti-entropy, everything
/// here runs on the node's loop.
class Rebalancer {
 public:
  Rebalancer(const RebalanceConfig& config, RebalancerEnv env);

  void Start() { running_ = true; }
  /// Cancels timers and drops transfer state (watermarks on the target
  /// side of other nodes survive, which is the point).
  void Stop();

  /// Source side: begins streaming every step whose source is this node.
  /// `on_all_complete` (optional) fires once every such transfer has
  /// completed or aborted — the decommission path announces its departure
  /// from it. Steps sourced elsewhere are ignored.
  void StartTransfers(const std::vector<hashring::ReplicaMigrationStep>& steps,
                      std::function<void()> on_all_complete = nullptr);

  /// Crash/test hook: forgets all source-side progress, as a freshly
  /// restarted process would. The next StartTransfers for the same arcs
  /// regenerates the same content-derived transfer ids and resumes from
  /// the targets' watermarks.
  void ForgetSourceState();

  /// Crash-with-state-loss hook: a wiped node has neither source progress
  /// nor target watermarks (sources re-stream from zero; LWW keeps that
  /// idempotent).
  void OnStateLoss();

  /// True when `key` lies inside an arc this node is actively streaming
  /// out (the ownership sweep defers purging such keys to the transfer's
  /// completion hook).
  bool SourcingKey(std::string_view key) const;

  /// Wire handlers (registered by the host on its dispatcher).
  void HandleRangeDigest(const std::string& from, const bson::Document& body);
  void HandleRangeAck(const std::string& from, const bson::Document& body);
  void HandleRangePush(const std::string& from, const bson::Document& body);
  void HandleTransferDone(const std::string& from, const bson::Document& body);

  std::size_t active_transfers() const;
  bool Idle() const { return active_transfers() == 0; }
  RebalanceStats stats() const { return stats_; }
  /// Counts an autonomic reweight decided by the host (the trigger logic
  /// lives with gossip state, in the host).
  void CountAutonomicReweight() { ++stats_.autonomic_reweights; }

  /// Human/ctl-facing status: active transfer ids with progress.
  std::string StatusJson() const;

 private:
  /// Source-side state of one outgoing transfer.
  struct Transfer {
    std::string id;
    hashring::NodeId target;
    std::vector<hashring::Range> arcs;
    /// Canonical stream order: ascending (ring point, key).
    std::vector<std::pair<std::uint32_t, std::string>> keys;
    std::size_t cursor = 0;       ///< next index to stream
    bool batch_in_flight = false;
    std::size_t inflight_bytes = 0;
    Micros next_send_at = 0;      ///< pacing gate
    Micros last_progress = 0;     ///< for the retry ticker
    std::size_t progress_mark = 0;
    bool done = false;
    net::TimerId send_timer = 0;
    std::vector<std::function<void()>> completions;
  };

  static std::string TransferId(const hashring::NodeId& source,
                                const hashring::NodeId& target,
                                const std::vector<hashring::Range>& arcs);

  void SendDigest(Transfer& t);
  void MaybeSendNext(const std::string& id);
  void FinishTransfer(const std::string& id, bool completed);
  void EnsureRetryTicker();
  void OnRetryTick();

  RebalanceConfig config_;
  RebalancerEnv env_;
  bool running_ = false;

  std::map<std::string, std::unique_ptr<Transfer>> transfers_;
  std::size_t global_inflight_bytes_ = 0;
  net::TimerId retry_ticker_ = 0;

  /// Target-side cursors: transfer id -> high-water applied. Dropped on
  /// transfer_done; survive source crashes, which is what makes transfers
  /// resumable.
  std::map<std::string, Watermark> watermarks_;

  RebalanceStats stats_;
};

}  // namespace hotman::rebalance

#endif  // HOTMAN_REBALANCE_REBALANCER_H_
