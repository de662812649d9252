#ifndef HOTMAN_CLUSTER_STORAGE_NODE_H_
#define HOTMAN_CLUSTER_STORAGE_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/hinted_handoff.h"
#include "cluster/messages.h"
#include "cluster/replica_store.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/record.h"
#include "docstore/server.h"
#include "gossip/failure_detector.h"
#include "gossip/gossiper.h"
#include "hashring/ring.h"
#include "net/transport.h"
#include "rebalance/rebalancer.h"
#include "sim/failure_injector.h"
#include "sim/service_station.h"

namespace hotman::cluster {

/// Completion callback of a coordinated write (Put or logical Delete).
using PutCallback = std::function<void(const Status&)>;
/// Completion callback of a coordinated read; on success carries the full
/// record document (callers check the isDel tombstone flag).
using GetCallback = std::function<void(const Result<bson::Document>&)>;

/// Operation counters exposed for experiments.
struct NodeStats {
  std::size_t puts_coordinated = 0;
  std::size_t puts_succeeded = 0;
  std::size_t puts_failed = 0;
  std::size_t gets_coordinated = 0;
  std::size_t gets_succeeded = 0;
  std::size_t gets_failed = 0;
  std::size_t replica_puts_applied = 0;
  std::size_t replica_gets_served = 0;
  std::size_t handoff_writes = 0;       ///< writes redirected to a temp node
  std::size_t hints_delivered = 0;      ///< write-backs acknowledged
  std::size_t read_repairs = 0;         ///< replicas supplemented after Get
  std::size_t read_repairs_skipped_dead = 0;  ///< repairs withheld from dead nodes
  std::size_t fast_read_hits = 0;       ///< reads served by a single replica
  std::size_t fast_read_fallbacks = 0;  ///< fast path refused at issue time
  std::size_t fast_read_demotions = 0;  ///< fast attempt failed, re-ran as quorum
  std::size_t hot_gets_fanned = 0;      ///< hot-key reads sent to a rotated replica
  std::size_t hot_read_hits = 0;        ///< fanned reads served digest-verified
  std::size_t hot_read_demotions = 0;   ///< fanned reads demoted to the quorum path
  std::size_t replica_digests_served = 0;  ///< digest_only probes answered
  std::size_t get_acks_corrupt = 0;     ///< undecodable get acks from known targets
  std::size_t rereplications = 0;       ///< records re-pushed on ring change
  std::size_t rebalance_purges = 0;     ///< unowned records dropped by the sweep
  std::size_t ae_rounds = 0;            ///< anti-entropy exchanges initiated
  std::size_t ae_pushed = 0;            ///< records pushed by anti-entropy
  std::size_t ae_requested = 0;         ///< records pulled by anti-entropy

  /// Field-wise sum (the cluster-wide rollup for /stats).
  void MergeFrom(const NodeStats& other);
};

/// One storage node of the MyStore data storage module (§5.1):
///  - the *lower layer* is the embedded MongoDB-like engine
///    (docstore::DocStoreServer + ReplicaStore with the record schema);
///  - the *middle layer* is this class: the normal message handling process
///    (put/get replica traffic), the abnormal event handling process
///    (nacks, timeouts, hinted handoff, long-failure repair) and the
///    synchronization message process (gossip + membership notices);
///  - the *upper layer* is any net::Transport: the deterministic simulator
///    in experiments, real TCP in the `hotmand` daemon (the paper's Netty
///    role).
///
/// Every node can coordinate client requests ("clients can connect to any
/// node in the system to get/put data").
///
/// The whole node runs on one executor, its transport: every handler,
/// timer and completion runs on that one loop (the simulator's event loop,
/// or the TcpTransport thread in hotmand), so no node state is locked.
/// A deployment scales by running more nodes, not by partitioning one.
class StorageNode {
 public:
  /// `transport` carries messages and timers; `injector` may be null
  /// (no fault injection — the real daemon).
  StorageNode(const NodeSpec& spec, const ClusterConfig& config,
              net::Transport* transport, sim::FailureInjector* injector,
              std::uint64_t rng_seed);
  ~StorageNode();

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  /// Registers with the transport, builds the initial ring from the static
  /// configuration, boots gossip + the failure detector + the hint
  /// write-back timer.
  void Start();

  /// Graceful stop: unregisters from the network and stops timers.
  void Stop();

  // --- client (coordinator) API -------------------------------------------

  /// Coordinates a write of (key, value): builds the record, replicates to
  /// the N preference nodes, succeeds at W acks (§5.2.2). The record
  /// shares `value`'s buffer with the caller.
  void CoordinatePut(const std::string& key, bson::Binary value, PutCallback cb);

  /// Logical delete: a tombstone write (isDel=1) through the same quorum.
  void CoordinateDelete(const std::string& key, PutCallback cb);

  /// Coordinates a read: queries the N preference nodes, succeeds at R
  /// responses, reconciles last-write-wins, then supplements stale or
  /// missing replicas (read repair).
  void CoordinateGet(const std::string& key, GetCallback cb);

  // --- membership ----------------------------------------------------------

  /// Applies a node-removed notice: drops the node from the ring and
  /// re-replicates local data so every record regains N replicas (Fig. 9).
  void OnNodeRemoved(const std::string& node);

  /// Applies a node-added notice: adds the node to the ring and migrates
  /// the keys that now belong to it.
  void OnNodeAdded(const std::string& node, int vnodes);

  /// Seed-side: broadcasts a node_removed notice to every known endpoint
  /// and applies it locally.
  void AnnounceRemoval(const std::string& node);

  /// Admin-side (hotman_ctl join): broadcasts a node_added notice to every
  /// ring member and applies it locally, so an operator can introduce a
  /// node through any coordinator instead of waiting for gossip.
  void AnnounceAddition(const std::string& node, int vnodes);

  // --- elastic membership (src/rebalance/) --------------------------------

  /// Graceful leave: marks this node LEAVING in gossip, streams every arc
  /// it holds to the nodes that inherit it (throttled, resumable), then
  /// announces its own removal and stops. `done` fires once the node has
  /// left the ring (Status::OK) or the decommission could not start.
  /// Abrupt departure — just Stop()/crash — remains available as explicit
  /// crash semantics: survivors then re-replicate from their own copies.
  void StartDecommission(std::function<void(const Status&)> done);

  /// Drops every local record this node no longer owns under the current
  /// ring (keys inside arcs still being streamed out are deferred to the
  /// transfer's completion). With `push_before_purge` each dropped record
  /// is first re-pushed to its preference holders — the rejoin path uses
  /// that to hand back writes it alone may hold.
  void RunOwnershipSweep(bool push_before_purge);

  /// Schedules RunOwnershipSweep after `delay` (coalesced: at most one
  /// pending sweep; a push-before-purge request wins over a purge-only one).
  void ScheduleOwnershipSweep(bool push_before_purge, Micros delay);

  bool running() const { return running_; }
  /// True from StartDecommission until the node leaves the ring.
  bool decommissioning() const { return decommissioning_; }
  /// True once a graceful decommission completed and the node stopped.
  bool decommissioned() const { return decommissioned_; }

  /// The cluster configuration this node was booted with (defaults for
  /// operator-driven joins: vnode count, rebalance throttle, ...).
  const ClusterConfig& config() const { return config_; }

  rebalance::Rebalancer* rebalancer() { return rebalancer_.get(); }
  /// Counters of the node's rebalancer (merged into /stats as rebalance.*).
  rebalance::RebalanceStats rebalance_stats() const {
    return rebalancer_ != nullptr ? rebalancer_->stats()
                                  : rebalance::RebalanceStats{};
  }

  // --- anti-entropy (background consistency, future-work extension) ------

  /// One synchronization round with `peer`: sends a digest of every local
  /// record the peer should also hold; the peer pushes back newer versions
  /// and requests the ones it is missing. Normally driven by the periodic
  /// timer (config.anti_entropy); exposed for tests and ablations.
  void RunAntiEntropyRound(const std::string& peer);

  // --- introspection --------------------------------------------------------

  const std::string& id() const { return id_; }
  bool is_seed() const { return spec_.is_seed; }
  const hashring::Ring& ring() const { return ring_; }
  /// The node's replica store (the lower layer's record collection).
  ReplicaStore* store() { return store_.get(); }
  /// The node's hint ledger (writes held for unreachable replicas).
  HintStore* hints() { return &hints_; }
  gossip::Gossiper* gossiper() { return gossiper_.get(); }
  gossip::FailureDetector* detector() { return detector_.get(); }
  docstore::DocStoreServer* server() { return server_.get(); }
  /// Null when the config disables service-time modeling.
  sim::ServiceStation* station() { return station_.get(); }
  /// The node's message dispatcher. NodeServer attaches the client-facing
  /// handlers (client_put/get/...) here so one endpoint serves both cluster
  /// and client traffic.
  net::Dispatcher* dispatcher() { return &dispatcher_; }
  /// Operation counters. Like every accessor below, call it on the node's
  /// loop (or while the loop is idle).
  const NodeStats& stats() const { return stats_; }

  /// Heat snapshot (top-k keys, qps, skew coefficient) at the transport's
  /// current time.
  HeatSnapshot heat_snapshot() const {
    return heat_.Snapshot(transport_->NowMicros());
  }

  /// Coordinated-operation latency (enqueue -> outcome callback), success
  /// and failure combined; the cluster layer merges these for /stats.
  const metrics::Histogram& put_latency_histogram() const {
    return put_latency_hist_;
  }
  const metrics::Histogram& get_latency_histogram() const {
    return get_latency_hist_;
  }
  /// Per-path read latency: reads decided by the single-replica fast path
  /// vs. reads that went through (or demoted to) the R-quorum fan-out.
  const metrics::Histogram& fast_get_latency_histogram() const {
    return fast_get_latency_hist_;
  }
  const metrics::Histogram& quorum_get_latency_histogram() const {
    return quorum_get_latency_hist_;
  }

  /// Dirty-set introspection (tests + /stats): true when a read of `key`
  /// issued now would be eligible for the single-replica fast path as far
  /// as the dirty set is concerned. Lazily retires aged-out entries.
  bool KeyIsClean(const std::string& key);
  std::size_t DirtyKeyCount() const { return dirty_keys_.size(); }

  /// Recent per-request trace records coordinated by this node.
  std::vector<metrics::TraceRecord> TraceSnapshot() const {
    return traces_.Snapshot();
  }

  /// Nodes this node believes are cluster members (on its ring).
  std::vector<std::string> KnownMembers() const { return ring_.Nodes(); }

  /// Chaos hook: offsets the timestamps this coordinator stamps into new
  /// records by `skew` (positive = clock runs fast). Models a node whose
  /// wall clock drifted — under last-write-wins that can reorder writes,
  /// which is exactly what the chaos convergence runs exercise. Zero
  /// restores an honest clock.
  void SetClockSkew(Micros skew) { clock_skew_ = skew; }
  Micros clock_skew() const { return clock_skew_; }

 private:
  struct PendingPut {
    std::string key;
    std::string primary;  ///< first preference node (stores the original)
    bson::Document record;
    PutCallback cb;
    bool done = false;
    int needed = 0;
    int acks = 0;
    int timeout_wave = 0;
    bool primary_ok = false;  ///< the primary holder acked the write
    std::map<std::string, bool> responded;  // target -> answered?
    /// Handoff substitute -> the preference holder whose write it keeps, so
    /// a failed substitute's replacement hint still names that holder.
    std::map<std::string, std::string> stands_in_for;
    std::set<std::string> used;             // every node contacted
    std::vector<std::string> pref_targets;  // original preference holders
    std::set<std::string> ok_acks;          // preference holders that acked ok
    net::TimerId timeout_event = 0;
    net::TimerId cleanup_event = 0;
    Micros started_at = 0;
    // Breakdown carried by the most recent ack (the decisive one when the
    // operation completes), for the trace record.
    Micros last_queue = 0;
    Micros last_service = 0;
    std::string last_replica;
  };

  struct GetReply {
    bool ok = false;
    bool found = false;
    bson::Document record;
    // Digest probe replies carry the version only.
    bool digest = false;
    std::int64_t digest_ts = 0;
    std::string digest_origin;
  };

  /// Everything that distinguishes one kind of read from another. One
  /// executor (IssueGet + DecideGet) runs every plan; the builders below
  /// are the only place the kinds differ.
  struct ReadPlan {
    std::vector<std::string> targets;  ///< payload reads, in send order
    int needed = 0;         ///< successful payload replies that decide it
    std::string verify_at;  ///< digest-only probe target, or empty
    Micros timeout = 0;
    /// Any miss, error, corrupt ack, version mismatch or timeout re-runs
    /// the read as a quorum plan instead of concluding.
    bool demote_on_failure = false;
  };

  /// Last-write-wins over a read's payload replies (digest probes carry
  /// no record and are left out).
  struct ReplyTally {
    int successes = 0;                       ///< ok payload replies
    const bson::Document* winner = nullptr;  ///< newest found record
  };
  static ReplyTally TallyReplies(const std::map<std::string, GetReply>& replies);

  struct PendingGet {
    std::string key;
    GetCallback cb;
    bool done = false;
    ReadPlan plan;
    std::map<std::string, GetReply> replies;
    net::TimerId timeout_event = 0;
    Micros started_at = 0;
    Micros last_queue = 0;
    Micros last_service = 0;
    std::string last_replica;
  };

  /// Per-key write-activity entry backing the fast-read decision. A key is
  /// *clean* (single-replica readable) when it has no entry, and an entry
  /// is retired when its last write settled on every preference holder or
  /// the quiescence window elapsed with no further write.
  struct DirtyEntry {
    int inflight = 0;       ///< coordinated writes not yet fully decided
    Micros last_write = 0;  ///< most recent write activity on this key
    bool unsettled = false; ///< a decided write missed >= 1 preference holder
  };

  // Message plumbing. Handlers are registered per type on dispatcher_;
  // the transport invokes them on its event thread.
  void RegisterHandlers();
  void SendToNode(const std::string& to, const std::string& type,
                  bson::Document body);
  /// Runs replica-side work through the ServiceStation when service-time
  /// modeling is on, or inline (zero modeled delay) when off. Returns
  /// false when the station shed the request.
  bool SubmitWork(std::size_t payload_bytes, sim::ServiceStation::Done done);

  // Replica-side handlers (the normal message handling process).
  void HandlePutReplica(const std::string& from, PutReplicaMsg msg);
  void HandleGetReplica(const std::string& from, GetReplicaMsg msg);
  void HandleHintStore(const std::string& from, HintStoreMsg msg);
  void HandleHandoffDeliver(const std::string& from, std::uint64_t hint_id,
                            bson::Document record);

  // Coordinator-side handlers.
  void HandlePutAck(const std::string& from, PutAckMsg ack);
  void HandleGetAck(const std::string& from, GetAckMsg ack);
  /// An undecodable get ack carries no request id, so every pending read
  /// is checked against the sender.
  void HandleCorruptGetAck(const std::string& from);
  void HandleHandoffAck(HandoffAckMsg ack);

  // Put state machine.
  void StartPut(bson::Document record, PutCallback cb);
  /// Sends `put`'s write to `targets`: the original record to the primary,
  /// one shared encoded copy to the other holders, and a hint naming the
  /// covered holder to each handoff substitute.
  void SendPutReplicas(std::uint64_t req, const PendingPut& put,
                       const std::vector<std::string>& targets);
  void TryHandoff(std::uint64_t req, PendingPut* put,
                  const std::string& failed);
  void OnPutTimeout(std::uint64_t req);
  void OnPutCleanup(std::uint64_t req);
  void MaybeFinishPut(std::uint64_t req, PendingPut* put);
  /// Fails `put` if still undecided, then cancels its timers, retires its
  /// dirty entry and drops it.
  void RetirePut(std::uint64_t req, PendingPut* put);

  // Get executor. CoordinateGet picks a plan; IssueGet sends it; every
  // reply, corrupt ack and timeout feeds DecideGet, which serves, fails,
  // waits or demotes (re-issues a failed demotable plan as a quorum plan).
  ReadPlan QuorumPlan(const std::string& key) const;
  ReadPlan PrimaryPlan(const std::string& primary) const;
  ReadPlan HotPlan(const std::string& replica,
                   const std::string& primary) const;
  void IssueGet(const std::string& key, GetCallback cb, Micros started_at,
                ReadPlan plan);
  void DecideGet(std::uint64_t req, PendingGet* get, bool deadline);
  /// Flips `done`, counts the outcome and answers the caller.
  void ConcludeGet(std::uint64_t req, PendingGet* get,
                   Result<bson::Document> result);
  void DemoteGet(std::uint64_t req, PendingGet* get);
  void OnGetTimeout(std::uint64_t req);
  void FinalizeGet(std::uint64_t req, PendingGet* get);

  // Dirty-set bookkeeping for the fast read path.
  void MarkKeyDirty(const std::string& key);
  /// Called exactly once per decided put, when its pending entry retires.
  void RetireDirtyKey(const std::string& key, bool settled_all_n);
  /// Whether writes must be primary-anchored for single-replica plans to
  /// stay consistent (strict mode; sloppy handoff already trades staleness).
  bool RequirePrimaryAck() const {
    return config_.read_path != ReadPath::kQuorum && !config_.hinted_handoff;
  }

  // Observability: latency histogram sample + trace record for a decided
  // coordinated operation (call exactly once, when `done` flips).
  void RecordPutOutcome(const PendingPut& put, std::uint64_t req, bool ok);
  void RecordGetOutcome(const PendingGet& get, std::uint64_t req, bool ok);

  // Anti-entropy plumbing.
  void StartAntiEntropyTimer();
  void HandleAeDigest(const net::Message& msg);
  void HandleAeRequest(const net::Message& msg);
  /// Records for which both `self` and `peer` are preference members.
  std::vector<bson::Document> SharedRecords(const std::string& peer);
  /// Every record on this node (empty when the store cannot be read).
  std::vector<bson::Document> LocalRecords();

  // Failure handling.
  void StartHintTimer();
  void DeliverHints();
  void OnDetectorTransition(const std::string& endpoint, gossip::Liveness from,
                            gossip::Liveness to);

  // Rebalancing (long failure / node arrival).
  void ReplicateLocalData(bool purge_unowned);

  // Elastic-membership plumbing.
  /// Builds the Rebalancer and registers its wire handlers.
  void SetupRebalancer();
  /// Streams the replica-aware diff `before` -> current ring: this node
  /// executes the plan steps it is the designated source for, then sweeps
  /// the arcs it streamed out.
  void StartPlannedTransfers(const hashring::Ring& before);
  /// Applies a vnode-weight change for `node` (autonomic trigger or a
  /// gossiped reweight) and streams the released arcs.
  void ApplyReweight(const std::string& node, int vnodes);
  void StartAutonomicTimer();
  void RunAutonomicCheck();

  /// The N distinct physical preference nodes for `key`.
  std::vector<std::string> PreferenceNodes(const std::string& key) const;

  NodeSpec spec_;
  ClusterConfig config_;
  std::string id_;
  net::Transport* transport_;
  sim::FailureInjector* injector_;
  net::Dispatcher dispatcher_;

  hashring::Ring ring_;
  std::set<std::string> removed_nodes_;
  std::unique_ptr<docstore::DocStoreServer> server_;
  std::unique_ptr<sim::ServiceStation> station_;
  std::unique_ptr<gossip::Gossiper> gossiper_;
  std::unique_ptr<gossip::FailureDetector> detector_;

  std::unique_ptr<ReplicaStore> store_;
  HintStore hints_;

  // Coordinator state: pending operations keyed by request id (1, 2, 3,
  // ...), the dirty set behind the fast read path, and per-key heat that
  // feeds the hot-read rotation and /stats heat.*.
  std::uint64_t next_req_ = 1;
  std::map<std::uint64_t, PendingPut> pending_puts_;
  std::map<std::uint64_t, PendingGet> pending_gets_;
  std::map<std::string, DirtyEntry> dirty_keys_;
  std::uint64_t dirty_sweep_countdown_ = 0;  ///< periodic expired-entry sweep
  HeatTracker heat_;
  net::TimerId hint_timer_ = 0;

  NodeStats stats_;
  metrics::Histogram put_latency_hist_;
  metrics::Histogram get_latency_hist_;
  metrics::Histogram fast_get_latency_hist_;
  metrics::Histogram quorum_get_latency_hist_;
  metrics::TraceBuffer traces_{256};

  bool running_ = false;
  Micros clock_skew_ = 0;
  net::TimerId ae_timer_ = 0;
  Rng ae_rng_{0x5eedae};

  std::unique_ptr<rebalance::Rebalancer> rebalancer_;
  bool decommissioning_ = false;
  bool decommissioned_ = false;
  net::TimerId autonomic_timer_ = 0;
  net::TimerId sweep_timer_ = 0;
  bool sweep_push_pending_ = false;
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_STORAGE_NODE_H_
