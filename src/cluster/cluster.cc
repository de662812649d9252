#include "cluster/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "core/record.h"
#include "hashring/ketama.h"

namespace hotman::cluster {

namespace {

/// Virtual time granted for a blocking operation before giving up.
constexpr Micros kSyncOpBudget = 30 * kMicrosPerSecond;

/// Virtual time granted for a graceful decommission's throttled stream-out
/// before RemoveNode gives up waiting (the streams keep going regardless).
constexpr Micros kDecommissionBudget = 120 * kMicrosPerSecond;

}  // namespace

Cluster::Cluster(ClusterConfig config, std::uint64_t seed,
                 sim::FailureConfig failure_config)
    : config_(std::move(config)),
      loop_(),
      transport_(&loop_, config_.network, seed ^ 0x9e3779b97f4a7c15ull),
      injector_(&loop_, transport_.sim_network(), failure_config,
                seed ^ 0x5851f42d4c957f2dull),
      seed_(seed) {}

Cluster::~Cluster() = default;

Status Cluster::Start() {
  if (started_) return Status::OK();
  HOTMAN_RETURN_IF_ERROR(config_.Validate());
  injector_.SetRejoinHandler([this](docstore::DocStoreServer* server) {
    RejoinNode(server->address());
  });
  std::uint64_t node_seed = seed_;
  for (const NodeSpec& spec : config_.nodes) {
    auto node = std::make_unique<StorageNode>(spec, config_, &transport_,
                                              &injector_, ++node_seed);
    node->Start();
    injector_.RegisterServer(node->server());
    node_order_.push_back(spec.address);
    nodes_.emplace(spec.address, std::move(node));
  }
  started_ = true;
  // Let gossip converge before traffic arrives.
  loop_.RunFor(3 * config_.gossip.interval);
  return Status::OK();
}

StorageNode* Cluster::AnyCoordinator() {
  // Skip nodes that are currently faulted or stopped (e.g. decommissioned):
  // a real client's connection attempt to a dead front door fails fast and
  // it redials elsewhere.
  for (std::size_t attempts = 0; attempts < node_order_.size(); ++attempts) {
    StorageNode* candidate = nodes_[node_order_[rr_next_++ % node_order_.size()]].get();
    if (candidate->running() && candidate->server()->IsHealthy()) {
      return candidate;
    }
  }
  for (std::size_t attempts = 0; attempts < node_order_.size(); ++attempts) {
    StorageNode* candidate = nodes_[node_order_[rr_next_++ % node_order_.size()]].get();
    if (candidate->running()) return candidate;
  }
  return nodes_[node_order_[rr_next_++ % node_order_.size()]].get();
}

StorageNode* Cluster::CoordinatorFor(const std::string& key) {
  StorageNode* any = AnyCoordinator();
  auto primary = any->ring().PrimaryFor(key);
  if (!primary.ok()) return any;
  auto it = nodes_.find(*primary);
  if (it == nodes_.end() || !it->second->server()->IsHealthy()) return any;
  return it->second.get();
}

namespace {

/// Client-side retry budget: "the system cannot tolerate writing failure
/// ... try to write several times to guarantee the success of writing."
constexpr int kWriteAttempts = 3;
constexpr Micros kWriteRetryBackoff = 150 * kMicrosPerMilli;

}  // namespace

void Cluster::Put(const std::string& key, bson::Binary value, PutCallback cb) {
  // Each attempt re-picks a coordinator, so an attempt doomed by its own
  // coordinator's outage is retried through a healthy front door. The
  // stored closure holds itself only weakly — strong references travel
  // with the in-flight callbacks — so the final completion releases the
  // closure instead of leaking a shared_ptr cycle.
  auto attempt = std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak = attempt;
  *attempt = [this, key, value = std::move(value), cb = std::move(cb),
              weak](int tries) {
    auto self = weak.lock();  // pins the closure across the async op
    AnyCoordinator()->CoordinatePut(
        key, value,
        [this, key, cb, self, tries](const Status& s) {
          if (s.ok() || tries + 1 >= kWriteAttempts) {
            cb(s);
            return;
          }
          loop_.Schedule(kWriteRetryBackoff,
                         [self, tries]() { (*self)(tries + 1); });
        });
  };
  (*attempt)(0);
}

void Cluster::Get(const std::string& key, GetCallback cb) {
  // Reads retry like writes: a coordinator that went silent mid-request
  // (Timeout) or stopped (Unavailable) should not surface to the client
  // while another front door could still serve the read. NotFound and
  // other authoritative answers return immediately.
  auto attempt = std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak = attempt;
  *attempt = [this, key, cb = std::move(cb), weak](int tries) {
    auto self = weak.lock();
    AnyCoordinator()->CoordinateGet(
        key, [this, cb, self, tries](const Result<bson::Document>& r) {
          const bool retryable =
              !r.ok() && (r.status().IsTimeout() || r.status().IsUnavailable());
          if (!retryable || tries + 1 >= kWriteAttempts) {
            cb(r);
            return;
          }
          loop_.Schedule(kWriteRetryBackoff,
                         [self, tries]() { (*self)(tries + 1); });
        });
  };
  (*attempt)(0);
}

void Cluster::Delete(const std::string& key, PutCallback cb) {
  auto attempt = std::make_shared<std::function<void(int)>>();
  std::weak_ptr<std::function<void(int)>> weak = attempt;
  *attempt = [this, key, cb = std::move(cb), weak](int tries) {
    auto self = weak.lock();
    AnyCoordinator()->CoordinateDelete(
        key, [this, cb, self, tries](const Status& s) {
          if (s.ok() || tries + 1 >= kWriteAttempts) {
            cb(s);
            return;
          }
          loop_.Schedule(kWriteRetryBackoff,
                         [self, tries]() { (*self)(tries + 1); });
        });
  };
  (*attempt)(0);
}

void Cluster::RunUntilDone(const bool& done) {
  const Micros deadline = loop_.Now() + kSyncOpBudget;
  while (!done && loop_.Now() < deadline && loop_.PendingEvents() > 0) {
    loop_.RunUntil(loop_.Now() + kMicrosPerMilli);
  }
}

Status Cluster::PutSync(const std::string& key, bson::Binary value) {
  Status result = Status::Timeout("put never completed");
  bool done = false;
  Put(key, std::move(value), [&result, &done](const Status& s) {
    result = s;
    done = true;
  });
  RunUntilDone(done);
  return result;
}

Result<Bytes> Cluster::GetSync(const std::string& key) {
  Result<Bytes> result = Status::Timeout("get never completed");
  bool done = false;
  Get(key, [&result, &done](const Result<bson::Document>& record) {
    if (!record.ok()) {
      result = record.status();
    } else if (core::RecordIsDeleted(*record)) {
      result = Status::NotFound("key deleted");
    } else {
      result = core::RecordValue(*record);
    }
    done = true;
  });
  RunUntilDone(done);
  return result;
}

Status Cluster::DeleteSync(const std::string& key) {
  Status result = Status::Timeout("delete never completed");
  bool done = false;
  Delete(key, [&result, &done](const Status& s) {
    result = s;
    done = true;
  });
  RunUntilDone(done);
  return result;
}

Status Cluster::AddNode(const NodeSpec& spec) {
  HOTMAN_RETURN_IF_ERROR(AddNodeAsync(spec));
  loop_.RunFor(3 * config_.gossip.interval);
  return Status::OK();
}

Status Cluster::AddNodeAsync(const NodeSpec& spec) {
  if (nodes_.count(spec.address) > 0) {
    return Status::AlreadyExists("node exists: " + spec.address);
  }
  if (!(spec.capacity > 0.0)) {
    return Status::InvalidArgument("node capacity must be > 0");
  }
  // The new node bootstraps from the *current* static config plus itself.
  ClusterConfig node_config = config_;
  node_config.nodes.push_back(spec);
  auto node = std::make_unique<StorageNode>(spec, node_config, &transport_,
                                            &injector_, seed_ ^ (nodes_.size() + 17));
  StorageNode* raw = node.get();
  node_order_.push_back(spec.address);
  nodes_.emplace(spec.address, std::move(node));
  config_.nodes.push_back(spec);
  raw->Start();
  injector_.RegisterServer(raw->server());
  // Announce the arrival explicitly so migration starts promptly (gossip
  // would also spread it, but the admin notice mirrors the paper's
  // synchronization messages). The announced weight is capacity-scaled.
  for (auto& [address, other] : nodes_) {
    if (address != spec.address) {
      other->OnNodeAdded(spec.address, EffectiveVnodes(spec));
    }
  }
  return Status::OK();
}

Status Cluster::CrashNode(const std::string& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  injector_.Inject(it->second->server(), docstore::FaultMode::kDown, 0);
  return Status::OK();
}

Status Cluster::RestartNode(const std::string& address, bool lose_state) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  StorageNode* node = it->second.get();
  if (lose_state) {
    // The replacement machine boots with an empty disk: every replica it
    // held and every hint it owed other nodes are gone.
    ReplicaStore* store = node->store();
    auto records = store->AllRecords();
    if (records.ok()) {
      for (const bson::Document& record : *records) {
        Status purged = store->Purge(core::RecordSelfKey(record));
        (void)purged;
      }
    }
    node->hints()->Clear();
    // A wiped node also lost its rebalance cursors: sources must re-stream
    // from zero rather than resume past records the disk no longer holds.
    node->rebalancer()->OnStateLoss();
  }
  injector_.Revive(node->server());
  RejoinNode(address);
  // No RunFor here: the chaos nemesis restarts nodes from inside loop
  // events, where re-entrant pumping is illegal. Callers keep driving the
  // loop; gossip and migration settle as virtual time advances.
  return Status::OK();
}

Status Cluster::RemoveNode(const std::string& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  StorageNode* leaving = it->second.get();
  if (!config_.rebalance.enabled || !leaving->running()) {
    // No rebalancer (or nothing left to stream): the only departure on
    // offer is the abrupt one.
    return RemoveNodeAbrupt(address);
  }
  // Graceful decommission: the node streams out everything it holds, then
  // announces its own removal and stops — it never leaves the ring while
  // it still has data nobody else holds.
  auto result = std::make_shared<Status>(
      Status::Timeout("decommission never completed: " + address));
  auto done = std::make_shared<bool>(false);
  leaving->StartDecommission([result, done](const Status& s) {
    *result = s;
    *done = true;
  });
  const Micros deadline = loop_.Now() + kDecommissionBudget;
  while (!*done && loop_.Now() < deadline && loop_.PendingEvents() > 0) {
    loop_.RunUntil(loop_.Now() + 10 * kMicrosPerMilli);
  }
  if (*done && result->ok()) loop_.RunFor(3 * config_.gossip.interval);
  return *result;
}

Status Cluster::RemoveNodeAbrupt(const std::string& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  // Stop first, then announce: explicitly crash-shaped. Survivors recreate
  // the lost replicas from their own copies (Fig. 9), so any write that
  // only ever reached the departed node is gone — that is the semantics
  // this path models. Use RemoveNode for the lossless exit.
  StorageNode* announcer = nullptr;
  for (auto& [addr, node] : nodes_) {
    if (addr != address && node->is_seed() && node->running()) {
      announcer = node.get();
      break;
    }
  }
  it->second->Stop();
  if (announcer != nullptr) {
    announcer->AnnounceRemoval(address);
  } else {
    for (auto& [addr, node] : nodes_) {
      if (addr != address) node->OnNodeRemoved(address);
    }
  }
  loop_.RunFor(3 * config_.gossip.interval);
  return Status::OK();
}

Status Cluster::DecommissionNodeAsync(const std::string& address,
                                      std::function<void(const Status&)> done) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return Status::NotFound("no node: " + address);
  if (!config_.rebalance.enabled) {
    return Status::InvalidArgument("rebalancer disabled; use RemoveNodeAbrupt");
  }
  if (done == nullptr) done = [](const Status&) {};
  it->second->StartDecommission(std::move(done));
  return Status::OK();
}

void Cluster::RejoinNode(const std::string& address) {
  auto it = nodes_.find(address);
  if (it == nodes_.end()) return;
  // The rejoiner's own ring view is authoritative for its weight — it
  // carries the capacity-scaled (and possibly autonomically shed) vnode
  // count through the crash. Fall back to the config entry only when the
  // node somehow lost itself; a node in neither is an error, not a silent
  // default weight.
  int vnodes = it->second->ring().VnodeCount(address);
  if (vnodes < 1) {
    const NodeSpec* spec = nullptr;
    for (const NodeSpec& candidate : config_.nodes) {
      if (candidate.address == address) spec = &candidate;
    }
    if (spec == nullptr) {
      HOTMAN_LOG(kError) << "rejoin of " << address  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                         << ": absent from its own ring and from the cluster "
                            "config; cannot infer ring weight, skipping rejoin";
      return;
    }
    vnodes = EffectiveVnodes(*spec);
  }
  // The repaired node rejoins every member's ring; holders stream the arcs
  // it owns back to it, and LWW reconciles whatever stale data it kept.
  for (auto& [addr, node] : nodes_) {
    if (addr != address) node->OnNodeAdded(address, vnodes);
  }
  // The rejoiner may be the only holder of a write accepted just before the
  // crash: push those records to their current preference holders before
  // purging what it no longer owns.
  it->second->ScheduleOwnershipSweep(/*push_before_purge=*/true,
                                     3 * config_.gossip.interval);
}

StorageNode* Cluster::node(const std::string& address) {
  auto it = nodes_.find(address);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<StorageNode*> Cluster::nodes() {
  std::vector<StorageNode*> out;
  out.reserve(node_order_.size());
  for (const std::string& address : node_order_) {
    out.push_back(nodes_[address].get());
  }
  return out;
}

std::size_t Cluster::TotalReplicas() {
  std::size_t total = 0;
  for (auto& [address, node] : nodes_) total += node->store()->NumRecords();
  return total;
}

NodeStats Cluster::AggregateStats() {
  NodeStats total;
  for (auto& [address, node] : nodes_) total.MergeFrom(node->stats());
  return total;
}

rebalance::RebalanceStats Cluster::AggregateRebalanceStats() {
  rebalance::RebalanceStats total;
  for (auto& [address, node] : nodes_) total.MergeFrom(node->rebalance_stats());
  return total;
}

std::string Cluster::StatsJson() {
  metrics::Registry registry;
  const NodeStats total = AggregateStats();
  registry.counter("puts_coordinated")->Increment(total.puts_coordinated);
  registry.counter("puts_succeeded")->Increment(total.puts_succeeded);
  registry.counter("puts_failed")->Increment(total.puts_failed);
  registry.counter("gets_coordinated")->Increment(total.gets_coordinated);
  registry.counter("gets_succeeded")->Increment(total.gets_succeeded);
  registry.counter("gets_failed")->Increment(total.gets_failed);
  registry.counter("replica_puts_applied")->Increment(total.replica_puts_applied);
  registry.counter("replica_gets_served")->Increment(total.replica_gets_served);
  registry.counter("handoff_writes")->Increment(total.handoff_writes);
  registry.counter("hints_delivered")->Increment(total.hints_delivered);
  registry.counter("read_repairs")->Increment(total.read_repairs);
  registry.counter("read_repairs_skipped_dead")
      ->Increment(total.read_repairs_skipped_dead);
  registry.counter("fast_read_hits")->Increment(total.fast_read_hits);
  registry.counter("fast_read_fallbacks")->Increment(total.fast_read_fallbacks);
  registry.counter("fast_read_demotions")->Increment(total.fast_read_demotions);
  registry.counter("hot_gets_fanned")->Increment(total.hot_gets_fanned);
  registry.counter("hot_read_hits")->Increment(total.hot_read_hits);
  registry.counter("hot_read_demotions")->Increment(total.hot_read_demotions);
  registry.counter("replica_digests_served")
      ->Increment(total.replica_digests_served);
  registry.counter("get_acks_corrupt")->Increment(total.get_acks_corrupt);
  registry.counter("rereplications")->Increment(total.rereplications);
  registry.counter("rebalance_purges")->Increment(total.rebalance_purges);
  registry.counter("ae_rounds")->Increment(total.ae_rounds);
  const rebalance::RebalanceStats reb = AggregateRebalanceStats();
  registry.counter("rebalance.transfers_started")->Increment(reb.transfers_started);
  registry.counter("rebalance.transfers_completed")
      ->Increment(reb.transfers_completed);
  registry.counter("rebalance.transfers_aborted")->Increment(reb.transfers_aborted);
  registry.counter("rebalance.arcs_planned")->Increment(reb.arcs_planned);
  registry.counter("rebalance.arcs_completed")->Increment(reb.arcs_completed);
  registry.counter("rebalance.records_streamed")->Increment(reb.records_streamed);
  registry.counter("rebalance.bytes_streamed")->Increment(reb.bytes_streamed);
  registry.counter("rebalance.records_received")->Increment(reb.records_received);
  registry.counter("rebalance.records_skipped")->Increment(reb.records_skipped);
  registry.counter("rebalance.throttle_stalls")->Increment(reb.throttle_stalls);
  registry.counter("rebalance.resumes")->Increment(reb.resumes);
  registry.counter("rebalance.retries")->Increment(reb.retries);
  registry.counter("rebalance.autonomic_reweights")
      ->Increment(reb.autonomic_reweights);
  transport_.ExportStats(&registry);
  registry.gauge("nodes")->Set(static_cast<std::int64_t>(nodes_.size()));
  registry.gauge("virtual_now_us")->Set(loop_.Now());
  // heat.*: per-key heat merged across every node. Gauges are
  // int64, so the fractional skew coefficient exports in milli-units.
  HeatSnapshot heat;
  for (auto& [address, node] : nodes_) {
    heat.MergeFrom(node->heat_snapshot(), node->config().heat.capacity);
  }
  registry.counter("heat.tracked_ops")
      ->Increment(static_cast<std::int64_t>(heat.ops));
  registry.gauge("heat.tracked_keys")
      ->Set(static_cast<std::int64_t>(heat.top.size()));
  registry.gauge("heat.top1_qps")
      ->Set(static_cast<std::int64_t>(heat.top.empty() ? 0.0 : heat.top.front().qps));
  registry.gauge("heat.total_qps")->Set(static_cast<std::int64_t>(heat.total_qps));
  registry.gauge("heat.skew_coeff_milli")
      ->Set(static_cast<std::int64_t>(heat.skew_coefficient * 1000.0));
  metrics::Histogram* put_lat = registry.histogram("put_latency_us");
  metrics::Histogram* get_lat = registry.histogram("get_latency_us");
  metrics::Histogram* fast_get_lat = registry.histogram("fast_get_latency_us");
  metrics::Histogram* quorum_get_lat =
      registry.histogram("quorum_get_latency_us");
  metrics::Histogram* queue_wait = registry.histogram("replica_queue_wait_us");
  metrics::Histogram* service = registry.histogram("replica_service_us");
  for (auto& [address, node] : nodes_) {
    put_lat->MergeFrom(node->put_latency_histogram());
    get_lat->MergeFrom(node->get_latency_histogram());
    fast_get_lat->MergeFrom(node->fast_get_latency_histogram());
    quorum_get_lat->MergeFrom(node->quorum_get_latency_histogram());
    if (node->station() != nullptr) {
      queue_wait->MergeFrom(node->station()->queue_wait_histogram());
      service->MergeFrom(node->station()->service_histogram());
    }
  }
  return registry.ToJson();
}

std::vector<metrics::TraceRecord> Cluster::RecentTraces(std::size_t limit) {
  std::vector<metrics::TraceRecord> all;
  for (auto& [address, node] : nodes_) {
    for (metrics::TraceRecord& trace : node->TraceSnapshot()) {
      all.push_back(std::move(trace));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const metrics::TraceRecord& a, const metrics::TraceRecord& b) {
              return a.finished_at < b.finished_at;
            });
  if (all.size() > limit) all.erase(all.begin(), all.end() - limit);
  return all;
}

}  // namespace hotman::cluster
