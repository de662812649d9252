#include "chaos/harness.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "bson/codec.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "core/record.h"
#include "workload/skew.h"

namespace hotman::chaos {

using workload::History;
using workload::OpKind;
using workload::OpStatus;

ChaosOptions ChaosOptions::QuorumProfile(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.read_quorum = 2;  // R+W = 4 > N = 3: every read meets every write
  options.hinted_handoff = false;  // substitute acks would break intersection
  options.nemesis.clock_skew = false;  // LWW ordering must stay real-time
  options.nemesis.state_loss = false;  // durability is assumed, not checked
  return options;
}

ChaosOptions ChaosOptions::MembershipProfile(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.read_quorum = 2;         // R+W > N, like the quorum profile
  options.hinted_handoff = false;  // foreign-key hints would fail ownership
  options.nemesis.clock_skew = false;
  options.nemesis.state_loss = false;
  options.nemesis.membership = true;
  // A ring mid-migration makes real-time read staleness legitimate (the
  // newcomer answers for arcs it is still receiving); the checked core is
  // phantoms, lost updates, convergence and ownership.
  options.check.check_stale_reads = false;
  options.check.check_read_your_writes = false;
  options.check_ownership = true;
  return options;
}

ChaosOptions ChaosOptions::SkewProfile(std::uint64_t seed) {
  ChaosOptions options = QuorumProfile(seed);
  options.zipf_theta = 0.99;  // YCSB-default skew: rank 0 takes ~35% of ops
  options.read_path = cluster::ReadPath::kHotRotation;
  // Chaos traffic runs at a few ops/sec of virtual time; the production
  // thresholds (hundreds of qps) would never flag anything. These flag the
  // Zipf head within the warmup without flagging the uniform tail.
  options.heat.hot_qps = 1.0;
  options.heat.min_hits = 6.0;
  options.heat.half_life = 4 * kMicrosPerSecond;
  return options;
}

ChaosOptions ChaosOptions::ConvergenceProfile(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  // Sloppy quorum (paper defaults) under the full menu: reads may be stale
  // by design, so only phantom values, convergence and provenance are
  // checked.
  options.check.check_stale_reads = false;
  options.check.check_read_your_writes = false;
  options.check.check_lost_updates = false;
  return options;
}

namespace {

/// One sequential client session issuing ops against round-robin
/// coordinators, recording everything into the shared history.
class ClientSession {
 public:
  ClientSession(int id, cluster::Cluster* cluster, History* history,
                const ChaosOptions& options, Rng rng)
      : id_(id),
        cluster_(cluster),
        history_(history),
        options_(options),
        rng_(rng) {
    if (options_.zipf_theta > 0.0) {
      zipf_.emplace(static_cast<std::size_t>(options_.keys),
                    options_.zipf_theta);
    }
  }

  void Start() { ScheduleNext(); }
  bool Done() const { return issued_ >= options_.ops_per_client && !in_flight_; }

 private:
  void ScheduleNext() {
    if (issued_ >= options_.ops_per_client) return;
    const Micros think =
        rng_.UniformRange(options_.think_min, options_.think_max);
    cluster_->loop()->Schedule(think, [this]() { IssueOne(); });
  }

  void IssueOne() {
    // Both draws consume exactly one Rng value, so flipping the skew on
    // never perturbs the think-time/mix stream of a given seed.
    const std::uint64_t rank =
        zipf_ ? zipf_->Next(&rng_) : rng_.Uniform(options_.keys);
    const std::string key = "k" + std::to_string(rank);
    const double mix = rng_.NextDouble();
    ++issued_;
    in_flight_ = true;
    cluster::StorageNode* coordinator = cluster_->AnyCoordinator();
    const std::string coordinator_id = coordinator->id();
    const Micros now = cluster_->loop()->Now();

    if (mix < options_.put_fraction) {
      const std::string value =
          "c" + std::to_string(id_) + "-" + std::to_string(issued_);
      const std::uint64_t op =
          history_->Invoke(id_, OpKind::kPut, key, value, now);
      coordinator->CoordinatePut(
          key, Bytes(value.begin(), value.end()),
          [this, op, coordinator_id](const Status& s) {
            history_->Complete(op, s.ok() ? OpStatus::kOk : OpStatus::kFailed,
                               "", coordinator_id, cluster_->loop()->Now());
            OpDone();
          });
    } else if (mix < options_.put_fraction + options_.delete_fraction) {
      const std::uint64_t op =
          history_->Invoke(id_, OpKind::kDelete, key, "", now);
      coordinator->CoordinateDelete(
          key, [this, op, coordinator_id](const Status& s) {
            history_->Complete(op, s.ok() ? OpStatus::kOk : OpStatus::kFailed,
                               "", coordinator_id, cluster_->loop()->Now());
            OpDone();
          });
    } else {
      const std::uint64_t op =
          history_->Invoke(id_, OpKind::kGet, key, "", now);
      coordinator->CoordinateGet(
          key, [this, op, coordinator_id](const Result<bson::Document>& r) {
            OpStatus status = OpStatus::kFailed;
            std::string value;
            if (r.ok() && !core::RecordIsDeleted(*r)) {
              status = OpStatus::kOk;
              const Bytes& bytes = core::RecordValue(*r);
              value.assign(bytes.begin(), bytes.end());
            } else if (r.ok() || r.status().IsNotFound()) {
              status = OpStatus::kNotFound;  // tombstone or authoritative miss
            }
            history_->Complete(op, status, value, coordinator_id,
                               cluster_->loop()->Now());
            OpDone();
          });
    }
  }

  void OpDone() {
    in_flight_ = false;
    ScheduleNext();
  }

  int id_;
  cluster::Cluster* cluster_;
  History* history_;
  const ChaosOptions& options_;
  Rng rng_;
  std::optional<workload::ZipfGenerator> zipf_;  ///< engaged when theta > 0
  int issued_ = 0;
  bool in_flight_ = false;
};

/// Normalized wire form of a record for byte-compare across replicas: the
/// coordinator's original differs from copies only in the isData flag, so
/// everything is compared as a copy.
std::string NormalizedBytes(const bson::Document& record) {
  return bson::EncodeToString(core::AsReplicaCopy(record));
}

}  // namespace

ChaosResult RunChaos(const ChaosOptions& options) {
  ChaosResult result;

  cluster::ClusterConfig config = cluster::ClusterConfig::Uniform(
      options.nodes, /*seeds=*/options.nodes >= 3 ? 2 : 1);
  config.replication_factor = options.replication;
  config.write_quorum = options.write_quorum;
  config.read_quorum = options.read_quorum;
  config.hinted_handoff = options.hinted_handoff;
  config.read_repair = options.read_repair;
  config.read_path = options.read_path;
  config.heat = options.heat;
  config.anti_entropy = options.anti_entropy;
  config.anti_entropy_interval = 2 * kMicrosPerSecond;
  config.chaos_lying_replica = options.lying_replica;
  config.chaos_skip_ownership_purge = options.chaos_skip_ownership_purge;

  cluster::Cluster cluster(config, options.seed);
  Status started = cluster.Start();
  if (!started.ok()) {
    result.report.violations.push_back(Violation{
        ViolationKind::kDivergence, "", 0, 0,
        "cluster failed to start: " + started.ToString()});
    return result;
  }

  Nemesis nemesis(&cluster, options.nemesis, options.seed);

  Rng master(options.seed ^ 0xc11e7f5ca1ab1e5ull);
  std::vector<std::unique_ptr<ClientSession>> clients;
  clients.reserve(options.clients);
  for (int c = 0; c < options.clients; ++c) {
    clients.push_back(std::make_unique<ClientSession>(
        c, &cluster, &result.history, options, master.Fork()));
  }
  for (auto& client : clients) client->Start();

  // Warmup traffic on a healthy cluster, then release the nemesis.
  cluster.RunFor(options.warmup);
  nemesis.Start();

  const Micros drain_deadline = cluster.loop()->Now() + options.drain_budget;
  auto all_done = [&clients]() {
    for (const auto& client : clients) {
      if (!client->Done()) return false;
    }
    return true;
  };
  while (!all_done() && cluster.loop()->Now() < drain_deadline) {
    cluster.RunFor(200 * kMicrosPerMilli);
  }
  result.drained = all_done();

  // Heal the world and let background repair quiesce: gossip re-learns the
  // membership, hints deliver, anti-entropy reconciles. The explicit
  // pair-wise rounds make convergence independent of the random peer
  // choice of the periodic timer.
  nemesis.Stop();
  nemesis.HealAll();
  cluster.RunFor(3 * kMicrosPerSecond);

  // A decommission drawn late in the run may still be streaming its data
  // out; on the healed network it finishes quickly, so wait for the ring
  // to stop moving before measuring.
  const Micros leave_deadline =
      cluster.loop()->Now() + 60 * kMicrosPerSecond;
  auto any_leaving = [&cluster]() {
    for (cluster::StorageNode* node : cluster.nodes()) {
      if (node->decommissioning() && node->running()) return true;
    }
    return false;
  };
  while (any_leaving() && cluster.loop()->Now() < leave_deadline) {
    cluster.RunFor(500 * kMicrosPerMilli);
  }
  // Decommissioned nodes have left the system: their (stopped) stores are
  // no longer part of the replicated state, so every post-run pass walks
  // only the running membership.
  std::vector<cluster::StorageNode*> nodes;
  for (cluster::StorageNode* node : cluster.nodes()) {
    if (node->running()) nodes.push_back(node);
  }
  if (nodes.empty()) {
    result.report.violations.push_back(Violation{
        ViolationKind::kDivergence, "", 0, 0,
        "no node left running after the run"});
    return result;
  }
  for (int pass = 0; pass < options.ae_passes; ++pass) {
    for (cluster::StorageNode* node : nodes) {
      for (cluster::StorageNode* peer : nodes) {
        if (node != peer) node->RunAntiEntropyRound(peer->id());
      }
      cluster.RunFor(300 * kMicrosPerMilli);
    }
  }
  cluster.RunFor(options.quiesce);

  // --- final state + convergence --------------------------------------
  std::map<std::string, std::vector<std::pair<std::string, bson::Document>>>
      holders;
  for (cluster::StorageNode* node : nodes) {
    auto records = node->store()->AllRecords();
    if (!records.ok()) continue;
    for (bson::Document& record : *records) {
      holders[core::RecordSelfKey(record)].emplace_back(node->id(),
                                                        std::move(record));
    }
  }

  for (const auto& [key, copies] : holders) {
    const bson::Document* winner = nullptr;
    for (const auto& [node_id, record] : copies) {
      if (winner == nullptr || core::SupersedesLww(record, *winner)) {
        winner = &record;
      }
    }
    FinalKeyState state;
    state.present = winner != nullptr && !core::RecordIsDeleted(*winner);
    if (state.present) {
      const Bytes& bytes = core::RecordValue(*winner);
      state.value.assign(bytes.begin(), bytes.end());
    }
    result.final_state.emplace(key, std::move(state));
  }

  if (options.check_convergence) {
    for (const auto& [key, copies] : holders) {
      const std::string reference = NormalizedBytes(copies.front().second);
      std::string mismatched;
      for (const auto& [node_id, record] : copies) {
        if (NormalizedBytes(record) != reference) {
          mismatched += (mismatched.empty() ? "" : ",") + node_id;
        }
      }
      if (!mismatched.empty()) {
        result.report.violations.push_back(Violation{
            ViolationKind::kDivergence, key, 0, 0,
            "replicas disagree after quiesce (holders " +
                std::to_string(copies.size()) + ", diverged: " + mismatched +
                ")"});
        continue;
      }
      // Every current preference member must hold the converged record.
      const std::vector<std::string> prefs =
          nodes.front()->ring().PreferenceList(
              key, static_cast<std::size_t>(options.replication));
      for (const std::string& member : prefs) {
        bool holds = false;
        for (const auto& [node_id, record] : copies) {
          if (node_id == member) holds = true;
        }
        if (!holds) {
          result.report.violations.push_back(Violation{
              ViolationKind::kDivergence, key, 0, 0,
              "preference member " + member +
                  " is missing the record after quiesce"});
        }
      }
    }
  }

  if (options.check_ownership) {
    // Every running node must agree on who the members are...
    const std::vector<std::string> reference_members =
        nodes.front()->ring().Nodes();
    for (cluster::StorageNode* node : nodes) {
      if (node->ring().Nodes() != reference_members) {
        std::string detail = "ring membership disagrees: " +
                             nodes.front()->id() + " vs " + node->id();
        result.report.violations.push_back(
            Violation{ViolationKind::kDivergence, "", 0, 0, detail});
      }
    }
    // ...and nobody may still hold a key it no longer owns: join and
    // decommission moved arcs, and the ownership sweep purges the stale
    // source copies once the stream is acked.
    for (const auto& [key, copies] : holders) {
      const std::vector<std::string> prefs =
          nodes.front()->ring().PreferenceList(
              key, static_cast<std::size_t>(options.replication));
      for (const auto& [node_id, record] : copies) {
        bool owner = false;
        for (const std::string& member : prefs) {
          if (member == node_id) owner = true;
        }
        if (!owner) {
          result.report.violations.push_back(Violation{
              ViolationKind::kOrphanReplica, key, 0, 0,
              node_id + " still holds the key; owners are " +
                  [&prefs] {
                    std::string joined;
                    for (const std::string& p : prefs) {
                      joined += (joined.empty() ? "" : ",") + p;
                    }
                    return joined;
                  }()});
        }
      }
    }
  }

  CheckReport checked =
      CheckHistory(result.history, result.final_state, options.check);
  checked.violations.insert(checked.violations.end(),
                            result.report.violations.begin(),
                            result.report.violations.end());
  result.report = std::move(checked);

  result.history_hash = result.history.HexHash();
  result.nemesis_log = nemesis.log();
  result.faults_injected = nemesis.faults_injected();
  const cluster::NodeStats totals = cluster.AggregateStats();
  result.hot_gets_fanned = totals.hot_gets_fanned;
  result.hot_read_hits = totals.hot_read_hits;
  result.hot_read_demotions = totals.hot_read_demotions;
  return result;
}

}  // namespace hotman::chaos
