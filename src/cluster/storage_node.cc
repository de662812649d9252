#include "cluster/storage_node.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "bson/codec.h"
#include "common/logging.h"
#include "hashring/ketama.h"

namespace hotman::cluster {

namespace {

/// Extra ring successors examined when picking hinted-handoff substitutes.
constexpr std::size_t kHandoffCandidateSlack = 4;

/// Period of the hint write-back attempts.
constexpr Micros kHintRetryInterval = 2 * kMicrosPerSecond;

}  // namespace

void NodeStats::MergeFrom(const NodeStats& other) {
  puts_coordinated += other.puts_coordinated;
  puts_succeeded += other.puts_succeeded;
  puts_failed += other.puts_failed;
  gets_coordinated += other.gets_coordinated;
  gets_succeeded += other.gets_succeeded;
  gets_failed += other.gets_failed;
  replica_puts_applied += other.replica_puts_applied;
  replica_gets_served += other.replica_gets_served;
  handoff_writes += other.handoff_writes;
  hints_delivered += other.hints_delivered;
  read_repairs += other.read_repairs;
  read_repairs_skipped_dead += other.read_repairs_skipped_dead;
  fast_read_hits += other.fast_read_hits;
  fast_read_fallbacks += other.fast_read_fallbacks;
  fast_read_demotions += other.fast_read_demotions;
  hot_gets_fanned += other.hot_gets_fanned;
  hot_read_hits += other.hot_read_hits;
  hot_read_demotions += other.hot_read_demotions;
  replica_digests_served += other.replica_digests_served;
  get_acks_corrupt += other.get_acks_corrupt;
  rereplications += other.rereplications;
  rebalance_purges += other.rebalance_purges;
  ae_rounds += other.ae_rounds;
  ae_pushed += other.ae_pushed;
  ae_requested += other.ae_requested;
}

StorageNode::StorageNode(const NodeSpec& spec, const ClusterConfig& config,
                         net::Transport* transport,
                         sim::FailureInjector* injector, std::uint64_t rng_seed)
    : spec_(spec),
      config_(config),
      id_(spec.address),
      transport_(transport),
      injector_(injector),
      heat_(config.heat) {
  server_ = std::make_unique<docstore::DocStoreServer>(
      id_, hashring::KetamaHash(id_), transport_->clock());
  if (config_.simulate_service_time) {
    station_ = std::make_unique<sim::ServiceStation>(transport_, config_.service);
  }
  store_ = std::make_unique<ReplicaStore>(server_->db(), config_.collection);
  Status init = store_->Init();
  if (!init.ok()) {
    HOTMAN_LOG(kError) << id_ << ": replica store init failed: " << init.ToString();  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
  }

  std::vector<std::string> seeds;
  for (const NodeSpec& node : config_.nodes) {
    if (node.is_seed) seeds.push_back(node.address);
  }
  gossiper_ = std::make_unique<gossip::Gossiper>(
      id_, seeds, spec_.is_seed, transport_, config_.gossip, rng_seed,
      [this](const std::string& to, const std::string& type, bson::Document body) {
        SendToNode(to, type, std::move(body));
      });
  detector_ = std::make_unique<gossip::FailureDetector>(
      id_, transport_, &gossiper_->states(), config_.detector);
  SetupRebalancer();
  RegisterHandlers();
}

StorageNode::~StorageNode() { Stop(); }

void StorageNode::Start() {
  if (running_) return;
  running_ = true;
  transport_->RegisterEndpoint(id_, dispatcher_.AsTransportHandler());  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
  // Static bootstrap: the configured membership seeds the local ring view.
  // Ring weight is the capacity-scaled vnode count, so a half-size box owns
  // a proportionally smaller keyspace share.
  for (const NodeSpec& node : config_.nodes) {
    Status s = ring_.AddNode(node.address, EffectiveVnodes(node));
    (void)s;  // AlreadyExists is fine on restart
    if (node.address != id_) gossiper_->AddPeer(node.address);
  }
  gossiper_->Boot(transport_->NowMicros() / kMicrosPerSecond + 1);
  gossiper_->SetLocalState(gossip::kStateVnodes,
                           std::to_string(EffectiveVnodes(spec_)));
  gossiper_->SetLocalState(gossip::kStateLoad, "0");
  gossiper_->SetStateChangeListener(
      [this](const std::string& endpoint, const std::string& key,
             const std::string& value) {
        if (key != gossip::kStateVnodes || removed_nodes_.count(endpoint) != 0) {
          return;
        }
        const int vnodes = std::max(1, std::atoi(value.c_str()));
        if (!ring_.HasNode(endpoint)) {
          // Learned of a new member through gossip.
          OnNodeAdded(endpoint, vnodes);
        } else if (endpoint != id_ && ring_.VnodeCount(endpoint) != vnodes) {
          // A member changed its ring weight (autonomic shed or operator
          // reweight): rebuild its points and stream the released arcs.
          ApplyReweight(endpoint, vnodes);
        }
      });
  gossiper_->Start();
  detector_->Start([this](const std::string& endpoint, gossip::Liveness from,
                          gossip::Liveness to) {
    OnDetectorTransition(endpoint, from, to);
  });
  StartHintTimer();
  if (config_.anti_entropy) StartAntiEntropyTimer();
  rebalancer_->Start();
  if (config_.rebalance.autonomic) StartAutonomicTimer();
}

void StorageNode::Stop() {
  if (!running_) return;
  running_ = false;
  gossiper_->Stop();
  detector_->Stop();
  rebalancer_->Stop();
  transport_->CancelTimer(ae_timer_);
  transport_->CancelTimer(autonomic_timer_);
  autonomic_timer_ = 0;
  transport_->CancelTimer(sweep_timer_);
  sweep_timer_ = 0;
  sweep_push_pending_ = false;
  // Per-request events must not outlive the node: a timeout firing after
  // Stop would touch freed state, and an undone operation would otherwise
  // strand its caller forever. Move the maps out first so callbacks that
  // re-enter this node see empty pending state.
  transport_->CancelTimer(hint_timer_);
  auto puts = std::move(pending_puts_);
  pending_puts_.clear();
  for (auto& [req, put] : puts) {
    transport_->CancelTimer(put.timeout_event);
    transport_->CancelTimer(put.cleanup_event);
    if (!put.done) {
      put.done = true;
      ++stats_.puts_failed;
      RecordPutOutcome(put, req, /*ok=*/false);
      put.cb(Status::Unavailable("coordinator stopped: " + id_));
    }
  }
  auto gets = std::move(pending_gets_);
  pending_gets_.clear();
  for (auto& [req, get] : gets) {
    transport_->CancelTimer(get.timeout_event);
    if (!get.done) {
      ConcludeGet(req, &get, Status::Unavailable("coordinator stopped: " + id_));
    }
  }
  dirty_keys_.clear();
  transport_->UnregisterEndpoint(id_);
}

// --- plumbing ---------------------------------------------------------------

void StorageNode::SendToNode(const std::string& to, const std::string& type,
                             bson::Document body) {
  net::Message msg;
  msg.from = id_;
  msg.to = to;
  msg.type = type;
  msg.body = std::move(body);
  transport_->Send(std::move(msg));
}

void StorageNode::RegisterHandlers() {
  dispatcher_.On(gossip::kMsgGossipSyn, [this](const net::Message& msg) {
    gossiper_->HandleSyn(msg.from, msg.body);
  });
  dispatcher_.On(gossip::kMsgGossipAck1, [this](const net::Message& msg) {
    gossiper_->HandleAck1(msg.from, msg.body);
  });
  dispatcher_.On(gossip::kMsgGossipAck2, [this](const net::Message& msg) {
    gossiper_->HandleAck2(msg.from, msg.body);
  });
  dispatcher_.On(kMsgPutReplica, [this](const net::Message& msg) {
    auto decoded = DecodePutReplica(msg.body);
    if (decoded.ok()) HandlePutReplica(msg.from, std::move(*decoded));
  });
  dispatcher_.On(kMsgGetReplica, [this](const net::Message& msg) {
    auto decoded = DecodeGetReplica(msg.body);
    if (decoded.ok()) HandleGetReplica(msg.from, std::move(*decoded));
  });
  dispatcher_.On(kMsgPutAck, [this](const net::Message& msg) {
    auto ack = DecodePutAck(msg.body);
    if (ack.ok()) HandlePutAck(msg.from, std::move(*ack));
  });
  dispatcher_.On(kMsgGetAck, [this](const net::Message& msg) {
    auto ack = DecodeGetAck(msg.body);
    if (!ack.ok()) {
      ++stats_.get_acks_corrupt;
      HandleCorruptGetAck(msg.from);
      return;
    }
    HandleGetAck(msg.from, std::move(*ack));
  });
  dispatcher_.On(kMsgHintStore, [this](const net::Message& msg) {
    auto decoded = DecodeHintStore(msg.body);
    if (decoded.ok()) HandleHintStore(msg.from, std::move(*decoded));
  });
  dispatcher_.On(kMsgHandoffDeliver, [this](const net::Message& msg) {
    auto decoded = DecodeHandoffDeliver(msg.body);
    if (!decoded.ok()) return;
    HandleHandoffDeliver(msg.from, decoded->first, std::move(decoded->second));
  });
  dispatcher_.On(kMsgHandoffAck, [this](const net::Message& msg) {
    auto ack = DecodeHandoffAck(msg.body);
    if (ack.ok()) HandleHandoffAck(std::move(*ack));
  });
  dispatcher_.On(kMsgAeDigest,
                 [this](const net::Message& msg) { HandleAeDigest(msg); });
  dispatcher_.On(kMsgAeRequest,
                 [this](const net::Message& msg) { HandleAeRequest(msg); });
  // Elastic membership (src/rebalance/).
  dispatcher_.On(rebalance::kMsgRangeDigest, [this](const net::Message& msg) {
    rebalancer_->HandleRangeDigest(msg.from, msg.body);
  });
  dispatcher_.On(rebalance::kMsgRangeAck, [this](const net::Message& msg) {
    rebalancer_->HandleRangeAck(msg.from, msg.body);
  });
  dispatcher_.On(rebalance::kMsgRangePush, [this](const net::Message& msg) {
    rebalancer_->HandleRangePush(msg.from, msg.body);
  });
  dispatcher_.On(rebalance::kMsgTransferDone, [this](const net::Message& msg) {
    rebalancer_->HandleTransferDone(msg.from, msg.body);
  });
  dispatcher_.On(kMsgNodeRemoved, [this](const net::Message& msg) {
    auto notice = DecodeMembership(msg.body);
    if (notice.ok()) OnNodeRemoved(notice->node);
  });
  dispatcher_.On(kMsgNodeAdded, [this](const net::Message& msg) {
    auto notice = DecodeMembership(msg.body);
    if (notice.ok()) OnNodeAdded(notice->node, std::max(1, notice->vnodes));
  });
}

bool StorageNode::SubmitWork(std::size_t payload_bytes,
                             sim::ServiceStation::Done done) {
  if (station_ != nullptr) return station_->Submit(payload_bytes, std::move(done));
  done(0, 0);  // real deployment: the actual work *is* the service time
  return true;
}

std::vector<std::string> StorageNode::PreferenceNodes(
    const std::string& key) const {
  return ring_.PreferenceList(key, config_.replication_factor);
}

// --- replica side -----------------------------------------------------------

void StorageNode::HandlePutReplica(const std::string& from, PutReplicaMsg msg) {
  const std::size_t bytes = bson::EncodedSize(msg.record);
  const std::uint64_t req = msg.req;
  bson::Document record = std::move(msg.record);
  const bool admitted = SubmitWork(
      bytes, [this, req, from, record = std::move(record)](
                 Micros queued, Micros serviced) {
        PutAckMsg ack;
        ack.req = req;
        ack.queue_micros = queued;
        ack.service_micros = serviced;
        Status available = server_->CheckAvailable();
        if (!available.ok()) {
          ack.ok = false;
          ack.error = available.ToString();
        } else if (config_.chaos_lying_replica == id_) {
          // Negative-control harness: acknowledge without applying, so the
          // coordinator's quorum count overstates durability. The offline
          // checker must catch the resulting lost updates / stale reads.
          ack.ok = true;
        } else {
          auto applied = store_->Apply(record);
          if (applied.ok()) {
            ack.ok = true;
            ++stats_.replica_puts_applied;
          } else {
            ack.ok = false;
            ack.error = applied.status().ToString();
          }
        }
        if (req != 0) SendToNode(from, kMsgPutAck, EncodePutAck(ack));
      });
  if (!admitted && req != 0) {
    PutAckMsg ack;
    ack.req = req;
    ack.ok = false;
    ack.error = "Busy: request shed";
    SendToNode(from, kMsgPutAck, EncodePutAck(ack));
  }
}

void StorageNode::HandleGetReplica(const std::string& from, GetReplicaMsg msg) {
  if (msg.digest_only) {
    // Version probes bypass the ServiceStation: they serve a bounded
    // (_ts, _origin) pair off the store's index, not a record payload —
    // that asymmetry is the point of the hot fan-out (the primary answers
    // cheap metadata probes while payload service rotates across the
    // other holders). A production engine would back this with an
    // in-memory version index; the docstore lookup plays that role here.
    GetAckMsg ack;
    ack.req = msg.req;
    ack.digest = true;
    Status available = server_->CheckAvailable();
    if (!available.ok()) {
      ack.ok = false;
      ack.error = available.ToString();
    } else {
      auto record = store_->GetByKey(msg.key);
      ack.ok = true;
      if (record.ok()) {
        ack.found = true;
        ack.digest_ts = core::RecordTimestamp(*record);
        ack.digest_origin = core::RecordOrigin(*record);
      } else if (!record.status().IsNotFound()) {
        ack.ok = false;
        ack.error = record.status().ToString();
      }
      if (ack.ok) ++stats_.replica_digests_served;
    }
    SendToNode(from, kMsgGetAck, EncodeGetAck(ack));
    return;
  }
  const std::uint64_t req = msg.req;
  const std::string key = msg.key;
  const bool admitted = SubmitWork(
      256, [this, req, from, key](Micros queued, Micros serviced) {
        GetAckMsg ack;
        ack.req = req;
        ack.queue_micros = queued;
        ack.service_micros = serviced;
        Status available = server_->CheckAvailable();
        if (!available.ok()) {
          ack.ok = false;
          ack.error = available.ToString();
        } else {
          auto record = store_->GetByKey(key);
          ack.ok = true;
          if (record.ok()) {
            ack.found = true;
            ack.record = std::move(*record);
          } else if (!record.status().IsNotFound()) {
            ack.ok = false;
            ack.error = record.status().ToString();
          }
          if (ack.ok) ++stats_.replica_gets_served;
        }
        SendToNode(from, kMsgGetAck, EncodeGetAck(ack));
      });
  if (!admitted) {
    GetAckMsg ack;
    ack.req = req;
    ack.ok = false;
    ack.error = "Busy: request shed";
    SendToNode(from, kMsgGetAck, EncodeGetAck(ack));
  }
}

void StorageNode::HandleHintStore(const std::string& from, HintStoreMsg msg) {
  PutAckMsg ack;
  ack.req = msg.req;
  Status available = server_->CheckAvailable();
  if (!available.ok()) {
    ack.ok = false;
    ack.error = available.ToString();
  } else {
    // Store the hint (Fig. 8: "creates an index for the replication") and
    // keep a durable local copy so reads during the outage can be repaired.
    hints_.Add(msg.target, msg.record, transport_->NowMicros());
    auto applied = store_->Apply(msg.record);
    ack.ok = applied.ok();
    if (!applied.ok()) ack.error = applied.status().ToString();
    ++stats_.handoff_writes;
  }
  SendToNode(from, kMsgPutAck, EncodePutAck(ack));
}

void StorageNode::HandleHandoffDeliver(const std::string& from,
                                       std::uint64_t hint_id,
                                       bson::Document record) {
  HandoffAckMsg ack;
  ack.hint_id = hint_id;
  Status available = server_->CheckAvailable();
  if (available.ok()) {
    auto applied = store_->Apply(record);
    ack.ok = applied.ok();
  } else {
    ack.ok = false;
  }
  SendToNode(from, kMsgHandoffAck, EncodeHandoffAck(ack));
}

// --- coordinator: Put -------------------------------------------------------

void StorageNode::CoordinatePut(const std::string& key, bson::Binary value,
                                PutCallback cb) {
  bson::Document record = core::MakeRecord(
      server_->db()->id_generator()->Next(), key, std::move(value),
      /*is_copy=*/false, /*deleted=*/false,
      transport_->NowMicros() + clock_skew_, id_);
  StartPut(std::move(record), std::move(cb));
}

void StorageNode::CoordinateDelete(const std::string& key, PutCallback cb) {
  bson::Document tombstone = core::MakeTombstone(
      server_->db()->id_generator()->Next(), key,
      transport_->NowMicros() + clock_skew_, id_);
  StartPut(std::move(tombstone), std::move(cb));
}

void StorageNode::StartPut(bson::Document record, PutCallback cb) {
  ++stats_.puts_coordinated;
  // Table 2's probabilities are per operation on the test system: each
  // client operation may trip one failure at a random node.
  if (injector_ != nullptr) injector_->MaybeInjectAnywhere();
  const std::string key = core::RecordSelfKey(record);
  heat_.Record(key, transport_->NowMicros());
  std::vector<std::string> targets = PreferenceNodes(key);
  if (targets.empty()) {
    ++stats_.puts_failed;
    cb(Status::Unavailable("ring is empty"));
    return;
  }
  const std::uint64_t req = next_req_++;
  PendingPut& put = pending_puts_[req];
  put.key = key;
  put.primary = targets.front();
  put.record = std::move(record);
  put.cb = std::move(cb);
  put.started_at = transport_->NowMicros();
  put.needed = std::min<int>(config_.write_quorum, static_cast<int>(targets.size()));
  put.pref_targets = targets;
  for (const std::string& target : targets) {
    put.responded.emplace(target, false);
    put.used.insert(target);
  }
  put.timeout_event = transport_->ScheduleTimer(
      config_.put_timeout, [this, req]() { OnPutTimeout(req); });
  put.cleanup_event = transport_->ScheduleTimer(
      4 * config_.put_timeout, [this, req]() { OnPutCleanup(req); });
  MarkKeyDirty(key);

  // The primary stores the original record (isData=1) and the other N-1
  // preference nodes store copies; all replications run concurrently.
  // Targets the heartbeat detector already classified as dead skip the
  // doomed attempt: the write goes straight to a temporary node with a
  // hint ("another temporary node C that is detected and found by
  // heartbeat mechanism" — Fig. 8).
  std::vector<std::string> live;
  std::vector<std::string> known_dead;
  for (const std::string& target : targets) {
    (detector_->StatusOf(target) == gossip::Liveness::kDead ? known_dead : live)
        .push_back(target);
  }
  SendPutReplicas(req, put, live);
  if (!known_dead.empty()) {
    for (const std::string& target : known_dead) {
      put.responded[target] = true;
      TryHandoff(req, &put, target);
    }
    // With handoff disabled every known-dead target counts as answered, so
    // an unreachable quorum can already be decided here (fast fail).
    MaybeFinishPut(req, &put);
  }
}

void StorageNode::SendPutReplicas(std::uint64_t req, const PendingPut& put,
                                  const std::vector<std::string>& targets) {
  // Every non-primary target receives the identical replica-copy message,
  // so it is encoded at most once (lazily: a primary-only fan-out skips it)
  // and each send shares the encoded payload instead of re-running
  // EncodePutReplica per holder.
  std::optional<bson::Document> copy_body;
  for (const std::string& target : targets) {
    auto covered = put.stands_in_for.find(target);
    if (covered != put.stands_in_for.end()) {
      // A handoff substitute keeps the write as a hint for the holder it
      // covers; a plain copy would leave it an untracked foreign replica.
      HintStoreMsg hint;
      hint.req = req;
      hint.target = covered->second;
      hint.record = core::AsReplicaCopy(put.record);
      SendToNode(target, kMsgHintStore, EncodeHintStore(hint));
      continue;
    }
    PutReplicaMsg msg;
    msg.req = req;
    if (target == put.primary) {
      // The primary stores the original (isData=1); a copy here would
      // silently demote the record on a retried primary.
      msg.record = put.record;
      SendToNode(target, kMsgPutReplica, EncodePutReplica(msg));
      continue;
    }
    if (!copy_body.has_value()) {
      msg.record = core::AsReplicaCopy(put.record);
      copy_body = EncodePutReplica(msg);
    }
    SendToNode(target, kMsgPutReplica, *copy_body);
  }
}

void StorageNode::HandlePutAck(const std::string& from, PutAckMsg ack) {
  auto it = pending_puts_.find(ack.req);
  if (it == pending_puts_.end()) return;  // late or fire-and-forget ack
  PendingPut& put = it->second;
  auto responded_it = put.responded.find(from);
  if (responded_it != put.responded.end()) {
    if (responded_it->second) return;  // duplicate
    responded_it->second = true;
  }
  if (ack.ok) {
    // Latency attribution only from successful replies: a nack's
    // queue/service numbers describe a replica that did *not* serve the
    // write, and tracing them would blame the wrong node.
    put.last_queue = ack.queue_micros;
    put.last_service = ack.service_micros;
    put.last_replica = from;
    if (from == put.primary) put.primary_ok = true;
    if (std::find(put.pref_targets.begin(), put.pref_targets.end(), from) !=
        put.pref_targets.end()) {
      put.ok_acks.insert(from);
    }
    ++put.acks;
  } else {
    // Abnormal event: "the system must find other storage node, and try to
    // write several times to guarantee the success of writing."
    TryHandoff(ack.req, &put, from);
  }
  MaybeFinishPut(ack.req, &put);
}

void StorageNode::TryHandoff(std::uint64_t req, PendingPut* put,
                             const std::string& failed) {
  if (!config_.hinted_handoff) return;
  // When a substitute itself fails, its replacement still covers the
  // preference holder the write was meant for, not the substitute.
  auto covered = put->stands_in_for.find(failed);
  const std::string holder =
      covered == put->stands_in_for.end() ? failed : covered->second;
  const std::size_t want =
      config_.replication_factor + kHandoffCandidateSlack + put->used.size();
  std::vector<std::string> candidates = ring_.PreferenceList(put->key, want);
  for (const std::string& candidate : candidates) {
    if (put->used.count(candidate) > 0) continue;
    put->used.insert(candidate);
    put->responded.emplace(candidate, false);
    put->stands_in_for.emplace(candidate, holder);
    SendPutReplicas(req, *put, {candidate});
    return;
  }
}

void StorageNode::MaybeFinishPut(std::uint64_t req, PendingPut* put) {
  // With single-replica read plans in strict mode the write is
  // primary-anchored: W acks alone are not enough, the primary must be
  // among them. That keeps the read set {primary} inside every completed
  // write set.
  if (!put->done && put->acks >= put->needed &&
      (!RequirePrimaryAck() || put->primary_ok)) {
    put->done = true;
    ++stats_.puts_succeeded;
    RecordPutOutcome(*put, req, /*ok=*/true);
    put->cb(Status::OK());
  }
  for (const auto& [target, answered] : put->responded) {
    if (!answered) return;
  }
  // Everyone answered (handoff substitutes included). If the quorum is
  // still short, no outstanding ack can ever close the gap — fail fast
  // instead of parking the client until the 4x cleanup timer.
  RetirePut(req, put);
}

void StorageNode::RetirePut(std::uint64_t req, PendingPut* put) {
  if (!put->done) {
    put->done = true;
    ++stats_.puts_failed;
    RecordPutOutcome(*put, req, /*ok=*/false);
    put->cb(Status::QuorumFailed("write quorum not reached for key " + put->key));
  }
  transport_->CancelTimer(put->timeout_event);
  transport_->CancelTimer(put->cleanup_event);
  RetireDirtyKey(put->key,
                 /*settled_all_n=*/put->ok_acks.size() == put->pref_targets.size());
  pending_puts_.erase(req);
}

void StorageNode::OnPutTimeout(std::uint64_t req) {
  auto it = pending_puts_.find(req);
  if (it == pending_puts_.end()) return;
  PendingPut& put = it->second;
  std::vector<std::string> silent;
  for (const auto& [target, answered] : put.responded) {
    if (!answered) silent.push_back(target);
  }
  ++put.timeout_wave;
  if (put.timeout_wave == 1) {
    // First wave: "try to write several times to guarantee the success of
    // writing" — resend to the silent replicas (the outage may have been a
    // dropped message or a short failure that already healed)...
    SendPutReplicas(req, put, silent);
    put.timeout_event = transport_->ScheduleTimer(
        config_.put_timeout / 2, [this, req]() { OnPutTimeout(req); });
    return;
  }
  // ...then give up on still-silent replicas and redirect each write to a
  // temporary node — even when the quorum already succeeded, so the
  // intended replica's data survives the outage (Fig. 8). A further wave
  // covers substitutes that were themselves unreachable.
  for (const std::string& target : silent) {
    put.responded[target] = true;
    TryHandoff(req, &put, target);
  }
  // Giving up on the silent replicas may have settled the outcome (all
  // responded, quorum unreachable): decide now rather than waiting for the
  // cleanup timer. MaybeFinishPut can erase the entry, so re-find it.
  MaybeFinishPut(req, &put);
  auto still = pending_puts_.find(req);
  if (still != pending_puts_.end() && still->second.timeout_wave < 4 &&
      !still->second.done) {
    still->second.timeout_event = transport_->ScheduleTimer(
        config_.put_timeout / 2, [this, req]() { OnPutTimeout(req); });
  }
}

void StorageNode::OnPutCleanup(std::uint64_t req) {
  auto it = pending_puts_.find(req);
  if (it == pending_puts_.end()) return;
  RetirePut(req, &it->second);
}

// --- coordinator: Get -------------------------------------------------------

void StorageNode::CoordinateGet(const std::string& key, GetCallback cb) {
  ++stats_.gets_coordinated;
  if (injector_ != nullptr) injector_->MaybeInjectAnywhere();
  const Micros started_at = transport_->NowMicros();
  heat_.Record(key, started_at);
  std::optional<ReadPlan> plan;
  if (config_.read_path != ReadPath::kQuorum) {
    // A single-replica plan is safe only for a key with no write in
    // flight (and nothing recently unsettled) whose primary is alive:
    // primary-anchored writes guarantee the primary saw every completed
    // write, so the one-replica read still intersects every write quorum.
    // Anchoring only holds in strict mode (hinted handoff off): with
    // substitutes taking writes for absent holders, a completed write may
    // bypass the primary entirely, so these plans must stand down.
    std::vector<std::string> prefs;
    if (RequirePrimaryAck() && KeyIsClean(key)) {
      prefs = PreferenceNodes(key);
    }
    if (!prefs.empty() &&
        detector_->StatusOf(prefs.front()) == gossip::Liveness::kAlive) {
      plan = PrimaryPlan(prefs.front());
      // A key the heat sketch flags hot rotates its payload read across
      // the holders instead of always charging the primary. Ticket 0 (and
      // any turn landing on a suspect replica) keeps the primary plan.
      if (config_.read_path == ReadPath::kHotRotation && prefs.size() >= 2 &&
          heat_.IsHot(key, started_at)) {
        const std::size_t pick = heat_.NextRotation(key) % prefs.size();
        if (pick != 0 &&
            detector_->StatusOf(prefs[pick]) == gossip::Liveness::kAlive) {
          ++stats_.hot_gets_fanned;
          plan = HotPlan(prefs[pick], prefs.front());
        }
      }
    } else {
      ++stats_.fast_read_fallbacks;
    }
  }
  IssueGet(key, std::move(cb), started_at,
           plan.has_value() ? std::move(*plan) : QuorumPlan(key));
}

StorageNode::ReadPlan StorageNode::QuorumPlan(const std::string& key) const {
  ReadPlan plan;
  plan.targets = PreferenceNodes(key);
  // Skip replicas the detector knows are dead (they cannot answer and would
  // stall the all-replied miss path) — but never below the read quorum: the
  // detector can be wrong during asymmetric partitions, and shrinking the
  // contact list under R would let the read complete without the R
  // confirmations the R+W>N intersection is built on. When fewer than R
  // targets look alive, contact the full preference list and let the
  // timeout decide.
  std::vector<std::string> alive;
  alive.reserve(plan.targets.size());
  for (const std::string& target : plan.targets) {
    if (detector_->StatusOf(target) != gossip::Liveness::kDead) {
      alive.push_back(target);
    }
  }
  if (static_cast<int>(alive.size()) >= config_.read_quorum) {
    plan.targets = std::move(alive);
  }
  // Never degrade below R, even when the ring currently offers fewer
  // preference nodes: a read that cannot gather R confirmations must fail
  // rather than silently weaken the quorum.
  plan.needed = config_.read_quorum;
  plan.timeout = config_.get_timeout;
  return plan;
}

StorageNode::ReadPlan StorageNode::PrimaryPlan(
    const std::string& primary) const {
  // R = 1 is safe here because write quorums are primary-anchored. The
  // attempt keeps half the budget so a demoted read can still finish a full
  // quorum round inside the caller's patience window.
  ReadPlan plan;
  plan.targets = {primary};
  plan.needed = 1;
  plan.timeout = config_.get_timeout / 2;
  plan.demote_on_failure = true;
  return plan;
}

StorageNode::ReadPlan StorageNode::HotPlan(const std::string& replica,
                                           const std::string& primary) const {
  // The payload comes from `replica`, but it is only served when its
  // (_ts, _origin) equals what the primary reports via the digest probe —
  // so the answer is the primary's version, indistinguishable from a
  // primary plan, and the primary-anchored intersection carries over.
  ReadPlan plan = PrimaryPlan(replica);
  plan.verify_at = primary;
  return plan;
}

void StorageNode::IssueGet(const std::string& key, GetCallback cb,
                           Micros started_at, ReadPlan plan) {
  if (plan.targets.empty()) {
    ++stats_.gets_failed;
    cb(Status::Unavailable("ring is empty"));
    return;
  }
  const std::uint64_t req = next_req_++;
  PendingGet& get = pending_gets_[req];
  get.key = key;
  get.cb = std::move(cb);
  get.started_at = started_at;
  get.plan = std::move(plan);
  get.timeout_event = transport_->ScheduleTimer(
      get.plan.timeout, [this, req]() { OnGetTimeout(req); });

  GetReplicaMsg msg;
  msg.req = req;
  msg.key = key;
  const bson::Document body = EncodeGetReplica(msg);
  for (const std::string& target : get.plan.targets) {
    SendToNode(target, kMsgGetReplica, body);
  }
  if (!get.plan.verify_at.empty()) {
    msg.digest_only = true;
    SendToNode(get.plan.verify_at, kMsgGetReplica, EncodeGetReplica(msg));
  }
}

StorageNode::ReplyTally StorageNode::TallyReplies(
    const std::map<std::string, GetReply>& replies) {
  ReplyTally tally;
  for (const auto& [from, reply] : replies) {
    if (!reply.ok || reply.digest) continue;
    ++tally.successes;
    if (reply.found && (tally.winner == nullptr ||
                        core::SupersedesLww(reply.record, *tally.winner))) {
      tally.winner = &reply.record;
    }
  }
  return tally;
}

void StorageNode::DecideGet(std::uint64_t req, PendingGet* get, bool deadline) {
  const ReadPlan& plan = get->plan;
  const ReplyTally tally = TallyReplies(get->replies);
  if (plan.demote_on_failure && !get->done) {
    // A demotable plan never concludes anything but a verified hit. A
    // one-replica miss is not authoritative (the replica may still be
    // catching up from a crash), an error says nothing either way, and a
    // timeout leaves the other half of the budget for a quorum round.
    const bool refused =
        std::any_of(get->replies.begin(), get->replies.end(),
                    [](const auto& entry) {
                      return !entry.second.ok || !entry.second.found;
                    });
    if (deadline || refused) {
      DemoteGet(req, get);
      return;
    }
    if (tally.successes < plan.needed) return;  // payload still in flight
    if (!plan.verify_at.empty()) {
      auto digest = get->replies.find(plan.verify_at);
      if (digest == get->replies.end()) return;  // probe still in flight
      if (core::RecordTimestamp(*tally.winner) != digest->second.digest_ts ||
          core::RecordOrigin(*tally.winner) != digest->second.digest_origin) {
        // The replica lags (or leads) the primary — e.g. a read repair or
        // anti-entropy push still in flight. Serving its copy could return
        // a version the primary-anchored write quorum never confirmed.
        DemoteGet(req, get);
        return;
      }
    }
    ConcludeGet(req, get, *tally.winner);
    FinalizeGet(req, get);
    return;
  }
  const bool all_answered = get->replies.size() == plan.targets.size();
  if (!get->done) {
    if (tally.winner != nullptr && tally.successes >= plan.needed) {
      ConcludeGet(req, get, *tally.winner);
    } else if (all_answered || deadline) {
      // "The Get operation gets all replications of the specified key": a
      // miss is only authoritative once every replica has answered (or the
      // deadline passed). Either way the answer needs R successful reads —
      // a value or a miss confirmed by fewer replicas than the read quorum
      // must not be served as authoritative, least of all during the
      // partitions and slow links where a timeout fires.
      ConcludeGet(req, get,
                  tally.successes >= plan.needed
                      ? Status::NotFound("no replica has key " + get->key)
                  : deadline
                      ? Status::Timeout("read quorum not reached for key " +
                                        get->key)
                      : Status::Unavailable("read quorum unreachable for " +
                                            get->key));
    }
  }
  if (all_answered || deadline) FinalizeGet(req, get);
}

void StorageNode::ConcludeGet(std::uint64_t req, PendingGet* get,
                              Result<bson::Document> result) {
  get->done = true;
  if (result.ok()) {
    ++stats_.gets_succeeded;
    if (get->plan.demote_on_failure) ++stats_.fast_read_hits;
    if (!get->plan.verify_at.empty()) ++stats_.hot_read_hits;
  } else {
    ++stats_.gets_failed;
  }
  RecordGetOutcome(*get, req, result.ok());
  get->cb(result);
}

void StorageNode::DemoteGet(std::uint64_t req, PendingGet* get) {
  ++stats_.fast_read_demotions;
  if (!get->plan.verify_at.empty()) ++stats_.hot_read_demotions;
  transport_->CancelTimer(get->timeout_event);
  const std::string key = get->key;
  GetCallback cb = std::move(get->cb);
  const Micros started_at = get->started_at;
  pending_gets_.erase(req);
  IssueGet(key, std::move(cb), started_at, QuorumPlan(key));
}

void StorageNode::HandleCorruptGetAck(const std::string& from) {
  // An undecodable ack carries no request id, but it still came from a
  // node some read is waiting on. Treat it as a failed reply for every
  // pending read that is missing an answer from the sender, so the
  // all-responded miss path can conclude early instead of stalling until
  // get_timeout. A spurious match (two reads waiting on the same node)
  // only costs a fallback, never a wrong answer: failed replies can't
  // satisfy R.
  std::vector<std::uint64_t> affected;
  for (const auto& [req, get] : pending_gets_) {
    if (get.replies.count(from) > 0) continue;
    if (from == get.plan.verify_at ||
        std::find(get.plan.targets.begin(), get.plan.targets.end(), from) !=
            get.plan.targets.end()) {
      affected.push_back(req);
    }
  }
  for (std::uint64_t req : affected) {
    auto it = pending_gets_.find(req);
    if (it == pending_gets_.end()) continue;  // concluded by a prior turn
    it->second.replies.emplace(from, GetReply{});  // ok = false
    DecideGet(req, &it->second, /*deadline=*/false);
  }
}

void StorageNode::HandleGetAck(const std::string& from, GetAckMsg ack) {
  auto it = pending_gets_.find(ack.req);
  if (it == pending_gets_.end()) return;
  PendingGet& get = it->second;
  if (get.replies.count(from) > 0) return;  // duplicate
  if (ack.ok && !ack.digest) {
    // Attribution must come from a reply that can actually explain the
    // outcome's latency: recording queue/service numbers from failed
    // replies too would let the trace blame a replica that only ever
    // returned an error. Digest probes carry no payload service either.
    get.last_queue = ack.queue_micros;
    get.last_service = ack.service_micros;
    get.last_replica = from;
  }
  GetReply reply;
  reply.ok = ack.ok;
  reply.found = ack.found;
  reply.record = std::move(ack.record);
  reply.digest = ack.digest;
  reply.digest_ts = ack.digest_ts;
  reply.digest_origin = std::move(ack.digest_origin);
  get.replies.emplace(from, std::move(reply));
  DecideGet(ack.req, &get, /*deadline=*/false);
}

void StorageNode::FinalizeGet(std::uint64_t req, PendingGet* get) {
  // Read repair (§5.2.2): "the Get operation gets all replications of the
  // specified key, and checks the number of replication. If replications
  // are less than N ... some more replications are supplemented."
  // A demotable plan contacted a single payload replica, so there is no
  // second reply to compare against — repair stays a quorum-plan concern
  // (dirty keys and demoted reads keep taking that plan, so divergent keys
  // still heal).
  const bson::Document* winner =
      config_.read_repair && !get->plan.demote_on_failure
          ? TallyReplies(get->replies).winner
          : nullptr;
  if (winner != nullptr) {
    for (const std::string& target : get->plan.targets) {
      auto reply_it = get->replies.find(target);
      const bool needs_repair =
          reply_it == get->replies.end() || !reply_it->second.ok ||
          !reply_it->second.found ||
          core::SupersedesLww(*winner, reply_it->second.record);
      if (!needs_repair) continue;
      if (detector_->StatusOf(target) == gossip::Liveness::kDead) {
        // A dead node cannot take the repair; the message would sit in
        // the transport's bounded outbound queue until dropped. Park it
        // as a hint instead (when handoff is on) so the write-back timer
        // delivers it once the node returns.
        ++stats_.read_repairs_skipped_dead;
        if (config_.hinted_handoff) {
          hints_.Add(target, core::AsReplicaCopy(*winner),
                        transport_->NowMicros());
        }
        continue;
      }
      PutReplicaMsg repair;
      repair.req = 0;  // fire-and-forget
      repair.record = core::AsReplicaCopy(*winner);
      SendToNode(target, kMsgPutReplica, EncodePutReplica(repair));
      ++stats_.read_repairs;
    }
  }
  transport_->CancelTimer(get->timeout_event);
  pending_gets_.erase(req);
}

void StorageNode::OnGetTimeout(std::uint64_t req) {
  auto it = pending_gets_.find(req);
  if (it == pending_gets_.end()) return;
  DecideGet(req, &it->second, /*deadline=*/true);
}

// --- dirty-set bookkeeping (fast consistent reads) --------------------------

void StorageNode::MarkKeyDirty(const std::string& key) {
  if (config_.read_path == ReadPath::kQuorum) return;
  DirtyEntry& entry = dirty_keys_[key];
  ++entry.inflight;
  entry.last_write = transport_->NowMicros();
  // Amortized sweep: retire entries whose quiescence window lapsed so the
  // map tracks the recently-written working set, not every key ever
  // written through this coordinator.
  if (dirty_sweep_countdown_ == 0) {
    dirty_sweep_countdown_ = 256;
    const Micros now = transport_->NowMicros();
    for (auto it = dirty_keys_.begin(); it != dirty_keys_.end();) {
      const DirtyEntry& aged = it->second;
      if (aged.inflight == 0 &&
          now - aged.last_write >= kFastReadQuiescence) {
        it = dirty_keys_.erase(it);
      } else {
        ++it;
      }
    }
  }
  --dirty_sweep_countdown_;
}

void StorageNode::RetireDirtyKey(const std::string& key, bool settled_all_n) {
  auto it = dirty_keys_.find(key);
  if (it == dirty_keys_.end()) return;
  DirtyEntry& entry = it->second;
  entry.inflight = std::max(0, entry.inflight - 1);
  entry.last_write = transport_->NowMicros();
  // Last decided write wins the verdict: a write that settled on all N
  // holders left every replica with its (newer by LWW) value, so whatever
  // an earlier write missed no longer matters for freshness.
  entry.unsettled = !settled_all_n;
  if (entry.inflight == 0 && !entry.unsettled) dirty_keys_.erase(it);
}

bool StorageNode::KeyIsClean(const std::string& key) {
  auto it = dirty_keys_.find(key);
  if (it == dirty_keys_.end()) return true;
  const DirtyEntry& entry = it->second;
  if (entry.inflight > 0) return false;
  if (transport_->NowMicros() - entry.last_write <
      kFastReadQuiescence) {
    return false;
  }
  // Aged out: the quiescence window lapsed with nothing in flight, giving
  // read repair and anti-entropy time to settle whatever the write missed.
  dirty_keys_.erase(it);
  return true;
}

// --- observability ----------------------------------------------------------

void StorageNode::RecordPutOutcome(const PendingPut& put, std::uint64_t req,
                                   bool ok) {
  const Micros total = transport_->NowMicros() - put.started_at;
  put_latency_hist_.Record(total);
  metrics::TraceRecord trace;
  trace.req = req;
  trace.op = metrics::TraceOp::kPut;
  trace.key = put.key;
  trace.coordinator = id_;
  trace.replica = put.last_replica;
  trace.started_at = put.started_at;
  trace.finished_at = transport_->NowMicros();
  trace.queue_micros = put.last_queue;
  trace.service_micros = put.last_service;
  trace.network_micros =
      std::max<Micros>(0, total - put.last_queue - put.last_service);
  trace.ok = ok;
  traces_.Add(std::move(trace));
}

void StorageNode::RecordGetOutcome(const PendingGet& get, std::uint64_t req,
                                   bool ok) {
  const Micros total = transport_->NowMicros() - get.started_at;
  get_latency_hist_.Record(total);
  // Demoted reads record on the quorum histogram under their *original*
  // start time: the fast detour they took is part of the latency the
  // caller observed, not a separate measurement.
  (get.plan.demote_on_failure ? fast_get_latency_hist_
                               : quorum_get_latency_hist_)
      .Record(total);
  metrics::TraceRecord trace;
  trace.req = req;
  trace.op = metrics::TraceOp::kGet;
  trace.key = get.key;
  trace.coordinator = id_;
  trace.replica = get.last_replica;
  trace.started_at = get.started_at;
  trace.finished_at = transport_->NowMicros();
  trace.queue_micros = get.last_queue;
  trace.service_micros = get.last_service;
  trace.network_micros =
      std::max<Micros>(0, total - get.last_queue - get.last_service);
  trace.ok = ok;
  traces_.Add(std::move(trace));
}

// --- hinted handoff write-back ----------------------------------------------

void StorageNode::StartHintTimer() {
  hint_timer_ = transport_->ScheduleTimer(
      kHintRetryInterval, [this]() {
        if (!running_) return;
        DeliverHints();
        StartHintTimer();
      });
}

void StorageNode::DeliverHints() {
  for (const std::string& target : hints_.Targets()) {
    // "It detects the node B periodically by heartbeat service. When it
    // finds that the B node is on-line again, ... write the data back."
    if (detector_->StatusOf(target) != gossip::Liveness::kAlive) continue;
    if (!ring_.HasNode(target)) {
      // The target was permanently removed; drop its hints (the data was
      // re-replicated by long-failure repair).
      for (const Hint& hint : hints_.ForTarget(target)) {
        hints_.Remove(hint.id);
      }
      continue;
    }
    for (const Hint& hint : hints_.ForTarget(target)) {
      SendToNode(target, kMsgHandoffDeliver,
                 EncodeHandoffDeliver(hint.id, hint.record));
    }
  }
}

void StorageNode::HandleHandoffAck(HandoffAckMsg ack) {
  if (!ack.ok) return;
  const Hint* hint = hints_.Find(ack.hint_id);
  if (hint == nullptr) return;  // already acked by an earlier retry
  const std::string key = core::RecordSelfKey(hint->record);
  hints_.Remove(ack.hint_id);
  ++stats_.hints_delivered;
  // The write-back is done: drop the temporary local copy unless this node
  // is a preference member for the key (then the copy is a real replica)
  // or other hints still reference it. Without this purge the substitute
  // keeps an unowned replica forever — anti-entropy only reconciles
  // preference members, so that orphan goes stale on the next write and
  // the replica set never converges back to byte-identical.
  if (hints_.HasHintForKey(key)) return;
  std::vector<std::string> prefs = PreferenceNodes(key);
  if (std::find(prefs.begin(), prefs.end(), id_) == prefs.end()) {
    Status purged = store_->Purge(key);
    (void)purged;
  }
}

// --- membership and long-failure repair --------------------------------------

void StorageNode::OnDetectorTransition(const std::string& endpoint,
                                       gossip::Liveness /*from*/,
                                       gossip::Liveness to) {
  if (to == gossip::Liveness::kDead && spec_.is_seed) {
    // "The seed nodes are responsible for detecting 'long failure' nodes."
    HOTMAN_LOG(kInfo) << id_ << ": seed detected long failure of " << endpoint;  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
    AnnounceRemoval(endpoint);
  }
}

void StorageNode::AnnounceRemoval(const std::string& node) {
  MembershipMsg notice;
  notice.node = node;
  const bson::Document body = EncodeMembership(notice);
  for (const std::string& member : ring_.Nodes()) {
    if (member == id_ || member == node) continue;
    SendToNode(member, kMsgNodeRemoved, body);
  }
  OnNodeRemoved(node);
}

void StorageNode::OnNodeRemoved(const std::string& node) {
  if (!ring_.HasNode(node)) return;  // already applied
  if (node == id_) {
    // Our own graceful departure coming back around: the decommission path
    // already streamed everything out, so just drop ourselves from the
    // local view — no repair against our own removal.
    Status s = ring_.RemoveNode(node);
    (void)s;
    return;
  }
  const hashring::Ring before = ring_;
  Status s = ring_.RemoveNode(node);
  (void)s;
  removed_nodes_.insert(node);
  // Fig. 9: "node removing will cause the number of the replications of
  // data decreasing. So some new replicas should be created and distributed
  // to other nodes." With the rebalancer on, only the designated source per
  // arc streams (throttled, resumable) instead of every holder re-pushing.
  if (config_.rebalance.enabled) {
    StartPlannedTransfers(before);
  } else {
    ReplicateLocalData(/*purge_unowned=*/false);
  }
}

void StorageNode::OnNodeAdded(const std::string& node, int vnodes) {
  if (node == id_ || ring_.HasNode(node)) return;
  removed_nodes_.erase(node);
  const hashring::Ring before = ring_;
  Status s = ring_.AddNode(node, vnodes);
  if (!s.ok()) return;
  gossiper_->AddPeer(node);
  // "The mapping and migrating operation are executed by the next physical
  // node on the ring": stream the arcs the newcomer now owns to it and drop
  // what this node no longer holds a preference slot for.
  if (config_.rebalance.enabled) {
    StartPlannedTransfers(before);
  } else {
    ReplicateLocalData(/*purge_unowned=*/true);
  }
}

void StorageNode::AnnounceAddition(const std::string& node, int vnodes) {
  MembershipMsg notice;
  notice.node = node;
  notice.vnodes = vnodes;
  const bson::Document body = EncodeMembership(notice);
  for (const std::string& member : ring_.Nodes()) {
    if (member == id_ || member == node) continue;
    SendToNode(member, kMsgNodeAdded, body);
  }
  OnNodeAdded(node, vnodes);
}

std::vector<bson::Document> StorageNode::LocalRecords() {
  auto records = store_->AllRecords();
  if (!records.ok()) return {};
  return std::move(*records);
}

void StorageNode::ReplicateLocalData(bool purge_unowned) {
  for (const bson::Document& record : LocalRecords()) {
    const std::string key = core::RecordSelfKey(record);
    std::vector<std::string> prefs = ring_.PreferenceList(
        key, config_.replication_factor);
    bool self_owns = false;
    for (const std::string& target : prefs) {
      if (target == id_) {
        self_owns = true;
        continue;
      }
      PutReplicaMsg msg;
      msg.req = 0;  // fire-and-forget; LWW makes it idempotent
      msg.record = core::AsReplicaCopy(record);
      SendToNode(target, kMsgPutReplica, EncodePutReplica(msg));
      ++stats_.rereplications;
    }
    if (purge_unowned && !self_owns && !config_.chaos_skip_ownership_purge) {
      Status s = store_->Purge(key);
      (void)s;
    }
  }
}

// --- elastic membership (src/rebalance/) -------------------------------------

void StorageNode::SetupRebalancer() {
  rebalance::RebalancerEnv env;
  env.self = id_;
  env.send_msg = [this](const hashring::NodeId& to, const std::string& type,
                    bson::Document body) {
    SendToNode(to, type, std::move(body));
  };
  env.snapshot = [this] { return LocalRecords(); };
  env.lookup = [this](const std::string& key) {
    return store_->GetByKey(key);
  };
  // Target-side apply: route the pushed record through the service station
  // exactly like foreground replica traffic (that contention is what the
  // throttle bounds).
  env.apply = [this](const bson::Document& record,
                     std::function<void(bool ok)> done) {
    const std::size_t bytes = bson::EncodedSize(record);
    const bool admitted =
        SubmitWork(bytes, [this, record, done](Micros, Micros) {
          if (!running_ || !server_->CheckAvailable().ok()) {
            done(false);
            return;
          }
          auto applied = store_->Apply(record);
          if (applied.ok()) ++stats_.replica_puts_applied;
          done(applied.ok());
        });
    if (!admitted) done(false);
  };
  env.available = [this] { return running_ && server_->CheckAvailable().ok(); };
  env.peer_known = [this](const hashring::NodeId& peer) {
    return ring_.HasNode(peer);
  };
  env.executor = transport_;
  rebalancer_ =
      std::make_unique<rebalance::Rebalancer>(config_.rebalance, std::move(env));
}

void StorageNode::StartPlannedTransfers(const hashring::Ring& before) {
  std::vector<hashring::ReplicaMigrationStep> steps =
      hashring::PlanReplicaMigration(
          before, ring_, static_cast<std::size_t>(config_.replication_factor));
  bool self_sources = false;
  for (const hashring::ReplicaMigrationStep& step : steps) {
    if (step.source == id_) {
      self_sources = true;
      break;
    }
  }
  if (self_sources) {
    // Sweep again once our own streams land: keys deferred by SourcingKey
    // (arcs this node both loses and sources, e.g. N=1 or a self-reweight)
    // become purgeable exactly then.
    rebalancer_->StartTransfers(steps, [this] {
      if (running_) RunOwnershipSweep(/*push_before_purge=*/false);
    });
  }
  // Ownership can shift away even when this node streams nothing (another
  // holder sources the displaced arc); sweep after the transfers have had a
  // chance to land. Purge-only is safe: on any membership change at N >= 2
  // the other N-1 before-holders keep their preference slots.
  ScheduleOwnershipSweep(/*push_before_purge=*/false,
                         2 * config_.rebalance.retry_interval);
}

void StorageNode::StartDecommission(std::function<void(const Status&)> done) {
  if (!running_) {
    done(Status::Unavailable("node not running: " + id_));
    return;
  }
  if (decommissioning_) {
    done(Status::InvalidArgument("decommission already in progress: " + id_));
    return;
  }
  if (ring_.NumPhysicalNodes() < 2) {
    done(Status::InvalidArgument(
        "cannot decommission the last ring member: " + id_));
    return;
  }
  decommissioning_ = true;
  // Peers that gossip with us meanwhile see LEAVING; the authoritative exit
  // is the node_removed broadcast below.
  gossiper_->SetLocalState(gossip::kStateStatus, "LEAVING");
  HOTMAN_LOG(kInfo) << id_ << ": decommission started, streaming data out";  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
  std::vector<hashring::ReplicaMigrationStep> steps = hashring::PlanDecommission(
      ring_, id_, static_cast<std::size_t>(config_.replication_factor));
  auto finish = [this, done = std::move(done)] {
    if (!running_) {
      // Crashed (or was stopped) mid-decommission: departure becomes abrupt
      // crash semantics; survivors repair via long-failure handling.
      decommissioning_ = false;
      done(Status::Unavailable("node stopped mid-decommission: " + id_));
      return;
    }
    HOTMAN_LOG(kInfo) << id_ << ": decommission streams complete, leaving ring";  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
    decommissioned_ = true;
    AnnounceRemoval(id_);
    Stop();
    done(Status::OK());
  };
  // PlanDecommission sources every lost arc here (survivors re-plan the
  // same diff on the announce; the overlap is idempotent under LWW).
  rebalancer_->StartTransfers(steps, std::move(finish));
}

void StorageNode::RunOwnershipSweep(bool push_before_purge) {
  if (!running_) return;
  for (const bson::Document& record : LocalRecords()) {
    const std::string key = core::RecordSelfKey(record);
    std::vector<std::string> prefs =
        ring_.PreferenceList(key, config_.replication_factor);
    if (std::find(prefs.begin(), prefs.end(), id_) != prefs.end()) continue;
    if (rebalancer_->SourcingKey(key)) continue;  // purge at stream completion
    if (push_before_purge) {
      // Rejoin path: this node may be the sole holder of a pre-crash write,
      // so hand the record to its preference holders before dropping it.
      for (const std::string& target : prefs) {
        PutReplicaMsg msg;
        msg.req = 0;  // fire-and-forget; LWW makes it idempotent
        msg.record = core::AsReplicaCopy(record);
        SendToNode(target, kMsgPutReplica, EncodePutReplica(msg));
        ++stats_.rereplications;
      }
    }
    if (config_.chaos_skip_ownership_purge) continue;
    Status s = store_->Purge(key);
    (void)s;
    ++stats_.rebalance_purges;
  }
}

void StorageNode::ScheduleOwnershipSweep(bool push_before_purge, Micros delay) {
  sweep_push_pending_ = sweep_push_pending_ || push_before_purge;
  if (sweep_timer_ != 0) return;  // coalesced; the pending sweep reads the flag
  sweep_timer_ = transport_->ScheduleTimer(delay, [this] {
    sweep_timer_ = 0;
    const bool push = sweep_push_pending_;
    sweep_push_pending_ = false;
    if (running_) RunOwnershipSweep(push);
  });
}

void StorageNode::ApplyReweight(const std::string& node, int vnodes) {
  if (vnodes < 1 || !ring_.HasNode(node)) return;
  if (ring_.VnodeCount(node) == vnodes) return;
  const hashring::Ring before = ring_;
  Status removed = ring_.RemoveNode(node);
  (void)removed;
  Status added = ring_.AddNode(node, vnodes);
  (void)added;
  if (config_.rebalance.enabled) {
    StartPlannedTransfers(before);
  } else {
    ReplicateLocalData(/*purge_unowned=*/true);
  }
}

void StorageNode::StartAutonomicTimer() {
  autonomic_timer_ = transport_->ScheduleTimer(
      config_.rebalance.autonomic_interval, [this] {
        if (!running_) return;
        RunAutonomicCheck();
        StartAutonomicTimer();
      });
}

void StorageNode::RunAutonomicCheck() {
  // H2O-style autonomic trigger: publish our load (record count) through
  // gossip, and when it exceeds `imbalance_threshold` times the cluster
  // mean, shed a quarter of our ring weight — the reweight streams the
  // released arcs out and peers learn the new weight via kStateVnodes.
  const std::size_t local = store_->NumRecords();
  gossiper_->SetLocalState(gossip::kStateLoad, std::to_string(local));
  if (decommissioning_) return;

  double total = static_cast<double>(local);
  int members = 1;
  for (const auto& [endpoint, state] : gossiper_->states().states()) {
    if (endpoint == id_ || !ring_.HasNode(endpoint)) continue;
    const gossip::VersionedEntry* entry = state.GetEntry(gossip::kStateLoad);
    if (entry == nullptr) continue;
    total += std::atof(entry->value.c_str());
    ++members;
  }
  if (members < 2) return;
  const double mean = total / members;
  if (mean <= 0.0 ||
      static_cast<double>(local) <= config_.rebalance.imbalance_threshold * mean) {
    return;
  }
  const int current = ring_.VnodeCount(id_);
  const int target = std::max(config_.rebalance.autonomic_min_vnodes,
                              current - std::max(1, current / 4));
  if (target >= current) return;
  HOTMAN_LOG(kInfo) << id_ << ": autonomic reweight " << current << " -> "  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                    << target << " vnodes (load " << local << " vs mean "
                    << mean << ")";
  rebalancer_->CountAutonomicReweight();
  gossiper_->SetLocalState(gossip::kStateVnodes, std::to_string(target));
  ApplyReweight(id_, target);
}

}  // namespace hotman::cluster
