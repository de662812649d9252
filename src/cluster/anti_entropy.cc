// Anti-entropy replica synchronization (StorageNode methods).
//
// The paper's future work includes "solving problems on data's
// consistency": read repair only fixes replicas of keys that are read, so
// divergence on cold keys persists indefinitely. This background protocol
// closes that gap — every node periodically picks a random ring peer,
// sends a digest of the records both should hold, pushes versions it has
// that the peer lacks (or holds stale), and requests the ones the peer is
// ahead on. Last-write-wins at the replica store keeps the exchange
// idempotent and convergent (a flat digest here; Merkle trees would be the
// production-scale summary).

#include "cluster/storage_node.h"

namespace hotman::cluster {

void StorageNode::StartAntiEntropyTimer() {
  ae_timer_ = transport_->ScheduleTimer(config_.anti_entropy_interval, [this]() {
    if (!running_) return;
    std::vector<std::string> peers;
    for (const std::string& member : ring_.Nodes()) {
      if (member != id_ &&
          detector_->StatusOf(member) == gossip::Liveness::kAlive) {
        peers.push_back(member);
      }
    }
    if (!peers.empty()) {
      RunAntiEntropyRound(peers[ae_rng_.Uniform(peers.size())]);
    }
    StartAntiEntropyTimer();
  });
}

std::vector<bson::Document> StorageNode::SharedRecords(const std::string& peer) {
  std::vector<bson::Document> shared;
  for (bson::Document& record : LocalRecords()) {
    const std::string key = core::RecordSelfKey(record);
    bool self_in = false, peer_in = false;
    for (const std::string& member :
         ring_.PreferenceList(key, config_.replication_factor)) {
      self_in = self_in || member == id_;
      peer_in = peer_in || member == peer;
    }
    if (self_in && peer_in) shared.push_back(std::move(record));
  }
  return shared;
}

void StorageNode::RunAntiEntropyRound(const std::string& peer) {
  ++stats_.ae_rounds;
  AeDigestMsg digest;
  for (const bson::Document& record : SharedRecords(peer)) {
    digest.entries.push_back(AeDigestEntry{core::RecordSelfKey(record),
                                           core::RecordTimestamp(record),
                                           core::RecordOrigin(record)});
  }
  SendToNode(peer, kMsgAeDigest, EncodeAeDigest(digest));
}

void StorageNode::HandleAeDigest(const net::Message& msg) {
  auto digest = DecodeAeDigest(msg.body);
  if (!digest.ok()) return;
  if (!server_->CheckAvailable().ok()) return;

  AeRequestMsg request;
  std::set<std::string> mentioned;
  for (const AeDigestEntry& entry : digest->entries) {
    mentioned.insert(entry.key);
    auto local = store_->GetByKey(entry.key);
    if (!local.ok()) {
      // We are missing the record entirely: pull it.
      request.keys.push_back(entry.key);
      continue;
    }
    const Micros local_ts = core::RecordTimestamp(*local);
    const std::string local_origin = core::RecordOrigin(*local);
    const bool remote_newer =
        entry.timestamp > local_ts ||
        (entry.timestamp == local_ts && entry.origin > local_origin);
    const bool local_newer =
        local_ts > entry.timestamp ||
        (local_ts == entry.timestamp && local_origin > entry.origin);
    if (remote_newer) {
      request.keys.push_back(entry.key);
    } else if (local_newer) {
      PutReplicaMsg push;
      push.req = 0;
      push.record = core::AsReplicaCopy(*local);
      SendToNode(msg.from, kMsgPutReplica, EncodePutReplica(push));
      ++stats_.ae_pushed;
    }
  }
  // Records we hold that the digest never mentioned (the sender lost or
  // never received them): push proactively.
  for (const bson::Document& record : SharedRecords(msg.from)) {
    if (mentioned.count(core::RecordSelfKey(record)) > 0) continue;
    PutReplicaMsg push;
    push.req = 0;
    push.record = core::AsReplicaCopy(record);
    SendToNode(msg.from, kMsgPutReplica, EncodePutReplica(push));
    ++stats_.ae_pushed;
  }
  if (!request.keys.empty()) {
    SendToNode(msg.from, kMsgAeRequest, EncodeAeRequest(request));
  }
}

void StorageNode::HandleAeRequest(const net::Message& msg) {
  auto request = DecodeAeRequest(msg.body);
  if (!request.ok()) return;
  if (!server_->CheckAvailable().ok()) return;
  for (const std::string& key : request->keys) {
    auto record = store_->GetByKey(key);
    if (!record.ok()) continue;
    PutReplicaMsg push;
    push.req = 0;
    push.record = core::AsReplicaCopy(*record);
    SendToNode(msg.from, kMsgPutReplica, EncodePutReplica(push));
    ++stats_.ae_requested;
  }
}

}  // namespace hotman::cluster
