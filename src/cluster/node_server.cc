#include "cluster/node_server.h"

#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/record.h"

namespace hotman::cluster {

NodeServer::NodeServer(StorageNode* node, net::Transport* transport)
    : node_(node), transport_(transport) {}

void NodeServer::Start() {
  net::Dispatcher* d = node_->dispatcher();
  d->On(net::kMsgClientPut,
        [this](const net::Message& msg) { HandleClientPut(msg); });
  d->On(net::kMsgClientGet,
        [this](const net::Message& msg) { HandleClientGet(msg); });
  d->On(net::kMsgClientDelete,
        [this](const net::Message& msg) { HandleClientDelete(msg); });
  d->On(net::kMsgClientStats,
        [this](const net::Message& msg) { HandleClientStats(msg); });
  d->On(net::kMsgClientJoin,
        [this](const net::Message& msg) { HandleClientJoin(msg); });
  d->On(net::kMsgClientDecommission,
        [this](const net::Message& msg) { HandleClientDecommission(msg); });
  d->On(net::kMsgClientRebalanceStatus,
        [this](const net::Message& msg) { HandleClientRebalanceStatus(msg); });
}

void NodeServer::Reply(const std::string& to, const char* type,
                       bson::Document body) {
  net::Message reply;
  reply.from = node_->id();
  reply.to = to;
  reply.type = type;
  reply.body = std::move(body);
  transport_->Send(std::move(reply));
}

void NodeServer::HandleClientPut(const net::Message& msg) {
  auto put = net::DecodeClientPut(msg.body);
  if (!put.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_put from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << put.status().ToString();
    return;
  }
  ++client_puts_;
  const std::uint64_t req = put->req;
  const std::string client = msg.from;
  node_->CoordinatePut(put->key, std::move(put->value),
                       [this, req, client](const Status& s) {
                         net::ClientAckMsg ack;
                         ack.req = req;
                         ack.ok = s.ok();
                         if (!s.ok()) ack.error = s.ToString();
                         Reply(client, net::kMsgClientPutAck,
                               net::EncodeClientAck(ack));
                       });
}

void NodeServer::HandleClientGet(const net::Message& msg) {
  auto get = net::DecodeClientGet(msg.body);
  if (!get.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_get from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << get.status().ToString();
    return;
  }
  ++client_gets_;
  const std::uint64_t req = get->req;
  const std::string client = msg.from;
  node_->CoordinateGet(
      get->key, [this, req, client](const Result<bson::Document>& r) {
        net::ClientGetAckMsg ack;
        ack.req = req;
        if (!r.ok()) {
          // NotFound is an authoritative quorum answer, not a failure.
          ack.ok = r.status().IsNotFound();
          if (!ack.ok) ack.error = r.status().ToString();
        } else if (core::RecordIsDeleted(*r)) {
          ack.ok = true;  // tombstone: a successful read of "gone"
        } else {
          ack.ok = true;
          ack.found = true;
          ack.value = core::RecordBinary(*r);
        }
        Reply(client, net::kMsgClientGetAck, net::EncodeClientGetAck(ack));
      });
}

void NodeServer::HandleClientDelete(const net::Message& msg) {
  auto del = net::DecodeClientGet(msg.body);
  if (!del.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_delete from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << del.status().ToString();
    return;
  }
  ++client_deletes_;
  const std::uint64_t req = del->req;
  const std::string client = msg.from;
  node_->CoordinateDelete(del->key, [this, req, client](const Status& s) {
    net::ClientAckMsg ack;
    ack.req = req;
    ack.ok = s.ok();
    if (!s.ok()) ack.error = s.ToString();
    Reply(client, net::kMsgClientDeleteAck, net::EncodeClientAck(ack));
  });
}

void NodeServer::HandleClientStats(const net::Message& msg) {
  auto stats = net::DecodeClientGet(msg.body);
  if (!stats.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_stats from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << stats.status().ToString();
    return;
  }
  net::ClientStatsAckMsg ack;
  ack.req = stats->req;
  ack.json = StatsJson();
  Reply(msg.from, net::kMsgClientStatsAck, net::EncodeClientStatsAck(ack));
}

void NodeServer::HandleClientJoin(const net::Message& msg) {
  auto join = net::DecodeClientJoin(msg.body);
  if (!join.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_join from " << msg.from  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << ": " << join.status().ToString();
    return;
  }
  net::ClientAckMsg ack;
  ack.req = join->req;
  if (join->node.empty() || join->capacity <= 0.0) {
    ack.error = "join needs a node endpoint and capacity > 0";
  } else {
    // The joining hotmand must already be up and listening on `node`;
    // announcing it here pulls it into every member's ring and the
    // rebalancer streams it its share of the data.
    NodeSpec spec;
    spec.address = join->node;
    if (join->vnodes > 0) spec.vnodes = static_cast<int>(join->vnodes);
    spec.capacity = join->capacity;
    node_->AnnounceAddition(spec.address, EffectiveVnodes(spec));
    ack.ok = true;
  }
  Reply(msg.from, net::kMsgClientJoinAck, net::EncodeClientAck(ack));
}

void NodeServer::HandleClientDecommission(const net::Message& msg) {
  auto dec = net::DecodeClientGet(msg.body);
  if (!dec.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_decommission from "  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << msg.from << ": " << dec.status().ToString();
    return;
  }
  const std::uint64_t req = dec->req;
  const std::string client = msg.from;
  // The ack races the shutdown: once the decommission completes this node
  // has left the ring and stopped, so a completion-time reply could never
  // be delivered. Reply "started" as soon as the guards pass and let the
  // operator watch progress through rebalance-status on the survivors;
  // only a synchronous rejection (already decommissioning, last node, ...)
  // reports an error.
  auto replied = std::make_shared<bool>(false);
  node_->StartDecommission([this, req, client, replied](const Status& s) {
    if (*replied || s.ok()) return;
    *replied = true;
    net::ClientAckMsg ack;
    ack.req = req;
    ack.error = s.ToString();
    Reply(client, net::kMsgClientDecommissionAck, net::EncodeClientAck(ack));
  });
  if (!*replied) {
    *replied = true;
    net::ClientAckMsg ack;
    ack.req = req;
    ack.ok = true;
    Reply(client, net::kMsgClientDecommissionAck, net::EncodeClientAck(ack));
  }
}

void NodeServer::HandleClientRebalanceStatus(const net::Message& msg) {
  auto status = net::DecodeClientGet(msg.body);
  if (!status.ok()) {
    HOTMAN_LOG(kWarn) << node_->id() << ": bad client_rebalance_status from "  // NOLINT(hotman-transitive-blocking) leaf log sink: bounded lock-copy + stderr write, log text is not replay state
                      << msg.from << ": " << status.status().ToString();
    return;
  }
  net::ClientStatsAckMsg ack;
  ack.req = status->req;
  ack.json = node_->rebalancer()->StatusJson();
  Reply(msg.from, net::kMsgClientRebalanceStatusAck,
        net::EncodeClientStatsAck(ack));
}

std::string NodeServer::StatsJson() const {
  metrics::Registry registry;
  const NodeStats s = node_->stats();
  registry.counter("puts_coordinated")->Increment(s.puts_coordinated);
  registry.counter("puts_succeeded")->Increment(s.puts_succeeded);
  registry.counter("puts_failed")->Increment(s.puts_failed);
  registry.counter("gets_coordinated")->Increment(s.gets_coordinated);
  registry.counter("gets_succeeded")->Increment(s.gets_succeeded);
  registry.counter("gets_failed")->Increment(s.gets_failed);
  registry.counter("replica_puts_applied")->Increment(s.replica_puts_applied);
  registry.counter("replica_gets_served")->Increment(s.replica_gets_served);
  registry.counter("handoff_writes")->Increment(s.handoff_writes);
  registry.counter("hints_delivered")->Increment(s.hints_delivered);
  registry.counter("read_repairs")->Increment(s.read_repairs);
  registry.counter("read_repairs_skipped_dead")
      ->Increment(s.read_repairs_skipped_dead);
  registry.counter("fast_read_hits")->Increment(s.fast_read_hits);
  registry.counter("fast_read_fallbacks")->Increment(s.fast_read_fallbacks);
  registry.counter("fast_read_demotions")->Increment(s.fast_read_demotions);
  registry.counter("hot_gets_fanned")->Increment(s.hot_gets_fanned);
  registry.counter("hot_read_hits")->Increment(s.hot_read_hits);
  registry.counter("hot_read_demotions")->Increment(s.hot_read_demotions);
  registry.counter("replica_digests_served")
      ->Increment(s.replica_digests_served);
  registry.counter("get_acks_corrupt")->Increment(s.get_acks_corrupt);
  registry.counter("rereplications")->Increment(s.rereplications);
  registry.counter("rebalance_purges")->Increment(s.rebalance_purges);
  registry.counter("ae_rounds")->Increment(s.ae_rounds);
  const rebalance::RebalanceStats rb = node_->rebalance_stats();
  registry.counter("rebalance.transfers_started")
      ->Increment(rb.transfers_started);
  registry.counter("rebalance.transfers_completed")
      ->Increment(rb.transfers_completed);
  registry.counter("rebalance.transfers_aborted")
      ->Increment(rb.transfers_aborted);
  registry.counter("rebalance.arcs_planned")->Increment(rb.arcs_planned);
  registry.counter("rebalance.arcs_completed")->Increment(rb.arcs_completed);
  registry.counter("rebalance.records_streamed")
      ->Increment(rb.records_streamed);
  registry.counter("rebalance.bytes_streamed")->Increment(rb.bytes_streamed);
  registry.counter("rebalance.records_received")
      ->Increment(rb.records_received);
  registry.counter("rebalance.records_skipped")
      ->Increment(rb.records_skipped);
  registry.counter("rebalance.throttle_stalls")
      ->Increment(rb.throttle_stalls);
  registry.counter("rebalance.resumes")->Increment(rb.resumes);
  registry.counter("rebalance.retries")->Increment(rb.retries);
  registry.counter("rebalance.autonomic_reweights")
      ->Increment(rb.autonomic_reweights);
  registry.counter("client_puts")->Increment(client_puts_);
  registry.counter("client_gets")->Increment(client_gets_);
  registry.counter("client_deletes")->Increment(client_deletes_);
  registry.histogram("put_latency_us")->MergeFrom(node_->put_latency_histogram());
  registry.histogram("get_latency_us")->MergeFrom(node_->get_latency_histogram());
  registry.histogram("fast_get_latency_us")
      ->MergeFrom(node_->fast_get_latency_histogram());
  registry.histogram("quorum_get_latency_us")
      ->MergeFrom(node_->quorum_get_latency_histogram());
  if (node_->station() != nullptr) {
    registry.histogram("replica_queue_wait_us")
        ->MergeFrom(node_->station()->queue_wait_histogram());
    registry.histogram("replica_service_us")
        ->MergeFrom(node_->station()->service_histogram());
  }
  // heat.*: this node's per-key heat (the skew coefficient exports in
  // milli-units: gauges are int64).
  const HeatSnapshot heat = node_->heat_snapshot();
  registry.counter("heat.tracked_ops")
      ->Increment(static_cast<std::int64_t>(heat.ops));
  registry.gauge("heat.tracked_keys")
      ->Set(static_cast<std::int64_t>(heat.top.size()));
  registry.gauge("heat.top1_qps")
      ->Set(static_cast<std::int64_t>(heat.top.empty() ? 0.0 : heat.top.front().qps));
  registry.gauge("heat.total_qps")->Set(static_cast<std::int64_t>(heat.total_qps));
  registry.gauge("heat.skew_coeff_milli")
      ->Set(static_cast<std::int64_t>(heat.skew_coefficient * 1000.0));
  transport_->ExportStats(&registry);
  return registry.ToJson();
}

}  // namespace hotman::cluster
