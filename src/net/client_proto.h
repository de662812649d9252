#ifndef HOTMAN_NET_CLIENT_PROTO_H_
#define HOTMAN_NET_CLIENT_PROTO_H_

#include <cstdint>
#include <string>

#include "bson/document.h"
#include "common/status.h"

namespace hotman::net {

/// Client-facing message types: the request surface a `hotmand` node exposes
/// to remote clients over the same framed transport the cluster uses
/// internally. A client addresses frames to the node's endpoint name; the
/// node replies to the client's (self-chosen, unique) endpoint name.
inline constexpr const char* kMsgClientPut = "client_put";
inline constexpr const char* kMsgClientPutAck = "client_put_ack";
inline constexpr const char* kMsgClientGet = "client_get";
inline constexpr const char* kMsgClientGetAck = "client_get_ack";
inline constexpr const char* kMsgClientDelete = "client_delete";
inline constexpr const char* kMsgClientDeleteAck = "client_delete_ack";
inline constexpr const char* kMsgClientStats = "client_stats";
inline constexpr const char* kMsgClientStatsAck = "client_stats_ack";
inline constexpr const char* kMsgClientJoin = "client_join";
inline constexpr const char* kMsgClientJoinAck = "client_join_ack";
inline constexpr const char* kMsgClientDecommission = "client_decommission";
inline constexpr const char* kMsgClientDecommissionAck =
    "client_decommission_ack";
inline constexpr const char* kMsgClientRebalanceStatus =
    "client_rebalance_status";
inline constexpr const char* kMsgClientRebalanceStatusAck =
    "client_rebalance_status_ack";

/// client_put payload. `value` shares its buffer with the document it was
/// decoded from (and with the document it is encoded into).
struct ClientPutMsg {
  std::uint64_t req = 0;
  std::string key;
  bson::Binary value;
};

/// client_put_ack / client_delete_ack payload.
struct ClientAckMsg {
  std::uint64_t req = 0;
  bool ok = false;
  std::string error;
};

/// client_get / client_delete / client_stats payload (key empty for stats).
struct ClientGetMsg {
  std::uint64_t req = 0;
  std::string key;
};

/// client_get_ack payload. `ok` means the quorum read succeeded; `found`
/// distinguishes a present value from NotFound / tombstone. `value` shares
/// its buffer like ClientPutMsg's (a node replies with the stored record's).
struct ClientGetAckMsg {
  std::uint64_t req = 0;
  bool ok = false;
  bool found = false;
  bson::Binary value;
  std::string error;
};

/// client_stats_ack / client_rebalance_status_ack payload: a JSON snapshot
/// (the node's metrics, or the rebalancer's transfer/cursor state).
struct ClientStatsAckMsg {
  std::uint64_t req = 0;
  std::string json;
};

/// client_join payload: ask the receiving node to announce `node` to the
/// ring so migration streams it its share of the data. `vnodes` <= 0 means
/// "use the cluster default"; `capacity` scales it (capacity-weighted
/// placement, H2O-style heterogeneous nodes).
struct ClientJoinMsg {
  std::uint64_t req = 0;
  std::string node;
  std::int64_t vnodes = 0;
  double capacity = 1.0;
};

bson::Document EncodeClientJoin(const ClientJoinMsg& msg);
Result<ClientJoinMsg> DecodeClientJoin(const bson::Document& doc);

bson::Document EncodeClientPut(const ClientPutMsg& msg);
Result<ClientPutMsg> DecodeClientPut(const bson::Document& doc);
bson::Document EncodeClientAck(const ClientAckMsg& msg);
Result<ClientAckMsg> DecodeClientAck(const bson::Document& doc);
bson::Document EncodeClientGet(const ClientGetMsg& msg);
Result<ClientGetMsg> DecodeClientGet(const bson::Document& doc);
bson::Document EncodeClientGetAck(const ClientGetAckMsg& msg);
Result<ClientGetAckMsg> DecodeClientGetAck(const bson::Document& doc);
bson::Document EncodeClientStatsAck(const ClientStatsAckMsg& msg);
Result<ClientStatsAckMsg> DecodeClientStatsAck(const bson::Document& doc);

}  // namespace hotman::net

#endif  // HOTMAN_NET_CLIENT_PROTO_H_
