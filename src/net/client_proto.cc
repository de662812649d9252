#include "net/client_proto.h"

namespace hotman::net {

namespace {

using bson::Document;
using bson::Value;

Result<std::uint64_t> GetU64(const Document& doc, const char* name) {
  const Value* v = doc.Get(name);
  if (v == nullptr || !v->is_int64()) {
    return Status::Corruption(std::string("missing int64 field: ") + name);
  }
  return static_cast<std::uint64_t>(v->as_int64());
}

Result<std::string> GetStr(const Document& doc, const char* name) {
  const Value* v = doc.Get(name);
  if (v == nullptr || !v->is_string()) {
    return Status::Corruption(std::string("missing string field: ") + name);
  }
  return v->as_string();
}

Result<bool> GetBool(const Document& doc, const char* name) {
  const Value* v = doc.Get(name);
  if (v == nullptr || !v->is_bool()) {
    return Status::Corruption(std::string("missing bool field: ") + name);
  }
  return v->as_bool();
}

Result<bson::Binary> GetBin(const Document& doc, const char* name) {
  const Value* v = doc.Get(name);
  if (v == nullptr || !v->is_binary()) {
    return Status::Corruption(std::string("missing binary field: ") + name);
  }
  return v->as_binary();  // shares the document's buffer
}

Result<double> GetF64(const Document& doc, const char* name) {
  const Value* v = doc.Get(name);
  if (v == nullptr || !v->is_number()) {
    return Status::Corruption(std::string("missing numeric field: ") + name);
  }
  return v->NumberAsDouble();
}

std::int64_t AsI64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

}  // namespace

bson::Document EncodeClientPut(const ClientPutMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("key", Value(msg.key));
  doc.Append("val", Value(msg.value));
  return doc;
}

Result<ClientPutMsg> DecodeClientPut(const bson::Document& doc) {
  auto req = GetU64(doc, "req");
  if (!req.ok()) return req.status();
  auto key = GetStr(doc, "key");
  if (!key.ok()) return key.status();
  auto val = GetBin(doc, "val");
  if (!val.ok()) return val.status();
  ClientPutMsg out;
  out.req = *req;
  out.key = std::move(*key);
  out.value = std::move(*val);
  return out;
}

bson::Document EncodeClientAck(const ClientAckMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("ok", Value(msg.ok));
  doc.Append("err", Value(msg.error));
  return doc;
}

Result<ClientAckMsg> DecodeClientAck(const bson::Document& doc) {
  auto req = GetU64(doc, "req");
  if (!req.ok()) return req.status();
  auto ok = GetBool(doc, "ok");
  if (!ok.ok()) return ok.status();
  auto err = GetStr(doc, "err");
  if (!err.ok()) return err.status();
  ClientAckMsg out;
  out.req = *req;
  out.ok = *ok;
  out.error = std::move(*err);
  return out;
}

bson::Document EncodeClientGet(const ClientGetMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("key", Value(msg.key));
  return doc;
}

Result<ClientGetMsg> DecodeClientGet(const bson::Document& doc) {
  auto req = GetU64(doc, "req");
  if (!req.ok()) return req.status();
  auto key = GetStr(doc, "key");
  if (!key.ok()) return key.status();
  ClientGetMsg out;
  out.req = *req;
  out.key = std::move(*key);
  return out;
}

bson::Document EncodeClientGetAck(const ClientGetAckMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("ok", Value(msg.ok));
  doc.Append("found", Value(msg.found));
  doc.Append("val", Value(msg.value));
  doc.Append("err", Value(msg.error));
  return doc;
}

Result<ClientGetAckMsg> DecodeClientGetAck(const bson::Document& doc) {
  auto req = GetU64(doc, "req");
  if (!req.ok()) return req.status();
  auto ok = GetBool(doc, "ok");
  if (!ok.ok()) return ok.status();
  auto found = GetBool(doc, "found");
  if (!found.ok()) return found.status();
  auto val = GetBin(doc, "val");
  if (!val.ok()) return val.status();
  auto err = GetStr(doc, "err");
  if (!err.ok()) return err.status();
  ClientGetAckMsg out;
  out.req = *req;
  out.ok = *ok;
  out.found = *found;
  out.value = std::move(*val);
  out.error = std::move(*err);
  return out;
}

bson::Document EncodeClientStatsAck(const ClientStatsAckMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("json", Value(msg.json));
  return doc;
}

Result<ClientStatsAckMsg> DecodeClientStatsAck(const bson::Document& doc) {
  auto req = GetU64(doc, "req");
  if (!req.ok()) return req.status();
  auto json = GetStr(doc, "json");
  if (!json.ok()) return json.status();
  ClientStatsAckMsg out;
  out.req = *req;
  out.json = std::move(*json);
  return out;
}

bson::Document EncodeClientJoin(const ClientJoinMsg& msg) {
  Document doc;
  doc.Append("req", Value(AsI64(msg.req)));
  doc.Append("node", Value(msg.node));
  doc.Append("vnodes", Value(msg.vnodes));
  doc.Append("capacity", Value(msg.capacity));
  return doc;
}

Result<ClientJoinMsg> DecodeClientJoin(const bson::Document& doc) {
  auto req = GetU64(doc, "req");
  if (!req.ok()) return req.status();
  auto node = GetStr(doc, "node");
  if (!node.ok()) return node.status();
  auto vnodes = GetU64(doc, "vnodes");
  if (!vnodes.ok()) return vnodes.status();
  auto capacity = GetF64(doc, "capacity");
  if (!capacity.ok()) return capacity.status();
  ClientJoinMsg out;
  out.req = *req;
  out.node = std::move(*node);
  out.vnodes = static_cast<std::int64_t>(*vnodes);
  out.capacity = *capacity;
  return out;
}

}  // namespace hotman::net
