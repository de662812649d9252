#include "core/record.h"

#include <cstdio>
#include <cstdlib>

namespace hotman::core {

namespace {

const bson::Value* RequireField(const bson::Document& record, const char* name) {
  const bson::Value* v = record.Get(name);
  if (v == nullptr) {
    std::fprintf(stderr, "record missing required field %s\n", name);
    std::abort();
  }
  return v;
}

}  // namespace

bson::Document MakeRecord(const bson::ObjectId& id, std::string_view self_key,
                          bson::Binary value, bool is_copy, bool deleted,
                          Micros timestamp, std::string_view origin_node) {
  bson::Document record;
  record.Append(kFieldId, bson::Value(id));
  record.Append(kFieldSelfKey, bson::Value(self_key));
  // The schema's val is BinData subtype 0; a value that arrived with
  // another subtype (a client frame) is the one case that costs a copy.
  if (value.subtype() != 0) value = bson::Binary(value.data(), 0);
  record.Append(kFieldVal, bson::Value(std::move(value)));
  // The paper stores the flags as strings ("isData" : "1"); keep that shape.
  record.Append(kFieldIsData, bson::Value(is_copy ? "0" : "1"));
  record.Append(kFieldIsDel, bson::Value(deleted ? "1" : "0"));
  record.Append(kFieldTimestamp, bson::Value(static_cast<std::int64_t>(timestamp)));
  record.Append(kFieldOrigin, bson::Value(origin_node));
  return record;
}

bson::Document MakeTombstone(const bson::ObjectId& id, std::string_view self_key,
                             Micros timestamp, std::string_view origin_node) {
  return MakeRecord(id, self_key, bson::Binary(), /*is_copy=*/false,
                    /*deleted=*/true, timestamp, origin_node);
}

Status ValidateRecord(const bson::Document& record) {
  const bson::Value* id = record.Get(kFieldId);
  if (id == nullptr || !id->is_object_id()) {
    return Status::InvalidArgument("record _id must be an ObjectId");
  }
  const bson::Value* key = record.Get(kFieldSelfKey);
  if (key == nullptr || !key->is_string() || key->as_string().empty()) {
    return Status::InvalidArgument("record self-key must be a non-empty string");
  }
  const bson::Value* val = record.Get(kFieldVal);
  if (val == nullptr || !val->is_binary()) {
    return Status::InvalidArgument("record val must be binary");
  }
  for (const char* flag : {kFieldIsData, kFieldIsDel}) {
    const bson::Value* f = record.Get(flag);
    if (f == nullptr || !f->is_string() ||
        (f->as_string() != "0" && f->as_string() != "1")) {
      return Status::InvalidArgument(std::string("record flag invalid: ") + flag);
    }
  }
  const bson::Value* ts = record.Get(kFieldTimestamp);
  if (ts == nullptr || !ts->is_int64()) {
    return Status::InvalidArgument("record _ts must be int64");
  }
  const bson::Value* origin = record.Get(kFieldOrigin);
  if (origin == nullptr || !origin->is_string()) {
    return Status::InvalidArgument("record _origin must be a string");
  }
  return Status::OK();
}

std::string RecordSelfKey(const bson::Document& record) {
  return RequireField(record, kFieldSelfKey)->as_string();
}

const Bytes& RecordValue(const bson::Document& record) {
  return RecordBinary(record).data();
}

const bson::Binary& RecordBinary(const bson::Document& record) {
  return RequireField(record, kFieldVal)->as_binary();
}

bool RecordIsDeleted(const bson::Document& record) {
  return RequireField(record, kFieldIsDel)->as_string() == "1";
}

bool RecordIsCopy(const bson::Document& record) {
  return RequireField(record, kFieldIsData)->as_string() == "0";
}

Micros RecordTimestamp(const bson::Document& record) {
  return RequireField(record, kFieldTimestamp)->as_int64();
}

std::string RecordOrigin(const bson::Document& record) {
  return RequireField(record, kFieldOrigin)->as_string();
}

bool SupersedesLww(const bson::Document& a, const bson::Document& b) {
  const Micros ta = RecordTimestamp(a);
  const Micros tb = RecordTimestamp(b);
  if (ta != tb) return ta > tb;
  return RecordOrigin(a) > RecordOrigin(b);
}

bson::Document AsReplicaCopy(const bson::Document& record) {
  bson::Document copy = record;
  copy.Set(kFieldIsData, bson::Value("0"));
  return copy;
}

}  // namespace hotman::core
