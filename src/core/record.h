#ifndef HOTMAN_CORE_RECORD_H_
#define HOTMAN_CORE_RECORD_H_

#include <string>
#include <string_view>

#include "bson/document.h"
#include "bson/object_id.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"

namespace hotman::core {

/// Field names of the paper's record schema (§3.3):
///   {"_id": ObjectId(...), "self-key": "...", "val": BinData(0, ...),
///    "isData": "0|1", "isDel": "0|1"}
/// plus two internal reconciliation fields the cluster layer appends.
inline constexpr const char* kFieldId = "_id";
inline constexpr const char* kFieldSelfKey = "self-key";
inline constexpr const char* kFieldVal = "val";
inline constexpr const char* kFieldIsData = "isData";
inline constexpr const char* kFieldIsDel = "isDel";
/// Write timestamp (microseconds) used by last-write-wins reconciliation.
inline constexpr const char* kFieldTimestamp = "_ts";
/// Coordinator node that produced this version (timestamp tie-break).
inline constexpr const char* kFieldOrigin = "_origin";

/// Builds a full record document.
///
/// `is_copy` maps to the paper's isData flag ("indicates whether the record
/// is a copy"): the coordinator stores the original (isData=1) and the
/// N-1 replicas store copies (isData=0). `deleted` maps to isDel ("if the
/// record is deleted, just update the flag and not physically remove").
/// The record shares `value`'s buffer; a Bytes argument is moved into a
/// fresh one.
bson::Document MakeRecord(const bson::ObjectId& id, std::string_view self_key,
                          bson::Binary value, bool is_copy, bool deleted,
                          Micros timestamp, std::string_view origin_node);

/// A tombstone record for logical deletion of `self_key`.
bson::Document MakeTombstone(const bson::ObjectId& id, std::string_view self_key,
                             Micros timestamp, std::string_view origin_node);

/// Validates the record shape; returns InvalidArgument with the offending
/// field otherwise.
Status ValidateRecord(const bson::Document& record);

/// Accessors (each aborts on schema violation; call ValidateRecord on
/// untrusted input first).
std::string RecordSelfKey(const bson::Document& record);
const Bytes& RecordValue(const bson::Document& record);
/// The val field itself: its shared() buffer outlives the record, so a
/// holder (the cache, a client reply) can keep the value without a copy.
const bson::Binary& RecordBinary(const bson::Document& record);
bool RecordIsDeleted(const bson::Document& record);
bool RecordIsCopy(const bson::Document& record);
Micros RecordTimestamp(const bson::Document& record);
std::string RecordOrigin(const bson::Document& record);

/// Last-write-wins: true when `a` supersedes `b` — strictly newer
/// timestamp, with origin node id breaking exact ties deterministically
/// (§3.1 "last write wins policy").
bool SupersedesLww(const bson::Document& a, const bson::Document& b);

/// Returns a copy of `record` with the isData flag set for a replica copy.
bson::Document AsReplicaCopy(const bson::Document& record);

}  // namespace hotman::core

#endif  // HOTMAN_CORE_RECORD_H_
