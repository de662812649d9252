#ifndef HOTMAN_CLUSTER_HINTED_HANDOFF_H_
#define HOTMAN_CLUSTER_HINTED_HANDOFF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bson/document.h"

namespace hotman::cluster {

/// One write held for an unreachable replica (Fig. 8: node C "creates an
/// index for the replication" while B is offline).
struct Hint {
  std::uint64_t id = 0;
  std::string target;       ///< the node this write belongs to (B)
  bson::Document record;
  std::int64_t stored_at = 0;
};

/// The temporary node's hint ledger for short-failure handling.
///
/// When the coordinator cannot reach replica B it hands the write to a
/// temporary node C together with B's identifier; C stores the hint and
/// "detects the node B periodically by heartbeat service. When it finds
/// that the B node is on-line again, the node C would write the data back
/// to B."
class HintStore {
 public:
  /// Ids count 1, 2, 3, ...
  HintStore() = default;

  /// Records a hint; returns its id.
  std::uint64_t Add(const std::string& target, bson::Document record,
                    std::int64_t now);

  /// Hints waiting for `target` (delivery attempts do not remove them —
  /// removal happens on acknowledged write-back).
  std::vector<Hint> ForTarget(const std::string& target) const;

  /// Distinct targets with pending hints.
  std::vector<std::string> Targets() const;

  /// Drops a hint after its write-back was acknowledged.
  bool Remove(std::uint64_t id);

  /// The hint with `id`, or nullptr (the write-back ack path inspects the
  /// record before dropping it).
  const Hint* Find(std::uint64_t id) const;

  /// Whether any pending hint carries a record for `self_key` (the holder
  /// must keep its local stand-in copy alive while one does).
  bool HasHintForKey(const std::string& self_key) const;

  /// Drops every hint — a node restart that lost its durable state.
  void Clear() { hints_.clear(); }

  std::size_t PendingCount() const { return hints_.size(); }
  std::size_t total_added() const { return total_added_; }
  std::size_t total_delivered() const { return total_delivered_; }

 private:
  std::map<std::uint64_t, Hint> hints_;
  std::uint64_t next_id_ = 1;
  std::size_t total_added_ = 0;
  std::size_t total_delivered_ = 0;
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_HINTED_HANDOFF_H_
