#ifndef HOTMAN_CLUSTER_HEAT_TRACKER_H_
#define HOTMAN_CLUSTER_HEAT_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"

namespace hotman::cluster {

/// Tuning for per-key heat tracking (AutoShard-style hot-spot detection).
struct HeatConfig {
  /// Distinct keys the sketch tracks; also the /stats top-k length. Small
  /// on purpose — hot spots are by definition few.
  std::size_t capacity = 64;

  /// Exponential decay half-life of the hit counters. A flash crowd that
  /// ends stops looking hot after a few half-lives.
  Micros half_life = 2 * kMicrosPerSecond;

  /// Estimated per-key ops/sec above which a key is flagged hot (computed
  /// from the sketch's *guaranteed* count, i.e. net of the space-saving
  /// overestimation bound).
  double hot_qps = 200.0;

  /// Guaranteed-count floor before a key may be flagged, so a brand-new
  /// tracker with one lucky hit never fans out.
  double min_hits = 16.0;
};

/// One tracked key in a heat snapshot.
struct HeatEntry {
  std::string key;
  double count = 0.0;  ///< decayed hit count (space-saving upper bound)
  double error = 0.0;  ///< decayed overestimation bound from evictions
  double qps = 0.0;    ///< steady-state rate estimate: count * ln2 / half_life
};

/// Point-in-time view of a tracker, mergeable across nodes for
/// the /stats `heat.*` rollup.
struct HeatSnapshot {
  std::vector<HeatEntry> top;    ///< descending by count
  double total_qps = 0.0;        ///< sum of tracked-key qps estimates
  double skew_coefficient = 0.0; ///< fitted Zipf theta-hat over the top-k
  std::uint64_t ops = 0;         ///< lifetime ops recorded (not decayed)

  /// Union-sum merge: counts/errors/qps for the same key add, the result
  /// is re-ranked and truncated to `capacity`, and the skew coefficient is
  /// refitted. Exactly associative while the union of tracked keys fits in
  /// `capacity` (truncation can drop different tails under different merge
  /// orders beyond that — acceptable for a stats rollup).
  void MergeFrom(const HeatSnapshot& other, std::size_t capacity);

  /// Least-squares fit of -d ln(count) / d ln(rank) over entries (rank 1 =
  /// hottest); 0 when fewer than three usable points. Under a Zipf(theta)
  /// workload this recovers roughly theta.
  static double FitSkew(const std::vector<HeatEntry>& top);
};

/// Space-saving top-k sketch with exponential decay.
///
/// Space-saving (Metwally et al.) keeps at most `capacity` counters; a hit
/// on an untracked key evicts the minimum counter and inherits its count
/// as the new entry's error bound, so `count - error` is a guaranteed
/// lower bound on the key's true hits. Counts decay exponentially with
/// `half_life` (applied lazily in batches), which turns the counter into a
/// rate estimator: a key receiving lambda ops/sec equilibrates at
/// lambda * half_life / ln2, so qps-hat = count * ln2 / half_life.
///
/// Single-threaded by design: lives on a StorageNode's loop (one tracker
/// per node) and on the MyStore front side; no locking, no
/// allocation beyond the bounded key map, deterministic iteration
/// (std::map) so seeded replays stay bit-identical.
class HeatTracker {
 public:
  explicit HeatTracker(HeatConfig config = {});

  /// Counts one operation against `key` at time `now`.
  void Record(const std::string& key, Micros now);

  /// True when `key`'s guaranteed decayed rate clears `hot_qps` (and the
  /// `min_hits` floor). Untracked keys are never hot.
  bool IsHot(const std::string& key, Micros now) const;

  /// Guaranteed-rate estimate for `key` (0 when untracked).
  double EstimatedQps(const std::string& key, Micros now) const;

  /// Per-key round-robin ticket for fanned-out hot reads: returns 0, 1,
  /// 2, ... on successive calls for a tracked key (always 0 untracked).
  std::uint64_t NextRotation(const std::string& key);

  /// Ranked view at `now` (decay applied, entries below noise dropped).
  HeatSnapshot Snapshot(Micros now) const;

  std::uint64_t ops() const { return ops_; }
  std::size_t tracked() const { return entries_.size(); }
  const HeatConfig& config() const { return config_; }

 private:
  struct Slot {
    double count = 0.0;
    double error = 0.0;
    std::uint64_t rotation = 0;
  };

  /// Rescales every counter to `now` once enough time has accumulated
  /// (half_life / 8) so Record stays O(1) amortized at capacity 64.
  void MaybeRescale(Micros now);

  /// Decay factor from the last rescale anchor to `now`.
  double DecayTo(Micros now) const;

  HeatConfig config_;
  std::map<std::string, Slot> entries_;
  Micros anchor_ = 0;        ///< time the counters were last rescaled to
  std::uint64_t ops_ = 0;
};

}  // namespace hotman::cluster

#endif  // HOTMAN_CLUSTER_HEAT_TRACKER_H_
