#ifndef HOTMAN_CACHE_SHARDED_LRU_CACHE_H_
#define HOTMAN_CACHE_SHARDED_LRU_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hotman::cache {

/// One cache server presented as N independently locked LruCache shards.
///
/// LruCache itself is unsynchronized; a single lock around it serializes
/// every hit because each Get mutates the recency list. Sharding by key
/// hash gives concurrent hits on different keys disjoint locks, so a
/// cache server scales with cores instead of serializing on one list.
/// The byte budget is split across shards (base + remainder on the first
/// shards), which keeps the aggregate bound exact; per-key capacity is
/// capacity/num_shards, the usual sharded-cache tradeoff.
///
/// Shard selection uses FNV-1a, deliberately distinct from the Ketama
/// hash CachePool uses to pick a server: reusing the server hash would
/// make every key on a given server land in a correlated subset of
/// shards and skew the split.
class ShardedLruCache {
 public:
  static constexpr std::size_t kDefaultShards = 8;

  explicit ShardedLruCache(std::size_t capacity_bytes,
                           std::size_t num_shards = kDefaultShards);

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Inserts or refreshes `key` in its shard, sharing `value` with the
  /// caller. Values larger than the shard's budget are rejected (returns
  /// false), mirroring LruCache.
  bool Put(const std::string& key, std::shared_ptr<const Bytes> value);
  bool Put(const std::string& key, Bytes value);

  /// Fetches and promotes `key`; false on miss. Copies the value.
  bool Get(const std::string& key, Bytes* value);

  /// Zero-copy hit path: `*value` shares ownership with the cache entry.
  bool GetShared(const std::string& key, std::shared_ptr<const Bytes>* value);

  /// True without promoting (introspection only).
  bool Contains(const std::string& key) const;

  /// Removes `key` (DELETE invalidation path); false when absent.
  bool Erase(const std::string& key);

  /// Heat-pinning passthrough (see LruCache::Pin/Unpin): pinned entries
  /// resist LRU eviction in their shard.
  bool Pin(const std::string& key);
  bool Unpin(const std::string& key);
  bool IsPinned(const std::string& key) const;

  void Clear();

  std::size_t num_shards() const { return shards_.size(); }

  /// Which shard `key` routes to (for tests and introspection).
  std::size_t ShardIndexOf(const std::string& key) const;

  /// Item count of one shard (introspection: lets tests assert the data
  /// path and ShardIndexOf agree on placement).
  std::size_t shard_item_count(std::size_t shard) const;

  /// Aggregate stats merged across shards. Each value is internally
  /// consistent per shard but the merge is not an atomic snapshot.
  std::size_t size_bytes() const;
  std::size_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t item_count() const;
  std::size_t pinned_count() const;
  std::size_t pinned_bytes() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::uint64_t forced_pinned_evictions() const;
  double HitRate() const;

 private:
  struct Shard {
    explicit Shard(std::size_t capacity_bytes) : cache(capacity_bytes) {}
    mutable Mutex mu;
    LruCache cache HOTMAN_GUARDED_BY(mu);
  };

  /// The single place the shard hash is computed. Every routing call
  /// (mutating, const, and ShardIndexOf) funnels through here — the Get
  /// and Put paths used to hash independently, which invited a latent
  /// mis-shard if one callsite ever drifted.
  std::size_t ShardOf(const std::string& key) const;

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;

  std::size_t capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hotman::cache

#endif  // HOTMAN_CACHE_SHARDED_LRU_CACHE_H_
