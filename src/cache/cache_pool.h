#ifndef HOTMAN_CACHE_CACHE_POOL_H_
#define HOTMAN_CACHE_CACHE_POOL_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/sharded_lru_cache.h"

namespace hotman::cache {

/// The cache module of Fig. 1: "an independent memory cache system
/// consisting of several cache servers, which are responsible for
/// different partitions of data resources. Their load balances are based
/// on the hash of resources' keys."
///
/// Each server is a ShardedLruCache, so hits on different keys within one
/// server also run concurrently (thread-safe, unlike the bare LruCache).
class CachePool {
 public:
  /// `servers` cache servers of `capacity_bytes_each` (the paper deploys
  /// four servers with 1 GB each).
  CachePool(int servers, std::size_t capacity_bytes_each);

  /// The server responsible for `key` (key-hash partitioning).
  ShardedLruCache* ServerFor(const std::string& key);

  /// Pool-wide operations routed to the owning server.
  bool Put(const std::string& key, std::shared_ptr<const Bytes> value);
  bool Put(const std::string& key, Bytes value);
  bool Get(const std::string& key, Bytes* value);
  bool GetShared(const std::string& key, std::shared_ptr<const Bytes>* value);
  bool Erase(const std::string& key);

  /// Heat-pinning passthrough: hot entries resist LRU eviction on their
  /// owning server (see LruCache::Pin).
  bool Pin(const std::string& key);
  bool Unpin(const std::string& key);
  bool IsPinned(const std::string& key);

  void Clear();

  int num_servers() const { return static_cast<int>(servers_.size()); }
  ShardedLruCache* server(int i) { return servers_[i].get(); }

  std::uint64_t TotalHits() const;
  std::uint64_t TotalMisses() const;
  double HitRate() const;
  std::size_t TotalPinned() const;

 private:
  std::vector<std::unique_ptr<ShardedLruCache>> servers_;
};

}  // namespace hotman::cache

#endif  // HOTMAN_CACHE_CACHE_POOL_H_
