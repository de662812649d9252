#ifndef HOTMAN_CACHE_LRU_CACHE_H_
#define HOTMAN_CACHE_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/bytes.h"

namespace hotman::cache {

/// One cache server: an in-memory {key: value} store with LRU age-out
/// bounded by a byte budget (§4: "unstructured data items in cache are
/// stored in {key: value} format using LRU algorithm for age-out"; the
/// paper's deployment gives each cache server 1 GB).
///
/// Bytes is a bare std::vector with no built-in sharing, so shared
/// ownership happens at the cache boundary: entries hold their value
/// behind shared_ptr<const Bytes>. Put takes such a pointer, so a value
/// already held elsewhere (a record's val buffer) is cached without a
/// copy; GetShared hands the pointer out the same way, and Get keeps the
/// historical copy-into-caller-buffer contract for callers that mutate
/// the result.
class LruCache {
 public:
  explicit LruCache(std::size_t capacity_bytes);

  /// Inserts or refreshes `key`, sharing `value` with the caller. Values
  /// larger than the whole cache are rejected (returns false) rather than
  /// evicting everything.
  bool Put(const std::string& key, std::shared_ptr<const Bytes> value);
  /// Put of a value the cache will own alone (moved into a fresh buffer).
  bool Put(const std::string& key, Bytes value);

  /// Fetches and promotes `key`; false on miss. Copies the value into
  /// `*value` — use GetShared on hot paths that only read.
  bool Get(const std::string& key, Bytes* value);

  /// Fetches and promotes `key` without copying the payload: on hit,
  /// `*value` shares ownership with the cache entry (O(1) in value size).
  /// The bytes stay valid even if the entry is evicted afterwards.
  bool GetShared(const std::string& key, std::shared_ptr<const Bytes>* value);

  /// True without promoting (introspection only).
  bool Contains(const std::string& key) const;

  /// Removes `key` (DELETE invalidation path); false when absent.
  bool Erase(const std::string& key);

  /// Marks `key` as heat-pinned: pinned entries are skipped by normal LRU
  /// eviction (hot-spot taming — a burst of cold inserts must not wash
  /// out the keys serving most of the traffic). False when the key is
  /// absent or pinning it would push pinned bytes past half the capacity
  /// (the cache must stay useful for the cold tail). Idempotent.
  bool Pin(const std::string& key);

  /// Clears the pin; false when the key is absent or wasn't pinned.
  /// Unpinned entries age out normally from their current LRU position.
  bool Unpin(const std::string& key);

  /// True when `key` is present and pinned (introspection only).
  bool IsPinned(const std::string& key) const;

  void Clear();

  std::size_t size_bytes() const { return used_bytes_; }
  std::size_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t item_count() const { return items_.size(); }
  std::size_t pinned_count() const { return pinned_count_; }
  std::size_t pinned_bytes() const { return pinned_bytes_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Times eviction had to sacrifice a pinned entry because the unpinned
  /// population alone couldn't make room (pins resist, never deadlock).
  std::uint64_t forced_pinned_evictions() const {
    return forced_pinned_evictions_;
  }

  double HitRate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Bytes> value;
    bool pinned = false;
  };

  void EvictUntilFits(std::size_t incoming);

  std::size_t capacity_bytes_;
  std::size_t used_bytes_ = 0;
  // Most-recently-used at the front.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> items_;
  std::size_t pinned_count_ = 0;
  std::size_t pinned_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t forced_pinned_evictions_ = 0;
};

}  // namespace hotman::cache

#endif  // HOTMAN_CACHE_LRU_CACHE_H_
