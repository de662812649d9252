#include "cache/sharded_lru_cache.h"

#include <algorithm>

namespace hotman::cache {

namespace {

/// FNV-1a 64-bit — cheap, decent avalanche, and independent of the
/// Ketama hash used for server routing (see class comment).
std::uint64_t ShardHash(const std::string& key) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

ShardedLruCache::ShardedLruCache(std::size_t capacity_bytes,
                                 std::size_t num_shards)
    : capacity_bytes_(capacity_bytes) {
  const std::size_t n = std::max<std::size_t>(1, num_shards);
  const std::size_t base = capacity_bytes / n;
  const std::size_t remainder = capacity_bytes % n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // First `remainder` shards take one extra byte so the shard budgets
    // sum exactly to capacity_bytes.
    shards_.push_back(std::make_unique<Shard>(base + (i < remainder ? 1 : 0)));
  }
}

std::size_t ShardedLruCache::ShardOf(const std::string& key) const {
  return ShardHash(key) % shards_.size();
}

ShardedLruCache::Shard& ShardedLruCache::ShardFor(const std::string& key) {
  return *shards_[ShardOf(key)];
}

const ShardedLruCache::Shard& ShardedLruCache::ShardFor(
    const std::string& key) const {
  return *shards_[ShardOf(key)];
}

std::size_t ShardedLruCache::ShardIndexOf(const std::string& key) const {
  return ShardOf(key);
}

std::size_t ShardedLruCache::shard_item_count(std::size_t shard) const {
  const Shard& s = *shards_[shard];
  MutexLock lock(&s.mu);
  return s.cache.item_count();
}

bool ShardedLruCache::Put(const std::string& key, Bytes value) {
  return Put(key, std::make_shared<const Bytes>(std::move(value)));
}

bool ShardedLruCache::Put(const std::string& key,
                          std::shared_ptr<const Bytes> value) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.cache.Put(key, std::move(value));
}

bool ShardedLruCache::Get(const std::string& key, Bytes* value) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.cache.Get(key, value);
}

bool ShardedLruCache::GetShared(const std::string& key,
                                std::shared_ptr<const Bytes>* value) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.cache.GetShared(key, value);
}

bool ShardedLruCache::Contains(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.cache.Contains(key);
}

bool ShardedLruCache::Erase(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.cache.Erase(key);
}

bool ShardedLruCache::Pin(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.cache.Pin(key);
}

bool ShardedLruCache::Unpin(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.cache.Unpin(key);
}

bool ShardedLruCache::IsPinned(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  return shard.cache.IsPinned(key);
}

void ShardedLruCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->cache.Clear();
  }
}

std::size_t ShardedLruCache::size_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->cache.size_bytes();
  }
  return total;
}

std::size_t ShardedLruCache::item_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->cache.item_count();
  }
  return total;
}

std::size_t ShardedLruCache::pinned_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->cache.pinned_count();
  }
  return total;
}

std::size_t ShardedLruCache::pinned_bytes() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->cache.pinned_bytes();
  }
  return total;
}

std::uint64_t ShardedLruCache::forced_pinned_evictions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->cache.forced_pinned_evictions();
  }
  return total;
}

std::uint64_t ShardedLruCache::hits() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->cache.hits();
  }
  return total;
}

std::uint64_t ShardedLruCache::misses() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->cache.misses();
  }
  return total;
}

std::uint64_t ShardedLruCache::evictions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->cache.evictions();
  }
  return total;
}

double ShardedLruCache::HitRate() const {
  const std::uint64_t h = hits();
  const std::uint64_t total = h + misses();
  return total == 0 ? 0.0 : static_cast<double>(h) / total;
}

}  // namespace hotman::cache
