#include "cache/lru_cache.h"

namespace hotman::cache {

namespace {

std::size_t EntryBytes(const std::string& key,
                       const std::shared_ptr<const Bytes>& value) {
  return key.size() + value->size();
}

}  // namespace

LruCache::LruCache(std::size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

void LruCache::EvictUntilFits(std::size_t incoming) {
  // First pass: evict unpinned entries only, least-recent first. Pinned
  // (heat-flagged) entries are skipped so a burst of cold inserts cannot
  // wash out the keys carrying most of the traffic.
  auto it = lru_.end();
  while (used_bytes_ + incoming > capacity_bytes_ && it != lru_.begin()) {
    --it;
    if (it->pinned) continue;
    used_bytes_ -= EntryBytes(it->key, it->value);
    items_.erase(it->key);
    it = lru_.erase(it);
    ++evictions_;
  }
  // Pins resist eviction but never deadlock the cache: if the unpinned
  // population alone can't make room, sacrifice pinned entries from the
  // cold end too (counted separately so the heat layer can notice).
  while (!lru_.empty() && used_bytes_ + incoming > capacity_bytes_) {
    const Entry& victim = lru_.back();
    if (victim.pinned) {
      pinned_bytes_ -= EntryBytes(victim.key, victim.value);
      --pinned_count_;
      ++forced_pinned_evictions_;
    }
    used_bytes_ -= EntryBytes(victim.key, victim.value);
    items_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

bool LruCache::Put(const std::string& key, Bytes value) {
  return Put(key, std::make_shared<const Bytes>(std::move(value)));
}

bool LruCache::Put(const std::string& key, std::shared_ptr<const Bytes> value) {
  const std::size_t incoming = EntryBytes(key, value);
  if (incoming > capacity_bytes_) return false;
  bool was_pinned = false;
  auto it = items_.find(key);
  if (it != items_.end()) {
    // Refreshing a pinned entry keeps the pin (a hot key stays hot across
    // value updates).
    was_pinned = it->second->pinned;
    if (was_pinned) {
      pinned_bytes_ -= EntryBytes(it->second->key, it->second->value);
      --pinned_count_;
    }
    used_bytes_ -= EntryBytes(it->second->key, it->second->value);
    lru_.erase(it->second);
    items_.erase(it);
  }
  EvictUntilFits(incoming);
  lru_.push_front(Entry{key, std::move(value), was_pinned});
  items_.emplace(key, lru_.begin());
  used_bytes_ += incoming;
  if (was_pinned) {
    pinned_bytes_ += incoming;
    ++pinned_count_;
  }
  return true;
}

bool LruCache::Get(const std::string& key, Bytes* value) {
  auto it = items_.find(key);
  if (it == items_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  // Promote to most-recently-used.
  lru_.splice(lru_.begin(), lru_, it->second);
  if (value != nullptr) *value = *it->second->value;
  return true;
}

bool LruCache::GetShared(const std::string& key,
                         std::shared_ptr<const Bytes>* value) {
  auto it = items_.find(key);
  if (it == items_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  if (value != nullptr) *value = it->second->value;
  return true;
}

bool LruCache::Contains(const std::string& key) const {
  return items_.count(key) > 0;
}

bool LruCache::Erase(const std::string& key) {
  auto it = items_.find(key);
  if (it == items_.end()) return false;
  if (it->second->pinned) {
    pinned_bytes_ -= EntryBytes(it->second->key, it->second->value);
    --pinned_count_;
  }
  used_bytes_ -= EntryBytes(it->second->key, it->second->value);
  lru_.erase(it->second);
  items_.erase(it);
  return true;
}

bool LruCache::Pin(const std::string& key) {
  auto it = items_.find(key);
  if (it == items_.end()) return false;
  if (it->second->pinned) return true;
  const std::size_t bytes = EntryBytes(it->second->key, it->second->value);
  // Pinned working set is capped at half the capacity so the cold tail
  // always keeps some churn room.
  if (pinned_bytes_ + bytes > capacity_bytes_ / 2) return false;
  it->second->pinned = true;
  pinned_bytes_ += bytes;
  ++pinned_count_;
  return true;
}

bool LruCache::Unpin(const std::string& key) {
  auto it = items_.find(key);
  if (it == items_.end() || !it->second->pinned) return false;
  it->second->pinned = false;
  pinned_bytes_ -= EntryBytes(it->second->key, it->second->value);
  --pinned_count_;
  return true;
}

bool LruCache::IsPinned(const std::string& key) const {
  const auto it = items_.find(key);
  return it != items_.end() && it->second->pinned;
}

void LruCache::Clear() {
  lru_.clear();
  items_.clear();
  used_bytes_ = 0;
  pinned_bytes_ = 0;
  pinned_count_ = 0;
}

}  // namespace hotman::cache
