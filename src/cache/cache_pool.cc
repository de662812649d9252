#include "cache/cache_pool.h"

#include <algorithm>

#include "hashring/ketama.h"

namespace hotman::cache {

CachePool::CachePool(int servers, std::size_t capacity_bytes_each) {
  servers_.reserve(servers < 1 ? 1 : servers);
  for (int i = 0; i < std::max(1, servers); ++i) {
    servers_.push_back(std::make_unique<ShardedLruCache>(capacity_bytes_each));
  }
}

ShardedLruCache* CachePool::ServerFor(const std::string& key) {
  const std::size_t index = hashring::KetamaHash(key) % servers_.size();
  return servers_[index].get();
}

bool CachePool::Put(const std::string& key, Bytes value) {
  return Put(key, std::make_shared<const Bytes>(std::move(value)));
}

bool CachePool::Put(const std::string& key, std::shared_ptr<const Bytes> value) {
  return ServerFor(key)->Put(key, std::move(value));
}

bool CachePool::Get(const std::string& key, Bytes* value) {
  return ServerFor(key)->Get(key, value);
}

bool CachePool::GetShared(const std::string& key,
                          std::shared_ptr<const Bytes>* value) {
  return ServerFor(key)->GetShared(key, value);
}

bool CachePool::Erase(const std::string& key) { return ServerFor(key)->Erase(key); }

bool CachePool::Pin(const std::string& key) { return ServerFor(key)->Pin(key); }

bool CachePool::Unpin(const std::string& key) {
  return ServerFor(key)->Unpin(key);
}

bool CachePool::IsPinned(const std::string& key) {
  return ServerFor(key)->IsPinned(key);
}

std::size_t CachePool::TotalPinned() const {
  std::size_t total = 0;
  for (const auto& server : servers_) total += server->pinned_count();
  return total;
}

void CachePool::Clear() {
  for (auto& server : servers_) server->Clear();
}

std::uint64_t CachePool::TotalHits() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) total += server->hits();
  return total;
}

std::uint64_t CachePool::TotalMisses() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) total += server->misses();
  return total;
}

double CachePool::HitRate() const {
  const std::uint64_t total = TotalHits() + TotalMisses();
  return total == 0 ? 0.0 : static_cast<double>(TotalHits()) / total;
}

}  // namespace hotman::cache
