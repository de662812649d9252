#include "cache/lru_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache_pool.h"

namespace hotman::cache {
namespace {

TEST(LruCacheTest, PutGetBasics) {
  LruCache cache(1024);
  EXPECT_TRUE(cache.Put("k", ToBytes("value")));
  Bytes out;
  EXPECT_TRUE(cache.Get("k", &out));
  EXPECT_EQ(ToString(out), "value");
  EXPECT_FALSE(cache.Get("missing", &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, GetSharedAliasesEntryAndSurvivesEviction) {
  LruCache cache(1024);
  ASSERT_TRUE(cache.Put("k", ToBytes("shared-value")));
  std::shared_ptr<const Bytes> out;
  ASSERT_TRUE(cache.GetShared("k", &out));
  EXPECT_EQ(ToString(*out), "shared-value");
  EXPECT_EQ(cache.hits(), 1u);
  // A second GetShared hands out the same underlying buffer (no copy).
  std::shared_ptr<const Bytes> again;
  ASSERT_TRUE(cache.GetShared("k", &again));
  EXPECT_EQ(out.get(), again.get());
  // The handed-out bytes outlive the entry.
  cache.Erase("k");
  EXPECT_EQ(ToString(*out), "shared-value");
  EXPECT_FALSE(cache.GetShared("k", &again));
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, UpdateReplacesValue) {
  LruCache cache(1024);
  ASSERT_TRUE(cache.Put("k", ToBytes("v1")));
  ASSERT_TRUE(cache.Put("k", ToBytes("v2-longer")));
  Bytes out;
  ASSERT_TRUE(cache.Get("k", &out));
  EXPECT_EQ(ToString(out), "v2-longer");
  EXPECT_EQ(cache.item_count(), 1u);
  EXPECT_EQ(cache.size_bytes(), std::string("k").size() + 9);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  // Capacity fits exactly two 10-byte entries (key 1 + value 9).
  LruCache cache(20);
  ASSERT_TRUE(cache.Put("a", Bytes(9, 'x')));
  ASSERT_TRUE(cache.Put("b", Bytes(9, 'x')));
  Bytes out;
  ASSERT_TRUE(cache.Get("a", &out));  // promote a
  ASSERT_TRUE(cache.Put("c", Bytes(9, 'x')));  // evicts b
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, OversizedValueRejected) {
  LruCache cache(10);
  EXPECT_FALSE(cache.Put("k", Bytes(100, 'x')));
  EXPECT_EQ(cache.item_count(), 0u);
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache cache(1024);
  ASSERT_TRUE(cache.Put("k", ToBytes("v")));
  EXPECT_TRUE(cache.Erase("k"));
  EXPECT_FALSE(cache.Erase("k"));
  EXPECT_FALSE(cache.Contains("k"));
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(LruCacheTest, ClearEmptiesEverything) {
  LruCache cache(1024);
  cache.Put("a", ToBytes("1"));
  cache.Put("b", ToBytes("2"));
  cache.Clear();
  EXPECT_EQ(cache.item_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(LruCacheTest, ByteAccountingExact) {
  LruCache cache(1024);
  cache.Put("key1", Bytes(10, 'x'));
  cache.Put("key22", Bytes(20, 'x'));
  EXPECT_EQ(cache.size_bytes(), 4 + 10 + 5 + 20u);
  cache.Erase("key1");
  EXPECT_EQ(cache.size_bytes(), 25u);
}

TEST(LruCacheTest, HitRate) {
  LruCache cache(1024);
  cache.Put("k", ToBytes("v"));
  Bytes out;
  cache.Get("k", &out);
  cache.Get("k", &out);
  cache.Get("nope", &out);
  EXPECT_NEAR(cache.HitRate(), 2.0 / 3.0, 1e-9);
}

TEST(LruCacheTest, ManyInsertionsStayWithinCapacity) {
  LruCache cache(1000);
  for (int i = 0; i < 500; ++i) {
    cache.Put("key" + std::to_string(i), Bytes(50, 'x'));
    EXPECT_LE(cache.size_bytes(), 1000u);
  }
}

TEST(LruCacheTest, PinnedEntriesResistEviction) {
  // "hot" would be the LRU victim, but the pin protects it: a burst of
  // cold inserts evicts around it.
  LruCache cache(100);
  ASSERT_TRUE(cache.Put("hot", Bytes(27, 'h')));  // 30 bytes with key
  ASSERT_TRUE(cache.Pin("hot"));
  EXPECT_TRUE(cache.IsPinned("hot"));
  EXPECT_EQ(cache.pinned_count(), 1u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cache.Put("c" + std::to_string(i), Bytes(28, 'c')));
  }
  EXPECT_TRUE(cache.Contains("hot"));
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_EQ(cache.forced_pinned_evictions(), 0u);
}

TEST(LruCacheTest, UnpinnedEntryAgesOutNormally) {
  LruCache cache(100);
  ASSERT_TRUE(cache.Put("hot", Bytes(27, 'h')));
  ASSERT_TRUE(cache.Pin("hot"));
  ASSERT_TRUE(cache.Unpin("hot"));
  EXPECT_EQ(cache.pinned_count(), 0u);
  EXPECT_EQ(cache.pinned_bytes(), 0u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cache.Put("c" + std::to_string(i), Bytes(28, 'c')));
  }
  EXPECT_FALSE(cache.Contains("hot"));
}

TEST(LruCacheTest, PinBudgetCappedAtHalfCapacity) {
  LruCache cache(100);
  ASSERT_TRUE(cache.Put("a", Bytes(39, 'a')));  // 40 bytes
  ASSERT_TRUE(cache.Put("b", Bytes(39, 'b')));  // 40 bytes
  EXPECT_TRUE(cache.Pin("a"));
  // Pinning "b" too would put 80 pinned bytes in a 100-byte cache.
  EXPECT_FALSE(cache.Pin("b"));
  EXPECT_FALSE(cache.IsPinned("b"));
  EXPECT_FALSE(cache.Pin("missing"));
}

TEST(LruCacheTest, PinnedEvictionIsForcedRatherThanFailingPut) {
  // When pins alone fill the cache, Put must still succeed: pinned
  // entries are sacrificed (and counted) instead of deadlocking.
  LruCache cache(100);
  ASSERT_TRUE(cache.Put("a", Bytes(44, 'a')));  // 45 bytes
  ASSERT_TRUE(cache.Pin("a"));
  ASSERT_TRUE(cache.Put("big", Bytes(90, 'x')));  // needs nearly everything
  EXPECT_TRUE(cache.Contains("big"));
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_EQ(cache.forced_pinned_evictions(), 1u);
  EXPECT_EQ(cache.pinned_count(), 0u);
  EXPECT_EQ(cache.pinned_bytes(), 0u);
}

TEST(LruCacheTest, RefreshKeepsPinAndByteAccounting) {
  LruCache cache(200);
  ASSERT_TRUE(cache.Put("hot", Bytes(20, 'v')));
  ASSERT_TRUE(cache.Pin("hot"));
  // Updating the value keeps the pin and repoints the pinned-byte count
  // at the new size.
  ASSERT_TRUE(cache.Put("hot", Bytes(50, 'w')));
  EXPECT_TRUE(cache.IsPinned("hot"));
  EXPECT_EQ(cache.pinned_bytes(), 53u);  // 3-byte key + 50-byte value
  ASSERT_TRUE(cache.Erase("hot"));
  EXPECT_EQ(cache.pinned_bytes(), 0u);
  EXPECT_EQ(cache.pinned_count(), 0u);
}

TEST(LruCacheTest, SharedPutKeepsBytesPutAccounting) {
  // The same script through both Put overloads: every counter must agree
  // after every step, across LRU evictions, pins, a pinned refresh, an
  // oversize reject and a forced pinned eviction.
  LruCache by_bytes(100);
  LruCache by_shared(100);
  auto expect_same = [&](const std::string& step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(by_bytes.size_bytes(), by_shared.size_bytes());
    EXPECT_EQ(by_bytes.item_count(), by_shared.item_count());
    EXPECT_EQ(by_bytes.pinned_count(), by_shared.pinned_count());
    EXPECT_EQ(by_bytes.pinned_bytes(), by_shared.pinned_bytes());
    EXPECT_EQ(by_bytes.evictions(), by_shared.evictions());
    EXPECT_EQ(by_bytes.forced_pinned_evictions(),
              by_shared.forced_pinned_evictions());
  };
  auto put = [&](const std::string& key, std::size_t size) {
    const auto value = std::make_shared<const Bytes>(size, 'v');
    EXPECT_EQ(by_bytes.Put(key, Bytes(size, 'v')), by_shared.Put(key, value));
    if (by_shared.Contains(key)) {
      // The entry is the caller's buffer, not a copy of it.
      std::shared_ptr<const Bytes> held;
      ASSERT_TRUE(by_shared.GetShared(key, &held));
      EXPECT_EQ(held.get(), value.get());
      ASSERT_TRUE(by_bytes.GetShared(key, &held));  // same promotion
    }
    expect_same("put " + key);
  };
  put("a", 27);
  ASSERT_TRUE(by_bytes.Pin("a"));
  ASSERT_TRUE(by_shared.Pin("a"));
  expect_same("pin a");
  put("b", 27);
  put("c", 27);
  put("d", 27);      // evicts b, skipping pinned a
  put("a", 37);      // pinned refresh to a new size
  put("e", 200);     // larger than the cache: rejected
  put("big", 90);    // only room after sacrificing pinned a
  ASSERT_TRUE(by_bytes.Erase("big"));
  ASSERT_TRUE(by_shared.Erase("big"));
  expect_same("erase big");
  EXPECT_GE(by_bytes.evictions(), 2u);
  EXPECT_EQ(by_bytes.forced_pinned_evictions(), 1u);
  EXPECT_EQ(by_bytes.size_bytes(), 0u);
}

TEST(CachePoolTest, SharedPutCachesTheCallersBuffer) {
  CachePool pool(3, 1024);
  const auto value = std::make_shared<const Bytes>(ToBytes("shared"));
  ASSERT_TRUE(pool.Put("k", value));
  std::shared_ptr<const Bytes> held;
  ASSERT_TRUE(pool.GetShared("k", &held));
  EXPECT_EQ(held.get(), value.get());
  EXPECT_EQ(pool.ServerFor("k")->size_bytes(), 1 + value->size());
}

TEST(CachePoolTest, PinRoutesToOwningServer) {
  CachePool pool(3, 1024);
  ASSERT_TRUE(pool.Put("k", ToBytes("v")));
  EXPECT_TRUE(pool.Pin("k"));
  EXPECT_TRUE(pool.IsPinned("k"));
  EXPECT_EQ(pool.TotalPinned(), 1u);
  EXPECT_TRUE(pool.Unpin("k"));
  EXPECT_EQ(pool.TotalPinned(), 0u);
  EXPECT_FALSE(pool.Pin("missing"));
}

TEST(CachePoolTest, RoutesByKeyHashConsistently) {
  CachePool pool(4, 1024 * 1024);
  EXPECT_EQ(pool.num_servers(), 4);
  // The same key always lands on the same server.
  ShardedLruCache* server = pool.ServerFor("stable-key");
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pool.ServerFor("stable-key"), server);
  }
}

TEST(CachePoolTest, KeysSpreadAcrossServers) {
  CachePool pool(4, 1024 * 1024);
  std::set<ShardedLruCache*> used;
  for (int i = 0; i < 200; ++i) {
    used.insert(pool.ServerFor("key" + std::to_string(i)));
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(CachePoolTest, PoolOperationsWork) {
  CachePool pool(3, 1024);
  ASSERT_TRUE(pool.Put("k", ToBytes("v")));
  Bytes out;
  ASSERT_TRUE(pool.Get("k", &out));
  EXPECT_EQ(ToString(out), "v");
  EXPECT_TRUE(pool.Erase("k"));
  EXPECT_FALSE(pool.Get("k", &out));
  EXPECT_EQ(pool.TotalHits(), 1u);
  EXPECT_EQ(pool.TotalMisses(), 1u);
  EXPECT_NEAR(pool.HitRate(), 0.5, 1e-9);
}

TEST(CachePoolTest, ZeroServersClampedToOne) {
  CachePool pool(0, 1024);
  EXPECT_EQ(pool.num_servers(), 1);
  EXPECT_TRUE(pool.Put("k", ToBytes("v")));
}

TEST(CachePoolTest, ClearAllServers) {
  CachePool pool(2, 1024);
  pool.Put("a", ToBytes("1"));
  pool.Put("b", ToBytes("2"));
  pool.Clear();
  Bytes out;
  EXPECT_FALSE(pool.Get("a", &out));
  EXPECT_FALSE(pool.Get("b", &out));
}

}  // namespace
}  // namespace hotman::cache
