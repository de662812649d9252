#include "core/mystore.h"

#include <gtest/gtest.h>

#include "rest/signature.h"

namespace hotman::core {
namespace {

class MyStoreTest : public ::testing::Test {
 protected:
  void Boot(MyStoreConfig config = MyStoreConfig{}) {
    store_ = std::make_unique<MyStore>(std::move(config));
    ASSERT_TRUE(store_->Start().ok());
  }

  std::unique_ptr<MyStore> store_;
};

TEST_F(MyStoreTest, PostGetDeleteLifecycle) {
  Boot();
  ASSERT_TRUE(store_->Post("k", ToBytes("value")).ok());
  auto value = store_->Get("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(ToString(*value), "value");
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_TRUE(store_->Get("k").status().IsNotFound());
}

TEST_F(MyStoreTest, StatsEndpointReportsPercentiles) {
  Boot();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store_->Post("s" + std::to_string(i), ToBytes("v")).ok());
  }
  store_->cache_pool()->Clear();  // force the reads through the cluster
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store_->Get("s" + std::to_string(i)).ok());
  }

  rest::Request request;
  request.method = rest::Method::kGet;
  request.path = "/stats";
  rest::Response response = store_->Handle(request);
  ASSERT_TRUE(response.ok());
  const std::string body = ToString(response.body);
  // Cluster histograms with percentile fields.
  EXPECT_NE(body.find("\"put_latency_us\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"get_latency_us\""), std::string::npos);
  EXPECT_NE(body.find("\"replica_queue_wait_us\""), std::string::npos);
  EXPECT_NE(body.find("\"p50_us\""), std::string::npos);
  EXPECT_NE(body.find("\"p95_us\""), std::string::npos);
  EXPECT_NE(body.find("\"p99_us\""), std::string::npos);
  // The other modules' sections plus recent trace records.
  EXPECT_NE(body.find("\"cache\""), std::string::npos);
  EXPECT_NE(body.find("\"router\""), std::string::npos);
  EXPECT_NE(body.find("\"traces\""), std::string::npos);
  EXPECT_NE(body.find("\"op\":\"put\""), std::string::npos)
      << "trace ring should hold put records";
  // The writes above must be visible in the counters.
  EXPECT_EQ(body.find("\"puts_coordinated\":0,"), std::string::npos);
}

TEST_F(MyStoreTest, PostNewMintsUniqueKeys) {
  Boot();
  auto k1 = store_->PostNew(ToBytes("a"));
  auto k2 = store_->PostNew(ToBytes("b"));
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  EXPECT_NE(*k1, *k2);
  EXPECT_EQ(ToString(*store_->Get(*k1)), "a");
  EXPECT_EQ(ToString(*store_->Get(*k2)), "b");
}

TEST_F(MyStoreTest, ReadThroughCachePopulatesOnMiss) {
  Boot();
  ASSERT_TRUE(store_->Post("k", ToBytes("v")).ok());
  store_->cache_pool()->Clear();
  EXPECT_EQ(store_->cache_pool()->TotalHits(), 0u);
  ASSERT_TRUE(store_->Get("k").ok());  // miss -> db -> cache insert
  ASSERT_TRUE(store_->Get("k").ok());  // hit
  EXPECT_GE(store_->cache_pool()->TotalHits(), 1u);
}

TEST_F(MyStoreTest, CacheHitAvoidsCluster) {
  Boot();
  ASSERT_TRUE(store_->Post("k", ToBytes("v")).ok());
  const std::size_t gets_before =
      store_->storage()->AggregateStats().gets_coordinated;
  ASSERT_TRUE(store_->Get("k").ok());  // write-through already cached it
  EXPECT_EQ(store_->storage()->AggregateStats().gets_coordinated, gets_before);
}

TEST_F(MyStoreTest, DeleteInvalidatesCache) {
  Boot();
  ASSERT_TRUE(store_->Post("k", ToBytes("v")).ok());
  ASSERT_TRUE(store_->Delete("k").ok());
  Bytes cached;
  EXPECT_FALSE(store_->cache_pool()->Get("k", &cached));
}

TEST_F(MyStoreTest, UpdateRefreshesCache) {
  Boot();
  ASSERT_TRUE(store_->Post("k", ToBytes("v1")).ok());
  ASSERT_TRUE(store_->Post("k", ToBytes("v2")).ok());
  auto value = store_->Get("k");  // cache must serve v2, not v1
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(ToString(*value), "v2");
}

TEST_F(MyStoreTest, RestGetPostDelete) {
  Boot();
  rest::Request post;
  post.method = rest::Method::kPost;
  post.path = "/data/res1";
  post.body = ToBytes("payload");
  rest::Response response = store_->Handle(post);
  EXPECT_TRUE(response.ok());

  rest::Request get;
  get.method = rest::Method::kGet;
  get.path = "/data/res1";
  response = store_->Handle(get);
  EXPECT_EQ(response.code, rest::StatusCode::kOk);
  EXPECT_EQ(ToString(response.body), "payload");

  rest::Request del;
  del.method = rest::Method::kDelete;
  del.path = "/data/res1";
  response = store_->Handle(del);
  EXPECT_EQ(response.code, rest::StatusCode::kNoContent);

  response = store_->Handle(get);
  EXPECT_EQ(response.code, rest::StatusCode::kNotFound);
}

TEST_F(MyStoreTest, RestPostWithoutKeyCreates) {
  Boot();
  rest::Request post;
  post.method = rest::Method::kPost;
  post.path = "/data";
  post.body = ToBytes("fresh");
  rest::Response response = store_->Handle(post);
  EXPECT_EQ(response.code, rest::StatusCode::kCreated);
  const std::string key = ToString(response.body);
  EXPECT_FALSE(key.empty());
  EXPECT_EQ(ToString(*store_->Get(key)), "fresh");
}

TEST_F(MyStoreTest, RestRequestsSpreadRoundRobin) {
  Boot();
  rest::Request post;
  post.method = rest::Method::kPost;
  post.path = "/data/k";
  post.body = ToBytes("v");
  const int n = store_->router()->num_workers() * 2;
  for (int i = 0; i < n; ++i) (void)store_->Handle(post);
  for (std::size_t count : store_->router()->dispatch_counts()) {
    EXPECT_EQ(count, 2u);
  }
}

TEST_F(MyStoreTest, SignedRequestAuthorization) {
  Boot();
  const std::string secret = store_->token_db()->RegisterUser("alice");
  ASSERT_TRUE(store_->Post("k", ToBytes("v")).ok());

  rest::Request get;
  get.method = rest::Method::kGet;
  get.path = "/data/k";

  // Fig. 2 flow: obtain a token, sign token+uri+secret, attach both.
  auto token = store_->token_db()->IssueToken("alice");
  ASSERT_TRUE(token.ok());
  get.query["token"] = *token;
  get.query["signature"] = rest::ComputeSignature(*token, "/data/k", secret);
  rest::Response response = store_->HandleSigned("alice", get);
  EXPECT_EQ(response.code, rest::StatusCode::kOk);

  // Replaying the same token must fail (single-request tokens).
  response = store_->HandleSigned("alice", get);
  EXPECT_EQ(response.code, rest::StatusCode::kUnauthorized);
}

TEST_F(MyStoreTest, SignedRequestRejectsBadSignature) {
  Boot();
  store_->token_db()->RegisterUser("alice");
  auto token = store_->token_db()->IssueToken("alice");
  rest::Request get;
  get.method = rest::Method::kGet;
  get.path = "/data/k";
  get.query["token"] = *token;
  get.query["signature"] = "deadbeef";
  EXPECT_EQ(store_->HandleSigned("alice", get).code,
            rest::StatusCode::kUnauthorized);
}

TEST_F(MyStoreTest, SignedRequestRejectsMissingParams) {
  Boot();
  store_->token_db()->RegisterUser("alice");
  rest::Request get;
  get.method = rest::Method::kGet;
  get.path = "/data/k";
  EXPECT_EQ(store_->HandleSigned("alice", get).code,
            rest::StatusCode::kUnauthorized);
}

TEST_F(MyStoreTest, SignatureCoversUriTampering) {
  Boot();
  const std::string secret = store_->token_db()->RegisterUser("alice");
  ASSERT_TRUE(store_->Post("secret-doc", ToBytes("classified")).ok());
  auto token = store_->token_db()->IssueToken("alice");
  // Signature computed for a different resource must not authorize this one.
  rest::Request get;
  get.method = rest::Method::kGet;
  get.path = "/data/secret-doc";
  get.query["token"] = *token;
  get.query["signature"] =
      rest::ComputeSignature(*token, "/data/other-doc", secret);
  EXPECT_EQ(store_->HandleSigned("alice", get).code,
            rest::StatusCode::kUnauthorized);
}

TEST_F(MyStoreTest, AsyncApiWorks) {
  Boot();
  bool put_done = false;
  store_->PostAsync("ak", ToBytes("av"), [&put_done](const Status& s) {
    EXPECT_TRUE(s.ok());
    put_done = true;
  });
  store_->RunFor(3 * kMicrosPerSecond);
  ASSERT_TRUE(put_done);

  bool get_done = false;
  store_->cache_pool()->Clear();
  store_->GetAsync("ak", [&get_done](const Result<Bytes>& value) {
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(ToString(*value), "av");
    get_done = true;
  });
  store_->RunFor(3 * kMicrosPerSecond);
  EXPECT_TRUE(get_done);
}

/// The val buffers of every stored copy of `key` across the cluster.
std::vector<const Bytes*> StoredBuffers(MyStore* store, const std::string& key) {
  std::vector<const Bytes*> buffers;
  for (cluster::StorageNode* node : store->storage()->nodes()) {
    auto record = node->store()->GetByKey(key);
    if (record.ok()) buffers.push_back(RecordBinary(*record).shared().get());
  }
  return buffers;
}

/// The buffer the cache holds for `key` (nullptr on a miss).
const Bytes* CachedBuffer(MyStore* store, const std::string& key) {
  std::shared_ptr<const Bytes> held;
  return store->cache_pool()->GetShared(key, &held) ? held.get() : nullptr;
}

TEST_F(MyStoreTest, PostCachesTheStoredRecordBuffer) {
  // Write-through caches the very buffer the replicas store: the value is
  // copied nowhere between the caller and the last holder.
  Boot();
  bool done = false;
  store_->PostAsync("async", Bytes(64 * 1024, 'a'), [&done](const Status& s) {
    EXPECT_TRUE(s.ok());
    done = true;
  });
  store_->RunFor(3 * kMicrosPerSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(store_->Post("sync", Bytes(64 * 1024, 's')).ok());
  for (const char* key : {"async", "sync"}) {
    SCOPED_TRACE(key);
    const Bytes* cached = CachedBuffer(store_.get(), key);
    ASSERT_NE(cached, nullptr);
    const std::vector<const Bytes*> stored = StoredBuffers(store_.get(), key);
    EXPECT_GE(stored.size(), 2u);  // at least W copies
    for (const Bytes* buffer : stored) EXPECT_EQ(buffer, cached);
  }
}

TEST_F(MyStoreTest, MissCachesTheStoredRecordBuffer) {
  // Read-through inserts the record's own buffer; only the caller's
  // Result<Bytes> is a copy.
  Boot();
  ASSERT_TRUE(store_->Post("k", Bytes(64 * 1024, 'k')).ok());
  store_->cache_pool()->Clear();
  bool done = false;
  store_->GetAsync("k", [&done](const Result<Bytes>& value) {
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, Bytes(64 * 1024, 'k'));
    done = true;
  });
  store_->RunFor(3 * kMicrosPerSecond);
  ASSERT_TRUE(done);
  const Bytes* cached = CachedBuffer(store_.get(), "k");
  ASSERT_NE(cached, nullptr);
  const std::vector<const Bytes*> stored = StoredBuffers(store_.get(), "k");
  ASSERT_FALSE(stored.empty());
  for (const Bytes* buffer : stored) EXPECT_EQ(buffer, cached);

  // The blocking Get takes the same miss path.
  store_->cache_pool()->Clear();
  auto value = store_->Get("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(CachedBuffer(store_.get(), "k"), stored.front());
}

TEST_F(MyStoreTest, VeePalmsStyleMixedContent) {
  Boot();
  // XML scenes, guideline videos, PDF reports — all unstructured bytes.
  ASSERT_TRUE(store_->Post("scene.xml", ToBytes("<scene><c r='5'/></scene>")).ok());
  ASSERT_TRUE(store_->Post("guide.mp4", Bytes(4096, 0x42)).ok());
  ASSERT_TRUE(store_->Post("report.pdf", Bytes(1024, 0x25)).ok());
  EXPECT_EQ(store_->Get("scene.xml")->size(), 25u);
  EXPECT_EQ(store_->Get("guide.mp4")->size(), 4096u);
  EXPECT_EQ(store_->Get("report.pdf")->size(), 1024u);
}

}  // namespace
}  // namespace hotman::core
