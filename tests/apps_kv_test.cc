#include <gtest/gtest.h>

#include <cstring>

#include "src/apps/kv_store.h"
#include "src/apps/workloads.h"

namespace liteapp {
namespace {

class KvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    cluster_ = std::make_unique<lite::LiteCluster>(3, p);
    server_ = std::make_unique<LiteKvServer>(cluster_.get(), 0);
    server_->Start();
    client_ = std::make_unique<LiteKvClient>(cluster_.get(), 1, 0);
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<lite::LiteCluster> cluster_;
  std::unique_ptr<LiteKvServer> server_;
  std::unique_ptr<LiteKvClient> client_;
};

TEST_F(KvTest, PutGetRoundTrip) {
  ASSERT_TRUE(client_->Put("key1", "value1", 6).ok());
  auto got = client_->Get("key1");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 6u);
  EXPECT_EQ(std::memcmp(got->data(), "value1", 6), 0);
}

TEST_F(KvTest, GetMissingKey) {
  auto got = client_->Get("ghost");
  EXPECT_EQ(got.status().code(), lt::StatusCode::kNotFound);
}

TEST_F(KvTest, OverwriteReplaces) {
  ASSERT_TRUE(client_->Put("k", "old", 3).ok());
  ASSERT_TRUE(client_->Put("k", "newer", 5).ok());
  auto got = client_->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 5u);
}

TEST_F(KvTest, DeleteRemovesKey) {
  ASSERT_TRUE(client_->Put("gone", "x", 1).ok());
  ASSERT_TRUE(client_->Delete("gone").ok());
  EXPECT_FALSE(client_->Get("gone").ok());
  EXPECT_EQ(client_->Delete("gone").code(), lt::StatusCode::kNotFound);
}

TEST_F(KvTest, EmptyValueAllowed) {
  ASSERT_TRUE(client_->Put("empty", nullptr, 0).ok());
  auto got = client_->Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST_F(KvTest, ManyKeysFromTwoClients) {
  LiteKvClient other(cluster_.get(), 2, 0);
  for (int i = 0; i < 100; ++i) {
    std::string key = "k" + std::to_string(i);
    std::string value = "v" + std::to_string(i * i);
    LiteKvClient* c = (i % 2 == 0) ? client_.get() : &other;
    ASSERT_TRUE(c->Put(key, value.data(), static_cast<uint32_t>(value.size())).ok());
  }
  EXPECT_EQ(server_->size(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto got = client_->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    std::string expected = "v" + std::to_string(i * i);
    ASSERT_EQ(got->size(), expected.size());
    EXPECT_EQ(std::memcmp(got->data(), expected.data(), expected.size()), 0);
  }
}

TEST_F(KvTest, LargeValue) {
  std::vector<uint8_t> big(8000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 17);
  }
  ASSERT_TRUE(client_->Put("big", big.data(), static_cast<uint32_t>(big.size())).ok());
  auto got = client_->Get("big");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, big);
}

TEST_F(KvTest, FacebookShapedWorkload) {
  FacebookKvSampler sampler(5);
  for (int i = 0; i < 50; ++i) {
    uint32_t key_size = sampler.NextKeySize();
    uint32_t value_size = std::min<uint32_t>(sampler.NextValueSize(), 8000);
    std::string key(key_size, static_cast<char>('a' + i % 26));
    key += std::to_string(i);
    std::vector<uint8_t> value(value_size, static_cast<uint8_t>(i));
    ASSERT_TRUE(client_->Put(key, value.data(), value_size).ok());
    auto got = client_->Get(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), value_size);
  }
}


TEST_F(KvTest, GetDirectReturnsValueWithOneSidedRead) {
  ASSERT_TRUE(client_->Put("direct", "one-sided!", 10).ok());
  auto got = client_->GetDirect("direct");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 10u);
  EXPECT_EQ(std::memcmp(got->data(), "one-sided!", 10), 0);
}

TEST_F(KvTest, GetDirectCachedLocationSkipsRpc) {
  ASSERT_TRUE(client_->Put("hot", "cached value", 12).ok());
  ASSERT_TRUE(client_->GetDirect("hot").ok());  // Resolves + caches.
  // Subsequent direct reads are pure LT_read: no RPC ring growth needed;
  // just verify repeated correctness.
  for (int i = 0; i < 20; ++i) {
    auto got = client_->GetDirect("hot");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 12u);
  }
}

TEST_F(KvTest, GetDirectDetectsOverwrite) {
  ASSERT_TRUE(client_->Put("mut", "aaaa", 4).ok());
  ASSERT_TRUE(client_->GetDirect("mut").ok());  // Cache old location.
  ASSERT_TRUE(client_->Put("mut", "bbbbbbbb", 8).ok());
  auto got = client_->GetDirect("mut");  // Stale cache -> re-resolve.
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 8u);
  EXPECT_EQ(std::memcmp(got->data(), "bbbbbbbb", 8), 0);
}

TEST_F(KvTest, GetDirectDetectsDelete) {
  ASSERT_TRUE(client_->Put("gone2", "x", 1).ok());
  ASSERT_TRUE(client_->GetDirect("gone2").ok());
  ASSERT_TRUE(client_->Delete("gone2").ok());
  // Another client with its own (stale) cache must also notice.
  EXPECT_FALSE(client_->GetDirect("gone2").ok());
}

TEST_F(KvTest, GetDirectMissingKey) {
  EXPECT_EQ(client_->GetDirect("never_put").status().code(), lt::StatusCode::kNotFound);
}

TEST_F(KvTest, GetDirectFromSecondClientSeesFirstClientsWrites) {
  LiteKvClient other(cluster_.get(), 2, 0);
  ASSERT_TRUE(client_->Put("shared_key", "visible", 7).ok());
  auto got = other.GetDirect("shared_key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::memcmp(got->data(), "visible", 7), 0);
}

TEST(KvSamplerTest, DistributionsInRange) {
  FacebookKvSampler sampler(9);
  for (int i = 0; i < 1000; ++i) {
    uint32_t k = sampler.NextKeySize();
    EXPECT_GE(k, 16u);
    EXPECT_LE(k, 128u);
    uint32_t v = sampler.NextValueSize();
    EXPECT_GE(v, 2u);
    EXPECT_LE(v, 512u * 1024u);
    EXPECT_LT(sampler.NextInterArrivalNs(1.0), 10'000'000u);
  }
}

TEST(KvSamplerTest, AmplificationScalesGaps) {
  FacebookKvSampler a(9);
  FacebookKvSampler b(9);
  uint64_t sum1 = 0;
  uint64_t sum8 = 0;
  for (int i = 0; i < 2000; ++i) {
    sum1 += a.NextInterArrivalNs(1.0);
    sum8 += b.NextInterArrivalNs(8.0);
  }
  EXPECT_NEAR(static_cast<double>(sum8) / sum1, 8.0, 0.5);
}

}  // namespace
}  // namespace liteapp
