#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/apps/dsm.h"

namespace liteapp {
namespace {

class DsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    p.node_phys_mem_bytes = 32ull << 20;
    cluster_ = std::make_unique<lite::LiteCluster>(3, p);
    static std::atomic<uint32_t> next_instance{500};
    instance_id_ = next_instance.fetch_add(1);
    for (lt::NodeId n = 0; n < 3; ++n) {
      dsms_.push_back(std::make_unique<LiteDsm>(cluster_.get(), n, std::vector<lt::NodeId>{0, 1, 2},
                                                64, instance_id_));
    }
    for (auto& d : dsms_) {
      ASSERT_TRUE(d->Start().ok());
    }
  }

  void TearDown() override {
    for (auto& d : dsms_) {
      d->Stop();
    }
  }

  std::unique_ptr<lite::LiteCluster> cluster_;
  std::vector<std::unique_ptr<LiteDsm>> dsms_;
  uint32_t instance_id_ = 0;
};

TEST_F(DsmTest, WriteThenReadSameNode) {
  const char msg[] = "dsm basics";
  ASSERT_TRUE(dsms_[0]->Acquire(0, sizeof(msg)).ok());
  ASSERT_TRUE(dsms_[0]->Write(0, msg, sizeof(msg)).ok());
  ASSERT_TRUE(dsms_[0]->Release(0, sizeof(msg)).ok());
  char out[sizeof(msg)] = {0};
  ASSERT_TRUE(dsms_[0]->Read(0, out, sizeof(out)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(DsmTest, ReadFromOtherNodeAfterRelease) {
  const char msg[] = "cross node dsm";
  uint64_t addr = 5 * LiteDsm::kPageSize + 100;  // A page homed on node 2.
  ASSERT_TRUE(dsms_[0]->Acquire(addr, sizeof(msg)).ok());
  ASSERT_TRUE(dsms_[0]->Write(addr, msg, sizeof(msg)).ok());
  ASSERT_TRUE(dsms_[0]->Release(addr, sizeof(msg)).ok());
  char out[sizeof(msg)] = {0};
  ASSERT_TRUE(dsms_[1]->Read(addr, out, sizeof(out)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(DsmTest, WriteWithoutAcquireFails) {
  char byte = 1;
  EXPECT_EQ(dsms_[0]->Write(0, &byte, 1).code(), lt::StatusCode::kFailedPrecondition);
}

TEST_F(DsmTest, ReleaseWithoutAcquireFails) {
  EXPECT_EQ(dsms_[0]->Release(0, 1).code(), lt::StatusCode::kFailedPrecondition);
}

TEST_F(DsmTest, SecondReadHitsCache) {
  char out[64];
  ASSERT_TRUE(dsms_[1]->Read(0, out, sizeof(out)).ok());
  uint64_t misses = dsms_[1]->cache_misses();
  ASSERT_TRUE(dsms_[1]->Read(0, out, sizeof(out)).ok());
  EXPECT_EQ(dsms_[1]->cache_misses(), misses);
  EXPECT_GT(dsms_[1]->cache_hits(), 0u);
}

TEST_F(DsmTest, ReleaseInvalidatesRemoteCaches) {
  uint64_t addr = 2 * LiteDsm::kPageSize;
  // Node 1 caches the page.
  uint32_t value = 0;
  ASSERT_TRUE(dsms_[1]->Read(addr, &value, 4).ok());
  // Node 0 writes a new value and releases.
  uint32_t new_value = 0xabcd0123;
  ASSERT_TRUE(dsms_[0]->Acquire(addr, 4).ok());
  ASSERT_TRUE(dsms_[0]->Write(addr, &new_value, 4).ok());
  ASSERT_TRUE(dsms_[0]->Release(addr, 4).ok());
  // Node 1 must observe the new value (its cached copy was invalidated).
  uint32_t seen = 0;
  for (int attempt = 0; attempt < 200 && seen != new_value; ++attempt) {
    ASSERT_TRUE(dsms_[1]->Read(addr, &seen, 4).ok());
    if (seen != new_value) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(seen, new_value);
}

TEST_F(DsmTest, WriterExclusionSerializesAcquires) {
  uint64_t addr = 7 * LiteDsm::kPageSize;
  ASSERT_TRUE(dsms_[0]->Acquire(addr, 8).ok());
  std::atomic<bool> second_acquired{false};
  std::thread waiter([&] {
    ASSERT_TRUE(dsms_[1]->Acquire(addr, 8).ok());
    second_acquired.store(true);
    ASSERT_TRUE(dsms_[1]->Release(addr, 8).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_acquired.load());
  ASSERT_TRUE(dsms_[0]->Release(addr, 8).ok());
  waiter.join();
  EXPECT_TRUE(second_acquired.load());
}

TEST_F(DsmTest, ConcurrentIncrementsUnderAcquire) {
  uint64_t addr = 9 * LiteDsm::kPageSize;
  {
    uint64_t zero = 0;
    ASSERT_TRUE(dsms_[0]->Acquire(addr, 8).ok());
    ASSERT_TRUE(dsms_[0]->Write(addr, &zero, 8).ok());
    ASSERT_TRUE(dsms_[0]->Release(addr, 8).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(dsms_[t]->Acquire(addr, 8).ok());
        uint64_t value = 0;
        ASSERT_TRUE(dsms_[t]->Read(addr, &value, 8).ok());
        ++value;
        ASSERT_TRUE(dsms_[t]->Write(addr, &value, 8).ok());
        ASSERT_TRUE(dsms_[t]->Release(addr, 8).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t final_value = 0;
  ASSERT_TRUE(dsms_[2]->Read(addr, &final_value, 8).ok());
  EXPECT_EQ(final_value, 60u);
}

TEST_F(DsmTest, MultiPageSpanningAccess) {
  std::vector<uint8_t> pattern(2 * LiteDsm::kPageSize + 500);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i % 253);
  }
  uint64_t addr = LiteDsm::kPageSize - 100;  // Crosses 3 pages.
  ASSERT_TRUE(dsms_[0]->Acquire(addr, static_cast<uint32_t>(pattern.size())).ok());
  ASSERT_TRUE(dsms_[0]->Write(addr, pattern.data(), static_cast<uint32_t>(pattern.size())).ok());
  ASSERT_TRUE(dsms_[0]->Release(addr, static_cast<uint32_t>(pattern.size())).ok());
  std::vector<uint8_t> out(pattern.size());
  ASSERT_TRUE(dsms_[2]->Read(addr, out.data(), static_cast<uint32_t>(out.size())).ok());
  EXPECT_EQ(out, pattern);
}

}  // namespace
}  // namespace liteapp
