#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace lite {
namespace {

using lt::StatusCode;

class LiteSyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    cluster_ = std::make_unique<LiteCluster>(3, p);
    c0_ = cluster_->CreateClient(0);
    c1_ = cluster_->CreateClient(1);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_, c1_;
};

TEST_F(LiteSyncTest, FetchAddLocalAndRemote) {
  auto lh = c0_->Malloc(64, "fa_word");
  uint64_t zero = 0;
  ASSERT_TRUE(c0_->Write(*lh, 0, &zero, 8).ok());
  auto old1 = c0_->FetchAdd(*lh, 0, 5);
  ASSERT_TRUE(old1.ok());
  EXPECT_EQ(*old1, 0u);
  // From another node.
  auto mapped = c1_->Map("fa_word");
  auto old2 = c1_->FetchAdd(*mapped, 0, 3);
  ASSERT_TRUE(old2.ok());
  EXPECT_EQ(*old2, 5u);
  uint64_t value = 0;
  ASSERT_TRUE(c0_->Read(*lh, 0, &value, 8).ok());
  EXPECT_EQ(value, 8u);
}

TEST_F(LiteSyncTest, FetchAddIsAtomicUnderContention) {
  // Two threads on the word's home node (issuer-local atomics) race two on
  // other nodes (responder-side atomics): neither side may lose an update.
  constexpr int kPerThread = 5000;
  auto lh = c0_->Malloc(64, "fa_race");
  uint64_t zero = 0;
  ASSERT_TRUE(c0_->Write(*lh, 0, &zero, 8).ok());
  std::vector<std::thread> threads;
  for (lt::NodeId node : {0, 0, 1, 2}) {
    threads.emplace_back([&, node] {
      auto client = cluster_->CreateClient(node);
      auto mapped = client->Map("fa_race");
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(client->FetchAdd(*mapped, 0, 1).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t value = 0;
  ASSERT_TRUE(c0_->Read(*lh, 0, &value, 8).ok());
  EXPECT_EQ(value, 4u * kPerThread);
}

TEST_F(LiteSyncTest, TestSetSemantics) {
  auto lh = c0_->Malloc(64, "ts_word");
  uint64_t zero = 0;
  ASSERT_TRUE(c0_->Write(*lh, 0, &zero, 8).ok());
  auto won = c0_->TestSet(*lh, 0, 0, 7);
  ASSERT_TRUE(won.ok());
  EXPECT_EQ(*won, 0u);  // Old value: we won.
  auto lost = c1_->Map("ts_word");
  auto second = c1_->TestSet(*lost, 0, 0, 9);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 7u);  // Someone else holds it.
  uint64_t value = 0;
  ASSERT_TRUE(c0_->Read(*lh, 0, &value, 8).ok());
  EXPECT_EQ(value, 7u);
}

TEST_F(LiteSyncTest, AtomicOffsetMustBeAligned) {
  auto lh = c0_->Malloc(64, "align_word");
  EXPECT_FALSE(c0_->FetchAdd(*lh, 3, 1).ok());
}

TEST_F(LiteSyncTest, UncontendedLockFastPath) {
  auto lock = c0_->CreateLock("fast_lock");
  ASSERT_TRUE(lock.ok());
  ASSERT_TRUE(c0_->Lock(*lock).ok());
  ASSERT_TRUE(c0_->Unlock(*lock).ok());
  // Immediately reacquirable.
  ASSERT_TRUE(c0_->Lock(*lock).ok());
  ASSERT_TRUE(c0_->Unlock(*lock).ok());
}

TEST_F(LiteSyncTest, UnlockWithoutHoldFails) {
  auto lock = c0_->CreateLock("empty_lock");
  EXPECT_EQ(c0_->Unlock(*lock).code(), StatusCode::kFailedPrecondition);
}

TEST_F(LiteSyncTest, LockMutualExclusionAcrossNodes) {
  auto lock = c0_->CreateLock("mutex_lock");
  ASSERT_TRUE(lock.ok());
  auto shared = c0_->Malloc(64, "protected_counter");
  uint64_t zero = 0;
  ASSERT_TRUE(c0_->Write(*shared, 0, &zero, 8).ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster_->CreateClient(static_cast<lt::NodeId>(t));
      auto my_lock = t == 0 ? *lock : *client->OpenLock("mutex_lock");
      auto my_lh = t == 0 ? *shared : *client->Map("protected_counter");
      for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(client->Lock(my_lock).ok());
        // Non-atomic read-modify-write: only safe under the lock.
        uint64_t value = 0;
        ASSERT_TRUE(client->Read(my_lh, 0, &value, 8).ok());
        ++value;
        ASSERT_TRUE(client->Write(my_lh, 0, &value, 8).ok());
        ASSERT_TRUE(client->Unlock(my_lock).ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t value = 0;
  ASSERT_TRUE(c0_->Read(*shared, 0, &value, 8).ok());
  EXPECT_EQ(value, 90u);
}

TEST_F(LiteSyncTest, LockGrantWakesWaiter) {
  auto lock = c0_->CreateLock("handoff_lock");
  ASSERT_TRUE(c0_->Lock(*lock).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto client = cluster_->CreateClient(1);
    auto my_lock = *client->OpenLock("handoff_lock");
    ASSERT_TRUE(client->Lock(my_lock).ok());
    acquired.store(true);
    ASSERT_TRUE(client->Unlock(my_lock).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());  // Still held by us.
  ASSERT_TRUE(c0_->Unlock(*lock).ok());
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST_F(LiteSyncTest, BarrierReleasesAllTogether) {
  std::atomic<int> arrived{0};
  std::atomic<int> released{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster_->CreateClient(static_cast<lt::NodeId>(t));
      arrived.fetch_add(1);
      ASSERT_TRUE(client->Barrier("b3", 3).ok());
      released.fetch_add(1);
    });
    // Stagger arrivals; no one may pass early.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (t < 2) {
      EXPECT_EQ(released.load(), 0);
    }
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(released.load(), 3);
}

TEST_F(LiteSyncTest, BarrierReusableByName) {
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        auto client = cluster_->CreateClient(static_cast<lt::NodeId>(t));
        ASSERT_TRUE(client->Barrier("reuse_b", 2).ok());
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
}

TEST_F(LiteSyncTest, BarrierSynchronizesVirtualClocks) {
  // A thread that did lots of virtual work and one that did none meet at the
  // barrier: the late-clock thread must be pulled forward.
  uint64_t fast_end = 0;
  uint64_t slow_end = 0;
  std::thread fast([&] {
    auto client = cluster_->CreateClient(1);
    lt::SpinFor(5'000'000);  // 5 ms of virtual work.
    ASSERT_TRUE(client->Barrier("clock_b", 2).ok());
    fast_end = lt::NowNs();
  });
  std::thread slow([&] {
    auto client = cluster_->CreateClient(2);
    ASSERT_TRUE(client->Barrier("clock_b", 2).ok());
    slow_end = lt::NowNs();
  });
  fast.join();
  slow.join();
  EXPECT_GE(slow_end, 5'000'000u);
  EXPECT_GE(fast_end, 5'000'000u);
}

TEST_F(LiteSyncTest, OpenUnknownLockFails) {
  EXPECT_FALSE(c0_->OpenLock("no_such_lock").ok());
}

TEST_F(LiteSyncTest, UncontendedLockLatencyMatchesPaper) {
  // Paper Sec. 7.2: uncontended acquire ~2.2 us (one fetch-add RTT).
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  LiteCluster cluster(2, p);
  auto creator = cluster.CreateClient(0, /*kernel_level=*/true);
  ASSERT_TRUE(creator->CreateLock("timed_lock").ok());
  auto client = cluster.CreateClient(1, /*kernel_level=*/true);
  auto lock = client->OpenLock("timed_lock");
  ASSERT_TRUE(lock.ok());
  uint64_t t0 = lt::NowNs();
  const int kOps = 10;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(client->Lock(*lock).ok());
    ASSERT_TRUE(client->Unlock(*lock).ok());
  }
  uint64_t per_acquire = (lt::NowNs() - t0) / (2 * kOps);  // Lock+unlock pairs.
  EXPECT_GE(per_acquire, 800u);
  EXPECT_LE(per_acquire, 5000u);
}

}  // namespace
}  // namespace lite
