#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/apps/lite_log.h"
#include "src/lite/lite_cluster.h"

namespace liteapp {
namespace {

class LiteLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    cluster_ = std::make_unique<lite::LiteCluster>(3, p);
    c0_ = cluster_->CreateClient(0);
  }
  std::unique_ptr<lite::LiteCluster> cluster_;
  std::unique_ptr<lite::LiteClient> c0_;
};

TEST_F(LiteLogTest, CreateAndCommit) {
  auto log = LiteLog::Create(c0_.get(), "log_a", 64 << 10);
  ASSERT_TRUE(log.ok());
  LogEntry entry{"hello log", 9};
  ASSERT_TRUE(log->Commit({entry}).ok());
  auto count = log->CommittedCount();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
}

TEST_F(LiteLogTest, CommittedDataReadableWithHeader) {
  auto log = *LiteLog::Create(c0_.get(), "log_b", 64 << 10);
  LogEntry entry{"payload!", 8};
  ASSERT_TRUE(log.Commit({entry}).ok());
  // Entry header is 8 bytes: magic + len.
  uint8_t raw[16];
  ASSERT_TRUE(log.ReadAt(0, raw, sizeof(raw)).ok());
  uint32_t magic, len;
  std::memcpy(&magic, raw, 4);
  std::memcpy(&len, raw + 4, 4);
  EXPECT_EQ(magic, 0x10c0ffeeu);
  EXPECT_EQ(len, 8u);
  EXPECT_EQ(std::memcmp(raw + 8, "payload!", 8), 0);
}

TEST_F(LiteLogTest, MultiEntryTransactionIsConsecutive) {
  auto log = *LiteLog::Create(c0_.get(), "log_c", 64 << 10);
  LogEntry e1{"aaaa", 4};
  LogEntry e2{"bbbbbbbb", 8};
  ASSERT_TRUE(log.Commit({e1, e2}).ok());
  uint8_t raw[8 + 4 + 8 + 8];
  ASSERT_TRUE(log.ReadAt(0, raw, sizeof(raw)).ok());
  EXPECT_EQ(std::memcmp(raw + 8, "aaaa", 4), 0);
  EXPECT_EQ(std::memcmp(raw + 8 + 4 + 8, "bbbbbbbb", 8), 0);
}

TEST_F(LiteLogTest, OpenFromRemoteNodeAndCommit) {
  ASSERT_TRUE(LiteLog::Create(c0_.get(), "log_d", 64 << 10).ok());
  auto c1 = cluster_->CreateClient(1);
  auto opened = LiteLog::Open(c1.get(), "log_d");
  ASSERT_TRUE(opened.ok());
  LogEntry entry{"remote writer", 13};
  ASSERT_TRUE(opened->Commit({entry}).ok());
  EXPECT_EQ(*opened->CommittedCount(), 1u);
}

TEST_F(LiteLogTest, ConcurrentWritersReserveDisjointSpace) {
  auto log = *LiteLog::Create(c0_.get(), "log_e", 1 << 20);
  constexpr int kWriters = 3;
  constexpr int kTxPerWriter = 40;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto client = cluster_->CreateClient(static_cast<lt::NodeId>(w));
      auto my_log = *LiteLog::Open(client.get(), "log_e");
      for (int i = 0; i < kTxPerWriter; ++i) {
        uint64_t stamp = (static_cast<uint64_t>(w) << 32) | static_cast<uint64_t>(i);
        LogEntry entry{&stamp, sizeof(stamp)};
        ASSERT_TRUE(my_log.Commit({entry}).ok());
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(*log.CommittedCount(), static_cast<uint64_t>(kWriters * kTxPerWriter));

  // Every stamp must appear exactly once in the log (no overlapping space).
  std::vector<uint8_t> raw(kWriters * kTxPerWriter * 16);
  ASSERT_TRUE(log.ReadAt(0, raw.data(), raw.size()).ok());
  std::set<uint64_t> seen;
  for (size_t off = 0; off + 16 <= raw.size(); off += 16) {
    uint32_t magic;
    std::memcpy(&magic, raw.data() + off, 4);
    ASSERT_EQ(magic, 0x10c0ffeeu) << "corrupt entry at " << off;
    uint64_t stamp;
    std::memcpy(&stamp, raw.data() + off + 8, 8);
    EXPECT_TRUE(seen.insert(stamp).second) << "duplicate stamp";
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kWriters * kTxPerWriter));
}

TEST_F(LiteLogTest, CleanerReclaimsCommittedSpace) {
  auto log = *LiteLog::Create(c0_.get(), "log_f", 64 << 10);
  for (int i = 0; i < 10; ++i) {
    uint64_t v = i;
    LogEntry entry{&v, 8};
    ASSERT_TRUE(log.Commit({entry}).ok());
  }
  auto reclaimed = log.Clean();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 10u * 16u);
  // Nothing more to reclaim.
  EXPECT_EQ(*log.Clean(), 0u);
}

TEST_F(LiteLogTest, CleanerLockExcludesSecondCleaner) {
  auto log = *LiteLog::Create(c0_.get(), "log_g", 64 << 10);
  uint64_t v = 1;
  ASSERT_TRUE(log.Commit({LogEntry{&v, 8}}).ok());
  // Two cleaners from different nodes: total reclaimed equals bytes written
  // exactly once.
  auto c1 = cluster_->CreateClient(1);
  auto log1 = *LiteLog::Open(c1.get(), "log_g");
  uint64_t total = *log.Clean() + *log1.Clean();
  EXPECT_EQ(total, 16u);
}

TEST_F(LiteLogTest, EmptyTransactionRejected) {
  auto log = *LiteLog::Create(c0_.get(), "log_h", 4096);
  EXPECT_FALSE(log.Commit({}).ok());
}

TEST_F(LiteLogTest, WrapAroundKeepsWriting) {
  auto log = *LiteLog::Create(c0_.get(), "log_i", 4096);
  std::vector<uint8_t> blob(512, 0xcd);
  for (int i = 0; i < 20; ++i) {  // 20 * (512+8) > 4096: wraps.
    ASSERT_TRUE(log.Commit({LogEntry{blob.data(), 512}}).ok());
  }
  EXPECT_EQ(*log.CommittedCount(), 20u);
}

TEST_F(LiteLogTest, OpenUnknownLogFails) {
  EXPECT_FALSE(LiteLog::Open(c0_.get(), "nonexistent_log").ok());
}

}  // namespace
}  // namespace liteapp
