// Unit tests for the asynchronous memop fast path: LT_read_async /
// LT_write_async completion handles, Poll/Wait/WaitAll retirement, the
// per-instance in-flight window, selective-signaling inference, retry
// across injected drops, and ops that are done at registration.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace lite {
namespace {

using lt::StatusCode;

class LiteAsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    cluster_ = std::make_unique<LiteCluster>(2, p);
    client_ = cluster_->CreateClient(0, /*kernel_level=*/true);
    MallocOptions on1;
    on1.nodes = {1};
    lh_ = *client_->Malloc(kRegion, "async_remote", on1);
  }

  static constexpr uint64_t kRegion = 64 << 10;

  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> client_;
  Lh lh_ = kInvalidLh;
};

TEST_F(LiteAsyncTest, WriteAsyncThenReadAsyncRoundtrip) {
  constexpr int kOps = 32;
  std::vector<uint64_t> vals(kOps);
  for (int i = 0; i < kOps; ++i) {
    vals[i] = 0xa5a5'0000ull + static_cast<uint64_t>(i);
    auto h = client_->WriteAsync(lh_, 8 * static_cast<uint64_t>(i), &vals[i], 8);
    ASSERT_TRUE(h.ok());
  }
  ASSERT_TRUE(client_->WaitAll().ok());
  EXPECT_EQ(cluster_->instance(0)->AsyncInFlight(), 0u);

  std::vector<uint64_t> back(kOps, 0);
  std::vector<MemopHandle> handles;
  for (int i = 0; i < kOps; ++i) {
    auto h = client_->ReadAsync(lh_, 8 * static_cast<uint64_t>(i), &back[i], 8);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  for (MemopHandle h : handles) {
    ASSERT_TRUE(client_->Wait(h).ok());
  }
  EXPECT_EQ(back, vals);
}

TEST_F(LiteAsyncTest, AsyncWritesVisibleToBlockingRead) {
  // The async path must land the same bytes the blocking path would.
  std::vector<uint8_t> pattern(4096);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  auto h = client_->WriteAsync(lh_, 512, pattern.data(), pattern.size());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(client_->Wait(*h).ok());
  std::vector<uint8_t> back(pattern.size());
  ASSERT_TRUE(client_->Read(lh_, 512, back.data(), back.size()).ok());
  EXPECT_EQ(back, pattern);
}

TEST_F(LiteAsyncTest, SameOffsetWritesRetireInIssueOrder) {
  // All writes from one thread ride one sticky QP, so QP FIFO ordering makes
  // the last-issued value the final one.
  for (uint64_t i = 1; i <= 24; ++i) {
    auto h = client_->WriteAsync(lh_, 0, &i, 8);
    ASSERT_TRUE(h.ok());
  }
  ASSERT_TRUE(client_->WaitAll().ok());
  uint64_t back = 0;
  ASSERT_TRUE(client_->Read(lh_, 0, &back, 8).ok());
  EXPECT_EQ(back, 24u);
}

TEST_F(LiteAsyncTest, PollTransitionsToDoneAndConsumes) {
  uint64_t v = 0xbeef;
  auto h = client_->WriteAsync(lh_, 64, &v, 8);
  ASSERT_TRUE(h.ok());
  bool done = false;
  for (int i = 0; i < 100000 && !done; ++i) {
    auto r = client_->Poll(*h);
    ASSERT_TRUE(r.ok());
    done = *r;
    if (!done) {
      lt::SpinFor(100);  // Make virtual-time progress between polls.
    }
  }
  EXPECT_TRUE(done);
  // The handle was consumed by the successful poll.
  EXPECT_EQ(client_->Poll(*h).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client_->Wait(*h).code(), StatusCode::kInvalidArgument);
}

TEST_F(LiteAsyncTest, WaitConsumesHandleOnce) {
  uint64_t v = 1;
  auto h = client_->WriteAsync(lh_, 0, &v, 8);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(client_->Wait(*h).ok());
  EXPECT_EQ(client_->Wait(*h).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client_->Wait(MemopHandle{0x7777777}).code(), StatusCode::kInvalidArgument);
}

TEST_F(LiteAsyncTest, WaitAllOnIdleInstanceIsOk) {
  EXPECT_TRUE(client_->WaitAll().ok());
  EXPECT_EQ(cluster_->instance(0)->AsyncInFlight(), 0u);
}

TEST_F(LiteAsyncTest, LocalPiecesCompleteAtIssue) {
  MallocOptions local;
  local.nodes = {0};
  auto lh = *client_->Malloc(4096, "async_local", local);
  uint64_t v = 0x10ca1;
  auto h = client_->WriteAsync(lh, 128, &v, 8);
  ASSERT_TRUE(h.ok());
  // Purely local ops never occupy the in-flight window.
  EXPECT_EQ(cluster_->instance(0)->AsyncInFlight(), 0u);
  ASSERT_TRUE(client_->Wait(*h).ok());
  uint64_t back = 0;
  ASSERT_TRUE(client_->Read(lh, 128, &back, 8).ok());
  EXPECT_EQ(back, v);
}

TEST_F(LiteAsyncTest, IssueErrorsSurfaceWithoutHandle) {
  uint64_t v = 0;
  EXPECT_EQ(client_->WriteAsync(lh_, kRegion - 4, &v, 8).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(client_->ReadAsync(Lh{987654}, 0, &v, 8).status().code(), StatusCode::kNotFound);
}

TEST_F(LiteAsyncTest, SelectiveSignalingCountersAdvance) {
  constexpr int kOps = 64;
  uint64_t v = 0x51;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(client_->WriteAsync(lh_, 8 * static_cast<uint64_t>(i % 64), &v, 8).ok());
  }
  ASSERT_TRUE(client_->WaitAll().ok());
  auto* inst = cluster_->instance(0);
  EXPECT_GE(inst->Stat("lite.async.ops"), kOps);
  // Async WQEs go out unsignaled except every K-th; completions for the
  // unsignaled prefix are inferred from covers (or fenced).
  const int64_t unsignaled = inst->Stat("lite.rnic.wqe_unsignaled");
  const int64_t signaled = inst->Stat("lite.rnic.wqe_signaled");
  EXPECT_GT(unsignaled, 0);
  EXPECT_GT(signaled, 0);
  EXPECT_GT(unsignaled, signaled);
  EXPECT_GT(inst->Stat("lite.async.inferred_completions"), 0);
  // Back-to-back posts to the sticky QP coalesce doorbells.
  EXPECT_GT(inst->Stat("lite.rnic.wqes_batched"), 0);
  EXPECT_GT(inst->Stat("lite.rnic.doorbells"), 0);
  EXPECT_GT(inst->Stat("lite.rnic.inline_sends"), 0);
}

TEST_F(LiteAsyncTest, RetryAcrossInjectedDropPreservesData) {
  uint64_t v = 0xd20b;
  cluster_->faults().DropNextTransfers(0, 1, 1);
  auto h = client_->WriteAsync(lh_, 256, &v, 8);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(client_->Wait(*h).ok());
  EXPECT_GT(cluster_->instance(0)->Stat("lite.oneside.retries"), 0);
  uint64_t back = 0;
  ASSERT_TRUE(client_->Read(lh_, 256, &back, 8).ok());
  EXPECT_EQ(back, v);
  EXPECT_GT(cluster_->faults().drops(), 0u);
}

TEST_F(LiteAsyncTest, DropStormInsideOpenWindowRecovers) {
  // Fill a window, then drop a burst mid-stream: every op must still land.
  std::vector<uint64_t> vals(48);
  std::deque<MemopHandle> window;
  for (int i = 0; i < 48; ++i) {
    vals[i] = 0xdead'0000ull + static_cast<uint64_t>(i);
    if (i == 20) {
      cluster_->faults().DropNextTransfers(0, 1, 3);
    }
    auto h = client_->WriteAsync(lh_, 8 * static_cast<uint64_t>(i), &vals[i], 8);
    ASSERT_TRUE(h.ok());
    window.push_back(*h);
    if (window.size() >= 16) {
      ASSERT_TRUE(client_->Wait(window.front()).ok());
      window.pop_front();
    }
  }
  while (!window.empty()) {
    ASSERT_TRUE(client_->Wait(window.front()).ok());
    window.pop_front();
  }
  std::vector<uint64_t> back(48, 0);
  ASSERT_TRUE(client_->Read(lh_, 0, back.data(), back.size() * 8).ok());
  EXPECT_EQ(back, vals);
}

TEST(LiteAsyncWindowTest, WindowFullBackpressureRetiresOldest) {
  LiteCluster cluster(2, lt::SimParams{});
  auto client = cluster.CreateClient(0, /*kernel_level=*/true);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "win", on1);
  uint64_t v = 0x77;
  std::vector<MemopHandle> handles;
  // Eight windows' worth of writes: the window fills and stays full.
  for (size_t i = 0; i < 8 * kAsyncWindow; ++i) {
    auto h = client->WriteAsync(lh, 8 * (i % 64), &v, 8);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
    // The issuing thread retires the oldest op itself once the window fills.
    EXPECT_LE(cluster.instance(0)->AsyncInFlight(), kAsyncWindow);
  }
  EXPECT_TRUE(client->WaitAll().ok());
  EXPECT_EQ(cluster.instance(0)->AsyncInFlight(), 0u);
  // Every handle was consumed by WaitAll.
  for (MemopHandle h : handles) {
    EXPECT_EQ(client->Wait(h).code(), StatusCode::kInvalidArgument);
  }
}

// ---- Ops done at registration ---------------------------------------------

// The `lite.lat.awrite.64B.hi.e2e` histogram of `inst`'s node.
lt::telemetry::HistogramSnapshot AwriteE2e(LiteInstance* inst) {
  const auto snap = inst->StatSnapshot();
  auto it = snap.histograms.find("lite.lat.awrite.64B.hi.e2e");
  return it == snap.histograms.end() ? lt::telemetry::HistogramSnapshot{} : it->second;
}

TEST(LiteAsyncDoneAtEntryTest, CommitsOneSampleAtRegistration) {
  // An op that is done when it registers (every piece local, or a ring
  // handle whose LMR was freed before its drain) commits its record there:
  // one sample each, and the watchdog's invariants hold once WaitAll drains.
  uint64_t v = 0xd0;
  MallocOptions on0;
  on0.nodes = {0};
  MallocOptions on1;
  on1.nodes = {1};
  {
    LiteCluster cluster(2, lt::SimParams{});
    auto client = cluster.CreateClient(0);  // User level, rings off.
    auto lh = *client->Malloc(4096, "entry_local", on0);
    const auto before = AwriteE2e(cluster.instance(0));
    const uint64_t t0 = lt::NowNs();
    auto h = client->WriteAsync(lh, 0, &v, 8);
    const uint64_t elapsed = lt::NowNs() - t0;
    ASSERT_TRUE(h.ok());
    const auto after = AwriteE2e(cluster.instance(0));
    EXPECT_EQ(after.count, before.count + 1);
    EXPECT_EQ(after.sum - before.sum, elapsed);
    ASSERT_TRUE(client->WaitAll().ok());
    EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
  }
  {
    lt::SimParams p;
    p.lite_ring_enable = true;
    p.lite_ring_doorbell_batch = 64;  // Nothing drains before the reap.
    LiteCluster cluster(2, p);
    auto client = cluster.CreateClient(0);  // User level: rides the rings.
    auto lh = *client->Malloc(4096, "entry_ring_local", on0);
    auto gone = *client->Malloc(4096, "entry_ring_gone", on1);
    LiteInstance* inst = cluster.instance(0);

    auto before = AwriteE2e(inst);
    auto h = client->WriteAsync(lh, 0, &v, 8);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(client->Wait(*h).ok());
    EXPECT_EQ(AwriteE2e(inst).count, before.count + 1);

    before = AwriteE2e(inst);
    ASSERT_TRUE(client->WriteAsync(gone, 0, &v, 8).ok());
    ASSERT_TRUE(client->Free(gone).ok());  // Control plane: does not flush rings.
    EXPECT_EQ(client->WaitAll().code(), StatusCode::kNotFound);
    EXPECT_EQ(AwriteE2e(inst).count, before.count + 1);
    EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
  }
}

}  // namespace
}  // namespace lite
