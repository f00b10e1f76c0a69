// Unit tests for the asynchronous memop fast path: LT_read_async /
// LT_write_async completion handles, Poll/Wait/WaitAll retirement, the
// per-instance in-flight window, selective-signaling inference, retry
// across injected drops, and the async RPC handle reuse.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <thread>
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

// ---- Async RPC through the same completion-handle engine -------------------

constexpr RpcFuncId kEchoFunc = 21;

class EchoServer {
 public:
  EchoServer(LiteCluster* cluster, lt::NodeId node)
      : client_(cluster->CreateClient(node, /*kernel_level=*/true)) {
    EXPECT_TRUE(client_->RegisterRpc(kEchoFunc).ok());
    thread_ = std::thread([this] {
      while (!stopping_.load()) {
        auto inc = client_->RecvRpc(kEchoFunc, 20'000'000);
        if (inc.ok()) {
          (void)client_->ReplyRpc(inc->token, inc->data.data(),
                                  static_cast<uint32_t>(inc->data.size()));
        }
      }
    });
  }
  ~EchoServer() {
    stopping_.store(true);
    thread_.join();
  }

 private:
  std::unique_ptr<LiteClient> client_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

TEST(LiteAsyncRpcTest, RpcAsyncDeliversReplyThroughHandle) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1);
  auto* inst = cluster.instance(0);
  const char msg[] = "async rpc payload";
  char out[64] = {0};
  uint32_t out_len = 0;
  auto h = inst->RpcAsync(1, kEchoFunc, msg, sizeof(msg), out, sizeof(out), &out_len);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(inst->Wait(*h).ok());
  ASSERT_EQ(out_len, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST(LiteAsyncRpcTest, RpcAsyncPollDoesNotBlock) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1);
  auto* inst = cluster.instance(0);
  uint64_t in = 42, out = 0;
  uint32_t out_len = 0;
  auto h = inst->RpcAsync(1, kEchoFunc, &in, 8, &out, 8, &out_len);
  ASSERT_TRUE(h.ok());
  bool done = false;
  const uint64_t deadline = lt::RealNowNs() + 20'000'000'000ull;
  while (!done && lt::RealNowNs() < deadline) {
    auto r = inst->Poll(*h);
    ASSERT_TRUE(r.ok());
    done = *r;
    if (!done) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(out_len, 8u);
}

// Mixed memop + RPC handles drain together through WaitAll.
TEST(LiteAsyncRpcTest, WaitAllDrainsMixedMemopsAndRpcs) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1);
  auto client = cluster.CreateClient(0, /*kernel_level=*/true);
  auto* inst = cluster.instance(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "mixed", on1);
  uint64_t v = 9, rpc_out = 0;
  uint32_t rpc_out_len = 0;
  ASSERT_TRUE(client->WriteAsync(lh, 0, &v, 8).ok());
  ASSERT_TRUE(inst->RpcAsync(1, kEchoFunc, &v, 8, &rpc_out, 8, &rpc_out_len).ok());
  ASSERT_TRUE(client->WriteAsync(lh, 8, &v, 8).ok());
  ASSERT_TRUE(client->WaitAll().ok());
  EXPECT_EQ(inst->AsyncInFlight(), 0u);
  EXPECT_EQ(rpc_out, 9u);
}

}  // namespace
}  // namespace lite
