#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"
#include "src/lite/wire.h"

namespace lite {
namespace {

using lt::StatusCode;

// Simple echo server running on a node until stopped.
class EchoServer {
 public:
  EchoServer(LiteCluster* cluster, lt::NodeId node, RpcFuncId func, bool use_reply_and_recv = false)
      : client_(cluster->CreateClient(node, /*kernel_level=*/true)), func_(func) {
    (void)client_->RegisterRpc(func_);
    thread_ = std::thread([this, use_reply_and_recv] { Run(use_reply_and_recv); });
  }

  ~EchoServer() {
    stopping_.store(true);
    thread_.join();
  }

  int served() const { return served_.load(); }
  // Lets a test stop many servers at once before their destructors join.
  void RequestStop() { stopping_.store(true); }

 private:
  void Run(bool use_reply_and_recv) {
    ReplyToken pending;
    std::vector<uint8_t> pending_data;
    while (!stopping_.load()) {
      lt::StatusOr<RpcIncoming> inc = lt::Status::Unavailable("");
      if (use_reply_and_recv && pending.valid()) {
        inc = client_->ReplyAndRecv(pending, pending_data.data(),
                                    static_cast<uint32_t>(pending_data.size()), func_,
                                    50'000'000);
        pending = ReplyToken{};
      } else {
        inc = client_->RecvRpc(func_, 50'000'000);
      }
      if (!inc.ok()) {
        continue;
      }
      served_.fetch_add(1);
      // Echo with a marker prefix.
      std::vector<uint8_t> reply;
      reply.push_back(0xee);
      reply.insert(reply.end(), inc->data.begin(), inc->data.end());
      if (use_reply_and_recv) {
        pending = inc->token;
        pending_data = std::move(reply);
      } else {
        (void)client_->ReplyRpc(inc->token, reply.data(), static_cast<uint32_t>(reply.size()));
      }
    }
    if (pending.valid()) {
      (void)client_->ReplyRpc(pending, pending_data.data(),
                              static_cast<uint32_t>(pending_data.size()));
    }
  }

  std::unique_ptr<LiteClient> client_;
  const RpcFuncId func_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> served_{0};
};

class LiteRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    // Ring and slot pool sized so the ring tests below wrap and recycle.
    p.lite_rpc_ring_bytes = 128 << 10;
    p.lite_reply_slots = 128;
    cluster_ = std::make_unique<LiteCluster>(3, p);
    c0_ = cluster_->CreateClient(0);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_;
};

TEST_F(LiteRpcTest, BasicCallAndReply) {
  EchoServer server(cluster_.get(), 1, 7);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 7, "ping", 4, out, sizeof(out), &out_len).ok());
  ASSERT_EQ(out_len, 5u);
  EXPECT_EQ(static_cast<uint8_t>(out[0]), 0xee);
  EXPECT_EQ(std::memcmp(out + 1, "ping", 4), 0);
}

TEST_F(LiteRpcTest, EmptyInputAllowed) {
  EchoServer server(cluster_.get(), 1, 8);
  char out[8];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 8, nullptr, 0, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 1u);
}

TEST_F(LiteRpcTest, SelfCallViaLoopback) {
  EchoServer server(cluster_.get(), 0, 9);
  char out[16];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(0, 9, "self", 4, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 5u);
}

TEST_F(LiteRpcTest, ManySequentialCallsRecycleRing) {
  EchoServer server(cluster_.get(), 1, 10);
  // Enough traffic to wrap the fixture's 128 KB ring about seven times.
  std::vector<uint8_t> payload(3000, 0x42);
  char out[4096];
  uint32_t out_len = 0;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(c0_->Rpc(1, 10, payload.data(), static_cast<uint32_t>(payload.size()), out,
                         sizeof(out), &out_len)
                    .ok())
        << "call " << i;
    ASSERT_EQ(out_len, payload.size() + 1);
  }
  EXPECT_EQ(server.served(), 300);
}

TEST_F(LiteRpcTest, ConcurrentClientsOneServer) {
  EchoServer server(cluster_.get(), 2, 11);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster_->CreateClient(t % 2);
      char out[64];
      uint32_t out_len = 0;
      for (int i = 0; i < 50; ++i) {
        std::string msg = "t" + std::to_string(t) + "_" + std::to_string(i);
        auto st = client->Rpc(2, 11, msg.data(), static_cast<uint32_t>(msg.size()), out,
                              sizeof(out), &out_len);
        if (!st.ok() || out_len != msg.size() + 1 ||
            std::memcmp(out + 1, msg.data(), msg.size()) != 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.served(), 200);
}

TEST_F(LiteRpcTest, ReplyAndRecvCombinedApi) {
  EchoServer server(cluster_.get(), 1, 12, /*use_reply_and_recv=*/true);
  char out[64];
  uint32_t out_len = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c0_->Rpc(1, 12, "combo", 5, out, sizeof(out), &out_len).ok());
    EXPECT_EQ(out_len, 6u);
  }
}

TEST_F(LiteRpcTest, MulticastCollectsAllReplies) {
  EchoServer s1(cluster_.get(), 1, 13);
  EchoServer s2(cluster_.get(), 2, 13);
  std::vector<std::vector<uint8_t>> replies;
  ASSERT_TRUE(c0_->MulticastRpc({1, 2}, 13, "mc", 2, &replies).ok());
  ASSERT_EQ(replies.size(), 2u);
  for (const auto& r : replies) {
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0], 0xee);
    EXPECT_EQ(std::memcmp(r.data() + 1, "mc", 2), 0);
  }
}

TEST_F(LiteRpcTest, AppFuncIdRangeEnforced) {
  EXPECT_FALSE(c0_->RegisterRpc(1000).ok());
  EXPECT_TRUE(c0_->RegisterRpc(999).ok());

  // Ids above kMaxAppFuncId are LITE's control plane: no application call
  // reaches it. A well-formed kFnUnregisterName to the manager (node 0)
  // must not drop another node's name.
  auto owner = cluster_->CreateClient(1);
  ASSERT_TRUE(owner->Malloc(4096, "victim").ok());
  WireWriter w;
  w.PutString("victim");
  const auto& in = w.bytes();
  const auto in_len = static_cast<uint32_t>(in.size());
  char out[16];
  uint32_t out_len = 0;
  EXPECT_EQ(c0_->Rpc(0, kFnUnregisterName, in.data(), in_len, out, sizeof(out), &out_len).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster_->instance(0)
                ->RpcAsync(0, kFnUnregisterName, in.data(), in_len, out, sizeof(out), &out_len)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(c0_->MulticastRpc({0}, kFnUnregisterName, in.data(), in_len, nullptr).code(),
            StatusCode::kInvalidArgument);
  // Nor can an application receive on a reserved id (kMsgFuncId is LT_send's).
  EXPECT_EQ(c0_->RecvRpc(kMsgFuncId, 1'000'000).status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(cluster_->CreateClient(2)->Map("victim").ok());
}

TEST_F(LiteRpcTest, OversizedInputRejected) {
  EchoServer server(cluster_.get(), 1, 14);
  std::vector<uint8_t> huge(cluster_->params().lite_rpc_ring_bytes + 1);
  char out[8];
  uint32_t out_len;
  auto st = c0_->Rpc(1, 14, huge.data(), static_cast<uint32_t>(huge.size()), out, sizeof(out),
                     &out_len);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(LiteRpcTest, ReplyLargerThanBufferTruncates) {
  EchoServer server(cluster_.get(), 1, 15);
  char out[4];
  uint32_t out_len = 0;
  auto st = c0_->Rpc(1, 15, "0123456789", 10, out, sizeof(out), &out_len);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(out_len, 11u);  // Full length reported.
}

TEST_F(LiteRpcTest, UnservedFunctionTimesOut) {
  // No server registered anywhere for func 20; request lands in the queue
  // and no reply ever comes.
  lt::SimParams p;
  p.lite_rpc_timeout_ns = 50'000'000;  // 50 ms.
  LiteCluster small(2, p);
  auto client = small.CreateClient(0);
  char out[8];
  uint32_t out_len;
  auto st = client->Rpc(1, 20, "x", 1, out, sizeof(out), &out_len);
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
}

TEST_F(LiteRpcTest, SendMsgAndRecvMsg) {
  auto c1 = cluster_->CreateClient(1);
  ASSERT_TRUE(c0_->SendMsg(1, "hello msg", 9).ok());
  auto msg = c1->RecvMsg(1'000'000'000);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->src, 0u);
  ASSERT_EQ(msg->data.size(), 9u);
  EXPECT_EQ(std::memcmp(msg->data.data(), "hello msg", 9), 0);
}

// One sender's messages share one ring and arrive in send order: on a clean
// link, where the first write-imm's cold QPC and MPT misses let later ones
// complete before it, and on a link whose 5 us jitter reorders the writes on
// the wire. Parameter: the jitter on link 0->1.
class LiteMsgOrderTest : public LiteRpcTest, public ::testing::WithParamInterface<uint64_t> {};

TEST_P(LiteMsgOrderTest, MessagesArriveInOrderPerSender) {
  lt::LinkFaultRule link;
  link.jitter_ns = GetParam();
  if (link.Active()) {
    cluster_->faults().SetLinkRule(0, 1, link);
  }
  auto c1 = cluster_->CreateClient(1);
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(c0_->SendMsg(1, &i, sizeof(i)).ok());
  }
  for (uint32_t i = 0; i < 50; ++i) {
    auto msg = c1->RecvMsg(1'000'000'000);
    ASSERT_TRUE(msg.ok());
    uint32_t got = 0;
    std::memcpy(&got, msg->data.data(), 4);
    EXPECT_EQ(got, i);
  }
}

INSTANTIATE_TEST_SUITE_P(Links, LiteMsgOrderTest,
                         ::testing::Values(uint64_t{0}, uint64_t{5'000}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return std::string(info.param == 0 ? "Clean" : "Jitter5us");
                         });

TEST_F(LiteRpcTest, RecvMsgTimesOutWhenIdle) {
  auto c1 = cluster_->CreateClient(1);
  auto msg = c1->RecvMsg(10'000'000);
  EXPECT_EQ(msg.status().code(), StatusCode::kTimeout);
}

// Parameterized reply sizes through the full RPC path.
class LiteRpcSizeTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    lt::SimParams p;
    cluster_ = std::make_unique<LiteCluster>(2, p);
    c0_ = cluster_->CreateClient(0);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_;
};

TEST_P(LiteRpcSizeTest, EchoRoundTrip) {
  uint32_t size = GetParam();
  EchoServer server(cluster_.get(), 1, 21);
  std::vector<uint8_t> in(size);
  for (uint32_t i = 0; i < size; ++i) {
    in[i] = static_cast<uint8_t>(i * 131 + 13);
  }
  std::vector<uint8_t> out(size + 1);
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 21, in.data(), size, out.data(), static_cast<uint32_t>(out.size()),
                       &out_len)
                  .ok());
  ASSERT_EQ(out_len, size + 1);
  EXPECT_EQ(std::memcmp(out.data() + 1, in.data(), size), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LiteRpcSizeTest,
                         ::testing::Values(1, 8, 64, 512, 4096, 8192));

// Latency sanity with full-cost parameters (paper Fig. 10 band).
TEST(LiteRpcLatencyTest, KernelLevelRpcInCalibratedBand) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0, /*kernel_level=*/true);
  EchoServer server(&cluster, 1, 22);
  char out[64];
  uint32_t out_len;
  // Warm the channel.
  ASSERT_TRUE(client->Rpc(1, 22, "warm", 4, out, sizeof(out), &out_len).ok());
  uint64_t t0 = lt::NowNs();
  const int kCalls = 20;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(client->Rpc(1, 22, "12345678", 8, out, sizeof(out), &out_len).ok());
  }
  uint64_t per_call = (lt::NowNs() - t0) / kCalls;
  // Paper Fig. 10: LITE RPC ~4-7 us for small messages.
  EXPECT_GE(per_call, 2000u);
  EXPECT_LE(per_call, 12000u);
}

TEST(LiteRpcLatencyTest, UserLevelAddsCrossingCosts) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1, 23);
  char out[64];
  uint32_t out_len;

  // Kernel-level callers never cross the user/kernel boundary.
  auto kernel_client = cluster.CreateClient(0, /*kernel_level=*/true);
  uint64_t crossings0 = cluster.node(0)->os().crossing_count();
  ASSERT_TRUE(kernel_client->Rpc(1, 23, "x", 1, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(cluster.node(0)->os().crossing_count(), crossings0);

  // User-level callers pay exactly one crossing per API entry; the return
  // rides the shared page (paper Sec. 5.2).
  auto user_client = cluster.CreateClient(0, /*kernel_level=*/false);
  crossings0 = cluster.node(0)->os().crossing_count();
  ASSERT_TRUE(user_client->Rpc(1, 23, "x", 1, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(cluster.node(0)->os().crossing_count(), crossings0 + 1);
}

TEST(LiteRpcLatencyTest, NaiveSyscallModeCostsMore) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1, 24);
  char out[64];
  uint32_t out_len;
  auto naive = cluster.CreateClient(0, /*kernel_level=*/false);
  naive->set_naive_syscalls(true);
  uint64_t syscalls0 = cluster.node(0)->os().syscall_count();
  ASSERT_TRUE(naive->Rpc(1, 24, "x", 1, out, sizeof(out), &out_len).ok());
  EXPECT_GT(cluster.node(0)->os().syscall_count(), syscalls0);
}

// ---- Failure recovery: retries, idempotence, liveness ---------------------

// Short per-try timeout so dropped transfers retry quickly.
class LiteRpcRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    p.lite_rpc_timeout_ns = 50'000'000;  // 50 ms per try
    p.lite_rpc_max_retries = 3;
    cluster_ = std::make_unique<LiteCluster>(2, p);
    c0_ = cluster_->CreateClient(0);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_;
};

TEST_F(LiteRpcRecoveryTest, RetryRecoversFromDroppedRequest) {
  EchoServer server(cluster_.get(), 1, 30);
  // Warm the channel so the next 0->1 transfer is the request itself.
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 30, "warm", 4, out, sizeof(out), &out_len).ok());

  cluster_->faults().DropNextTransfers(0, 1, 1);
  ASSERT_TRUE(c0_->Rpc(1, 30, "dropped once", 12, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 13u);
  EXPECT_EQ(server.served(), 2);  // retry executed the call exactly once
  EXPECT_GT(cluster_->instance(0)->Stat("lite.rpc.retries"), 0);
  // The drop put one of the client's RC QPs into the error state. Posts
  // spread round-robin over the K QPs to the server, so a few more calls are
  // guaranteed to land on the errored one and reconnect it transparently.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c0_->Rpc(1, 30, "cycle", 5, out, sizeof(out), &out_len).ok());
  }
  EXPECT_GT(cluster_->instance(0)->Stat("lite.qp.reconnects"), 0);
  EXPECT_EQ(server.served(), 6);
}

// An RPC request is an unsignaled write-imm: its drop leaves an error
// completion, which the post that sent it takes and drops (the reply timeout
// detects the loss). Nothing is left on any of the client's send CQs.
TEST_F(LiteRpcRecoveryTest, DroppedRequestLeavesNoSendCompletion) {
  EchoServer server(cluster_.get(), 1, 32);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 32, "warm", 4, out, sizeof(out), &out_len).ok());

  cluster_->faults().DropNextTransfers(0, 1, 1);
  ASSERT_TRUE(c0_->Rpc(1, 32, "dropped once", 12, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(cluster_->faults().drops(), 1u);
  EXPECT_EQ(server.served(), 2);
  const Transport& transport = cluster_->instance(0)->transport();
  ASSERT_NE(transport.PoolQp(1, 0), nullptr);
  for (int k = 0; transport.PoolQp(1, k) != nullptr; ++k) {
    EXPECT_EQ(transport.PoolQp(1, k)->send_cq()->Depth(), 0u) << "QP " << k;
  }
}

TEST_F(LiteRpcRecoveryTest, RetryAfterLostReplyDoesNotReexecute) {
  EchoServer server(cluster_.get(), 1, 31);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 31, "warm", 4, out, sizeof(out), &out_len).ok());

  // Let the warm call's async ring-head update drain so the drop budget hits
  // the test call's traffic only.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Kill the next two 1->0 transfers: the test call's head update and its
  // reply write-imm (in whichever order the server threads post them). The
  // retransmitted request hits the server's dedup and is answered from the
  // replay cache.
  cluster_->faults().DropNextTransfers(1, 0, 2);
  ASSERT_TRUE(c0_->Rpc(1, 31, "lost reply", 10, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 11u);
  EXPECT_EQ(std::memcmp(out + 1, "lost reply", 10), 0);
  EXPECT_EQ(server.served(), 2);  // handler did NOT run twice
  EXPECT_GT(cluster_->instance(1)->Stat("lite.rpc.dup_requests"), 0);
  EXPECT_GT(cluster_->instance(1)->Stat("lite.rpc.replayed_replies"), 0);
}

TEST_F(LiteRpcRecoveryTest, DuplicatedRequestExecutesOnce) {
  EchoServer server(cluster_.get(), 1, 32);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 32, "warm", 4, out, sizeof(out), &out_len).ok());

  // Fabric duplicates every 0->1 transfer; per-channel sequence numbers must
  // suppress the second delivery.
  lt::LinkFaultRule dup;
  dup.dup_p = 1.0;
  cluster_->faults().SetLinkRule(0, 1, dup);
  ASSERT_TRUE(c0_->Rpc(1, 32, "twice on the wire", 17, out, sizeof(out), &out_len).ok());
  cluster_->faults().ClearLinkRule(0, 1);

  // The duplicate is deduped on arrival (poll thread), possibly just after
  // the reply; wait for the counter rather than racing it.
  const uint64_t deadline = lt::RealNowNs() + 2'000'000'000ull;
  while (cluster_->instance(1)->Stat("lite.rpc.dup_requests") == 0 &&
         lt::RealNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.served(), 2);  // exactly once per logical call
  EXPECT_GT(cluster_->instance(1)->Stat("lite.rpc.dup_requests"), 0);
}

TEST_F(LiteRpcRecoveryTest, DeadPeerFailsFastWithUnavailable) {
  EchoServer server(cluster_.get(), 1, 33);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 33, "alive", 5, out, sizeof(out), &out_len).ok());

  // Liveness verdict: calls must fail immediately (no timeout burn) with
  // Unavailable — distinct from Timeout ("no reply within the deadline").
  cluster_->instance(0)->SetPeerDead(1, true);
  const uint64_t t0 = lt::RealNowNs();
  lt::Status st = c0_->Rpc(1, 33, "dead", 4, out, sizeof(out), &out_len);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_LT(lt::RealNowNs() - t0, 40'000'000ull);  // well under one try
  EXPECT_GT(cluster_->instance(0)->Stat("lite.rpc.dead_fast_fail"), 0);

  // Revival restores service.
  cluster_->instance(0)->SetPeerDead(1, false);
  EXPECT_TRUE(c0_->Rpc(1, 33, "back", 4, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(server.served(), 2);
}

TEST(LiteRpcRingTest, FirstBindRaceKeepsRingsDraining) {
  // Two threads of one node race their first call to each function of one
  // server, then keep calling until its 4 KB ring has wrapped several times.
  // Both threads must end up polling the head mirror the server ring
  // publishes into; a channel left on the race loser's own mirror never sees
  // the head move, and the ring reads full after one ring's worth of calls.
  lt::SimParams p;
  p.lite_rpc_ring_bytes = 4096;
  p.lite_rpc_timeout_ns = 1'000'000'000;  // A wedged ring fails within 1 s.
  p.lite_rpc_max_retries = 0;
  LiteCluster cluster(2, p);
  constexpr int kFuncs = 40;
  constexpr RpcFuncId kFirstFunc = 100;
  constexpr int kCallsPerThread = 24;  // 48 calls of >= 256 B per 4 KB ring.
  std::vector<std::unique_ptr<EchoServer>> servers;
  for (int f = 0; f < kFuncs; ++f) {
    servers.push_back(std::make_unique<EchoServer>(&cluster, 0, kFirstFunc + f));
  }
  std::atomic<int> arrived{0};
  std::atomic<int> failures{0};
  auto caller = [&](uint8_t tag) {
    auto client = cluster.CreateClient(1, /*kernel_level=*/true);
    const std::vector<uint8_t> payload(200, tag);
    char out[256];
    uint32_t out_len = 0;
    for (int f = 0; f < kFuncs; ++f) {
      // Line both threads up so their first bind to this function races.
      arrived.fetch_add(1);
      while (arrived.load() < 2 * (f + 1) && failures.load() == 0) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kCallsPerThread && failures.load() == 0; ++i) {
        Status st = client->Rpc(0, kFirstFunc + f, payload.data(),
                                static_cast<uint32_t>(payload.size()), out, sizeof(out), &out_len);
        if (!st.ok() || out_len != payload.size() + 1) {
          ADD_FAILURE() << "func " << kFirstFunc + f << " call " << i << ": " << st.ToString();
          failures.fetch_add(1);
        }
      }
    }
  };
  std::thread a(caller, 0xa1);
  std::thread b(caller, 0xb2);
  a.join();
  b.join();
  for (auto& server : servers) {
    server->RequestStop();
  }
  EXPECT_EQ(failures.load(), 0);
  int served = 0;
  for (auto& server : servers) {
    served += server->served();
  }
  EXPECT_EQ(served, kFuncs * 2 * kCallsPerThread);
}

TEST(LiteRpcZombieTest, TimedOutSlotsAreReclaimed) {
  // Exhaust a tiny reply-slot pool with calls that time out (unserved
  // function, no retries), then verify the quarantine sweep recycles the
  // zombie slots so later calls still find capacity. Blocking calls and
  // async calls retired by Wait share one reply wait; both are checked.
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "RpcAsync + Wait" : "Rpc");
    lt::SimParams p;
    p.lite_rpc_timeout_ns = 10'000'000;  // 10 ms
    p.lite_rpc_max_retries = 0;
    p.lite_reply_slots = 4;
    LiteCluster cluster(2, p);
    auto c0 = cluster.CreateClient(0);
    EchoServer server(&cluster, 1, 40);

    char out[64];
    uint32_t out_len = 0;
    auto call = [&](RpcFuncId func, const char* in) -> Status {
      const auto in_len = static_cast<uint32_t>(std::strlen(in));
      if (!async) {
        return c0->Rpc(1, func, in, in_len, out, sizeof(out), &out_len);
      }
      LiteInstance* inst = cluster.instance(0);
      auto h = inst->RpcAsync(1, func, in, in_len, out, sizeof(out), &out_len);
      return h.ok() ? inst->Wait(*h) : h.status();
    };
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(call(999, "void").code(), StatusCode::kTimeout);
    }
    // All four slots are zombies now; they become reclaimable once they are
    // older than the RPC timeout (real time).
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(call(40, "recycled").ok()) << i;
    }
    EXPECT_GT(cluster.instance(0)->Stat("lite.rpc.zombie_reclaimed"), 0);
  }
}

TEST(LiteRpcRingTest, FailedRingSetupLeaksNothing) {
  // A server ring is one physically-consecutive chunk. On a node whose free
  // memory is only holes smaller than a ring, a first bind and a first
  // control call must fail with an error and leave its memory untouched.
  lt::SimParams p;
  p.lite_rpc_ring_bytes = 1 << 20;
  LiteCluster cluster(3, p);
  LiteInstance* n0 = cluster.instance(0);
  // Fill node 1 with 256 KB LMRs, then free every other one. Node 0 holds
  // them, so its control channel to node 1 exists before the fragmentation.
  MallocOptions on_node1;
  on_node1.nodes = {1};
  std::vector<Lh> lmrs;
  while (true) {
    auto lh = n0->Malloc(256 << 10, "frag" + std::to_string(lmrs.size()), on_node1);
    if (!lh.ok()) {
      break;
    }
    lmrs.push_back(*lh);
  }
  ASSERT_GT(lmrs.size(), 16u);
  for (size_t i = 0; i < lmrs.size(); i += 2) {
    ASSERT_TRUE(n0->Free(lmrs[i]).ok());
  }
  const lt::PhysMem& mem1 = cluster.node(1)->mem();
  const uint64_t free_before = mem1.free_bytes();
  ASSERT_GT(free_before, 3 * p.lite_rpc_ring_bytes);

  char out[8];
  uint32_t out_len = 0;
  for (int bind = 0; bind < 3; ++bind) {
    EXPECT_EQ(n0->Rpc(1, 60, "x", 1, out, sizeof(out), &out_len).code(),
              StatusCode::kResourceExhausted)
        << bind;
    EXPECT_EQ(mem1.free_bytes(), free_before) << bind;
  }
  // Node 2 has no control channel to node 1 yet, and none fits there.
  EXPECT_EQ(cluster.instance(2)->Rpc(1, 60, "x", 1, out, sizeof(out), &out_len).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(mem1.free_bytes(), free_before);
}

}  // namespace
}  // namespace lite
