// Stress and edge-case tests for the LITE core: ring recycling under
// concurrency, many-channel coexistence, chunked-LMR operations at odd
// boundaries, reply-slot pressure, multicast fan-out, and coexistence of
// native-Verbs applications beside LITE (paper Sec. 3.3).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace lite {
namespace {

using lt::StatusCode;

class LiteStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    p.node_phys_mem_bytes = 48ull << 20;
    // Ring and slot pool sized so the ring-wrap and slot-pressure tests below
    // wrap and recycle.
    p.lite_rpc_ring_bytes = 128 << 10;
    p.lite_reply_slots = 128;
    cluster_ = std::make_unique<LiteCluster>(4, p);
  }
  std::unique_ptr<LiteCluster> cluster_;
};

TEST_F(LiteStressTest, RingWrapsManyTimesUnderConcurrentClients) {
  // The fixture's ring is 128 KB; drive ~2.4 MB of requests through it from
  // three concurrent client threads on different nodes.
  auto server = cluster_->CreateClient(3, true);
  (void)server->RegisterRpc(100);
  std::atomic<bool> stop{false};
  std::thread serve([&] {
    while (!stop.load()) {
      auto inc = server->RecvRpc(100, 20'000'000);
      if (inc.ok()) {
        uint32_t len = static_cast<uint32_t>(inc->data.size());
        (void)server->ReplyRpc(inc->token, &len, sizeof(len));
      }
    }
  });
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      auto client = cluster_->CreateClient(static_cast<lt::NodeId>(t));
      std::vector<uint8_t> payload(1024 + 512 * t, static_cast<uint8_t>(t));
      uint32_t echoed = 0;
      uint32_t out_len = 0;
      for (int i = 0; i < 500; ++i) {
        auto st = client->Rpc(3, 100, payload.data(), static_cast<uint32_t>(payload.size()),
                              &echoed, sizeof(echoed), &out_len);
        if (!st.ok() || echoed != payload.size()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  stop.store(true);
  serve.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(LiteStressTest, ManyDistinctRpcFunctionsCoexist) {
  // Each app function gets its own server ring (paper Sec. 5.1); exercise 20
  // of them against one server node.
  auto server = cluster_->CreateClient(1, true);
  std::vector<std::thread> servers;
  std::atomic<bool> stop{false};
  for (RpcFuncId func = 200; func < 220; ++func) {
    (void)server->RegisterRpc(func);
  }
  for (int s = 0; s < 4; ++s) {
    servers.emplace_back([&, s] {
      // Each server thread drains a disjoint set of functions.
      while (!stop.load()) {
        for (RpcFuncId func = 200 + s; func < 220; func += 4) {
          auto inc = server->instance()->RecvRpc(func, 1'000'000);
          if (inc.ok()) {
            uint32_t f = func;
            (void)server->ReplyRpc(inc->token, &f, sizeof(f));
          }
        }
      }
    });
  }
  auto client = cluster_->CreateClient(0);
  for (RpcFuncId func = 200; func < 220; ++func) {
    uint32_t out = 0;
    uint32_t out_len = 0;
    ASSERT_TRUE(client->Rpc(1, func, "q", 1, &out, sizeof(out), &out_len).ok());
    EXPECT_EQ(out, func);
  }
  EXPECT_GE(cluster_->instance(1)->rpc_ring_bytes_in_use(),
            20u * cluster_->params().lite_rpc_ring_bytes);
  stop.store(true);
  for (auto& t : servers) {
    t.join();
  }
}

TEST_F(LiteStressTest, ChunkBoundaryReadsAndWrites) {
  // An LMR bigger than lite_max_chunk_bytes gets multiple chunks; exercise
  // accesses that straddle every chunk boundary.
  auto client = cluster_->CreateClient(0, true);
  const uint64_t chunk = cluster_->params().lite_max_chunk_bytes;
  const uint64_t size = 3 * chunk;
  auto lh = client->Malloc(size, "chunky");
  ASSERT_TRUE(lh.ok());
  std::vector<uint8_t> pattern(4096);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 131);
  }
  for (uint64_t boundary : {chunk, 2 * chunk}) {
    uint64_t offset = boundary - pattern.size() / 2;
    ASSERT_TRUE(client->Write(*lh, offset, pattern.data(), pattern.size()).ok());
    std::vector<uint8_t> out(pattern.size());
    ASSERT_TRUE(client->Read(*lh, offset, out.data(), out.size()).ok());
    EXPECT_EQ(out, pattern) << "boundary " << boundary;
  }
  // Memset across both boundaries at once.
  ASSERT_TRUE(client->Memset(*lh, chunk - 100, 0x77, chunk + 200).ok());
  uint8_t probe[8];
  ASSERT_TRUE(client->Read(*lh, 2 * chunk + 50, probe, sizeof(probe)).ok());
  for (uint8_t b : probe) {
    EXPECT_EQ(b, 0x77);
  }
}

TEST_F(LiteStressTest, ReplySlotPressure) {
  // More concurrent outstanding RPCs than... not quite slot count (128 in
  // the fixture), but enough to cycle slots heavily via multicast.
  auto s1 = cluster_->CreateClient(1, true);
  auto s2 = cluster_->CreateClient(2, true);
  auto s3 = cluster_->CreateClient(3, true);
  (void)s1->RegisterRpc(50);
  (void)s2->RegisterRpc(50);
  (void)s3->RegisterRpc(50);
  std::atomic<bool> stop{false};
  auto serve = [&stop](LiteClient* c) {
    while (!stop.load()) {
      auto inc = c->RecvRpc(50, 10'000'000);
      if (inc.ok()) {
        (void)c->ReplyRpc(inc->token, "r", 1);
      }
    }
  };
  std::thread t1(serve, s1.get());
  std::thread t2(serve, s2.get());
  std::thread t3(serve, s3.get());

  auto client = cluster_->CreateClient(0);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::vector<uint8_t>> replies;
    ASSERT_TRUE(client->MulticastRpc({1, 2, 3}, 50, "m", 1, &replies).ok());
    ASSERT_EQ(replies.size(), 3u);
    for (const auto& r : replies) {
      ASSERT_EQ(r.size(), 1u);
    }
  }
  stop.store(true);
  t1.join();
  t2.join();
  t3.join();
}

TEST_F(LiteStressTest, MessagesFromManySendersAllArrive) {
  auto receiver = cluster_->CreateClient(3, true);
  constexpr int kSenders = 3;
  constexpr int kPerSender = 100;
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      auto client = cluster_->CreateClient(static_cast<lt::NodeId>(s));
      for (uint32_t i = 0; i < kPerSender; ++i) {
        uint32_t payload = (static_cast<uint32_t>(s) << 16) | i;
        ASSERT_TRUE(client->SendMsg(3, &payload, sizeof(payload)).ok());
      }
    });
  }
  std::set<uint32_t> seen;
  for (int i = 0; i < kSenders * kPerSender; ++i) {
    auto msg = receiver->RecvMsg(2'000'000'000);
    ASSERT_TRUE(msg.ok()) << "message " << i;
    uint32_t payload = 0;
    std::memcpy(&payload, msg->data.data(), 4);
    EXPECT_TRUE(seen.insert(payload).second);
    EXPECT_EQ(msg->src, payload >> 16);
  }
  for (auto& t : senders) {
    t.join();
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kSenders * kPerSender));
}

TEST_F(LiteStressTest, NativeVerbsCoexistsWithLite) {
  // Paper Sec. 3.3: applications that do not want LITE can still use native
  // RDMA on the same machines.
  auto lite_client = cluster_->CreateClient(0);
  auto lh = lite_client->Malloc(4096, "lite_side");
  char lite_buf[32] = "via LITE";
  ASSERT_TRUE(lite_client->Write(*lh, 0, lite_buf, sizeof(lite_buf)).ok());

  // A raw Verbs app on the same nodes.
  lt::Process* p0 = cluster_->node(0)->CreateProcess();
  lt::Process* p1 = cluster_->node(1)->CreateProcess();
  auto local = *p0->page_table().AllocVirt(4096);
  auto remote = *p1->page_table().AllocVirt(4096);
  auto lmr = *p0->verbs().RegisterMr(local, 4096, lt::kMrAll);
  auto rmr = *p1->verbs().RegisterMr(remote, 4096, lt::kMrAll);
  lt::Qp* q0 = p0->verbs().CreateQp(lt::QpType::kRc, p0->verbs().CreateCq(),
                                    p0->verbs().CreateCq());
  lt::Qp* q1 = p1->verbs().CreateQp(lt::QpType::kRc, p1->verbs().CreateCq(),
                                    p1->verbs().CreateCq());
  q0->Connect(1, q1->qpn());
  q1->Connect(0, q0->qpn());
  lt::WorkRequest wr;
  wr.opcode = lt::WrOpcode::kWrite;
  wr.lkey = lmr.lkey;
  wr.local_addr = local;
  wr.length = 16;
  wr.rkey = rmr.rkey;
  wr.remote_addr = remote;
  ASSERT_TRUE(p0->verbs().ExecSync(q0, wr).ok());

  // LITE still works afterwards.
  char out[32] = {0};
  ASSERT_TRUE(lite_client->Read(*lh, 0, out, sizeof(out)).ok());
  EXPECT_STREQ(out, "via LITE");
}

TEST_F(LiteStressTest, ConcurrentMallocFreeChurn) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster_->CreateClient(static_cast<lt::NodeId>(t));
      for (int i = 0; i < 40; ++i) {
        std::string name = "churn_" + std::to_string(t) + "_" + std::to_string(i);
        auto lh = client->Malloc(8192, name);
        if (!lh.ok()) {
          failures.fetch_add(1);
          continue;
        }
        char buf[64] = {static_cast<char>(t)};
        if (!client->Write(*lh, 0, buf, sizeof(buf)).ok()) {
          failures.fetch_add(1);
        }
        if (!client->Free(*lh).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(LiteStressTest, BarrierWithManyParticipants) {
  constexpr int kParticipants = 12;
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> released{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kParticipants; ++t) {
      threads.emplace_back([&, t] {
        auto client = cluster_->CreateClient(static_cast<lt::NodeId>(t % 4));
        ASSERT_TRUE(client->Barrier("big_barrier", kParticipants).ok());
        released.fetch_add(1);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    EXPECT_EQ(released.load(), kParticipants);
  }
}

}  // namespace
}  // namespace lite
