#include <gtest/gtest.h>

#include <cstring>

#include "src/baselines/fasst_rpc.h"
#include "src/baselines/herd_rpc.h"
#include "src/baselines/sendrecv_rpc.h"
#include "src/common/timing.h"

namespace liteapp {
namespace {

RpcHandler EchoHandler() {
  return [](const uint8_t* in, uint32_t in_len, uint8_t* out, uint32_t out_max) -> uint32_t {
    uint32_t n = std::min(in_len, out_max);
    std::memcpy(out, in, n);
    return n;
  };
}

lt::SimParams TestParams() {
  lt::SimParams p;
  p.node_phys_mem_bytes = 32ull << 20;
  return p;
}

TEST(HerdRpcTest, EchoCall) {
  lt::Cluster cluster(2, TestParams());
  HerdServer server(&cluster, 0, 8192, EchoHandler());
  auto client = server.AttachClient(1);
  ASSERT_TRUE(client.ok());
  server.Start(1);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE((*client)->Call("herd!", 5, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 5u);
  EXPECT_EQ(std::memcmp(out, "herd!", 5), 0);
  server.Stop();
}

TEST(HerdRpcTest, RepeatedCallsStable) {
  lt::Cluster cluster(2, TestParams());
  HerdServer server(&cluster, 0, 8192, EchoHandler());
  auto client = *server.AttachClient(1);
  server.Start(1);
  char out[128];
  uint32_t out_len;
  for (int i = 0; i < 100; ++i) {
    std::string msg = "call_" + std::to_string(i);
    ASSERT_TRUE(client->Call(msg.data(), static_cast<uint32_t>(msg.size()), out, sizeof(out),
                             &out_len)
                    .ok());
    ASSERT_EQ(out_len, msg.size());
    EXPECT_EQ(std::memcmp(out, msg.data(), msg.size()), 0);
  }
  server.Stop();
}

TEST(HerdRpcTest, MultipleClients) {
  lt::Cluster cluster(3, TestParams());
  HerdServer server(&cluster, 0, 4096, EchoHandler());
  auto c1 = *server.AttachClient(1);
  auto c2 = *server.AttachClient(2);
  server.Start(1);
  char out[32];
  uint32_t out_len;
  ASSERT_TRUE(c1->Call("one", 3, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(std::memcmp(out, "one", 3), 0);
  ASSERT_TRUE(c2->Call("two", 3, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(std::memcmp(out, "two", 3), 0);
  server.Stop();
}

TEST(HerdRpcTest, ServerBurnsCpuBusyPolling) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 32ull << 20;
  lt::Cluster cluster(2, p);
  HerdServer server(&cluster, 0, 4096, EchoHandler());
  auto client = *server.AttachClient(1);
  server.Start(1);
  char out[16];
  uint32_t out_len;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Call("x", 1, out, sizeof(out), &out_len).ok());
    lt::IdleFor(50'000);  // Client idle gaps: HERD's server still polls.
  }
  // The busy-poll model charges the server CPU for entire waiting gaps.
  EXPECT_GT(server.server_cpu_ns(), 10u * 50'000u / 2);
  server.Stop();
}

TEST(HerdRpcTest, OversizedRequestRejected) {
  lt::Cluster cluster(2, TestParams());
  HerdServer server(&cluster, 0, 1024, EchoHandler());
  auto client = *server.AttachClient(1);
  server.Start(1);
  std::vector<uint8_t> big(2048);
  char out[16];
  uint32_t out_len;
  EXPECT_FALSE(client->Call(big.data(), 2048, out, sizeof(out), &out_len).ok());
  server.Stop();
}

TEST(FasstRpcTest, EchoCall) {
  lt::Cluster cluster(2, TestParams());
  FasstServer server(&cluster, 0, 4096, EchoHandler());
  auto client = server.AttachClient(1);
  ASSERT_TRUE(client.ok());
  server.Start();
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE((*client)->Call("fasst", 5, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 5u);
  EXPECT_EQ(std::memcmp(out, "fasst", 5), 0);
  server.Stop();
}

TEST(FasstRpcTest, ManyCallsAcrossClients) {
  lt::Cluster cluster(3, TestParams());
  FasstServer server(&cluster, 0, 4096, EchoHandler());
  auto c1 = *server.AttachClient(1);
  auto c2 = *server.AttachClient(2);
  server.Start();
  char out[64];
  uint32_t out_len;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(c1->Call("a", 1, out, sizeof(out), &out_len).ok());
    ASSERT_TRUE(c2->Call("bb", 2, out, sizeof(out), &out_len).ok());
  }
  server.Stop();
}

TEST(SendRecvRpcTest, EchoAndAccounting) {
  lt::Cluster cluster(2, TestParams());
  SendRecvRpcServer server(&cluster, 0, {256, 1024, 8192}, 8, EchoHandler());
  auto client = server.AttachClient(1);
  ASSERT_TRUE(client.ok());
  server.Start();

  char out[1024];
  uint32_t out_len;
  // A 100-byte message consumes a 256-byte buffer.
  std::vector<uint8_t> small(100, 1);
  ASSERT_TRUE((*client)->Call(small.data(), 100, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 100u);
  EXPECT_EQ(server.consumed_buffer_bytes(), 256u);
  EXPECT_EQ(server.payload_bytes(), 100u);

  // A 600-byte message consumes a 1024-byte buffer.
  std::vector<uint8_t> medium(600, 2);
  ASSERT_TRUE((*client)->Call(medium.data(), 600, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(server.consumed_buffer_bytes(), 256u + 1024u);
  server.Stop();
}

TEST(SendRecvRpcTest, OversizedRejected) {
  lt::Cluster cluster(2, TestParams());
  SendRecvRpcServer server(&cluster, 0, {256}, 4, EchoHandler());
  auto client = *server.AttachClient(1);
  server.Start();
  std::vector<uint8_t> big(1000);
  char out[16];
  uint32_t out_len;
  EXPECT_FALSE(client->Call(big.data(), 1000, out, sizeof(out), &out_len).ok());
  server.Stop();
}

TEST(SendRecvRpcTest, UtilizationWorseThanPayload) {
  lt::Cluster cluster(2, TestParams());
  SendRecvRpcServer server(&cluster, 0, {4096}, 8, EchoHandler());
  auto client = *server.AttachClient(1);
  server.Start();
  char out[64];
  uint32_t out_len;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Call("tiny", 4, out, sizeof(out), &out_len).ok());
  }
  // 4-byte payloads burning 4 KB buffers: utilization ~0.1% (Fig. 12 effect).
  EXPECT_EQ(server.payload_bytes(), 80u);
  EXPECT_EQ(server.consumed_buffer_bytes(), 20u * 4096u);
  server.Stop();
}

}  // namespace
}  // namespace liteapp
