// Cross-module integration tests: several applications sharing one LITE
// cluster, failure injection through the full stack, RPC timeout recovery,
// and resource-sharing invariants (paper Secs. 6, 8.5: "it is easy to run
// multiple applications together on LITE").
#include <gtest/gtest.h>

#include <thread>

#include "src/apps/kv_store.h"
#include "src/apps/lite_log.h"
#include "src/apps/mapreduce.h"
#include "src/apps/workloads.h"
#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace liteapp {
namespace {

using lite::LiteCluster;
using lite::MallocOptions;
using lt::StatusCode;

TEST(IntegrationTest, MultipleApplicationsShareOneCluster) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 32ull << 20;
  LiteCluster cluster(4, p);

  // App 1: KV store on node 0.
  LiteKvServer kv(&cluster, 0);
  kv.Start();
  LiteKvClient kv_client(&cluster, 1, 0);

  // App 2: atomic log owned by node 1.
  auto log_owner = cluster.CreateClient(1);
  auto log = *LiteLog::Create(log_owner.get(), "shared_cluster_log", 256 << 10);

  // App 3: raw LMR user on nodes 2/3.
  auto c2 = cluster.CreateClient(2);
  ASSERT_TRUE(c2->Malloc(8192, "app3_region").ok());

  // Drive all three concurrently.
  std::thread t1([&] {
    for (int i = 0; i < 50; ++i) {
      std::string key = "k" + std::to_string(i);
      ASSERT_TRUE(kv_client.Put(key, key.data(), static_cast<uint32_t>(key.size())).ok());
    }
  });
  std::thread t2([&] {
    auto client = cluster.CreateClient(2);
    auto my_log = *LiteLog::Open(client.get(), "shared_cluster_log");
    for (int i = 0; i < 50; ++i) {
      uint64_t v = i;
      ASSERT_TRUE(my_log.Commit({LogEntry{&v, 8}}).ok());
    }
  });
  std::thread t3([&] {
    auto client = cluster.CreateClient(3);
    auto mapped = *client->Map("app3_region");
    char buf[64];
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(client->Write(mapped, 0, buf, sizeof(buf)).ok());
      ASSERT_TRUE(client->Read(mapped, 0, buf, sizeof(buf)).ok());
    }
  });
  t1.join();
  t2.join();
  t3.join();

  EXPECT_EQ(kv.size(), 50u);
  EXPECT_EQ(*log.CommittedCount(), 50u);
  kv.Stop();
}

TEST(IntegrationTest, QpPoolIsSharedNotPerProcess) {
  // Paper Sec. 6.1: LITE uses K x N QPs per node regardless of how many
  // applications/clients run. Creating many clients must not create QPs.
  lt::SimParams p;
  LiteCluster cluster(3, p);
  size_t qps_before = cluster.instance(0)->qp_pool_size();
  std::vector<std::unique_ptr<lite::LiteClient>> clients;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(cluster.CreateClient(0));
    auto lh = clients.back()->Malloc(4096, "qp_test_" + std::to_string(i));
    char buf[16];
    MallocOptions mo;
    (void)mo;
    ASSERT_TRUE(clients.back()->Write(*lh, 0, buf, sizeof(buf)).ok());
  }
  EXPECT_EQ(cluster.instance(0)->qp_pool_size(), qps_before);
  // K x (N-1) with K=2, N=3: 4 pool QPs.
  EXPECT_EQ(qps_before, 4u);
}

TEST(IntegrationTest, RnicStaysLeanUnderLiteLoad) {
  // The whole point of the indirection: thousands of LMRs, ONE RNIC MR.
  lt::SimParams p;
  LiteCluster cluster(2, p);
  size_t mrs_before = cluster.node(0)->rnic().MrCount();
  auto client = cluster.CreateClient(0);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->Malloc(4096, "lean_" + std::to_string(i)).ok());
  }
  EXPECT_EQ(cluster.node(0)->rnic().MrCount(), mrs_before);
}

TEST(IntegrationTest, DropInjectionSurfacesAsRpcTimeout) {
  lt::SimParams p;
  p.lite_rpc_timeout_ns = 60'000'000;  // 60 ms.
  LiteCluster cluster(2, p);
  auto server = cluster.CreateClient(1, true);
  (void)server->RegisterRpc(5);
  std::atomic<bool> stop{false};
  std::thread serve([&] {
    while (!stop.load()) {
      auto inc = server->RecvRpc(5, 20'000'000);
      if (inc.ok()) {
        (void)server->ReplyRpc(inc->token, "ok", 2);
      }
    }
  });
  auto client = cluster.CreateClient(0);
  char out[16];
  uint32_t out_len;
  // Sanity: works without drops.
  ASSERT_TRUE(client->Rpc(1, 5, "x", 1, out, sizeof(out), &out_len).ok());

  // With all transfers dropped, the call fails by timeout (paper Sec. 5.1:
  // "if LITE does not receive a reply within a certain period of time, it
  // will return a timeout error to user").
  lt::LinkFaultRule drop_all;
  drop_all.drop_p = 1.0;
  cluster.cluster().fabric().faults().SetDefaultRule(drop_all);
  auto st = client->Rpc(1, 5, "x", 1, out, sizeof(out), &out_len);
  EXPECT_FALSE(st.ok());

  // Recovery once the fabric heals.
  cluster.cluster().fabric().faults().SetDefaultRule({});
  ASSERT_TRUE(client->Rpc(1, 5, "y", 1, out, sizeof(out), &out_len).ok());
  stop.store(true);
  serve.join();
}

TEST(IntegrationTest, WriteFailsCleanlyUnderTotalLoss) {
  lt::SimParams p;
  p.lite_rpc_timeout_ns = 60'000'000;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "lossy", on1);
  lt::LinkFaultRule drop_all;
  drop_all.drop_p = 1.0;
  cluster.cluster().fabric().faults().SetDefaultRule(drop_all);
  char buf[64] = {1};
  auto st = client->Write(lh, 0, buf, sizeof(buf));
  EXPECT_FALSE(st.ok());
  cluster.cluster().fabric().faults().SetDefaultRule({});
  EXPECT_TRUE(client->Write(lh, 0, buf, sizeof(buf)).ok());
}

TEST(IntegrationTest, ExtraDelaySlowsButDoesNotBreak) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "slow_fabric", on1);
  char buf[64] = {2};
  uint64_t t0 = lt::NowNs();
  ASSERT_TRUE(client->Write(lh, 0, buf, sizeof(buf)).ok());
  uint64_t fast = lt::NowNs() - t0;

  lt::LinkFaultRule delayed;
  delayed.extra_delay_ns = 100'000;
  cluster.cluster().fabric().faults().SetDefaultRule(delayed);
  t0 = lt::NowNs();
  ASSERT_TRUE(client->Write(lh, 0, buf, sizeof(buf)).ok());
  uint64_t slow = lt::NowNs() - t0;
  EXPECT_GT(slow, fast + 90'000);
}

TEST(IntegrationTest, MapReduceOnBusyCluster) {
  // A MapReduce job completes correctly while a KV workload runs beside it.
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  LiteCluster cluster(3, p);
  LiteKvServer kv(&cluster, 0);
  kv.Start();
  std::atomic<bool> stop{false};
  std::thread kv_load([&] {
    LiteKvClient client(&cluster, 2, 0);
    int i = 0;
    while (!stop.load()) {
      std::string key = "bg" + std::to_string(i++ % 64);
      (void)client.Put(key, key.data(), static_cast<uint32_t>(key.size()));
    }
  });
  std::string corpus = GenerateCorpus(100000, 1000, 13);
  auto result = LiteMrWordCount(&cluster, corpus, 2, 2);
  EXPECT_EQ(result.counts, CountWords(corpus.data(), corpus.size()));
  stop.store(true);
  kv_load.join();
  kv.Stop();
}

TEST(IntegrationTest, SliceChunksCoversExactlyOnce) {
  // Property test: any offset/len decomposition covers each user byte once,
  // in order, on the right chunk.
  std::vector<lite::LmrChunk> chunks = {
      {0, 0, 1000}, {1, 5000, 300}, {0, 8192, 4096}, {2, 0, 1}};
  uint64_t total = 1000 + 300 + 4096 + 1;
  for (uint64_t offset : std::vector<uint64_t>{0, 1, 999, 1000, 1299, 1300, 5000}) {
    for (uint64_t len : std::vector<uint64_t>{1, 2, 300, 397, total - offset}) {
      if (offset + len > total) {
        continue;
      }
      auto pieces = lite::LiteInstance::SliceChunks(chunks, offset, len);
      uint64_t covered = 0;
      uint64_t expect_user_off = 0;
      for (const auto& piece : pieces) {
        EXPECT_EQ(piece.user_off, expect_user_off);
        expect_user_off += piece.len;
        covered += piece.len;
        EXPECT_GT(piece.len, 0u);
      }
      EXPECT_EQ(covered, len) << "offset=" << offset << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace liteapp
