#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <ostream>
#include <thread>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace lite {
namespace {

using lt::StatusCode;

class LiteMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    cluster_ = std::make_unique<LiteCluster>(3, p);
    c0_ = cluster_->CreateClient(0);
    c1_ = cluster_->CreateClient(1);
    c2_ = cluster_->CreateClient(2);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_, c1_, c2_;
};

TEST_F(LiteMemoryTest, MallocWriteReadLocal) {
  auto lh = c0_->Malloc(4096, "local_buf");
  ASSERT_TRUE(lh.ok());
  const char msg[] = "local round trip";
  ASSERT_TRUE(c0_->Write(*lh, 64, msg, sizeof(msg)).ok());
  char out[sizeof(msg)] = {0};
  ASSERT_TRUE(c0_->Read(*lh, 64, out, sizeof(out)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(LiteMemoryTest, MapFromAnotherNodeSeesData) {
  auto lh = c0_->Malloc(4096, "shared_buf");
  const char msg[] = "cross node";
  ASSERT_TRUE(c0_->Write(*lh, 0, msg, sizeof(msg)).ok());
  auto mapped = c1_->Map("shared_buf");
  ASSERT_TRUE(mapped.ok());
  char out[sizeof(msg)] = {0};
  ASSERT_TRUE(c1_->Read(*mapped, 0, out, sizeof(out)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(LiteMemoryTest, LhIsLocalToIssuingNode) {
  auto lh = c0_->Malloc(4096, "lh_locality");
  ASSERT_TRUE(lh.ok());
  // Using node 0's lh value from node 1 must fail: lhs are per-process
  // capabilities (paper Sec. 4.1)... unless node 1 happens to have its own
  // entry under the same numeric id. Map on c1 produces a distinct handle.
  auto mapped = c1_->Map("lh_locality");
  ASSERT_TRUE(mapped.ok());
  EXPECT_NE(*mapped, *lh);
}

TEST_F(LiteMemoryTest, MapUnknownNameFails) {
  auto lh = c1_->Map("no_such_lmr");
  EXPECT_FALSE(lh.ok());
  EXPECT_EQ(lh.status().code(), StatusCode::kNotFound);
}

TEST_F(LiteMemoryTest, DuplicateNameRejected) {
  ASSERT_TRUE(c0_->Malloc(4096, "dup_name").ok());
  auto again = c1_->Malloc(4096, "dup_name");
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(LiteMemoryTest, ReadOutOfBoundsFails) {
  auto lh = c0_->Malloc(4096, "bounds");
  char out[64];
  EXPECT_EQ(c0_->Read(*lh, 4090, out, 64).code(), StatusCode::kOutOfRange);
}

TEST_F(LiteMemoryTest, InvalidLhFails) {
  char out[8];
  EXPECT_EQ(c0_->Read(12345, 0, out, 8).code(), StatusCode::kNotFound);
}

TEST_F(LiteMemoryTest, PermissionGrantRespected) {
  auto lh = c0_->Malloc(4096, "ro_region");
  ASSERT_TRUE(lh.ok());
  ASSERT_TRUE(c0_->instance()->SetPermission("ro_region", 1, kPermRead).ok());
  // Node 1 can map read-only but not read-write.
  auto rw = c1_->Map("ro_region", kPermRead | kPermWrite);
  EXPECT_EQ(rw.status().code(), StatusCode::kPermissionDenied);
  auto ro = c1_->Map("ro_region", kPermRead);
  ASSERT_TRUE(ro.ok());
  char out[8];
  EXPECT_TRUE(c1_->Read(*ro, 0, out, 8).ok());
  EXPECT_EQ(c1_->Write(*ro, 0, out, 8).code(), StatusCode::kPermissionDenied);
}

TEST_F(LiteMemoryTest, FreeRequiresMaster) {
  auto lh = c0_->Malloc(4096, "master_only");
  auto mapped = c1_->Map("master_only");
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(c1_->Free(*mapped).code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(c0_->Free(*lh).ok());
}

TEST_F(LiteMemoryTest, FreeInvalidatesMappedHandles) {
  auto lh = c0_->Malloc(4096, "to_free");
  auto mapped = c1_->Map("to_free");
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(c0_->Free(*lh).ok());
  // Give the asynchronous invalidation a moment to land.
  char out[8];
  lt::Status st = lt::Status::Ok();
  for (int i = 0; i < 100; ++i) {
    st = c1_->Read(*mapped, 0, out, 8);
    if (!st.ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  // The name is free for reuse.
  EXPECT_TRUE(c2_->Malloc(4096, "to_free").ok());
}

TEST_F(LiteMemoryTest, UnmapDropsOnlyLocalHandle) {
  auto lh = c0_->Malloc(4096, "unmap_me");
  auto m1 = c1_->Map("unmap_me");
  auto m2 = c2_->Map("unmap_me");
  ASSERT_TRUE(c1_->Unmap(*m1).ok());
  char out[8];
  EXPECT_FALSE(c1_->Read(*m1, 0, out, 8).ok());
  EXPECT_TRUE(c2_->Read(*m2, 0, out, 8).ok());
  (void)lh;
}

TEST_F(LiteMemoryTest, RemotePlacementViaOptions) {
  MallocOptions options;
  options.nodes = {2};
  auto lh = c0_->Malloc(8192, "on_node2", options);
  ASSERT_TRUE(lh.ok());
  auto chunks = c0_->instance()->LmrChunks(*lh);
  ASSERT_TRUE(chunks.ok());
  for (const auto& chunk : *chunks) {
    EXPECT_EQ(chunk.node, 2u);
  }
  const char msg[] = "remote placement";
  ASSERT_TRUE(c0_->Write(*lh, 0, msg, sizeof(msg)).ok());
  char out[sizeof(msg)] = {0};
  ASSERT_TRUE(c0_->Read(*lh, 0, out, sizeof(out)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(LiteMemoryTest, SpreadAcrossNodes) {
  // An LMR larger than one chunk, spread over two nodes (paper Sec. 4.1).
  MallocOptions options;
  options.nodes = {1, 2};
  const uint64_t size = 6ull << 20;  // > lite_max_chunk_bytes.
  auto lh = c0_->Malloc(size, "striped", options);
  ASSERT_TRUE(lh.ok());
  auto chunks = c0_->instance()->LmrChunks(*lh);
  ASSERT_TRUE(chunks.ok());
  std::set<lt::NodeId> nodes;
  for (const auto& chunk : *chunks) {
    nodes.insert(chunk.node);
  }
  EXPECT_EQ(nodes.size(), 2u);
  // Writes crossing the chunk boundary still round-trip.
  std::vector<uint8_t> pattern(1 << 20);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 7);
  }
  uint64_t boundary = (4ull << 20) - (pattern.size() / 2);
  ASSERT_TRUE(c0_->Write(*lh, boundary, pattern.data(), pattern.size()).ok());
  std::vector<uint8_t> out(pattern.size());
  ASSERT_TRUE(c0_->Read(*lh, boundary, out.data(), out.size()).ok());
  EXPECT_EQ(out, pattern);
}

TEST_F(LiteMemoryTest, MemsetFillsRange) {
  auto lh = c0_->Malloc(4096, "memset_target");
  ASSERT_TRUE(c0_->Memset(*lh, 100, 0x5a, 200).ok());
  std::vector<uint8_t> out(200);
  ASSERT_TRUE(c0_->Read(*lh, 100, out.data(), out.size()).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0x5a);
  }
}

TEST_F(LiteMemoryTest, MemsetOnRemoteLmr) {
  MallocOptions options;
  options.nodes = {2};
  auto lh = c0_->Malloc(4096, "memset_remote", options);
  ASSERT_TRUE(c0_->Memset(*lh, 0, 0x33, 4096).ok());
  uint8_t out[16];
  ASSERT_TRUE(c1_->Map("memset_remote").ok());
  ASSERT_TRUE(c0_->Read(*lh, 2048, out, 16).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0x33);
  }
}

TEST_F(LiteMemoryTest, MemcpyBetweenLmrsSameNode) {
  auto src = c0_->Malloc(4096, "cpy_src");
  auto dst = c0_->Malloc(4096, "cpy_dst");
  const char msg[] = "copy me around";
  ASSERT_TRUE(c0_->Write(*src, 10, msg, sizeof(msg)).ok());
  ASSERT_TRUE(c0_->Memcpy(*dst, 20, *src, 10, sizeof(msg)).ok());
  char out[sizeof(msg)] = {0};
  ASSERT_TRUE(c0_->Read(*dst, 20, out, sizeof(out)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(LiteMemoryTest, MemcpyAcrossNodes) {
  MallocOptions on1;
  on1.nodes = {1};
  MallocOptions on2;
  on2.nodes = {2};
  auto src = c0_->Malloc(4096, "xcpy_src", on1);
  auto dst = c0_->Malloc(4096, "xcpy_dst", on2);
  const char msg[] = "node1 to node2";
  ASSERT_TRUE(c0_->Write(*src, 0, msg, sizeof(msg)).ok());
  ASSERT_TRUE(c0_->Memcpy(*dst, 0, *src, 0, sizeof(msg)).ok());
  char out[sizeof(msg)] = {0};
  ASSERT_TRUE(c0_->Read(*dst, 0, out, sizeof(out)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(LiteMemoryTest, MemmoveMatchesMemcpySemantics) {
  auto a = c0_->Malloc(4096, "mv_a");
  auto b = c0_->Malloc(4096, "mv_b");
  uint32_t value = 0xfeedface;
  ASSERT_TRUE(c0_->Write(*a, 0, &value, 4).ok());
  ASSERT_TRUE(c0_->Memmove(*b, 0, *a, 0, 4).ok());
  uint32_t out = 0;
  ASSERT_TRUE(c0_->Read(*b, 0, &out, 4).ok());
  EXPECT_EQ(out, value);
}

TEST_F(LiteMemoryTest, MoveLmrPreservesContentAndRemapsHandles) {
  auto lh = c0_->Malloc(8192, "movable");
  std::vector<uint8_t> pattern(8192);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i % 251);
  }
  ASSERT_TRUE(c0_->Write(*lh, 0, pattern.data(), pattern.size()).ok());
  auto mapped = c1_->Map("movable");
  ASSERT_TRUE(mapped.ok());

  ASSERT_TRUE(c0_->instance()->Migrate("movable", 2).ok());
  auto chunks = c0_->instance()->LmrChunks(*lh);
  ASSERT_TRUE(chunks.ok());
  for (const auto& chunk : *chunks) {
    EXPECT_EQ(chunk.node, 2u);
  }
  // Both the master's and the mapper's handles still see the data.
  std::vector<uint8_t> out(8192);
  ASSERT_TRUE(c0_->Read(*lh, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pattern);
  // The mapper's update arrives asynchronously.
  for (int i = 0; i < 100; ++i) {
    auto mapped_chunks = c1_->instance()->LmrChunks(*mapped);
    if (mapped_chunks.ok() && (*mapped_chunks)[0].node == 2u) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::fill(out.begin(), out.end(), 0);
  ASSERT_TRUE(c1_->Read(*mapped, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pattern);
}

TEST_F(LiteMemoryTest, GrantMasterAllowsFreeFromGrantee) {
  auto lh = c0_->Malloc(4096, "granted");
  ASSERT_TRUE(c0_->instance()->GrantMaster("granted", 1).ok());
  auto mapped = c1_->Map("granted", kPermRead | kPermWrite | kPermMaster);
  ASSERT_TRUE(mapped.ok());
  EXPECT_TRUE(c1_->Free(*mapped).ok());
  (void)lh;
}

TEST_F(LiteMemoryTest, ZeroSizeMallocRejected) {
  EXPECT_FALSE(c0_->Malloc(0, "zero").ok());
  EXPECT_FALSE(c0_->Malloc(16, "").ok());
}

TEST_F(LiteMemoryTest, LmrSizeReported) {
  auto lh = c0_->Malloc(12345, "sized");
  auto size = c0_->instance()->LmrSize(*lh);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 12345u);
}

TEST_F(LiteMemoryTest, OutOfMemoryRollsBack) {
  // Ask for far more than the pool holds; name must not be registered.
  auto lh = c0_->Malloc(1ull << 40, "huge");
  EXPECT_FALSE(lh.ok());
  EXPECT_EQ(c1_->Map("huge").status().code(), StatusCode::kNotFound);
}


TEST_F(LiteMemoryTest, ManagerNameServiceIsReconstructible) {
  // Paper Sec. 3.3: the cluster manager's state "can be easily reconstructed
  // upon failure restart". Create LMRs on several nodes, wipe the name
  // service (simulated manager restart), rebuild, and verify LT_map works.
  ASSERT_TRUE(c0_->Malloc(4096, "recover_a").ok());
  ASSERT_TRUE(c1_->Malloc(4096, "recover_b").ok());
  ASSERT_TRUE(c2_->Malloc(4096, "recover_c").ok());

  cluster_->instance(0)->ClearNameServiceForTest();
  EXPECT_FALSE(c2_->Map("recover_a").ok());  // Lost.

  ASSERT_TRUE(cluster_->instance(0)->RebuildNameService().ok());
  EXPECT_TRUE(c2_->Map("recover_a").ok());
  EXPECT_TRUE(c0_->Map("recover_b").ok());
  EXPECT_TRUE(c1_->Map("recover_c").ok());
}

TEST_F(LiteMemoryTest, RebuildOnlyOnManagerNode) {
  EXPECT_EQ(cluster_->instance(1)->RebuildNameService().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(LiteMemoryTest, RebuildNameServiceUnderConcurrentTraffic) {
  // The manager rebuild must be safe while clients keep hammering the data
  // path (memops on established handles, which bypass the name service) and
  // the control path (LT_map lookups, which race the wipe/rebuild window).
  auto lh = c1_->Malloc(8192, "rebuild_live");
  ASSERT_TRUE(lh.ok());
  auto mapped = c2_->Map("rebuild_live");
  ASSERT_TRUE(mapped.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> memops_failed{0};
  std::atomic<int> lookups_ok{0};
  std::thread memops([&] {
    uint64_t i = 0;
    while (!stop.load()) {
      uint64_t v = ++i;
      if (!c2_->Write(*mapped, 8 * (i % 64), &v, 8).ok()) {
        memops_failed.fetch_add(1);
        continue;
      }
      uint64_t back = 0;
      if (!c2_->Read(*mapped, 8 * (i % 64), &back, 8).ok() || back != v) {
        memops_failed.fetch_add(1);
      }
    }
  });
  std::thread lookups([&] {
    while (!stop.load()) {
      // NotFound is legal inside the wipe window; anything mapped must work.
      auto m = c0_->Map("rebuild_live");
      if (m.ok()) {
        lookups_ok.fetch_add(1);
        (void)c0_->Unmap(*m);
      }
    }
  });

  for (int round = 0; round < 5; ++round) {
    cluster_->instance(0)->ClearNameServiceForTest();
    ASSERT_TRUE(cluster_->instance(0)->RebuildNameService().ok()) << "round " << round;
  }
  // The name is stably registered now; on a loaded host the lookup thread may
  // not have run at all yet, so hold the traffic open until it scores.
  while (lookups_ok.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  memops.join();
  lookups.join();

  // Data path never depends on the name service: zero failures.
  EXPECT_EQ(memops_failed.load(), 0);
  EXPECT_GT(lookups_ok.load(), 0);
  // After the last rebuild the name resolves again.
  EXPECT_TRUE(c0_->Map("rebuild_live").ok());
}

// Parameterized IO sizes through the LITE data path.
class LiteIoSizeTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    lt::SimParams p;
    cluster_ = std::make_unique<LiteCluster>(2, p);
    c0_ = cluster_->CreateClient(0);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_;
};

TEST_P(LiteIoSizeTest, RemoteRoundTrip) {
  uint64_t size = GetParam();
  MallocOptions options;
  options.nodes = {1};
  auto lh = c0_->Malloc(size + 64, "io_" + std::to_string(size), options);
  ASSERT_TRUE(lh.ok());
  std::vector<uint8_t> pattern(size);
  for (size_t i = 0; i < size; ++i) {
    pattern[i] = static_cast<uint8_t>((i * 31) ^ (i >> 8));
  }
  ASSERT_TRUE(c0_->Write(*lh, 32, pattern.data(), size).ok());
  std::vector<uint8_t> out(size);
  ASSERT_TRUE(c0_->Read(*lh, 32, out.data(), size).ok());
  EXPECT_EQ(out, pattern);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LiteIoSizeTest,
                         ::testing::Values(1, 8, 64, 4096, 65536, 1 << 20));

// ---- Multi-chunk ops through the op engine ("issue all pieces, wait all").

class MultiChunkEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    p.lite_max_chunk_bytes = 4096;  // Small chunks force multi-piece ops.
    p.lite_rpc_ring_bytes = 4096;   // RPC ring must fit in one chunk.
    cluster_ = std::make_unique<LiteCluster>(4, p);
    c0_ = cluster_->CreateClient(0, /*kernel_level=*/true);
    MallocOptions spread;
    spread.nodes = {1, 2, 3};
    lh_ = *c0_->Malloc(kRegion, "striped3", spread);
  }

  std::vector<uint8_t> Pattern(uint64_t n, uint8_t seed) {
    std::vector<uint8_t> v(n);
    for (uint64_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>((i * 13) ^ seed);
    }
    return v;
  }

  static constexpr uint64_t kRegion = 3 * 4096;  // One chunk per node 1..3.

  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_;
  Lh lh_ = kInvalidLh;
};

TEST_F(MultiChunkEngineTest, WriteReadSpanningThreeNodesOverlapsPieces) {
  // The striped LMR puts one chunk on each of nodes 1..3; a full-region op
  // is three remote pieces issued back-to-back before any wait.
  auto chunks = c0_->instance()->LmrChunks(lh_);
  ASSERT_TRUE(chunks.ok());
  std::set<lt::NodeId> nodes;
  for (const auto& c : *chunks) {
    nodes.insert(c.node);
  }
  ASSERT_EQ(nodes.size(), 3u);

  auto pattern = Pattern(kRegion, 0x5c);
  ASSERT_TRUE(c0_->Write(lh_, 0, pattern.data(), pattern.size()).ok());
  std::vector<uint8_t> out(kRegion);
  ASSERT_TRUE(c0_->Read(lh_, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pattern);

  auto* inst = cluster_->instance(0);
  EXPECT_GT(inst->Stat("lite.engine.ops"), 0);
  // Both the write and the read overlapped 3 pieces each.
  EXPECT_GE(inst->Stat("lite.engine.pieces_overlapped"), 6);
}

TEST_F(MultiChunkEngineTest, WriteSurvivesPieceDropMidOp) {
  // Drop the piece headed to node 2 mid-op: the engine recovers the QP and
  // re-posts just that piece while the other two complete normally.
  auto pattern = Pattern(kRegion, 0xa7);
  cluster_->faults().DropNextTransfers(0, 2, 1);
  ASSERT_TRUE(c0_->Write(lh_, 0, pattern.data(), pattern.size()).ok());

  std::vector<uint8_t> out(kRegion);
  ASSERT_TRUE(c0_->Read(lh_, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pattern);

  auto* inst = cluster_->instance(0);
  EXPECT_GT(inst->Stat("lite.engine.retries"), 0);
  EXPECT_GT(inst->Stat("lite.qp.reconnects"), 0);
  EXPECT_GT(cluster_->faults().drops(), 0u);
}

TEST_F(MultiChunkEngineTest, ReadSurvivesPieceDropMidOp) {
  auto pattern = Pattern(kRegion, 0x3e);
  ASSERT_TRUE(c0_->Write(lh_, 0, pattern.data(), pattern.size()).ok());
  // At-most-once at the data level: the retried read re-fetches the same
  // bytes; the buffer must end up exactly the written pattern.
  cluster_->faults().DropNextTransfers(0, 3, 1);
  std::vector<uint8_t> out(kRegion);
  ASSERT_TRUE(c0_->Read(lh_, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pattern);
  EXPECT_GT(cluster_->instance(0)->Stat("lite.engine.retries"), 0);
}

TEST_F(MultiChunkEngineTest, MemcpyAcrossSpreadLmrsUnderDrop) {
  // Destination LMR striped the other way round; LT_memcpy fans out one
  // kFnMemOp per source node, each of whose one-sided writes rides the
  // engine's retry spine.
  MallocOptions spread;
  spread.nodes = {3, 1, 2};
  auto dst = c0_->Malloc(kRegion, "striped3_dst", spread);
  ASSERT_TRUE(dst.ok());

  auto pattern = Pattern(kRegion, 0x91);
  ASSERT_TRUE(c0_->Write(lh_, 0, pattern.data(), pattern.size()).ok());
  cluster_->faults().DropNextTransfers(1, 3, 1);
  ASSERT_TRUE(c0_->Memcpy(*dst, 0, lh_, 0, kRegion).ok());

  std::vector<uint8_t> out(kRegion);
  ASSERT_TRUE(c0_->Read(*dst, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pattern);
}

// ---- Live migration with epoch-fenced ownership (DESIGN.md) -------------

class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    cluster_ = std::make_unique<LiteCluster>(3, p);
    c0_ = cluster_->CreateClient(0);
    c1_ = cluster_->CreateClient(1);
    c2_ = cluster_->CreateClient(2);
  }

  static std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 13);
    }
    return v;
  }

  // Creates an LMR hosted on node 1 and fills it with `seed`'s pattern.
  lite::Lh HostedOnNode1(const std::string& name, uint64_t size, uint8_t seed) {
    MallocOptions on1;
    on1.nodes = {1};
    auto lh = c1_->Malloc(size, name, on1);
    EXPECT_TRUE(lh.ok());
    auto pattern = Pattern(size, seed);
    EXPECT_TRUE(c1_->Write(*lh, 0, pattern.data(), pattern.size()).ok());
    return *lh;
  }

  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_, c1_, c2_;
};

TEST_F(MigrationTest, MigrateMovesDataAndPlacement) {
  constexpr uint64_t kSize = 64 * 1024;
  HostedOnNode1("mig_basic", kSize, 0x21);

  LiteInstance::MigrateStats stats;
  ASSERT_TRUE(c1_->Migrate("mig_basic", 2, &stats).ok());
  EXPECT_GT(stats.commit_ns, 0u);
  EXPECT_GE(stats.bytes_copied, kSize);

  // A fresh map resolves to the new home and every chunk lives there.
  auto mapped = c0_->Map("mig_basic");
  ASSERT_TRUE(mapped.ok());
  auto chunks = c0_->instance()->LmrChunks(*mapped);
  ASSERT_TRUE(chunks.ok());
  for (const LmrChunk& c : *chunks) {
    EXPECT_EQ(c.node, 2u);
  }
  std::vector<uint8_t> out(kSize);
  ASSERT_TRUE(c0_->Read(*mapped, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, Pattern(kSize, 0x21));
  EXPECT_EQ(cluster_->instance(1)->Stat("lite.migrate.committed"), 1);
}

TEST_F(MigrationTest, MigrateRoutesThroughNameServiceFromAnyNode) {
  // LT_migrate from a node that does not host the LMR: the request is routed
  // to the current home via the name service. Only a master, the manager, or
  // the home itself may trigger a migration — node 2 is none of those.
  HostedOnNode1("mig_routed", 16 * 1024, 0x37);
  EXPECT_EQ(c2_->Migrate("mig_routed", 0).code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(c0_->Migrate("mig_routed", 0).ok());
  auto mapped = c2_->Map("mig_routed");
  ASSERT_TRUE(mapped.ok());
  auto chunks = c2_->instance()->LmrChunks(*mapped);
  ASSERT_TRUE(chunks.ok());
  for (const LmrChunk& c : *chunks) {
    EXPECT_EQ(c.node, 0u);
  }
}

// An lh-addressed op sent through a handle that still maps the LMR's old
// home: each reaches the old home's migration gate on a different path.
enum class StaleOp {
  kRead,      // One-sided read: the op engine's gated post.
  kMemset,    // kFnMemOp memset at the node holding the pieces.
  kMemcpy,    // kFnMemOp memcpy at the node holding the source (the stale LMR).
  kFetchAdd,  // One-sided atomic: the op engine's gated post.
};

const char* StaleOpName(StaleOp op) {
  switch (op) {
    case StaleOp::kRead:
      return "Read";
    case StaleOp::kMemset:
      return "Memset";
    case StaleOp::kMemcpy:
      return "Memcpy";
    case StaleOp::kFetchAdd:
      return "FetchAdd";
  }
  return "Unknown";
}

// Test listings print the op by name.
void PrintTo(StaleOp op, std::ostream* os) { *os << StaleOpName(op); }

class MigrationStaleTest : public MigrationTest, public ::testing::WithParamInterface<StaleOp> {};

TEST_P(MigrationStaleTest, StaleHandleRedirectsTransparently) {
  constexpr uint64_t kSize = 32 * 1024;
  HostedOnNode1("mig_stale", kSize, 0x55);
  auto stale = c2_->Map("mig_stale");
  ASSERT_TRUE(stale.ok());

  // Node 1 holds node 2 dead across the migration, so the commit's rehome
  // fan-out skips it: node 2's mapping stays stale and the op below must
  // take the NACK-redirect path.
  cluster_->instance(1)->SetPeerDead(2, true);
  ASSERT_TRUE(c1_->Migrate("mig_stale", 0).ok());
  cluster_->instance(1)->SetPeerDead(2, false);

  // The pre-migration handle still points at node 1; the old home NACKs with
  // kStaleHome and the issuer re-resolves + re-issues — the app never sees
  // an error.
  std::vector<uint8_t> want = Pattern(kSize, 0x55);
  switch (GetParam()) {
    case StaleOp::kRead: {
      std::vector<uint8_t> out(kSize);
      ASSERT_TRUE(c2_->Read(*stale, 0, out.data(), out.size()).ok());
      EXPECT_EQ(out, want);
      break;
    }
    case StaleOp::kMemset:
      ASSERT_TRUE(c2_->Memset(*stale, 0, 0x7e, kSize).ok());
      std::fill(want.begin(), want.end(), 0x7e);
      break;
    case StaleOp::kMemcpy: {
      auto copy = c2_->Malloc(kSize, "mig_stale_copy");
      ASSERT_TRUE(copy.ok());
      ASSERT_TRUE(c2_->Memcpy(*copy, 0, *stale, 0, kSize).ok());
      std::vector<uint8_t> out(kSize);
      ASSERT_TRUE(c2_->Read(*copy, 0, out.data(), out.size()).ok());
      EXPECT_EQ(out, want);
      break;
    }
    case StaleOp::kFetchAdd: {
      uint64_t word = 0;
      std::memcpy(&word, want.data(), sizeof(word));
      auto old_value = c2_->FetchAdd(*stale, 0, 5);
      ASSERT_TRUE(old_value.ok());
      EXPECT_EQ(*old_value, word);
      word += 5;
      std::memcpy(want.data(), &word, sizeof(word));
      break;
    }
  }
  EXPECT_GE(cluster_->instance(2)->Stat("lite.migrate.redirects"), 1);
  EXPECT_GE(cluster_->instance(1)->Stat("lite.migrate.stale_nacks"), 1);
  // The new home holds exactly what the op left, applied once.
  auto fresh = c0_->Map("mig_stale");
  ASSERT_TRUE(fresh.ok());
  std::vector<uint8_t> out(kSize);
  ASSERT_TRUE(c0_->Read(*fresh, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, want);

  // The refreshed mapping serves follow-up ops with no further redirects.
  const int64_t redirects = cluster_->instance(2)->Stat("lite.migrate.redirects");
  uint64_t probe = 0xfeedface;
  ASSERT_TRUE(c2_->Write(*stale, 0, &probe, sizeof(probe)).ok());
  uint64_t back = 0;
  ASSERT_TRUE(c2_->Read(*stale, 0, &back, sizeof(back)).ok());
  EXPECT_EQ(back, probe);
  EXPECT_EQ(cluster_->instance(2)->Stat("lite.migrate.redirects"), redirects);
}

INSTANTIATE_TEST_SUITE_P(Ops, MigrationStaleTest,
                         ::testing::Values(StaleOp::kRead, StaleOp::kMemset, StaleOp::kMemcpy,
                                           StaleOp::kFetchAdd),
                         [](const ::testing::TestParamInfo<StaleOp>& info) {
                           return StaleOpName(info.param);
                         });

TEST_F(MigrationTest, AsyncOpAcrossMigrationRetiresExactlyOnce) {
  constexpr uint64_t kSize = 16 * 1024;
  HostedOnNode1("mig_async", kSize, 0x66);
  auto stale = c2_->Map("mig_async");
  ASSERT_TRUE(stale.ok());
  // Keep node 2's mapping stale (see StaleHandleRedirectsTransparently) so
  // the async retirement must run the transparent redo.
  cluster_->instance(1)->SetPeerDead(2, true);
  ASSERT_TRUE(c1_->Migrate("mig_async", 0).ok());
  cluster_->instance(1)->SetPeerDead(2, false);

  // Async writes issued against the stale placement: the engine redirects at
  // retirement and LT_wait_all reports per-handle success.
  std::vector<uint64_t> vals(8);
  std::vector<MemopHandle> handles;
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = 0xab00 + i;
    auto h = c2_->WriteAsync(*stale, i * 8, &vals[i], 8);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  std::vector<std::pair<MemopHandle, lt::Status>> results;
  ASSERT_TRUE(c2_->WaitAll(&results).ok());
  EXPECT_EQ(results.size(), handles.size());
  for (const auto& [h, st] : results) {
    EXPECT_TRUE(st.ok()) << st.message();
  }
  EXPECT_EQ(cluster_->instance(2)->AsyncInFlight(), 0u);

  std::vector<uint64_t> back(vals.size());
  ASSERT_TRUE(c2_->Read(*stale, 0, back.data(), back.size() * 8).ok());
  EXPECT_EQ(back, vals);
}

TEST_F(MigrationTest, MigrateUnderConcurrentWritesLosesNothing) {
  constexpr uint64_t kSlots = 32;
  HostedOnNode1("mig_live", kSlots * 8, 0x00);
  auto wh = c2_->Map("mig_live");
  ASSERT_TRUE(wh.ok());

  // Open write traffic from node 2 while node 1 migrates the LMR to node 0:
  // every write must succeed (dirty-logged, parked at the fence, or
  // redirected after commit — never failed), and the final slot values must
  // be exactly the last write each slot saw. A slot the writer never reached
  // before the migration finished keeps its initial pattern.
  std::array<uint64_t, kSlots> last{};
  const std::vector<uint8_t> initial = Pattern(kSlots * 8, 0x00);
  std::memcpy(last.data(), initial.data(), initial.size());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t seq = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t slot = seq % kSlots;
      EXPECT_TRUE(c2_->Write(*wh, slot * 8, &seq, 8).ok());
      last[slot] = seq;
      ++seq;
    }
  });

  LiteInstance::MigrateStats stats;
  ASSERT_TRUE(c1_->Migrate("mig_live", 0, &stats).ok());
  stop.store(true);
  writer.join();

  auto check = c0_->Map("mig_live");
  ASSERT_TRUE(check.ok());
  std::array<uint64_t, kSlots> final{};
  ASSERT_TRUE(c0_->Read(*check, 0, final.data(), kSlots * 8).ok());
  for (uint64_t s = 0; s < kSlots; ++s) {
    EXPECT_EQ(final[s], last[s]) << "slot " << s;
  }
  EXPECT_EQ(cluster_->instance(1)->Stat("lite.migrate.committed"), 1);
}

TEST_F(MigrationTest, MigrateValidatesArguments) {
  HostedOnNode1("mig_args", 4096, 0x11);
  EXPECT_EQ(c1_->Migrate("no_such_lmr", 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(c1_->Migrate("mig_args", 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c1_->Migrate("mig_args", 99).code(), StatusCode::kInvalidArgument);
}

TEST_F(MigrationTest, DrainNodeMovesEveryHostedLmr) {
  constexpr uint64_t kSize = 8 * 1024;
  HostedOnNode1("drain_a", kSize, 0x01);
  HostedOnNode1("drain_b", kSize, 0x02);
  HostedOnNode1("drain_c", kSize, 0x03);

  uint64_t moved = 0;
  ASSERT_TRUE(c0_->DrainNode(1, &moved).ok());
  EXPECT_EQ(moved, 3u);

  for (const char* name : {"drain_a", "drain_b", "drain_c"}) {
    auto mapped = c2_->Map(name);
    ASSERT_TRUE(mapped.ok()) << name;
    auto chunks = c2_->instance()->LmrChunks(*mapped);
    ASSERT_TRUE(chunks.ok());
    for (const LmrChunk& c : *chunks) {
      EXPECT_NE(c.node, 1u) << name;
    }
  }
  // Data survived the move intact.
  std::vector<uint8_t> out(kSize);
  auto mapped = c2_->Map("drain_b");
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(c2_->Read(*mapped, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, Pattern(kSize, 0x02));
  EXPECT_GE(cluster_->instance(0)->Stat("lite.migrate.drained_lmrs"), 3);
}

TEST_F(MultiChunkEngineTest, AsyncMultiPieceSharesEngineWithBlockingPath) {
  // An async op spanning all three nodes retires through the same engine;
  // blocking and async traffic interleave on the same QPs.
  auto pattern = Pattern(kRegion, 0x44);
  auto h = c0_->WriteAsync(lh_, 0, pattern.data(), pattern.size());
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(c0_->Wait(*h).ok());
  std::vector<uint8_t> out(kRegion);
  ASSERT_TRUE(c0_->Read(lh_, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pattern);
  EXPECT_EQ(cluster_->instance(0)->AsyncInFlight(), 0u);
}

// ---- One retry schedule for every piece.

// Which op a single dropped transfer hits.
enum class DroppedOp { kOnePiece, kThreePiece, kAsync };

struct DropRun {
  uint64_t latency_ns = 0;  // Virtual time of the op that took the drop.
  int64_t retries = 0;      // lite.oneside.retries during that op.
  int64_t posts = 0;        // rnic.ops_posted during that op.
};

// Runs one write that loses exactly one transfer, on a fresh calibrated
// 2-node cluster, after an identical warm-up write.
DropRun RunWithOneDrop(DroppedOp kind, uint64_t backoff_ns) {
  lt::SimParams p;  // Calibrated: every stage charges its modelled cost.
  p.lite_max_chunk_bytes = 4096;
  p.lite_rpc_ring_bytes = 4096;  // RPC ring must fit in one chunk.
  p.lite_rpc_retry_backoff_ns = backoff_ns;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0, /*kernel_level=*/true);
  MallocOptions on1;
  on1.nodes = {1};
  const uint64_t len = kind == DroppedOp::kThreePiece ? 3 * 4096 : 64;
  auto lh = client->Malloc(len, "retry_schedule", on1);
  if (!lh.ok()) {
    ADD_FAILURE() << "malloc: " << lh.status();
    return {};
  }
  const std::vector<uint8_t> data(len, 0x5a);
  auto write = [&] {
    if (kind != DroppedOp::kAsync) {
      return client->Write(*lh, 0, data.data(), len);
    }
    auto h = client->WriteAsync(*lh, 0, data.data(), len);
    return h.ok() ? client->Wait(*h) : h.status();
  };
  EXPECT_TRUE(write().ok());  // Warm-up: caches and QPs as in the measured op.

  DropRun run;
  run.retries = -client->Stat("lite.oneside.retries");
  run.posts = -client->Stat("rnic.ops_posted");
  cluster.faults().DropNextTransfers(0, 1, 1);
  const uint64_t t0 = lt::NowNs();
  EXPECT_TRUE(write().ok());
  run.latency_ns = lt::NowNs() - t0;
  run.retries += client->Stat("lite.oneside.retries");
  run.posts += client->Stat("rnic.ops_posted");
  EXPECT_EQ(cluster.faults().drops(), 1u);
  return run;
}

class RetryScheduleTest : public ::testing::TestWithParam<DroppedOp> {};

TEST_P(RetryScheduleTest, OneDropCostsOneBackoffAndOneRepost) {
  // The same drop under two backoff settings: everything but the backoff is
  // identical between the runs, so the latency difference is the backoff
  // the op paid — exactly one lite_rpc_retry_backoff_ns before its one
  // re-post, whatever its piece count or issue mode.
  constexpr uint64_t kShortBackoffNs = 200'000;
  constexpr uint64_t kLongBackoffNs = 1'000'000;
  const DropRun short_run = RunWithOneDrop(GetParam(), kShortBackoffNs);
  const DropRun long_run = RunWithOneDrop(GetParam(), kLongBackoffNs);
  const int64_t pieces = GetParam() == DroppedOp::kThreePiece ? 3 : 1;
  for (const DropRun& run : {short_run, long_run}) {
    EXPECT_EQ(run.retries, 1);
    EXPECT_EQ(run.posts, pieces + 1);
  }
  EXPECT_EQ(long_run.latency_ns - short_run.latency_ns, kLongBackoffNs - kShortBackoffNs);
}

INSTANTIATE_TEST_SUITE_P(Ops, RetryScheduleTest,
                         ::testing::Values(DroppedOp::kOnePiece, DroppedOp::kThreePiece,
                                           DroppedOp::kAsync),
                         [](const ::testing::TestParamInfo<DroppedOp>& info) {
                           switch (info.param) {
                             case DroppedOp::kOnePiece:
                               return "OnePiece";
                             case DroppedOp::kThreePiece:
                               return "ThreePiece";
                             case DroppedOp::kAsync:
                               return "Async";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace lite
