// Per-CPU submission/completion rings (src/lite/ring.h): doorbell batching
// and hot-window elision, deferred-async flush triggers (batch / age /
// overflow backpressure / sync barrier), slot wrap under sustained overflow,
// exactly-once handle retirement through the deferred path, rings-off
// byte-identity, the steady-state crossing saving, and the crossing-batch
// conservation invariants the health watchdog enforces.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"
#include "src/lite/ring.h"

namespace lite {
namespace {

using lt::StatusCode;

lt::SimParams RingParams(lt::SimParams base) {
  base.lite_ring_enable = true;
  return base;
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return v;
}

// ------------------------------------------------------------ rings off

TEST(LiteRingOffTest, DisabledRingsLeaveNoTraceAndNoBatchedCrossings) {
  lt::SimParams p;
  ASSERT_FALSE(p.lite_ring_enable);
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);  // User level.
  EXPECT_EQ(cluster.instance(0)->rings(), nullptr);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_off", on1);
  uint64_t v = 0x0ff;
  ASSERT_TRUE(client->Write(lh, 0, &v, 8).ok());
  auto h = client->WriteAsync(lh, 8, &v, 8);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(client->Wait(*h).ok());
  auto* inst = cluster.instance(0);
  // The classic path books plain crossings only; no ring keys exist at all.
  EXPECT_GT(inst->Stat("os.crossings"), 0);
  EXPECT_EQ(inst->Stat("os.crossings_batched"), 0);
  EXPECT_EQ(inst->Stat("lite.ring.ops"), 0);
  EXPECT_EQ(inst->Stat("lite.ring.doorbells"), 0);
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

// -------------------------------------------------- doorbells & epochs

TEST(LiteRingTest, BackToBackBlockingOpsShareOneDoorbell) {
  // Default (non-fast) params: each ~1.6us blocking op lands well inside the
  // 6us hot window, so 100 ops amortize a single crossing.
  lt::SimParams p = RingParams(lt::SimParams{});
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(64 << 10, "ring_hot", on1);
  std::vector<uint8_t> buf = Pattern(64, 0x21);
  // Malloc/Map are control-plane (classic crossing); only data-path ops ring.
  const int64_t crossings_before = cluster.instance(0)->Stat("os.crossings");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client->Write(lh, 64 * static_cast<uint64_t>(i), buf.data(), buf.size()).ok());
  }
  auto* inst = cluster.instance(0);
  EXPECT_EQ(inst->Stat("lite.ring.doorbells"), 1);
  EXPECT_EQ(inst->Stat("lite.ring.ops"), 100);
  EXPECT_EQ(inst->Stat("os.crossings") - crossings_before, 1);
  // The lone epoch is still open; its ops are visible through the probe so
  // conservation holds mid-flight.
  EXPECT_EQ(inst->Stat("lite.ring.open_epochs"), 1);
  EXPECT_EQ(inst->Stat("lite.ring.open_epoch_ops"), 100);
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

TEST(LiteRingTest, ColdGapClosesEpochAndPaysFreshDoorbell) {
  lt::SimParams p = RingParams(lt::SimParams{});
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_cold", on1);
  uint64_t v = 1;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->Write(lh, 0, &v, 8).ok());
  }
  // Sit idle past the hot window: the kernel-half drainer goes to sleep.
  lt::IdleFor(kAdaptiveSpinNs + p.lite_ring_flush_ns + 10'000);
  ASSERT_TRUE(client->Write(lh, 0, &v, 8).ok());
  auto* inst = cluster.instance(0);
  EXPECT_EQ(inst->Stat("lite.ring.doorbells"), 2);
  // The first epoch closed at the second doorbell and recorded its batch.
  auto snap = inst->StatSnapshot();
  const auto& hist = snap.histograms.at("lite.ring.ops_per_crossing");
  EXPECT_EQ(hist.count, 1u);
  EXPECT_EQ(hist.sum, 10u);
  EXPECT_EQ(inst->Stat("lite.ring.open_epoch_ops"), 1);
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

TEST(LiteRingTest, SteadyStateBlockingOpSavesExactlyOneCrossing) {
  // With default cost params, the only difference between the ring path and
  // the classic path for a hot blocking op is the elided 85ns crossing.
  MallocOptions on1;
  on1.nodes = {1};
  std::vector<uint8_t> buf = Pattern(64, 0x42);

  auto measure = [&](bool rings) {
    lt::SimParams p = lt::SimParams{};
    p.lite_ring_enable = rings;
    LiteCluster cluster(2, p);
    auto client = cluster.CreateClient(0);
    auto lh = *client->Malloc(64 << 10, "ring_lat", on1);
    // Warm up: first ring op pays the doorbell, so it matches the classic
    // path; steady state begins at op two.
    EXPECT_TRUE(client->Write(lh, 0, buf.data(), buf.size()).ok());
    const uint64_t t0 = lt::NowNs();
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(client->Write(lh, 0, buf.data(), buf.size()).ok());
    }
    return (lt::NowNs() - t0) / 50;
  };

  const uint64_t off_ns = measure(false);
  const uint64_t on_ns = measure(true);
  EXPECT_EQ(off_ns - on_ns, lt::kUserKernelCrossNs)
      << "rings-off " << off_ns << "ns vs rings-on " << on_ns << "ns";
}

// ------------------------------------------------- deferred async flushes

TEST(LiteRingTest, AsyncBatchFlushesAtDoorbellThreshold) {
  lt::SimParams p = RingParams(lt::SimParams{});
  p.lite_ring_doorbell_batch = 8;
  p.lite_ring_flush_ns = ~0ull >> 1;  // Age trigger off: isolate the batch one.
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_batch", on1);
  std::vector<uint64_t> vals(8);
  for (int i = 0; i < 8; ++i) {
    vals[i] = 0xb000ull + static_cast<uint64_t>(i);
    ASSERT_TRUE(client->WriteAsync(lh, 8 * static_cast<uint64_t>(i), &vals[i], 8).ok());
  }
  auto* inst = cluster.instance(0);
  // The eighth submit hit the batch threshold and drained the ring.
  EXPECT_EQ(inst->Stat("lite.ring.deferred_pending"), 0);
  EXPECT_GE(inst->Stat("lite.ring.deferred_flushes"), 1);
  ASSERT_TRUE(client->WaitAll().ok());
  std::vector<uint64_t> back(8, 0);
  ASSERT_TRUE(client->Read(lh, 0, back.data(), 64).ok());
  EXPECT_EQ(back, vals);
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

TEST(LiteRingTest, AgedSubmissionFlushesOnNextSubmit) {
  lt::SimParams p = RingParams(lt::SimParams{});
  p.lite_ring_doorbell_batch = 64;  // Batch trigger off: isolate the age one.
  p.lite_ring_flush_ns = 1'000;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_aged", on1);
  uint64_t v = 7;
  ASSERT_TRUE(client->WriteAsync(lh, 0, &v, 8).ok());
  EXPECT_EQ(cluster.instance(0)->Stat("lite.ring.deferred_pending"), 1);
  lt::SpinFor(2'000);  // Let the head entry exceed the flush deadline.
  ASSERT_TRUE(client->WriteAsync(lh, 8, &v, 8).ok());
  EXPECT_EQ(cluster.instance(0)->Stat("lite.ring.deferred_pending"), 0);
  ASSERT_TRUE(client->WaitAll().ok());
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

TEST(LiteRingTest, RingFullAppliesOverflowBackpressure) {
  lt::SimParams p = RingParams(lt::SimParams{});
  p.lite_ring_entries = 4;
  p.lite_ring_doorbell_batch = 64;        // > entries: overflow fires first.
  p.lite_ring_flush_ns = ~0ull >> 1;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_full", on1);
  uint64_t v = 3;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->WriteAsync(lh, 8 * static_cast<uint64_t>(i), &v, 8).ok());
  }
  auto* inst = cluster.instance(0);
  // The fourth submit filled the ring; the producer drained it inline rather
  // than dropping or growing without bound.
  EXPECT_GE(inst->Stat("lite.ring.overflow_flushes"), 1);
  EXPECT_EQ(inst->Stat("lite.ring.deferred_pending"), 0);
  ASSERT_TRUE(client->WaitAll().ok());
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

TEST(LiteRingTest, SlotWrapUnderSustainedOverflowKeepsEveryOp) {
  // Tiny ring, ten times as many ops: every slot is reused many times over
  // and no submission may be lost or misordered per offset.
  lt::SimParams p = RingParams(lt::SimParams{});
  p.lite_ring_entries = 4;
  p.lite_ring_doorbell_batch = 64;
  p.lite_ring_flush_ns = ~0ull >> 1;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(8192, "ring_wrap", on1);
  std::vector<uint64_t> vals(100);
  for (int i = 0; i < 100; ++i) {
    vals[i] = 0xffaa'0000ull + static_cast<uint64_t>(i);
    ASSERT_TRUE(client->WriteAsync(lh, 8 * static_cast<uint64_t>(i), &vals[i], 8).ok());
  }
  ASSERT_TRUE(client->WaitAll().ok());
  std::vector<uint64_t> back(100, 0);
  ASSERT_TRUE(client->Read(lh, 0, back.data(), 800).ok());
  EXPECT_EQ(back, vals);
  EXPECT_EQ(cluster.instance(0)->Stat("lite.ring.ops"), 101);  // 100 async + read.
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

TEST(LiteRingTest, SyncOpOnSameRingFlushesPendingAsyncFirst) {
  lt::SimParams p = RingParams(lt::SimParams{});
  p.lite_ring_cpus = 1;  // Both calls land on the same ring regardless of hash.
  p.lite_ring_doorbell_batch = 64;
  p.lite_ring_flush_ns = ~0ull >> 1;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_sync", on1);
  uint64_t v = 0x5eed;
  ASSERT_TRUE(client->WriteAsync(lh, 0, &v, 8).ok());
  EXPECT_EQ(cluster.instance(0)->Stat("lite.ring.deferred_pending"), 1);
  // The blocking read is a full barrier for this ring: the deferred write is
  // issued ahead of it, so the same sticky QP orders write before read.
  uint64_t back = 0;
  ASSERT_TRUE(client->Read(lh, 0, &back, 8).ok());
  ASSERT_TRUE(client->WaitAll().ok());
  EXPECT_EQ(back, v);
  EXPECT_EQ(cluster.instance(0)->Stat("lite.ring.deferred_pending"), 0);
}

// -------------------------------------------- handle retirement semantics

TEST(LiteRingTest, PollFlushesAndConsumesExactlyOnce) {
  lt::SimParams p = RingParams(lt::SimParams{});
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_poll", on1);
  uint64_t v = 0xbeef;
  auto h = client->WriteAsync(lh, 64, &v, 8);
  ASSERT_TRUE(h.ok());
  bool done = false;
  for (int i = 0; i < 100000 && !done; ++i) {
    auto r = client->Poll(*h);
    ASSERT_TRUE(r.ok());
    done = *r;
    if (!done) {
      lt::SpinFor(100);
    }
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(client->Poll(*h).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Wait(*h).code(), StatusCode::kInvalidArgument);
}

TEST(LiteRingTest, SubmitTimeValidationMatchesClassicPath) {
  lt::SimParams p = RingParams(lt::SimParams{});
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_valid", on1);
  uint64_t v = 0;
  EXPECT_EQ(client->WriteAsync(lh, 4096 - 4, &v, 8).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(client->ReadAsync(Lh{987654}, 0, &v, 8).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cluster.instance(0)->Stat("lite.ring.deferred_pending"), 0);
}

TEST(LiteRingTest, DrainTimeFailureResolvesHandleWithError) {
  // The lh is valid at submit but freed before the batch drains: the kernel
  // half must still retire the reserved handle (with the error), never hang.
  lt::SimParams p = RingParams(lt::SimParams{});
  p.lite_ring_doorbell_batch = 64;
  p.lite_ring_flush_ns = ~0ull >> 1;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(4096, "ring_fail", on1);
  uint64_t v = 5;
  auto h = client->WriteAsync(lh, 0, &v, 8);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(client->Free(lh).ok());  // Control plane: does not flush rings.
  const Status st = client->Wait(*h);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(client->Wait(*h).code(), StatusCode::kInvalidArgument);  // Consumed.
  EXPECT_EQ(cluster.instance(0)->Stat("lite.ring.deferred_pending"), 0);
}

// ------------------------------------------------- concurrency (TSan bait)

// Rings compose with either transport (DESIGN.md §10): the deferred path
// leases TransportHandles like any other submission, so coherence and the
// crossing-conservation invariants must hold when the handles come from the
// DC shared pool (re-targets and all) exactly as from the RC per-peer pool.
class LiteRingTransportTest : public ::testing::TestWithParam<lt::LiteTransport> {
 protected:
  lt::SimParams BaseParams() const {
    lt::SimParams p = RingParams(lt::SimParams{});
    p.lite_transport = GetParam();
    return p;
  }
};

INSTANTIATE_TEST_SUITE_P(Modes, LiteRingTransportTest,
                         ::testing::Values(lt::LiteTransport::kRc, lt::LiteTransport::kDc),
                         [](const ::testing::TestParamInfo<lt::LiteTransport>& info) {
                           return info.param == lt::LiteTransport::kDc ? "dc" : "rc";
                         });

TEST_P(LiteRingTransportTest, ConcurrentSubmittersAndReapersStayCoherent) {
  lt::SimParams p = BaseParams();
  p.lite_ring_cpus = 2;  // Fewer rings than threads: forced sharing.
  p.lite_ring_doorbell_batch = 4;
  LiteCluster cluster(2, p);
  MallocOptions on1;
  on1.nodes = {1};
  auto owner = cluster.CreateClient(0);
  auto lh = *owner->Malloc(64 << 10, "ring_mt", on1);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster.CreateClient(0);
      const uint64_t base = static_cast<uint64_t>(t) * kOpsPerThread * 8;
      std::vector<uint64_t> vals(kOpsPerThread);
      for (int i = 0; i < kOpsPerThread; ++i) {
        vals[i] = (static_cast<uint64_t>(t) << 32) | static_cast<uint64_t>(i);
        ASSERT_TRUE(
            client->WriteAsync(lh, base + 8 * static_cast<uint64_t>(i), &vals[i], 8).ok());
        if (i % 8 == 7) {
          ASSERT_TRUE(client->WaitAll().ok());
        }
      }
      ASSERT_TRUE(client->WaitAll().ok());
      std::vector<uint64_t> back(kOpsPerThread, 0);
      ASSERT_TRUE(client->Read(lh, base, back.data(), kOpsPerThread * 8).ok());
      EXPECT_EQ(back, vals);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(owner->WaitAll().ok());
  EXPECT_EQ(cluster.instance(0)->Stat("lite.ring.deferred_pending"), 0);
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

// ------------------------------------------------------------ conservation

TEST_P(LiteRingTransportTest, MixedWorkloadSatisfiesCrossingConservation) {
  lt::SimParams p = BaseParams();
  LiteCluster cluster(3, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = *client->Malloc(64 << 10, "ring_mix", on1);
  std::vector<uint8_t> buf = Pattern(512, 0x33);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(client->WriteAsync(lh, 512 * static_cast<uint64_t>(i), buf.data(), 512).ok());
    }
    ASSERT_TRUE(client->WaitAll().ok());
    ASSERT_TRUE(client->Read(lh, 0, buf.data(), 512).ok());
    ASSERT_TRUE(client->FetchAdd(lh, 32 << 10, 1).ok());
    // Park long enough for the next round to need a fresh doorbell.
    lt::IdleFor(kAdaptiveSpinNs + p.lite_ring_flush_ns + 10'000);
  }
  auto* inst = cluster.instance(0);
  auto snap = inst->StatSnapshot();
  const auto& hist = snap.histograms.at("lite.ring.ops_per_crossing");
  // ops == closed-epoch sum + still-open epochs; doorbells == batched
  // crossings; batched never exceeds total.
  EXPECT_EQ(snap.ValueOr("lite.ring.ops"),
            static_cast<int64_t>(hist.sum) + snap.ValueOr("lite.ring.open_epoch_ops"));
  EXPECT_EQ(snap.ValueOr("lite.ring.doorbells"), snap.ValueOr("os.crossings_batched"));
  EXPECT_EQ(static_cast<int64_t>(hist.count) + snap.ValueOr("lite.ring.open_epochs"),
            snap.ValueOr("os.crossings_batched"));
  EXPECT_LE(snap.ValueOr("os.crossings_batched"), snap.ValueOr("os.crossings"));
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

}  // namespace
}  // namespace lite
