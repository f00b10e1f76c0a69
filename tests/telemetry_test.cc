// lt::telemetry: metrics registry, sampled per-op records (tracing), and the
// LT_stat introspection path through the simulated stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"
#include "src/node/node.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/latency_attr.h"

namespace lt {
namespace telemetry {
namespace {

// ------------------------------------------------------------------ metrics

TEST(RegistryTest, GetReturnsStablePointers) {
  Registry reg;
  Counter* a = reg.GetCounter("a");
  Counter* b = reg.GetCounter("b");
  EXPECT_NE(a, b);
  // Growth must not move existing metrics (components cache the pointer).
  for (int i = 0; i < 1000; ++i) {
    reg.GetCounter("grow." + std::to_string(i));
  }
  EXPECT_EQ(a, reg.GetCounter("a"));
  EXPECT_EQ(b, reg.GetCounter("b"));
}

TEST(RegistryTest, ConcurrentIncrementsAreLossless) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 50'000;
  Counter* c = reg.GetCounter("ops");
  Gauge* g = reg.GetGauge("level");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncsPerThread; ++i) {
        c->Inc();
        g->Add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kIncsPerThread);
  EXPECT_EQ(g->value(), static_cast<int64_t>(kThreads) * kIncsPerThread);
}

TEST(RegistryTest, HistogramSnapshotIsInternallyConsistent) {
  Registry reg;
  FixedHistogram* h = reg.GetHistogram("lat");
  // Hammer Record() while repeatedly snapshotting: every snapshot must agree
  // with itself (count == sum of buckets) even mid-race.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t v = 1 + t;
      while (!stop.load(std::memory_order_relaxed)) {
        h->Record(v);
        v = v * 2654435761u + 1;  // Spread across buckets.
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    HistogramSnapshot s = h->Snapshot();
    uint64_t bucket_sum = 0;
    for (uint64_t b : s.buckets) {
      bucket_sum += b;
    }
    ASSERT_EQ(s.count, bucket_sum);
  }
  stop.store(true);
  for (auto& t : writers) {
    t.join();
  }
}

TEST(RegistryTest, HistogramBucketsAndPercentiles) {
  FixedHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(100);
  h.Record(1000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 1101u);
  EXPECT_DOUBLE_EQ(s.Mean(), 1101.0 / 4.0);
  // Bucket upper bounds: p0 -> 0, p100 -> covers 1000 (bit width 10: 1023).
  EXPECT_EQ(s.Percentile(0), 0u);
  EXPECT_GE(s.Percentile(100), 1000u);
  EXPECT_LE(s.Percentile(100), 1023u);
}

TEST(RegistryTest, SnapshotIncludesProbesAndValueOr) {
  Registry reg;
  reg.GetCounter("counted")->Inc(7);
  uint64_t source = 41;
  reg.RegisterProbe("probed", [&source] { return source; });
  source = 42;
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.ValueOr("counted"), 7);
  EXPECT_EQ(snap.ValueOr("probed"), 42);  // Probes read at snapshot time.
  EXPECT_EQ(snap.ValueOr("absent", -5), -5);
}

TEST(MetricsSnapshotTest, ToJsonSchema) {
  Registry reg;
  reg.GetCounter("x.count")->Inc(3);
  reg.GetHistogram("x.lat")->Record(16);
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"x.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"x.lat\":{\"count\":1"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// ------------------------------------------------------------------ tracing

// A standalone record sink over its own registry, with sampling `every`.
struct SampledSink {
  explicit SampledSink(uint32_t every) { sink.SetSampleEvery(every); }
  Registry reg;
  LatencyAttr sink{&reg};
};

TEST(TracerTest, SamplingDisabledMeansNoSpans) {
  SampledSink s(0);  // sample_every 0 is the default.
  {
    ScopedOpAttr op(&s.sink, "op", 64, 0);
    EXPECT_EQ(CurrentTraceId(), 0u);
    AttrAdd(kLatPost, 10);  // Booked into the histograms only.
  }
  EXPECT_EQ(s.sink.traces_committed(), 0u);
  EXPECT_TRUE(s.sink.Traces().empty());
}

TEST(TracerTest, NestedSpansAreInert) {
  SampledSink s(1);
  {
    ScopedOpAttr outer(&s.sink, "outer", 64, 0);
    const uint64_t outer_id = CurrentTraceId();
    ASSERT_NE(outer_id, 0u);
    {
      ScopedOpAttr inner(&s.sink, "inner", 64, 0);
      EXPECT_EQ(CurrentTraceId(), outer_id);
      SpinFor(10);
      AttrAdd(kLatPost, 10);  // Lands in the outer record.
    }
    EXPECT_EQ(CurrentTraceId(), outer_id);  // Inner destruction didn't clear it.
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
  ASSERT_EQ(s.sink.traces_committed(), 1u);
  auto traces = s.sink.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_STREQ(traces[0].op, "outer");
  ASSERT_EQ(traces[0].n_events, 1);
  EXPECT_EQ(traces[0].events[0].stage, kLatPost);
  EXPECT_EQ(traces[0].events[0].ns, 10u);
}

TEST(TracerTest, RingIsBounded) {
  SampledSink s(1);
  const size_t total = LatencyAttr::kTraceRingCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    ScopedOpAttr op(&s.sink, "op", 64, 0);
  }
  EXPECT_EQ(s.sink.traces_committed(), total);
  EXPECT_EQ(s.sink.traces_dropped(), 100u);
  auto traces = s.sink.Traces();
  ASSERT_EQ(traces.size(), LatencyAttr::kTraceRingCapacity);
  // Oldest records were overwritten: the ring holds the most recent commits
  // in order.
  for (size_t i = 1; i < traces.size(); ++i) {
    EXPECT_GT(traces[i].op_id, traces[i - 1].op_id);
  }
}

// Regression: the client API layer wraps the instance layer, so every op
// offers two claim points. The outer one must claim the op even when it
// declines to sample — if the inner layer re-rolled the sampler, a 1-in-even
// stride parity-locks onto the inner layer and every sampled record loses the
// stages above it (seen as fig06 records missing the cross stage).
TEST(TracerTest, InnerSpanNeverReRollsSampling) {
  SampledSink s(2);
  for (int i = 0; i < 20; ++i) {
    ScopedOpAttr outer(&s.sink, "outer", 64, 0);
    const uint64_t outer_id = CurrentTraceId();
    ScopedOpAttr inner(&s.sink, "inner", 64, 0);
    EXPECT_EQ(CurrentTraceId(), outer_id);
  }
  EXPECT_EQ(s.sink.traces_committed(), 10u);
  for (const OpTrace& trace : s.sink.Traces()) {
    EXPECT_STREQ(trace.op, "outer");
  }
}

TEST(TracerTest, SampleEveryNKeepsOneInN) {
  SampledSink s(10);
  for (int i = 0; i < 100; ++i) {
    ScopedOpAttr op(&s.sink, "op", 64, 0);
  }
  EXPECT_EQ(s.sink.traces_committed(), 10u);
}

// Records carried through the LITE fast path must book stages in
// monotonically non-decreasing virtual time, all inside the op's interval.
TEST(TraceIntegrationTest, LiteWriteSpanStagesAreMonotone) {
  lt::SimParams p;
  lite::LiteCluster cluster(2, p);
  cluster.EnableTracing(/*sample_every=*/1);
  auto client = cluster.CreateClient(0);  // User-level: includes the crossing.
  lite::MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(16 << 10, "trace_target", on1);
  ASSERT_TRUE(lh.ok());
  char buf[256] = {3};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Write(*lh, 0, buf, sizeof(buf)).ok());
  }
  auto traces = cluster.node(0)->telemetry().latency().Traces();
  ASSERT_FALSE(traces.empty());
  size_t writes = 0;
  for (const OpTrace& trace : traces) {
    if (std::strcmp(trace.op, "write") != 0) {
      continue;
    }
    ++writes;
    ASSERT_GE(trace.n_events, 2);
    uint64_t cursor = trace.start_ns;
    for (int e = 0; e < trace.n_events; ++e) {
      const OpEvent& ev = trace.events[e];
      EXPECT_GE(ev.t_ns, cursor) << "stage " << LatStageName(ev.stage) << " went backwards";
      cursor = ev.t_ns + ev.ns;
    }
    EXPECT_LE(cursor, trace.end_ns);
    // A remote user-level write must cross the boundary, pass the lh check,
    // ring the doorbell, cross the wire, and observe its completion.
    bool saw[kLatStageCount] = {};
    for (int e = 0; e < trace.n_events; ++e) {
      saw[trace.events[e].stage] = true;
    }
    EXPECT_TRUE(saw[kLatCross]);
    EXPECT_TRUE(saw[kLatSubmit]);
    EXPECT_TRUE(saw[kLatPost]);
    EXPECT_TRUE(saw[kLatWire]);
    EXPECT_TRUE(saw[kLatComplPoll]);
  }
  EXPECT_GT(writes, 0u);
}

// --------------------------------------------------------------- LT_stat

TEST(LtStatTest, HardwareAndLiteMetricsAreQueryable) {
  lt::SimParams p;
  lite::LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  auto server = cluster.CreateClient(1, /*kernel_level=*/true);
  ASSERT_TRUE(server->RegisterRpc(7).ok());
  std::thread service([&] {
    auto inc = server->RecvRpc(7);
    ASSERT_TRUE(inc.ok());
    ASSERT_TRUE(server->ReplyRpc(inc->token, "pong", 4).ok());
  });
  char out[16];
  uint32_t out_len = 0;
  ASSERT_TRUE(client->Rpc(1, 7, "ping", 4, out, sizeof(out), &out_len).ok());
  service.join();

  // Client node: OS crossings and posted WQEs.
  EXPECT_GT(client->Stat("os.crossings"), 0);
  EXPECT_GT(client->Stat("rnic.ops_posted"), 0);
  EXPECT_GT(client->Stat("lite.qos.admits"), 0);
  // Server node: the RPC arrived through the poll loop.
  auto server_snap = server->StatSnapshot();
  EXPECT_GT(server_snap.ValueOr("lite.rpc.requests"), 0);
  EXPECT_GT(server_snap.ValueOr("lite.poll.wakeups"), 0);
  auto batch = server_snap.histograms.find("lite.rpc.poll_batch");
  ASSERT_NE(batch, server_snap.histograms.end());
  EXPECT_GT(batch->second.count, 0u);
  // Client node saw the reply.
  EXPECT_GT(client->Stat("lite.rpc.replies"), 0);
}

// Fig-4 cliff, observed directly: random 64B writes across more MRs than the
// RNIC's MPT cache holds must drive the server-side miss counter up, while
// the same traffic against few MRs stays cached.
TEST(MptCacheIntegrationTest, MissCountersRisePast128Mrs) {
  auto run = [](size_t num_mrs, uint64_t* hits, uint64_t* misses) {
    lt::SimParams p;
    p.node_phys_mem_bytes = 64ull << 20;
    ASSERT_GE(lt::kMptCacheEntries, 128u);
    lt::Cluster cluster(2, p);
    lt::Process* client = cluster.node(0)->CreateProcess();
    lt::Process* server = cluster.node(1)->CreateProcess();
    auto heap = server->page_table().AllocVirt(num_mrs * 4096);
    ASSERT_TRUE(heap.ok());
    std::vector<lt::VerbsMr> mrs;
    for (size_t i = 0; i < num_mrs; ++i) {
      mrs.push_back(*server->verbs().RegisterMr(*heap + i * 4096, 4096, lt::kMrAll));
    }
    auto local = client->page_table().AllocVirt(4096);
    auto lmr = *client->verbs().RegisterMr(*local, 4096, lt::kMrAll);
    lt::Qp* q0 = client->verbs().CreateQp(lt::QpType::kRc, client->verbs().CreateCq(),
                                          client->verbs().CreateCq());
    lt::Qp* q1 = server->verbs().CreateQp(lt::QpType::kRc, server->verbs().CreateCq(),
                                          server->verbs().CreateCq());
    q0->Connect(1, q1->qpn());
    q1->Connect(0, q0->qpn());
    const uint64_t misses_before =
        static_cast<uint64_t>(cluster.node(1)->telemetry().registry().Snapshot().ValueOr(
            "rnic.mpt.misses"));
    for (int i = 0; i < 600; ++i) {
      lt::WorkRequest wr;
      wr.opcode = lt::WrOpcode::kWrite;
      wr.lkey = lmr.lkey;
      wr.local_addr = *local;
      wr.length = 64;
      wr.rkey = mrs[static_cast<size_t>(i) % mrs.size()].rkey;
      wr.remote_addr = mrs[static_cast<size_t>(i) % mrs.size()].addr;
      ASSERT_TRUE(client->verbs().ExecSync(q0, wr).ok());
    }
    auto snap = cluster.node(1)->telemetry().registry().Snapshot();
    *hits = static_cast<uint64_t>(snap.ValueOr("rnic.mpt.hits"));
    *misses = static_cast<uint64_t>(snap.ValueOr("rnic.mpt.misses")) - misses_before;
  };
  uint64_t small_hits = 0, small_misses = 0, big_hits = 0, big_misses = 0;
  run(16, &small_hits, &small_misses);
  run(256, &big_hits, &big_misses);  // Past the 128-entry MPT cache.
  // 16 MRs fit: after warmup everything hits. 256 MRs cycled round-robin
  // through a 128-entry LRU: every access misses.
  EXPECT_LT(small_misses, 600u / 10);
  EXPECT_GT(big_misses, 500u);
  EXPECT_GT(big_misses, small_misses * 10);
  // Evictions only happen once capacity is exceeded.
  lt::LruCache tiny(4);
  for (uint64_t k = 0; k < 10; ++k) {
    tiny.Touch(k);
  }
  EXPECT_EQ(tiny.evictions(), 6u);
}

// ------------------------------------------------- Histogram::Snapshot (fix)

TEST(HistogramSnapshotFixTest, SnapshotIsConsistentUnderConcurrentAdd) {
  lt::Histogram h;
  // Bounded writer: unbounded growth makes later snapshots (copy + sort)
  // quadratically slow on a loaded machine.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (double v = 0.0; v < 50'000.0; v += 1.0) {
      h.Add(v);
    }
    done.store(true, std::memory_order_release);
  });
  int snapshots = 0;
  while (snapshots < 100 && !done.load(std::memory_order_acquire)) {
    ++snapshots;
    lt::HistogramStats s = h.Snapshot();
    // The snapshot's own stats always agree with its sample copy — the race
    // between count() and Percentile() cannot occur through this API.
    ASSERT_EQ(s.count, s.sorted_samples.size());
    ASSERT_TRUE(std::is_sorted(s.sorted_samples.begin(), s.sorted_samples.end()));
    if (s.count > 0) {
      ASSERT_EQ(s.min, s.sorted_samples.front());
      ASSERT_EQ(s.max, s.sorted_samples.back());
      ASSERT_LE(s.Percentile(50), s.max);
      ASSERT_GE(s.Percentile(50), s.min);
    }
  }
  writer.join();
  EXPECT_EQ(h.Snapshot().count, 50'000u);
}

TEST(HistogramSnapshotFixTest, StatsMatchKnownData) {
  lt::Histogram h;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    h.Add(v);
  }
  lt::HistogramStats s = h.Snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
}

}  // namespace
}  // namespace telemetry
}  // namespace lt
