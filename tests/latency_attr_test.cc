// Per-op latency attribution (src/telemetry/latency_attr.h): stage-sum
// conservation across every op shape, watchdog invariants, histogram min/max
// tracking, and the human-readable waterfall.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/lite/lite_cluster.h"
#include "src/telemetry/latency_attr.h"
#include "src/telemetry/metrics.h"

namespace lt {
namespace telemetry {
namespace {

// ------------------------------------------------- histogram min/max (fix)

TEST(FixedHistogramMinMaxTest, SingleSampleIsExact) {
  FixedHistogram h;
  h.Record(4000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.min, 4000u);
  EXPECT_EQ(s.max, 4000u);
  // Power-of-two buckets would report the bucket bound (~8191); min/max
  // clamping makes single-sample percentiles exact.
  EXPECT_EQ(s.Percentile(50), 4000u);
  EXPECT_EQ(s.Percentile(99), 4000u);
}

TEST(FixedHistogramMinMaxTest, PercentilesClampToObservedRange) {
  FixedHistogram h;
  h.Record(10);
  h.Record(1'000'000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.min, 10u);
  EXPECT_EQ(s.max, 1'000'000u);
  EXPECT_GE(s.Percentile(0), 10u);
  EXPECT_LE(s.Percentile(100), 1'000'000u);
}

TEST(SizeClassTest, BucketsAreStable) {
  EXPECT_STREQ(LatencyAttr::SizeClass(0), "0B");
  EXPECT_STREQ(LatencyAttr::SizeClass(8), "64B");
  EXPECT_STREQ(LatencyAttr::SizeClass(64), "64B");
  EXPECT_STREQ(LatencyAttr::SizeClass(65), "512B");
  EXPECT_STREQ(LatencyAttr::SizeClass(4096), "4K");
  EXPECT_STREQ(LatencyAttr::SizeClass(1 << 20), "1M");
  EXPECT_STREQ(LatencyAttr::SizeClass(2 << 20), "big");
}

// ------------------------------------------------------- key index

// Op names with static storage, as the sink requires: two with equal text at
// different addresses, and the names the other index tests commit under.
const char kTwinA[] = "twin";
const char kTwinB[] = "twin";
const char kKeyed[] = "keyed";
const char kRace[] = "race";

// Commits one record of `op` whose whole e2e is post time.
void CommitOne(LatencyAttr* sink, const char* op, uint64_t bytes, int pri, uint64_t e2e_ns) {
  OpAttrRecord rec;
  rec.active = true;
  rec.op = op;
  rec.bytes = bytes;
  rec.pri = pri;
  rec.stage_ns[kLatPost] = e2e_ns;
  sink->Commit(rec, e2e_ns);
}

uint64_t E2eCount(const MetricsSnapshot& snap, const std::string& key) {
  auto it = snap.histograms.find("lite.lat." + key + ".e2e");
  return it == snap.histograms.end() ? 0 : it->second.count;
}

size_t HistogramsUnder(const MetricsSnapshot& snap, const std::string& prefix) {
  size_t n = 0;
  for (const auto& [name, h] : snap.histograms) {
    n += name.rfind(prefix, 0) == 0 ? 1 : 0;
  }
  return n;
}

TEST(LatencyKeyIndexTest, EqualTextAtTwoAddressesSharesOneKey) {
  ASSERT_NE(static_cast<const void*>(kTwinA), static_cast<const void*>(kTwinB));
  Registry reg;
  LatencyAttr sink(&reg);
  for (int i = 0; i < 3; ++i) {
    CommitOne(&sink, kTwinA, 64, 0, 100);
    CommitOne(&sink, kTwinB, 64, 0, 200);
  }
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(E2eCount(snap, "twin.64B.hi"), 6u);
  EXPECT_EQ(snap.histograms.at("lite.lat.twin.64B.hi.e2e").sum, 900u);
  EXPECT_EQ(snap.histograms.at("lite.lat.twin.64B.hi.post").count, 6u);
  // One set of histograms: the e2e and one per stage.
  EXPECT_EQ(HistogramsUnder(snap, "lite.lat.twin."), kLatStageCount + 1u);
}

TEST(LatencyKeyIndexTest, SizeClassAndPriorityKeepKeysApart) {
  Registry reg;
  LatencyAttr sink(&reg);
  CommitOne(&sink, kKeyed, 64, 0, 10);
  CommitOne(&sink, kKeyed, 65, 0, 10);
  CommitOne(&sink, kKeyed, 4096, 0, 10);
  CommitOne(&sink, kKeyed, 4096, 0, 10);
  for (int i = 0; i < 3; ++i) {
    CommitOne(&sink, kKeyed, 64, 1, 10);
  }
  CommitOne(&sink, kKeyed, 4096, 1, 10);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(E2eCount(snap, "keyed.64B.hi"), 1u);
  EXPECT_EQ(E2eCount(snap, "keyed.512B.hi"), 1u);
  EXPECT_EQ(E2eCount(snap, "keyed.4K.hi"), 2u);
  EXPECT_EQ(E2eCount(snap, "keyed.64B.lo"), 3u);
  EXPECT_EQ(E2eCount(snap, "keyed.4K.lo"), 1u);
  EXPECT_EQ(HistogramsUnder(snap, "lite.lat.keyed."), 5 * (kLatStageCount + 1u));
}

TEST(LatencyKeyIndexTest, OpsPastAFullIndexRowStillRecord) {
  // Far more distinct op addresses of one size class and priority than an
  // index row holds: the ones that find no free entry resolve by name.
  static const std::vector<std::string>* const names = [] {
    auto* v = new std::vector<std::string>();
    for (int i = 0; i < 64; ++i) {
      v->push_back("many" + std::to_string(i));
    }
    return v;
  }();
  Registry reg;
  LatencyAttr sink(&reg);
  for (int round = 0; round < 2; ++round) {
    for (const std::string& name : *names) {
      CommitOne(&sink, name.c_str(), 64, 0, 10);
    }
  }
  const MetricsSnapshot snap = reg.Snapshot();
  for (const std::string& name : *names) {
    EXPECT_EQ(E2eCount(snap, name + ".64B.hi"), 2u) << name;
  }
}

TEST(LatencyKeyIndexTest, ConcurrentFirstCommitsRegisterOnceAndLoseNothing) {
  constexpr int kThreads = 8;
  constexpr uint64_t kCommits = 2000;
  Registry reg;
  LatencyAttr sink(&reg);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Every thread's first commit of the new key starts together.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) {
      }
      for (uint64_t i = 0; i < kCommits; ++i) {
        CommitOne(&sink, kRace, 64, 0, 1 + i % 7);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(E2eCount(snap, "race.64B.hi"), kThreads * kCommits);
  EXPECT_EQ(snap.histograms.at("lite.lat.race.64B.hi.post").count, kThreads * kCommits);
  EXPECT_EQ(HistogramsUnder(snap, "lite.lat.race."), kLatStageCount + 1u);
}

// --------------------------------------------------- conservation helpers

// For every `lite.lat.<key>.e2e` histogram in `snap`, the sum of the stage
// histograms' sums must equal the e2e sum EXACTLY (Commit() rescales and
// books the remainder as `other` to guarantee this).
void ExpectConservation(const MetricsSnapshot& snap, const std::string& tag) {
  size_t keys_checked = 0;
  for (const auto& [name, e2e] : snap.histograms) {
    if (name.rfind("lite.lat.", 0) != 0) {
      continue;
    }
    const std::string suffix = ".e2e";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - suffix.size());
    uint64_t stage_sum = 0;
    for (int s = 0; s < kLatStageCount; ++s) {
      auto it = snap.histograms.find(base + '.' + LatStageName(s));
      if (it != snap.histograms.end()) {
        stage_sum += it->second.sum;
      }
    }
    EXPECT_EQ(stage_sum, e2e.sum) << tag << ": stage sums diverge from e2e for " << base;
    ++keys_checked;
  }
  EXPECT_GT(keys_checked, 0u) << tag << ": no lite.lat.* keys recorded at all";
}

void ExpectClusterHealthy(lite::LiteCluster* cluster, const std::string& tag) {
  const auto violations = cluster->RunHealthCheck();
  EXPECT_TRUE(violations.empty()) << tag << ": " << violations.size() << " violations, first: "
                                  << (violations.empty() ? "" : violations[0]);
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return v;
}

// ------------------------------------------------- conservation: blocking

TEST(AttrConservationTest, BlockingMemopsAndAtomics) {
  lt::SimParams p;
  lite::LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);  // User-level: includes the crossing.
  lite::MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(64 << 10, "attr_blocking", on1);
  ASSERT_TRUE(lh.ok());

  std::vector<uint8_t> buf = Pattern(64, 0x11);
  std::vector<uint8_t> out(64);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client->Write(*lh, 0, buf.data(), buf.size()).ok());
    ASSERT_TRUE(client->Read(*lh, 0, out.data(), out.size()).ok());
  }
  EXPECT_EQ(out, buf);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->FetchAdd(*lh, 4096, 3).ok());
  }

  auto snap = client->StatSnapshot();
  ExpectConservation(snap, "blocking");
  // The fast-path keys exist with the expected cardinality.
  auto w = snap.histograms.find("lite.lat.write.64B.hi.e2e");
  ASSERT_NE(w, snap.histograms.end());
  EXPECT_EQ(w->second.count, 50u);
  auto r = snap.histograms.find("lite.lat.read.64B.hi.e2e");
  ASSERT_NE(r, snap.histograms.end());
  EXPECT_EQ(r->second.count, 50u);
  auto a = snap.histograms.find("lite.lat.atomic.64B.hi.e2e");
  ASSERT_NE(a, snap.histograms.end());
  EXPECT_EQ(a->second.count, 10u);
  // A remote 64B write's budget is dominated by transport, not `other`:
  // attribution actually explains where the time went.
  auto other = snap.histograms.find("lite.lat.write.64B.hi.other");
  const uint64_t other_sum = other == snap.histograms.end() ? 0 : other->second.sum;
  EXPECT_LT(other_sum * 4, w->second.sum) << "more than 25% of write time unattributed";
  ExpectClusterHealthy(&cluster, "blocking");
}

// The waterfall renders every recorded key and reconciles to ~100%.
TEST(AttrConservationTest, DumpLatencyBreakdownRendersRecordedKeys) {
  lt::SimParams p;
  lite::LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  lite::MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(16 << 10, "attr_dump", on1);
  ASSERT_TRUE(lh.ok());
  char buf[64] = {7};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Write(*lh, 0, buf, sizeof(buf)).ok());
  }
  const std::string dump = cluster.DumpLatencyBreakdown();
  EXPECT_NE(dump.find("lite.lat.write.64B.hi"), std::string::npos);
  EXPECT_NE(dump.find("wire"), std::string::npos);
  EXPECT_NE(dump.find("= stages"), std::string::npos);
  EXPECT_NE(dump.find("100.0%"), std::string::npos) << dump;
}

// ---------------------------------------------------- conservation: async

TEST(AttrConservationTest, AsyncMemopsRetiringOnOtherThreadsClocks) {
  lt::SimParams p;
  lite::LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  lite::MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(256 << 10, "attr_async", on1);
  ASSERT_TRUE(lh.ok());

  std::vector<uint64_t> vals(64);
  for (int round = 0; round < 3; ++round) {
    std::vector<lite::MemopHandle> handles;
    for (size_t i = 0; i < vals.size(); ++i) {
      vals[i] = 0xc0de0000 + round * 1000 + i;
      auto h = client->WriteAsync(*lh, i * 4096, &vals[i], 8);
      ASSERT_TRUE(h.ok());
      handles.push_back(*h);
    }
    ASSERT_TRUE(client->WaitAll().ok());
  }
  // Read a few back asynchronously too (aread key, retire path).
  std::vector<uint64_t> got(8);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(client->ReadAsync(*lh, i * 4096, &got[i], 8).ok());
  }
  ASSERT_TRUE(client->WaitAll().ok());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], vals[i]);
  }

  auto snap = client->StatSnapshot();
  ExpectConservation(snap, "async");
  auto aw = snap.histograms.find("lite.lat.awrite.64B.hi.e2e");
  ASSERT_NE(aw, snap.histograms.end());
  EXPECT_EQ(aw->second.count, 3 * 64u);
  auto ar = snap.histograms.find("lite.lat.aread.64B.hi.e2e");
  ASSERT_NE(ar, snap.histograms.end());
  EXPECT_EQ(ar->second.count, 8u);
  ExpectClusterHealthy(&cluster, "async");
}

// ------------------------------------------------------ conservation: RPC

TEST(AttrConservationTest, BlockingAndAsyncRpc) {
  lt::SimParams p;
  lite::LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  auto server = cluster.CreateClient(1, /*kernel_level=*/true);
  ASSERT_TRUE(server->RegisterRpc(9).ok());
  constexpr int kCalls = 12;
  std::thread service([&] {
    for (int i = 0; i < kCalls; ++i) {
      auto inc = server->RecvRpc(9);
      ASSERT_TRUE(inc.ok());
      ASSERT_TRUE(server->ReplyRpc(inc->token, "pong", 4).ok());
    }
  });
  char out[16];
  uint32_t out_len = 0;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(client->Rpc(1, 9, "ping", 4, out, sizeof(out), &out_len).ok());
    ASSERT_EQ(out_len, 4u);
  }
  service.join();

  auto snap = client->StatSnapshot();
  ExpectConservation(snap, "rpc");
  auto h = snap.histograms.find("lite.lat.rpc.64B.hi.e2e");
  ASSERT_NE(h, snap.histograms.end());
  EXPECT_EQ(h->second.count, static_cast<uint64_t>(kCalls));
  // The reply wait books server-side time as remote_svc, not `other`.
  auto svc = snap.histograms.find("lite.lat.rpc.64B.hi.remote_svc");
  ASSERT_NE(svc, snap.histograms.end());
  EXPECT_GT(svc->second.sum, 0u);
  ExpectClusterHealthy(&cluster, "rpc");
}

// ----------------------------------------------- conservation: multi-chunk

TEST(AttrConservationTest, MultiChunkOpsSpanningNodes) {
  lt::SimParams p;
  p.lite_max_chunk_bytes = 8 << 10;  // Force the 64K LMR into 8 chunks.
  p.lite_rpc_ring_bytes = 8 << 10;   // Rings must stay single-chunk.
  lite::LiteCluster cluster(3, p);
  auto client = cluster.CreateClient(0);
  lite::MallocOptions spread;
  spread.nodes = {1, 2};
  constexpr uint64_t kSize = 64 << 10;
  auto lh = client->Malloc(kSize, "attr_chunks", spread);
  ASSERT_TRUE(lh.ok());

  const std::vector<uint8_t> pat = Pattern(kSize, 0x42);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Write(*lh, 0, pat.data(), pat.size()).ok());
  }
  std::vector<uint8_t> out(kSize);
  ASSERT_TRUE(client->Read(*lh, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pat);

  auto snap = client->StatSnapshot();
  ExpectConservation(snap, "multichunk");
  auto w = snap.histograms.find("lite.lat.write.256K.hi.e2e");
  ASSERT_NE(w, snap.histograms.end());
  EXPECT_EQ(w->second.count, 5u);
  ExpectClusterHealthy(&cluster, "multichunk");
}

// -------------------------------------- conservation: drops, retries, NACKs

TEST(AttrConservationTest, HoldsUnderDropsAndRetries) {
  lt::SimParams p;
  lite::LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  lite::MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(32 << 10, "attr_drops", on1);
  ASSERT_TRUE(lh.ok());

  uint64_t val = 0xdeadbeef;
  for (int i = 0; i < 8; ++i) {
    // Kill exactly one transfer before every other op: the engine's timeout +
    // retry path must keep the op correct and its detour time attributed.
    if (i % 2 == 0) {
      cluster.faults().DropNextTransfers(0, 1, 1);
    }
    ASSERT_TRUE(client->Write(*lh, i * 8, &val, 8).ok());
  }
  uint64_t back = 0;
  ASSERT_TRUE(client->Read(*lh, 0, &back, 8).ok());
  EXPECT_EQ(back, val);

  auto snap = client->StatSnapshot();
  ExpectConservation(snap, "drops");
  // Retried ops spent measurable time in the detour stage.
  auto det = snap.histograms.find("lite.lat.write.64B.hi.detour");
  ASSERT_NE(det, snap.histograms.end());
  EXPECT_GT(det->second.sum, 0u);
  ExpectClusterHealthy(&cluster, "drops");
}

TEST(AttrConservationTest, HoldsAcrossStaleHomeRedirects) {
  lt::SimParams p;
  lite::LiteCluster cluster(3, p);
  auto owner = cluster.CreateClient(1);
  auto user = cluster.CreateClient(2);
  constexpr uint64_t kSize = 32 << 10;
  lite::MallocOptions local;
  local.nodes = {1};
  auto lh = owner->Malloc(kSize, "attr_stale", local);
  ASSERT_TRUE(lh.ok());
  const std::vector<uint8_t> pat = Pattern(kSize, 0x55);
  ASSERT_TRUE(owner->Write(*lh, 0, pat.data(), pat.size()).ok());
  auto stale = user->Map("attr_stale");
  ASSERT_TRUE(stale.ok());

  // Node 1 holds node 2 dead across the migration, so the commit's rehome
  // fan-out skips it: node 2's mapping stays stale and the ops below take
  // the kStaleHome NACK + redirect path.
  cluster.instance(1)->SetPeerDead(2, true);
  ASSERT_TRUE(owner->Migrate("attr_stale", 0).ok());
  cluster.instance(1)->SetPeerDead(2, false);

  std::vector<uint8_t> out(kSize);
  ASSERT_TRUE(user->Read(*stale, 0, out.data(), out.size()).ok());
  EXPECT_EQ(out, pat);
  EXPECT_GE(cluster.instance(2)->Stat("lite.migrate.redirects"), 1);

  auto snap = user->StatSnapshot();
  ExpectConservation(snap, "stale-home");
  ExpectClusterHealthy(&cluster, "stale-home");
}

// -------------------------------------------------------- health watchdog

TEST(HealthWatchdogTest, FlagsEngineOpLeak) {
  Registry reg;
  reg.GetCounter("lite.engine.ops")->Inc(5);
  reg.GetCounter("lite.engine.ops_ok")->Inc(3);  // 2 ops vanished.
  const auto v = HealthWatchdog::Check(reg.Snapshot());
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("engine"), std::string::npos);
}

TEST(HealthWatchdogTest, FlagsStageSumDivergence) {
  Registry reg;
  reg.GetHistogram("lite.lat.write.64B.hi.e2e")->Record(100);
  reg.GetHistogram("lite.lat.write.64B.hi.cross")->Record(60);
  const auto v = HealthWatchdog::Check(reg.Snapshot());
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("conservation"), std::string::npos);
}

TEST(HealthWatchdogTest, CleanRegistryIsHealthy) {
  Registry reg;
  reg.GetHistogram("lite.lat.write.64B.hi.e2e")->Record(100);
  reg.GetHistogram("lite.lat.write.64B.hi.wire")->Record(90);
  reg.GetHistogram("lite.lat.write.64B.hi.other")->Record(10);
  reg.GetCounter("lite.engine.ops")->Inc(1);
  reg.GetCounter("lite.engine.ops_ok")->Inc(1);
  EXPECT_TRUE(HealthWatchdog::Check(reg.Snapshot()).empty());
}

}  // namespace
}  // namespace telemetry
}  // namespace lt
