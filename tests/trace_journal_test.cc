// Telemetry v2 coverage: cross-node trace stitching (RPC, multicast, memop),
// ring-drained async ops keeping their own records, the always-on
// flight-recorder journal (wraparound, fault/retry events, op breadcrumbs),
// trace ring capacity / drop counters, and Chrome trace-event
// well-formedness.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/latency_attr.h"

namespace lite {
namespace {

namespace tel = lt::telemetry;

// Echo server serving one RPC function until stopped.
class EchoServer {
 public:
  EchoServer(LiteCluster* cluster, lt::NodeId node, RpcFuncId func)
      : client_(cluster->CreateClient(node, /*kernel_level=*/true)), func_(func) {
    (void)client_->RegisterRpc(func_);
    thread_ = std::thread([this] { Run(); });
  }
  ~EchoServer() {
    stopping_.store(true);
    thread_.join();
  }

 private:
  void Run() {
    while (!stopping_.load()) {
      auto inc = client_->RecvRpc(func_, 50'000'000);
      if (!inc.ok()) {
        continue;
      }
      (void)client_->ReplyRpc(inc->token, inc->data.data(),
                              static_cast<uint32_t>(inc->data.size()));
    }
  }

  std::unique_ptr<LiteClient> client_;
  const RpcFuncId func_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
};

std::vector<tel::OpTrace> TracesOf(LiteCluster* cluster, lt::NodeId node) {
  return cluster->node(node)->telemetry().latency().Traces();
}

const tel::OpTrace* FindTrace(const std::vector<tel::OpTrace>& traces, const char* op,
                              uint64_t parent = 0) {
  for (const tel::OpTrace& t : traces) {
    if (std::strcmp(t.op, op) == 0 && (parent == 0 || t.parent_trace_id == parent)) {
      return &t;
    }
  }
  return nullptr;
}

int CountStage(const tel::OpTrace& t, tel::LatStage stage) {
  int n = 0;
  for (int i = 0; i < t.n_events; ++i) {
    n += t.events[i].stage == stage ? 1 : 0;
  }
  return n;
}

// ---------------------------------------------------------------- stitching

TEST(TraceStitchTest, RpcClientSpanLinksToServerSpan) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  cluster.EnableTracing(1);
  EchoServer server(&cluster, 1, 7);
  auto client = cluster.CreateClient(0);

  char out[32];
  uint32_t out_len = 0;
  ASSERT_TRUE(client->Rpc(1, 7, "ping", 4, out, sizeof(out), &out_len).ok());

  auto client_traces = TracesOf(&cluster, 0);
  const tel::OpTrace* rpc = FindTrace(client_traces, "rpc");
  ASSERT_NE(rpc, nullptr);
  EXPECT_NE(rpc->trace_id, 0u);
  EXPECT_EQ(rpc->parent_trace_id, 0u);
  EXPECT_EQ(rpc->node, 0u);

  auto server_traces = TracesOf(&cluster, 1);
  const tel::OpTrace* srv = FindTrace(server_traces, "LT_RPC_srv", rpc->trace_id);
  ASSERT_NE(srv, nullptr) << "no server record with parent_trace_id = client trace id";
  EXPECT_EQ(srv->node, 1u);
  EXPECT_NE(srv->trace_id, 0u);
  EXPECT_NE(srv->trace_id, rpc->trace_id);  // ids are cluster-unique
  // One remote_svc event from request arrival to reply post.
  EXPECT_EQ(CountStage(*srv, tel::kLatRemoteSvc), 1);
  ASSERT_GE(srv->n_events, 1);
  EXPECT_EQ(srv->events[0].t_ns, srv->start_ns);
  EXPECT_EQ(srv->events[0].t_ns + srv->events[0].ns, srv->end_ns);
}

// A multicast claims one record, and every member's request carries its
// trace id, so each server span links back to it.
TEST(TraceStitchTest, MulticastLinksToEveryServerSpan) {
  lt::SimParams p;
  LiteCluster cluster(3, p);
  cluster.EnableTracing(1);
  EchoServer s1(&cluster, 1, 15);
  EchoServer s2(&cluster, 2, 15);
  std::vector<std::vector<uint8_t>> replies;
  ASSERT_TRUE(cluster.instance(0)->MulticastRpc({1, 2}, 15, "pong", 4, &replies).ok());
  ASSERT_EQ(replies.size(), 2u);

  auto client_traces = TracesOf(&cluster, 0);
  const tel::OpTrace* mrpc = FindTrace(client_traces, "mrpc");
  ASSERT_NE(mrpc, nullptr) << "multicast committed no record";
  EXPECT_NE(mrpc->trace_id, 0u);
  for (lt::NodeId member : {1, 2}) {
    auto server_traces = TracesOf(&cluster, member);
    const tel::OpTrace* srv = FindTrace(server_traces, "LT_RPC_srv", mrpc->trace_id);
    ASSERT_NE(srv, nullptr) << "member " << member << " got no trace id";
    EXPECT_EQ(srv->node, member);
    EXPECT_EQ(CountStage(*srv, tel::kLatRemoteSvc), 1);
  }
}

TEST(TraceStitchTest, MemopCarriesTraceIdToRemoteNode) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  auto owner = cluster.CreateClient(1);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = owner->Malloc(4096, "stitch_mem", on1);
  ASSERT_TRUE(lh.ok());
  auto mapped = cluster.CreateClient(0)->Map("stitch_mem");
  ASSERT_TRUE(mapped.ok());

  cluster.EnableTracing(1);
  auto client = cluster.CreateClient(0);
  auto clh = client->Map("stitch_mem");
  ASSERT_TRUE(clh.ok());
  ASSERT_TRUE(client->Memset(*clh, 0, 0xab, 4096).ok());

  auto client_traces = TracesOf(&cluster, 0);
  const tel::OpTrace* ms = FindTrace(client_traces, "memset");
  ASSERT_NE(ms, nullptr);
  EXPECT_NE(ms->trace_id, 0u);
  auto server_traces = TracesOf(&cluster, 1);
  const tel::OpTrace* srv = FindTrace(server_traces, "LT_RPC_srv", ms->trace_id);
  ASSERT_NE(srv, nullptr) << "memset's remote memop RPC did not commit a server record";
  EXPECT_EQ(CountStage(*srv, tel::kLatRemoteSvc), 1);
  ASSERT_GE(srv->n_events, 1);
  EXPECT_EQ(srv->events[0].t_ns, srv->start_ns);
  // The memset claims a latency record like every other op.
  EXPECT_EQ(cluster.instance(0)->StatSnapshot().histograms.count("lite.lat.memset.4K.hi.e2e"), 1u);
}

TEST(TraceStitchTest, TracingOffPutsZeroOnWireAndCommitsNothing) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1, 9);
  auto client = cluster.CreateClient(0);
  char out[16];
  uint32_t out_len = 0;
  ASSERT_TRUE(client->Rpc(1, 9, "x", 1, out, sizeof(out), &out_len).ok());
  EXPECT_TRUE(TracesOf(&cluster, 0).empty());
  EXPECT_TRUE(TracesOf(&cluster, 1).empty());
  // The always-on journal still recorded the op breadcrumbs.
  EXPECT_GT(cluster.node(0)->telemetry().journal().recorded(), 0u);
}

// Regression: a ring-deferred async op drains inside whatever op rings the
// doorbell (here a blocking read). Its stages must land on its own record —
// one record per deferred write, spanning submit -> drain -> retire — not in
// the read's timeline.
TEST(TraceStitchTest, RingDrainedWritesKeepTheirOwnRecords) {
  // One thread makes every call, so all land on its ring. No batch flush,
  // and a ring submit charges no virtual time, so no age flush either: the
  // writes stay parked until the read drains them.
  lt::SimParams p;
  p.lite_ring_enable = true;
  p.lite_ring_doorbell_batch = 64;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(4096, "ring_trace", on1);
  ASSERT_TRUE(lh.ok());
  cluster.EnableTracing(1);

  constexpr int kDeferred = 4;
  uint64_t vals[kDeferred];
  for (int i = 0; i < kDeferred; ++i) {
    vals[i] = 100 + i;
    ASSERT_TRUE(client->WriteAsync(*lh, 8 * i, &vals[i], 8).ok());
  }
  ASSERT_EQ(cluster.instance(0)->Stat("lite.ring.deferred_pending"), kDeferred);
  uint64_t back = 0;
  ASSERT_TRUE(client->Read(*lh, 0, &back, 8).ok());
  ASSERT_TRUE(client->WaitAll().ok());
  EXPECT_EQ(back, vals[0]);

  auto traces = TracesOf(&cluster, 0);
  const tel::OpTrace* read = FindTrace(traces, "read");
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(CountStage(*read, tel::kLatSubmit), 1);
  EXPECT_EQ(CountStage(*read, tel::kLatPost), 1) << "drained writes' posts leaked into the read";
  int writes = 0;
  for (const tel::OpTrace& t : traces) {
    if (std::strcmp(t.op, "awrite") != 0) {
      continue;
    }
    ++writes;
    EXPECT_LE(t.start_ns, read->start_ns);  // Claimed at submit, before the read.
    EXPECT_GE(CountStage(t, tel::kLatPost), 1);  // Posted by the drain.
    EXPECT_GT(t.end_ns, t.start_ns);             // Committed at retirement.
    for (int e = 0; e < t.n_events; ++e) {
      EXPECT_GE(t.events[e].t_ns, t.start_ns);
      EXPECT_LE(t.events[e].t_ns + t.events[e].ns, t.end_ns);
    }
  }
  EXPECT_EQ(writes, kDeferred);
  EXPECT_EQ(cluster.RunHealthCheck(), std::vector<std::string>{});
}

// ------------------------------------------------------------------ journal

TEST(JournalTest, WrapsAroundKeepingNewestEvents) {
  tel::Journal j(/*capacity=*/8);
  j.SetNodeId(3);
  for (uint64_t i = 0; i < 20; ++i) {
    j.RecordAt(tel::JournalEvent::kRpcRetry, /*t_ns=*/100 + i, /*a=*/i, /*b=*/0);
  }
  EXPECT_EQ(j.recorded(), 20u);
  EXPECT_EQ(j.overwritten(), 12u);
  auto snap = j.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].a, 12 + i);  // oldest surviving first
    EXPECT_EQ(snap[i].t_ns, 112 + i);
    EXPECT_EQ(snap[i].node, 3u);
  }
}

TEST(JournalTest, PackName8RoundTrips) {
  EXPECT_EQ(tel::UnpackName8(tel::PackName8("LT_RPC")), "LT_RPC");
  EXPECT_EQ(tel::UnpackName8(tel::PackName8("LT_writeXXX")), "LT_write");  // truncates
  EXPECT_EQ(tel::UnpackName8(tel::PackName8(nullptr)), "");
}

TEST(JournalTest, FaultDecisionsAreRecorded) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1, 11);
  auto client = cluster.CreateClient(0);

  cluster.faults().DropNextTransfers(0, 1, 1);
  char out[16];
  uint32_t out_len = 0;
  ASSERT_TRUE(client->Rpc(1, 11, "a", 1, out, sizeof(out), &out_len).ok());

  auto snap = cluster.node(0)->telemetry().journal().Snapshot();
  bool saw_drop = false, saw_retry = false;
  for (const tel::JournalRecord& r : snap) {
    if (r.ev == tel::JournalEvent::kFaultDrop &&
        r.a == tel::PackLink(0, 1) &&
        r.b == static_cast<uint64_t>(tel::DropCause::kRule)) {
      saw_drop = true;
    }
    if (r.ev == tel::JournalEvent::kRpcRetry || r.ev == tel::JournalEvent::kOnesideRetry) {
      saw_retry = true;
    }
  }
  EXPECT_TRUE(saw_drop) << "armed drop decision missing from flight recorder";
  EXPECT_TRUE(saw_retry) << "recovery retry missing from flight recorder";

  cluster.CrashNode(1);
  cluster.RestartNode(1);
  snap = cluster.node(1)->telemetry().journal().Snapshot();
  bool saw_crash = false, saw_restart = false;
  for (const tel::JournalRecord& r : snap) {
    saw_crash |= r.ev == tel::JournalEvent::kNodeCrash;
    saw_restart |= r.ev == tel::JournalEvent::kNodeRestart;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_restart);

  // The merged dump is valid JSON-ish: brackets balance and both nodes show.
  std::string merged = cluster.DumpJournal();
  EXPECT_NE(merged.find("fault_drop"), std::string::npos);
  EXPECT_NE(merged.find("node_crash"), std::string::npos);
}

// Regression: atomics claimed a latency record but no span, so they left no
// op breadcrumbs in the always-on journal.
TEST(JournalTest, FetchAddLeavesOpBreadcrumbs) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(4096, "faa_crumbs", on1);
  ASSERT_TRUE(lh.ok());
  ASSERT_TRUE(client->FetchAdd(*lh, 0, 1).ok());

  uint64_t start_id = 0, end_id = 0;
  for (const tel::JournalRecord& r : cluster.node(0)->telemetry().journal().Snapshot()) {
    if (r.a != tel::PackName8("atomic")) {
      continue;
    }
    if (r.ev == tel::JournalEvent::kOpStart) start_id = r.b;
    if (r.ev == tel::JournalEvent::kOpEnd) end_id = r.b;
  }
  EXPECT_NE(start_id, 0u) << "no op_start breadcrumb for the fetch-add";
  EXPECT_EQ(end_id, start_id) << "op_end breadcrumb missing or for another op";
}

// ------------------------------------------------------------------- tracer

TEST(TracerTest, RingCapacityIsConfigurableAndDropsAreCounted) {
  tel::Registry reg;
  tel::LatencyAttr sink(&reg, /*trace_ring_capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    tel::OpTrace t;
    t.op = "x";
    t.op_id = static_cast<uint64_t>(i);
    t.Add(tel::kLatPost, /*t_ns=*/10 + i, /*ns=*/1);
    sink.CommitTrace(t);
  }
  EXPECT_EQ(sink.Traces().size(), 4u);
  EXPECT_EQ(sink.traces_committed(), 6u);
  EXPECT_EQ(sink.traces_dropped(), 2u);
  EXPECT_EQ(sink.Traces().front().op_id, 2u);  // oldest surviving
  // Default-constructed sink keeps the historical capacity.
  tel::LatencyAttr d(&reg);
  EXPECT_EQ(d.trace_ring_capacity(), tel::LatencyAttr::kTraceRingCapacity);
}

TEST(TracerTest, StampOverflowIsCountedNotSilent) {
  tel::Registry reg;
  tel::LatencyAttr sink(&reg);
  sink.SetSampleEvery(1);
  {
    tel::ScopedOpAttr op(&sink, "overflow", 64, 0);
    for (int i = 0; i < tel::OpTrace::kMaxEvents + 5; ++i) {
      tel::AttrAdd(tel::kLatPost, 1);
    }
  }
  auto traces = sink.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].n_events, tel::OpTrace::kMaxEvents);
  EXPECT_EQ(traces[0].events_dropped, 5u);
  EXPECT_EQ(sink.events_dropped(), 5u);
}

TEST(TracerTest, EventsDroppedSurfacesInStatSnapshot) {
  lt::SimParams p;
  LiteCluster cluster(2, p);
  tel::OpTrace t;
  t.op = "synthetic";
  for (int i = 0; i < tel::OpTrace::kMaxEvents + 3; ++i) {
    t.Add(tel::kLatPost, i, 1);
  }
  cluster.node(0)->telemetry().latency().CommitTrace(t);
  auto snap = cluster.instance(0)->StatSnapshot();
  EXPECT_EQ(snap.ValueOr("lite.trace.events_dropped", 0), 3);
  EXPECT_EQ(snap.ValueOr("lite.trace.spans_dropped", 123), 0);
}

// ------------------------------------------------------------- chrome trace

// Runs a tiny traced workload and returns everything the exporter consumes.
struct TracedRun {
  std::vector<tel::OpTrace> traces;
  std::vector<tel::JournalRecord> journal;
};

TracedRun RunTracedWorkload() {
  lt::SimParams p;  // Nonzero stages: exercises nested slices.
  LiteCluster cluster(2, p);
  cluster.EnableTracing(1);
  EchoServer server(&cluster, 1, 13);
  auto client = cluster.CreateClient(0);
  char out[64];
  uint32_t out_len = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client->Rpc(1, 13, "abcd", 4, out, sizeof(out), &out_len).ok());
  }
  TracedRun run;
  for (lt::NodeId n = 0; n < 2; ++n) {
    auto traces = TracesOf(&cluster, n);
    run.traces.insert(run.traces.end(), traces.begin(), traces.end());
    auto j = cluster.node(n)->telemetry().journal().Snapshot();
    run.journal.insert(run.journal.end(), j.begin(), j.end());
  }
  return run;
}

TEST(ChromeTraceTest, EventsAreBalancedAndMonotonicPerLane) {
  TracedRun run = RunTracedWorkload();
  ASSERT_FALSE(run.traces.empty());
  auto events = tel::BuildChromeEvents(run.traces, run.journal);
  ASSERT_FALSE(events.empty());

  std::map<std::pair<uint32_t, uint32_t>, int> depth;       // B/E nesting per lane
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> last_ts;
  std::map<std::pair<std::string, uint64_t>, int> flows;    // (cat,id) -> s seen
  int flow_finishes = 0;
  for (const tel::ChromeEvent& e : events) {
    if (e.ph == 'M') {
      continue;
    }
    auto lane = std::make_pair(e.pid, e.tid);
    EXPECT_GE(e.ts_ns, last_ts[lane]) << "timestamps regress on pid=" << e.pid
                                      << " tid=" << e.tid;
    last_ts[lane] = e.ts_ns;
    if (e.ph == 'B') {
      ++depth[lane];
    } else if (e.ph == 'E') {
      --depth[lane];
      EXPECT_GE(depth[lane], 0) << "E without matching B on pid=" << e.pid << " tid=" << e.tid;
    } else if (e.ph == 's') {
      ++flows[std::make_pair(e.cat, e.id)];
    } else if (e.ph == 'f') {
      const int starts = flows[std::make_pair(e.cat, e.id)];
      EXPECT_GT(starts, 0) << "flow finish without start, id=" << e.id;
      ++flow_finishes;
    }
  }
  for (const auto& [lane, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced B/E on pid=" << lane.first << " tid=" << lane.second;
  }
  // At least one RPC stitched: request + reply edges.
  EXPECT_GE(flow_finishes, 2);
}

TEST(ChromeTraceTest, ServerSpansGetTheirOwnLanes) {
  TracedRun run = RunTracedWorkload();
  auto events = tel::BuildChromeEvents(run.traces, run.journal);
  bool server_lane_seen = false;
  for (const tel::ChromeEvent& e : events) {
    if (e.ph == 'B' && e.tid >= tel::kServerLaneBase) {
      server_lane_seen = true;
      EXPECT_EQ(e.pid, 1u) << "server halves should live on the server node's pid";
    }
  }
  EXPECT_TRUE(server_lane_seen);
}

TEST(ChromeTraceTest, JsonExportIsWellFormed) {
  TracedRun run = RunTracedWorkload();
  const std::string path = ::testing::TempDir() + "/trace_journal_test.trace.json";
  ASSERT_TRUE(tel::WriteChromeTrace(path, run.traces, run.journal));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  ASSERT_FALSE(json.empty());
  // Structure: balanced braces/brackets outside strings, required keys.
  int braces = 0, brackets = 0;
  bool in_str = false, esc = false;
  for (char c : json) {
    if (esc) {
      esc = false;
      continue;
    }
    if (c == '\\') {
      esc = true;
    } else if (c == '"') {
      in_str = !in_str;
    } else if (!in_str) {
      braces += c == '{' ? 1 : c == '}' ? -1 : 0;
      brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

}  // namespace
}  // namespace lite
