// Failure-recovery characterization (no paper figure): how fast the liveness
// service detects a crashed node, how fast service resumes after restart,
// and what transparent RPC retry costs under a lossy fabric.
//
// Output (greppable, same style as the figure benches):
//   detection_ms     keepalive lease expiry -> client marks peer dead
//   recovery_ms      restart -> first successful RPC
//   clean/lossy RPC  mean latency with and without 1% drop + retry
//   counter table    retries / dedups / replays / reconnects
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/benchlib.h"
#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace {

constexpr lite::RpcFuncId kEchoFunc = 7;

class EchoServer {
 public:
  EchoServer(lite::LiteCluster* cluster, lt::NodeId node)
      : client_(cluster->CreateClient(node, /*kernel_level=*/true)) {
    (void)client_->RegisterRpc(kEchoFunc);
    thread_ = std::thread([this] { Run(); });
  }
  ~EchoServer() {
    stopping_.store(true);
    thread_.join();
  }

 private:
  void Run() {
    while (!stopping_.load()) {
      auto inc = client_->RecvRpc(kEchoFunc, 20'000'000);
      if (!inc.ok()) {
        continue;
      }
      (void)client_->ReplyRpc(inc->token, inc->data.data(),
                              static_cast<uint32_t>(inc->data.size()));
    }
  }

  std::unique_ptr<lite::LiteClient> client_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

double MeanRpcUs(lite::LiteClient* c, lt::NodeId server, int reps) {
  char out[64];
  uint32_t out_len = 0;
  uint64_t t0 = lt::NowNs();
  for (int i = 0; i < reps; ++i) {
    (void)c->Rpc(server, kEchoFunc, "ping", 4, out, sizeof(out), &out_len);
  }
  return static_cast<double>(lt::NowNs() - t0) / reps / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchlib::TraceSink trace = benchlib::TraceSink::FromArgs(argc, argv);
  lt::SimParams p;
  p.lite_rpc_timeout_ns = 25'000'000;
  p.lite_rpc_max_retries = 5;
  p.lite_keepalive_interval_ns = 2'000'000;  // 2 ms (real time)
  p.lite_lease_timeout_ns = 10'000'000;      // 10 ms lease
  lite::LiteCluster cluster(3, p);
  if (trace.enabled()) {
    cluster.EnableTracing(1);
  }
  cluster.faults().Reseed(0xbe9c4);
  const lt::NodeId kServer = 1;
  EchoServer server(&cluster, kServer);
  auto client = cluster.CreateClient(2);

  // Baseline: clean-path RPC latency (virtual time).
  const double clean_us = MeanRpcUs(client.get(), kServer, 400);

  // Lossy fabric: 1% drop, retries mask it; latency inflation = retry cost.
  lt::LinkFaultRule lossy;
  lossy.drop_p = 0.01;
  cluster.faults().SetDefaultRule(lossy);
  const double lossy_us = MeanRpcUs(client.get(), kServer, 400);
  cluster.faults().ClearAllRules();

  // Crash: time from CrashNode to the client's liveness verdict (real ms,
  // keepalives run on the host clock), then restart to first served RPC.
  const uint64_t crash_real = lt::RealNowNs();
  cluster.CrashNode(kServer);
  while (!cluster.instance(2)->PeerDead(kServer)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double detection_ms =
      static_cast<double>(lt::RealNowNs() - crash_real) / 1e6;

  const uint64_t restart_real = lt::RealNowNs();
  cluster.RestartNode(kServer);
  char out[64];
  uint32_t out_len = 0;
  while (true) {
    if (client->Rpc(kServer, kEchoFunc, "up?", 3, out, sizeof(out), &out_len).ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double recovery_ms =
      static_cast<double>(lt::RealNowNs() - restart_real) / 1e6;

  benchlib::PrintFigure(
      "Fault recovery (keepalive 2 ms, lease 10 ms, 25 ms RPC timeout)", "metric", "value",
      {"rpc_clean_us", "rpc_1pct_drop_us", "detection_ms", "recovery_ms"},
      {{"value", {clean_us, lossy_us, detection_ms, recovery_ms}}});

  std::printf("\n== Recovery counters ==\n");
  struct Row {
    const char* name;
    lt::NodeId node;
  };
  const Row rows[] = {
      {"lite.rpc.retries", 2},          {"lite.rpc.dead_fast_fail", 2},
      {"lite.qp.reconnects", 2},        {"lite.rpc.dup_requests", kServer},
      {"lite.rpc.replayed_replies", kServer}, {"lite.liveness.marked_dead", 2},
      {"lite.liveness.revived", 2},     {"faults.drops_total", 0},
      {"faults.crash_drops", 0},
  };
  for (const Row& r : rows) {
    std::printf("%-28s node%-2u %12lld\n", r.name, r.node,
                static_cast<long long>(cluster.instance(r.node)->Stat(r.name)));
  }
  trace.Export(cluster);
  return 0;
}
