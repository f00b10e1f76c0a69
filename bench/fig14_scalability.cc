// Paper Fig. 14: aggregate LT_write and LT_RPC throughput as the cluster
// grows from 2 to 8 nodes (8 threads per node; 64 B writes; 64 B -> 8 B
// RPCs). LITE's shared QP pool (K x N QPs) keeps scaling linear.
//
// --scale / --scale-smoke: the transport-virtualization sweep (DESIGN.md
// §10). An incast workload — every node writes 64 B blocks to one server —
// run at 100/400/1000 nodes under both lite_transport modes, emitting
// BENCH_transport_scale.json with per-op latency, the server's QPC hit
// rate, DC connect-rate, and total QP-state bytes. RC keeps O(n) QPs per
// node and thrashes the server's 256-entry QPC cache past ~128 peers; DC's
// bounded pool keeps both flat.
#include <algorithm>
#include <cstring>
#include <thread>

#include "bench/benchlib.h"
#include "bench/rpc_common.h"
#include "src/common/rng.h"
#include "src/common/timing.h"
#include "src/lite/dc_transport.h"
#include "src/lite/lite_cluster.h"

namespace {

constexpr int kThreadsPerNode = 8;
constexpr int kOpsPerThread = 300;

double WriteTputReqPerUs(size_t nodes) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  lite::LiteCluster cluster(nodes, p);
  // One target LMR per node.
  {
    auto setup = cluster.CreateClient(0, true);
    for (size_t n = 0; n < nodes; ++n) {
      lite::MallocOptions mo;
      mo.nodes = {static_cast<lt::NodeId>(n)};
      (void)setup->Malloc(64 << 10, "f14w_" + std::to_string(n), mo);
    }
  }
  const size_t total_threads = nodes * kThreadsPerNode;
  std::vector<uint64_t> ends(total_threads);
  uint64_t t0 = lt::NowNs();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < total_threads; ++t) {
    threads.emplace_back([&, t] {
      lt::SyncClockTo(t0);
      lt::NodeId my_node = static_cast<lt::NodeId>(t % nodes);
      auto client = cluster.CreateClient(my_node);
      std::vector<lite::Lh> lhs;
      for (size_t n = 0; n < nodes; ++n) {
        lhs.push_back(*client->Map("f14w_" + std::to_string(n)));
      }
      char buf[64] = {3};
      lt::Rng rng(t * 31 + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        size_t target = rng.NextBounded(nodes - 1);
        if (target >= my_node) {
          ++target;  // Always remote.
        }
        (void)client->Write(lhs[target], rng.NextBounded(64) * 64, buf, sizeof(buf));
      }
      ends[t] = lt::NowNs();
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t end = t0;
  for (uint64_t e : ends) {
    end = std::max(end, e);
  }
  lt::SyncClockTo(end);
  return static_cast<double>(total_threads * kOpsPerThread) * 1000.0 /
         static_cast<double>(end - t0);
}

double RpcTputReqPerUs(size_t nodes) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  lite::LiteCluster cluster(nodes, p);
  std::vector<std::unique_ptr<benchrpc::LiteSizeServer>> servers;
  for (size_t n = 0; n < nodes; ++n) {
    servers.push_back(std::make_unique<benchrpc::LiteSizeServer>(
        &cluster, static_cast<lt::NodeId>(n), 43, 2));
  }
  const size_t total_threads = nodes * kThreadsPerNode;
  std::vector<uint64_t> ends(total_threads);
  uint64_t t0 = lt::NowNs();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < total_threads; ++t) {
    threads.emplace_back([&, t] {
      lt::SyncClockTo(t0);
      lt::NodeId my_node = static_cast<lt::NodeId>(t % nodes);
      auto client = cluster.CreateClient(my_node);
      uint8_t in[64] = {0};
      uint32_t reply = 8;
      std::memcpy(in, &reply, 4);
      uint8_t out[64];
      uint32_t out_len;
      lt::Rng rng(t * 17 + 5);
      for (int i = 0; i < kOpsPerThread; ++i) {
        size_t target = rng.NextBounded(nodes - 1);
        if (target >= my_node) {
          ++target;
        }
        (void)client->Rpc(static_cast<lt::NodeId>(target), 43, in, sizeof(in), out, sizeof(out),
                          &out_len);
      }
      ends[t] = lt::NowNs();
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t end = t0;
  for (uint64_t e : ends) {
    end = std::max(end, e);
  }
  lt::SyncClockTo(end);
  return static_cast<double>(total_threads * kOpsPerThread) * 1000.0 /
         static_cast<double>(end - t0);
}

// ------------------------- transport-virtualization scale sweep (--scale)

constexpr int kScaleOpsPerClient = 24;

struct ScalePoint {
  size_t nodes = 0;
  double mean_ns = 0;
  double p99_ns = 0;
  double qpc_hit = 0;      // Server-side QPC hit rate during the incast.
  double conn_per_op = 0;  // DC attaches per measured op (RC: 0).
  uint64_t qp_bytes = 0;   // Cluster-wide QP-state bytes (QpStateBytes()).
  bool pass = true;
  lt::telemetry::MetricsSnapshot server_snap;  // Informational sidecar body.
};

ScalePoint RunScalePoint(size_t nodes, lt::LiteTransport mode) {
  lt::SimParams p;
  p.lite_transport = mode;
  // The scaling story under test: the responder NIC's QPC pressure. On for
  // both modes so RC pays per-peer entries and DC pays one DCT entry.
  p.rnic_model_responder_qpc = true;
  p.node_phys_mem_bytes = 8ull << 20;
  p.lite_rpc_ring_bytes = 4096;
  p.lite_reply_slots = 16;
  p.lite_reply_slot_bytes = 4096;
  lite::LiteCluster cluster(nodes, p);
  {
    auto setup = cluster.CreateClient(0, true);
    lite::MallocOptions mo;
    mo.nodes = {0};
    (void)setup->Malloc(64 << 10, "scale_target", mo);
  }
  // Every non-server node runs one client. Map (one RPC to the server) is
  // setup; the measured deltas below exclude it via the s0 baseline.
  const size_t clients = nodes - 1;
  std::vector<std::unique_ptr<lite::LiteClient>> cs(clients);
  std::vector<lite::Lh> lhs(clients);
  for (size_t i = 0; i < clients; ++i) {
    cs[i] = cluster.CreateClient(static_cast<lt::NodeId>(i + 1));
    lhs[i] = *cs[i]->Map("scale_target");
  }

  auto sum_attaches = [&] {
    uint64_t total = 0;
    for (size_t n = 0; n < nodes; ++n) {
      auto* dc = dynamic_cast<lite::DcTransport*>(&cluster.instance(n)->transport());
      if (dc != nullptr) {
        total += dc->attaches();
      }
    }
    return total;
  };
  const auto s0 = cluster.node(0)->telemetry().registry().Snapshot();
  const uint64_t attaches0 = sum_attaches();

  // Incast: staggered starts + per-op gaps hold the aggregate offered load
  // near 0.5 ops/us so the figure isolates per-op cost (QPC behavior, DC
  // attach amortization) from server engine queueing.
  std::vector<std::vector<uint64_t>> lat(clients);
  const uint64_t t0 = lt::NowNs();
  const uint64_t gap_ns = static_cast<uint64_t>(nodes) * 2000;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      lt::SyncClockTo(t0 + i * 2000);
      lat[i].reserve(kScaleOpsPerClient);
      char buf[64] = {7};
      lt::Rng rng(i * 131 + 7);
      for (int op = 0; op < kScaleOpsPerClient; ++op) {
        const uint64_t a = lt::NowNs();
        (void)cs[i]->Write(lhs[i], rng.NextBounded(1000) * 64, buf, sizeof(buf));
        lat[i].push_back(lt::NowNs() - a);
        lt::IdleFor(gap_ns);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  ScalePoint r;
  r.nodes = nodes;
  r.server_snap = cluster.node(0)->telemetry().registry().Snapshot();
  std::vector<uint64_t> all;
  for (auto& v : lat) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  double sum = 0;
  for (uint64_t v : all) {
    sum += static_cast<double>(v);
  }
  r.mean_ns = all.empty() ? 0 : sum / static_cast<double>(all.size());
  r.p99_ns = all.empty() ? 0 : static_cast<double>(all[all.size() * 99 / 100]);
  const double hits = static_cast<double>(r.server_snap.ValueOr("rnic.qpc.hits") -
                                          s0.ValueOr("rnic.qpc.hits"));
  const double misses = static_cast<double>(r.server_snap.ValueOr("rnic.qpc.misses") -
                                            s0.ValueOr("rnic.qpc.misses"));
  r.qpc_hit = hits + misses > 0 ? hits / (hits + misses) : 1.0;
  r.conn_per_op = all.empty() ? 0
                              : static_cast<double>(sum_attaches() - attaches0) /
                                    static_cast<double>(all.size());
  for (size_t n = 0; n < nodes; ++n) {
    r.qp_bytes += cluster.instance(n)->transport().QpStateBytes();
  }
  return r;
}

int RunScaleSweep(int argc, char** argv, bool smoke) {
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{8, 100} : std::vector<size_t>{8, 100, 400, 1000};
  auto sink = benchlib::TelemetrySink::FromArgs(argc, argv, "fig14_transport_scale");
  std::vector<ScalePoint> rc, dc;
  for (size_t n : sizes) {
    rc.push_back(RunScalePoint(n, lt::LiteTransport::kRc));
    std::printf("# rc %zu nodes done\n", n);
    std::fflush(stdout);
  }
  for (size_t n : sizes) {
    dc.push_back(RunScalePoint(n, lt::LiteTransport::kDc));
    std::printf("# dc %zu nodes done\n", n);
    std::fflush(stdout);
  }
  // Acceptance contract, judged per DC point: per-op latency within 15% of
  // the 8-node RC baseline, and QP state at least (nodes/20)x smaller than
  // RC at the same size — nodes/20 reaches the required 50x at 1000 nodes
  // while scaling down for smoke sweeps (and vacuously passing at 8 nodes,
  // where DC's fixed pool is the larger side). The pass bit rides the
  // x-label so the CI bench gate enforces it exactly.
  const double rc8_mean = rc.front().mean_ns;
  for (size_t i = 0; i < dc.size(); ++i) {
    const uint64_t state_factor = dc[i].nodes / 20;
    dc[i].pass = dc[i].mean_ns <= 1.15 * rc8_mean &&
                 rc[i].qp_bytes >= state_factor * dc[i].qp_bytes;
  }

  std::printf("\n== Fig 14b: transport scale sweep (incast, 64B writes) ==\n");
  std::printf("%-6s %-6s %12s %12s %10s %12s %14s %6s\n", "mode", "nodes", "mean_ns", "p99_ns",
              "qpc_hit", "conn_per_op", "qp_bytes", "pass");
  for (const auto* series : {&rc, &dc}) {
    const char* mode = series == &rc ? "rc" : "dc";
    for (const ScalePoint& pt : *series) {
      std::printf("%-6s %-6zu %12.0f %12.0f %10.3f %12.4f %14llu %6d\n", mode, pt.nodes,
                  pt.mean_ns, pt.p99_ns, pt.qpc_hit, pt.conn_per_op,
                  static_cast<unsigned long long>(pt.qp_bytes), pt.pass ? 1 : 0);
      char x[256];
      std::snprintf(x, sizeof(x),
                    "nodes=%zu;lat_ns=%.0f;p99_ns=%.0f;qpc_hit=%.3f;conn_per_op=%.4f;"
                    "qp_bytes=%llu;pass=%d",
                    pt.nodes, pt.mean_ns, pt.p99_ns, pt.qpc_hit, pt.conn_per_op,
                    static_cast<unsigned long long>(pt.qp_bytes), pt.pass ? 1 : 0);
      sink.AddSnapshot(mode, x, pt.server_snap);
    }
  }
  sink.WriteFile();
  for (const ScalePoint& pt : dc) {
    if (!pt.pass) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      return RunScaleSweep(argc, argv, /*smoke=*/false);
    }
    if (std::strcmp(argv[i], "--scale-smoke") == 0) {
      return RunScaleSweep(argc, argv, /*smoke=*/true);
    }
  }
  std::vector<size_t> cluster_sizes = {2, 4, 6, 8};
  benchlib::Series writes{"LITE_write", {}};
  benchlib::Series rpcs{"LITE_RPC", {}};
  std::vector<std::string> xs;
  for (size_t n : cluster_sizes) {
    xs.push_back(std::to_string(n));
    writes.values.push_back(WriteTputReqPerUs(n));
    rpcs.values.push_back(RpcTputReqPerUs(n));
  }
  benchlib::PrintFigure(
      "Fig 14: aggregate throughput vs cluster size (8 threads/node, 64B ops)", "nodes",
      "requests/us", xs, {writes, rpcs});
  // Paper Sec. 6.1 QP accounting: K x N QPs per node.
  std::printf("\n# QP accounting (Sec 6.1): K=2 sharing factor\n");
  std::printf("%-8s %12s %18s %14s\n", "nodes", "LITE(KxN)", "native(2xNxT)", "FaRM(2NT/q,q=4)");
  for (size_t n : cluster_sizes) {
    std::printf("%-8zu %12zu %18zu %14zu\n", n, 2 * (n - 1), 2 * (n - 1) * 8,
                2 * (n - 1) * 8 / 4);
  }
  return 0;
}
