#include "src/apps/graph.h"

#include "src/apps/graph_detail.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "src/apps/phase.h"
#include "src/common/timing.h"
#include "src/tcpip/tcp_stack.h"

namespace liteapp {
namespace {

using lt::NowNs;
using lt::SpinFor;

// PowerGraph-like engines ship fine-grained mirror updates: vertices per
// TCP message. Small batches => many full socket-stack traversals per step,
// which is what makes the IPoIB version so slow (paper Sec. 8.3).
constexpr uint32_t kPowerGraphBatch = 128;
// Grappa's aggregation: per-delegated-op overhead at the receiver.
constexpr uint64_t kGrappaDelegateNs = 150;

std::atomic<uint32_t> g_graph_job{0};

}  // namespace

Partitioning MakePartitioning(uint32_t vertices, uint32_t parts) {
  Partitioning out;
  out.num_vertices = vertices;
  out.parts = parts;
  out.per_part = std::max<uint32_t>(1, vertices / parts);
  return out;
}

GraphIndex BuildIndex(const SyntheticGraph& g, const Partitioning& parts) {
  GraphIndex idx;
  idx.out_degree.assign(g.num_vertices, 0);
  for (uint32_t s : g.src) {
    idx.out_degree[s]++;
  }
  idx.in_offsets.resize(parts.parts);
  idx.in_sources.resize(parts.parts);
  std::vector<std::vector<uint32_t>> counts(parts.parts);
  for (uint32_t p = 0; p < parts.parts; ++p) {
    counts[p].assign(parts.End(p) - parts.Begin(p) + 1, 0);
  }
  for (size_t e = 0; e < g.dst.size(); ++e) {
    uint32_t p = parts.PartOf(g.dst[e]);
    counts[p][g.dst[e] - parts.Begin(p) + 1]++;
  }
  for (uint32_t p = 0; p < parts.parts; ++p) {
    for (size_t i = 1; i < counts[p].size(); ++i) {
      counts[p][i] += counts[p][i - 1];
    }
    idx.in_offsets[p] = counts[p];
    idx.in_sources[p].resize(counts[p].back());
  }
  std::vector<std::vector<uint32_t>> cursor = idx.in_offsets;
  for (size_t e = 0; e < g.dst.size(); ++e) {
    uint32_t d = g.dst[e];
    uint32_t p = parts.PartOf(d);
    idx.in_sources[p][cursor[p][d - parts.Begin(p)]++] = g.src[e];
  }
  return idx;
}

uint32_t SweepPartition(const GraphIndex& idx, const Partitioning& parts, uint32_t p,
                        const std::vector<double>& snapshot, std::vector<double>* out_ranks,
                        const PageRankOptions& options) {
  const double base = (1.0 - options.damping) / parts.num_vertices;
  uint32_t begin = parts.Begin(p);
  uint32_t end = parts.End(p);
  uint32_t active = 0;
  uint64_t edges = 0;
  for (uint32_t v = begin; v < end; ++v) {
    double sum = 0.0;
    uint32_t lo = idx.in_offsets[p][v - begin];
    uint32_t hi = idx.in_offsets[p][v - begin + 1];
    edges += hi - lo;
    for (uint32_t i = lo; i < hi; ++i) {
      uint32_t u = idx.in_sources[p][i];
      if (idx.out_degree[u] > 0) {
        sum += snapshot[u] / idx.out_degree[u];
      }
    }
    double next = base + options.damping * sum;
    if (std::fabs(next - snapshot[v]) > options.delta_epsilon) {
      ++active;  // Delta caching: only changed vertices scatter.
    }
    (*out_ranks)[v - begin] = next;
  }
  // Charge the modeled compute, split across the node's threads.
  uint64_t work = edges * kEdgeWorkNs + static_cast<uint64_t>(end - begin) * kVertexWorkNs;
  SpinFor(work / std::max(1, options.threads_per_node));
  return active;
}

std::vector<double> ReferencePageRank(const SyntheticGraph& graph,
                                      const PageRankOptions& options) {
  auto parts = MakePartitioning(graph.num_vertices, 1);
  GraphIndex idx = BuildIndex(graph, parts);
  std::vector<double> ranks(graph.num_vertices, 1.0 / graph.num_vertices);
  std::vector<double> next(graph.num_vertices, 0.0);
  PageRankOptions opts = options;
  opts.threads_per_node = 1 << 30;  // Reference run charges no modeled time.
  for (uint32_t it = 0; it < options.iterations; ++it) {
    SweepPartition(idx, parts, 0, ranks, &next, opts);
    ranks = next;
  }
  return ranks;
}

// ------------------------------------------------------------ LITE-Graph

PageRankResult LiteGraphPageRank(lite::LiteCluster* cluster, const SyntheticGraph& graph,
                                 uint32_t num_nodes, const PageRankOptions& options) {
  PageRankResult result;
  const uint32_t job = g_graph_job.fetch_add(1);
  auto parts = MakePartitioning(graph.num_vertices, num_nodes);
  GraphIndex idx = BuildIndex(graph, parts);
  auto name = [&](uint32_t p) { return "gr" + std::to_string(job) + "_rank" + std::to_string(p); };

  // Setup: one rank LMR per partition, placed on its node; one lock each.
  {
    auto setup = cluster->CreateClient(0);
    std::vector<double> init(graph.num_vertices, 1.0 / graph.num_vertices);
    for (uint32_t p = 0; p < num_nodes; ++p) {
      lite::MallocOptions mo;
      mo.nodes = {p};
      uint64_t bytes = static_cast<uint64_t>(parts.End(p) - parts.Begin(p)) * sizeof(double);
      auto lh = setup->Malloc(bytes, name(p), mo);
      (void)setup->Write(*lh, 0, init.data() + parts.Begin(p), bytes);
      (void)setup->CreateLock(name(p) + "_lock");
    }
  }

  const uint64_t t0 = NowNs();
  result.ranks.resize(graph.num_vertices);
  const uint64_t end = RunPhase(num_nodes, t0, [&](size_t node) {
    const auto p = static_cast<uint32_t>(node);
    auto client = cluster->CreateClient(p);
    std::vector<lite::Lh> rank_lh(num_nodes);
    std::vector<lite::LockId> locks(num_nodes);
    for (uint32_t q = 0; q < num_nodes; ++q) {
      rank_lh[q] = *client->Map(name(q));
      locks[q] = *client->OpenLock(name(q) + "_lock");
    }
    std::vector<double> snapshot(graph.num_vertices);
    std::vector<double> mine(parts.End(p) - parts.Begin(p));
    for (uint32_t it = 0; it < options.iterations; ++it) {
      // Gather inputs: bulk one-sided read of every partition's ranks.
      for (uint32_t q = 0; q < num_nodes; ++q) {
        uint64_t bytes = static_cast<uint64_t>(parts.End(q) - parts.Begin(q)) * sizeof(double);
        (void)client->Read(rank_lh[q], 0, snapshot.data() + parts.Begin(q), bytes);
      }
      SweepPartition(idx, parts, p, snapshot, &mine, options);
      // Barrier after each GAS step (paper Sec. 8.3): no one scatters
      // until everyone has gathered+applied this iteration's inputs.
      (void)client->Barrier("gr" + std::to_string(job) + "_g" + std::to_string(it), num_nodes);
      // Scatter: lock-protected update of the global data.
      (void)client->Lock(locks[p]);
      (void)client->Write(rank_lh[p], 0, mine.data(), mine.size() * sizeof(double));
      (void)client->Unlock(locks[p]);
      (void)client->Barrier("gr" + std::to_string(job) + "_s" + std::to_string(it), num_nodes);
    }
    std::copy(mine.begin(), mine.end(), result.ranks.begin() + parts.Begin(p));
  });
  lt::SyncClockTo(end);  // Keep the caller's clock ahead of this run.
  result.total_ns = end - t0;
  result.iterations = options.iterations;
  return result;
}

// ---------------------------------------------------- PowerGraph / Grappa

namespace {

// TCP-based all-to-all rank exchange + barrier used by both baselines.
struct TcpMesh {
  std::vector<std::vector<std::unique_ptr<lt::TcpConn>>> conn;  // [src][dst]
  explicit TcpMesh(lt::Cluster* cluster, uint32_t n) : conn(n) {
    for (uint32_t i = 0; i < n; ++i) {
      conn[i].resize(n);
    }
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = 0; j < n; ++j) {
        if (i == j) {
          continue;
        }
        if (conn[i][j] == nullptr) {
          auto pair = lt::TcpStack::ConnectPair(&cluster->node(i)->tcp(), &cluster->node(j)->tcp());
          conn[i][j] = std::move(pair.first);
          conn[j][i] = std::move(pair.second);
        }
      }
    }
  }
};

}  // namespace

PageRankResult PowerGraphPageRank(lt::Cluster* cluster, const SyntheticGraph& graph,
                                  uint32_t num_nodes, const PageRankOptions& options) {
  PageRankResult result;
  auto parts = MakePartitioning(graph.num_vertices, num_nodes);
  GraphIndex idx = BuildIndex(graph, parts);
  TcpMesh mesh(cluster, num_nodes);

  const uint64_t t0 = NowNs();
  result.ranks.resize(graph.num_vertices);
  const uint64_t end = RunPhase(num_nodes, t0, [&](size_t node) {
    const auto p = static_cast<uint32_t>(node);
    std::vector<double> snapshot(graph.num_vertices, 1.0 / graph.num_vertices);
    std::vector<double> mine(parts.End(p) - parts.Begin(p));
    const uint32_t my_count = parts.End(p) - parts.Begin(p);
    for (uint32_t it = 0; it < options.iterations; ++it) {
      SweepPartition(idx, parts, p, snapshot, &mine, options);
      std::copy(mine.begin(), mine.end(), snapshot.begin() + parts.Begin(p));
      // Mirror updates: fine-grained batches over TCP to every peer (each
      // batch pays a full stack traversal).
      for (uint32_t q = 0; q < num_nodes; ++q) {
        if (q == p) {
          continue;
        }
        for (uint32_t off = 0; off < my_count; off += kPowerGraphBatch) {
          uint32_t n = std::min(kPowerGraphBatch, my_count - off);
          (void)mesh.conn[p][q]->Send(mine.data() + off, n * sizeof(double));
        }
      }
      // Receive every peer's updates.
      for (uint32_t q = 0; q < num_nodes; ++q) {
        if (q == p) {
          continue;
        }
        uint32_t q_count = parts.End(q) - parts.Begin(q);
        for (uint32_t off = 0; off < q_count; off += kPowerGraphBatch) {
          uint32_t n = std::min(kPowerGraphBatch, q_count - off);
          (void)mesh.conn[p][q]->RecvExact(snapshot.data() + parts.Begin(q) + off,
                                           n * sizeof(double));
        }
      }
    }
    std::copy(mine.begin(), mine.end(), result.ranks.begin() + parts.Begin(p));
  });
  lt::SyncClockTo(end);  // Keep the caller's clock ahead of this run.
  result.total_ns = end - t0;
  result.iterations = options.iterations;
  return result;
}

PageRankResult GrappaPageRank(lt::Cluster* cluster, const SyntheticGraph& graph,
                              uint32_t num_nodes, const PageRankOptions& options) {
  PageRankResult result;
  auto parts = MakePartitioning(graph.num_vertices, num_nodes);
  GraphIndex idx = BuildIndex(graph, parts);
  TcpMesh mesh(cluster, num_nodes);

  const uint64_t t0 = NowNs();
  result.ranks.resize(graph.num_vertices);
  const uint64_t end = RunPhase(num_nodes, t0, [&](size_t node) {
    const auto p = static_cast<uint32_t>(node);
    std::vector<double> snapshot(graph.num_vertices, 1.0 / graph.num_vertices);
    std::vector<double> mine(parts.End(p) - parts.Begin(p));
    const uint32_t my_count = parts.End(p) - parts.Begin(p);
    for (uint32_t it = 0; it < options.iterations; ++it) {
      SweepPartition(idx, parts, p, snapshot, &mine, options);
      std::copy(mine.begin(), mine.end(), snapshot.begin() + parts.Begin(p));
      // Grappa aggregates all delegated updates to a peer into ONE large
      // message per step (its core optimization)...
      for (uint32_t q = 0; q < num_nodes; ++q) {
        if (q == p) {
          continue;
        }
        (void)mesh.conn[p][q]->StreamSend(mine.data(), my_count * sizeof(double));
      }
      for (uint32_t q = 0; q < num_nodes; ++q) {
        if (q == p) {
          continue;
        }
        uint32_t q_count = parts.End(q) - parts.Begin(q);
        (void)mesh.conn[p][q]->RecvExact(snapshot.data() + parts.Begin(q),
                                         q_count * sizeof(double));
        // ...but pays a per-delegated-operation cost applying them.
        SpinFor(static_cast<uint64_t>(q_count) * kGrappaDelegateNs /
                std::max(1, options.threads_per_node));
      }
    }
    std::copy(mine.begin(), mine.end(), result.ranks.begin() + parts.Begin(p));
  });
  lt::SyncClockTo(end);  // Keep the caller's clock ahead of this run.
  result.total_ns = end - t0;
  result.iterations = options.iterations;
  return result;
}

}  // namespace liteapp
