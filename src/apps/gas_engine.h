// Generic distributed Gather-Apply-Scatter engine on LITE.
//
// LITE-Graph (paper Sec. 8.3) runs PageRank through a vertex-centric GAS
// loop whose entire network layer is ~20 lines of LITE calls. This header
// generalizes that engine to arbitrary vertex programs so downstream users
// get the same property: write Gather/Apply, get a distributed engine.
//
// Engine structure per superstep (identical to LITE-Graph):
//   1. gather:  bulk one-sided LT_read of every partition's state array,
//   2. apply:   Program::Apply per owned vertex (modeled compute cost),
//   3. barrier: LT_barrier so scatter never races a slower gatherer,
//   4. scatter: LT_lock + LT_write of the owned partition + LT_unlock,
//   5. active-count aggregation via LT_fetch-add (delta caching: the run
//      converges when no vertex changed beyond the program's threshold),
//   6. LT_barrier to close the superstep.
//
// Program requirements (see PageRankProgram below for a reference):
//   struct Program {
//     using State = <trivially copyable>;   // Travels through LMRs.
//     using Accum = <any type>;             // Gather accumulator.
//     State Init(uint32_t vertex, const SyntheticGraph& g) const;
//     Accum GatherInit() const;
//     void GatherEdge(Accum* acc, const State& src_state,
//                     uint32_t src_out_degree) const;
//     State Apply(uint32_t vertex, const State& old_state, const Accum& acc,
//                 uint32_t num_vertices) const;
//     bool Changed(const State& old_state, const State& new_state) const;
//   };
#ifndef SRC_APPS_GAS_ENGINE_H_
#define SRC_APPS_GAS_ENGINE_H_

#include <atomic>
#include <cmath>
#include <type_traits>
#include <vector>

#include "src/apps/graph_detail.h"
#include "src/apps/phase.h"
#include "src/apps/workloads.h"
#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace liteapp {

struct GasOptions {
  uint32_t max_iterations = 50;
  int threads_per_node = 4;  // Divides the modeled per-edge compute.
};

template <typename Program>
struct GasResult {
  std::vector<typename Program::State> states;
  uint32_t iterations = 0;
  uint64_t total_ns = 0;
  bool converged = false;
};

// Shared across ALL RunGas instantiations (a per-template static would let
// two different programs collide on LMR names within one cluster).
inline std::atomic<uint32_t> g_gas_job_counter{0};

// Runs `program` over `graph` partitioned across LITE nodes [0, num_nodes).
template <typename Program>
GasResult<Program> RunGas(lite::LiteCluster* cluster, const SyntheticGraph& graph,
                          uint32_t num_nodes, const GasOptions& options,
                          const Program& program) {
  using State = typename Program::State;
  static_assert(std::is_trivially_copyable_v<State>,
                "vertex state travels through LMRs: must be trivially copyable");

  const uint32_t job = g_gas_job_counter.fetch_add(1);
  auto name = [job](const std::string& what, uint32_t p) {
    return "gas" + std::to_string(job) + "_" + what + std::to_string(p);
  };

  GasResult<Program> result;
  auto parts = MakePartitioning(graph.num_vertices, num_nodes);
  GraphIndex idx = BuildIndex(graph, parts);

  // Setup (untimed): per-partition state LMRs + locks + the active counter.
  {
    auto setup = cluster->CreateClient(0);
    std::vector<State> init(graph.num_vertices);
    for (uint32_t v = 0; v < graph.num_vertices; ++v) {
      init[v] = program.Init(v, graph);
    }
    for (uint32_t p = 0; p < num_nodes; ++p) {
      lite::MallocOptions mo;
      mo.nodes = {p};
      uint64_t bytes = static_cast<uint64_t>(parts.End(p) - parts.Begin(p)) * sizeof(State);
      auto lh = setup->Malloc(bytes, name("state", p), mo);
      (void)setup->Write(*lh, 0, init.data() + parts.Begin(p), bytes);
      (void)setup->CreateLock(name("lock", p));
    }
    // One active-counter word per superstep (avoids reset races).
    uint64_t counter_bytes = std::max<uint64_t>(64, 8ull * options.max_iterations);
    auto counter = setup->Malloc(counter_bytes, name("active", 0));
    std::vector<uint8_t> zeros(counter_bytes, 0);
    (void)setup->Write(*counter, 0, zeros.data(), counter_bytes);
  }

  const uint64_t t0 = lt::NowNs();
  std::atomic<uint32_t> iterations_run{0};
  std::atomic<bool> converged{false};
  result.states.resize(graph.num_vertices);
  const uint64_t end_time = RunPhase(num_nodes, t0, [&](size_t node) {
    const auto p = static_cast<uint32_t>(node);
    auto client = cluster->CreateClient(p);
    std::vector<lite::Lh> state_lh(num_nodes);
    for (uint32_t q = 0; q < num_nodes; ++q) {
      state_lh[q] = *client->Map(name("state", q));
    }
    auto my_lock = *client->OpenLock(name("lock", p));
    auto active_lh = *client->Map(name("active", 0));

    const uint32_t begin = parts.Begin(p);
    const uint32_t end = parts.End(p);
    std::vector<State> snapshot(graph.num_vertices);
    std::vector<State> mine(end - begin);

    for (uint32_t it = 0; it < options.max_iterations; ++it) {
      // 1. Gather inputs: bulk one-sided reads.
      for (uint32_t q = 0; q < num_nodes; ++q) {
        uint64_t bytes =
            static_cast<uint64_t>(parts.End(q) - parts.Begin(q)) * sizeof(State);
        (void)client->Read(state_lh[q], 0, snapshot.data() + parts.Begin(q), bytes);
      }
      // 2. Apply the vertex program over owned vertices.
      uint64_t edges = 0;
      uint64_t active = 0;
      for (uint32_t v = begin; v < end; ++v) {
        auto gathered = program.GatherInit();
        uint32_t lo = idx.in_offsets[p][v - begin];
        uint32_t hi = idx.in_offsets[p][v - begin + 1];
        edges += hi - lo;
        for (uint32_t e = lo; e < hi; ++e) {
          uint32_t u = idx.in_sources[p][e];
          program.GatherEdge(&gathered, snapshot[u], idx.out_degree[u]);
        }
        State next = program.Apply(v, snapshot[v], gathered, graph.num_vertices);
        if (program.Changed(snapshot[v], next)) {
          ++active;
        }
        mine[v - begin] = next;
      }
      lt::SpinFor((edges * kEdgeWorkNs + static_cast<uint64_t>(end - begin) * kVertexWorkNs) /
                  std::max(1, options.threads_per_node));
      (void)client->Barrier(name("g", it), num_nodes);

      // 3. Scatter + active-count aggregation.
      (void)client->Lock(my_lock);
      (void)client->Write(state_lh[p], 0, mine.data(), mine.size() * sizeof(State));
      (void)client->Unlock(my_lock);
      (void)client->FetchAdd(active_lh, 8ull * it, active);
      (void)client->Barrier(name("s", it), num_nodes);

      // 4. Convergence check: every participant reads this superstep's
      // counter (complete once the scatter barrier passed) and takes the
      // same branch.
      uint64_t total_active = 0;
      (void)client->Read(active_lh, 8ull * it, &total_active, 8);
      if (p == 0) {
        iterations_run.store(it + 1);
      }
      if (total_active == 0) {
        converged.store(true);
        break;
      }
    }
    std::copy(mine.begin(), mine.end(), result.states.begin() + begin);
  });
  lt::SyncClockTo(end_time);

  result.iterations = iterations_run.load();
  result.total_ns = end_time - t0;
  result.converged = converged.load();
  return result;
}

// ---------------------------------------------------- reference programs

// PageRank as a GAS program (the paper's LITE-Graph workload).
struct PageRankProgram {
  using State = double;
  using Accum = double;
  double damping = 0.85;
  double epsilon = 1e-9;

  State Init(uint32_t, const SyntheticGraph& g) const { return 1.0 / g.num_vertices; }
  Accum GatherInit() const { return 0.0; }
  void GatherEdge(Accum* acc, const State& src_state, uint32_t src_out_degree) const {
    if (src_out_degree > 0) {
      *acc += src_state / src_out_degree;
    }
  }
  State Apply(uint32_t, const State&, const Accum& gathered, uint32_t num_vertices) const {
    return (1.0 - damping) / num_vertices + damping * gathered;
  }
  bool Changed(const State& old_state, const State& new_state) const {
    return std::fabs(old_state - new_state) > epsilon;
  }
};

// Connected components by min-label propagation. Run it on a symmetrized
// graph (each edge added in both directions) so labels flood components.
struct ComponentsProgram {
  using State = uint32_t;
  using Accum = uint32_t;  // Minimum label seen on in-edges.

  State Init(uint32_t v, const SyntheticGraph&) const { return v; }
  Accum GatherInit() const { return 0xffffffffu; }
  void GatherEdge(Accum* acc, const State& src_state, uint32_t) const {
    *acc = std::min(*acc, src_state);
  }
  State Apply(uint32_t, const State& old_state, const Accum& min_label, uint32_t) const {
    return std::min(old_state, min_label);
  }
  bool Changed(const State& old_state, const State& new_state) const {
    return old_state != new_state;
  }
};

// Single-source shortest paths (unit weights).
struct SsspProgram {
  using State = uint32_t;
  using Accum = uint32_t;  // Best distance-through-an-in-edge.
  static constexpr uint32_t kUnreached = 0xffffffffu;
  uint32_t source = 0;

  State Init(uint32_t v, const SyntheticGraph&) const { return v == source ? 0 : kUnreached; }
  Accum GatherInit() const { return kUnreached; }
  void GatherEdge(Accum* acc, const State& src_state, uint32_t) const {
    if (src_state != kUnreached) {
      *acc = std::min(*acc, src_state + 1);
    }
  }
  State Apply(uint32_t, const State& old_state, const Accum& best, uint32_t) const {
    return std::min(old_state, best);
  }
  bool Changed(const State& old_state, const State& new_state) const {
    return old_state != new_state;
  }
};

}  // namespace liteapp

#endif  // SRC_APPS_GAS_ENGINE_H_
