#include <gtest/gtest.h>

#include <cmath>
#include <queue>

#include "src/apps/gas_engine.h"

namespace liteapp {
namespace {

SyntheticGraph Symmetrize(const SyntheticGraph& g) {
  SyntheticGraph out = g;
  for (size_t e = 0; e < g.src.size(); ++e) {
    out.src.push_back(g.dst[e]);
    out.dst.push_back(g.src[e]);
  }
  return out;
}

class GasEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p;
    p.node_phys_mem_bytes = 48ull << 20;
    cluster_ = std::make_unique<lite::LiteCluster>(4, p);
  }
  std::unique_ptr<lite::LiteCluster> cluster_;
};

TEST_F(GasEngineTest, PageRankMatchesDedicatedEngine) {
  SyntheticGraph graph = GeneratePowerLawGraph(1500, 9000);
  GasOptions options;
  options.max_iterations = 8;

  PageRankProgram program;
  program.epsilon = 0;  // Run all 8 iterations, like the reference.
  auto gas = RunGas(cluster_.get(), graph, 4, options, program);

  PageRankOptions ref_options;
  ref_options.iterations = 8;
  auto reference = ReferencePageRank(graph, ref_options);

  ASSERT_EQ(gas.states.size(), reference.size());
  double max_diff = 0;
  for (size_t v = 0; v < reference.size(); ++v) {
    max_diff = std::max(max_diff, std::fabs(gas.states[v] - reference[v]));
  }
  EXPECT_LT(max_diff, 1e-9);
  EXPECT_EQ(gas.iterations, 8u);
}

TEST_F(GasEngineTest, PageRankDeltaCachingConverges) {
  SyntheticGraph graph = GeneratePowerLawGraph(500, 2500);
  GasOptions options;
  options.max_iterations = 200;
  PageRankProgram program;
  program.epsilon = 1e-7;
  auto gas = RunGas(cluster_.get(), graph, 4, options, program);
  EXPECT_TRUE(gas.converged);
  EXPECT_LT(gas.iterations, 200u);
  EXPECT_GT(gas.iterations, 3u);
}

TEST_F(GasEngineTest, ConnectedComponentsFindIslands) {
  // Two explicit components: a chain 0-1-2-3 and a triangle 10-11-12.
  SyntheticGraph graph;
  graph.num_vertices = 13;
  auto edge = [&graph](uint32_t a, uint32_t b) {
    graph.src.push_back(a);
    graph.dst.push_back(b);
  };
  edge(0, 1);
  edge(1, 2);
  edge(2, 3);
  edge(10, 11);
  edge(11, 12);
  edge(12, 10);
  SyntheticGraph sym = Symmetrize(graph);

  GasOptions options;
  options.max_iterations = 40;
  auto gas = RunGas(cluster_.get(), sym, 4, options, ComponentsProgram{});
  ASSERT_TRUE(gas.converged);
  for (uint32_t v : {0u, 1u, 2u, 3u}) {
    EXPECT_EQ(gas.states[v], 0u);
  }
  for (uint32_t v : {10u, 11u, 12u}) {
    EXPECT_EQ(gas.states[v], 10u);
  }
  // Isolated vertices keep their own labels.
  for (uint32_t v : {4u, 5u, 9u}) {
    EXPECT_EQ(gas.states[v], v);
  }
}

TEST_F(GasEngineTest, ConnectedComponentsOnRandomGraphMatchBfs) {
  SyntheticGraph graph = GeneratePowerLawGraph(400, 700, 0.8, 99);
  SyntheticGraph sym = Symmetrize(graph);

  GasOptions options;
  options.max_iterations = 400;
  auto gas = RunGas(cluster_.get(), sym, 3, options, ComponentsProgram{});
  ASSERT_TRUE(gas.converged);

  // Reference: BFS labeling with min-vertex component representative.
  std::vector<std::vector<uint32_t>> adj(sym.num_vertices);
  for (size_t e = 0; e < sym.src.size(); ++e) {
    adj[sym.src[e]].push_back(sym.dst[e]);
  }
  std::vector<uint32_t> label(sym.num_vertices, 0xffffffffu);
  for (uint32_t v = 0; v < sym.num_vertices; ++v) {
    if (label[v] != 0xffffffffu) {
      continue;
    }
    std::queue<uint32_t> queue;
    queue.push(v);
    label[v] = v;  // v is the smallest unlabeled vertex of its component.
    while (!queue.empty()) {
      uint32_t u = queue.front();
      queue.pop();
      for (uint32_t w : adj[u]) {
        if (label[w] == 0xffffffffu) {
          label[w] = v;
          queue.push(w);
        }
      }
    }
  }
  for (uint32_t v = 0; v < sym.num_vertices; ++v) {
    EXPECT_EQ(gas.states[v], label[v]) << "vertex " << v;
  }
}

TEST_F(GasEngineTest, SsspMatchesBfsDistances) {
  SyntheticGraph graph = GeneratePowerLawGraph(600, 3000, 0.8, 42);
  GasOptions options;
  options.max_iterations = 200;
  SsspProgram program;
  program.source = 5;
  auto gas = RunGas(cluster_.get(), graph, 4, options, program);
  ASSERT_TRUE(gas.converged);

  // Reference BFS along directed edges.
  std::vector<std::vector<uint32_t>> adj(graph.num_vertices);
  for (size_t e = 0; e < graph.src.size(); ++e) {
    adj[graph.src[e]].push_back(graph.dst[e]);
  }
  std::vector<uint32_t> dist(graph.num_vertices, SsspProgram::kUnreached);
  std::queue<uint32_t> queue;
  dist[5] = 0;
  queue.push(5);
  while (!queue.empty()) {
    uint32_t u = queue.front();
    queue.pop();
    for (uint32_t w : adj[u]) {
      if (dist[w] == SsspProgram::kUnreached) {
        dist[w] = dist[u] + 1;
        queue.push(w);
      }
    }
  }
  for (uint32_t v = 0; v < graph.num_vertices; ++v) {
    EXPECT_EQ(gas.states[v], dist[v]) << "vertex " << v;
  }
}

TEST_F(GasEngineTest, SingleNodeDegenerateCase) {
  SyntheticGraph graph = GeneratePowerLawGraph(100, 400);
  GasOptions options;
  options.max_iterations = 5;
  PageRankProgram program;
  program.epsilon = 0;
  auto gas = RunGas(cluster_.get(), graph, 1, options, program);
  auto reference = ReferencePageRank(graph, PageRankOptions{.iterations = 5});
  double max_diff = 0;
  for (size_t v = 0; v < reference.size(); ++v) {
    max_diff = std::max(max_diff, std::fabs(gas.states[v] - reference[v]));
  }
  EXPECT_LT(max_diff, 1e-12);
}

}  // namespace
}  // namespace liteapp
