#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/dsm.h"
#include "src/apps/graph.h"
#include "src/apps/workloads.h"

namespace liteapp {
namespace {

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double max_diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

TEST(GraphGenTest, EdgeCountAndRange) {
  SyntheticGraph g = GeneratePowerLawGraph(1000, 5000);
  EXPECT_EQ(g.num_vertices, 1000u);
  EXPECT_EQ(g.src.size(), 5000u);
  EXPECT_EQ(g.dst.size(), 5000u);
  for (size_t i = 0; i < g.src.size(); ++i) {
    EXPECT_LT(g.src[i], 1000u);
    EXPECT_LT(g.dst[i], 1000u);
    EXPECT_NE(g.src[i], g.dst[i]);
  }
}

TEST(GraphGenTest, InDegreeIsSkewed) {
  SyntheticGraph g = GeneratePowerLawGraph(1000, 20000, 0.9);
  std::vector<uint32_t> in_degree(1000, 0);
  for (uint32_t d : g.dst) {
    in_degree[d]++;
  }
  uint32_t max_deg = *std::max_element(in_degree.begin(), in_degree.end());
  EXPECT_GT(max_deg, 200u);  // Popular hub far above the mean of 20.
}

TEST(ReferencePageRankTest, RanksSumToAboutOne) {
  SyntheticGraph g = GeneratePowerLawGraph(500, 3000);
  PageRankOptions options;
  options.iterations = 15;
  auto ranks = ReferencePageRank(g, options);
  double sum = 0;
  for (double r : ranks) {
    sum += r;
  }
  // Dangling-vertex mass leaks, so the sum is <= 1 but substantial.
  EXPECT_GT(sum, 0.3);
  EXPECT_LE(sum, 1.01);
}

class GraphEnginesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = GeneratePowerLawGraph(2000, 12000);
    options_.iterations = 6;
    options_.threads_per_node = 2;
    reference_ = ReferencePageRank(graph_, options_);
  }
  SyntheticGraph graph_;
  PageRankOptions options_;
  std::vector<double> reference_;
};

TEST_F(GraphEnginesTest, LiteGraphMatchesReference) {
  lt::SimParams p;
  lite::LiteCluster cluster(4, p);
  auto result = LiteGraphPageRank(&cluster, graph_, 4, options_);
  ASSERT_EQ(result.ranks.size(), reference_.size());
  EXPECT_LT(MaxAbsDiff(result.ranks, reference_), 1e-9);
  EXPECT_GT(result.total_ns, 0u);
}

TEST_F(GraphEnginesTest, PowerGraphMatchesReference) {
  lt::SimParams p;
  lt::Cluster cluster(4, p);
  auto result = PowerGraphPageRank(&cluster, graph_, 4, options_);
  ASSERT_EQ(result.ranks.size(), reference_.size());
  EXPECT_LT(MaxAbsDiff(result.ranks, reference_), 1e-9);
}

TEST_F(GraphEnginesTest, GrappaMatchesReference) {
  lt::SimParams p;
  lt::Cluster cluster(4, p);
  auto result = GrappaPageRank(&cluster, graph_, 4, options_);
  ASSERT_EQ(result.ranks.size(), reference_.size());
  EXPECT_LT(MaxAbsDiff(result.ranks, reference_), 1e-9);
}

TEST_F(GraphEnginesTest, DsmEngineMatchesReference) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  lite::LiteCluster cluster(4, p);
  auto result = LiteGraphDsmPageRank(&cluster, graph_, 4, options_);
  ASSERT_EQ(result.ranks.size(), reference_.size());
  EXPECT_LT(MaxAbsDiff(result.ranks, reference_), 1e-9);
}

TEST_F(GraphEnginesTest, LiteBeatsTcpEnginesWithRealCosts) {
  // Paper Fig. 19 ordering: LITE-Graph < Grappa < PowerGraph runtimes. At
  // realistic graph sizes the communication volume dominates; tiny graphs
  // would be barrier-bound for every engine.
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  SyntheticGraph graph = GeneratePowerLawGraph(20000, 100000);
  PageRankOptions options = options_;
  options.iterations = 4;

  lite::LiteCluster lite_cluster(4, p);
  auto lite_result = LiteGraphPageRank(&lite_cluster, graph, 4, options);

  lt::Cluster tcp_cluster(4, p);
  auto pg = PowerGraphPageRank(&tcp_cluster, graph, 4, options);
  auto grappa = GrappaPageRank(&tcp_cluster, graph, 4, options);

  EXPECT_LT(lite_result.total_ns, grappa.total_ns);
  EXPECT_LT(grappa.total_ns, pg.total_ns);
}

}  // namespace
}  // namespace liteapp
