// Shared internals of the graph engines (partitioning, in-edge index, and
// the gather/apply sweep with its modeled compute cost). Used by graph.cc
// and the DSM-backed engine in dsm.cc.
#ifndef SRC_APPS_GRAPH_DETAIL_H_
#define SRC_APPS_GRAPH_DETAIL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/apps/graph.h"

namespace liteapp {

// Modeled per-edge gather / per-vertex apply cost, divided across a node's
// compute threads. Using an explicit model (rather than real host CPU) keeps
// the engines' compute identical so the comparison isolates the network
// stacks — which is what the paper attributes the gap to (Sec. 8.3).
inline constexpr uint64_t kEdgeWorkNs = 14;
inline constexpr uint64_t kVertexWorkNs = 6;

struct Partitioning {
  uint32_t num_vertices;
  uint32_t parts;
  uint32_t per_part;
  uint32_t PartOf(uint32_t v) const { return std::min(v / per_part, parts - 1); }
  uint32_t Begin(uint32_t p) const { return p * per_part; }
  uint32_t End(uint32_t p) const { return p == parts - 1 ? num_vertices : (p + 1) * per_part; }
};

Partitioning MakePartitioning(uint32_t vertices, uint32_t parts);

// In-edge CSR per partition plus global out-degrees (built during untimed
// setup, as all compared systems preprocess the graph).
struct GraphIndex {
  std::vector<uint32_t> out_degree;
  std::vector<std::vector<uint32_t>> in_offsets;
  std::vector<std::vector<uint32_t>> in_sources;
};

GraphIndex BuildIndex(const SyntheticGraph& g, const Partitioning& parts);

// One gather+apply sweep over partition `p` given a full rank snapshot;
// charges the modeled per-edge compute split across the node's threads.
// Returns the number of vertices whose rank changed beyond the delta-caching
// threshold.
uint32_t SweepPartition(const GraphIndex& idx, const Partitioning& parts, uint32_t p,
                        const std::vector<double>& snapshot, std::vector<double>* out_ranks,
                        const PageRankOptions& options);

}  // namespace liteapp

#endif  // SRC_APPS_GRAPH_DETAIL_H_
