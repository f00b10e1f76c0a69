#include "src/lite/lite_cluster.h"

#include <sstream>

#include "src/telemetry/latency_attr.h"

namespace lite {

LiteCluster::LiteCluster(size_t node_count, const lt::SimParams& params)
    : cluster_(node_count, params) {
  const NodeId manager = 0;
  instances_.reserve(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    instances_.push_back(std::make_unique<LiteInstance>(cluster_.node(i), manager));
  }
  // Peer discovery + global-rkey exchange.
  for (auto& a : instances_) {
    for (auto& b : instances_) {
      a->ConnectPeer(b.get());
    }
  }
  // Shared QP pools: K QPs per (ordered) node pair, pairwise-connected.
  for (auto& inst : instances_) {
    inst->CreateQueuePairs();
  }
  if (params.lite_transport == lt::LiteTransport::kRc) {
    // RC: pairwise-connect the K QPs of every (ordered) node pair. DC skips
    // this entirely — initiators attach lazily on first use (DESIGN.md §10).
    const int k = std::max(1, params.lite_qp_sharing_factor);
    for (NodeId i = 0; i < node_count; ++i) {
      for (NodeId j = i + 1; j < node_count; ++j) {
        for (int q = 0; q < k; ++q) {
          lt::Qp* a = instances_[i]->PoolQp(j, q);
          lt::Qp* b = instances_[j]->PoolQp(i, q);
          a->Connect(j, b->qpn());
          b->Connect(i, a->qpn());
        }
      }
    }
  }
  // Control rings: only the self-loopback ring is wired here; a channel to
  // a peer is built on its first RPC, so bring-up stays O(n) rather than
  // all-pairs. A loopback ring that does not fit is retried on first use.
  for (auto& inst : instances_) {
    (void)inst->BootstrapControlChannel(inst.get());
  }
  for (auto& inst : instances_) {
    inst->Start();
  }
  // Any gtest failure while this cluster lives dumps its flight recorder
  // (tests/gtest_main.cc drains the registry on the first failed assertion).
  lt::telemetry::RegisterFailureDump(this, [this] { return DumpJournal(); });
}

LiteCluster::~LiteCluster() {
  lt::telemetry::UnregisterFailureDump(this);
  for (auto& inst : instances_) {
    inst->Stop();
  }
}

std::string LiteCluster::DumpLatencyBreakdown() {
  std::ostringstream out;
  for (size_t i = 0; i < cluster_.size(); ++i) {
    const auto snap = cluster_.node(i)->telemetry().registry().Snapshot();
    const std::string body = lt::telemetry::LatencyAttr::DumpLatencyBreakdown(snap);
    if (body.empty()) {
      continue;
    }
    out << "=== node " << i << " ===\n" << body;
  }
  return out.str();
}

std::vector<std::string> LiteCluster::RunHealthCheck() {
  std::vector<std::string> violations;
  for (size_t i = 0; i < cluster_.size(); ++i) {
    const auto snap = cluster_.node(i)->telemetry().registry().Snapshot();
    for (const std::string& v : lt::telemetry::HealthWatchdog::Check(snap)) {
      violations.push_back("node" + std::to_string(i) + ": " + v);
    }
  }
  return violations;
}

std::unique_ptr<LiteClient> LiteCluster::CreateClient(NodeId node, bool kernel_level) {
  return std::make_unique<LiteClient>(instances_[node].get(), kernel_level);
}

}  // namespace lite
