#include "src/node/node.h"

#include <sstream>

#include "src/telemetry/chrome_trace.h"

namespace lt {
namespace {

constexpr size_t kPageSize = 4096;  // Page size of every node's memory pool.

}  // namespace

Process::Process(Node* node)
    : node_(node),
      page_table_(&node->mem()),
      verbs_(&node->rnic(), &node->os(), &page_table_) {}

Node::Node(NodeId id, const SimParams& params, Fabric* fabric, RnicDirectory* directory)
    : id_(id),
      params_(params),
      mem_(params.node_phys_mem_bytes, kPageSize),
      port_(fabric->Attach(id)),
      rnic_(id, params_, &mem_, port_, directory),
      tcp_(id, fabric) {
  telemetry_.SetNodeId(id_);
  fabric->faults().AttachJournal(id_, &telemetry_.journal());
  RegisterHardwareProbes(fabric);
}

void Node::RegisterHardwareProbes(Fabric* fabric) {
  // Probes read existing per-component atomics only at snapshot time, so
  // instrumenting the hardware layers costs the hot path nothing.
  telemetry::Registry& reg = telemetry_.registry();
  struct CacheProbe {
    const char* prefix;
    const LruCache* cache;
  };
  const CacheProbe caches[] = {
      {"rnic.mpt", &rnic_.mpt_cache()},
      {"rnic.mtt", &rnic_.mtt_cache()},
      {"rnic.qpc", &rnic_.qpc_cache()},
  };
  for (const CacheProbe& c : caches) {
    const LruCache* cache = c.cache;
    const std::string prefix = c.prefix;
    reg.RegisterProbe(prefix + ".hits", [cache] { return cache->hits(); });
    reg.RegisterProbe(prefix + ".misses", [cache] { return cache->misses(); });
    reg.RegisterProbe(prefix + ".evictions", [cache] { return cache->evictions(); });
    reg.RegisterProbe(prefix + ".entries",
                      [cache] { return static_cast<uint64_t>(cache->size()); });
  }
  reg.RegisterProbe("rnic.ops_posted", [this] { return rnic_.ops_posted(); });
  reg.RegisterProbe("rnic.mr_count", [this] { return static_cast<uint64_t>(rnic_.MrCount()); });
  reg.RegisterProbe("rnic.qp_count", [this] { return static_cast<uint64_t>(rnic_.QpCount()); });
  // Async fast-path counters: doorbell batching, selective signaling, inline
  // sends (see docs/TELEMETRY.md).
  reg.RegisterProbe("lite.rnic.doorbells", [this] { return rnic_.doorbells_rung(); });
  reg.RegisterProbe("lite.rnic.wqes_batched", [this] { return rnic_.wqes_batched(); });
  reg.RegisterProbe("lite.rnic.inline_sends", [this] { return rnic_.inline_sends(); });
  reg.RegisterProbe("lite.rnic.wqe_signaled", [this] { return rnic_.wqes_signaled(); });
  reg.RegisterProbe("lite.rnic.wqe_unsignaled", [this] { return rnic_.wqes_unsignaled(); });
  rnic_.SetDoorbellBatchHistogram(reg.GetHistogram("lite.rnic.doorbell_batch"));
  reg.RegisterProbe("fabric.port.bytes", [this] { return port_->bytes_transferred(); });
  reg.RegisterProbe("fabric.port.reservations", [this] { return port_->reservation_count(); });
  reg.RegisterProbe("fabric.port.queue_delay_ns",
                    [this] { return port_->queue_delay_total_ns(); });
  // Fault-injection visibility (fabric-wide engine; the fabric outlives every
  // node, so capturing it in snapshot-time probes is safe).
  FaultEngine* faults = &fabric->faults();
  const NodeId id = id_;
  reg.RegisterProbe("faults.tx_drops", [faults, id] { return faults->drops_from(id); });
  reg.RegisterProbe("faults.drops_total", [faults] { return faults->drops(); });
  reg.RegisterProbe("faults.duplicates", [faults] { return faults->duplicates(); });
  reg.RegisterProbe("faults.delays", [faults] { return faults->delays_injected(); });
  reg.RegisterProbe("faults.crash_drops", [faults] { return faults->crash_drops(); });
  reg.RegisterProbe("faults.partition_drops",
                    [faults] { return faults->partition_drops(); });
  reg.RegisterProbe("os.syscalls", [this] { return os_.syscall_count(); });
  reg.RegisterProbe("os.crossings", [this] { return os_.crossing_count(); });
  // Ring-doorbell amortization: crossings that drained a batch of ops, and
  // the ops they amortized (os.crossings_batched <= os.crossings; see
  // docs/TELEMETRY.md "Per-CPU submission rings").
  reg.RegisterProbe("os.crossings_batched", [this] { return os_.batched_crossing_count(); });
  reg.RegisterProbe("os.ops_batched", [this] { return os_.batched_ops_count(); });
  os_.SetOpsPerCrossingHistogram(reg.GetHistogram("os.ops_per_crossing"));
}

Process* Node::CreateProcess() {
  std::lock_guard<std::mutex> lock(process_mu_);
  processes_.push_back(std::make_unique<Process>(this));
  return processes_.back().get();
}

Cluster::Cluster(size_t node_count, const SimParams& params) : params_(params) {
  nodes_.reserve(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    nodes_.push_back(
        std::make_unique<Node>(static_cast<NodeId>(i), params_, &fabric_, &directory_));
  }
}

void Cluster::SetTraceSampling(uint32_t sample_every) {
  for (auto& node : nodes_) {
    node->telemetry().latency().SetSampleEvery(sample_every);
  }
}

std::string Cluster::DumpTelemetryJson() const {
  std::ostringstream os;
  os << "{\"nodes\":[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    os << (i == 0 ? "" : ",") << nodes_[i]->telemetry().ToJson();
  }
  os << "]}";
  return os.str();
}

std::string Cluster::DumpJournal() const {
  std::vector<const telemetry::Journal*> journals;
  journals.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    journals.push_back(&node->telemetry().journal());
  }
  return telemetry::MergeJournalsJson(journals);
}

bool Cluster::ExportChromeTrace(const std::string& path) const {
  std::vector<telemetry::OpTrace> traces;
  std::vector<telemetry::JournalRecord> journal;
  for (const auto& node : nodes_) {
    std::vector<telemetry::OpTrace> part = node->telemetry().latency().Traces();
    traces.insert(traces.end(), part.begin(), part.end());
    std::vector<telemetry::JournalRecord> jpart = node->telemetry().journal().Snapshot();
    journal.insert(journal.end(), jpart.begin(), jpart.end());
  }
  return telemetry::WriteChromeTrace(path, traces, journal);
}

}  // namespace lt
