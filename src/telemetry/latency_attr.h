// Per-op record ("where did my microsecond go").
//
// Every LITE op — blocking memop, async memop, RPC, atomic, memset/memcpy —
// carries one OpAttrRecord from API entry to retirement. The op engine brackets each
// clock-advancing call on the issuing thread and adds the *virtual-time
// delta* to one stage slot; waits whose delta spans the whole remote round
// trip are split across the transport stages proportionally to a per-WQE
// breakdown the RNIC model computes from its absolute event timestamps.
// At retirement the record commits into per-(op-type, size-class, priority)
// stage histograms named `lite.lat.<op>.<size>.<pri>.<stage>` in the node's
// metric registry, so LT_stat / DumpTelemetryJson / check_bench.py see them
// with no extra plumbing.
//
// The record is also the op's identity and its trace: the outermost claim
// draws the op id, writes the always-on kOpStart/kOpEnd journal breadcrumbs,
// and rolls the node's sampler once. A sampled op (EnableTracing(n): every
// n-th claim) additionally carries an OpTrace — a cluster-unique trace id
// (put on the RPC wire) and a bounded list of {stage, t_ns, ns} events, one
// per booked delta — which commits with the record into the node's bounded
// trace ring for DumpTelemetryJson / ExportChromeTrace. Server-side RPC
// halves commit as records whose parent_trace_id is the caller's trace id.
//
// Cost rules (this must stay always-on without moving fig06 by a byte):
//   * no SpinFor/IdleFor/SyncTo* anywhere in this module — only NowNs()
//     reads, arithmetic, and relaxed atomics inside FixedHistogram::Record;
//   * stamping is thread-local pointer writes; commit finds its key's
//     histograms with a few acquire loads (no lock, no name built), then
//     records the e2e and each nonzero stage. Only the first commit of a
//     key takes the sink's mutex, builds the name and registers it;
//   * unsampled ops write no events and allocate nothing.
//
// Conservation: stages are measured as deltas of the issuing thread's own
// clock, so their sum tracks end-to-end by construction. Async retirement
// can observe deltas on a different thread's clock; Commit() therefore
// proportionally rescales the stage vector if it exceeds the measured
// end-to-end and books the (nonnegative) remainder as `other` — giving
// sum(stages) == e2e exactly, always, which HealthWatchdog checks. For the
// same reason it clamps a sampled op's event times into [start, start + e2e].
#ifndef SRC_TELEMETRY_LATENCY_ATTR_H_
#define SRC_TELEMETRY_LATENCY_ATTR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/telemetry/metrics.h"

namespace lt {
namespace telemetry {

class Journal;

// Stage slots of one op's latency budget. Order is the waterfall order.
enum LatStage {
  kLatCross = 0,     // User/kernel crossing (LiteClient syscall model).
  kLatSubmit,        // Map check, lh lookup, permission check.
  kLatQosWait,       // QoS admission wait (priority gate).
  kLatEngineQueue,   // Async window backpressure / RPC ring-full wait.
  kLatPost,          // WQE build + doorbell charge + local copies.
  kLatRnicLocal,     // Local RNIC processing (engine reservation, caches).
  kLatPortQueue,     // Fabric port queueing delay (TX + RX serialization).
  kLatWire,          // Wire: serialization at line rate + propagation.
  kLatRnicRemote,    // Remote RNIC processing + ack generation.
  kLatRemoteSvc,     // Remote handler service time (RPC dispatch/NACK).
  kLatComplPoll,     // Completion generation + poll/wakeup on the caller.
  kLatRetire,        // Handle retirement bookkeeping (async consume).
  kLatDetour,        // Retry backoff, timeout waits, stale-home redirects.
  kLatOther,         // Commit-time remainder; never stamped directly.
  kLatStageCount,
};

// Short metric-name suffix for a stage ("cross", "wire", ...).
const char* LatStageName(int stage);

// Transport-stage decomposition of one WQE's round trip, computed by the
// RNIC model from its absolute virtual timestamps and carried back on the
// Completion. Used only as *proportions* to split a measured wait delta.
struct WqeLatBreakdown {
  uint64_t rnic_local_ns = 0;
  uint64_t port_queue_ns = 0;
  uint64_t wire_ns = 0;
  uint64_t rnic_remote_ns = 0;
  uint64_t compl_ns = 0;

  uint64_t Total() const {
    return rnic_local_ns + port_queue_ns + wire_ns + rnic_remote_ns + compl_ns;
  }
  void Add(const WqeLatBreakdown& o) {
    rnic_local_ns += o.rnic_local_ns;
    port_queue_ns += o.port_queue_ns;
    wire_ns += o.wire_ns;
    rnic_remote_ns += o.rnic_remote_ns;
    compl_ns += o.compl_ns;
  }
};

// One stage interval of a sampled op: `ns` of `stage` from virtual `t_ns`.
struct OpEvent {
  LatStage stage = kLatOther;
  uint64_t t_ns = 0;
  uint64_t ns = 0;
};

// The timeline of one sampled op. Rides its OpAttrRecord while the op is in
// flight (trace id and events only), then commits into the node's trace ring
// with the record's op, op_id and start_ns copied in.
struct OpTrace {
  static constexpr int kMaxEvents = 32;

  const char* op = "";           // Record name: "write", "rpc", "LT_RPC_srv", ...
  uint64_t op_id = 0;
  uint64_t trace_id = 0;         // Cluster-unique; carried on the RPC wire.
  uint64_t parent_trace_id = 0;  // Nonzero on server-side RPC records.
  uint32_t node = 0;             // Node whose ring holds the record.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;           // start + e2e, set at commit.
  int n_events = 0;
  uint32_t events_dropped = 0;   // Events lost to the kMaxEvents bound.
  OpEvent events[kMaxEvents];

  // Appends one event; past kMaxEvents it is counted in events_dropped.
  void Add(LatStage stage, uint64_t t_ns, uint64_t ns);

  std::string ToJson() const;
};

// One op's in-flight record. Lives on the stack inside ScopedOpAttr for
// blocking ops; moved into the engine's AsyncOp (via AttrDetach) for ops
// that retire later on another thread.
struct OpAttrRecord {
  bool active = false;    // A claimed, committable record.
  bool detached = false;  // Ownership moved to an async op; scope won't commit.
  // "write", "read", "rpc", "atomic", "awrite", ...: a string with static
  // storage (a literal), since the sink keys its histograms on the address.
  const char* op = "";
  uint64_t bytes = 0;
  int pri = 0;  // 0 = high, else low.
  uint64_t op_id = 0;
  uint64_t start_ns = 0;
  uint64_t stage_ns[kLatStageCount] = {};
  std::unique_ptr<OpTrace> trace;  // Sampled ops only.
};

class LatencyAttr;

// Installs a record as the calling thread's current op if no op is already
// claimed (outermost API call claims; nested internal calls — e.g. a control
// RPC issued inside a memop — stay inert, so the sampler is rolled once per
// op). On destruction commits `now - start` as end-to-end unless the record
// was detached to an async op.
class ScopedOpAttr {
 public:
  ScopedOpAttr(LatencyAttr* sink, const char* op, uint64_t bytes, int pri);
  ~ScopedOpAttr();

  ScopedOpAttr(const ScopedOpAttr&) = delete;
  ScopedOpAttr& operator=(const ScopedOpAttr&) = delete;

 private:
  LatencyAttr* sink_ = nullptr;
  OpAttrRecord rec_;
  bool owner_ = false;
};

// Temporarily installs an async op's detached record as this thread's
// current record (saving any previous one), so stamps during retirement
// (e.g. the RPC reply wait) land on the op being retired.
class AttrAdoptScope {
 public:
  explicit AttrAdoptScope(OpAttrRecord* rec);
  ~AttrAdoptScope();

  AttrAdoptScope(const AttrAdoptScope&) = delete;
  AttrAdoptScope& operator=(const AttrAdoptScope&) = delete;

 private:
  OpAttrRecord* saved_;
};

// Adds `delta_ns` to one stage of the current record (no-op when none).
void AttrAdd(LatStage stage, uint64_t delta_ns);

// Splits a wait delta across the transport stages (rnic_local, port_queue,
// wire, rnic_remote, compl_poll) proportionally to `b`. A zero breakdown
// books the whole delta as completion-poll time; integer rounding leftovers
// go there too.
void AttrAddSplit(uint64_t delta_ns, const WqeLatBreakdown& b);

// RPC reply wait: the request's transport components in `b` are booked
// verbatim (capped at `delta_ns`); whatever the delta holds beyond them is
// remote service time — the server-side dispatch, handler, and reply post.
void AttrAddRpcWait(uint64_t delta_ns, const WqeLatBreakdown& b);

// Moves the current record into `*out` (for async ops that retire later)
// and marks the scope's copy detached so it won't double-commit. Returns
// false (and deactivates `*out`) when this thread has no current record.
bool AttrDetach(OpAttrRecord* out);

// Trace id of the calling thread's current record, or 0 when the op is not
// sampled. This is what the RPC layer puts on the wire.
uint64_t CurrentTraceId();

// The per-node sink: claims records (op id, journal breadcrumbs, sampling),
// resolves (op, size-class, pri) keys to stage histogram arrays in the
// node's Registry, commits finished records, and keeps the bounded ring of
// committed sampled-op traces.
class LatencyAttr {
 public:
  static constexpr size_t kTraceRingCapacity = 1024;  // default ring size

  explicit LatencyAttr(Registry* registry, size_t trace_ring_capacity = kTraceRingCapacity)
      : registry_(registry),
        ring_capacity_(trace_ring_capacity == 0 ? 1 : trace_ring_capacity) {}

  LatencyAttr(const LatencyAttr&) = delete;
  LatencyAttr& operator=(const LatencyAttr&) = delete;

  // Identity used for trace-id allocation and committed-trace tagging.
  void SetNodeId(uint32_t node) { node_ = node; }
  // Flight recorder receiving the op start/end breadcrumbs (may be null).
  void SetJournal(Journal* journal) { journal_ = journal; }

  // 0 disables tracing (default); n samples every n-th claimed op.
  void SetSampleEvery(uint32_t n) { sample_every_.store(n, std::memory_order_relaxed); }

  // Cluster-unique, never 0: node id in the high 24 bits, a per-node counter
  // (starting at 1) in the low 40.
  uint64_t AllocTraceId() {
    return (static_cast<uint64_t>(node_) << 40) |
           (next_trace_.fetch_add(1, std::memory_order_relaxed) & ((1ull << 40) - 1));
  }

  // Books `rec` with the given end-to-end time. Rescales the stage vector
  // proportionally if it exceeds e2e (cross-thread-clock skew on async
  // retirement) and books the remainder as `other`, so the committed stages
  // always sum to exactly `e2e_ns`. Also writes the kOpEnd breadcrumb and
  // moves a sampled op's trace, stamped with the record's identity, into the
  // ring.
  void Commit(OpAttrRecord& rec, uint64_t e2e_ns);

  // Copies a finished trace into the ring, tagged with this node.
  void CommitTrace(OpTrace trace);

  uint64_t traces_committed() const { return committed_.load(std::memory_order_relaxed); }
  // Traces overwritten in the ring before anyone snapshotted them.
  uint64_t traces_dropped() const { return traces_dropped_.load(std::memory_order_relaxed); }
  // Events lost to OpTrace::kMaxEvents, totaled over committed traces.
  uint64_t events_dropped() const { return events_dropped_.load(std::memory_order_relaxed); }
  size_t trace_ring_capacity() const { return ring_capacity_; }

  // Committed traces, oldest first (at most trace_ring_capacity()).
  std::vector<OpTrace> Traces() const;

  // Human-readable per-key stage waterfall built from any snapshot that
  // contains lite.lat.* histograms.
  static std::string DumpLatencyBreakdown(const MetricsSnapshot& snap);

  // "64B", "4K", "big", ... — power-of-8-ish op size buckets.
  static const char* SizeClass(uint64_t bytes);

 private:
  friend class ScopedOpAttr;

  struct KeySlot {
    FixedHistogram* e2e = nullptr;
    std::array<FixedHistogram*, kLatStageCount> stages = {};
  };

  // One published (op address -> slot) pair of the lock-free key index. The
  // slot is stored before the op with release order, and neither changes
  // once the op is set, so a reader that acquires the op may use the slot.
  struct IndexEntry {
    std::atomic<const char*> op{nullptr};
    std::atomic<KeySlot*> slot{nullptr};
  };
  static constexpr int kSizeClasses = 8;  // SizeClass's buckets.
  static constexpr size_t kIndexWays = 16;
  // Open-addressed by the op's address; one per (size class, priority).
  using IndexRow = std::array<IndexEntry, kIndexWays>;

  // The record's key: its row, then the op's entry in it. A key not yet
  // published takes the slow path (KeySlotSlow).
  KeySlot* Slot(const OpAttrRecord& rec);
  // Under mu_: builds the key's name, finds or registers its histograms in
  // slots_ (two op literals with equal text share one slot), and publishes
  // the op's address in `row`. A full row is left as is; its extra ops keep
  // taking this path.
  KeySlot* KeySlotSlow(const OpAttrRecord& rec, int size_class, IndexRow& row);

  // Outermost-claim bookkeeping for `rec` (op, op_id and start_ns set):
  // kOpStart breadcrumb, one sampler roll, and the trace of a sampled op.
  void Claim(OpAttrRecord* rec);

  Registry* const registry_;
  std::mutex mu_;
  std::map<std::string, KeySlot> slots_;  // Node-stable; guarded by mu_.
  std::array<std::array<IndexRow, 2>, kSizeClasses> index_;  // [size class][hi, lo]

  uint32_t node_ = 0;
  Journal* journal_ = nullptr;
  std::atomic<uint32_t> sample_every_{0};
  std::atomic<uint64_t> ops_seen_{0};
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> traces_dropped_{0};
  std::atomic<uint64_t> events_dropped_{0};

  const size_t ring_capacity_;
  mutable std::mutex ring_mu_;
  std::vector<OpTrace> ring_;
  size_t ring_next_ = 0;
};

// Snapshot-time conservation checker. Returns one human-readable line per
// violated invariant (empty = healthy). Meaningful on a quiesced cluster:
// counters are read non-atomically with respect to in-flight ops.
class HealthWatchdog {
 public:
  static std::vector<std::string> Check(const MetricsSnapshot& snap);
};

// ---- Failure-dump registry (gtest listener support) ----
// Live clusters register a dump callback (the vtime-merged journal); the
// custom gtest main prints every registered dump when a test fails.
void RegisterFailureDump(const void* key, std::function<std::string()> dump);
void UnregisterFailureDump(const void* key);
std::string CollectFailureDumps();

}  // namespace telemetry
}  // namespace lt

#endif  // SRC_TELEMETRY_LATENCY_ATTR_H_
