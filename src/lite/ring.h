// Per-CPU submission/completion rings (DESIGN.md §9).
//
// With `lite_ring_enable` on, a user-level LiteClient stops paying one
// user->kernel crossing per op. Instead it enqueues op descriptors into a
// shared-memory per-CPU submission ring (a cache-line write — below this
// model's nanosecond granularity, so the enqueue itself charges nothing)
// and rings a doorbell — one CrossUserKernelBatched() — only when the
// kernel-half drainer has gone cold. The drainer adaptively spins for
// kAdaptiveSpinNs after its last activity before sleeping, so back-to-back
// ops ride one crossing: the doorbell opens an *epoch*, every op drained
// until the ring next goes cold amortizes that single crossing, and the
// epoch's op count is booked into the ops-per-crossing histogram when the
// next doorbell closes it.
//
// Async submissions (LT_read_async/LT_write_async) additionally defer: the
// descriptor parks in the ring and the kernel half executes a whole batch
// per drain — one lh map-check per distinct lh per batch, with the engine's
// RNIC doorbell batching coalescing the posts behind it. Flush triggers:
// lite_ring_doorbell_batch entries, kRingFlushNs age, kRingEntries
// occupancy (overflow backpressure), any sync op on the same ring
// (program-order fence), or any reap (LT_poll/LT_wait need the handle
// registered). A batch drains with its ring's lock held, so taking it and
// registering its ops with the engine is one step for every other thread:
// a flush that finds the ring empty knows every op it held is registered.
//
// Completions are published to a completion ring the user half reaps with
// adaptive spin-then-sleep: a reap that returns within kAdaptiveSpinNs is
// crossing-free (spin hit); a longer one slept and pays one crossing + one
// thread wakeup for the whole sleep cycle.
//
// With rings off this file is inert: LiteInstance never constructs the
// object and LiteClient takes the classic one-crossing-per-op path,
// byte-identical to earlier revisions.
#ifndef SRC_LITE_RING_H_
#define SRC_LITE_RING_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/lite/lmr_table.h"
#include "src/lite/types.h"
#include "src/telemetry/latency_attr.h"
#include "src/telemetry/metrics.h"

namespace lite {

using lt::Status;
using lt::StatusOr;

class LiteInstance;

// Ring geometry: submission/completion ring pairs per instance (threads hash
// onto them), slots per ring (a full ring drains inline: overflow
// backpressure), and the oldest deferred submission's age at which the next
// submit flushes the ring.
inline constexpr uint32_t kRingCpus = 4;
inline constexpr uint32_t kRingEntries = 256;
inline constexpr uint64_t kRingFlushNs = 2'000;

// One async memop parked in a submission ring awaiting its drain. The
// completion handle is reserved at enqueue (the caller gets it back
// immediately); the op registers with the engine when the batch drains.
struct RingDeferredOp {
  Lh lh = 0;
  uint64_t offset = 0;
  void* buf = nullptr;
  uint64_t len = 0;
  bool is_read = false;
  Priority pri = Priority::kHigh;
  MemopHandle handle = 0;
  uint64_t enqueue_ns = 0;
  // Attribution record detached from the issuing API scope; adopted by the
  // kernel half for the drain and handed on to the engine's AsyncOp.
  lt::telemetry::OpAttrRecord attr;
};

// Kernel-half state cached across one drain batch: the lh resolution (map
// check) is charged once per distinct lh per batch, amortizing the lookup
// the same way the doorbell amortizes the crossing.
struct RingDrainCache {
  bool valid = false;
  Lh lh = 0;
  LhEntry entry;
};

class SubmissionRings {
 public:
  explicit SubmissionRings(LiteInstance* inst);

  SubmissionRings(const SubmissionRings&) = delete;
  SubmissionRings& operator=(const SubmissionRings&) = delete;

  // Registers the lite.ring.* instruments (constructor-time, via
  // LiteInstance::RegisterTelemetry).
  void RegisterTelemetry(lt::telemetry::Registry& reg);

  // ---- User-half entry points (called by LiteClient) ----
  // Brackets one sync op: SyncEnter flushes this CPU's deferred async
  // submissions first (program order within a ring) and rings the doorbell
  // if the drainer has gone cold; SyncExit books the op into the open epoch
  // and keeps the drainer hot. LiteClient's boundary scope pairs them.
  void SyncEnter();
  void SyncExit(uint64_t ops = 1);

  // Defers one async memop into this CPU's ring. Validates against the
  // read-only lh-table mapping (shared page: no crossing, no charge — the
  // kernel half pays the authoritative map check per drain) and returns the
  // reserved completion handle.
  StatusOr<MemopHandle> SubmitAsync(Lh lh, uint64_t offset, void* buf, uint64_t len, bool is_read,
                                    Priority pri);

  // Ensures `h` is registered with the engine: if it is still parked in
  // some ring, that ring's deferred queue drains (in order). No-op when
  // already flushed.
  void FlushHandle(MemopHandle h);
  // Drains every ring's deferred submissions (LT_wait_all ordering).
  void FlushAll();

  // Books the outcome of one blocking reap (LT_wait/LT_wait_all): a wait
  // within the spin budget found the completion ring hot (crossing-free);
  // a longer one slept and pays one crossing + one thread wakeup for the
  // whole sleep cycle — not one per poll iteration.
  void AccountReap(uint64_t waited_ns);

  // Snapshot probes: epochs whose closing doorbell has not happened yet and
  // the ops booked into them (the watchdog balances these against the
  // ops-per-crossing histogram).
  uint64_t OpenEpochs() const;
  uint64_t OpenEpochOps() const;
  uint64_t DeferredPending() const;

 private:
  struct CpuRing {
    mutable std::mutex mu;
    bool epoch_open = false;     // A doorbell has been rung; closes cold.
    uint64_t epoch_ops = 0;      // Ops amortized over the open doorbell.
    uint64_t hot_until_ns = 0;   // Drainer spins until this virtual time.
    std::vector<RingDeferredOp> deferred;
  };

  CpuRing& RingForThisThread();
  // Doorbell decision at a boundary interaction; r.mu held. Charges one
  // batched crossing when the drainer is cold, closing the previous epoch.
  void MaybeDoorbellLocked(CpuRing& r);
  // Executes r's deferred batch in order and books its ops, counting the
  // drain in `reason`; r.mu held throughout. No-op on an empty ring.
  void DrainLocked(CpuRing& r, lt::telemetry::Counter* reason);
  void BookOpsLocked(CpuRing& r, uint64_t ops);

  LiteInstance* const inst_;
  const uint32_t batch_;
  std::array<CpuRing, kRingCpus> rings_;

  // lite.ring.* instruments (docs/TELEMETRY.md).
  lt::telemetry::Counter* ops_ = nullptr;
  lt::telemetry::Counter* doorbells_ = nullptr;
  lt::telemetry::Counter* deferred_flushes_ = nullptr;
  lt::telemetry::Counter* overflow_flushes_ = nullptr;
  lt::telemetry::Counter* spin_hits_ = nullptr;
  lt::telemetry::Counter* sleep_wakeups_ = nullptr;
  lt::telemetry::FixedHistogram* ops_per_crossing_ = nullptr;
};

}  // namespace lite

#endif  // SRC_LITE_RING_H_
