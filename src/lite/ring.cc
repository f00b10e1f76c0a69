#include "src/lite/ring.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "src/common/timing.h"
#include "src/lite/instance.h"

namespace lite {

using lt::NowNs;
using lt::telemetry::AttrAdd;
using lt::telemetry::LatStage;

SubmissionRings::SubmissionRings(LiteInstance* inst)
    : inst_(inst), batch_(std::max<uint32_t>(1, inst->params().lite_ring_doorbell_batch)) {}

void SubmissionRings::RegisterTelemetry(lt::telemetry::Registry& reg) {
  ops_ = reg.GetCounter("lite.ring.ops");
  doorbells_ = reg.GetCounter("lite.ring.doorbells");
  deferred_flushes_ = reg.GetCounter("lite.ring.deferred_flushes");
  overflow_flushes_ = reg.GetCounter("lite.ring.overflow_flushes");
  spin_hits_ = reg.GetCounter("lite.ring.spin_hits");
  sleep_wakeups_ = reg.GetCounter("lite.ring.sleep_wakeups");
  ops_per_crossing_ = reg.GetHistogram("lite.ring.ops_per_crossing");
  reg.RegisterProbe("lite.ring.open_epochs", [this] { return OpenEpochs(); });
  reg.RegisterProbe("lite.ring.open_epoch_ops", [this] { return OpenEpochOps(); });
  reg.RegisterProbe("lite.ring.deferred_pending", [this] { return DeferredPending(); });
}

SubmissionRings::CpuRing& SubmissionRings::RingForThisThread() {
  const size_t h = std::hash<std::thread::id>()(std::this_thread::get_id());
  return rings_[h % kRingCpus];
}

void SubmissionRings::MaybeDoorbellLocked(CpuRing& r) {
  lt::OsKernel& os = inst_->node()->os();
  if (r.epoch_open && NowNs() <= r.hot_until_ns) {
    return;  // Drainer is hot: the op rides the open doorbell, crossing-free.
  }
  if (r.epoch_open) {
    // The drainer went cold since the last doorbell: close that epoch and
    // book how many ops its one crossing amortized.
    os.RecordBatchedCrossing(r.epoch_ops);
    ops_per_crossing_->Record(r.epoch_ops);
  }
  const uint64_t t0 = NowNs();
  os.CrossUserKernelBatched();
  doorbells_->Inc();
  AttrAdd(LatStage::kLatCross, NowNs() - t0);
  r.epoch_open = true;
  r.epoch_ops = 0;
  r.hot_until_ns = NowNs() + kAdaptiveSpinNs;
}

void SubmissionRings::BookOpsLocked(CpuRing& r, uint64_t ops) {
  r.epoch_ops += ops;
  ops_->Inc(ops);
  r.hot_until_ns = std::max(r.hot_until_ns, NowNs() + kAdaptiveSpinNs);
}

void SubmissionRings::SyncEnter() {
  CpuRing& r = RingForThisThread();
  std::lock_guard<std::mutex> lock(r.mu);
  MaybeDoorbellLocked(r);
  DrainLocked(r, deferred_flushes_);
}

void SubmissionRings::SyncExit(uint64_t ops) {
  CpuRing& r = RingForThisThread();
  std::lock_guard<std::mutex> lock(r.mu);
  BookOpsLocked(r, ops);
}

void SubmissionRings::DrainLocked(CpuRing& r, lt::telemetry::Counter* reason) {
  if (r.deferred.empty()) {
    return;
  }
  reason->Inc();
  RingDrainCache cache;
  for (RingDeferredOp& op : r.deferred) {
    inst_->ExecuteDeferredAsync(op, &cache);
  }
  BookOpsLocked(r, r.deferred.size());
  r.deferred.clear();
}

StatusOr<MemopHandle> SubmissionRings::SubmitAsync(Lh lh, uint64_t offset, void* buf, uint64_t len,
                                                   bool is_read, Priority pri) {
  // User-half validation against the read-only lh-table mapping: errors
  // surface at submit time exactly as on the non-ring path, but without a
  // crossing or a map-check charge — the kernel half pays the authoritative
  // check when the batch drains.
  auto entry = inst_->GetLh(lh);
  if (!entry.ok()) {
    return entry.status();
  }
  Status perm = LiteInstance::CheckAccess(**entry, offset, len, is_read ? kPermRead : kPermWrite);
  if (!perm.ok()) {
    return perm;
  }

  RingDeferredOp op;
  op.lh = lh;
  op.offset = offset;
  op.buf = buf;
  op.len = len;
  op.is_read = is_read;
  op.pri = pri;
  op.handle = inst_->engine_.ReserveHandle();
  op.enqueue_ns = NowNs();
  lt::telemetry::AttrDetach(&op.attr);
  const MemopHandle h = op.handle;

  CpuRing& r = RingForThisThread();
  std::lock_guard<std::mutex> lock(r.mu);
  r.deferred.push_back(std::move(op));
  const bool overflow = r.deferred.size() >= kRingEntries;
  const bool aged = NowNs() - r.deferred.front().enqueue_ns >= kRingFlushNs;
  if (overflow || aged || r.deferred.size() >= batch_) {
    MaybeDoorbellLocked(r);
    DrainLocked(r, overflow ? overflow_flushes_ : deferred_flushes_);
  }
  return h;
}

void SubmissionRings::FlushHandle(MemopHandle h) {
  for (CpuRing& r : rings_) {
    std::lock_guard<std::mutex> lock(r.mu);
    if (std::any_of(r.deferred.begin(), r.deferred.end(),
                    [h](const RingDeferredOp& op) { return op.handle == h; })) {
      MaybeDoorbellLocked(r);
      DrainLocked(r, deferred_flushes_);
      return;
    }
  }
}

void SubmissionRings::FlushAll() {
  for (CpuRing& r : rings_) {
    std::lock_guard<std::mutex> lock(r.mu);
    if (!r.deferred.empty()) {
      MaybeDoorbellLocked(r);
      DrainLocked(r, deferred_flushes_);
    }
  }
}

void SubmissionRings::AccountReap(uint64_t waited_ns) {
  if (waited_ns <= kAdaptiveSpinNs) {
    // The completion ring was hot: the reap never left user space.
    spin_hits_->Inc();
  } else {
    // The reaper outlasted its spin budget and slept: one crossing + one
    // thread wakeup for the whole sleep cycle (not one per poll iteration).
    const uint64_t t0 = NowNs();
    inst_->node()->os().CrossUserKernel();
    inst_->node()->os().ChargeThreadWakeup();
    AttrAdd(LatStage::kLatCross, NowNs() - t0);
    sleep_wakeups_->Inc();
  }
  // Delivering completions counts as drainer activity: keep it hot.
  CpuRing& r = RingForThisThread();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.epoch_open) {
    r.hot_until_ns = std::max(r.hot_until_ns, NowNs() + kAdaptiveSpinNs);
  }
}

uint64_t SubmissionRings::OpenEpochs() const {
  uint64_t n = 0;
  for (const CpuRing& r : rings_) {
    std::lock_guard<std::mutex> lock(r.mu);
    n += r.epoch_open ? 1 : 0;
  }
  return n;
}

uint64_t SubmissionRings::OpenEpochOps() const {
  uint64_t n = 0;
  for (const CpuRing& r : rings_) {
    std::lock_guard<std::mutex> lock(r.mu);
    n += r.epoch_ops;
  }
  return n;
}

uint64_t SubmissionRings::DeferredPending() const {
  uint64_t n = 0;
  for (const CpuRing& r : rings_) {
    std::lock_guard<std::mutex> lock(r.mu);
    n += r.deferred.size();
  }
  return n;
}

}  // namespace lite
