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
    : inst_(inst),
      flush_ns_(inst->params().lite_ring_flush_ns),
      batch_(std::max<uint32_t>(1, inst->params().lite_ring_doorbell_batch)),
      entries_(std::max<uint32_t>(1, inst->params().lite_ring_entries)) {
  const uint32_t n = std::max<uint32_t>(1, inst->params().lite_ring_cpus);
  rings_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    rings_.push_back(std::make_unique<CpuRing>());
  }
}

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
  return *rings_[h % rings_.size()];
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
  std::vector<RingDeferredOp> batch;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    batch.swap(r.deferred);
    MaybeDoorbellLocked(r);
  }
  if (!batch.empty()) {
    deferred_flushes_->Inc();
    DrainBatch(r, std::move(batch));
  }
}

void SubmissionRings::SyncExit(uint64_t ops) {
  CpuRing& r = RingForThisThread();
  std::lock_guard<std::mutex> lock(r.mu);
  BookOpsLocked(r, ops);
}

void SubmissionRings::DrainBatch(CpuRing& r, std::vector<RingDeferredOp>&& batch) {
  RingDrainCache cache;
  for (RingDeferredOp& op : batch) {
    inst_->ExecuteDeferredAsync(op, &cache);
  }
  std::lock_guard<std::mutex> lock(r.mu);
  BookOpsLocked(r, batch.size());
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
  Status perm = LiteInstance::CheckAccess(*entry, offset, len, is_read ? kPermRead : kPermWrite);
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
  std::vector<RingDeferredOp> batch;
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.deferred.push_back(std::move(op));
    overflow = r.deferred.size() >= entries_;
    const bool aged = NowNs() - r.deferred.front().enqueue_ns >= flush_ns_;
    if (overflow || aged || r.deferred.size() >= batch_) {
      batch.swap(r.deferred);
      MaybeDoorbellLocked(r);
    }
  }
  if (!batch.empty()) {
    (overflow ? overflow_flushes_ : deferred_flushes_)->Inc();
    DrainBatch(r, std::move(batch));
  }
  return h;
}

void SubmissionRings::FlushHandle(MemopHandle h) {
  for (auto& rp : rings_) {
    CpuRing& r = *rp;
    std::vector<RingDeferredOp> batch;
    {
      std::lock_guard<std::mutex> lock(r.mu);
      bool found = false;
      for (const RingDeferredOp& op : r.deferred) {
        if (op.handle == h) {
          found = true;
          break;
        }
      }
      if (!found) {
        continue;
      }
      batch.swap(r.deferred);
      MaybeDoorbellLocked(r);
    }
    deferred_flushes_->Inc();
    DrainBatch(r, std::move(batch));
    return;
  }
}

void SubmissionRings::FlushAll() {
  for (auto& rp : rings_) {
    CpuRing& r = *rp;
    std::vector<RingDeferredOp> batch;
    {
      std::lock_guard<std::mutex> lock(r.mu);
      if (r.deferred.empty()) {
        continue;
      }
      batch.swap(r.deferred);
      MaybeDoorbellLocked(r);
    }
    deferred_flushes_->Inc();
    DrainBatch(r, std::move(batch));
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
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> lock(rp->mu);
    n += rp->epoch_open ? 1 : 0;
  }
  return n;
}

uint64_t SubmissionRings::OpenEpochOps() const {
  uint64_t n = 0;
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> lock(rp->mu);
    n += rp->epoch_ops;
  }
  return n;
}

uint64_t SubmissionRings::DeferredPending() const {
  uint64_t n = 0;
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> lock(rp->mu);
    n += rp->deferred.size();
  }
  return n;
}

}  // namespace lite
