#include "src/oss/os_kernel.h"

#include "src/common/timing.h"
#include "src/telemetry/metrics.h"

namespace lt {

void OsKernel::Syscall() {
  syscalls_.fetch_add(1, std::memory_order_relaxed);
  SpinFor(kSyscallOverheadNs + 2 * kUserKernelCrossNs);
}

void OsKernel::CrossUserKernel() {
  crossings_.fetch_add(1, std::memory_order_relaxed);
  SpinFor(kUserKernelCrossNs);
}

void OsKernel::CrossUserKernelBatched() {
  batched_crossings_.fetch_add(1, std::memory_order_relaxed);
  CrossUserKernel();
}

void OsKernel::RecordBatchedCrossing(uint64_t ops) {
  batched_ops_.fetch_add(ops, std::memory_order_relaxed);
  if (ops_per_crossing_hist_ != nullptr) {
    ops_per_crossing_hist_->Record(ops);
  }
}

void OsKernel::PinPages(uint64_t pages) { SpinFor(pages * kPinPageNs); }

void OsKernel::UnpinPages(uint64_t pages) { SpinFor(pages * kUnpinPageNs); }

void OsKernel::ChargeThreadWakeup() { SpinFor(kThreadWakeupNs); }

}  // namespace lt
