// Per-node OS cost model.
//
// The paper's kernel-level indirection argument hinges on precise accounting
// of user/kernel boundary costs: a classic syscall (trap in + out), a single
// user->kernel crossing (the optimized LITE RPC path pays exactly two, see
// paper Sec. 5.2), page pinning during MR registration (Fig. 8), and waking a
// sleeping thread. This class charges those costs on the calling thread.
#ifndef SRC_OSS_OS_KERNEL_H_
#define SRC_OSS_OS_KERNEL_H_

#include <atomic>
#include <cstdint>

namespace lt {

namespace telemetry {
class FixedHistogram;
}  // namespace telemetry

// The calibrated OS costs.
inline constexpr uint64_t kUserKernelCrossNs = 85;   // One crossing; optimized RPC pays two.
inline constexpr uint64_t kSyscallOverheadNs = 150;  // Classic trap entry+exit bookkeeping.
inline constexpr uint64_t kPinPageNs = 800;          // get_user_pages per page (registration).
inline constexpr uint64_t kUnpinPageNs = 300;        // Per page on deregistration.
inline constexpr uint64_t kThreadWakeupNs = 1200;    // Condvar/futex wake of a sleeping thread.

class OsKernel {
 public:
  // Full syscall: enter + exit. Used by the naive (unoptimized) paths.
  void Syscall();

  // One user/kernel boundary crossing (half of a syscall's transition cost).
  void CrossUserKernel();

  // A crossing that doubles as a submission-ring doorbell: the same
  // transition cost, but the kernel half will drain a whole batch of ops
  // behind it. Counted in both crossing_count() and batched_crossing_count()
  // so os.crossings stays the total number of boundary transitions.
  void CrossUserKernelBatched();

  // Books the op count of one completed drain batch against the doorbell
  // that paid for it (ops-per-crossing amortization accounting).
  void RecordBatchedCrossing(uint64_t ops);

  // Snapshot-time histogram of drain-batch sizes (os.ops_per_crossing);
  // bound by Node during probe registration.
  void SetOpsPerCrossingHistogram(telemetry::FixedHistogram* hist) {
    ops_per_crossing_hist_ = hist;
  }

  // Memory pinning during MR registration (get_user_pages + IOMMU setup).
  void PinPages(uint64_t pages);
  void UnpinPages(uint64_t pages);

  // Cost of waking a sleeping thread (futex wake + scheduler latency).
  void ChargeThreadWakeup();

  uint64_t syscall_count() const { return syscalls_.load(std::memory_order_relaxed); }
  uint64_t crossing_count() const { return crossings_.load(std::memory_order_relaxed); }
  uint64_t batched_crossing_count() const {
    return batched_crossings_.load(std::memory_order_relaxed);
  }
  uint64_t batched_ops_count() const { return batched_ops_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> syscalls_{0};
  std::atomic<uint64_t> crossings_{0};
  std::atomic<uint64_t> batched_crossings_{0};  // Ring doorbells (subset of crossings_).
  std::atomic<uint64_t> batched_ops_{0};        // Ops amortized over those doorbells.
  telemetry::FixedHistogram* ops_per_crossing_hist_ = nullptr;
};

}  // namespace lt

#endif  // SRC_OSS_OS_KERNEL_H_
