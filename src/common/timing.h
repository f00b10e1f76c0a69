// Virtual time.
//
// Every simulated cost in this reproduction is charged to a per-thread
// *virtual clock* instead of being realized by real spinning. This makes the
// simulation independent of host core count and real scheduler behaviour:
// contention on shared resources (NIC engines, fabric ports) is modeled by
// virtual-time reservations, and threads that wait for each other synchronize
// their virtual clocks to the event's virtual timestamp when the (real,
// condvar-based) wait completes.
//
//   NowNs()        current thread's virtual time
//   SpinFor(ns)    charge busy work: virtual time += ns, virtual CPU += ns
//   IdleFor(ns)    charge idle wait: virtual time += ns, no CPU
//   SyncToBusy(t), SyncToAdaptive(t, budget), SyncClockTo(t)
//                  jump virtual time forward to t (never backward), with the
//                  CPU cost of how the thread "waited": busy-polling burns
//                  CPU for the whole gap, LITE's adaptive wait burns up to
//                  its spin budget (paper Sec. 5.2), sleeping burns none.
//   ThreadCpuNs()  virtual CPU consumed by this thread
//
// A thread's clock starts at the virtual time of whatever event it first
// synchronizes with (or 0). Benchmarks sync all worker clocks at a start
// barrier and measure virtual-time deltas.
//
// RealNowNs() exposes the host monotonic clock for safety-net timeouts only.
#ifndef SRC_COMMON_TIMING_H_
#define SRC_COMMON_TIMING_H_

#include <cstdint>

namespace lt {

// Current thread's virtual time (ns).
uint64_t NowNs();

// Virtual CPU time consumed by this thread (ns).
uint64_t ThreadCpuNs();

// Charge `ns` of busy (CPU-consuming) virtual work.
void SpinFor(uint64_t ns);

// Charge `ns` of idle (non-CPU) virtual waiting.
void IdleFor(uint64_t ns);

// Charge CPU without advancing the clock (spinning that overlapped a wait
// the clock already accounts for).
void ChargeCpu(uint64_t ns);

// Jump this thread's virtual clock to at least `t`, burning CPU for the whole
// gap (a busy-polling wait).
void SyncToBusy(uint64_t t);

// Jump to at least `t`, burning CPU for at most `spin_budget_ns` of the gap
// (spin-then-sleep adaptive wait).
void SyncToAdaptive(uint64_t t, uint64_t spin_budget_ns);

// Jump to at least `t` without CPU cost: a blocking/sleeping wait, or a
// start barrier. Never rewinds.
void SyncClockTo(uint64_t t);

// Service threads only: set the clock EXACTLY (rewind allowed). A service
// thread acts on behalf of many independent requests; each request must be
// served on its own timeline, not after the latest timestamp the thread
// happened to observe first (see ServiceTimeline).
void SetServiceClock(uint64_t t);

// Host monotonic clock; use only for deadlock-safety timeouts.
uint64_t RealNowNs();

// Bridges real computation into virtual time: measures the calling thread's
// actual CPU time (CLOCK_THREAD_CPUTIME_ID) over the scope and charges it as
// busy virtual work. Wrap application compute (hashing, PageRank math) in
// this so application benchmarks reflect compute, not just modeled network.
// Per-thread CPU clocks stay honest regardless of host core contention.
class ComputeScope {
 public:
  ComputeScope();
  ~ComputeScope();

  ComputeScope(const ComputeScope&) = delete;
  ComputeScope& operator=(const ComputeScope&) = delete;

 private:
  uint64_t start_real_cpu_ns_;
};

}  // namespace lt

#endif  // SRC_COMMON_TIMING_H_
