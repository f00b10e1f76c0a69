// SimParams: what a run of the simulated substrate may vary — pool and cache
// sizes, the fabric's line rate, and LITE's policies (transport, rings,
// timeouts, retries). The calibrated per-event costs nothing varies are
// named constants beside their users instead: the RNIC's engine costs in
// src/rnic/rnic.h, the wire hop in src/fabric/fabric.h, the OS crossings in
// src/oss/os_kernel.h, MR registration in src/verbs/verbs.h, LITE's software
// costs in src/lite/types.h, the TCP stack in src/tcpip/tcp_stack.h, and the
// same-node copy below. Unit tests and paper figures run this one model.
//
// The defaults are calibrated so the microbenchmark *shapes and magnitudes*
// match the paper's testbed (40 Gbps ConnectX-3, Xeon E5-2620, Linux 3.11):
//   - native Verbs 64 B write RTT ~= 1.3 us (paper Fig. 6)
//   - RNIC MR-key (MPT) cache holds ~128 entries: latency cliff past ~100 MRs
//     (paper Fig. 4)
//   - RNIC PTE (MTT) cache covers ~4 MB: throughput cliff past 4 MB MR size
//     (paper Fig. 5)
//   - user/kernel crossings 0.17 us for the optimized two-crossing RPC path
//     (paper Sec. 5.2/5.3)
//   - MR registration dominated by per-page pinning (paper Fig. 8)
//   - TCP-over-IB (IPoIB) ~25 us latency / <= ~1.8 GB/s (paper Figs. 6, 7)
//
// All times in nanoseconds, sizes in bytes.
#ifndef SRC_SIM_PARAMS_H_
#define SRC_SIM_PARAMS_H_

#include <cstddef>
#include <cstdint>

namespace lt {

// A same-node memcpy (LITE's local fast path and the baselines' buffer
// copies): a fixed cost plus the copy at memcpy bandwidth.
inline constexpr uint64_t kLocalOpBaseNs = 60;
inline constexpr double kLocalCopyBytesPerNs = 12.0;

// Virtual cost of a same-node memcpy of `bytes`.
inline uint64_t LocalCopyNs(uint64_t bytes) {
  return kLocalOpBaseNs + static_cast<uint64_t>(static_cast<double>(bytes) / kLocalCopyBytesPerNs);
}

// Connection-layer flavor (DESIGN.md §10 "Transport virtualization").
enum class LiteTransport { kRc, kDc };

struct SimParams {
  // ---- Memory / paging ----
  size_t node_phys_mem_bytes = 32ull << 20;  // Physical memory pool per node.

  // ---- Fabric ----
  double nic_line_rate_bytes_per_ns = 4.6; // ~40 Gbps minus framing overhead.

  // ---- RNIC on-chip SRAM (the scalability bottleneck the paper attacks) ----
  size_t mpt_cache_entries = 128;    // MR protection-table entries cached.
  uint64_t mpt_miss_ns = 950;        // Fetch MPT entry from host memory.
  size_t mtt_cache_pages = 1024;     // Cached PTEs: 1024 * 4 KB = 4 MB coverage.
  uint64_t mtt_miss_ns = 700;        // Fetch one PTE from host memory.
  // Responder-side QPC modeling: when on, the remote NIC also touches a QPC
  // entry per incoming request (keyed by the sender's QP), so an incast
  // server with many distinct RC peers thrashes its QPC cache while a DC
  // target stays a single always-hot entry. Kept off by default because it
  // moves paper figures: cold responder-QPC misses add 1 ns to fig06's 8 B
  // row and to fig04's Verbs column.
  bool rnic_model_responder_qpc = false;

  // ---- LITE software stack ----
  size_t lite_max_chunk_bytes = 4ull << 20;  // Physically-consecutive chunk cap.
  size_t lite_rpc_ring_bytes = 1ull << 20;   // Per-(client,function) server ring
                                             // (paper used 16 MB; scaled to the
                                             // smaller simulated memory pools).
  uint64_t lite_rpc_timeout_ns = 2'000'000'000;  // RPC failure-detection timeout.
  // Failure recovery (see DESIGN.md "Failure model & recovery").
  uint32_t lite_rpc_max_retries = 3;        // Transparent retransmits per call.
  uint64_t lite_rpc_retry_backoff_ns = 200'000;  // First retry backoff; doubles.
  // Liveness: keepalive cadence (real time; 0 disables the service) and the
  // manager-side lease (0 means 5x the keepalive interval).
  uint64_t lite_keepalive_interval_ns = 0;
  uint64_t lite_lease_timeout_ns = 0;
  int lite_qp_sharing_factor = 2;     // K in "K x N QPs per node" (Sec. 6.1).
  // ---- Transport virtualization (DESIGN.md §10) ----
  // kRc: the paper's shared RC pool — K dedicated QPs per connected peer,
  // eagerly wired at cluster setup (QP state grows O(n) per node).
  // kDc: a DC-style virtualized transport — a bounded node-wide pool of
  // lite_dc_qp_pool initiator QPs that attach to any destination on demand,
  // paying lite_dc_connect_ns when a QP re-targets a different peer
  // (amortized by per-destination affinity). QP state is O(pool), not O(n).
  LiteTransport lite_transport = LiteTransport::kRc;
  int lite_dc_qp_pool = 32;            // DC initiator QPs per node (bounded).
  uint64_t lite_dc_connect_ns = 900;   // DC re-target (attach) cost, host side.
  // Async memop fast path (LT_read_async/LT_write_async).
  size_t lite_async_window = 64;      // Per-instance in-flight memop cap.
  size_t lite_reply_slots = 256;      // Concurrent outstanding RPCs per node.
  size_t lite_reply_slot_bytes = 16384;  // Max RPC reply size per slot.
  // Per-CPU submission/completion rings (DESIGN.md §9). With rings on, a
  // user-level client enqueues op descriptors into a shared-memory per-CPU
  // ring (the enqueue is a cache-line write — below this model's ns
  // granularity, so it charges nothing) and pays the user->kernel crossing
  // only as a doorbell when the kernel-half drainer has gone cold. The
  // drainer is considered hot for lite::kAdaptiveSpinNs after its last
  // activity (it adaptively spins that long before sleeping); deferred async
  // submissions flush at lite_ring_doorbell_batch entries, at
  // lite_ring_flush_ns age, at lite_ring_entries occupancy (overflow
  // backpressure), or when a sync op / reap needs them ordered-in.
  bool lite_ring_enable = false;       // Rings off: every path byte-identical.
  uint32_t lite_ring_cpus = 4;         // Submission/completion ring pairs.
  uint32_t lite_ring_entries = 256;    // Ring capacity (overflow backpressure).
  uint32_t lite_ring_doorbell_batch = 16;  // Deferred entries per flush.
  uint64_t lite_ring_flush_ns = 2'000;     // Max deferred age before flush.
};

}  // namespace lt

#endif  // SRC_SIM_PARAMS_H_
