// SimParams: the calibrated costs of the simulated substrate, in one place.
// Calibration values nothing varies are named constants beside their users
// instead (kRnicInlineMax in src/rnic/rnic.h, kTcpRateBytesPerNs in
// src/tcpip/tcp_stack.h, lite::kAdaptiveSpinNs in src/lite/types.h, ...).
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

// Same-node memcpy bandwidth (SimParams::LocalCopyNs).
inline constexpr double kLocalCopyBytesPerNs = 12.0;

// Connection-layer flavor (DESIGN.md §10 "Transport virtualization").
enum class LiteTransport { kRc, kDc };

struct SimParams {
  // ---- Memory / paging ----
  size_t node_phys_mem_bytes = 96ull << 20;  // Physical memory pool per node.

  // ---- Fabric (per-hop wire + switch) ----
  uint64_t wire_latency_ns = 300;          // Propagation + one switch hop, one way.
  double nic_line_rate_bytes_per_ns = 4.6; // ~40 Gbps minus framing overhead.

  // ---- RNIC engine costs ----
  uint64_t rnic_post_ns = 200;       // WQE build + doorbell (host side).
  uint64_t rnic_process_ns = 150;    // NIC packet processing, per side.
  uint64_t rnic_completion_ns = 120; // CQE generation + host poll cost.
  uint64_t rnic_ack_ns = 250;        // RC ACK turn-around at the responder NIC.
  uint64_t rnic_atomic_extra_ns = 300;  // PCIe read-modify-write for atomics.
  // Doorbell batching: a post that lands on the same QP within
  // kRnicDoorbellWindowNs (src/rnic/rnic.h) of the previous one (and opted
  // in via WorkRequest::doorbell_hint) rides the same doorbell and pays only
  // the per-extra-WQE increment instead of the full rnic_post_ns.
  uint64_t rnic_post_wqe_ns = 40;        // Per-extra-WQE cost inside a batch.
  // Inline sends: writes with payload <= kRnicInlineMax (and opted in via
  // WorkRequest::inline_data) carry the payload in the WQE itself, skipping
  // the local DMA-read stage — the local NIC engine only pays
  // rnic_inline_process_ns per WQE instead of rnic_process_ns.
  uint64_t rnic_inline_process_ns = 60;

  // ---- RNIC on-chip SRAM (the scalability bottleneck the paper attacks) ----
  size_t mpt_cache_entries = 128;    // MR protection-table entries cached.
  uint64_t mpt_miss_ns = 950;        // Fetch MPT entry from host memory.
  size_t mtt_cache_pages = 1024;     // Cached PTEs: 1024 * 4 KB = 4 MB coverage.
  uint64_t mtt_miss_ns = 700;        // Fetch one PTE from host memory.
  uint64_t qpc_miss_ns = 500;        // Fetch QP context from host memory.
  // Responder-side QPC modeling: when on, the remote NIC also touches a QPC
  // entry per incoming request (keyed by the sender's QP), so an incast
  // server with many distinct RC peers thrashes its QPC cache while a DC
  // target stays a single always-hot entry. Kept off by default because it
  // moves paper figures: cold responder-QPC misses add 1 ns to fig06's 8 B
  // row and to fig04's Verbs column.
  bool rnic_model_responder_qpc = false;

  // ---- OS / kernel costs ----
  uint64_t user_kernel_cross_ns = 85;   // One crossing; optimized RPC pays two.
  uint64_t syscall_overhead_ns = 150;   // Classic trap entry+exit bookkeeping.
  uint64_t pin_page_ns = 800;           // get_user_pages per page (registration).
  uint64_t unpin_page_ns = 300;         // Per page on deregistration.
  uint64_t mr_register_base_ns = 2500;  // Fixed driver/firmware cost per MR.
  uint64_t mr_deregister_base_ns = 1800;
  uint64_t thread_wakeup_ns = 1200;     // Condvar/futex wake of a sleeping thread.

  // ---- LITE software stack ----
  uint64_t lite_map_check_ns = 90;    // lh lookup + permission check + addr map.
  uint64_t lite_rpc_dispatch_ns = 180;  // Poll-thread IMM decode + hand-off.
  uint64_t lite_malloc_local_ns = 1500;  // Local LMR allocation bookkeeping.
  size_t lite_max_chunk_bytes = 4ull << 20;  // Physically-consecutive chunk cap.
  size_t lite_rpc_ring_bytes = 1ull << 20;   // Per-(client,function) server ring
                                             // (paper used 16 MB; scaled to the
                                             // smaller simulated memory pools).
  uint64_t lite_rpc_timeout_ns = 2'000'000'000;  // RPC failure-detection timeout.
  // Failure recovery (see DESIGN.md "Failure model & recovery").
  uint32_t lite_rpc_max_retries = 3;        // Transparent retransmits per call.
  uint64_t lite_rpc_retry_backoff_ns = 200'000;  // First retry backoff; doubles.
  uint64_t lite_qp_reconnect_ns = 25'000;   // modify_qp ERR->RESET->...->RTS.
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
  uint64_t local_op_base_ns = 60;         // Fixed cost of a same-node copy.

  // ---- TCP/IP over IB (IPoIB) ----
  uint64_t tcp_send_stack_ns = 9000;   // Socket + TCP/IP + IPoIB tx path.
  uint64_t tcp_recv_stack_ns = 9000;   // rx path incl. interrupt + copy.

  // Virtual cost of a same-node memcpy of `bytes` (LITE's local fast path
  // and the baselines' buffer copies).
  uint64_t LocalCopyNs(uint64_t bytes) const {
    return local_op_base_ns +
           static_cast<uint64_t>(static_cast<double>(bytes) / kLocalCopyBytesPerNs);
  }

  // Scaled-down parameter set for unit tests: tiny delays so tests run fast,
  // but all mechanisms (caches, rings, crossings) still exercised.
  static SimParams FastForTests();
};

}  // namespace lt

#endif  // SRC_SIM_PARAMS_H_
