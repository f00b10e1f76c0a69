// The switched fabric connecting simulated nodes.
//
// Each node attaches one Port (its NIC's link). Bandwidth contention is
// modeled with a per-port virtual "next free time": a transfer reserves
// serialization time on both the sender's TX and receiver's RX port, so
// concurrent flows through one port share its line rate — which is what
// produces the paper's multi-thread throughput saturation (Fig. 7) and the
// QoS interference effects (Figs. 15, 16).
//
// The fabric also hosts the fault-injection engine (src/faults): per-link
// drop/duplicate/delay rules, partitions, and node crash windows.
#ifndef SRC_FABRIC_FABRIC_H_
#define SRC_FABRIC_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rate_window.h"
#include "src/common/sync_util.h"
#include "src/faults/faults.h"
#include "src/mem/addr.h"

namespace lt {

// Propagation plus one switch hop, one way.
inline constexpr uint64_t kWireLatencyNs = 300;
// Port line rate: the paper's 40 Gbps ConnectX-3 minus framing overhead.
inline constexpr double kNicLineRateBytesPerNs = 4.6;

class Fabric;

class FabricPort {
 public:
  FabricPort(Fabric* fabric, NodeId node) : fabric_(fabric), node_(node) {}

  NodeId node() const { return node_; }
  Fabric* fabric() const { return fabric_; }

  // Reserves `bytes` of serialization time on this port starting no earlier
  // than `earliest_ns`; returns the finish time of the transfer on this port.
  // When `queue_ns_out` is non-null, adds this reservation's queueing delay
  // (time spent behind earlier reservations, beyond the uncontended finish)
  // to it — the per-transfer form of queue_delay_total_ns().
  uint64_t Reserve(uint64_t earliest_ns, uint64_t bytes, uint64_t* queue_ns_out = nullptr);

  // Total bytes that have crossed this port (tx+rx combined bookkeeping is
  // done by the fabric; this counts reservations made on this port).
  uint64_t bytes_transferred() const { return bytes_.load(std::memory_order_relaxed); }

  // Contention accounting: reservations made on this port, and the summed
  // virtual time transfers spent queued behind earlier reservations (finish
  // minus uncontended finish). queue_delay / reservations = mean per-transfer
  // queueing delay — the observable form of Fig. 7's saturation.
  uint64_t reservation_count() const { return reservations_.load(std::memory_order_relaxed); }
  uint64_t queue_delay_total_ns() const {
    return queue_delay_ns_.load(std::memory_order_relaxed);
  }

 private:
  friend class Fabric;
  Fabric* const fabric_;
  const NodeId node_;
  RateWindow capacity_;  // Windowed so virtual-time backfill works.
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> reservations_{0};
  std::atomic<uint64_t> queue_delay_ns_{0};
};

class Fabric {
 public:
  // Attaches a port for `node`; node ids must be attached in order 0..N-1.
  FabricPort* Attach(NodeId node);

  FabricPort* port(NodeId node) { return ports_[node].get(); }
  size_t node_count() const { return ports_.size(); }

  // Reserves a one-way transfer of `bytes` from src to dst starting no
  // earlier than `earliest_ns` (virtual time), accounting for wire latency
  // and bandwidth contention on both endpoints' ports. Returns the ABSOLUTE
  // virtual finish time (>= earliest_ns), or kDropped under fault injection.
  // Absolute-time plumbing is essential: service threads whose own clocks
  // lag (queue drainers) must not convert through "now". When `faults_out`
  // is non-null it reports duplicate-delivery decisions (the RNIC uses this
  // to deliver a second copy of a write-imm). When `queue_ns_out` is
  // non-null, adds the transfer's total port queueing delay (TX + RX) to it,
  // letting callers split a transfer's duration into wire vs. port-queue
  // time (latency attribution).
  uint64_t TransferFinishNs(NodeId src, NodeId dst, uint64_t bytes, uint64_t earliest_ns,
                            TransferFaults* faults_out = nullptr,
                            uint64_t* queue_ns_out = nullptr);

  // The fault-injection engine: per-link rules, partitions, crash windows.
  FaultEngine& faults() { return faults_; }

  static constexpr uint64_t kDropped = ~0ull;

 private:
  std::vector<std::unique_ptr<FabricPort>> ports_;
  SpinLock attach_mu_;
  FaultEngine faults_;
};

}  // namespace lt

#endif  // SRC_FABRIC_FABRIC_H_
