// DcTransport — the DC-style virtualized implementation of Transport
// (DESIGN.md §10): a bounded node-wide pool of kDcQpPool initiator QPs
// that attach to any destination on demand, plus one target QP (the DCT)
// every remote initiator addresses. Attaching an initiator to a new peer
// charges kDcConnectNs (the µs-scale re-target of real DC hardware);
// per-destination affinity keeps hot peers attached so steady
// traffic pays it once. QP state is O(pool) instead of O(peers), and the
// responder side of every node is a single QP context — the two properties
// that let the fig14 sweep reach 1000 nodes with a warm QPC cache.
#ifndef SRC_LITE_DC_TRANSPORT_H_
#define SRC_LITE_DC_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/lite/transport.h"

namespace lite {

inline constexpr size_t kDcQpPool = 32;        // DC initiator QPs per node (bounded).
inline constexpr uint64_t kDcConnectNs = 900;  // DC re-target (attach) cost, host side.

class DcTransport : public Transport {
 public:
  DcTransport(lt::Node* node, QosManager* qos) : Transport(node, qos) {}

  lt::LiteTransport mode() const override { return lt::LiteTransport::kDc; }

  void Setup(const std::vector<bool>& connect, lt::Cq* recv_cq) override;

  // DC leasing is affinity-first (a destination's last slot), then any
  // unowned slot, then a round-robin steal inside the QoS band. Sticky and
  // plain leases share the policy: affinity already pins (dst -> slot), so
  // consecutive posts to a hot peer land on one QP and batch doorbells.
  TransportHandle Lease(NodeId dst, Priority pri) override;
  TransportHandle LeaseSticky(NodeId dst, Priority pri) override { return Lease(dst, pri); }

  bool Valid(const TransportHandle& h) const override {
    return h.slot >= 0 && h.slot < static_cast<int32_t>(slots_.size()) &&
           h.dst < known_peers_ && h.dst != node_->id();
  }
  lt::Qp* Qp(const TransportHandle& h) const override { return slots_[h.slot].qp; }
  std::mutex& Mu(const TransportHandle& h) const override { return *slots_[h.slot].mu; }

  // DC prepare: recover an errored QP, then re-attach it to h.dst if the
  // slot was stolen for another peer since this handle's lease (the steal
  // is detected from the QP's connection target — ground truth under the
  // slot mutex). Returns true iff an error recovery ran.
  bool Prepare(const TransportHandle& h) override;

  size_t TotalQps() const override { return slots_.size() + (target_ != nullptr ? 1 : 0); }

  uint32_t TargetQpn() const override { return target_ != nullptr ? target_->qpn() : 0; }
  void SetDctResolver(std::function<uint32_t(NodeId)> resolver) override {
    dct_resolver_ = std::move(resolver);
  }

  void RegisterTelemetry(lt::telemetry::Registry& reg, lt::telemetry::Counter* reconnects,
                         lt::telemetry::Journal* journal) override;

  // Introspection for tests/benches.
  uint64_t attaches() const { return attaches_.load(std::memory_order_relaxed); }
  uint64_t detaches() const { return detaches_.load(std::memory_order_relaxed); }
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    lt::Qp* qp = nullptr;                   // kDcIni; own send CQ.
    std::unique_ptr<std::mutex> mu;         // Serializes posts + re-targets.
    // Affinity bookkeeping only (policy hint for Lease); the QP's own
    // connection target is the source of truth for Prepare.
    std::atomic<NodeId> owner{kInvalidNode};
  };

  // Attaches `slot`'s QP to `dst` (Connect + kDcConnectNs charge +
  // attach/detach accounting). Caller holds the slot mutex.
  void Attach(Slot& slot, NodeId dst);

  std::vector<Slot> slots_;
  lt::Qp* target_ = nullptr;  // This node's DCT (recv side).
  size_t known_peers_ = 0;    // connect.size() at Setup.

  // Last slot that served each destination (lock-free hint).
  std::vector<std::atomic<int32_t>> affinity_;
  std::atomic<uint32_t> steal_rr_{0};

  std::function<uint32_t(NodeId)> dct_resolver_;

  std::atomic<uint64_t> attaches_{0};
  std::atomic<uint64_t> detaches_{0};
  std::atomic<uint64_t> steals_{0};
  lt::telemetry::Counter* attaches_ctr_ = nullptr;
  lt::telemetry::Counter* detaches_ctr_ = nullptr;
  lt::telemetry::Counter* steals_ctr_ = nullptr;
  lt::telemetry::FixedHistogram* connect_hist_ = nullptr;
};

}  // namespace lite

#endif  // SRC_LITE_DC_TRANSPORT_H_
