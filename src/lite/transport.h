// Transport — the pluggable connection layer behind the op engine
// (DESIGN.md §10 "Transport virtualization").
//
// Every submission path (blocking memops, async memops, RPC) reaches the
// fabric by leasing an opaque TransportHandle for a destination and posting
// through the QP it names. What a handle maps to is the transport's
// business: the RC implementation (QpManager) keeps the paper's K-QPs-per-
// peer shared pool; the DC implementation (DcTransport) multiplexes a
// bounded node-wide pool of initiator QPs that attach to any destination on
// demand. QP selection policy (QoS bands, per-thread stickiness for
// doorbell batching), error recovery, and DC re-targeting all live behind
// this interface — callers never see a (dst, qp_index) pair.
//
// Contract:
//   * Lease/LeaseSticky return a handle for `dst` (invalid handle when the
//     destination is unknown). A handle stays usable for the lifetime of
//     the op that leased it, including across retries.
//   * Posting protocol: hold Mu(h), call Prepare(h), then PostSend(Qp(h)).
//     Prepare recovers an errored QP and (DC) re-attaches the QP to h.dst
//     if it was stolen for another peer since the lease; it returns true
//     iff an error recovery ran (callers count/journal unsignaled-path
//     recoveries themselves).
//   * Qp(h) is stable for a valid handle; the QP's *connection target* may
//     change between posts (DC), which is why posts must re-Prepare under
//     the mutex every time.
#ifndef SRC_LITE_TRANSPORT_H_
#define SRC_LITE_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/lite/qos.h"
#include "src/lite/types.h"
#include "src/node/node.h"
#include "src/telemetry/journal.h"

namespace lite {

// Modeled host-memory footprint of one QP's state (QPC + driver
// bookkeeping); only used to report per-node QP state in the scale benches.
constexpr uint64_t kQpStateBytes = 1024;

// Opaque lease on one transport-owned QP for one destination. `slot` is an
// index whose meaning is private to the implementation (RC: pool index for
// dst; DC: index into the node-wide shared pool). The pair is also the
// engine's async-stream key, so selective-signaling streams stay per-QP.
struct TransportHandle {
  NodeId dst = kInvalidNode;
  int32_t slot = -1;
  bool valid() const { return slot >= 0; }
};

class Transport {
 public:
  Transport(lt::Node* node, QosManager* qos) : node_(node), qos_(qos) {}
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual lt::LiteTransport mode() const = 0;

  // Builds the transport's QP state. `connect[dst]` flags the peers this
  // node may ever talk to; receives (WriteImm deliveries) go to `recv_cq`.
  // RC wires K QPs per flagged peer (paired by LiteCluster); DC creates the
  // bounded initiator pool plus one target QP and attaches lazily.
  virtual void Setup(const std::vector<bool>& connect, lt::Cq* recv_cq) = 0;

  // QoS-aware handle leases. Lease spreads a thread's ops across the
  // priority band; LeaseSticky pins a (thread, dst) to one QP so pipelined
  // posts share doorbells. Invalid handle when dst has no path.
  virtual TransportHandle Lease(NodeId dst, Priority pri) = 0;
  virtual TransportHandle LeaseSticky(NodeId dst, Priority pri) = 0;

  virtual bool Valid(const TransportHandle& h) const = 0;
  virtual lt::Qp* Qp(const TransportHandle& h) const = 0;
  // Per-slot post mutex (the QP send queue is ordered anyway).
  virtual std::mutex& Mu(const TransportHandle& h) const = 0;

  // Called with Mu(h) held immediately before every PostSend through h:
  // recovers the QP if errored and (DC) re-attaches it to h.dst if another
  // destination stole it. Returns true iff an error recovery ran.
  virtual bool Prepare(const TransportHandle& h) = 0;

  // Resets an errored QP back to RTS (modify_qp ERR->...->RTS; charges
  // kQpReconnectNs) and stamps a kQpRecover journal event whose `b`
  // argument packs the transport mode (b = mode << 32 | qpn; 1=rc, 2=dc).
  // Caller holds the slot mutex covering the QP.
  virtual void RecoverQp(lt::Qp* qp);

  // ---- Introspection ----
  virtual size_t TotalQps() const = 0;
  // Host-memory footprint of this node's QP state (scale-bench reporting).
  uint64_t QpStateBytes() const { return static_cast<uint64_t>(TotalQps()) * kQpStateBytes; }

  // RC-only: direct pool access for cluster pairing / tests. Null elsewhere.
  virtual lt::Qp* PoolQp(NodeId dst, int k) const {
    (void)dst;
    (void)k;
    return nullptr;
  }
  // DC-only: this node's target QPN (what remote initiators attach to) and
  // the resolver initiators use to find a destination's target QPN.
  virtual uint32_t TargetQpn() const { return 0; }
  virtual void SetDctResolver(std::function<uint32_t(NodeId)> resolver) { (void)resolver; }

  // Registers lite.transport.* instruments and caches the shared recovery
  // hooks (called once from LiteInstance::RegisterTelemetry).
  virtual void RegisterTelemetry(lt::telemetry::Registry& reg, lt::telemetry::Counter* reconnects,
                                 lt::telemetry::Journal* journal);

  // Builds the transport selected by SimParams::lite_transport.
  static std::unique_ptr<Transport> Create(lt::Node* node, QosManager* qos);

 protected:
  lt::Node* const node_;
  QosManager* const qos_;
  lt::telemetry::Counter* reconnects_ = nullptr;
  lt::telemetry::Journal* journal_ = nullptr;
};

}  // namespace lite

#endif  // SRC_LITE_TRANSPORT_H_
