#include "src/lite/dc_transport.h"

#include "src/common/timing.h"
#include "src/telemetry/metrics.h"

namespace lite {

void DcTransport::Setup(const std::vector<bool>& connect, lt::Cq* recv_cq) {
  known_peers_ = connect.size();
  slots_ = std::vector<Slot>(kDcQpPool);
  for (Slot& s : slots_) {
    lt::Cq* send_cq = node_->rnic().CreateCq();
    s.qp = node_->rnic().CreateQp(lt::QpType::kDcIni, send_cq, recv_cq);
    s.mu = std::make_unique<std::mutex>();
    s.owner.store(kInvalidNode, std::memory_order_relaxed);
  }
  // The one target QP every remote initiator attaches to: its single QP
  // context serves all senders, and its recv CQ is the instance's shared
  // receive CQ so WriteImm deliveries reach the poll loop unchanged.
  target_ = node_->rnic().CreateQp(lt::QpType::kDcTgt, node_->rnic().CreateCq(), recv_cq);
  affinity_ = std::vector<std::atomic<int32_t>>(known_peers_);
  for (auto& a : affinity_) {
    a.store(-1, std::memory_order_relaxed);
  }
}

TransportHandle DcTransport::Lease(NodeId dst, Priority pri) {
  if (dst >= known_peers_ || dst == node_->id() || slots_.empty()) {
    return TransportHandle{dst, -1};
  }
  const int k = static_cast<int>(slots_.size());
  auto [lo, hi] = qos_->QpRange(pri, k);
  if (hi <= lo) {
    lo = 0;
    hi = k;
  }
  // 1. Affinity hit: the slot that last served this destination.
  int32_t hint = affinity_[dst].load(std::memory_order_relaxed);
  if (hint >= lo && hint < hi &&
      slots_[hint].owner.load(std::memory_order_relaxed) == dst) {
    return TransportHandle{dst, hint};
  }
  // 2. Another slot in the band already attached to dst (affinity raced).
  for (int i = lo; i < hi; ++i) {
    if (slots_[i].owner.load(std::memory_order_relaxed) == dst) {
      affinity_[dst].store(i, std::memory_order_relaxed);
      return TransportHandle{dst, i};
    }
  }
  // 3. Claim a never-attached slot.
  for (int i = lo; i < hi; ++i) {
    NodeId expect = kInvalidNode;
    if (slots_[i].owner.compare_exchange_strong(expect, dst, std::memory_order_relaxed)) {
      affinity_[dst].store(i, std::memory_order_relaxed);
      return TransportHandle{dst, i};
    }
  }
  // 4. Pool exhausted: steal round-robin inside the band. The ownership
  // store here is a policy hint only — the actual re-target happens in
  // Prepare, under the slot mutex, against the QP's connection target.
  int victim = lo + static_cast<int>(steal_rr_.fetch_add(1, std::memory_order_relaxed) %
                                     static_cast<uint32_t>(hi - lo));
  steals_.fetch_add(1, std::memory_order_relaxed);
  if (steals_ctr_ != nullptr) {
    steals_ctr_->Inc();
  }
  slots_[victim].owner.store(dst, std::memory_order_relaxed);
  affinity_[dst].store(victim, std::memory_order_relaxed);
  return TransportHandle{dst, victim};
}

bool DcTransport::Prepare(const TransportHandle& h) {
  Slot& s = slots_[h.slot];
  bool recovered = false;
  if (s.qp->in_error()) {
    RecoverQp(s.qp);
    recovered = true;
  }
  if (s.qp->remote_node() != h.dst) {
    Attach(s, h.dst);
  }
  return recovered;
}

void DcTransport::Attach(Slot& slot, NodeId dst) {
  if (slot.qp->connected()) {
    detaches_.fetch_add(1, std::memory_order_relaxed);
    if (detaches_ctr_ != nullptr) {
      detaches_ctr_->Inc();
    }
  }
  // The µs-scale DC attach: resolve the destination's target QPN and
  // re-target the initiator (real hardware: a new DC stream handshake).
  const uint32_t dct_qpn = dct_resolver_ ? dct_resolver_(dst) : 0;
  lt::SpinFor(kDcConnectNs);
  slot.qp->Connect(dst, dct_qpn);
  slot.owner.store(dst, std::memory_order_relaxed);
  attaches_.fetch_add(1, std::memory_order_relaxed);
  if (attaches_ctr_ != nullptr) {
    attaches_ctr_->Inc();
  }
  if (connect_hist_ != nullptr) {
    connect_hist_->Record(kDcConnectNs);
  }
}

void DcTransport::RegisterTelemetry(lt::telemetry::Registry& reg,
                                    lt::telemetry::Counter* reconnects,
                                    lt::telemetry::Journal* journal) {
  Transport::RegisterTelemetry(reg, reconnects, journal);
  attaches_ctr_ = reg.GetCounter("lite.transport.attaches");
  detaches_ctr_ = reg.GetCounter("lite.transport.detaches");
  steals_ctr_ = reg.GetCounter("lite.transport.steals");
  connect_hist_ = reg.GetHistogram("lite.transport.connect_ns");
}

}  // namespace lite
