#include "src/lite/transport.h"

#include "src/common/timing.h"
#include "src/lite/dc_transport.h"
#include "src/lite/qp_manager.h"

namespace lite {

void Transport::RecoverQp(lt::Qp* qp) {
  // Models the driver's modify_qp cycle ERR -> RESET -> INIT -> RTR -> RTS
  // after a transport error (caller holds the QP's slot mutex).
  lt::SpinFor(kQpReconnectNs);
  qp->ResetToRts();
  if (reconnects_ != nullptr) {
    reconnects_->Inc();
  }
  if (journal_ != nullptr) {
    const uint64_t mode_tag = mode() == lt::LiteTransport::kRc ? 1 : 2;
    journal_->Record(lt::telemetry::JournalEvent::kQpRecover, qp->remote_node(),
                     (mode_tag << 32) | qp->qpn());
  }
}

void Transport::RegisterTelemetry(lt::telemetry::Registry& reg, lt::telemetry::Counter* reconnects,
                                  lt::telemetry::Journal* journal) {
  reconnects_ = reconnects;
  journal_ = journal;
  // QPC occupancy of this node's RNIC: how many QP contexts are resident
  // on-NIC. RC at scale fills this O(peers); DC holds it at O(pool).
  lt::Rnic* rnic = &node_->rnic();
  reg.RegisterProbe("lite.transport.qpc_occupancy",
                    [rnic] { return static_cast<uint64_t>(rnic->qpc_cache().size()); });
}

std::unique_ptr<Transport> Transport::Create(lt::Node* node, QosManager* qos) {
  if (node->params().lite_transport == lt::LiteTransport::kDc) {
    return std::make_unique<DcTransport>(node, qos);
  }
  return std::make_unique<QpManager>(node, qos);
}

}  // namespace lite
