#include "src/fabric/fabric.h"

#include <algorithm>
#include <cassert>

#include "src/common/timing.h"

namespace lt {

uint64_t FabricPort::Reserve(uint64_t earliest_ns, uint64_t bytes, uint64_t* queue_ns_out) {
  const uint64_t ser_ns =
      static_cast<uint64_t>(static_cast<double>(bytes) / kNicLineRateBytesPerNs);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  const uint64_t finish = capacity_.Reserve(earliest_ns, ser_ns);
  reservations_.fetch_add(1, std::memory_order_relaxed);
  // Anything beyond the uncontended finish time is queueing behind earlier
  // reservations on this port.
  const uint64_t uncontended = earliest_ns + ser_ns;
  if (finish > uncontended) {
    queue_delay_ns_.fetch_add(finish - uncontended, std::memory_order_relaxed);
    if (queue_ns_out != nullptr) {
      *queue_ns_out += finish - uncontended;
    }
  }
  return finish;
}

FabricPort* Fabric::Attach(NodeId node) {
  std::lock_guard<SpinLock> lock(attach_mu_);
  assert(node == ports_.size() && "nodes must attach in id order");
  ports_.push_back(std::make_unique<FabricPort>(this, node));
  faults_.EnsureNodes(ports_.size());
  return ports_.back().get();
}

uint64_t Fabric::TransferFinishNs(NodeId src, NodeId dst, uint64_t bytes, uint64_t earliest_ns,
                                  TransferFaults* faults_out, uint64_t* queue_ns_out) {
  // Fault decision first: dropped transfers consume no port bandwidth (the
  // frame died somewhere in the switch, not at a saturated endpoint).
  uint64_t injected_delay_ns = 0;
  if (faults_.armed()) {
    injected_delay_ns = faults_.OnTransfer(src, dst, earliest_ns, faults_out);
    if (injected_delay_ns == FaultEngine::kDropTransfer) {
      return kDropped;
    }
  }

  uint64_t finish = earliest_ns;
  if (src != dst) {
    // Serialize on the sender's TX then the receiver's RX (store-and-forward
    // through one switch hop collapses to the max of the two for same-rate
    // ports; reserving sequentially models cut-through with port contention).
    finish = ports_[src]->Reserve(earliest_ns, bytes, queue_ns_out);
    finish = ports_[dst]->Reserve(finish, bytes, queue_ns_out);
    finish += kWireLatencyNs;
  }
  finish += injected_delay_ns;
  return finish;
}

}  // namespace lt
