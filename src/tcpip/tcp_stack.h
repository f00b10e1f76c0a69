// IPoIB-style TCP/IP stack over the simulated fabric.
//
// This is the "slow path" every comparator system in the paper that does not
// use native RDMA runs on (qperf TCP lines in Figs. 6-7, Hadoop, PowerGraph).
// Costs: a full socket+TCP/IP+IPoIB traversal per message on each side, plus
// a lower effective bandwidth cap than the RDMA path. Streaming senders
// (bulk transfers) amortize the per-call cost over large chunks, which is how
// qperf's non-blocking bandwidth test can beat *blocking* small RDMA ops
// (paper Sec. 4.2 observation).
#ifndef SRC_TCPIP_TCP_STACK_H_
#define SRC_TCPIP_TCP_STACK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync_util.h"
#include "src/fabric/fabric.h"
#include "src/mem/addr.h"

namespace lt {

inline constexpr double kTcpRateBytesPerNs = 1.7;  // ~13.6 Gb/s effective, per paper Fig. 7.
inline constexpr uint64_t kTcpSendStackNs = 9000;  // Socket + TCP/IP + IPoIB tx path.
inline constexpr uint64_t kTcpRecvStackNs = 9000;  // rx path incl. interrupt + copy.

class TcpStack;

class TcpConn {
 public:
  // Message-oriented send: charges the full per-message stack cost.
  Status Send(const void* buf, size_t len);

  // Streaming send for bulk transfers: per-call cost amortized per MTU-sized
  // chunk (models segmentation offload + large writes).
  Status StreamSend(const void* buf, size_t len);

  // Receives exactly `len` bytes (blocking), charging the receive-side stack
  // cost per delivered segment.
  Status RecvExact(void* buf, size_t len, uint64_t timeout_ns = 10'000'000'000);

  NodeId remote_node() const { return remote_node_; }

 private:
  friend class TcpStack;

  struct Segment {
    std::vector<uint8_t> data;
    uint64_t ready_at_ns = 0;
  };

  TcpConn(TcpStack* stack, NodeId local, NodeId remote)
      : stack_(stack), local_node_(local), remote_node_(remote) {}

  Status SendInternal(const void* buf, size_t len, bool streaming);
  void Deliver(Segment segment);

  TcpStack* const stack_;
  const NodeId local_node_;
  const NodeId remote_node_;
  TcpConn* peer_ = nullptr;

  BlockingQueue<Segment> inbox_;
  std::vector<uint8_t> pending_;  // Partially-consumed segment bytes.
  uint64_t pending_ready_at_ = 0;
};

class TcpStack {
 public:
  TcpStack(NodeId node, Fabric* fabric) : node_(node), fabric_(fabric) {}

  NodeId node() const { return node_; }
  Fabric* fabric() const { return fabric_; }

  // Creates a connected socket pair between two stacks (the cluster-level
  // "dial by node id" shortcut; there is no name service to model).
  static std::pair<std::unique_ptr<TcpConn>, std::unique_ptr<TcpConn>> ConnectPair(
      TcpStack* a, TcpStack* b);

  // Reserves TCP-path bandwidth; returns the finish time.
  uint64_t ReserveRate(uint64_t earliest_ns, uint64_t bytes);

 private:
  const NodeId node_;
  Fabric* const fabric_;
  RateWindow rate_capacity_;
};

}  // namespace lt

#endif  // SRC_TCPIP_TCP_STACK_H_
