// Send/recv-based RPC with size-classed receive queues (paper Fig. 12).
//
// Two-sided SEND requires the receiver to pre-post buffers big enough for
// the largest possible message; the standard mitigation (Shipman et al.,
// cited by the paper) posts buffers of different sizes on different RQs and
// lets the sender pick the most space-efficient one. This class implements
// that design and tracks buffer-byte consumption versus useful payload bytes
// so the memory-utilization comparison against LITE's rings can be
// regenerated.
#ifndef SRC_BASELINES_SENDRECV_RPC_H_
#define SRC_BASELINES_SENDRECV_RPC_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/baselines/base_util.h"
#include "src/common/cpu_meter.h"

namespace liteapp {

class SendRecvRpcServer;

class SendRecvRpcClient {
 public:
  Status Call(const void* in, uint32_t in_len, void* out, uint32_t out_max, uint32_t* out_len);

 private:
  friend class SendRecvRpcServer;
  SendRecvRpcClient() = default;

  SendRecvRpcServer* server_ = nullptr;
  Process* proc_ = nullptr;
  size_t port_ = 0;
  RegisteredBuf send_buf_;
  RegisteredBuf recv_buf_;
  std::vector<lt::Qp*> class_qps_;  // One QP per size class.
  lt::Qp* reply_qp_ = nullptr;
  lt::Cq* reply_cq_ = nullptr;
  std::mutex mu_;
};

class SendRecvRpcServer {
 public:
  // `class_sizes` must be ascending; the largest bounds the message size.
  SendRecvRpcServer(lt::Cluster* cluster, NodeId node, std::vector<uint32_t> class_sizes,
                    size_t buffers_per_class, RpcHandler handler);
  ~SendRecvRpcServer();

  StatusOr<SendRecvRpcClient*> AttachClient(NodeId client_node);

  void Start();
  void Stop();

  // Fig. 12 accounting.
  uint64_t consumed_buffer_bytes() const { return consumed_.load(); }
  uint64_t payload_bytes() const { return payload_.load(); }

 private:
  friend class SendRecvRpcClient;

  struct Port {
    std::unique_ptr<SendRecvRpcClient> client;
    NodeId client_node = lt::kInvalidNode;
    std::vector<lt::Qp*> class_qps_server;  // Server end, indexed by class.
    lt::Qp* reply_qp_server = nullptr;
    RegisteredBuf resp_staging;
  };

  void ServerLoop();
  void PostClassRecv(size_t port, size_t cls, size_t slot);

  lt::Cluster* const cluster_;
  const NodeId node_;
  const std::vector<uint32_t> class_sizes_;
  const size_t buffers_per_class_;
  const RpcHandler handler_;
  Process* proc_ = nullptr;
  lt::Cq* recv_cq_ = nullptr;

  std::vector<std::unique_ptr<Port>> ports_;
  // recv_bufs_[port][cls][slot]
  std::vector<std::vector<std::vector<RegisteredBuf>>> recv_bufs_;

  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> consumed_{0};
  std::atomic<uint64_t> payload_{0};
};

}  // namespace liteapp

#endif  // SRC_BASELINES_SENDRECV_RPC_H_
