#include "src/baselines/sendrecv_rpc.h"

#include <algorithm>
#include <cstring>

#include "src/common/timing.h"

namespace liteapp {
namespace {

constexpr uint64_t kCallTimeoutNs = 2'000'000'000;
constexpr uint64_t kServerIdleWaitNs = 50'000'000;

// wr_id encoding for server receive buffers.
uint64_t SlotId(size_t port, size_t cls, size_t slot) {
  return (static_cast<uint64_t>(port) << 32) | (static_cast<uint64_t>(cls) << 16) | slot;
}

}  // namespace

SendRecvRpcServer::SendRecvRpcServer(lt::Cluster* cluster, NodeId node,
                                     std::vector<uint32_t> class_sizes, size_t buffers_per_class,
                                     RpcHandler handler)
    : cluster_(cluster),
      node_(node),
      class_sizes_(std::move(class_sizes)),
      buffers_per_class_(buffers_per_class),
      handler_(std::move(handler)) {
  proc_ = cluster_->node(node_)->CreateProcess();
  recv_cq_ = proc_->verbs().CreateCq();
}

SendRecvRpcServer::~SendRecvRpcServer() { Stop(); }

void SendRecvRpcServer::PostClassRecv(size_t port, size_t cls, size_t slot) {
  lt::Rqe rqe;
  rqe.wr_id = SlotId(port, cls, slot);
  rqe.lkey = recv_bufs_[port][cls][slot].mr.lkey;
  rqe.addr = recv_bufs_[port][cls][slot].addr;
  rqe.length = class_sizes_[cls];
  (void)ports_[port]->class_qps_server[cls]->PostRecv(rqe);
}

StatusOr<SendRecvRpcClient*> SendRecvRpcServer::AttachClient(NodeId client_node) {
  const uint32_t max_size = class_sizes_.back();
  auto port = std::make_unique<Port>();
  port->client_node = client_node;
  auto client = std::unique_ptr<SendRecvRpcClient>(new SendRecvRpcClient());
  client->server_ = this;
  client->proc_ = cluster_->node(client_node)->CreateProcess();
  client->port_ = ports_.size();
  client->send_buf_ = *AllocRegistered(client->proc_, max_size, lt::kMrAll);
  client->recv_buf_ = *AllocRegistered(client->proc_, max_size, lt::kMrAll);
  port->resp_staging = *AllocRegistered(proc_, max_size, lt::kMrAll);

  recv_bufs_.emplace_back();
  auto& per_class = recv_bufs_.back();
  for (size_t cls = 0; cls < class_sizes_.size(); ++cls) {
    // Server end of the class QP.
    lt::Qp* sqp =
        proc_->verbs().CreateQp(lt::QpType::kRc, proc_->verbs().CreateCq(), recv_cq_);
    lt::Qp* cqp = client->proc_->verbs().CreateQp(lt::QpType::kRc,
                                                  client->proc_->verbs().CreateCq(),
                                                  client->proc_->verbs().CreateCq());
    sqp->Connect(client_node, cqp->qpn());
    cqp->Connect(node_, sqp->qpn());
    port->class_qps_server.push_back(sqp);
    client->class_qps_.push_back(cqp);

    per_class.emplace_back();
    for (size_t slot = 0; slot < buffers_per_class_; ++slot) {
      per_class.back().push_back(*AllocRegistered(proc_, class_sizes_[cls], lt::kMrAll));
    }
  }
  // Reply QP (server -> client), client preposts max-size buffers.
  lt::Qp* reply_s =
      proc_->verbs().CreateQp(lt::QpType::kRc, proc_->verbs().CreateCq(),
                              proc_->verbs().CreateCq());
  client->reply_cq_ = client->proc_->verbs().CreateCq();
  lt::Qp* reply_c = client->proc_->verbs().CreateQp(lt::QpType::kRc,
                                                    client->proc_->verbs().CreateCq(),
                                                    client->reply_cq_);
  reply_s->Connect(client_node, reply_c->qpn());
  reply_c->Connect(node_, reply_s->qpn());
  port->reply_qp_server = reply_s;
  client->reply_qp_ = reply_c;

  SendRecvRpcClient* out = client.get();
  port->client = std::move(client);
  ports_.push_back(std::move(port));

  size_t port_idx = ports_.size() - 1;
  for (size_t cls = 0; cls < class_sizes_.size(); ++cls) {
    for (size_t slot = 0; slot < buffers_per_class_; ++slot) {
      PostClassRecv(port_idx, cls, slot);
    }
  }
  return out;
}

void SendRecvRpcServer::Start() {
  stopping_.store(false);
  thread_ = std::thread([this] { ServerLoop(); });
}

void SendRecvRpcServer::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  recv_cq_->Shutdown();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void SendRecvRpcServer::ServerLoop() {
  const uint32_t max_size = class_sizes_.back();
  std::vector<uint8_t> in(max_size);
  std::vector<uint8_t> out(max_size);
  while (!stopping_.load()) {
    auto c = recv_cq_->WaitPoll(kServerIdleWaitNs, lt::WaitMode::kBusyPoll);
    if (!c.has_value() || stopping_.load()) {
      continue;
    }
    size_t port = static_cast<size_t>(c->wr_id >> 32);
    size_t cls = static_cast<size_t>((c->wr_id >> 16) & 0xffff);
    size_t slot = static_cast<size_t>(c->wr_id & 0xffff);

    consumed_.fetch_add(class_sizes_[cls]);
    payload_.fetch_add(c->byte_len);

    (void)ReadVirt(proc_, recv_bufs_[port][cls][slot].addr, in.data(), c->byte_len);
    uint32_t out_len = handler_(in.data(), c->byte_len, out.data(), max_size);
    (void)WriteVirt(proc_, ports_[port]->resp_staging.addr, out.data(), out_len);

    lt::WorkRequest wr;
    wr.opcode = lt::WrOpcode::kSend;
    wr.lkey = ports_[port]->resp_staging.mr.lkey;
    wr.local_addr = ports_[port]->resp_staging.addr;
    wr.length = out_len;
    wr.signaled = false;
    (void)proc_->verbs().PostSend(ports_[port]->reply_qp_server, wr);

    PostClassRecv(port, cls, slot);
  }
}

Status SendRecvRpcClient::Call(const void* in, uint32_t in_len, void* out, uint32_t out_max,
                               uint32_t* out_len) {
  std::lock_guard<std::mutex> lock(mu_);
  // Pick the most space-efficient receive class (smallest that fits).
  size_t cls = 0;
  while (cls < server_->class_sizes_.size() && server_->class_sizes_[cls] < in_len) {
    ++cls;
  }
  if (cls == server_->class_sizes_.size()) {
    return Status::InvalidArgument("request larger than largest receive class");
  }

  lt::Rqe rqe;
  rqe.wr_id = 1;
  rqe.lkey = recv_buf_.mr.lkey;
  rqe.addr = recv_buf_.addr;
  rqe.length = server_->class_sizes_.back();
  (void)reply_qp_->PostRecv(rqe);

  (void)WriteVirt(proc_, send_buf_.addr, in, in_len);
  lt::WorkRequest wr;
  wr.opcode = lt::WrOpcode::kSend;
  wr.lkey = send_buf_.mr.lkey;
  wr.local_addr = send_buf_.addr;
  wr.length = in_len;
  wr.signaled = false;
  LT_RETURN_IF_ERROR(proc_->verbs().PostSend(class_qps_[cls], wr));

  while (true) {
    auto c = reply_cq_->WaitPoll(kCallTimeoutNs, lt::WaitMode::kBusyPoll);
    if (!c.has_value()) {
      return Status::Timeout("no send/recv RPC response");
    }
    if (c->opcode == lt::WcOpcode::kRecv) {
      uint32_t len = std::min(c->byte_len, out_max);
      LT_RETURN_IF_ERROR(ReadVirt(proc_, recv_buf_.addr, out, len));
      if (out_len != nullptr) {
        *out_len = c->byte_len;
      }
      return Status::Ok();
    }
  }
}

}  // namespace liteapp
