#include "src/tcpip/tcp_stack.h"

#include <algorithm>
#include <cstring>

#include "src/common/timing.h"

namespace lt {
namespace {

constexpr size_t kTcpMtuBytes = 65520;  // IPoIB connected-mode MTU.

}  // namespace

Status TcpConn::Send(const void* buf, size_t len) { return SendInternal(buf, len, false); }

Status TcpConn::StreamSend(const void* buf, size_t len) { return SendInternal(buf, len, true); }

Status TcpConn::SendInternal(const void* buf, size_t len, bool streaming) {
  if (peer_ == nullptr) {
    return Status::FailedPrecondition("connection not established");
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(buf);

  // Sender-side stack traversal. Streaming amortizes: one traversal per MTU.
  if (!streaming) {
    SpinFor(kTcpSendStackNs);
  }

  size_t offset = 0;
  while (offset < len || len == 0) {
    size_t chunk = std::min<size_t>(len - offset, kTcpMtuBytes);
    if (streaming) {
      SpinFor(kTcpSendStackNs / 8);  // Segmentation-offloaded path.
    }
    // TCP-path rate cap + fabric delivery.
    uint64_t now = NowNs();
    uint64_t rate_done = stack_->ReserveRate(now, chunk);
    uint64_t fabric_finish = stack_->fabric()->TransferFinishNs(local_node_, remote_node_, chunk,
                                                                now);
    if (fabric_finish == Fabric::kDropped) {
      return Status::Unavailable("TCP segment dropped (failure injection)");
    }
    Segment seg;
    seg.data.assign(bytes + offset, bytes + offset + chunk);
    seg.ready_at_ns = std::max(rate_done, fabric_finish);
    peer_->Deliver(std::move(seg));
    offset += chunk;
    if (len == 0) {
      break;
    }
  }
  return Status::Ok();
}

void TcpConn::Deliver(Segment segment) { inbox_.Push(std::move(segment)); }

Status TcpConn::RecvExact(void* buf, size_t len, uint64_t timeout_ns) {
  uint8_t* out = static_cast<uint8_t*>(buf);
  size_t got = 0;
  const uint64_t deadline = NowNs() + timeout_ns;

  while (got < len) {
    if (!pending_.empty()) {
      // Drain previously-received bytes.
      size_t take = std::min(pending_.size(), len - got);
      std::memcpy(out + got, pending_.data(), take);
      pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(take));
      got += take;
      continue;
    }
    uint64_t now = NowNs();
    if (now >= deadline) {
      return Status::Timeout("TCP recv timeout");
    }
    auto seg = inbox_.PopFor(std::chrono::nanoseconds(deadline - now));
    if (!seg.has_value()) {
      return Status::Timeout("TCP recv timeout");
    }
    // Sleep (blocking socket) until the segment's arrival time, then pay the
    // receive-side stack traversal.
    SyncClockTo(seg->ready_at_ns);
    SpinFor(kTcpRecvStackNs);
    pending_ = std::move(seg->data);
  }
  return Status::Ok();
}

std::pair<std::unique_ptr<TcpConn>, std::unique_ptr<TcpConn>> TcpStack::ConnectPair(TcpStack* a,
                                                                                    TcpStack* b) {
  auto conn_a = std::unique_ptr<TcpConn>(new TcpConn(a, a->node(), b->node()));
  auto conn_b = std::unique_ptr<TcpConn>(new TcpConn(b, b->node(), a->node()));
  conn_a->peer_ = conn_b.get();
  conn_b->peer_ = conn_a.get();
  return {std::move(conn_a), std::move(conn_b)};
}

uint64_t TcpStack::ReserveRate(uint64_t earliest_ns, uint64_t bytes) {
  const uint64_t ser_ns = static_cast<uint64_t>(static_cast<double>(bytes) / kTcpRateBytesPerNs);
  return rate_capacity_.Reserve(earliest_ns, ser_ns);
}

}  // namespace lt
