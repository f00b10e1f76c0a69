#include "src/rnic/rnic.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/common/annotations.h"
#include "src/common/timing.h"
#include "src/telemetry/metrics.h"

namespace lt {
namespace {

constexpr uint64_t kRnrTimeoutNs = 2'000'000'000;  // Receiver-not-ready give-up.
constexpr uint64_t kOneSidedHeaderBytes = 30;      // Request header on the wire.
constexpr uint64_t kUdGrhBytes = 40;               // UD global routing header.
constexpr size_t kQpcCacheEntries = 256;           // QP contexts cached on-NIC.

uint64_t MttKey(uint32_t lkey, uint64_t vpage) {
  return (static_cast<uint64_t>(lkey) << 36) ^ vpage;
}

// Per-thread doorbell batch tracker: consecutive hinted posts to the same QP
// within kRnicDoorbellWindowNs share one doorbell. The rnic/qpn fields are
// used for identity comparison only and are never dereferenced (the tracked
// RNIC may outlive a test cluster).
struct DoorbellBatch {
  const Rnic* rnic = nullptr;
  uint32_t qpn = 0;
  uint64_t last_post_ns = 0;
  uint32_t len = 0;  // WQEs under the current doorbell (0 = untracked post).
};
thread_local DoorbellBatch tl_doorbell;

// Transport breakdown of this thread's most recent PostSend (latency
// attribution). Execute fills it from the same absolute timestamps it
// computes the completion's ready time from; PushSendCompletion copies it
// onto the CQE, and unsignaled posters read it via LastPostBreakdown().
thread_local telemetry::WqeLatBreakdown tl_last_lat;

}  // namespace

// ---------------------------------------------------------------- directory

void RnicDirectory::Register(NodeId node, Rnic* rnic) {
  std::lock_guard<SpinLock> lock(mu_);
  if (rnics_.size() <= node) {
    rnics_.resize(node + 1, nullptr);
  }
  rnics_[node] = rnic;
}

Rnic* RnicDirectory::Lookup(NodeId node) const {
  std::lock_guard<SpinLock> lock(mu_);
  if (node >= rnics_.size()) {
    return nullptr;
  }
  return rnics_[node];
}

// ----------------------------------------------------------------------- cq

std::optional<Completion> Cq::WaitPoll(uint64_t timeout_ns, WaitMode mode) {
  Completion c;
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool ok = cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                           [this] { return !entries_.empty() || shutdown_; });
    if (!ok || entries_.empty()) {
      // Timed out (or shut down). The virtual clock is NOT advanced: an idle
      // waiter's clock stays put and jumps forward on its next event; callers
      // that need elapsed-timeout semantics charge it themselves.
      return std::nullopt;
    }
    // Take the entry with the earliest virtual ready time among those with
    // no earlier-pushed receive completion from their source node (the
    // first entry always qualifies).
    auto best = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->ready_at_ns >= best->ready_at_ns) {
        continue;
      }
      const NodeId src = it->src_node;
      auto same_src = [src](const Completion& e) { return e.src_node == src; };
      if (src == kInvalidNode || std::none_of(entries_.begin(), it, same_src)) {
        best = it;
      }
    }
    c = *best;
    entries_.erase(best);
  }
  // The gap until the entry's ready time is CPU when busy-polling, not when
  // sleeping.
  if (mode == WaitMode::kBusyPoll) {
    SyncToBusy(c.ready_at_ns);
  } else {
    SyncClockTo(c.ready_at_ns);
  }
  return c;
}

std::optional<Completion> Cq::Take(uint64_t wr_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->wr_id == wr_id) {
      Completion c = *it;
      entries_.erase(it);
      return c;
    }
  }
  return std::nullopt;
}

void Cq::Push(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(std::move(completion));
  }
  cv_.notify_all();
}

size_t Cq::Depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void Cq::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

// ----------------------------------------------------------------------- qp

Status Qp::PostRecv(const Rqe& rqe) {
  {
    std::lock_guard<std::mutex> lock(rq_mu_);
    rq_.push_back(rqe);
  }
  rq_cv_.notify_all();
  return Status::Ok();
}

std::optional<Rqe> Qp::TakeRecvWait(uint64_t real_timeout_ns) {
  std::unique_lock<std::mutex> lock(rq_mu_);
  if (!rq_cv_.wait_for(lock, std::chrono::nanoseconds(real_timeout_ns),
                       [this] { return !rq_.empty(); })) {
    return std::nullopt;
  }
  Rqe rqe = rq_.front();
  rq_.pop_front();
  return rqe;
}

// --------------------------------------------------------------------- rnic

Rnic::Rnic(NodeId node, const SimParams& params, PhysMem* mem, FabricPort* port,
           RnicDirectory* directory)
    : node_(node),
      params_(params),
      mem_(mem),
      port_(port),
      directory_(directory),
      mpt_cache_(kMptCacheEntries),
      mtt_cache_(kMttCachePages),
      qpc_cache_(kQpcCacheEntries) {
  directory_->Register(node, this);
}

StatusOr<MrEntry> Rnic::RegisterMrVirtual(PageTable* pt, VirtAddr addr, uint64_t length,
                                          uint32_t access) {
  if (length == 0 || pt == nullptr) {
    return Status::InvalidArgument("bad MR registration");
  }
  // Validate the whole range is mapped.
  auto check = pt->TranslateRange(node_, addr, length);
  if (!check.ok()) {
    return check.status();
  }
  MrEntry mr;
  mr.lkey = next_key_.fetch_add(1);
  mr.node = node_;
  mr.physical = false;
  mr.base = addr;
  mr.length = length;
  mr.access = access;
  mr.page_table = pt;
  {
    std::lock_guard<SpinLock> lock(mr_mu_);
    mrs_[mr.lkey] = mr;
  }
  return mr;
}

StatusOr<MrEntry> Rnic::RegisterMrPhysical(PhysAddr addr, uint64_t length, uint32_t access) {
  if (length == 0 || addr + length > mem_->size_bytes()) {
    return Status::InvalidArgument("bad physical MR registration");
  }
  MrEntry mr;
  mr.lkey = next_key_.fetch_add(1);
  mr.node = node_;
  mr.physical = true;
  mr.base = addr;
  mr.length = length;
  mr.access = access;
  {
    std::lock_guard<SpinLock> lock(mr_mu_);
    mrs_[mr.lkey] = mr;
  }
  return mr;
}

Status Rnic::DeregisterMr(uint32_t lkey) {
  std::lock_guard<SpinLock> lock(mr_mu_);
  auto it = mrs_.find(lkey);
  if (it == mrs_.end()) {
    return Status::NotFound("MR not registered");
  }
  mrs_.erase(it);
  mpt_cache_.Erase(lkey);
  return Status::Ok();
}

StatusOr<MrEntry> Rnic::LookupMr(uint32_t key) const {
  std::lock_guard<SpinLock> lock(mr_mu_);
  auto it = mrs_.find(key);
  if (it == mrs_.end()) {
    return Status::NotFound("MR key unknown");
  }
  return it->second;
}

size_t Rnic::MrCount() const {
  std::lock_guard<SpinLock> lock(mr_mu_);
  return mrs_.size();
}

Cq* Rnic::CreateCq() {
  std::lock_guard<SpinLock> lock(qp_mu_);
  cqs_.push_back(std::make_unique<Cq>());
  return cqs_.back().get();
}

Qp* Rnic::CreateQp(QpType type, Cq* send_cq, Cq* recv_cq) {
  std::lock_guard<SpinLock> lock(qp_mu_);
  uint32_t qpn = next_qpn_.fetch_add(1);
  qps_.push_back(std::make_unique<Qp>(this, qpn, type, send_cq, recv_cq));
  Qp* qp = qps_.back().get();
  qp_index_[qpn] = qp;
  return qp;
}

Qp* Rnic::LookupQp(uint32_t qpn) const {
  std::lock_guard<SpinLock> lock(qp_mu_);
  auto it = qp_index_.find(qpn);
  return it == qp_index_.end() ? nullptr : it->second;
}

size_t Rnic::QpCount() const {
  std::lock_guard<SpinLock> lock(qp_mu_);
  return qps_.size();
}

StatusOr<Rnic::Resolved> Rnic::ResolveOnNic(uint32_t key, uint64_t addr, uint64_t length,
                                            uint32_t required_access) {
  Resolved out;
  if (!mpt_cache_.Touch(key)) {
    out.cache_penalty_ns += kMptMissNs;
  }
  auto mr_or = LookupMr(key);
  if (!mr_or.ok()) {
    return mr_or.status();
  }
  const MrEntry& mr = *mr_or;
  if ((mr.access & required_access) != required_access) {
    return Status::PermissionDenied("MR access violation");
  }
  if (length == 0) {
    return out;
  }
  if (addr < mr.base || addr + length > mr.base + mr.length) {
    return Status::OutOfRange("access outside MR bounds");
  }
  if (mr.physical) {
    out.ranges.push_back(PhysRange{node_, static_cast<PhysAddr>(addr), length});
    return out;
  }
  // Virtual MR: the NIC walks PTEs; charge one MTT miss per uncached page.
  const size_t page = mr.page_table->page_size();
  for (uint64_t vpage = addr / page; vpage <= (addr + length - 1) / page; ++vpage) {
    if (!mtt_cache_.Touch(MttKey(key, vpage))) {
      out.cache_penalty_ns += kMttMissNs;
    }
  }
  auto ranges = mr.page_table->TranslateRange(node_, addr, length);
  if (!ranges.ok()) {
    return ranges.status();
  }
  out.ranges = std::move(*ranges);
  return out;
}

uint64_t Rnic::ReserveEngine(uint64_t earliest_ns, uint64_t occupancy_ns) {
  return engine_capacity_.Reserve(earliest_ns, occupancy_ns);
}

void Rnic::PushSendCompletion(Qp* qp, const WorkRequest& wr, Status status, uint64_t ready_at) {
  if (!wr.signaled && status.ok()) {
    return;
  }
  Completion c;
  c.wr_id = wr.wr_id;
  c.status = std::move(status);
  c.byte_len = static_cast<uint32_t>(wr.length);
  switch (wr.opcode) {
    case WrOpcode::kWrite:
    case WrOpcode::kWriteImm:
      c.opcode = WcOpcode::kRdmaWrite;
      break;
    case WrOpcode::kRead:
      c.opcode = WcOpcode::kRdmaRead;
      break;
    case WrOpcode::kSend:
      c.opcode = WcOpcode::kSend;
      break;
    case WrOpcode::kFetchAdd:
    case WrOpcode::kCmpSwap:
      c.opcode = WcOpcode::kAtomic;
      break;
  }
  c.ready_at_ns = ready_at + kRnicCompletionNs;
  c.lat = tl_last_lat;
  qp->send_cq()->Push(std::move(c));
}

telemetry::WqeLatBreakdown Rnic::LastPostBreakdown() { return tl_last_lat; }

void Rnic::ResetLastPostBreakdown() { tl_last_lat = telemetry::WqeLatBreakdown{}; }

void Rnic::ChargePostCost(Qp* qp, const WorkRequest& wr) {
  DoorbellBatch& b = tl_doorbell;
  const uint64_t now = NowNs();
  const bool batches = wr.doorbell_hint && b.rnic == this && b.qpn == qp->qpn() &&
                       b.len > 0 && now >= b.last_post_ns &&
                       now - b.last_post_ns <= kRnicDoorbellWindowNs;
  if (batches) {
    // Rides the previous doorbell: only the per-extra-WQE build cost.
    SpinFor(kRnicPostWqeNs);
    wqes_batched_.fetch_add(1, std::memory_order_relaxed);
    ++b.len;
    b.last_post_ns = NowNs();
    return;
  }
  // New doorbell. Close out the previous batch on this NIC (batch size is
  // only observable once the next doorbell rings).
  if (b.rnic == this && b.len > 0) {
    telemetry::FixedHistogram* hist = doorbell_batch_hist_.load(std::memory_order_acquire);
    if (hist != nullptr) {
      hist->Record(b.len);
    }
  }
  SpinFor(kRnicPostNs);
  doorbells_.fetch_add(1, std::memory_order_relaxed);
  b.rnic = wr.doorbell_hint ? this : nullptr;
  b.qpn = qp->qpn();
  b.len = wr.doorbell_hint ? 1 : 0;
  b.last_post_ns = NowNs();
}

Status Rnic::PostSend(Qp* qp, const WorkRequest& wr) {
  ops_posted_.fetch_add(1, std::memory_order_relaxed);
  (wr.signaled ? wqes_signaled_ : wqes_unsignaled_).fetch_add(1, std::memory_order_relaxed);
  tl_last_lat = telemetry::WqeLatBreakdown{};  // Error paths leave it zero.
  // Doorbell + WQE build: synchronous host cost (shared doorbell when the
  // post batches with the previous one on this QP).
  ChargePostCost(qp, wr);

  NodeId dst_node;
  uint32_t dst_qpn = 0;
  if (qp->type() == QpType::kUd) {
    if (wr.opcode != WrOpcode::kSend) {
      return Status::InvalidArgument("UD QPs support only SEND");
    }
    dst_node = wr.ud_dst_node;
    dst_qpn = wr.ud_dst_qpn;
  } else {
    // RC and DC-initiator QPs share the connected data path; a DC QP's
    // connection target is simply whatever Connect() last attached it to.
    if (!qp->connected()) {
      return Status::FailedPrecondition("RC QP not connected");
    }
    if (qp->in_error()) {
      return Status::FailedPrecondition("RC QP in error state (reset required)");
    }
    dst_node = qp->remote_node();
    dst_qpn = qp->remote_qpn();
  }
  Rnic* remote = directory_->Lookup(dst_node);
  if (remote == nullptr) {
    return Status::Unavailable("destination node unknown");
  }
  return Execute(qp, wr, remote, dst_qpn);
}

Status Rnic::Execute(Qp* qp, const WorkRequest& wr, Rnic* remote, uint32_t dst_qpn) {
  const uint64_t now = NowNs();
  const bool is_read = wr.opcode == WrOpcode::kRead;
  const bool is_send = wr.opcode == WrOpcode::kSend;
  const bool is_atomic = wr.opcode == WrOpcode::kFetchAdd || wr.opcode == WrOpcode::kCmpSwap;
  // UD has no ACK: the sender completes once its NIC has sent the message.
  const bool ud = qp->type() == QpType::kUd;

  // What the opcode changes about the trip: the request's wire bytes, the
  // responder engine's extra cost, its ACK turn-around, and the payload the
  // return leg carries (reads only; every other acked op gets a bare ACK).
  uint64_t request_bytes = kOneSidedHeaderBytes + wr.length;
  uint64_t remote_extra_ns = 0;
  uint64_t ack_ns = kRnicAckNs;
  uint64_t response_bytes = 0;
  switch (wr.opcode) {
    case WrOpcode::kWrite:
    case WrOpcode::kWriteImm:
      break;
    case WrOpcode::kRead:
      request_bytes = kOneSidedHeaderBytes;
      response_bytes = wr.length + kOneSidedHeaderBytes / 2;
      break;
    case WrOpcode::kSend:
      request_bytes = wr.length + (ud ? kUdGrhBytes : 0) + kOneSidedHeaderBytes / 2;
      break;
    case WrOpcode::kFetchAdd:
    case WrOpcode::kCmpSwap:
      // The atomic response is ack-sized; it rides the credit path rather
      // than reserving payload bandwidth, with no separate ACK turn-around.
      request_bytes = kOneSidedHeaderBytes + 16;
      remote_extra_ns = kRnicAtomicExtraNs;
      ack_ns = 0;
      break;
  }
  // Inline send: the payload was copied into the WQE at post time, so the
  // local engine skips the DMA read of the source buffer (reads can never be
  // inline — the payload arrives later).
  const bool inline_send = (wr.opcode == WrOpcode::kWrite || wr.opcode == WrOpcode::kWriteImm) &&
                           wr.inline_data && wr.length <= kRnicInlineMax;
  auto fail = [&](Status status) {
    PushSendCompletion(qp, wr, std::move(status), NowNs());
    return Status::Ok();
  };
  // A dropped leg exhausts the retransmit budget: a connected QP moves to the
  // error state (hardware semantics) and its owner must reset it.
  auto drop = [&](const char* what) {
    if (!ud) {
      qp->SetError();
    }
    PushSendCompletion(qp, wr, Status::Unavailable(what), now + kRnrTimeoutNs / 64);
    return Status::Ok();
  };

  // 1. Resolve both buffers. QPC lookups first: this NIC's context for the
  // sender, then (gated) the responder's context serving it — per-peer for
  // RC, the one shared DCT entry for DC targets.
  const uint64_t qpc_penalty = qpc_cache_.Touch(qp->qpn()) ? 0 : kQpcMissNs;
  const uint64_t remote_qpc_penalty =
      params_.rnic_model_responder_qpc && remote != this
          ? (remote->qpc_cache_.Touch(dst_qpn) ? 0 : kQpcMissNs)
          : 0;
  // The local buffer: host memory the kernel addresses physically, or a
  // local MR. An atomic has none; its old value lands in wr.atomic_result.
  StatusOr<Resolved> local = Resolved{};
  if (wr.host_local != nullptr) {
    local->host = static_cast<uint8_t*>(wr.host_local);
  } else if (wr.length > 0 && !is_atomic) {
    local = ResolveOnNic(wr.lkey, wr.local_addr, wr.length, is_read ? kMrWrite : kMrRead);
  }
  if (!local.ok()) {
    return fail(local.status());
  }
  // The remote buffer: the target MR range, the RQE a SEND consumes, or the
  // 8-byte atomic word. SENDs and write-imms also raise a receive CQE.
  Qp* remote_qp = wr.opcode == WrOpcode::kWriteImm || is_send ? remote->LookupQp(dst_qpn) : nullptr;
  std::optional<Rqe> rqe;
  StatusOr<Resolved> target = Resolved{};
  if (is_send) {
    if (remote_qp == nullptr) {
      return fail(Status::Unavailable("no such destination QP"));
    }
    // Receiver-not-ready: block until an RQE is posted (RC retransmit model).
    rqe = remote_qp->TakeRecvWait(kRnrTimeoutNs);
    if (!rqe.has_value()) {
      IdleFor(kRnrTimeoutNs);
      return fail(Status::Timeout("receiver not ready"));
    }
    if (rqe->length < wr.length) {
      target = Status::InvalidArgument("receive buffer too small");
    } else if (wr.length > 0) {
      target = remote->ResolveOnNic(rqe->lkey, rqe->addr, wr.length, kMrWrite);
    }
  } else if (is_atomic) {
    target = wr.remote_addr % 8 != 0
                 ? StatusOr<Resolved>(Status::InvalidArgument("atomic target not 8B-aligned"))
                 : remote->ResolveOnNic(wr.rkey, wr.remote_addr, 8, kMrAtomic);
  } else if (wr.length > 0) {
    target = remote->ResolveOnNic(wr.rkey, wr.remote_addr, wr.length, is_read ? kMrRead : kMrWrite);
  }
  if (!target.ok()) {
    return fail(target.status());
  }

  // 2. Book the trip: local engine, request transfer, remote engine (each
  // engine's occupancy is processing plus SRAM-miss stalls), return leg.
  if (inline_send) {
    inline_sends_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t local_done =
      ReserveEngine(now, (inline_send ? kRnicInlineProcessNs : kRnicProcessNs) + qpc_penalty +
                             local->cache_penalty_ns);
  Fabric* fabric = port_->fabric();
  TransferFaults request_faults;
  uint64_t queue_ns = 0;
  const uint64_t arrive = fabric->TransferFinishNs(node_, remote->node(), request_bytes,
                                                   local_done, &request_faults, &queue_ns);
  if (arrive == Fabric::kDropped) {
    return drop("message dropped");
  }
  const uint64_t remote_done = remote->ReserveEngine(
      arrive, kRnicProcessNs + remote_extra_ns + target->cache_penalty_ns + remote_qpc_penalty);
  uint64_t ready_at = local_done;
  if (!ud) {
    const uint64_t turn_ns = remote_done + ack_ns;
    ready_at = is_read ? fabric->TransferFinishNs(remote->node(), node_, response_bytes, turn_ns,
                                                  nullptr, &queue_ns)
                       : turn_ns + kWireLatencyNs;
    if (ready_at == Fabric::kDropped) {
      return drop("response dropped");
    }
  }

  // 3. Move the data (the issuing thread is the DMA engine), only now that
  // every leg has been booked.
  if (is_atomic) {
    // Host atomics, so remote atomics on a word serialize with each other and
    // with the issuer-local atomics LITE applies to the same word directly.
    assert(target->ranges.size() == 1);
    auto* word = reinterpret_cast<uint64_t*>(remote->mem()->Data(target->ranges[0].addr, 8));
    uint64_t old_value = wr.compare_add;
    if (wr.opcode == WrOpcode::kFetchAdd) {
      old_value = __atomic_fetch_add(word, wr.compare_add, __ATOMIC_SEQ_CST);
    } else {
      __atomic_compare_exchange_n(word, &old_value, wr.swap, false, __ATOMIC_SEQ_CST,
                                  __ATOMIC_SEQ_CST);
    }
    if (wr.atomic_result != nullptr) {
      *wr.atomic_result = old_value;
    }
  } else if (wr.length > 0) {
    if (is_read) {
      CopyResolved(*target, *local, wr.length);
    } else {
      CopyResolved(*local, *target, wr.length);
    }
  }

  // 4. The receiver's CQE, then the breakdown, from the same absolute
  // timestamps as the completion (pure arithmetic; no clock movement).
  if (remote_qp != nullptr && remote_qp->recv_cq() != nullptr) {
    Completion rc;
    rc.wr_id = is_send ? rqe->wr_id : 0;
    rc.opcode = is_send ? WcOpcode::kRecv : WcOpcode::kRecvImm;
    rc.byte_len = static_cast<uint32_t>(wr.length);
    rc.imm = wr.imm;
    rc.has_imm = !is_send;
    rc.src_node = node_;
    rc.src_qpn = qp->qpn();
    rc.ready_at_ns = remote_done + kRnicCompletionNs;
    remote_qp->recv_cq()->Push(rc);
    if (!is_send && request_faults.duplicate) {
      // Fault injection duplicated the request on the wire: the receiver
      // sees the imm event twice, the copy after the original (upper layers
      // must dedup by sequence). A duplicated SEND would need a second RQE
      // and is not modeled.
      rc.ready_at_ns += kWireLatencyNs + request_faults.dup_extra_delay_ns;
      remote_qp->recv_cq()->Push(std::move(rc));
    }
  }
  // An unacked WQE books only its local engine and completion: the sender
  // never waits for the wire or the responder.
  tl_last_lat.rnic_local_ns = local_done - now;
  if (!ud) {
    tl_last_lat.port_queue_ns = queue_ns;
    tl_last_lat.rnic_remote_ns = (remote_done - arrive) + ack_ns;
    // The rest of the trip: serialization, propagation and injected delay.
    tl_last_lat.wire_ns = ready_at - local_done - queue_ns - tl_last_lat.rnic_remote_ns;
  }
  tl_last_lat.compl_ns = kRnicCompletionNs;
  PushSendCompletion(qp, wr, Status::Ok(), ready_at);
  return Status::Ok();
}

void Rnic::CopyResolved(const Resolved& src, const Resolved& dst, uint64_t len) {
  if (src.host != nullptr && dst.host != nullptr) {
    SimDmaCopy(dst.host, src.host, len);
    return;
  }
  if (src.host != nullptr) {
    // Host -> fragmented physical.
    uint64_t off = 0;
    for (const PhysRange& pr : dst.ranges) {
      uint64_t take = std::min<uint64_t>(pr.size, len - off);
      PhysMem* dmem = directory_->Lookup(pr.node)->mem();
      SimDmaCopy(dmem->Data(pr.addr, take), src.host + off, take);
      off += take;
      if (off == len) {
        break;
      }
    }
    assert(off == len && "destination scatter list shorter than op length");
    return;
  }
  if (dst.host != nullptr) {
    // Fragmented physical -> host.
    uint64_t off = 0;
    for (const PhysRange& pr : src.ranges) {
      uint64_t take = std::min<uint64_t>(pr.size, len - off);
      PhysMem* smem = directory_->Lookup(pr.node)->mem();
      SimDmaCopy(dst.host + off, smem->Data(pr.addr, take), take);
      off += take;
      if (off == len) {
        break;
      }
    }
    assert(off == len && "source scatter list shorter than op length");
    return;
  }
  // Fragmented physical -> fragmented physical.
  size_t si = 0;
  size_t di = 0;
  uint64_t soff = 0;
  uint64_t doff = 0;
  uint64_t remaining = len;
  while (remaining > 0 && si < src.ranges.size() && di < dst.ranges.size()) {
    uint64_t savail = src.ranges[si].size - soff;
    uint64_t davail = dst.ranges[di].size - doff;
    uint64_t take = std::min({savail, davail, remaining});
    PhysMem* smem = directory_->Lookup(src.ranges[si].node)->mem();
    PhysMem* dmem = directory_->Lookup(dst.ranges[di].node)->mem();
    SimDmaCopy(dmem->Data(dst.ranges[di].addr + doff, take),
                smem->Data(src.ranges[si].addr + soff, take), take);
    soff += take;
    doff += take;
    remaining -= take;
    if (soff == src.ranges[si].size) {
      ++si;
      soff = 0;
    }
    if (doff == dst.ranges[di].size) {
      ++di;
      doff = 0;
    }
  }
  assert(remaining == 0 && "scatter/gather list shorter than op length");
}

}  // namespace lt
