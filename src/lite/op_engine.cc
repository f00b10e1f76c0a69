// OpEngine implementation: the shared issue path (local-piece copy, gated
// post, retransmit), the blocking "issue all, wait all" submission, the
// fire-and-forget ring writes and atomics, and the async completion-handle
// machinery.
//
// Completions: the RNIC books a WQE's whole trip inside PostSend and queues
// its completion before returning, so the posting call takes it at once
// (PostGated, PostRingWrite) and the WQE carries it. Settling never blocks
// on real time; the settler advances its own virtual clock to the
// completion's ready time.
//
// Concurrency: one mutex (async_mu_) covers the op table and the per-stream
// signaling state.
#include "src/lite/op_engine.h"

#include <algorithm>
#include <cstdint>

#include "src/common/logging.h"
#include "src/common/timing.h"
#include "src/lite/instance.h"
#include "src/rnic/rnic.h"
#include "src/telemetry/latency_attr.h"

namespace lite {

using lt::Completion;
using lt::NowNs;
using lt::SpinFor;
using lt::SyncToBusy;
using lt::WcOpcode;
using lt::WorkRequest;
using lt::WrOpcode;
using lt::telemetry::AttrAdd;
using lt::telemetry::AttrAddSplit;
using lt::telemetry::LatStage;

namespace {

// One hour of simulated time: effectively infinite for any benchmark yet
// finite, so a lost wakeup cannot hang a run forever.
constexpr uint64_t kLongTimeoutCapNs = 3'600ull * 1'000'000'000ull;

// Selective signaling of async WQEs: every K-th WQE of a (destination, QP)
// stream is signaled; the unsignaled prefix is inferred complete from its CQE.
constexpr uint64_t kAsyncSignalEvery = 8;

// A failed attempt worth re-posting: a drop or a receiver-not-ready
// timeout, a migration fence that stayed busy, or a post that lost a race to
// a concurrent QP error (Prepare recovers it on the next attempt).
bool Retryable(const Status& s) {
  return s.code() == lt::StatusCode::kUnavailable || s.code() == lt::StatusCode::kTimeout ||
         s.code() == lt::StatusCode::kFailedPrecondition;
}

// True for WRs that touch LMR data at the destination and therefore go
// through the migration gate. Zero-length writes (async flush fences) are
// exempt.
bool GatedDataOp(const lt::WorkRequest& wr) {
  switch (wr.opcode) {
    case WrOpcode::kRead:
    case WrOpcode::kFetchAdd:
    case WrOpcode::kCmpSwap:
      return true;
    case WrOpcode::kWrite:
      return wr.length > 0;
    default:
      return false;
  }
}

// The WR of one memop piece (rkey, wr_id and batching filled at lease).
WorkRequest PieceWr(const OpEngine::OpDesc& piece, bool is_read) {
  WorkRequest wr;
  wr.opcode = is_read ? WrOpcode::kRead : WrOpcode::kWrite;
  wr.host_local = piece.local;
  wr.length = piece.len;
  wr.remote_addr = piece.addr;
  wr.signaled = true;
  return wr;
}

}  // namespace

void OpEngine::RegisterTelemetry(lt::telemetry::Registry& reg, lt::telemetry::Journal* journal) {
  journal_ = journal;
  // Engine-level instruments (docs/TELEMETRY.md, "Op-submission engine").
  engine_ops_ = reg.GetCounter("lite.engine.ops");
  engine_ops_ok_ = reg.GetCounter("lite.engine.ops_ok");
  engine_ops_failed_ = reg.GetCounter("lite.engine.ops_failed");
  reg.RegisterProbe("lite.engine.in_flight", [this] {
    const int64_t v = engine_inflight_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  });
  engine_pieces_overlapped_ = reg.GetCounter("lite.engine.pieces_overlapped");
  engine_retries_ = reg.GetCounter("lite.engine.retries");
  // Fault & recovery instruments (docs/TELEMETRY.md).
  oneside_retries_ = reg.GetCounter("lite.oneside.retries");
  unsignaled_recovered_ = reg.GetCounter("lite.oneside.unsignaled_recovered");
  // Async fast-path instruments (docs/TELEMETRY.md, "Async fast path").
  async_ops_issued_ = reg.GetCounter("lite.async.ops");
  async_inferred_ = reg.GetCounter("lite.async.inferred_completions");
  async_flush_fences_ = reg.GetCounter("lite.async.flush_fences");
  reg.RegisterProbe("lite.async.in_flight",
                    [this] { return static_cast<uint64_t>(AsyncInFlight()); });
}

uint64_t OpEngine::EffectiveTimeoutNs(uint64_t requested_ns) const {
  uint64_t t =
      requested_ns == kDefaultTimeout ? inst_->params().lite_rpc_timeout_ns : requested_ns;
  return std::min(t, kLongTimeoutCapNs);
}

// ------------------------------------------------------- shared issue path

void OpEngine::Admit(Priority pri, uint64_t bytes) {
  const uint64_t qos_t0 = NowNs();
  inst_->qos_.Admit(pri, bytes);
  AttrAdd(LatStage::kLatQosWait, NowNs() - qos_t0);
}

Status OpEngine::CopyLocalPiece(const OpDesc& piece, bool is_read) {
  AccessGate gate;
  LT_RETURN_IF_ERROR(
      inst_->migration().Open(piece.addr, piece.len, !is_read, inst_->node_id(), &gate));
  const uint64_t copy_t0 = NowNs();
  if (is_read) {
    inst_->LocalCopyOut(piece.local, piece.addr, piece.len);
  } else {
    inst_->LocalCopyIn(piece.addr, piece.local, piece.len);
  }
  AttrAdd(LatStage::kLatPost, NowNs() - copy_t0);
  inst_->migration().CloseAccess(&gate, /*success=*/true);
  return Status::Ok();
}

OpEngine::Wqe OpEngine::LeaseRemote(NodeId dst, Priority pri, bool batched,
                                    const WorkRequest& wr) {
  Admit(pri, wr.length);
  Transport& tr = *inst_->transport_;
  Wqe w;
  w.h = batched ? tr.LeaseSticky(dst, pri) : tr.Lease(dst, pri);
  w.wr = wr;
  w.wr.rkey = inst_->peer_global_rkey_[dst];
  w.wr.doorbell_hint = batched;
  w.wr.inline_data = batched && wr.opcode == WrOpcode::kWrite;  // RNIC applies kRnicInlineMax.
  w.wr.wr_id = NextWrId();
  return w;
}

Status OpEngine::PostGated(Wqe* w) {
  Transport& tr = *inst_->transport_;
  if (!tr.Valid(w->h)) {
    return Status::Unavailable("no QP to destination node");
  }
  // Migration gate of the target node (the simulated analogue of the
  // responder NIC checking its protection tables), opened per post: a
  // retransmit must re-check the phase, as the fence may have committed in
  // between. The gate may park here — real-time wait, zero virtual charge —
  // until the fence resolves.
  const WorkRequest& wr = w->wr;
  LiteInstance* peer = GatedDataOp(wr) ? inst_->Peer(w->h.dst) : nullptr;
  AccessGate gate;
  if (peer != nullptr) {
    LT_RETURN_IF_ERROR(peer->migration().Open(wr.remote_addr, wr.length,
                                              wr.opcode != WrOpcode::kRead, inst_->node_id(),
                                              &gate));
  }
  Status posted = Status::Ok();
  const uint64_t post_t0 = NowNs();
  {
    // The QP lock covers only the post and the take of its completion;
    // waiting happens outside so threads sharing a pool QP overlap their
    // in-flight ops (the whole point of the shared pool, Sec. 6.1). Prepare
    // recovers an errored QP and, under DC, re-attaches a stolen slot to
    // this handle's destination.
    std::lock_guard<std::mutex> lock(tr.Mu(w->h));
    tr.Prepare(w->h);
    lt::Qp* qp = tr.Qp(w->h);
    posted = inst_->rnic().PostSend(qp, wr);
    if (posted.ok()) {
      w->cqe = qp->send_cq()->Take(wr.wr_id);
    }
  }
  AttrAdd(LatStage::kLatPost, NowNs() - post_t0);
  // Data movement is synchronous inside PostSend (the simulated DMA), so
  // the gate closes right after the post: an Ok post means the bytes are
  // at the destination (or dirty-logged harmlessly if the fabric dropped
  // the request — the error surfaces via the CQE).
  if (peer != nullptr) {
    peer->migration().CloseAccess(&gate, posted.ok());
  }
  return posted;
}

StatusOr<Completion> OpEngine::Await(const Wqe& w) {
  if (!w.post.ok()) {
    return w.post;
  }
  // Every signaled WR's Ok post took one; an unsignaled WR is only settled
  // here when its post took an error.
  const Completion& c = w.cqe.value();
  const uint64_t wait_t0 = NowNs();
  SyncToBusy(c.ready_at_ns);
  const uint64_t wait_dt = NowNs() - wait_t0;
  if (c.status.ok()) {
    AttrAddSplit(wait_dt, c.lat);
    return c;
  }
  AttrAdd(LatStage::kLatDetour, wait_dt);
  return c.status;
}

StatusOr<Completion> OpEngine::Complete(const Wqe& w, Priority pri, bool pinned) {
  StatusOr<Completion> c = Await(w);
  if (c.ok() || !Retryable(c.status())) {
    return c;  // Done, or non-transient (stale home, permission, bounds).
  }
  return Retransmit(w, pri, c.status(), pinned);
}

Status OpEngine::Backoff(Resend kind, NodeId dst, uint32_t attempt, uint64_t* backoff_ns,
                         bool fail_fast_dead) {
  const bool rpc = kind == Resend::kRpcAttempt;
  (rpc ? inst_->rpc_retries_ : oneside_retries_)->Inc();
  engine_retries_->Inc();
  lt::IdleFor(*backoff_ns);
  AttrAdd(LatStage::kLatDetour, *backoff_ns);
  if (journal_ != nullptr) {
    journal_->Record(rpc ? lt::telemetry::JournalEvent::kRpcRetry
                         : lt::telemetry::JournalEvent::kOnesideRetry,
                     dst, rpc ? *backoff_ns : attempt);
  }
  *backoff_ns *= 2;
  if (fail_fast_dead && inst_->PeerDead(dst)) {
    inst_->rpc_dead_fast_fail_->Inc();
    return DeadPeerUnavailable();
  }
  return Status::Ok();
}

StatusOr<Completion> OpEngine::Retransmit(const Wqe& w, Priority pri, Status last,
                                          bool pinned) {
  Transport& tr = *inst_->transport_;
  const NodeId dst = w.h.dst;
  uint64_t backoff_ns = kRetryBackoffNs;
  for (uint32_t attempt = 1; attempt <= inst_->params().lite_rpc_max_retries; ++attempt) {
    LT_RETURN_IF_ERROR(Backoff(Resend::kWqe, dst, attempt, &backoff_ns, /*fail_fast_dead=*/true));
    Wqe retry;
    retry.h = pinned ? w.h : tr.Lease(dst, pri);
    retry.wr = w.wr;
    retry.wr.signaled = true;
    retry.wr.doorbell_hint = false;
    retry.wr.wr_id = NextWrId();
    retry.post = PostGated(&retry);
    StatusOr<Completion> c = Await(retry);
    if (c.ok() || !Retryable(c.status())) {
      return c;
    }
    last = c.status();
  }
  return last;
}

// ------------------------------------------------ ring writes and atomics

Status OpEngine::PostRingWrite(NodeId dst, Priority pri, WorkRequest wr) {
  Admit(pri, wr.length);
  Transport& tr = *inst_->transport_;
  TransportHandle h = tr.Lease(dst, pri);
  if (!tr.Valid(h)) {
    return Status::Unavailable("no QP to destination node");
  }
  wr.rkey = inst_->peer_global_rkey_[dst];
  wr.signaled = false;
  wr.wr_id = NextWrId();
  const uint64_t post_t0 = NowNs();
  std::lock_guard<std::mutex> lock(tr.Mu(h));
  lt::Qp* qp = tr.Qp(h);
  if (tr.Prepare(h)) {
    // A prior drop errored this QP; the recovery happened on behalf of a
    // post nobody waits on, so count and journal it for the flight recorder.
    unsignaled_recovered_->Inc();
    if (journal_ != nullptr) {
      journal_->Record(lt::telemetry::JournalEvent::kUnsignaledRecover, dst, qp->qpn());
    }
  }
  Status s = inst_->rnic().PostSend(qp, wr);
  // Only a drop leaves a completion; nobody waits on it, since the reply
  // timeout detects the loss (paper Sec. 5.1).
  (void)qp->send_cq()->Take(wr.wr_id);
  AttrAdd(LatStage::kLatPost, NowNs() - post_t0);
  return s;
}

template <typename Body>
auto OpEngine::Blocking(Body&& body) {
  BeginEngineOp();
  auto r = body();
  FinishEngineOp(r.ok());
  return r;
}

Status OpEngine::OneSidedWrite(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len,
                               Priority pri) {
  const OpDesc piece{dst, dst_addr, const_cast<void*>(src), len};
  return Blocking([&] {
    return dst == inst_->node_id() ? CopyLocalPiece(piece, /*is_read=*/false)
                                   : PostRingWrite(dst, pri, PieceWr(piece, /*is_read=*/false));
  });
}

Status OpEngine::OneSidedWriteImm(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len,
                                  uint32_t imm, Priority pri) {
  return Blocking([&] {
    if (dst == inst_->node_id()) {
      // Loopback: copy locally and deliver the IMM to our own receive CQ so
      // the poll thread handles it uniformly. No PostSend happens, so clear
      // the RNIC's last-post breakdown — RPC callers read it after this
      // returns.
      lt::Rnic::ResetLastPostBreakdown();
      const uint64_t copy_t0 = NowNs();
      if (len > 0) {
        inst_->LocalCopyIn(dst_addr, src, len);
      }
      AttrAdd(LatStage::kLatPost, NowNs() - copy_t0);
      Completion c;
      c.opcode = WcOpcode::kRecvImm;
      c.has_imm = true;
      c.imm = imm;
      c.byte_len = static_cast<uint32_t>(len);
      c.src_node = inst_->node_id();
      c.ready_at_ns = NowNs() + lt::kRnicCompletionNs;
      inst_->recv_cq_->Push(std::move(c));
      return Status::Ok();
    }
    WorkRequest wr;
    wr.opcode = WrOpcode::kWriteImm;
    wr.host_local = const_cast<void*>(src);
    wr.length = len;
    wr.remote_addr = dst_addr;
    wr.imm = imm;  // Failures are detected by reply timeout (paper Sec. 5.1).
    return PostRingWrite(dst, pri, wr);
  });
}

StatusOr<uint64_t> OpEngine::RemoteAtomic(NodeId dst, PhysAddr addr, bool is_cas,
                                          uint64_t compare_add, uint64_t swap) {
  if (addr % 8 != 0) {
    return Status::InvalidArgument("atomic target not 8-byte aligned");
  }
  return Blocking([&]() -> StatusOr<uint64_t> {
    if (dst == inst_->node_id()) {
      AccessGate gate;
      LT_RETURN_IF_ERROR(
          inst_->migration().Open(addr, 8, /*is_write=*/true, inst_->node_id(), &gate));
      const uint64_t spin_t0 = NowNs();
      SpinFor(lt::kLocalOpBaseNs + lt::kRnicAtomicExtraNs / 2);
      AttrAdd(LatStage::kLatRnicLocal, NowNs() - spin_t0);
      uint8_t* p = inst_->node_->mem().Data(addr, 8);
      // The responder (Rnic::Execute) applies remote atomics with the
      // same host atomics, so local and remote updates of one word serialize.
      uint64_t old_value;
      if (is_cas) {
        uint64_t expected = compare_add;
        __atomic_compare_exchange_n(reinterpret_cast<uint64_t*>(p), &expected, swap, false,
                                    __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
        old_value = expected;
      } else {
        old_value =
            __atomic_fetch_add(reinterpret_cast<uint64_t*>(p), compare_add, __ATOMIC_SEQ_CST);
      }
      inst_->migration().CloseAccess(&gate, /*success=*/true);
      return old_value;
    }
    uint64_t old_value = 0;
    WorkRequest wr;
    wr.opcode = is_cas ? WrOpcode::kCmpSwap : WrOpcode::kFetchAdd;
    wr.length = 8;
    wr.remote_addr = addr;
    wr.compare_add = compare_add;
    wr.swap = swap;
    wr.atomic_result = &old_value;
    wr.signaled = true;
    // Retry is exactly-once here: a dropped atomic is rejected by the
    // responder before the memory operation is applied (see Rnic::Execute).
    Wqe w = LeaseRemote(dst, Priority::kHigh, /*batched=*/false, wr);
    w.post = PostGated(&w);
    auto c = Complete(w, Priority::kHigh);
    if (!c.ok()) {
      return c.status();
    }
    return old_value;
  });
}

// -------------------------------------------------------- blocking memops

Status OpEngine::SubmitPieces(std::span<const OpDesc> pieces, bool is_read, Priority pri) {
  return Blocking([&] {
    const uint64_t start = NowNs();
    // The piece count is the one input that selects the post: a lone piece
    // goes out plain, several share doorbells on a sticky QP per
    // destination.
    const bool batched = pieces.size() > 1;

    // Issue phase: post every remote piece before waiting on any; local
    // pieces complete inline.
    Status result = Status::Ok();
    lt::InlineVector<Wqe, 2> remote;
    for (const OpDesc& piece : pieces) {
      if (piece.node == inst_->node_id()) {
        Status s = CopyLocalPiece(piece, is_read);
        if (!s.ok() && result.ok()) {
          result = s;
        }
        continue;
      }
      Wqe w = LeaseRemote(piece.node, pri, batched, PieceWr(piece, is_read));
      w.post = PostGated(&w);
      remote.push_back(std::move(w));
    }
    if (remote.size() > 1) {
      engine_pieces_overlapped_->Inc(remote.size());
    }

    // Wait phase: settle every piece, retransmitting transient failures.
    // All pieces drain even after an error, so no WQE is left dangling
    // against the caller's buffer.
    for (const Wqe& w : remote) {
      auto c = Complete(w, pri);
      if (!c.ok() && result.ok()) {
        result = c.status();
      }
    }
    if (!remote.empty() && result.ok() && pri == Priority::kHigh) {
      inst_->qos_.RecordHighPriRtt(NowNs() - start);
    }
    return result;
  });
}

// ----------------------------------------------------------- registration

MemopHandle OpEngine::IssueAsyncPieces(std::span<const OpDesc> pieces, bool is_read,
                                       Priority pri, Lh origin_lh, uint64_t origin_off,
                                       void* origin_buf, uint64_t origin_len,
                                       MemopHandle reserved_handle) {
  auto op = std::make_unique<AsyncOp>();
  op->pri = pri;
  op->is_read = is_read;
  op->origin_lh = origin_lh;
  op->origin_off = origin_off;
  op->origin_buf = origin_buf;
  op->origin_len = origin_len;
  return Register(std::move(op), pieces, reserved_handle);
}

void OpEngine::InsertFailedHandle(MemopHandle h, const Status& result) {
  // The handle was reserved and returned to the caller before its deferred
  // op could register (the lh died between enqueue and drain); a done op
  // under it makes Poll/Wait surface the failure instead of InvalidArgument.
  auto op = std::make_unique<AsyncOp>();
  op->state = AsyncOpState::kDone;
  op->result = result;
  Register(std::move(op), {}, h);
}

MemopHandle OpEngine::Register(std::unique_ptr<AsyncOp> op, std::span<const OpDesc> pieces,
                               MemopHandle reserved) {
  BeginEngineOp();
  async_ops_issued_->Inc();
  std::unique_lock<std::mutex> lock(async_mu_);
  if (op->state == AsyncOpState::kInFlight) {
    // Window backpressure: retire the oldest in-flight op, or wait while
    // every outstanding op is being retired by another thread. An op that
    // arrives done never enters flight, so it skips the window.
    const uint64_t bp_t0 = NowNs();
    while (async_inflight_ >= kAsyncWindow) {
      auto oldest = std::find_if(async_ops_.begin(), async_ops_.end(), [](const auto& entry) {
        return entry.second->state == AsyncOpState::kInFlight;
      });
      RetireOrWait(lock, oldest == async_ops_.end() ? nullptr : oldest->second.get());
    }
    AttrAdd(LatStage::kLatEngineQueue, NowNs() - bp_t0);
  }

  Transport& tr = *inst_->transport_;
  bool all_local = true;
  for (const OpDesc& piece : pieces) {
    if (piece.node == inst_->node_id()) {
      // Local pieces complete at issue time. A gate NACK is recorded as the
      // op's issue error; retirement folds it in (and the stale-home redo
      // then re-issues the whole memop against the new home).
      Status s = CopyLocalPiece(piece, op->is_read);
      if (!s.ok() && op->issue_error.ok()) {
        op->issue_error = s;
      }
      Wqe& local = op->wqes.emplace_back();
      local.done = true;
      local.ready_at_ns = NowNs();
      continue;
    }
    all_local = false;
    Wqe wqe = LeaseRemote(piece.node, op->pri, /*batched=*/true, PieceWr(piece, op->is_read));
    AsyncStream* stream = nullptr;
    wqe.wr.signaled = false;
    if (tr.Valid(wqe.h)) {
      stream = &async_streams_[{wqe.h.dst, wqe.h.slot}];
      wqe.stream_pos = stream->next_pos++;
      wqe.wr.signaled = (wqe.stream_pos + 1) % kAsyncSignalEvery == 0;
    }
    // A failed post (gate NACK, QP race, no QP) or an error completion is
    // settled at retirement: retransmitted when transient, reported
    // otherwise.
    wqe.post = PostGated(&wqe);
    if (wqe.post.ok() && wqe.wr.signaled) {
      stream->signaled_pending.emplace(wqe.stream_pos, wqe.cqe.value());
    }
    op->wqes.push_back(std::move(wqe));
  }
  // A memop whose every piece completed at issue is done at entry. An
  // issue-time error (gate NACK on a local piece) keeps it in flight so
  // retirement folds the error in and can run the stale-home redo.
  if (all_local && op->issue_error.ok()) {
    op->state = AsyncOpState::kDone;
  }

  const MemopHandle h = reserved != 0 ? reserved : next_memop_handle_.fetch_add(1);
  // The caller's record moves into the op: an in-flight op commits it when
  // it retires, with its true completion time as the e2e.
  lt::telemetry::AttrDetach(&op->attr);
  if (op->state == AsyncOpState::kDone) {
    op->ready_at_ns = NowNs();
    CommitAsyncAttr(op.get());
    FinishEngineOp(op->result.ok());
  } else {
    ++async_inflight_;
  }
  async_ops_.emplace(h, std::move(op));
  return h;
}

bool OpEngine::HandleReady(MemopHandle h) const {
  std::lock_guard<std::mutex> lock(async_mu_);
  auto it = async_ops_.find(h);
  if (it == async_ops_.end()) {
    return true;  // Unknown/consumed: Wait returns without blocking.
  }
  return it->second->state == AsyncOpState::kDone && it->second->ready_at_ns <= NowNs();
}

bool OpEngine::AllHandlesReady() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  for (const auto& entry : async_ops_) {
    if (entry.second->state != AsyncOpState::kDone || entry.second->ready_at_ns > NowNs()) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- retirement

void OpEngine::CommitAsyncAttr(AsyncOp* op) {
  if (!op->attr.active) {
    return;
  }
  const uint64_t e2e =
      op->ready_at_ns > op->attr.start_ns ? op->ready_at_ns - op->attr.start_ns : 0;
  inst_->node_->telemetry().latency().Commit(op->attr, e2e);
  op->attr.active = false;
}

void OpEngine::Retire(std::unique_lock<std::mutex>& lock, AsyncOp* op) {
  op->state = AsyncOpState::kRetiring;
  // Stamps made while retiring (retries, fences, the stale redo) belong to
  // the op being retired, not to whatever op the retiring thread carries.
  lt::telemetry::AttrAdoptScope adopt(&op->attr);
  SettleMemopLocked(lock, op);
  op->state = AsyncOpState::kDone;
  CommitAsyncAttr(op);
  FinishEngineOp(op->result.ok());
  --async_inflight_;
  async_cv_.notify_all();
}

void OpEngine::SettleMemopLocked(std::unique_lock<std::mutex>& lock, AsyncOp* op) {
  lt::telemetry::WqeLatBreakdown tail_lat;
  uint64_t tail_ready = 0;
  Status result = op->issue_error;
  uint64_t op_ready = 0;
  for (Wqe& wqe : op->wqes) {
    Status s = Status::Ok();
    if (!wqe.done) {
      AsyncStream* stream = wqe.post.ok() ? &async_streams_[{wqe.h.dst, wqe.h.slot}] : nullptr;
      if (stream != nullptr && wqe.wr.signaled) {
        // A signaled completion, error or not, fences every earlier position
        // on its stream.
        stream->signaled_pending.erase(wqe.stream_pos);
        if (wqe.stream_pos + 1 > stream->covered_pos) {
          stream->covered_pos = wqe.stream_pos + 1;
          stream->covered_ready_ns = std::max(stream->covered_ready_ns, wqe.cqe->ready_at_ns);
        }
      }
      if (stream == nullptr || (wqe.cqe.has_value() && !wqe.cqe->status.ok())) {
        // A failed post or an error completion settles like a blocking
        // piece: wait out the error, then retransmit when it is transient.
        auto c = Complete(wqe, op->pri);
        if (c.ok()) {
          wqe.done = true;
          wqe.ready_at_ns = c->ready_at_ns;
        } else {
          s = c.status();
        }
      } else if (wqe.cqe.has_value()) {
        wqe.done = true;
        wqe.ready_at_ns = wqe.cqe->ready_at_ns;
        if (wqe.ready_at_ns >= tail_ready) {
          tail_ready = wqe.ready_at_ns;
          tail_lat = wqe.cqe->lat;
        }
      } else if (stream->covered_pos > wqe.stream_pos) {
        // An unsignaled WQE that left no error completion succeeded; a
        // retired signaled completion past it already fenced it.
        wqe.done = true;
        wqe.ready_at_ns = stream->covered_ready_ns;
        async_inferred_->Inc();
      } else if (auto cover = stream->signaled_pending.lower_bound(wqe.stream_pos);
                 cover != stream->signaled_pending.end()) {
        // A later signaled WQE's completion, which its own op keeps, fences
        // this one whatever its status.
        const uint64_t cover_ready = cover->second.ready_at_ns;
        if (cover->first + 1 > stream->covered_pos) {
          stream->covered_pos = cover->first + 1;
          stream->covered_ready_ns = std::max(stream->covered_ready_ns, cover_ready);
        }
        wqe.done = true;
        wqe.ready_at_ns = cover_ready;
        if (cover_ready >= tail_ready) {
          tail_ready = cover_ready;
          tail_lat = cover->second.lat;
        }
        stream->signaled_pending.erase(cover);
        async_inferred_->Inc();
      } else {
        // No signaled WQE past ours: fence the stream with a zero-length
        // signaled write on the same QP.
        async_flush_fences_->Inc();
        Wqe fence;
        fence.h = wqe.h;
        fence.wr.opcode = WrOpcode::kWrite;
        fence.wr.length = 0;
        fence.wr.rkey = inst_->peer_global_rkey_[wqe.h.dst];
        fence.wr.signaled = true;
        fence.wr.wr_id = NextWrId();
        fence.post = PostGated(&fence);
        auto fc = Complete(fence, op->pri, /*pinned=*/true);
        if (fc.ok()) {
          stream->covered_pos = std::max(stream->covered_pos, stream->next_pos);
          stream->covered_ready_ns = std::max(stream->covered_ready_ns, fc->ready_at_ns);
          wqe.done = true;
          wqe.ready_at_ns = fc->ready_at_ns;
          async_inferred_->Inc();
        } else {
          // The data landed (no error CQE) but the fence could not
          // complete — report the fence's error; at-least-once holds.
          s = fc.status();
        }
      }
    }
    if (!s.ok() && result.ok()) {
      result = s;
    }
    if (wqe.done) {
      op_ready = std::max(op_ready, wqe.ready_at_ns);
    }
  }
  if (result.code() == lt::StatusCode::kStaleHome && op->origin_lh != 0) {
    // The LMR migrated mid-flight. Re-resolve its home and transparently
    // re-issue the whole memop (blocking). Exactly-once for the caller:
    // writes are idempotent re-copies, atomics never carry an origin. The
    // op stays kRetiring across the unlock, so no other thread consumes it.
    lock.unlock();
    Status redo = inst_->RedoMemopAfterStale(op->origin_lh, op->origin_off, op->origin_buf,
                                             op->origin_len, op->is_read, op->pri);
    lock.lock();
    result = redo;
    op_ready = std::max(op_ready, NowNs());
  }
  op->result = result;
  op->ready_at_ns = op_ready > 0 ? op_ready : NowNs();
  // Book the tail WQE's RNIC/fabric breakdown: reading a completion advances no
  // clock, so without this the transport time would all land in "other".
  if (tail_ready > 0) {
    AttrAdd(LatStage::kLatRnicLocal, tail_lat.rnic_local_ns);
    AttrAdd(LatStage::kLatPortQueue, tail_lat.port_queue_ns);
    AttrAdd(LatStage::kLatWire, tail_lat.wire_ns);
    AttrAdd(LatStage::kLatRnicRemote, tail_lat.rnic_remote_ns);
    AttrAdd(LatStage::kLatComplPoll, tail_lat.compl_ns);
  }
}

void OpEngine::RetireOrWait(std::unique_lock<std::mutex>& lock, AsyncOp* op) {
  if (op != nullptr && op->state == AsyncOpState::kInFlight) {
    Retire(lock, op);
  } else {
    async_cv_.wait(lock);
  }
}

Status OpEngine::ConsumeAsyncLocked(std::map<MemopHandle, std::unique_ptr<AsyncOp>>::iterator it) {
  AsyncOp* op = it->second.get();
  if (op->ready_at_ns > NowNs()) {
    SyncToBusy(op->ready_at_ns);
  }
  Status result = op->result;
  async_ops_.erase(it);
  return result;
}

// ------------------------------------------------------- public retirement

StatusOr<bool> OpEngine::Poll(MemopHandle h) {
  SpinFor(lt::kRnicCompletionNs);  // CQ poll cost; poll loops progress.
  std::unique_lock<std::mutex> lock(async_mu_);
  auto it = async_ops_.find(h);
  if (it == async_ops_.end()) {
    return Status::InvalidArgument("unknown or already-retired async handle");
  }
  AsyncOp* op = it->second.get();
  if (op->state == AsyncOpState::kRetiring) {
    return false;
  }
  if (op->state == AsyncOpState::kInFlight) {
    // Only a kDone op is ever consumed, so `it` outlives the retirement.
    RetireOrWait(lock, op);
  }
  if (NowNs() < op->ready_at_ns) {
    return false;  // Retired, but the completion hasn't arrived on our clock.
  }
  Status result = ConsumeAsyncLocked(it);
  if (!result.ok()) {
    return result;
  }
  return true;
}

Status OpEngine::Wait(MemopHandle h) {
  std::unique_lock<std::mutex> lock(async_mu_);
  while (true) {
    auto it = async_ops_.find(h);
    if (it == async_ops_.end()) {
      return Status::InvalidArgument("unknown or already-retired async handle");
    }
    if (it->second->state == AsyncOpState::kDone) {
      return ConsumeAsyncLocked(it);
    }
    RetireOrWait(lock, it->second.get());  // Re-find: another waiter may consume it.
  }
}

Status OpEngine::WaitAll(std::vector<std::pair<MemopHandle, Status>>* results) {
  Status first_error = Status::Ok();
  std::unique_lock<std::mutex> lock(async_mu_);
  while (!async_ops_.empty()) {
    auto it = async_ops_.begin();
    if (it->second->state != AsyncOpState::kDone) {
      RetireOrWait(lock, it->second.get());
      continue;
    }
    const MemopHandle h = it->first;
    Status s = ConsumeAsyncLocked(it);
    if (results != nullptr) {
      results->emplace_back(h, s);
    }
    if (!s.ok() && first_error.ok()) {
      first_error = s;
    }
  }
  return first_error;
}

size_t OpEngine::AsyncInFlight() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  return async_inflight_;
}

}  // namespace lite
