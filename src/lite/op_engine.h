// OpEngine — the single op-submission engine all three LITE data paths post
// through (paper Secs. 4, 6: one shared kernel path for memops and RPC).
//
// The engine owns the issue/retire pipeline: QP selection (via the pluggable
// Transport — RC QpManager or the DC shared pool, DESIGN.md §10),
// QP error recovery, transient-retry with backoff, QoS admission, journal
// and trace stamping, and the async stream/window/selective-signaling state.
// The three submitters:
//   * blocking memops — every LT_read/LT_write, whatever its piece count,
//     goes through SubmitPieces ("issue all pieces, wait all"). A one-piece
//     op is a plain post; more pieces overlap their chunk transfers across
//     nodes with doorbell batching and inline sends;
//   * async memops — IssueAsyncPieces posts every piece immediately and
//     returns a completion handle retired by Poll/Wait/WaitAll;
//   * RPC — ring posts and replies are OneSidedWriteImm calls and
//     head-mirror publishes are OneSidedWrite calls (both fire-and-forget),
//     so the send side shares the same QP/recovery spine (RPC-level
//     retransmits count into lite.engine.retries through CountRetry()).
// Blocking and async pieces share one local-piece copy, one gated post and
// one retransmit routine; QoS admits each remote WR once, at issue.
#ifndef SRC_LITE_OP_ENGINE_H_
#define SRC_LITE_OP_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/lite/transport.h"
#include "src/lite/types.h"
#include "src/node/node.h"
#include "src/telemetry/journal.h"

namespace lite {

using lt::Status;
using lt::StatusOr;

class LiteInstance;

class OpEngine {
 public:
  explicit OpEngine(LiteInstance* inst) : inst_(inst) {}

  OpEngine(const OpEngine&) = delete;
  OpEngine& operator=(const OpEngine&) = delete;

  // One piece of a (possibly multi-chunk) memop, as submitted to the engine:
  // a remote (node, addr) range paired with its user-buffer cursor.
  struct OpDesc {
    NodeId node = kInvalidNode;
    PhysAddr addr = 0;
    void* local = nullptr;
    uint64_t len = 0;
  };

  // ---- Fire-and-forget ring writes and atomics ----
  // Unsignaled ring traffic (RPC head-mirror publishes; requests and replies
  // are write-with-IMM): no CQE to wait on, so a drop surfaces as the RPC
  // layer's reply timeout. An errored QP is recovered before the post.
  Status OneSidedWrite(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len, Priority pri);
  Status OneSidedWriteImm(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len,
                          uint32_t imm, Priority pri);
  // Signaled fetch-add / compare-and-swap on an 8-byte word; dropped
  // attempts are retransmitted like any blocking piece.
  StatusOr<uint64_t> RemoteAtomic(NodeId dst, PhysAddr addr, bool is_cas, uint64_t compare_add,
                                  uint64_t swap);

  // ---- Blocking memops ("issue all pieces, wait all") ----
  // Posts every remote piece signaled before waiting on any, so pieces on
  // different chunks/nodes overlap on the wire; local pieces complete
  // inline. The piece count alone selects the post: one piece takes a plain
  // post (round-robin QP, no doorbell hint, no inline send — the calibrated
  // figures' path); two or more share one sticky QP per destination with
  // doorbell batching and inline writes. A failed piece is retransmitted
  // after a backoff, at most lite_rpc_max_retries times (recovering the QP
  // from its error state first). Returns the first error, after draining
  // every piece.
  Status SubmitPieces(const std::vector<OpDesc>& pieces, bool is_read, Priority pri);

  // ---- Async completion-handle pipeline ----
  // Issues one async memop's pieces (unsignaled + selective signaling, see
  // memops_async.cc) and returns its handle. Caller did lh/permission checks.
  // The origin fields describe the whole memop in lh space; when given, an op
  // that retires with kStaleHome is transparently re-resolved and re-issued
  // against the LMR's new home (LT_wait then returns the redo's status).
  // `reserved_handle` (ring path) registers the op under a handle already
  // handed to the caller by ReserveHandle(); 0 assigns a fresh one.
  StatusOr<MemopHandle> IssueAsyncPieces(const std::vector<OpDesc>& pieces, bool is_read,
                                         Priority pri, Lh origin_lh = 0, uint64_t origin_off = 0,
                                         void* origin_buf = nullptr, uint64_t origin_len = 0,
                                         MemopHandle reserved_handle = 0);
  // Pre-assigns a completion handle for an op whose registration is
  // deferred (per-CPU submission rings): the client returns the handle to
  // the application immediately; the drain registers the op under it.
  MemopHandle ReserveHandle() { return next_memop_handle_.fetch_add(1); }
  // Registers a reserved handle whose deferred op failed before issue (lh
  // died between enqueue and drain): Poll/Wait surface `result` for it.
  void InsertFailedHandle(MemopHandle h, const Status& result);
  // Crossing-free readiness checks against the shared completion state (the
  // user library reads the completion flag without entering the kernel). A
  // handle that no longer exists reads as ready: consuming it cannot block.
  bool HandleReady(MemopHandle h) const;
  bool AllHandlesReady() const;
  // Registers an already-sent single-attempt RPC as an async op retired
  // through the same handle machinery.
  StatusOr<MemopHandle> InsertAsyncRpc(uint32_t rpc_slot, void* out, uint32_t out_max,
                                       uint32_t* out_len, Priority pri);
  StatusOr<bool> Poll(MemopHandle h);
  Status Wait(MemopHandle h);
  Status WaitAll();
  // Per-handle variant: appends every retired handle's final status to
  // `results` (when non-null) so errors past the first are not swallowed.
  Status WaitAll(std::vector<std::pair<MemopHandle, Status>>* results);
  size_t AsyncInFlight() const;

  // Resolves the API timeout sentinels (types.h) and applies the hang-
  // backstop cap — the single home of the old duplicated clamp logic.
  uint64_t EffectiveTimeoutNs(uint64_t requested_ns) const;

  // RPC-level retransmits ride the engine spine too; RpcCall reports them
  // here so lite.engine.retries covers every transparent re-send.
  void CountRetry() {
    if (engine_retries_ != nullptr) {
      engine_retries_->Inc();
    }
  }

  // Engine op accounting (HealthWatchdog conservation invariant:
  // lite.engine.ops == ops_ok + ops_failed + in_flight). Every engine entry
  // point Begins exactly once and Finishes exactly once — blocking ops at
  // return, async ops when their state reaches kDone.
  void BeginEngineOp() {
    engine_ops_->Inc();
    engine_inflight_.fetch_add(1, std::memory_order_relaxed);
  }
  void FinishEngineOp(bool ok) {
    (ok ? engine_ops_ok_ : engine_ops_failed_)->Inc();
    engine_inflight_.fetch_sub(1, std::memory_order_relaxed);
  }

  // Registers the engine's lite.* instruments (constructor-time, via
  // LiteInstance::RegisterTelemetry; pointers cached for the hot path).
  void RegisterTelemetry(lt::telemetry::Registry& reg, lt::telemetry::Journal* journal);

 private:
  // One remote WR from issue to retirement — a blocking piece, an async
  // WQE, an atomic or a flush fence. Async local pieces ride along as
  // entries that are done at issue.
  struct Wqe {
    TransportHandle h;         // Leased transport slot (dst + pool slot).
    lt::WorkRequest wr;        // Retained so a failed WQE can be re-posted.
    Status post = Status::Ok();  // Issue-time post outcome (gate NACK, QP race).
    bool signaled = false;
    uint64_t stream_pos = 0;
    bool done = false;         // Local pieces complete at issue time.
    uint64_t ready_at_ns = 0;
  };
  enum class AsyncOpState { kInFlight, kRetiring, kDone };
  struct AsyncOp {
    MemopHandle id = 0;
    AsyncOpState state = AsyncOpState::kInFlight;
    bool is_rpc = false;
    Priority pri = Priority::kHigh;
    std::vector<Wqe> wqes;            // Memop ops.
    uint32_t rpc_slot = 0;            // RPC ops: reply rendezvous + output.
    void* rpc_out = nullptr;
    uint32_t rpc_out_max = 0;
    uint32_t* rpc_out_len = nullptr;
    Status result = Status::Ok();     // Valid once state == kDone.
    uint64_t ready_at_ns = 0;
    // Origin of the memop in lh space (see IssueAsyncPieces): enables the
    // transparent stale-home redo at retirement. origin_lh == 0 disables it.
    Lh origin_lh = 0;
    uint64_t origin_off = 0;
    void* origin_buf = nullptr;
    uint64_t origin_len = 0;
    bool origin_is_read = false;
    // Error decided at issue time (e.g. a local piece NACKed by the
    // migration gate); folded into the result at retirement.
    Status issue_error = Status::Ok();
    // Latency attribution record detached from the issuing API scope;
    // committed when the op retires (latency_attr.h).
    lt::telemetry::OpAttrRecord attr;
  };
  // Per-(destination, QP) selective-signaling stream: which positions have a
  // harvested covering CQE, and which signaled WQEs are still pending.
  struct AsyncStream {
    uint64_t next_pos = 0;
    uint64_t covered_pos = 0;       // Positions < covered_pos are fenced.
    uint64_t covered_ready_ns = 0;  // Virtual time the fence completed.
    std::map<uint64_t, uint64_t> signaled_pending;  // stream_pos -> wr_id
  };

  uint64_t NextWrId() { return next_wr_id_.fetch_add(1); }

  // ---- The shared issue path (blocking pieces and async WQEs alike) ----
  // QoS admission of one remote WR; books the wait as qos_wait.
  void Admit(Priority pri, uint64_t bytes);
  // Copies a local piece inline, gated against this node's own migration
  // guard (a NACK is returned, nothing copied).
  Status CopyLocalPiece(const OpDesc& piece, bool is_read);
  // Admits `wr` through QoS and leases its slot: sticky when `batched` (so
  // pipelined posts share doorbells, and writes go inline), round-robin
  // otherwise. Fills the rkey and a fresh wr_id; the caller posts it with
  // PostGated.
  Wqe LeaseRemote(NodeId dst, Priority pri, bool batched, const lt::WorkRequest& wr);
  // The gated post: the destination's migration gate (data WRs only), then
  // Prepare and PostSend under the slot mutex. kStaleHome means the LMR
  // left the destination; no QP, a busy fence and a QP race are Retryable.
  Status PostGated(const TransportHandle& h, lt::WorkRequest* wr);
  // Waits for `wr_id`'s CQE; a missing CQE is a Timeout.
  StatusOr<lt::Completion> Await(const TransportHandle& h, uint64_t wr_id);
  // Waits for an issued WR and hands a transient failure to Retransmit.
  // `pinned` keeps every re-post on w.h (async flush fences).
  StatusOr<lt::Completion> Complete(const Wqe& w, Priority pri, bool pinned = false);
  // The one retransmit routine: re-posts `w` signaled, backing off
  // lite_rpc_retry_backoff_ns (doubling) before every attempt, at most
  // lite_rpc_max_retries times; fails fast once the peer is marked dead.
  // Returns the successful completion, or the last error.
  StatusOr<lt::Completion> Retransmit(const Wqe& w, Priority pri, Status last, bool pinned);
  // Fire-and-forget post of ring traffic (no gate, no CQE).
  Status PostRingWrite(NodeId dst, Priority pri, lt::WorkRequest wr);

  // Bodies of the blocking entry points; the public wrappers add the
  // Begin/Finish engine-op accounting around them.
  Status OneSidedWriteImmImpl(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len,
                              uint32_t imm, Priority pri);
  StatusOr<uint64_t> RemoteAtomicImpl(NodeId dst, PhysAddr addr, bool is_cas,
                                      uint64_t compare_add, uint64_t swap);
  Status SubmitPiecesImpl(const std::vector<OpDesc>& pieces, bool is_read, Priority pri);

  // Commits a retired async op's attribution record (no-op when inactive).
  void CommitAsyncAttr(AsyncOp* op);

  // Re-posts a failed async WQE through Retransmit; marks it done on success.
  Status ResendAsyncWqe(AsyncOp* op, Wqe* wqe, Status last);
  // Retires an RPC-kind op; drops the lock around the reply wait (the reply
  // is delivered by the poll thread, which never takes async_mu_).
  void RetireRpcUnlocked(std::unique_lock<std::mutex>& lock, AsyncOp* op);
  // Retires `op` (state must be kRetiring; async_mu_ held via `lock`):
  // harvests or infers each WQE's completion, re-posting failed WQEs
  // through Retransmit, then marks the op kDone. A
  // kStaleHome result with a known origin drops the lock and re-issues the
  // whole memop against the LMR's new home (exactly-once for the caller).
  void RetireMemopLocked(std::unique_lock<std::mutex>& lock, AsyncOp* op);
  // Retires the oldest in-flight op (backpressure path). Waits on the cv if
  // every outstanding op is already being retired by another thread.
  void RetireOldestLocked(std::unique_lock<std::mutex>& lock);
  // Finds a completion for `wr_id`: the shared harvest map first, then the
  // CQ itself (async CQEs exist from post time; only ready_at is future).
  std::optional<lt::Completion> TakeAsyncCompletionLocked(lt::Cq* cq, uint64_t wr_id);
  // Consumes a kDone op's result (erases the record).
  Status ConsumeAsyncLocked(std::map<MemopHandle, std::unique_ptr<AsyncOp>>::iterator it);

  LiteInstance* const inst_;

  std::atomic<uint64_t> next_wr_id_{1};

  // Async completion-handle state (the completion ring). One mutex covers
  // the op table, the signaling streams, and the harvest map; the cv wakes
  // window-full issuers and waiters racing a concurrent retirer.
  mutable std::mutex async_mu_;
  std::condition_variable async_cv_;
  std::map<MemopHandle, std::unique_ptr<AsyncOp>> async_ops_;  // Oldest first.
  std::atomic<uint64_t> next_memop_handle_{1};
  size_t async_inflight_ = 0;  // Ops not yet kDone.
  std::map<std::pair<NodeId, int>, AsyncStream> async_streams_;
  std::unordered_map<uint64_t, lt::Completion> async_harvested_;  // wr_id -> CQE

  // Telemetry instruments (owned by the node's registry; cached pointers so
  // the hot path never does a name lookup).
  lt::telemetry::Counter* engine_ops_ = nullptr;
  lt::telemetry::Counter* engine_ops_ok_ = nullptr;
  lt::telemetry::Counter* engine_ops_failed_ = nullptr;
  std::atomic<int64_t> engine_inflight_{0};
  lt::telemetry::Counter* engine_pieces_overlapped_ = nullptr;
  lt::telemetry::Counter* engine_retries_ = nullptr;
  lt::telemetry::Counter* oneside_retries_ = nullptr;
  lt::telemetry::Counter* unsignaled_recovered_ = nullptr;
  // Async fast-path instruments (docs/TELEMETRY.md, "Async fast path").
  lt::telemetry::Counter* async_ops_issued_ = nullptr;
  lt::telemetry::Counter* async_inferred_ = nullptr;
  lt::telemetry::Counter* async_flush_fences_ = nullptr;
  lt::telemetry::Journal* journal_ = nullptr;
};

}  // namespace lite

#endif  // SRC_LITE_OP_ENGINE_H_
