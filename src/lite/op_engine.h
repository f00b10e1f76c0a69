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
//     returns a completion handle. Every handle (an async memop, or a ring
//     memop that failed before issue) registers in Register and retires in
//     Retire;
//   * RPC — ring posts and replies are OneSidedWriteImm calls and
//     head-mirror publishes are OneSidedWrite calls (both fire-and-forget),
//     so the send side shares the same QP/recovery spine, and a client
//     call's re-sends take the engine's one backoff step (Backoff).
// Blocking and async pieces share one local-piece copy, one gated post and
// one retransmit routine; QoS admits each remote WR once, at issue. One
// completion rule holds for every WQE the engine posts: the call that posts
// it takes its completion off the send CQ (the RNIC queues it before
// PostSend returns), and whoever settles the WQE waits out its ready time.
#ifndef SRC_LITE_OP_ENGINE_H_
#define SRC_LITE_OP_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "src/common/inline_vector.h"
#include "src/common/status.h"
#include "src/lite/transport.h"
#include "src/lite/types.h"
#include "src/node/node.h"
#include "src/telemetry/journal.h"

namespace lite {

using lt::Status;
using lt::StatusOr;

class LiteInstance;

// Async memops in flight per instance; registering past it retires the
// oldest in-flight op first (window-full backpressure).
inline constexpr size_t kAsyncWindow = 64;

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
  // The pieces of one memop: in place for one or two (LiteInstance::SliceDescs).
  using OpDescs = lt::InlineVector<OpDesc, 2>;

  // ---- Fire-and-forget ring writes and atomics ----
  // Unsignaled ring traffic (RPC head-mirror publishes; requests and replies
  // are write-with-IMM): the post takes and drops the error CQE a drop
  // leaves, and the loss surfaces as the RPC layer's reply timeout. An
  // errored QP is recovered before the post.
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
  Status SubmitPieces(std::span<const OpDesc> pieces, bool is_read, Priority pri);

  // ---- Async completion-handle pipeline ----
  // Registers one async memop, whose pieces go out unsignaled with
  // selective signaling, and returns its handle. Caller did lh/permission
  // checks. The origin fields describe the whole memop in lh space; when
  // given, an op that retires with kStaleHome is transparently re-resolved
  // and re-issued against the LMR's new home (LT_wait then returns the
  // redo's status). `reserved_handle` (ring path) registers the op under a
  // handle already handed to the caller by ReserveHandle(); 0 assigns a
  // fresh one.
  MemopHandle IssueAsyncPieces(std::span<const OpDesc> pieces, bool is_read, Priority pri,
                               Lh origin_lh = 0, uint64_t origin_off = 0,
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
  StatusOr<bool> Poll(MemopHandle h);
  Status Wait(MemopHandle h);
  // Retires every outstanding op and returns the first error. When
  // `results` is given, every retired handle's final status is appended to
  // it, so errors past the first are not swallowed.
  Status WaitAll(std::vector<std::pair<MemopHandle, Status>>* results = nullptr);
  size_t AsyncInFlight() const;

  // Resolves the API timeout sentinels (types.h) and applies the hang-
  // backstop cap — the single home of the old duplicated clamp logic.
  uint64_t EffectiveTimeoutNs(uint64_t requested_ns) const;

  // What a transparent re-send re-sends: a client call's request
  // (lite.rpc.retries; journal rpc_retry with the backoff) or a WQE
  // (lite.oneside.retries; journal oneside_retry with the attempt number).
  enum class Resend { kRpcAttempt, kWqe };
  // The one backoff step before every transparent re-send: counts re-send
  // `attempt` (1-based) as `kind` and in lite.engine.retries, idles
  // `*backoff_ns` (booked as a detour, then doubled for the next one) and
  // journals it. Then, when `fail_fast_dead` and `dst` is marked dead, it
  // counts lite.rpc.dead_fast_fail and returns Unavailable: nothing is
  // re-sent.
  Status Backoff(Resend kind, NodeId dst, uint32_t attempt, uint64_t* backoff_ns,
                 bool fail_fast_dead);

  // Registers the engine's lite.* instruments (constructor-time, via
  // LiteInstance::RegisterTelemetry; pointers cached for the hot path).
  void RegisterTelemetry(lt::telemetry::Registry& reg, lt::telemetry::Journal* journal);

 private:
  // One remote WR from issue to retirement — a blocking piece, an async
  // WQE, an atomic, a flush fence or a re-post. Async local pieces ride
  // along as entries that are done at issue.
  struct Wqe {
    TransportHandle h;         // Leased transport slot (dst + pool slot).
    lt::WorkRequest wr;        // Retained so a failed WQE can be re-posted.
    Status post = Status::Ok();  // Issue-time post outcome (gate NACK, QP race).
    // The completion its post took off the send CQ: a signaled WR's always,
    // an unsignaled one's only when it failed.
    std::optional<lt::Completion> cqe;
    uint64_t stream_pos = 0;
    bool done = false;         // Local pieces complete at issue time.
    uint64_t ready_at_ns = 0;
  };
  enum class AsyncOpState { kInFlight, kRetiring, kDone };
  struct AsyncOp {
    AsyncOpState state = AsyncOpState::kInFlight;
    bool is_read = false;             // Direction of every piece.
    Priority pri = Priority::kHigh;
    std::vector<Wqe> wqes;
    Status result = Status::Ok();     // Valid once state == kDone.
    uint64_t ready_at_ns = 0;
    // Origin of the memop in lh space (see IssueAsyncPieces): enables the
    // transparent stale-home redo at retirement. origin_lh == 0 disables it.
    Lh origin_lh = 0;
    uint64_t origin_off = 0;
    void* origin_buf = nullptr;
    uint64_t origin_len = 0;
    // Error decided at issue time (e.g. a local piece NACKed by the
    // migration gate); folded into the result at retirement.
    Status issue_error = Status::Ok();
    // Latency attribution record detached from the issuing API scope;
    // committed when the op retires (latency_attr.h).
    lt::telemetry::OpAttrRecord attr;
  };
  // Per-(destination, QP) selective-signaling stream: which positions a
  // retired signaled CQE covers, and the completions of the signaled WQEs
  // not yet retired (read, never taken, by the WQEs they cover).
  struct AsyncStream {
    uint64_t next_pos = 0;
    uint64_t covered_pos = 0;       // Positions < covered_pos are fenced.
    uint64_t covered_ready_ns = 0;  // Virtual time the fence completed.
    std::map<uint64_t, lt::Completion> signaled_pending;  // stream_pos -> CQE
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
  // The gated post of `w`: the destination's migration gate (data WRs only),
  // then Prepare, PostSend and the take of the WQE's completion into w->cqe
  // under the slot mutex (PostSend queues every completion before it
  // returns). Returns the post's status: kStaleHome means the LMR left the
  // destination; no QP, a busy fence and a QP race are Retryable.
  Status PostGated(Wqe* w);
  // Settles a posted WQE: a failed post is its result; otherwise busy-waits
  // until the completion its post took is ready, booking the wait as the
  // WQE's transport split on success or as a detour on error.
  StatusOr<lt::Completion> Await(const Wqe& w);
  // Awaits a posted WQE and hands a transient failure to Retransmit.
  // `pinned` keeps every re-post on w.h (async flush fences).
  StatusOr<lt::Completion> Complete(const Wqe& w, Priority pri, bool pinned = false);
  // The one retransmit routine: re-posts `w` signaled, taking Backoff
  // before every attempt, at most lite_rpc_max_retries times; fails fast
  // once the peer is marked dead.
  // Returns the successful completion, or the last error.
  StatusOr<lt::Completion> Retransmit(const Wqe& w, Priority pri, Status last, bool pinned);
  // Fire-and-forget post of ring traffic (no gate; a drop's error CQE is
  // taken and dropped).
  Status PostRingWrite(NodeId dst, Priority pri, lt::WorkRequest wr);

  // Engine op accounting (HealthWatchdog conservation invariant:
  // lite.engine.ops == ops_ok + ops_failed + in_flight). Every op Begins
  // exactly once and Finishes exactly once: a blocking op around its body
  // (Blocking), an async op at registration and when it reaches kDone.
  void BeginEngineOp() {
    engine_ops_->Inc();
    engine_inflight_.fetch_add(1, std::memory_order_relaxed);
  }
  void FinishEngineOp(bool ok) {
    (ok ? engine_ops_ok_ : engine_ops_failed_)->Inc();
    engine_inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
  // Runs a blocking entry point's `body` as one counted engine op.
  template <typename Body>
  auto Blocking(Body&& body);

  // Commits a done async op's attribution record (no-op when inactive).
  void CommitAsyncAttr(AsyncOp* op);

  // The one registration: counts the engine op and lite.async.ops, passes
  // an op that may enter flight through the window (backpressure), posts
  // its `pieces` and files it under `reserved` (0 takes a fresh id). The
  // caller's attribution record moves into the op, which commits it at once
  // when the op is done at entry (all pieces local, or a failed ring op).
  MemopHandle Register(std::unique_ptr<AsyncOp> op, std::span<const OpDesc> pieces,
                       MemopHandle reserved);
  // The one retirement (async_mu_ held via `lock`; `op` in flight): settles
  // the memop (SettleMemopLocked), then commits the record, finishes the
  // engine op and wakes waiters.
  void Retire(std::unique_lock<std::mutex>& lock, AsyncOp* op);
  // A memop's result and ready time: reads each WQE's own completion or
  // infers it from a later signaled one on its stream (a flush fence when
  // there is none). A failed post or an error completion settles through
  // Complete, like a blocking piece. A kStaleHome result with a known origin
  // drops the lock and re-issues the whole memop against the LMR's new home
  // (exactly-once for the caller).
  void SettleMemopLocked(std::unique_lock<std::mutex>& lock, AsyncOp* op);
  // The step Poll, Wait, WaitAll and the window take toward an op's kDone:
  // retires `op` when it is in flight, else waits for the retirement
  // another thread is running (the window passes null when every
  // outstanding op is being retired).
  void RetireOrWait(std::unique_lock<std::mutex>& lock, AsyncOp* op);
  // Consumes a kDone op's result (erases the record).
  Status ConsumeAsyncLocked(std::map<MemopHandle, std::unique_ptr<AsyncOp>>::iterator it);

  LiteInstance* const inst_;

  std::atomic<uint64_t> next_wr_id_{1};

  // Async completion-handle state (the completion ring). One mutex covers
  // the op table and the signaling streams; the cv wakes window-full
  // issuers and waiters racing a concurrent retirer.
  mutable std::mutex async_mu_;
  std::condition_variable async_cv_;
  std::map<MemopHandle, std::unique_ptr<AsyncOp>> async_ops_;  // Oldest first.
  std::atomic<uint64_t> next_memop_handle_{1};
  size_t async_inflight_ = 0;  // Ops not yet kDone.
  std::map<std::pair<NodeId, int>, AsyncStream> async_streams_;

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
