// LiteInstance — one per node; the reproduction of the paper's loadable
// kernel module. A facade composing the pluggable Transport (RC QpManager
// or DC shared pool — DESIGN.md §10, paper Sec. 6.1), LmrTable (LMR
// registry + lh table + name service, Sec. 4.1),
// and OpEngine (the single op-submission engine all three data paths post
// through), plus the parts it still owns directly: the global physical MR
// (one MPT entry, zero MTT pressure — Sec. 4.1), the shared receive-CQ
// polling thread (Sec. 5.1), the RPC stack (server rings and reply slots —
// see rpc_state.h), the lock/barrier services, and the QoS manager.
// Kernel-level applications call LiteInstance directly; user-level ones go
// through LiteClient, which adds the user/kernel crossing costs (Sec. 5.2).
#ifndef SRC_LITE_INSTANCE_H_
#define SRC_LITE_INSTANCE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/cpu_meter.h"
#include "src/common/inline_vector.h"
#include "src/common/service_timeline.h"
#include "src/common/status.h"
#include "src/common/sync_util.h"
#include "src/lite/lmr_table.h"
#include "src/lite/migration.h"
#include "src/lite/op_engine.h"
#include "src/lite/qos.h"
#include "src/lite/rpc_state.h"
#include "src/lite/transport.h"
#include "src/lite/types.h"
#include "src/node/node.h"

namespace lite {

using lt::BlockingQueue;
using lt::Status;
using lt::StatusOr;

class LiteInstance;
class SubmissionRings;     // Per-CPU submission/completion rings (ring.h).
struct RingDeferredOp;
struct RingDrainCache;

// Serialized internal control-RPC payload (see wire.h).
using WireWriterBytes = std::vector<uint8_t>;

// Options for LT_malloc.
struct MallocOptions {
  // Nodes to place the LMR on; chunks are distributed round-robin. Empty
  // means "this node".
  std::vector<NodeId> nodes;
  uint32_t default_perm = kPermRead | kPermWrite;
};

// Identifies a distributed lock (an 8-byte word in an internal LMR at its
// owner node, paper Sec. 7.2).
struct LockId {
  NodeId owner = kInvalidNode;
  PhysAddr addr = 0;
  bool valid() const { return owner != kInvalidNode; }
};

// Uniform Status for an op addressed to a peer the liveness service marked
// dead. Every path — blocking memop, async retire, RPC — reports this same
// code + message shape, so callers can match on one value.
inline Status DeadPeerUnavailable() {
  return Status::Unavailable("peer marked dead by liveness service");
}

// Redirect attempts after a kStaleHome NACK before giving up (each attempt
// re-resolves the home through the old home's tombstone or the manager).
constexpr int kMaxStaleRedirects = 4;

class LiteInstance {
 public:
  LiteInstance(lt::Node* node, NodeId manager_node);
  ~LiteInstance();

  LiteInstance(const LiteInstance&) = delete;
  LiteInstance& operator=(const LiteInstance&) = delete;

  NodeId node_id() const { return node_->id(); }
  lt::Node* node() const { return node_; }
  const lt::SimParams& params() const { return node_->params(); }
  uint32_t global_rkey() const { return global_rkey_; }

  // ---- Cluster wiring (LiteCluster calls these during setup) ----
  void ConnectPeer(LiteInstance* peer);  // Records peer + its global rkey.
  void CreateQueuePairs();               // Builds the transport's QP state.
  // RC-only pool access for cluster pairing (null under other transports).
  lt::Qp* PoolQp(NodeId dst, int k) { return transport_->PoolQp(dst, k); }
  // DC-only: this node's target QPN (remote initiators attach to it).
  uint32_t DctQpn() const { return transport_->TargetQpn(); }
  // Control-ring setup to `server` (bootstrap; no simulated cost).
  // ResourceExhausted when no mirror word or server ring can be allocated.
  Status BootstrapControlChannel(LiteInstance* server);
  void Start();  // Launches service threads.
  void Stop();

  // ================= Memory API (paper Table 1) =================
  // LT_malloc: allocates an LMR, names it, makes the caller its master.
  StatusOr<Lh> Malloc(uint64_t size, const std::string& name, const MallocOptions& options = {});
  // LT_free: master-only; frees storage and invalidates all mappings.
  Status Free(Lh lh);
  // LT_map: acquires an lh for a named LMR from its master.
  StatusOr<Lh> Map(const std::string& name, uint32_t want_perm = kPermRead | kPermWrite);
  // LT_unmap: drops a mapping.
  Status Unmap(Lh lh);
  // Size of the LMR behind a handle.
  StatusOr<uint64_t> LmrSize(Lh lh) const;
  // Chunk placement behind a handle (introspection for apps/tests).
  StatusOr<std::vector<LmrChunk>> LmrChunks(Lh lh) const;
  // LT_read / LT_write: one-sided data access; return when data is
  // read/written (paper Sec. 4.2). Multi-chunk accesses overlap their
  // pieces across chunks/nodes via the op engine; single-piece accesses
  // keep the minimal-latency blocking path.
  Status Read(Lh lh, uint64_t offset, void* buf, uint64_t len, Priority pri = Priority::kHigh);
  Status Write(Lh lh, uint64_t offset, const void* buf, uint64_t len,
               Priority pri = Priority::kHigh);

  // ---- Asynchronous memops (the RDMA-throughput fast path) ----
  // LT_read_async / LT_write_async issue the op and return a completion
  // handle immediately; the caller's buffer must stay valid until the handle
  // is retired. Up to kAsyncWindow (op_engine.h) ops may be in flight per
  // instance; issuing past the window transparently retires the oldest
  // outstanding op first. Posting strategy and retry/fault semantics live in
  // the op engine — see op_engine.h.
  StatusOr<MemopHandle> ReadAsync(Lh lh, uint64_t offset, void* buf, uint64_t len,
                                  Priority pri = Priority::kHigh);
  StatusOr<MemopHandle> WriteAsync(Lh lh, uint64_t offset, const void* buf, uint64_t len,
                                   Priority pri = Priority::kHigh);
  // LT_poll: non-blocking probe. Ok(true) = completed (handle consumed);
  // Ok(false) = in flight; an error is the op's final status (consumed).
  StatusOr<bool> Poll(MemopHandle h) { return engine_.Poll(h); }
  // LT_wait: blocks until the op completes; returns its final status and
  // consumes the handle.
  Status Wait(MemopHandle h) { return engine_.Wait(h); }
  // LT_wait_all: retires every outstanding async op of this instance
  // (consuming their handles) and returns the first error, if any. When
  // `results` is given, every retired handle's final status is appended to
  // it — errors past the first are not swallowed (a dead home fails each
  // affected op with the same shape).
  Status WaitAll(std::vector<std::pair<MemopHandle, Status>>* results = nullptr) {
    return engine_.WaitAll(results);
  }
  // Outstanding (not yet retired) async ops.
  size_t AsyncInFlight() const { return engine_.AsyncInFlight(); }
  // Crossing-free readiness checks against the shared completion flag (the
  // user library reads it without entering the kernel; see LiteClient).
  bool AsyncHandleReady(MemopHandle h) const { return engine_.HandleReady(h); }
  bool AsyncAllReady() const { return engine_.AllHandlesReady(); }
  // Per-CPU submission/completion rings (DESIGN.md §9); null unless
  // SimParams::lite_ring_enable. LiteClient routes data-path ops through
  // them when present.
  SubmissionRings* rings() const { return cpu_rings_.get(); }
  // LT_memset / LT_memcpy / LT_memmove: executed at the node holding the
  // source/target LMR to minimize network traffic (paper Sec. 7.1).
  Status Memset(Lh lh, uint64_t offset, uint8_t value, uint64_t len,
                Priority pri = Priority::kHigh);
  Status Memcpy(Lh dst, uint64_t dst_off, Lh src, uint64_t src_off, uint64_t len,
                Priority pri = Priority::kHigh);
  Status Memmove(Lh dst, uint64_t dst_off, Lh src, uint64_t src_off, uint64_t len,
                 Priority pri = Priority::kHigh);

  // ---- Master-role management (paper Sec. 4.1) ----
  Status SetPermission(const std::string& name, NodeId grantee, uint32_t perm);
  Status GrantMaster(const std::string& name, NodeId new_master);

  // ---- Live LMR migration (DESIGN.md "Epoch-fenced ownership") ----
  // Coordinator-side observables of one migration (bench/test introspection;
  // only filled when the caller is the LMR's home, i.e. coordinates locally).
  struct MigrateStats {
    uint64_t rounds = 0;        // Converge re-copy rounds run.
    uint64_t bytes_copied = 0;  // Mirror + converge + fence bytes shipped.
    uint64_t dirty_bytes = 0;   // Bytes re-copied due to concurrent writes.
    uint64_t fence_start_ns = 0;  // Virtual time the epoch fence began.
    uint64_t commit_ns = 0;       // Virtual time ownership flipped (0 = aborted).
  };
  // LT_migrate: moves the named LMR — data, masters, permission metadata —
  // to `new_home` under live traffic. Ops hitting the LMR keep completing
  // during the copy (writes are dirty-logged and re-copied); a short epoch
  // fence parks them around the ownership flip. On any failure the LMR
  // cleanly stays at (or reverts to) its source. Routed to the current home.
  Status Migrate(const std::string& name, NodeId new_home, MigrateStats* stats = nullptr);
  // LT_drain_node: migrates every LMR hosted at `victim` to the other alive
  // nodes (round-robin). `moved`, if given, returns the number migrated.
  Status DrainNode(NodeId victim, uint64_t* moved = nullptr);
  MigrationState& migration() { return migration_; }

  // ---- Cluster-manager recovery (paper Sec. 3.3) ----
  // Rebuilds the name service from every node's LMR metadata registry; the
  // manager's state is fully reconstructible after a failure restart. Only
  // meaningful on the manager node. Peers the liveness service currently
  // marks dead are skipped (their names resurface on their next rebuild).
  Status RebuildNameService();
  // Test hook: wipes the name service to simulate a manager restart.
  void ClearNameServiceForTest() { lmrs_.ClearNames(); }

  // ---- Liveness (keepalive/lease with the cluster manager) ----
  // Non-manager instances renew a lease every lite_keepalive_interval_ns;
  // the manager expires leases after lite_lease_timeout_ns and piggybacks
  // the dead list on keepalive replies. Ops to dead-marked targets fail
  // fast with Unavailable.
  bool PeerDead(NodeId node) const {
    return node < peer_dead_n_ && peer_dead_[node].load(std::memory_order_relaxed) != 0;
  }
  // Marks/unmarks a peer dead locally (the liveness service's dissemination
  // path; also a hook for failure tests).
  void SetPeerDead(NodeId node, bool dead);

  // ================= RPC / messaging API =================
  //
  // Timeout convention (every timeout_ns below): kDefaultTimeout (0) means
  // lite_rpc_timeout_ns; kInfiniteTimeout (~0ull) waits forever (capped at
  // one hour of real time as a hang backstop); else a real-time ns bound.
  //
  // Failure semantics: a call to a dead-marked target fails fast with
  // Unavailable; no reply within the timeout (after lite_rpc_max_retries
  // transparent retries with backoff) returns Timeout. Retries carry
  // per-channel sequence numbers and the server dedups + replays cached
  // replies, so a handler never double-executes.
  //
  // Application function ids are 0..kMaxAppFuncId; the calls below reject
  // any other id with InvalidArgument (LITE's own functions live above).
  //
  // LT_regRPC: registers an RPC function id served on this node.
  Status RegisterRpc(RpcFuncId func);
  // LT_RPC: calls (server_node, func); blocks for the reply.
  Status Rpc(NodeId server_node, RpcFuncId func, const void* in, uint32_t in_len, void* out,
             uint32_t out_max, uint32_t* out_len, Priority pri = Priority::kHigh);
  // LT_multicastRPC (extension, paper Sec. 8.4): same call to many servers.
  // Every member's request goes out before any reply is awaited, and each
  // member retries, dedups and fails fast on a dead peer as Rpc does.
  Status MulticastRpc(const std::vector<NodeId>& servers, RpcFuncId func, const void* in,
                      uint32_t in_len, std::vector<std::vector<uint8_t>>* replies);
  // LT_recvRPC: receives the next call for `func` (blocking).
  StatusOr<RpcIncoming> RecvRpc(RpcFuncId func, uint64_t timeout_ns = kInfiniteTimeout);
  // LT_replyRPC: replies to a received call.
  Status ReplyRpc(const ReplyToken& token, const void* data, uint32_t len);
  // Combined reply+receive (paper Sec. 5.2 optional API).
  StatusOr<RpcIncoming> ReplyAndRecv(const ReplyToken& token, const void* data, uint32_t len,
                                     RpcFuncId func, uint64_t timeout_ns = kInfiniteTimeout);
  // LT_send / message receive.
  Status SendMsg(NodeId dst, const void* data, uint32_t len, Priority pri = Priority::kHigh);
  StatusOr<MsgIncoming> RecvMsg(uint64_t timeout_ns = kInfiniteTimeout);

  // ================= Synchronization API =================
  // LT_fetch-add / LT_test-set on 8-byte LMR words.
  StatusOr<uint64_t> FetchAdd(Lh lh, uint64_t offset, uint64_t delta);
  StatusOr<uint64_t> TestSet(Lh lh, uint64_t offset, uint64_t expected, uint64_t desired);
  // Distributed locks (paper Sec. 7.2): fetch-add fast path, FIFO wait queue
  // at the lock's owner node on contention.
  StatusOr<LockId> CreateLock(const std::string& name);
  StatusOr<LockId> OpenLock(const std::string& name);
  Status Lock(const LockId& lock);
  Status Unlock(const LockId& lock);
  // LT_barrier: blocks until `expected` participants arrive (service at the
  // cluster manager node).
  Status Barrier(const std::string& name, uint32_t expected);

  // ================= QoS =================
  QosManager& qos() { return qos_; }

  // Chunk math: maps [offset, offset+len) of an LMR onto per-chunk pieces.
  // An access within one chunk or across one boundary keeps its pieces in
  // place (no heap).
  struct ChunkPiece {
    NodeId node;
    PhysAddr addr;
    uint64_t user_off;  // Offset within the user buffer.
    uint64_t len;
  };
  using ChunkPieces = lt::InlineVector<ChunkPiece, 2>;
  static ChunkPieces SliceChunks(const std::vector<LmrChunk>& chunks, uint64_t offset,
                                 uint64_t len);
  // The same slicing as engine pieces, each paired with its cursor into
  // `buf` (the user buffer that covers [offset, offset+len)).
  static OpEngine::OpDescs SliceDescs(const std::vector<LmrChunk>& chunks, uint64_t offset,
                                      uint64_t len, void* buf);

  // ---- Introspection (tests / benches) ----
  size_t qp_pool_size() const { return transport_->TotalQps(); }
  Transport& transport() { return *transport_; }
  uint64_t poll_thread_cpu_ns() const { return poll_cpu_.TotalCpuNs(); }
  size_t lh_count() const { return lmrs_.lh_count(); }
  uint64_t rpc_ring_bytes_in_use() const;

  // LT_stat (paper's kernel-visibility story made queryable): one named
  // metric, or the whole per-node snapshot.
  int64_t Stat(const std::string& name) const {
    return StatSnapshot().ValueOr(name);
  }
  lt::telemetry::MetricsSnapshot StatSnapshot() const {
    return node_->telemetry().registry().Snapshot();
  }

 private:
  friend class LiteClient;
  friend class OpEngine;
  friend class SubmissionRings;

  // RPC-stack state structures (RpcChannel, ServerRing, ReplySlot,
  // RpcReqHeader, LockQueue, BarrierState) live in rpc_state.h.

  // A control handler's outcome, which InternalWorkerLoop sends back as the
  // [u32 status code | payload] reply. The lock and barrier services park
  // the caller's token instead (Deferred) and answer it later through
  // ReplyControl.
  struct Reply {
    Reply(lt::StatusCode c = lt::StatusCode::kOk) : code(c) {}  // NOLINT(implicit)
    Reply(WireWriterBytes p) : payload(std::move(p)) {}          // NOLINT(implicit)
    static Reply Deferred() {
      Reply r;
      r.deferred = true;
      return r;
    }
    lt::StatusCode code = lt::StatusCode::kOk;
    WireWriterBytes payload;
    bool deferred = false;
  };
  using InternalHandler = std::function<Reply(LiteInstance*, const RpcIncoming&)>;

  // ---------------- internals ----------------
  lt::Rnic& rnic() const { return node_->rnic(); }
  LiteInstance* Peer(NodeId node) const;

  // One-sided posting has no forwarders: every call site posts through
  // engine_ directly (op_engine.h owns QP selection, recovery, retry).

  // One lh a data-path memop touches, the access it needs, and where its
  // resolved entry goes.
  struct LhAccess {
    Lh lh;
    uint64_t offset;
    uint64_t len;
    uint32_t perm;
    LhRef* entry;
  };
  // The lh prologue of every data-path memop: one map check, each handle's
  // lookup, then each permission check, booked as `submit` only when all
  // pass (a failed lookup or check books nothing). LT_memcpy's two handles
  // share the one map check.
  Status ResolveLhs(std::initializer_list<LhAccess> uses);
  // The blocking LT_read/LT_write body: op record, ResolveLhs, then SubmitLh.
  Status BlockingMemop(Lh lh, uint64_t offset, void* buf, uint64_t len, Priority pri,
                       bool is_read);
  // Submits [offset, offset+len) of `*entry` as one SubmitPieces call,
  // redirected through RedirectStale.
  Status SubmitLh(Lh lh, LhRef* entry, uint64_t offset, void* buf, uint64_t len, bool is_read,
                  Priority pri);
  // The FetchAdd/TestSet body: one 8-byte atomic on an lh word.
  StatusOr<uint64_t> LhAtomic(Lh lh, uint64_t offset, bool is_cas, uint64_t compare_add,
                              uint64_t swap);
  // The stale-home redirect every lh-addressed memop shares: runs `submit`
  // against the current mappings and, while it fails with kStaleHome (the
  // LMR migrated mid-op), refreshes every mapping in `lhs` and re-runs it,
  // at most kMaxStaleRedirects times; a refresh that moves none of them is
  // Unavailable. Re-issuing in full is exactly-once for the caller: writes
  // and memsets are idempotent re-copies, and a NACKed access (atomics
  // included) was never applied. Defined in memops.cc, its only user.
  template <typename Submit>
  Status RedirectStale(std::initializer_list<std::pair<Lh, LhRef*>> lhs, Submit&& submit);

  // Local fast path for chunks that live on this node.
  void LocalCopyIn(PhysAddr dst, const void* src, uint64_t len);
  void LocalCopyOut(void* dst, PhysAddr src, uint64_t len);

  // lh bookkeeping: thin forwarders into the LmrTable component.
  Lh InsertLh(LhEntry entry) { return lmrs_.Insert(std::move(entry)); }
  StatusOr<LhRef> GetLh(Lh lh) const { return lmrs_.Get(lh); }
  static Status CheckAccess(const LhEntry& e, uint64_t offset, uint64_t len, uint32_t need) {
    return LmrTable::CheckAccess(e, offset, len, need);
  }

  // Chunk allocation (local service for kFnAllocChunks and local mallocs).
  StatusOr<std::vector<LmrChunk>> AllocLocalChunks(uint64_t size);
  void FreeLocalChunks(const std::vector<LmrChunk>& chunks);
  // `size` bytes of chunks on `node`: local, or one kFnAllocChunks call.
  StatusOr<std::vector<LmrChunk>> AllocChunksOn(NodeId node, uint64_t size);
  // Frees chunks wherever they live: local ones here, remote ones with one
  // kFnFreeChunks call per node (best effort).
  void FreeChunks(const std::vector<LmrChunk>& chunks);

  // RPC plumbing. Channels/rings are keyed by ring id: app functions get
  // their own ring; internal functions share one control ring per client.
  static RpcFuncId RingIdFor(RpcFuncId func) {
    return func <= kMaxAppFuncId ? func : kControlRingId;
  }
  StatusOr<RpcChannel*> GetChannel(NodeId server, RpcFuncId ring_id);
  ServerRing* SetupServerRing(NodeId client, RpcFuncId ring_id, PhysAddr client_head_mirror);
  StatusOr<PhysAddr> AllocMirror();
  StatusOr<uint32_t> AcquireReplySlot(uint32_t out_max);
  void ReleaseReplySlot(uint32_t slot);
  // Posts one request into the ring. `seq_inout`: 0 assigns a fresh
  // per-channel sequence; non-zero reuses it (retries must present the
  // original so the server dedups). `fail_fast_dead=false` lets liveness
  // probes through to a peer currently believed dead.
  Status PostRpcRequest(RpcChannel* channel, RpcFuncId func, const void* in, uint32_t in_len,
                        PhysAddr reply_phys, uint32_t reply_max, uint32_t reply_slot,
                        Priority pri, uint32_t* seq_inout, bool fail_fast_dead = true);

  // One client call between its two halves: the request every attempt
  // re-presents, what the send half took (channel, reply slot) and the
  // latest attempt's outcome. It lives on the caller's stack.
  struct ClientCall {
    NodeId server = kInvalidNode;
    RpcFuncId func = 0;
    const void* in = nullptr;
    uint32_t in_len = 0;
    Priority pri = Priority::kHigh;
    RpcCallOpts opts = {};
    RpcChannel* channel = nullptr;
    uint32_t slot = 0;
    uint32_t packed_slot = 0;  // {generation, slot}: the same on every attempt.
    uint32_t seq = 0;          // Assigned by the first post that reserves ring space.
    lt::telemetry::WqeLatBreakdown post_lat = {};  // The latest post's transport split.
    Status last = Status::Ok();  // The latest post's outcome, then its wait's.
  };
  // Every client call (Rpc, InternalRpc and so the keepalives, and each
  // MulticastRpc member) runs these two halves. The send half fails fast on
  // a dead-marked peer, takes the channel and a reply slot, and posts the
  // first attempt; an error means the call took nothing. The reply half
  // waits for the reply, re-posting after each timeout (or transient post
  // failure) behind the engine's backoff, at most max_retries times, and
  // then settles the slot: freed, or left a zombie for a late reply.
  Status SendCall(ClientCall* call, uint32_t out_max);
  Status AwaitCall(ClientCall* call, void* out, uint32_t out_max, uint32_t* out_len);
  // Posts one attempt of `call` and keeps its transport breakdown.
  void PostCall(ClientCall* call);

  // Server-side idempotence (poll thread): records `seq` as executed;
  // false means duplicate (caller drops it and replays the cached reply).
  bool SeqFresh(ServerRing* ring, uint32_t seq);
  void RecordReplay(const ReplyToken& token, const void* data, uint32_t len);
  void ReplayReply(ServerRing* ring, const RpcReqHeader& hdr);

  // The one reply wait, for every attempt of a client call: waits up to
  // `timeout_ns` (real time) for the reply in `slot`. A reply is synced to
  // (its wait split against the request's transport `post_lat`), copied
  // out, and its slot freed; it returns Ok, or OutOfRange when truncated.
  // No reply returns Timeout and, with `settle`, leaves the slot a zombie
  // for a late reply or the quarantine sweep.
  Status AwaitReply(uint32_t slot, uint64_t timeout_ns, bool settle,
                    const lt::telemetry::WqeLatBreakdown& post_lat, void* out, uint32_t out_max,
                    uint32_t* out_len);
  // Fire-and-forget call (no reply slot, no wait): LT_send and LITE's own
  // notifications.
  Status RpcSendNoReply(NodeId server_node, RpcFuncId func, const void* in, uint32_t in_len,
                        Priority pri = Priority::kHigh);

  // Shared body of ReadAsync/WriteAsync: ResolveLhs, then hands the sliced
  // pieces to the engine.
  StatusOr<MemopHandle> IssueAsyncMemop(Lh lh, uint64_t offset, void* buf, uint64_t len,
                                        Priority pri, bool is_read);
  // Kernel-half execution of one ring-deferred async memop (ring.h): adopts
  // the op's detached attribution record, pays the map check once per
  // distinct lh per drain batch (via `cache`), and registers the op with
  // the engine under its reserved handle (a failed one too); the engine
  // commits or keeps the record.
  void ExecuteDeferredAsync(RingDeferredOp& op, RingDrainCache* cache);

  static Status CheckAppFunc(RpcFuncId func);
  // The receive queue of an application function or of kMsgFuncId.
  BlockingQueue<RpcIncoming>* FuncQueue(RpcFuncId func);
  // The pop RecvRpc and RecvMsg share: waits for the next arrival, then
  // serves it on this thread's timeline (`service_ns` of serial capacity).
  StatusOr<RpcIncoming> PopIncoming(RpcFuncId func, uint64_t timeout_ns, uint64_t service_ns);
  void PollLoop();
  void InternalWorkerLoop();
  void KeepaliveLoop();
  // Serves one request IMM: hands a fresh request to its queue (a duplicate
  // replays its cached reply) and publishes the freed ring space. Returns
  // the CPU of that head publish, which lite.poll.cpu_ns leaves out.
  uint64_t HandleRequestImm(NodeId src, uint32_t imm);
  void HandleReplyImm(uint32_t imm, uint32_t byte_len, uint64_t vtime);

  // Internal control-function implementations.
  void RegisterInternalHandlers();
  // A blocking control call: SendCall and AwaitCall, then decodes the
  // [u32 code | payload] reply into a Status and, on success, `out`.
  Status InternalRpc(NodeId server, RpcFuncId func, const WireWriterBytes& in,
                     std::vector<uint8_t>* out, const RpcCallOpts& opts = {},
                     Priority pri = Priority::kHigh);
  // Sends a control reply later than the handler's return (lock grants,
  // barrier releases).
  void ReplyControl(const ReplyToken& token, lt::StatusCode code,
                    const WireWriterBytes& payload = {});

  // Name service (lives at manager_node_).
  StatusOr<NodeId> LookupMasterNode(const std::string& name);
  // The names `node` hosts, with their epochs: this node's registry, or
  // `node`'s over kFnListNames (drain and name-service rebuild).
  StatusOr<NameList> ListNamesAt(NodeId node);

  // ---- Migration internals (migration.cc) ----
  // The coordinator state machine, run at the LMR's home node:
  // mirror -> converge -> fence -> activate -> commit, clean abort otherwise.
  Status MigrateHosted(const std::string& name, NodeId dst, NodeId requester,
                       MigrateStats* stats);
  // The one route to the coordinator: runs it here when `home` is this
  // node, else at `home` through kFnMigrateLmr (LT_migrate and drain).
  Status MigrateAt(NodeId home, const std::string& name, NodeId dst, MigrateStats* stats);
  // Abort path: epoch-fences the source (epoch += 2 leapfrogs a possibly
  // activated destination), uninstalls the staged copy, unparks waiters.
  void AbortMigration(const std::shared_ptr<MigrationRecord>& rec, MigrationPhase phase_reached);
  // Best-effort re-point of the manager's name record (commit and abort; the
  // tombstone and epoch arbitration cover a lost update).
  void RepointName(const std::string& name, NodeId home, uint64_t epoch);
  // Copies `dirty` (LMR-offset intervals; null = the whole LMR) from the old
  // placement to the new one with multi-piece engine ops, and books the bytes
  // into lite.migrate.bytes_copied (a dirty re-copy also into
  // lite.migrate.dirty_bytes) and `stats`.
  Status CopyLmrIntervals(const std::vector<LmrChunk>& old_chunks,
                          const std::vector<LmrChunk>& new_chunks, uint64_t lmr_size,
                          const std::map<uint64_t, uint64_t>* dirty, MigrateStats* stats);
  // Where `name` lives now. `hint` answers — this node from its live
  // metadata, else its migration tombstone; another node over kFnStaleHome —
  // and, if it cannot, the home the manager names is asked the same way
  // (unless `ask_manager` is false: the kFnStaleHome handler).
  StatusOr<StaleRedirect> ResolveHome(const std::string& name, NodeId hint,
                                      bool ask_manager = true);
  // kStaleHome recovery: re-resolves `entry`'s home (ResolveHome, hinted at
  // the old home), refreshes every local lh mapped to the name and reloads
  // *entry. True if the mapping moved to a newer epoch.
  StatusOr<bool> RefreshStaleLh(Lh lh, LhRef* entry);
  // Registers the kFnMigrate* / kFnStaleHome control handlers.
  void RegisterMigrationHandlers();
  // Blocking re-issue of an async memop that retired with kStaleHome
  // (called by the op engine with no locks held).
  Status RedoMemopAfterStale(Lh lh, uint64_t offset, void* buf, uint64_t len, bool is_read,
                             Priority pri);

  // Registers this instance's lite.* metrics and probes (constructor-time).
  void RegisterTelemetry();

  // ---------------- data ----------------
  lt::Node* const node_;
  const NodeId manager_node_;

  uint32_t global_lkey_ = 0;
  uint32_t global_rkey_ = 0;
  std::vector<LiteInstance*> peers_;       // Indexed by node id (self included).
  std::vector<uint32_t> peer_global_rkey_;

  // Liveness: per-peer dead flags (sized in CreateQueuePairs, before
  // traffic) and the manager-side lease table.
  std::unique_ptr<std::atomic<uint8_t>[]> peer_dead_;
  size_t peer_dead_n_ = 0;
  std::mutex lease_mu_;
  std::unordered_map<NodeId, uint64_t> lease_last_seen_;
  std::mutex keepalive_mu_;
  std::condition_variable keepalive_cv_;  // Wakes the keepalive thread on Stop.

  lt::Cq* recv_cq_ = nullptr;

  // RPC: client channels, server rings, reply slots.
  std::mutex channels_mu_;
  std::map<std::pair<NodeId, RpcFuncId>, std::unique_ptr<RpcChannel>> channels_;
  std::mutex rings_mu_;
  std::map<std::pair<NodeId, RpcFuncId>, std::unique_ptr<ServerRing>> rings_;
  std::vector<std::unique_ptr<ReplySlot>> reply_slots_;
  std::mutex slot_mu_;
  std::condition_variable slot_cv_;
  std::vector<uint32_t> free_slots_;
  PhysAddr reply_slab_ = 0;

  // Head-mirror slab: 8-byte words handed out bump-style.
  std::mutex mirror_mu_;
  PhysAddr mirror_slab_ = 0;
  uint64_t mirror_next_ = 0;
  uint64_t mirror_cap_ = 0;

  // Receive queues of application functions and of LT_send messages.
  std::mutex funcs_mu_;
  std::unordered_map<RpcFuncId, std::unique_ptr<BlockingQueue<RpcIncoming>>> func_queues_;

  // Internal control functions.
  std::unordered_map<RpcFuncId, InternalHandler> internal_handlers_;
  BlockingQueue<std::pair<RpcFuncId, RpcIncoming>> internal_queue_;
  // The control workers' virtual timelines, one per InternalWorkerLoop
  // thread. A request is booked on the free one idle longest, whichever
  // thread pops it, so host scheduling does not decide whether it pays a
  // wakeup.
  static constexpr int kControlWorkers = 2;
  struct ControlWorker {
    lt::ServiceTimeline timeline;
    uint64_t free_ns = 0;  // Virtual time its last request finished.
    bool busy = false;
  };
  std::mutex control_workers_mu_;
  ControlWorker control_workers_[kControlWorkers];

  // Lock + barrier services.
  std::mutex locks_mu_;
  std::unordered_map<PhysAddr, LockQueue> lock_queues_;
  std::mutex barriers_mu_;
  std::unordered_map<std::string, BarrierState> barriers_;

  // QoS.
  QosManager qos_;

  // Composed components (construction order matters: the transport holds
  // the QoS pointer; the engine reaches back into this facade).
  std::unique_ptr<Transport> transport_;
  LmrTable lmrs_;
  OpEngine engine_;
  // Per-CPU submission/completion rings; constructed only when
  // SimParams::lite_ring_enable (rings off = no object, no behavior change).
  std::unique_ptr<SubmissionRings> cpu_rings_;
  // Epoch-fenced ownership guard + migration records (DESIGN.md). Costs one
  // relaxed load per gated access while no migration has touched this node.
  MigrationState migration_;

  // Service threads.
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  lt::CpuMeter poll_cpu_;

  // Telemetry instruments (owned by the node's registry; pointers cached so
  // the hot path never does a name lookup).
  lt::telemetry::Counter* rpc_requests_ = nullptr;
  lt::telemetry::Counter* rpc_replies_ = nullptr;
  lt::telemetry::Counter* poll_wakeups_ = nullptr;
  lt::telemetry::Counter* poll_idle_wakeups_ = nullptr;
  lt::telemetry::FixedHistogram* poll_batch_hist_ = nullptr;

  // Failure-recovery instruments (docs/TELEMETRY.md, "Fault & recovery").
  lt::telemetry::Counter* rpc_retries_ = nullptr;
  lt::telemetry::Counter* rpc_dup_requests_ = nullptr;
  lt::telemetry::Counter* rpc_replayed_replies_ = nullptr;
  lt::telemetry::Counter* rpc_stale_replies_ = nullptr;
  lt::telemetry::Counter* rpc_zombie_reclaimed_ = nullptr;
  lt::telemetry::Counter* rpc_dead_fast_fail_ = nullptr;
  lt::telemetry::Counter* qp_reconnects_ = nullptr;
  lt::telemetry::Counter* liveness_marked_dead_ = nullptr;
  lt::telemetry::Counter* liveness_revived_ = nullptr;
  lt::telemetry::Counter* liveness_keepalives_ = nullptr;

  // This node's flight recorder (owned by NodeTelemetry).
  lt::telemetry::Journal* journal_ = nullptr;
};

}  // namespace lite

#endif  // SRC_LITE_INSTANCE_H_
