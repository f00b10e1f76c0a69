// RPC-stack state structures shared by LiteInstance's facade header and the
// RPC implementation (rpc.cc / handlers.cc): the client/server sides of one
// ring channel, the reply-slot rendezvous, the wire header, and the lock /
// barrier service records. Split out of instance.h so the facade stays a
// readable table of contents.
#ifndef SRC_LITE_RPC_STATE_H_
#define SRC_LITE_RPC_STATE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/lite/types.h"

namespace lite {

// Token identifying one received-but-not-yet-replied RPC call; LT_replyRPC
// may be invoked later and from any thread (deferred replies power the lock
// and barrier services).
struct ReplyToken {
  NodeId client_node = kInvalidNode;
  PhysAddr reply_phys = 0;
  uint32_t reply_max = 0;
  uint32_t reply_slot = 0;  // Packed {generation, slot} — see PackReplySlot.
  // Virtual arrival time of the call; deferred replies (lock grants,
  // barrier releases) must not be issued on an earlier timeline.
  uint64_t arrival_vtime_ns = 0;
  // Idempotence bookkeeping: the server ring the call arrived on and the
  // client-assigned sequence number, so LT_replyRPC can record the reply in
  // the ring's replay cache (a retried duplicate then re-sends the cached
  // reply instead of re-executing the handler).
  RpcFuncId ring_func = 0;
  uint32_t seq = 0;
  // Trace id the client put on the wire (0 = untraced). LT_replyRPC opens a
  // server-side child span tagged with this id so DumpTelemetryJson can
  // stitch the two halves of the call.
  uint64_t parent_trace_id = 0;
  bool valid() const { return client_node != kInvalidNode; }
};

// One received RPC call, as handed to LT_recvRPC.
struct RpcIncoming {
  std::vector<uint8_t> data;
  ReplyToken token;
  uint64_t arrival_vtime_ns = 0;
};

// One received LT_send message.
struct MsgIncoming {
  std::vector<uint8_t> data;
  NodeId src = kInvalidNode;
  uint64_t arrival_vtime_ns = 0;
};

// Client side of one RPC channel: ring placement at the server plus the
// local tail and the head mirror the server's poll thread updates.
struct RpcChannel {
  NodeId server = kInvalidNode;
  RpcFuncId func = 0;
  LmrChunk ring;
  uint64_t ring_size = 0;
  uint64_t tail = 0;           // Absolute byte offset (monotonic).
  PhysAddr head_mirror = 0;    // Local 8-byte word; server writes head here.
  std::mutex mu;               // Serializes reserve+post (preserves order).
  uint32_t next_seq = 1;       // Per-channel idempotence sequence (under mu).
};

// Server side of one RPC channel.
struct ServerRing {
  NodeId client = kInvalidNode;
  RpcFuncId func = 0;
  LmrChunk ring;
  uint64_t ring_size = 0;
  uint64_t head = 0;           // Absolute byte offset (monotonic).
  PhysAddr client_head_mirror = 0;

  // At-most-once execution state (poll thread only): every executed
  // sequence is <= seq_low or in seq_above (kept sparse — consecutive
  // completions collapse into the watermark). The poll thread takes a ring's
  // requests in ring order, but a set rather than a plain high-water mark is
  // still needed: a retry re-posts its call's original sequence, so when the
  // first post was lost, the fresh request arrives after later sequences
  // from the same channel executed.
  uint32_t seq_low = 0;
  std::set<uint32_t> seq_above;

  // Replay cache: reply payloads of recent sequences, re-sent verbatim
  // when a retried duplicate arrives after the original already executed.
  // Bounded; a duplicate past the horizon is dropped silently (the client
  // then times out — at-most-once still holds, exactly-once does not).
  std::mutex replay_mu;
  std::map<uint32_t, std::vector<uint8_t>> replay;
};

// Replay cache entries kept per server ring.
inline constexpr size_t kReplayCacheEntries = 32;

// Options of one client call (LiteInstance::ClientCall).
inline constexpr uint32_t kUseParamRetries = ~0u;  // lite_rpc_max_retries.
struct RpcCallOpts {
  uint64_t timeout_ns = kDefaultTimeout;  // Per attempt.
  uint32_t max_retries = kUseParamRetries;
  // false lets liveness probes through to a peer currently believed dead.
  bool fail_fast_dead = true;
};

// Life of a reply slot: acquired kWaiting, made kReady by the poll thread
// when the reply lands, freed by the caller after copy-out. A caller that
// gives up leaves it kZombie until the late reply or the quarantine sweep
// in AcquireReplySlot frees it.
enum class SlotState { kFree, kWaiting, kReady, kZombie };

// Client-side reply rendezvous.
struct ReplySlot {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<SlotState> state{SlotState::kFree};
  // Reuse generation, bumped on acquire and carried in the packed reply-
  // slot field; late/duplicate replies with a stale generation are
  // discarded (see PackReplySlot in types.h).
  std::atomic<uint32_t> gen{0};
  uint32_t reply_len = 0;
  uint64_t ready_vtime_ns = 0;
  PhysAddr buf_phys = 0;
  uint32_t buf_max = 0;
  // Real time the slot became a zombie. A zombie whose peer died may never
  // get the late reply that frees it; AcquireReplySlot reclaims zombies
  // older than the RPC timeout when the free list runs dry.
  std::atomic<uint64_t> zombie_since_real_ns{0};
};

// FIFO wait queue of one distributed lock (service at the lock's owner).
struct LockQueue {
  std::deque<ReplyToken> waiters;
  uint32_t grants_pending = 0;
};

// Arrival state of one named barrier (service at the cluster manager).
struct BarrierState {
  uint32_t expected = 0;
  std::vector<ReplyToken> arrived;
};

inline constexpr uint16_t kRpcMagic = 0x4c54;  // "LT"

// Header written at the ring tail ahead of the RPC payload. Kept at
// exactly 48 bytes: the header rides every request's fabric transfer, so
// its size feeds every simulated RPC latency and is pinned by the
// static_assert below. The seq field fits by narrowing
// magic/reply_max/client_node (reply slabs are <64KB slots and node ids
// are small; both statically sane for this simulator); trace_id carries
// the client span's id for cross-node stitching (0 = untraced, so the
// header cost is identical whether tracing is on or off).
struct RpcReqHeader {
  PhysAddr reply_phys = 0;   // Client reply buffer (slot slab).
  uint64_t tail_after = 0;   // Absolute head position once consumed.
  uint64_t trace_id = 0;     // Client trace id (0 = untraced request).
  uint32_t input_len = 0;
  uint32_t reply_slot = 0;   // Packed {generation, slot} or kNoReplySlot.
  uint32_t seq = 0;          // Per-channel sequence (0 = never dedup).
  uint16_t reply_max = 0;
  uint16_t magic = kRpcMagic;
  uint16_t client_node = static_cast<uint16_t>(0xffff);
};
static_assert(sizeof(RpcReqHeader) == 48,
              "RpcReqHeader is wire-visible: its size feeds every RPC's "
              "simulated transfer time and must not change");

}  // namespace lite

#endif  // SRC_LITE_RPC_STATE_H_
