// Public types of the LITE abstraction (paper Secs. 3-5).
//
// The central entity is the LITE memory region (LMR), addressed only through
// an opaque local handle `Lh` — a capability encapsulating both address
// mapping and permission (paper Sec. 4.1). lh values are meaningless outside
// the LITE instance that issued them.
#ifndef SRC_LITE_TYPES_H_
#define SRC_LITE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/addr.h"

namespace lite {

using lt::kInvalidNode;
using lt::NodeId;
using lt::PhysAddr;

// Opaque LMR handle. 0 is never a valid handle.
using Lh = uint64_t;
constexpr Lh kInvalidLh = 0;

// Opaque completion handle returned by the async APIs (LT_read_async /
// LT_write_async / async RPC); retired through LT_poll / LT_wait /
// LT_wait_all. 0 is never a valid handle.
using MemopHandle = uint64_t;
constexpr MemopHandle kInvalidMemopHandle = 0;

// Permissions a master can grant on an LMR (paper Sec. 4.1). Master implies
// the right to migrate/free the LMR and to grant permissions.
enum LmrPerm : uint32_t {
  kPermRead = 1u << 0,
  kPermWrite = 1u << 1,
  kPermMaster = 1u << 2,
};

// Request priority classes for QoS (paper Sec. 6.2).
enum class Priority : uint8_t { kHigh = 0, kLow = 1 };

// QoS policies evaluated in the paper: none, hardware separation of QPs
// (HW-Sep), software priority-based rate control (SW-Pri).
enum class QosPolicy : uint8_t { kNone = 0, kHwSep = 1, kSwPri = 2 };

// One physically-consecutive piece of an LMR. Large LMRs are split into
// chunks (paper Sec. 4.1, "spread large LMRs into smaller physically-
// consecutive memory regions"); chunks may live on different nodes.
struct LmrChunk {
  NodeId node = kInvalidNode;
  PhysAddr addr = lt::kInvalidPhysAddr;
  uint64_t size = 0;
};

// Spin-then-sleep budget of LITE's kernel threads (paper Sec. 5.2): the RPC
// service threads and the ring drainer/reaper stay hot this long.
constexpr uint64_t kAdaptiveSpinNs = 6'000;

// The calibrated costs of LITE's own software.
constexpr uint64_t kMapCheckNs = 90;         // lh lookup + permission check + addr map.
constexpr uint64_t kRpcDispatchNs = 180;     // Poll-thread IMM decode + hand-off.
constexpr uint64_t kMallocLocalNs = 1500;    // Local LMR allocation bookkeeping.
constexpr uint64_t kQpReconnectNs = 25'000;  // modify_qp ERR->RESET->...->RTS.
// Virtual backoff before the first retransmit of a one-sided piece or an
// RPC; it doubles per attempt (DESIGN.md "Failure model & recovery").
constexpr uint64_t kRetryBackoffNs = 200'000;

// RPC function identifier. Application functions use ids 0..999; LITE
// reserves 1000+ for its internal control functions.
using RpcFuncId = uint32_t;

constexpr RpcFuncId kMaxAppFuncId = 999;

// Reserved internal function ids (served by LITE's worker threads).
constexpr RpcFuncId kFnRegisterName = 1000;
constexpr RpcFuncId kFnLookupName = 1001;
constexpr RpcFuncId kFnUnregisterName = 1002;
constexpr RpcFuncId kFnAllocChunks = 1003;
constexpr RpcFuncId kFnFreeChunks = 1004;
constexpr RpcFuncId kFnMapLmr = 1005;
constexpr RpcFuncId kFnUnmapLmr = 1006;
constexpr RpcFuncId kFnLmrInvalidate = 1007;
constexpr RpcFuncId kFnMemOp = 1008;
constexpr RpcFuncId kFnLockWait = 1009;
constexpr RpcFuncId kFnLockGrant = 1010;
constexpr RpcFuncId kFnBarrier = 1011;
constexpr RpcFuncId kFnSetPermission = 1013;
constexpr RpcFuncId kFnRingSetup = 1014;
constexpr RpcFuncId kFnMasterFree = 1015;
constexpr RpcFuncId kFnMasterGrant = 1017;
constexpr RpcFuncId kFnListNames = 1018;  // Manager recovery (Sec. 3.3) and drain.
constexpr RpcFuncId kFnKeepalive = 1022;  // Lease renewal to the cluster manager.

// Live LMR migration control plane (DESIGN.md "Epoch-fenced ownership").
// These ids live above the legacy 1000-1023 block and need the 11-bit IMM
// function field below.
constexpr RpcFuncId kFnMigrateInstall = 1024;  // Stage chunks+meta at the destination.
constexpr RpcFuncId kFnMigrateActivate = 1025;  // Commit: destination becomes home.
constexpr RpcFuncId kFnMigrateAbort = 1026;    // Uninstall a staged migration.
constexpr RpcFuncId kFnUpdateName = 1027;      // Manager: re-point name -> new home.
constexpr RpcFuncId kFnMigrateLmr = 1028;      // Coordinator entry at the source.
constexpr RpcFuncId kFnLmrRehome = 1029;       // Fan-out: new home+chunks+epoch.
constexpr RpcFuncId kFnStaleHome = 1030;       // Redirect query at the old home.

// All internal control functions and messaging share one server ring per
// client node (application functions get their own ring, as in the paper).
constexpr RpcFuncId kControlRingId = 1020;

// Sentinel "no reply expected" slot (fire-and-forget internal calls).
constexpr uint32_t kNoReplySlot = (1u << 21) - 1;

// IMM-value markers. The paper splits the 32-bit immediate 10/22 (Sec. 5.1);
// we widen the function field to 11 bits so the migration control plane
// (1024+) fits, leaving 21 payload bits — still comfortably more than the
// ring-offset (1 MB / 64 B = 2^14) and reply-slot encodings need.
constexpr RpcFuncId kMsgFuncId = 1021;    // LT_send messaging channel.
constexpr RpcFuncId kReplyFuncId = 1023;  // RPC reply; payload = reply slot.
constexpr uint32_t kImmFuncBits = 11;
constexpr uint32_t kImmPayloadBits = 21;
constexpr uint32_t kImmPayloadMask = (1u << kImmPayloadBits) - 1;

inline uint32_t EncodeImm(RpcFuncId func, uint32_t payload) {
  return (func << kImmPayloadBits) | (payload & kImmPayloadMask);
}
inline RpcFuncId ImmFunc(uint32_t imm) { return imm >> kImmPayloadBits; }
inline uint32_t ImmPayload(uint32_t imm) { return imm & kImmPayloadMask; }

// Ring entries are offset-addressed in 64-byte units inside the IMM payload,
// so a server ring may span at most 2^21 units (128 MiB).
constexpr uint32_t kRingOffsetUnit = 64;
constexpr uint64_t kMaxRingBytes = uint64_t{kRingOffsetUnit} << kImmPayloadBits;

// ---- Timeout sentinel convention (applies to every timeout_ns parameter in
// the LITE API: RecvRpc / RecvMsg and the internal control calls) ----
//   kDefaultTimeout (0)  -> use SimParams::lite_rpc_timeout_ns
//   kInfiniteTimeout(~0) -> wait "forever" (client paths cap at one hour of
//                           real time as a hang backstop; server-side recv
//                           blocks until the instance stops)
// Any other value is a real-time bound in nanoseconds.
constexpr uint64_t kDefaultTimeout = 0;
constexpr uint64_t kInfiniteTimeout = ~0ull;

// ---- Reply-slot addressing (21-bit IMM payload of kReplyFuncId) ----
// The payload packs {generation, slot}: the slot index in the low 10 bits
// (so lite_reply_slots must be <= kMaxReplySlots — distinguishable from
// kNoReplySlot's all-ones low bits) and an 11-bit reuse generation above it.
// The generation lets a client that timed out and reused the slot discard
// late or duplicate replies from an earlier call (aliasing only after 2048
// reuses of one slot inside a single call's lifetime, which the retry bound
// makes impossible).
constexpr uint32_t kReplySlotBits = 10;
constexpr uint32_t kReplySlotMask = (1u << kReplySlotBits) - 1;
constexpr uint32_t kMaxReplySlots = 1000;
constexpr uint32_t kReplyGenBits = kImmPayloadBits - kReplySlotBits;
constexpr uint32_t kReplyGenMask = (1u << kReplyGenBits) - 1;

inline uint32_t PackReplySlot(uint32_t slot, uint32_t gen) {
  return ((gen & kReplyGenMask) << kReplySlotBits) | (slot & kReplySlotMask);
}
inline uint32_t UnpackReplySlot(uint32_t packed) { return packed & kReplySlotMask; }
inline uint32_t UnpackReplyGen(uint32_t packed) {
  return (packed >> kReplySlotBits) & kReplyGenMask;
}

}  // namespace lite

#endif  // SRC_LITE_TYPES_H_
