// Live LMR migration with epoch-fenced ownership (DESIGN.md "Epoch-fenced
// ownership & live migration").
//
// Two pieces live here:
//
//  * MigrationState — the per-instance ownership guard. It models the RNIC
//    MPT interception point at an LMR's home node: every one-sided access the
//    op engine issues against node N first consults N's MigrationState (the
//    issuer reaches it through the peer table, the simulated analogue of the
//    responder NIC checking its protection tables). While a migration is
//    mirroring/converging, writes are interval-logged so concurrent traffic
//    can be re-copied; during the fence, accesses park; after commit, the
//    record stays behind as a tombstone that NACKs stale-epoch accesses with
//    kStaleHome so the issuer re-resolves the new home and re-issues.
//
//  * The migration coordinator state machine (migration.cc, methods on
//    LiteInstance): mirror -> converge -> fence -> commit, with clean abort
//    back to the source on any failure, composing with the fault engine.
//
// Cost contract: when no migration has ever touched this node, the guard is
// one relaxed atomic load per access — zero virtual time, no locks — so the
// single-piece latency path (bench fig06) is byte-identical with migration
// idle.
#ifndef SRC_LITE_MIGRATION_H_
#define SRC_LITE_MIGRATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/lite/types.h"
#include "src/telemetry/journal.h"
#include "src/telemetry/metrics.h"

namespace lite {

using lt::Status;
using lt::StatusOr;

// Phase values are journaled (kMigratePhase's `b` argument) and must stay
// stable; see docs/TELEMETRY.md.
enum class MigrationPhase : uint8_t {
  kIdle = 0,
  kMirror = 1,     // Bulk chunk copy src -> dst under a dirty-interval log.
  kConverge = 2,   // Bounded re-copy rounds of intervals dirtied meanwhile.
  kFence = 3,      // New accesses park; in-flight ones drain; final re-copy.
  kCommitted = 4,  // Dst is home; the record is now a stale-home tombstone.
  kAborted = 5,    // Src stays home; the record is inert.
};

// Redirect payload a stale-epoch NACK resolves to (kFnStaleHome reply).
struct StaleRedirect {
  NodeId new_home = kInvalidNode;
  uint64_t epoch = 0;
  std::vector<LmrChunk> chunks;
};

// One migration in flight (or committed: then it is the tombstone for the
// moved LMR). Interval state is in LMR-offset space so the coordinator can
// re-copy dirty ranges without re-deriving chunk math.
struct MigrationRecord {
  std::string name;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  uint64_t old_epoch = 0;

  // Old placement at the source, with each chunk's base LMR offset.
  std::vector<LmrChunk> old_chunks;
  std::vector<uint64_t> chunk_lmr_base;

  // All fields below are guarded by mu.
  std::mutex mu;
  std::condition_variable cv;
  MigrationPhase phase = MigrationPhase::kMirror;
  uint64_t tokens = 0;        // Accesses between gate-open and post-complete.
  std::map<uint64_t, uint64_t> dirty;  // LMR-offset intervals [begin, end).
  uint64_t unpark_vtime_ns = 0;  // Virtual time parked ops resume at.

  // Valid once phase == kCommitted.
  NodeId new_home = kInvalidNode;
  uint64_t new_epoch = 0;
  std::vector<LmrChunk> new_chunks;
};

// Chunks staged at a migration destination by kFnMigrateInstall, waiting for
// kFnMigrateActivate (commit) or kFnMigrateAbort (uninstall).
struct StagedInstall {
  NodeId src = kInvalidNode;
  uint64_t size = 0;
  uint64_t new_epoch = 0;
  std::vector<LmrChunk> chunks;
};

// Issuer-side handle for one gated access; pass back to CloseAccess exactly
// once for every Open that returned Ok.
struct AccessGate {
  std::shared_ptr<MigrationRecord> rec;  // Non-null iff a token is held.
  PhysAddr addr = 0;
  uint64_t len = 0;
  bool is_write = false;
};

class MigrationState {
 public:
  MigrationState() = default;
  MigrationState(const MigrationState&) = delete;
  MigrationState& operator=(const MigrationState&) = delete;

  // Wires journal + counters (instance construction time).
  void RegisterTelemetry(lt::telemetry::Registry* registry,
                         lt::telemetry::Journal* journal);

  // The gate around one access to this node's memory, by any issuer: Ok
  // (proceed, then CloseAccess once the post is done), kStaleHome (the range
  // belongs to a committed migration: re-resolve the home), or Unavailable
  // (a fence park outlived its real-time cap). A node no migration has
  // touched answers with one load, and a write also bumps the count of
  // writes in flight without a token.
  Status Open(PhysAddr addr, uint64_t len, bool is_write, NodeId requester, AccessGate* gate);
  // Releases the token, or ends a tokenless write's count.
  void CloseAccess(AccessGate* gate, bool success);

  // ---- Coordinator side (source node) ----
  // Installs a record covering `chunks` (all local to this node), arms the
  // guard, and waits (real time) until every write that passed the gate
  // without a token has closed: such a write may have checked before the
  // record existed, and its data must land before the mirror copy reads the
  // range. Fails if the name already has an active record or any range
  // collides with an existing one.
  StatusOr<std::shared_ptr<MigrationRecord>> Begin(const std::string& name, NodeId src, NodeId dst,
                                                   uint64_t old_epoch,
                                                   const std::vector<LmrChunk>& chunks,
                                                   uint64_t lmr_size);
  void SetPhase(const std::shared_ptr<MigrationRecord>& rec, MigrationPhase phase);
  // Waits (real time) until no access tokens are outstanding.
  bool DrainTokens(const std::shared_ptr<MigrationRecord>& rec, uint64_t cap_real_ns);
  // Atomically takes and clears the dirty-interval set.
  std::map<uint64_t, uint64_t> TakeDirty(const std::shared_ptr<MigrationRecord>& rec);
  // Flips the record into its tombstone form and unparks all waiters at
  // `unpark_vtime_ns` (the coordinator's commit-point virtual time).
  void Commit(const std::shared_ptr<MigrationRecord>& rec, NodeId new_home, uint64_t new_epoch,
              std::vector<LmrChunk> new_chunks, uint64_t unpark_vtime_ns);
  // Clean abort: removes the record (ranges clear, waiters resume against
  // this node, which stays home).
  void Abort(const std::shared_ptr<MigrationRecord>& rec, uint64_t unpark_vtime_ns);

  // Tombstone lookup backing the kFnStaleHome handler and the issuer-side
  // redirect fast path.
  StatusOr<StaleRedirect> LookupTombstone(const std::string& name) const;

  // Retires a committed tombstone once this node hosts `name` again at
  // `current_epoch` >= the epoch the LMR left with (i.e. the LMR migrated
  // back here). The name becomes migratable again; the old quarantined
  // ranges stay armed in ranges_ so doubly-stale accesses still NACK.
  void Supersede(const std::string& name, uint64_t current_epoch);

  // ---- Destination side (staging) ----
  // Returns false if the name already has a staged install.
  bool Stage(const std::string& name, StagedInstall staged);
  StatusOr<StagedInstall> TakeStaged(const std::string& name);

  // ---- Introspection / counters (shared with the coordinator) ----
  lt::telemetry::Counter* started_ = nullptr;
  lt::telemetry::Counter* committed_ = nullptr;
  lt::telemetry::Counter* aborted_ = nullptr;
  lt::telemetry::Counter* rounds_ = nullptr;
  lt::telemetry::Counter* bytes_copied_ = nullptr;
  lt::telemetry::Counter* dirty_bytes_ = nullptr;
  lt::telemetry::Counter* parked_ops_ = nullptr;
  lt::telemetry::Counter* stale_nacks_ = nullptr;
  lt::telemetry::Counter* redirects_ = nullptr;
  lt::telemetry::Counter* drained_lmrs_ = nullptr;
  lt::telemetry::Journal* journal_ = nullptr;

 private:
  struct RangeRef {
    PhysAddr end = 0;
    std::shared_ptr<MigrationRecord> rec;
  };

  // Open's armed path: looks the range up and, inside a migration, takes a
  // token or parks through the fence.
  Status OpenAccess(PhysAddr addr, uint64_t len, bool is_write, NodeId requester,
                    AccessGate* gate);
  // Logs [addr, addr+len) as dirty in LMR-offset space. rec->mu held.
  static void AddDirtyLocked(MigrationRecord* rec, PhysAddr addr, uint64_t len);

  std::shared_ptr<MigrationRecord> FindRange(PhysAddr addr, uint64_t len) const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<MigrationRecord>> records_;
  std::map<PhysAddr, RangeRef> ranges_;  // Keyed by range start.
  std::unordered_map<std::string, StagedInstall> staged_;
  // records_.size() + ranges_.size(), republished under mu_. Counts ranges
  // too: a superseded tombstone leaves records_ but its quarantined ranges
  // must keep gating.
  std::atomic<uint64_t> armed_{0};
  // Writes from Open to CloseAccess that hold no token. Open counts a write
  // before it loads armed_, and Begin stores armed_ before it waits for the
  // count to drain, so either the write sees the new record or Begin sees
  // the write.
  std::atomic<uint64_t> untracked_writes_{0};
};

}  // namespace lite

#endif  // SRC_LITE_MIGRATION_H_
