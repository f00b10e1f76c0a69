// Deterministic, scriptable fault-injection engine (this repo's chaos layer).
//
// The engine replaces the fabric's old single global drop knob with per-link
// and per-node fault rules: probabilistic drop / duplicate / reorder-jitter /
// extra delay per directed link, full partitions between node groups, and
// node crash/restart — either immediate or triggered by virtual-time windows
// so a schedule is replayable. Every probabilistic decision draws from a
// per-link SplitMix64 stream seeded from (engine seed, src, dst), so the same
// seed and the same per-link transfer order reproduce the same fault
// sequence, and unrelated links never contend on a shared RNG lock.
//
// Fast-path contract: when nothing is armed (no rules, no crashes, no
// partitions — the default), OnTransfer() is never reached; callers gate on
// `armed()`, a single relaxed atomic load. The clean path performs no
// locking, no RNG draws, and no virtual-time charges, which keeps fault-free
// runs byte-identical to a build without the engine.
#ifndef SRC_FAULTS_FAULTS_H_
#define SRC_FAULTS_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sync_util.h"
#include "src/mem/addr.h"
#include "src/telemetry/journal.h"

namespace lt {

// Per-directed-link fault rule. All fields compose: a transfer may be
// dropped, or (if it survives) duplicated and/or delayed.
struct LinkFaultRule {
  double drop_p = 0.0;          // P(transfer silently dropped)
  double dup_p = 0.0;           // P(transfer delivered twice)
  uint64_t extra_delay_ns = 0;  // fixed extra one-way delay
  uint64_t jitter_ns = 0;       // uniform random delay in [0, jitter_ns)
                                //   (reorders messages racing on a link)

  bool Active() const {
    return drop_p > 0.0 || dup_p > 0.0 || extra_delay_ns != 0 || jitter_ns != 0;
  }
};

// Out-params of one OnTransfer decision beyond the delay/drop result.
struct TransferFaults {
  bool duplicate = false;         // deliver a second copy of this transfer
  uint64_t dup_extra_delay_ns = 0;  // additional delay of the duplicate copy
};

class FaultEngine {
 public:
  // Sentinel returned by OnTransfer for "drop this transfer".
  static constexpr uint64_t kDropTransfer = ~0ull;

  explicit FaultEngine(uint64_t seed = 0xfab51cull) : seed_(seed) {}

  // Sizes per-node / per-link state. Called by Fabric::Attach; all nodes must
  // be attached before traffic starts (the engine does not lock the link
  // table against concurrent growth on the transfer path).
  void EnsureNodes(size_t count);

  // Reseeds every per-link RNG stream (derived as seed ^ link index mix) and
  // resets decision counters. Does not change rules or crash state.
  void Reseed(uint64_t seed);

  // ---- Link rules -------------------------------------------------------
  // The default rule applies to every directed link without an override.
  void SetDefaultRule(const LinkFaultRule& rule);
  LinkFaultRule default_rule() const;
  void SetLinkRule(NodeId src, NodeId dst, const LinkFaultRule& rule);
  void ClearLinkRule(NodeId src, NodeId dst);  // back to the default rule
  void ClearAllRules();                        // default + overrides reset

  // Deterministic count-based injection: drop the next `count` transfers on
  // src->dst regardless of probabilities (tests use this to kill exactly one
  // request or reply without coin flips).
  void DropNextTransfers(NodeId src, NodeId dst, uint64_t count);

  // ---- Partitions -------------------------------------------------------
  // Cuts every link between group `a` and group `b`, both directions.
  // Layered on the per-link overrides; HealPartitions() removes only the
  // partition bits it set.
  void Partition(const std::vector<NodeId>& a, const std::vector<NodeId>& b);
  void HealPartitions();

  // ---- Node crash / restart --------------------------------------------
  // A crashed node is fully isolated: every transfer to or from it drops
  // (its threads keep running — like a real machine that lost its NIC; a
  // restart heals the links and recovery is the upper layers' job).
  void CrashNode(NodeId node);
  void RestartNode(NodeId node);
  bool NodeCrashed(NodeId node) const;
  // Virtual-time crash window: node is down for transfers departing in
  // [start_vns, end_vns). Replayable: the trigger is virtual time, not wall
  // time. Windows stack with CrashNode and are removed by ClearSchedules().
  void ScheduleCrash(NodeId node, uint64_t start_vns, uint64_t end_vns);
  // One-shot deterministic crash: `node` is down for every transfer departing
  // at virtual time >= t_vns — CrashNode() firing at exactly t_vns, no window
  // end to pick. Healed by ClearSchedules() (RestartNode only clears the
  // immediate-crash flag, not virtual-time schedules).
  void CrashAtVtime(NodeId node, uint64_t t_vns) { ScheduleCrash(node, t_vns, ~0ull); }
  void ClearSchedules();

  // ---- Transfer decision (hot path when armed) -------------------------
  // Decides the fate of one src->dst transfer departing at virtual time
  // `vtime_ns`. Returns extra delay in ns (0 if none) or kDropTransfer.
  // Fills `*out` (optional) with duplicate-delivery info.
  uint64_t OnTransfer(NodeId src, NodeId dst, uint64_t vtime_ns, TransferFaults* out = nullptr);

  // True when any rule / crash / partition / schedule is live. Callers skip
  // OnTransfer entirely when false.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // ---- Flight recorder ---------------------------------------------------
  // Registers `node`'s journal so every armed-rule decision (drop / dup /
  // delay, with the link and the transfer's virtual departure time) leaves a
  // replayable event trail. Same contract as EnsureNodes: all journals must
  // be attached before traffic starts. Decisions on src->dst record into
  // src's journal (the transfer originates there); crash/restart record into
  // the crashed node's own journal.
  void AttachJournal(NodeId node, telemetry::Journal* journal);

  // ---- Introspection (telemetry probes) --------------------------------
  uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  uint64_t duplicates() const { return duplicates_.load(std::memory_order_relaxed); }
  uint64_t delays_injected() const { return delays_.load(std::memory_order_relaxed); }
  uint64_t crash_drops() const { return crash_drops_.load(std::memory_order_relaxed); }
  uint64_t partition_drops() const { return partition_drops_.load(std::memory_order_relaxed); }
  // Drops of transfers originating at `src` (fails closed to 0 out of range).
  uint64_t drops_from(NodeId src) const;

 private:
  // One directed link: its override rule (if any), pending count-drops, and
  // a private RNG stream so decisions on unrelated links never serialize.
  struct LinkState {
    SpinLock mu;                     // guards rule + default_copy + rng
    LinkFaultRule rule;              // valid only if has_override
    LinkFaultRule default_copy;      // mirror of default_rule_, kept in sync
                                     //   under mu so OnTransfer never touches
                                     //   the config_mu_-guarded original
    bool has_override = false;
    bool partition_cut = false;      // set/cleared by Partition()/Heal
    std::atomic<int64_t> drop_next{0};
    Rng rng{0};

    LinkState() = default;
    LinkState(const LinkState&) = delete;
    LinkState& operator=(const LinkState&) = delete;
  };

  struct CrashWindow {
    NodeId node = kInvalidNode;
    uint64_t start_vns = 0;
    uint64_t end_vns = 0;
  };

  LinkState* Link(NodeId src, NodeId dst) const;
  void EnsureNodesLocked(size_t count);
  static uint64_t MixSeed(uint64_t seed, NodeId src, NodeId dst);
  void RecomputeArmedLocked();  // config_mu_ held
  void NoteDrop(NodeId src);
  // Journal of `node`, or nullptr. Lock-free read (attach-before-traffic).
  telemetry::Journal* JournalFor(NodeId node) const;
  void JournalDrop(NodeId src, NodeId dst, uint64_t vtime_ns, telemetry::DropCause cause);

  mutable std::mutex config_mu_;  // guards topology + rule mutation
  uint64_t seed_;
  size_t nodes_ = 0;
  std::vector<std::unique_ptr<LinkState>> links_;  // nodes_ * nodes_, src-major
  LinkFaultRule default_rule_;
  bool any_override_ = false;

  // Crash state: flat atomic flags (read lock-free on the transfer path).
  std::vector<std::unique_ptr<std::atomic<uint8_t>>> crashed_;
  // Crash windows: fixed-capacity append-only slab published via
  // window_count_, so the lock-free transfer-path scan never races a
  // reallocation when a test arms a crash mid-traffic.
  static constexpr size_t kMaxCrashWindows = 256;
  std::atomic<size_t> window_count_{0};
  std::unique_ptr<CrashWindow[]> windows_ = std::make_unique<CrashWindow[]>(kMaxCrashWindows);

  std::atomic<bool> armed_{false};
  std::atomic<bool> default_active_{false};

  // Counters.
  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> duplicates_{0};
  std::atomic<uint64_t> delays_{0};
  std::atomic<uint64_t> crash_drops_{0};
  std::atomic<uint64_t> partition_drops_{0};
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> drops_from_;

  // Per-node flight recorders (may hold nullptrs); grown under config_mu_
  // before traffic starts, read lock-free on the transfer path.
  std::vector<telemetry::Journal*> journals_;
};

}  // namespace lt

#endif  // SRC_FAULTS_FAULTS_H_
