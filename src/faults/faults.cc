#include "src/faults/faults.h"

#include <algorithm>

namespace lt {

uint64_t FaultEngine::MixSeed(uint64_t seed, NodeId src, NodeId dst) {
  // SplitMix64 finalizer over (seed, src, dst) so each directed link gets an
  // independent, reproducible stream.
  uint64_t z = seed ^ (uint64_t{src} << 32) ^ (uint64_t{dst} + 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void FaultEngine::EnsureNodes(size_t count) {
  std::lock_guard<std::mutex> lock(config_mu_);
  EnsureNodesLocked(count);
}

void FaultEngine::EnsureNodesLocked(size_t count) {
  if (count <= nodes_) {
    return;
  }
  // Rebuild the link table src-major at the new width, moving existing link
  // state so rules installed before later Attach() calls survive.
  std::vector<std::unique_ptr<LinkState>> grown(count * count);
  for (size_t s = 0; s < nodes_; ++s) {
    for (size_t d = 0; d < nodes_; ++d) {
      grown[s * count + d] = std::move(links_[s * nodes_ + d]);
    }
  }
  for (size_t s = 0; s < count; ++s) {
    for (size_t d = 0; d < count; ++d) {
      auto& slot = grown[s * count + d];
      if (!slot) {
        slot = std::make_unique<LinkState>();
        slot->rng = Rng(MixSeed(seed_, static_cast<NodeId>(s), static_cast<NodeId>(d)));
        slot->default_copy = default_rule_;
      }
    }
  }
  links_ = std::move(grown);
  while (crashed_.size() < count) {
    crashed_.push_back(std::make_unique<std::atomic<uint8_t>>(0));
    drops_from_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  nodes_ = count;
}

void FaultEngine::Reseed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(config_mu_);
  seed_ = seed;
  for (size_t s = 0; s < nodes_; ++s) {
    for (size_t d = 0; d < nodes_; ++d) {
      LinkState* link = links_[s * nodes_ + d].get();
      std::lock_guard<SpinLock> link_lock(link->mu);
      link->rng = Rng(MixSeed(seed_, static_cast<NodeId>(s), static_cast<NodeId>(d)));
    }
  }
  drops_.store(0, std::memory_order_relaxed);
  duplicates_.store(0, std::memory_order_relaxed);
  delays_.store(0, std::memory_order_relaxed);
  crash_drops_.store(0, std::memory_order_relaxed);
  partition_drops_.store(0, std::memory_order_relaxed);
  for (auto& c : drops_from_) {
    c->store(0, std::memory_order_relaxed);
  }
}

FaultEngine::LinkState* FaultEngine::Link(NodeId src, NodeId dst) const {
  if (src >= nodes_ || dst >= nodes_) {
    return nullptr;
  }
  return links_[static_cast<size_t>(src) * nodes_ + dst].get();
}

void FaultEngine::RecomputeArmedLocked() {
  bool armed = default_rule_.Active() || any_override_ ||
               window_count_.load(std::memory_order_relaxed) != 0;
  if (!armed) {
    for (const auto& c : crashed_) {
      if (c->load(std::memory_order_relaxed)) {
        armed = true;
        break;
      }
    }
  }
  default_active_.store(default_rule_.Active(), std::memory_order_relaxed);
  armed_.store(armed, std::memory_order_relaxed);
}

void FaultEngine::SetDefaultRule(const LinkFaultRule& rule) {
  std::lock_guard<std::mutex> lock(config_mu_);
  default_rule_ = rule;
  // Propagate to the per-link mirrors so OnTransfer reads the default under
  // the link lock alone (no shared-state race with this writer).
  for (const auto& l : links_) {
    std::lock_guard<SpinLock> link_lock(l->mu);
    l->default_copy = rule;
  }
  RecomputeArmedLocked();
}

LinkFaultRule FaultEngine::default_rule() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return default_rule_;
}

void FaultEngine::SetLinkRule(NodeId src, NodeId dst, const LinkFaultRule& rule) {
  std::lock_guard<std::mutex> lock(config_mu_);
  EnsureNodesLocked(static_cast<size_t>(std::max(src, dst)) + 1);
  LinkState* link = Link(src, dst);
  if (link == nullptr) {
    return;
  }
  {
    std::lock_guard<SpinLock> link_lock(link->mu);
    link->rule = rule;
    link->has_override = true;
  }
  any_override_ = true;
  RecomputeArmedLocked();
}

void FaultEngine::ClearLinkRule(NodeId src, NodeId dst) {
  std::lock_guard<std::mutex> lock(config_mu_);
  LinkState* link = Link(src, dst);
  if (link == nullptr) {
    return;
  }
  bool any = false;
  {
    std::lock_guard<SpinLock> link_lock(link->mu);
    link->has_override = false;
    link->rule = LinkFaultRule{};
  }
  for (const auto& l : links_) {
    std::lock_guard<SpinLock> link_lock(l->mu);
    if (l->has_override || l->partition_cut || l->drop_next.load(std::memory_order_relaxed) > 0) {
      any = true;
      break;
    }
  }
  any_override_ = any;
  RecomputeArmedLocked();
}

void FaultEngine::ClearAllRules() {
  std::lock_guard<std::mutex> lock(config_mu_);
  default_rule_ = LinkFaultRule{};
  for (const auto& l : links_) {
    std::lock_guard<SpinLock> link_lock(l->mu);
    l->has_override = false;
    l->partition_cut = false;
    l->rule = LinkFaultRule{};
    l->default_copy = LinkFaultRule{};
    l->drop_next.store(0, std::memory_order_relaxed);
  }
  any_override_ = false;
  RecomputeArmedLocked();
}

void FaultEngine::DropNextTransfers(NodeId src, NodeId dst, uint64_t count) {
  std::lock_guard<std::mutex> lock(config_mu_);
  EnsureNodesLocked(static_cast<size_t>(std::max(src, dst)) + 1);
  LinkState* link = Link(src, dst);
  if (link == nullptr) {
    return;
  }
  link->drop_next.fetch_add(static_cast<int64_t>(count), std::memory_order_relaxed);
  any_override_ = true;
  RecomputeArmedLocked();
}

void FaultEngine::Partition(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  std::lock_guard<std::mutex> lock(config_mu_);
  NodeId max_id = 0;
  for (NodeId x : a) max_id = std::max(max_id, x);
  for (NodeId y : b) max_id = std::max(max_id, y);
  EnsureNodesLocked(static_cast<size_t>(max_id) + 1);
  for (NodeId x : a) {
    for (NodeId y : b) {
      for (auto [s, d] : {std::pair<NodeId, NodeId>{x, y}, {y, x}}) {
        LinkState* link = Link(s, d);
        if (link != nullptr) {
          std::lock_guard<SpinLock> link_lock(link->mu);
          link->partition_cut = true;
        }
      }
    }
  }
  any_override_ = true;
  RecomputeArmedLocked();
}

void FaultEngine::HealPartitions() {
  std::lock_guard<std::mutex> lock(config_mu_);
  bool any = false;
  for (const auto& l : links_) {
    std::lock_guard<SpinLock> link_lock(l->mu);
    l->partition_cut = false;
    if (l->has_override || l->drop_next.load(std::memory_order_relaxed) > 0) {
      any = true;
    }
  }
  any_override_ = any;
  RecomputeArmedLocked();
}

void FaultEngine::CrashNode(NodeId node) {
  std::lock_guard<std::mutex> lock(config_mu_);
  EnsureNodesLocked(static_cast<size_t>(node) + 1);
  if (node < crashed_.size()) {
    crashed_[node]->store(1, std::memory_order_relaxed);
  }
  if (telemetry::Journal* j = JournalFor(node)) {
    j->Record(telemetry::JournalEvent::kNodeCrash, node);
  }
  RecomputeArmedLocked();
}

void FaultEngine::RestartNode(NodeId node) {
  std::lock_guard<std::mutex> lock(config_mu_);
  if (node < crashed_.size()) {
    crashed_[node]->store(0, std::memory_order_relaxed);
  }
  if (telemetry::Journal* j = JournalFor(node)) {
    j->Record(telemetry::JournalEvent::kNodeRestart, node);
  }
  RecomputeArmedLocked();
}

bool FaultEngine::NodeCrashed(NodeId node) const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return node < crashed_.size() && crashed_[node]->load(std::memory_order_relaxed) != 0;
}

void FaultEngine::ScheduleCrash(NodeId node, uint64_t start_vns, uint64_t end_vns) {
  std::lock_guard<std::mutex> lock(config_mu_);
  const size_t n = window_count_.load(std::memory_order_relaxed);
  if (n >= kMaxCrashWindows) {
    return;  // Slab full; dropping the schedule beats racing the hot path.
  }
  windows_[n] = CrashWindow{node, start_vns, end_vns};
  window_count_.store(n + 1, std::memory_order_release);
  RecomputeArmedLocked();
}

void FaultEngine::ClearSchedules() {
  std::lock_guard<std::mutex> lock(config_mu_);
  window_count_.store(0, std::memory_order_release);
  RecomputeArmedLocked();
}

void FaultEngine::AttachJournal(NodeId node, telemetry::Journal* journal) {
  std::lock_guard<std::mutex> lock(config_mu_);
  if (journals_.size() <= node) {
    journals_.resize(static_cast<size_t>(node) + 1, nullptr);
  }
  journals_[node] = journal;
}

telemetry::Journal* FaultEngine::JournalFor(NodeId node) const {
  return node < journals_.size() ? journals_[node] : nullptr;
}

void FaultEngine::JournalDrop(NodeId src, NodeId dst, uint64_t vtime_ns,
                              telemetry::DropCause cause) {
  if (telemetry::Journal* j = JournalFor(src)) {
    j->RecordAt(telemetry::JournalEvent::kFaultDrop, vtime_ns, telemetry::PackLink(src, dst),
                static_cast<uint64_t>(cause));
  }
}

void FaultEngine::NoteDrop(NodeId src) {
  drops_.fetch_add(1, std::memory_order_relaxed);
  if (src < drops_from_.size()) {
    drops_from_[src]->fetch_add(1, std::memory_order_relaxed);
  }
}

uint64_t FaultEngine::drops_from(NodeId src) const {
  std::lock_guard<std::mutex> lock(config_mu_);
  if (src >= drops_from_.size()) {
    return 0;
  }
  return drops_from_[src]->load(std::memory_order_relaxed);
}

uint64_t FaultEngine::OnTransfer(NodeId src, NodeId dst, uint64_t vtime_ns, TransferFaults* out) {
  // Crashed endpoint? (immediate flags, then virtual-time windows)
  for (NodeId endpoint : {src, dst}) {
    if (endpoint < crashed_.size() && crashed_[endpoint]->load(std::memory_order_relaxed)) {
      crash_drops_.fetch_add(1, std::memory_order_relaxed);
      NoteDrop(src);
      JournalDrop(src, dst, vtime_ns, telemetry::DropCause::kCrash);
      return kDropTransfer;
    }
  }
  const size_t windows = window_count_.load(std::memory_order_acquire);
  for (size_t i = 0; i < windows; ++i) {
    const CrashWindow& w = windows_[i];
    if ((w.node == src || w.node == dst) && vtime_ns >= w.start_vns && vtime_ns < w.end_vns) {
      crash_drops_.fetch_add(1, std::memory_order_relaxed);
      NoteDrop(src);
      JournalDrop(src, dst, vtime_ns, telemetry::DropCause::kCrash);
      return kDropTransfer;
    }
  }

  LinkState* link = Link(src, dst);
  if (link == nullptr) {
    return 0;
  }
  if (link->drop_next.load(std::memory_order_relaxed) > 0 &&
      link->drop_next.fetch_sub(1, std::memory_order_relaxed) > 0) {
    NoteDrop(src);
    JournalDrop(src, dst, vtime_ns, telemetry::DropCause::kRule);
    return kDropTransfer;
  }

  // Resolve the effective rule and make all probabilistic draws under the
  // per-link lock (the RNG stream is per-link state).
  LinkFaultRule rule;
  bool drop = false;
  bool dup = false;
  uint64_t delay = 0;
  uint64_t dup_delay = 0;
  {
    std::lock_guard<SpinLock> link_lock(link->mu);
    if (link->partition_cut) {
      partition_drops_.fetch_add(1, std::memory_order_relaxed);
      NoteDrop(src);
      JournalDrop(src, dst, vtime_ns, telemetry::DropCause::kPartition);
      return kDropTransfer;
    }
    rule = link->has_override ? link->rule : link->default_copy;
    if (rule.drop_p > 0.0 && link->rng.NextDouble() < rule.drop_p) {
      drop = true;
    }
    if (!drop) {
      if (rule.dup_p > 0.0 && link->rng.NextDouble() < rule.dup_p) {
        dup = true;
      }
      delay = rule.extra_delay_ns;
      if (rule.jitter_ns > 0) {
        delay += link->rng.NextBounded(rule.jitter_ns);
      }
      if (dup && rule.jitter_ns > 0) {
        dup_delay = link->rng.NextBounded(rule.jitter_ns);
      }
    }
  }
  if (drop) {
    NoteDrop(src);
    JournalDrop(src, dst, vtime_ns, telemetry::DropCause::kRule);
    return kDropTransfer;
  }
  if (delay != 0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::Journal* j = JournalFor(src)) {
      j->RecordAt(telemetry::JournalEvent::kFaultDelay, vtime_ns, telemetry::PackLink(src, dst),
                  delay);
    }
  }
  if (dup) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::Journal* j = JournalFor(src)) {
      j->RecordAt(telemetry::JournalEvent::kFaultDup, vtime_ns, telemetry::PackLink(src, dst),
                  dup_delay);
    }
    if (out != nullptr) {
      out->duplicate = true;
      out->dup_extra_delay_ns = dup_delay;
    }
  }
  return delay;
}

}  // namespace lt
