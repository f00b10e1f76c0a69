// Live LMR migration: the epoch-fenced ownership guard (MigrationState) and
// the coordinator state machine + control-plane handlers, all declared in
// migration.h / instance.h. See DESIGN.md "Epoch-fenced ownership & live
// migration" for the phase diagram and abort rules.
#include "src/lite/migration.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/logging.h"
#include "src/common/timing.h"
#include "src/lite/instance.h"
#include "src/lite/wire.h"

namespace lite {

using lt::NowNs;
using lt::telemetry::JournalEvent;
using lt::telemetry::PackLink;
using lt::telemetry::PackName8;

namespace {

// Real-time bound on one fence park. The fence spans one token drain, one
// bounded re-copy, and one activate RPC — milliseconds of real time — so a
// park that outlives this cap means the coordinator is wedged; the op then
// surfaces Unavailable and rides the issuer's transient-retry loop back here.
constexpr uint64_t kParkCapRealNs = 2'000'000'000ull;

// Converge re-copy rounds before the fence closes regardless.
constexpr uint32_t kMigrateMaxRounds = 4;

// Merges [begin, end) into an interval map keyed by range start.
void InsertInterval(std::map<uint64_t, uint64_t>* m, uint64_t begin, uint64_t end) {
  if (begin >= end) {
    return;
  }
  auto it = m->upper_bound(begin);
  if (it != m->begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) {
      begin = prev->first;
      end = std::max(end, prev->second);
      m->erase(prev);
    }
  }
  while (it != m->end() && it->first <= end) {
    end = std::max(end, it->second);
    it = m->erase(it);
  }
  (*m)[begin] = end;
}

}  // namespace

// =============================================================== guard side

void MigrationState::RegisterTelemetry(lt::telemetry::Registry* registry,
                                       lt::telemetry::Journal* journal) {
  journal_ = journal;
  started_ = registry->GetCounter("lite.migrate.started");
  committed_ = registry->GetCounter("lite.migrate.committed");
  aborted_ = registry->GetCounter("lite.migrate.aborted");
  rounds_ = registry->GetCounter("lite.migrate.rounds");
  bytes_copied_ = registry->GetCounter("lite.migrate.bytes_copied");
  dirty_bytes_ = registry->GetCounter("lite.migrate.dirty_bytes");
  parked_ops_ = registry->GetCounter("lite.migrate.parked_ops");
  stale_nacks_ = registry->GetCounter("lite.migrate.stale_nacks");
  redirects_ = registry->GetCounter("lite.migrate.redirects");
  drained_lmrs_ = registry->GetCounter("lite.migrate.drained_lmrs");
}

std::shared_ptr<MigrationRecord> MigrationState::FindRange(PhysAddr addr, uint64_t len) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ranges_.upper_bound(addr);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (addr < prev->second.end) {
      return prev->second.rec;
    }
  }
  // Defensive: an access starting below a range but reaching into it (cannot
  // happen for chunk-sliced pieces, which never cross a chunk boundary).
  if (it != ranges_.end() && it->first < addr + len) {
    return it->second.rec;
  }
  return nullptr;
}

void MigrationState::AddDirtyLocked(MigrationRecord* rec, PhysAddr addr, uint64_t len) {
  for (size_t i = 0; i < rec->old_chunks.size(); ++i) {
    const LmrChunk& c = rec->old_chunks[i];
    if (addr >= c.addr && addr < c.addr + c.size) {
      const uint64_t off = rec->chunk_lmr_base[i] + (addr - c.addr);
      const uint64_t take = std::min(len, c.addr + c.size - addr);
      InsertInterval(&rec->dirty, off, off + take);
      return;
    }
  }
}

Status MigrationState::Open(PhysAddr addr, uint64_t len, bool is_write, NodeId requester,
                            AccessGate* gate) {
  gate->is_write = is_write;
  if (is_write) {
    untracked_writes_.fetch_add(1);
  }
  if (armed_.load() == 0) {
    return Status::Ok();
  }
  Status s = OpenAccess(addr, len, is_write, requester, gate);
  if (is_write && (gate->rec != nullptr || !s.ok())) {
    untracked_writes_.fetch_sub(1);  // A token tracks it, or it never runs.
  }
  return s;
}

Status MigrationState::OpenAccess(PhysAddr addr, uint64_t len, bool is_write, NodeId requester,
                                  AccessGate* gate) {
  std::shared_ptr<MigrationRecord> rec = FindRange(addr, len);
  if (rec == nullptr) {
    return Status::Ok();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(kParkCapRealNs);
  std::unique_lock<std::mutex> lock(rec->mu);
  bool parked = false;
  while (true) {
    switch (rec->phase) {
      case MigrationPhase::kCommitted: {
        // The LMR left this node: NACK so the issuer re-resolves the home.
        const uint64_t unpark = rec->unpark_vtime_ns;
        const uint64_t epoch = rec->old_epoch;
        lock.unlock();
        if (parked) {
          lt::SyncClockTo(unpark);
        }
        if (stale_nacks_ != nullptr) {
          stale_nacks_->Inc();
        }
        if (journal_ != nullptr) {
          journal_->Record(JournalEvent::kStaleHomeNack, requester, epoch);
        }
        return Status::StaleHome("target LMR migrated away; re-resolve its home");
      }
      case MigrationPhase::kAborted: {
        // The record is inert; this node stays home. No token needed.
        const uint64_t unpark = rec->unpark_vtime_ns;
        lock.unlock();
        if (parked) {
          lt::SyncClockTo(unpark);
        }
        return Status::Ok();
      }
      case MigrationPhase::kMirror:
      case MigrationPhase::kConverge:
        // Proceed under a token; writes are dirty-logged at CloseAccess
        // (after the data landed), so the coordinator re-copies them.
        ++rec->tokens;
        gate->rec = rec;
        gate->addr = addr;
        gate->len = len;
        return Status::Ok();
      case MigrationPhase::kIdle:
      case MigrationPhase::kFence: {
        // Park: a real-time condvar wait charging zero virtual time. On
        // unpark the waiter jumps its clock to the coordinator's
        // commit/abort point, so measured downtime is the fence's virtual
        // span, not the wall time the coordinator happened to take.
        if (!parked) {
          parked = true;
          if (parked_ops_ != nullptr) {
            parked_ops_->Inc();
          }
        }
        if (rec->cv.wait_until(lock, deadline) == std::cv_status::timeout &&
            (rec->phase == MigrationPhase::kFence || rec->phase == MigrationPhase::kIdle)) {
          return Status::Unavailable("migration fence busy");
        }
        break;
      }
    }
  }
}

void MigrationState::CloseAccess(AccessGate* gate, bool success) {
  if (gate->rec == nullptr) {
    if (gate->is_write) {
      untracked_writes_.fetch_sub(1);
    }
    return;
  }
  std::shared_ptr<MigrationRecord> rec = std::move(gate->rec);
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    if (success && gate->is_write && rec->phase != MigrationPhase::kAborted) {
      AddDirtyLocked(rec.get(), gate->addr, gate->len);
    }
    if (rec->tokens > 0) {
      --rec->tokens;
    }
  }
  rec->cv.notify_all();
}

// ========================================================= coordinator side

StatusOr<std::shared_ptr<MigrationRecord>> MigrationState::Begin(
    const std::string& name, NodeId src, NodeId dst, uint64_t old_epoch,
    const std::vector<LmrChunk>& chunks, uint64_t lmr_size) {
  auto rec = std::make_shared<MigrationRecord>();
  rec->name = name;
  rec->src = src;
  rec->dst = dst;
  rec->old_epoch = old_epoch;
  rec->old_chunks = chunks;
  uint64_t base = 0;
  for (const LmrChunk& c : chunks) {
    rec->chunk_lmr_base.push_back(base);
    base += c.size;
  }
  if (base != lmr_size) {
    return Status::Internal("LMR chunk placement does not cover its size");
  }
  rec->phase = MigrationPhase::kMirror;

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(name);
    if (it != records_.end()) {
      // A clean abort leaves an inert record. A committed tombstone is stale
      // once the LMR has migrated back here at an epoch >= the one it left
      // with (its quarantined ranges stay armed below). Either one may be
      // replaced; anything else is a migration genuinely in flight.
      const bool inert = it->second->phase == MigrationPhase::kAborted;
      const bool superseded = it->second->phase == MigrationPhase::kCommitted &&
                              it->second->new_epoch <= old_epoch;
      if (!inert && !superseded) {
        return Status::FailedPrecondition("LMR already migrating or already migrated away");
      }
      records_.erase(it);
    }
    for (const LmrChunk& c : chunks) {
      ranges_[c.addr] = RangeRef{c.addr + c.size, rec};
    }
    records_[name] = rec;
    armed_.store(records_.size() + ranges_.size());
  }
  // Every write that opens from here on finds the record. One that opened
  // before it existed may still be copying its data in: let it land first.
  while (untracked_writes_.load() != 0) {
    std::this_thread::yield();
  }
  return rec;
}

void MigrationState::SetPhase(const std::shared_ptr<MigrationRecord>& rec, MigrationPhase phase) {
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    rec->phase = phase;
  }
  rec->cv.notify_all();
  if (journal_ != nullptr) {
    journal_->Record(JournalEvent::kMigratePhase, PackName8(rec->name.c_str()),
                     static_cast<uint64_t>(phase));
  }
}

bool MigrationState::DrainTokens(const std::shared_ptr<MigrationRecord>& rec,
                                 uint64_t cap_real_ns) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(cap_real_ns);
  std::unique_lock<std::mutex> lock(rec->mu);
  while (rec->tokens > 0) {
    if (rec->cv.wait_until(lock, deadline) == std::cv_status::timeout && rec->tokens > 0) {
      return false;
    }
  }
  return true;
}

std::map<uint64_t, uint64_t> MigrationState::TakeDirty(
    const std::shared_ptr<MigrationRecord>& rec) {
  std::lock_guard<std::mutex> lock(rec->mu);
  std::map<uint64_t, uint64_t> dirty = std::move(rec->dirty);
  rec->dirty.clear();
  return dirty;
}

void MigrationState::Commit(const std::shared_ptr<MigrationRecord>& rec, NodeId new_home,
                            uint64_t new_epoch, std::vector<LmrChunk> new_chunks,
                            uint64_t unpark_vtime_ns) {
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    rec->phase = MigrationPhase::kCommitted;
    rec->new_home = new_home;
    rec->new_epoch = new_epoch;
    rec->new_chunks = std::move(new_chunks);
    rec->unpark_vtime_ns = unpark_vtime_ns;
    rec->dirty.clear();
  }
  // The record stays in records_ (tombstone for kFnStaleHome) and its old
  // ranges stay in ranges_ forever: a stale-epoch access must keep resolving
  // here so the gate can NACK it, which means the old physical ranges are
  // quarantined — never freed, never reused (deliberate bounded leak;
  // DESIGN.md "Quarantine rule").
  rec->cv.notify_all();
}

void MigrationState::Abort(const std::shared_ptr<MigrationRecord>& rec,
                           uint64_t unpark_vtime_ns) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const LmrChunk& c : rec->old_chunks) {
      auto it = ranges_.find(c.addr);
      if (it != ranges_.end() && it->second.rec == rec) {
        ranges_.erase(it);
      }
    }
    auto it = records_.find(rec->name);
    if (it != records_.end() && it->second == rec) {
      records_.erase(it);
    }
    armed_.store(records_.size() + ranges_.size(), std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    rec->phase = MigrationPhase::kAborted;
    rec->unpark_vtime_ns = unpark_vtime_ns;
    rec->dirty.clear();
  }
  rec->cv.notify_all();
}

StatusOr<StaleRedirect> MigrationState::LookupTombstone(const std::string& name) const {
  std::shared_ptr<MigrationRecord> rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(name);
    if (it == records_.end()) {
      return Status::NotFound("no migration record for name");
    }
    rec = it->second;
  }
  std::lock_guard<std::mutex> lock(rec->mu);
  if (rec->phase != MigrationPhase::kCommitted) {
    return Status::NotFound("migration not committed");
  }
  StaleRedirect redir;
  redir.new_home = rec->new_home;
  redir.epoch = rec->new_epoch;
  redir.chunks = rec->new_chunks;
  return redir;
}

void MigrationState::Supersede(const std::string& name, uint64_t current_epoch) {
  std::shared_ptr<MigrationRecord> rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = records_.find(name);
    if (it == records_.end()) {
      return;
    }
    rec = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    if (rec->phase != MigrationPhase::kCommitted || rec->new_epoch > current_epoch) {
      return;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(name);
  if (it != records_.end() && it->second == rec) {
    records_.erase(it);
  }
  // The tombstone's old ranges stay in ranges_ (still reachable through the
  // shared_ptr there): accesses from epochs before the LMR left keep NACKing
  // into a redirect instead of touching quarantined memory.
  armed_.store(records_.size() + ranges_.size(), std::memory_order_relaxed);
}

bool MigrationState::Stage(const std::string& name, StagedInstall staged) {
  std::lock_guard<std::mutex> lock(mu_);
  return staged_.emplace(name, std::move(staged)).second;
}

StatusOr<StagedInstall> MigrationState::TakeStaged(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = staged_.find(name);
  if (it == staged_.end()) {
    return Status::NotFound("no staged install for name");
  }
  StagedInstall staged = std::move(it->second);
  staged_.erase(it);
  return staged;
}

// ============================================== coordinator (LiteInstance)

Status LiteInstance::CopyLmrIntervals(const std::vector<LmrChunk>& old_chunks,
                                      const std::vector<LmrChunk>& new_chunks, uint64_t lmr_size,
                                      const std::map<uint64_t, uint64_t>* dirty,
                                      MigrateStats* stats) {
  const std::map<uint64_t, uint64_t> whole{{0, lmr_size}};
  std::vector<OpEngine::OpDesc> descs;
  uint64_t total = 0;
  for (const auto& [begin, end] : dirty != nullptr ? *dirty : whole) {
    if (begin >= lmr_size) {
      continue;
    }
    const uint64_t len = std::min(end, lmr_size) - begin;
    auto src_pieces = SliceChunks(old_chunks, begin, len);
    auto dst_pieces = SliceChunks(new_chunks, begin, len);
    size_t si = 0;
    size_t di = 0;
    uint64_t soff = 0;
    uint64_t doff = 0;
    while (si < src_pieces.size() && di < dst_pieces.size()) {
      const uint64_t take = std::min(src_pieces[si].len - soff, dst_pieces[di].len - doff);
      descs.push_back(OpEngine::OpDesc{
          dst_pieces[di].node, dst_pieces[di].addr + doff,
          node_->mem().Data(src_pieces[si].addr + soff, take), take});
      total += take;
      soff += take;
      doff += take;
      if (soff == src_pieces[si].len) {
        ++si;
        soff = 0;
      }
      if (doff == dst_pieces[di].len) {
        ++di;
        doff = 0;
      }
    }
  }
  const uint64_t dirty_total = dirty != nullptr ? total : 0;
  migration_.bytes_copied_->Inc(total);
  migration_.dirty_bytes_->Inc(dirty_total);
  if (stats != nullptr) {
    stats->bytes_copied += total;
    stats->dirty_bytes += dirty_total;
  }
  if (descs.empty()) {
    return Status::Ok();
  }
  return engine_.SubmitPieces(descs, /*is_read=*/false, Priority::kHigh);
}

void LiteInstance::RepointName(const std::string& name, NodeId home, uint64_t epoch) {
  if (manager_node_ == node_id()) {
    lmrs_.UpdateName(name, home, epoch);
  } else if (!PeerDead(manager_node_)) {
    WireWriter w;
    w.PutString(name);
    w.Put<NodeId>(home);
    w.Put<uint64_t>(epoch);
    (void)InternalRpc(manager_node_, kFnUpdateName, w.bytes(), nullptr, {.max_retries = 0});
  }
}

void LiteInstance::AbortMigration(const std::shared_ptr<MigrationRecord>& rec,
                                  MigrationPhase phase_reached) {
  // Epoch fencing: bump the source's epoch by 2 so it leapfrogs a
  // destination that may have activated at old_epoch + 1 without us learning
  // of it (activate reply lost). Name-service arbitration — UpdateName and
  // the rebuild path both keep the highest epoch — then resolves any
  // split-brain back to the source.
  uint64_t fenced_epoch = 0;
  (void)lmrs_.WithMeta(rec->name, [&](LmrMeta& m) {
    m.epoch += 2;
    fenced_epoch = m.epoch;
    return lt::StatusCode::kOk;
  });
  migration_.Abort(rec, NowNs());
  migration_.aborted_->Inc();
  if (journal_ != nullptr) {
    journal_->Record(JournalEvent::kMigrateAbort, PackName8(rec->name.c_str()),
                     static_cast<uint64_t>(phase_reached));
  }
  // Best-effort uninstall of the staged copy at the destination (leaks until
  // the destination restarts if it is unreachable — documented).
  if (!PeerDead(rec->dst)) {
    WireWriter w;
    w.PutString(rec->name);
    (void)InternalRpc(rec->dst, kFnMigrateAbort, w.bytes(), nullptr, {.max_retries = 0});
  }
  // Re-pin the name at the source under the fenced epoch.
  if (fenced_epoch != 0) {
    RepointName(rec->name, node_id(), fenced_epoch);
  }
}

Status LiteInstance::MigrateHosted(const std::string& name, NodeId dst, NodeId requester,
                                   MigrateStats* stats) {
  if (dst == node_id()) {
    return Status::InvalidArgument("LMR already lives on the destination node");
  }
  if (Peer(dst) == nullptr) {
    return Status::InvalidArgument("unknown destination node");
  }
  if (PeerDead(dst)) {
    return DeadPeerUnavailable();
  }

  LmrMeta meta;
  bool allowed = false;
  lt::StatusCode code = lmrs_.WithMeta(name, [&](LmrMeta& m) {
    meta = m;
    allowed = m.masters.count(requester) > 0 || requester == node_id() ||
              requester == manager_node_;
    return lt::StatusCode::kOk;
  });
  if (code != lt::StatusCode::kOk) {
    return Status::NotFound("LMR is not hosted on this node");
  }
  if (!allowed) {
    return Status::PermissionDenied("migration requires the master role or operator authority");
  }
  for (const LmrChunk& c : meta.chunks) {
    if (c.node != node_id()) {
      return Status::FailedPrecondition("cannot migrate an LMR spread across nodes");
    }
  }

  const uint64_t new_epoch = meta.epoch + 1;
  auto begun = migration_.Begin(name, node_id(), dst, meta.epoch, meta.chunks, meta.size);
  if (!begun.ok()) {
    return begun.status();
  }
  std::shared_ptr<MigrationRecord> rec = *begun;
  migration_.started_->Inc();
  if (journal_ != nullptr) {
    journal_->Record(JournalEvent::kMigrateStart, PackName8(name.c_str()),
                     PackLink(node_id(), dst));
    journal_->Record(JournalEvent::kMigratePhase, PackName8(name.c_str()),
                     static_cast<uint64_t>(MigrationPhase::kMirror));
  }

  // ---- Phase 1, kMirror: stage chunks at the destination, bulk-copy. ----
  std::vector<LmrChunk> new_chunks;
  {
    WireWriter w;
    w.PutString(name);
    w.Put<NodeId>(node_id());
    w.Put<uint64_t>(meta.size);
    w.Put<uint64_t>(new_epoch);
    std::vector<uint8_t> out;
    Status st = InternalRpc(dst, kFnMigrateInstall, w.bytes(), &out);
    if (st.ok()) {
      WireReader r(out.data(), out.size());
      if (!r.GetChunks(&new_chunks) || new_chunks.empty()) {
        st = Status::Internal("malformed migrate-install reply");
      }
    }
    if (st.ok()) {
      st = CopyLmrIntervals(meta.chunks, new_chunks, meta.size, nullptr, stats);
    }
    if (!st.ok()) {
      AbortMigration(rec, MigrationPhase::kMirror);
      return st;
    }
  }

  // ---- Phase 2, kConverge: bounded re-copy of concurrently dirtied data. --
  migration_.SetPhase(rec, MigrationPhase::kConverge);
  for (uint32_t round = 0; round < kMigrateMaxRounds; ++round) {
    auto dirty = migration_.TakeDirty(rec);
    if (dirty.empty()) {
      break;
    }
    migration_.rounds_->Inc();
    if (stats != nullptr) {
      ++stats->rounds;
    }
    Status st = CopyLmrIntervals(meta.chunks, new_chunks, meta.size, &dirty, stats);
    if (!st.ok()) {
      AbortMigration(rec, MigrationPhase::kConverge);
      return st;
    }
  }

  // ---- Phase 3, kFence: park new ops, drain in-flight ones, final copy. --
  if (stats != nullptr) {
    stats->fence_start_ns = NowNs();
  }
  migration_.SetPhase(rec, MigrationPhase::kFence);
  if (!migration_.DrainTokens(rec, kParkCapRealNs)) {
    AbortMigration(rec, MigrationPhase::kFence);
    return Status::Timeout("migration fence could not drain in-flight ops");
  }
  {
    auto final_dirty = migration_.TakeDirty(rec);
    Status st = CopyLmrIntervals(meta.chunks, new_chunks, meta.size, &final_dirty, stats);
    if (!st.ok()) {
      AbortMigration(rec, MigrationPhase::kFence);
      return st;
    }
  }

  // ---- Commit point: activate the destination. The RPC layer dedups
  // transparent retries, so the handler runs at most once; if the call still
  // fails the outcome is unknown and we abort under the epoch fence. ----
  {
    WireWriter w;
    w.PutString(name);
    w.Put<uint64_t>(new_epoch);
    w.Put<uint32_t>(meta.default_perm);
    w.Put<uint32_t>(static_cast<uint32_t>(meta.node_perm.size()));
    for (const auto& [node, perm] : meta.node_perm) {
      w.Put<NodeId>(node);
      w.Put<uint32_t>(perm);
    }
    w.Put<uint32_t>(static_cast<uint32_t>(meta.masters.size()));
    for (NodeId m : meta.masters) {
      w.Put<NodeId>(m);
    }
    w.Put<uint32_t>(static_cast<uint32_t>(meta.mapped_nodes.size()));
    for (NodeId m : meta.mapped_nodes) {
      w.Put<NodeId>(m);
    }
    Status st = InternalRpc(dst, kFnMigrateActivate, w.bytes(), nullptr);
    if (!st.ok()) {
      AbortMigration(rec, MigrationPhase::kFence);
      return st;
    }
  }

  // The destination is home: flip the gate to its tombstone form (unparking
  // fenced ops into kStaleHome redirects), then drop the local metadata.
  const uint64_t commit_vtime = NowNs();
  migration_.Commit(rec, dst, new_epoch, new_chunks, commit_vtime);
  (void)lmrs_.TakeMeta(name);
  migration_.committed_->Inc();
  if (journal_ != nullptr) {
    journal_->Record(JournalEvent::kMigrateCommit, PackName8(name.c_str()), new_epoch);
    journal_->Record(JournalEvent::kMigratePhase, PackName8(name.c_str()),
                     static_cast<uint64_t>(MigrationPhase::kCommitted));
  }
  if (stats != nullptr) {
    stats->commit_ns = commit_vtime;
  }
  // Our own mappings follow immediately; everyone else learns via the
  // rehome fan-out below or lazily via a stale-home NACK.
  lmrs_.UpdateHomeByName(name, dst, new_chunks, new_epoch);

  // Post-commit, off the blocked-op critical path: re-point the name
  // service (best-effort — the tombstone covers the window) and fan the new
  // placement out to every node that mapped the LMR.
  RepointName(name, dst, new_epoch);
  {
    WireWriter w;
    w.PutString(name);
    w.Put<NodeId>(dst);
    w.Put<uint64_t>(new_epoch);
    w.PutChunks(new_chunks);
    for (NodeId mapped : meta.mapped_nodes) {
      if (mapped == node_id() || mapped == dst || PeerDead(mapped)) {
        continue;
      }
      (void)RpcSendNoReply(mapped, kFnLmrRehome, w.bytes().data(),
                           static_cast<uint32_t>(w.bytes().size()));
    }
  }
  // The old chunks stay quarantined (see MigrationState::Commit): freeing
  // them would let the allocator hand the ranges to a new LMR, turning a
  // stale-epoch access into silent corruption instead of a NACK.
  return Status::Ok();
}

Status LiteInstance::MigrateAt(NodeId home, const std::string& name, NodeId dst,
                               MigrateStats* stats) {
  if (home == node_id()) {
    return MigrateHosted(name, dst, node_id(), stats);
  }
  WireWriter w;
  w.PutString(name);
  w.Put<NodeId>(dst);
  w.Put<NodeId>(node_id());
  // Generous timeout: the coordinator mirrors the whole LMR inside the call.
  return InternalRpc(home, kFnMigrateLmr, w.bytes(), nullptr,
                     {.timeout_ns = 120'000'000'000ull});
}

Status LiteInstance::Migrate(const std::string& name, NodeId new_home, MigrateStats* stats) {
  NodeId home = node_id();
  if (lmrs_.WithMeta(name, [](LmrMeta&) { return lt::StatusCode::kOk; }) !=
      lt::StatusCode::kOk) {
    auto named = LookupMasterNode(name);
    if (!named.ok()) {
      return named.status();
    }
    home = *named;
  }
  return MigrateAt(home, name, new_home, stats);
}

Status LiteInstance::DrainNode(NodeId victim, uint64_t* moved) {
  if (moved != nullptr) {
    *moved = 0;
  }
  if (victim != node_id() && Peer(victim) == nullptr) {
    return Status::InvalidArgument("unknown node to drain");
  }
  if (PeerDead(victim)) {
    return DeadPeerUnavailable();
  }
  auto names = ListNamesAt(victim);
  if (!names.ok()) {
    return names.status();
  }

  // Destinations: every alive peer except the victim, round-robin.
  std::vector<NodeId> targets;
  for (NodeId n = 0; n < peers_.size(); ++n) {
    if (peers_[n] != nullptr && n != victim && !PeerDead(n)) {
      targets.push_back(n);
    }
  }
  if (targets.empty()) {
    return Status::FailedPrecondition("no alive destination node for drain");
  }

  Status first = Status::Ok();
  size_t next = 0;
  for (const auto& [name, epoch] : *names) {
    (void)epoch;
    Status st = MigrateAt(victim, name, targets[next++ % targets.size()], nullptr);
    if (st.ok()) {
      migration_.drained_lmrs_->Inc();
      if (moved != nullptr) {
        ++*moved;
      }
    } else if (first.ok()) {
      first = st;
    }
  }
  return first;
}

// ================================================== stale-home redirection

StatusOr<StaleRedirect> LiteInstance::ResolveHome(const std::string& name, NodeId hint,
                                                  bool ask_manager) {
  auto ask = [&](NodeId at) -> StatusOr<StaleRedirect> {
    StaleRedirect redir;
    if (at != node_id()) {
      WireWriter w;
      w.PutString(name);
      std::vector<uint8_t> out;
      LT_RETURN_IF_ERROR(InternalRpc(at, kFnStaleHome, w.bytes(), &out));
      WireReader r(out.data(), out.size());
      if (!r.Get(&redir.new_home) || !r.Get(&redir.epoch) || !r.GetChunks(&redir.chunks)) {
        return Status::Internal("malformed stale-home reply");
      }
      return redir;
    }
    // The higher epoch of live local metadata and a committed tombstone
    // wins, as in the name service. An LMR that migrated back here outranks
    // its old tombstone; between a commit and the drop of the source's
    // metadata, the tombstone outranks the metadata it replaces.
    const lt::StatusCode hosted = lmrs_.WithMeta(name, [&](LmrMeta& meta) {
      redir = StaleRedirect{node_id(), meta.epoch, meta.chunks};
      return lt::StatusCode::kOk;
    });
    auto tombstone = migration_.LookupTombstone(name);
    if (hosted == lt::StatusCode::kOk && (!tombstone.ok() || tombstone->epoch <= redir.epoch)) {
      return redir;
    }
    return tombstone;
  };
  auto redir = ask(hint);
  if (redir.ok() || !ask_manager) {
    return redir;
  }
  // The hinted home is dead or lost its record: ask the home the manager's
  // name service points at.
  auto home = LookupMasterNode(name);
  if (!home.ok()) {
    return home.status();
  }
  if (*home == hint) {
    return Status::Unavailable("LMR home still settling after migration");
  }
  return ask(*home);
}

StatusOr<bool> LiteInstance::RefreshStaleLh(Lh lh, LhEntry* entry) {
  migration_.redirects_->Inc();
  auto redir = ResolveHome(entry->name, entry->master_node);
  if (!redir.ok()) {
    return redir.status();
  }
  lmrs_.UpdateHomeByName(entry->name, redir->new_home, redir->chunks, redir->epoch);
  // Reload: this resolution, a racing refresh or the rehome fan-out may have
  // advanced the mapping since the NACK.
  auto fresh = lmrs_.Get(lh);
  if (!fresh.ok()) {
    return fresh.status();
  }
  const bool advanced = fresh->epoch > entry->epoch;
  *entry = *fresh;
  return advanced;
}

Status LiteInstance::RedoMemopAfterStale(Lh lh, uint64_t offset, void* buf, uint64_t len,
                                         bool is_read, Priority pri) {
  auto entry = GetLh(lh);
  if (!entry.ok()) {
    return entry.status();
  }
  // Submit against the current mapping first: a concurrent redo (another op
  // of the same lh) may already have refreshed it, in which case a refresh
  // here would see no epoch advance and fail spuriously.
  return SubmitLh(lh, &*entry, offset, buf, len, is_read, pri);
}

// ======================================================= control handlers

void LiteInstance::RegisterMigrationHandlers() {
  // Destination: allocate + stage the new placement. Transparent RPC retries
  // are deduped by the server ring, so this executes at most once per call.
  internal_handlers_[kFnMigrateInstall] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId src = kInvalidNode;
    uint64_t size = 0;
    uint64_t new_epoch = 0;
    if (!r.GetString(&name) || !r.Get(&src) || !r.Get(&size) || !r.Get(&new_epoch) ||
        size == 0) {
      return lt::StatusCode::kInvalidArgument;
    }
    const bool hosted =
        self->lmrs_.WithMeta(name, [](LmrMeta&) { return lt::StatusCode::kOk; }) ==
        lt::StatusCode::kOk;
    if (hosted) {
      return lt::StatusCode::kAlreadyExists;
    }
    auto chunks = self->AllocLocalChunks(size);
    if (!chunks.ok()) {
      return chunks.status().code();
    }
    StagedInstall staged;
    staged.src = src;
    staged.size = size;
    staged.new_epoch = new_epoch;
    staged.chunks = *chunks;
    if (!self->migration_.Stage(name, std::move(staged))) {
      self->FreeLocalChunks(*chunks);
      return lt::StatusCode::kAlreadyExists;
    }
    WireWriter payload;
    payload.PutChunks(*chunks);
    return payload.bytes();
  };

  // Destination: the commit point. Promotes the staged chunks to a hosted
  // LMR at the new epoch.
  internal_handlers_[kFnMigrateActivate] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    uint64_t new_epoch = 0;
    uint32_t default_perm = 0;
    uint32_t perm_count = 0;
    if (!r.GetString(&name) || !r.Get(&new_epoch) || !r.Get(&default_perm) ||
        !r.Get(&perm_count)) {
      return lt::StatusCode::kInvalidArgument;
    }
    std::map<NodeId, uint32_t> node_perm;
    for (uint32_t i = 0; i < perm_count; ++i) {
      NodeId node = kInvalidNode;
      uint32_t perm = 0;
      if (!r.Get(&node) || !r.Get(&perm)) {
        return lt::StatusCode::kInvalidArgument;
      }
      node_perm[node] = perm;
    }
    auto read_nodes = [&](std::set<NodeId>* out) {
      uint32_t count = 0;
      if (!r.Get(&count)) {
        return false;
      }
      for (uint32_t i = 0; i < count; ++i) {
        NodeId node = kInvalidNode;
        if (!r.Get(&node)) {
          return false;
        }
        out->insert(node);
      }
      return true;
    };
    std::set<NodeId> masters;
    std::set<NodeId> mapped;
    if (!read_nodes(&masters) || !read_nodes(&mapped)) {
      return lt::StatusCode::kInvalidArgument;
    }
    auto staged = self->migration_.TakeStaged(name);
    if (!staged.ok()) {
      return lt::StatusCode::kNotFound;
    }
    LmrMeta meta;
    meta.name = name;
    meta.size = staged->size;
    meta.chunks = staged->chunks;
    meta.default_perm = default_perm;
    meta.node_perm = std::move(node_perm);
    meta.masters = std::move(masters);
    meta.mapped_nodes = std::move(mapped);
    meta.mapped_nodes.insert(self->node_id());
    meta.epoch = new_epoch;
    const std::vector<LmrChunk> chunks = meta.chunks;
    self->lmrs_.InsertMeta(std::move(meta));
    // Any of our own lhs mapped to the old home follow immediately.
    self->lmrs_.UpdateHomeByName(name, self->node_id(), chunks, new_epoch);
    // If this node migrated the LMR away in an earlier epoch, that tombstone
    // is obsolete now that we are home again — retire it so a later
    // migration from here can begin.
    self->migration_.Supersede(name, new_epoch);
    return lt::StatusCode::kOk;
  };

  // Destination: clean abort — drop the staged allocation. If activation
  // already happened this is a stale abort from a split outcome; the meta
  // stays and epoch arbitration at the source decides (DESIGN.md).
  internal_handlers_[kFnMigrateAbort] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    if (r.GetString(&name)) {
      auto staged = self->migration_.TakeStaged(name);
      if (staged.ok()) {
        self->FreeLocalChunks(staged->chunks);
      }
    }
    return lt::StatusCode::kOk;
  };

  // Manager: epoch-guarded name-service repoint.
  internal_handlers_[kFnUpdateName] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId new_home = kInvalidNode;
    uint64_t epoch = 0;
    if (!r.GetString(&name) || !r.Get(&new_home) || !r.Get(&epoch)) {
      return lt::StatusCode::kInvalidArgument;
    }
    self->lmrs_.UpdateName(name, new_home, epoch);
    return lt::StatusCode::kOk;
  };

  // Home: coordinator entry point (LT_migrate routed from another node).
  internal_handlers_[kFnMigrateLmr] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId dst = kInvalidNode;
    NodeId requester = kInvalidNode;
    if (!r.GetString(&name) || !r.Get(&dst) || !r.Get(&requester)) {
      return lt::StatusCode::kInvalidArgument;
    }
    return self->MigrateHosted(name, dst, requester, nullptr).code();
  };

  // Mapped nodes: post-commit rehome fan-out (fire-and-forget).
  internal_handlers_[kFnLmrRehome] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId new_home = kInvalidNode;
    uint64_t epoch = 0;
    std::vector<LmrChunk> chunks;
    if (!r.GetString(&name) || !r.Get(&new_home) || !r.Get(&epoch) || !r.GetChunks(&chunks)) {
      return lt::StatusCode::kInvalidArgument;
    }
    self->lmrs_.UpdateHomeByName(name, new_home, chunks, epoch);
    return lt::StatusCode::kOk;
  };

  // Old home (or any node): where does `name` live now, as this node knows
  // it (its live metadata, else its tombstone)?
  internal_handlers_[kFnStaleHome] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    if (!r.GetString(&name)) {
      return lt::StatusCode::kInvalidArgument;
    }
    auto redir = self->ResolveHome(name, self->node_id(), /*ask_manager=*/false);
    if (!redir.ok()) {
      return redir.status().code();
    }
    WireWriter payload;
    payload.Put<NodeId>(redir->new_home);
    payload.Put<uint64_t>(redir->epoch);
    payload.PutChunks(redir->chunks);
    return payload.bytes();
  };
}

}  // namespace lite
