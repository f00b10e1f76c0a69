// LITE memory API: LT_malloc/free/map/unmap, LT_read/write, and the
// memory-like extended operations LT_memset/memcpy/memmove (paper Secs. 4, 7.1),
// plus the master-role management operations (paper Sec. 4.1) and the name
// service client (lookup, listing, rebuild).
#include <cstring>

#include "src/common/logging.h"
#include "src/common/timing.h"
#include "src/lite/instance.h"
#include "src/lite/wire.h"

namespace lite {

using lt::SpinFor;
using lt::telemetry::AttrAdd;
using lt::telemetry::LatStage;
using lt::telemetry::ScopedOpAttr;

namespace {

std::string LockName(const std::string& name) { return "__lock_" + name; }

}  // namespace

template <typename Submit>
Status LiteInstance::RedirectStale(std::initializer_list<std::pair<Lh, LhRef*>> lhs,
                                   Submit&& submit) {
  Status st = submit();
  for (int redirect = 0; redirect < kMaxStaleRedirects && st.code() == lt::StatusCode::kStaleHome;
       ++redirect) {
    const uint64_t redo_t0 = lt::NowNs();
    // The NACK does not say which mapping is stale: refresh them all; only
    // a re-resolution that moved none of them is an error.
    bool advanced = false;
    for (const auto& [lh, entry] : lhs) {
      auto moved = RefreshStaleLh(lh, entry);
      if (!moved.ok()) {
        return moved.status();
      }
      advanced = advanced || *moved;
    }
    AttrAdd(LatStage::kLatDetour, lt::NowNs() - redo_t0);
    if (!advanced) {
      return Status::Unavailable("home re-resolution did not advance the LMR epoch");
    }
    st = submit();
  }
  return st;
}

// -------------------------------------------------------------- LT_malloc

StatusOr<Lh> LiteInstance::Malloc(uint64_t size, const std::string& name,
                                  const MallocOptions& options) {
  if (size == 0 || name.empty()) {
    return Status::InvalidArgument("LT_malloc needs a size and a name");
  }
  SpinFor(kMallocLocalNs);

  std::vector<NodeId> nodes = options.nodes;
  if (nodes.empty()) {
    nodes.push_back(node_id());
  }

  // Split into chunks of at most lite_max_chunk_bytes, placed round-robin
  // across the requested nodes (paper Sec. 4.1: an LMR "can even spread
  // across different machines").
  std::vector<LmrChunk> chunks;
  uint64_t remaining = size;
  size_t piece = 0;
  while (remaining > 0) {
    uint64_t want = std::min<uint64_t>(remaining, params().lite_max_chunk_bytes);
    auto got = AllocChunksOn(nodes[piece % nodes.size()], want);
    if (!got.ok()) {
      FreeChunks(chunks);
      return got.status();
    }
    chunks.insert(chunks.end(), got->begin(), got->end());
    remaining -= want;
    ++piece;
  }

  // Register the name with the cluster manager.
  {
    WireWriter w;
    w.PutString(name);
    w.Put<NodeId>(node_id());
    Status st = InternalRpc(manager_node_, kFnRegisterName, w.bytes(), nullptr);
    if (!st.ok()) {
      FreeChunks(chunks);
      return st;
    }
  }

  // The creator becomes the LMR's (first) master; metadata lives here.
  {
    LmrMeta meta;
    meta.name = name;
    meta.size = size;
    meta.chunks = chunks;
    meta.default_perm = options.default_perm;
    meta.masters.insert(node_id());
    meta.mapped_nodes.insert(node_id());
    lmrs_.InsertMeta(std::move(meta));
  }

  LhEntry entry;
  entry.name = name;
  entry.master_node = node_id();
  entry.size = size;
  entry.perm = kPermRead | kPermWrite | kPermMaster;
  entry.chunks = std::move(chunks);
  return InsertLh(std::move(entry));
}

// ---------------------------------------------------------------- LT_free

Status LiteInstance::Free(Lh lh) {
  auto entry = GetLh(lh);
  if (!entry.ok()) {
    return entry.status();
  }
  const LhEntry& e = **entry;
  if ((e.perm & kPermMaster) == 0) {
    return Status::PermissionDenied("LT_free requires the master role");
  }
  WireWriter w;
  w.PutString(e.name);
  w.Put<NodeId>(node_id());
  LT_RETURN_IF_ERROR(InternalRpc(e.master_node, kFnMasterFree, w.bytes(), nullptr));
  // Drop our own handles for the name (the invalidate notification is
  // asynchronous and idempotent).
  lmrs_.EraseByName(e.name);
  return Status::Ok();
}

// ----------------------------------------------------------------- LT_map

Status LiteInstance::RebuildNameService() {
  if (node_id() != manager_node_) {
    return Status::FailedPrecondition("name service lives on the manager node");
  }
  std::unordered_map<std::string, std::pair<NodeId, uint64_t>> rebuilt;
  for (NodeId peer = 0; peer < peers_.size(); ++peer) {
    if (peers_[peer] == nullptr) {
      continue;
    }
    if (PeerDead(peer)) {
      // Crashed nodes are skipped; their names resurface on the rebuild that
      // follows their restart (the metadata registry survives with them).
      continue;
    }
    auto names = ListNamesAt(peer);
    if (!names.ok()) {
      return names.status();
    }
    for (const auto& [name, epoch] : *names) {
      // Two nodes can both claim a name when a crash split a migration
      // commit; the higher ownership epoch wins the arbitration.
      auto it = rebuilt.find(name);
      if (it == rebuilt.end() || it->second.second < epoch) {
        rebuilt[name] = {peer, epoch};
      }
    }
  }
  lmrs_.ReplaceNames(std::move(rebuilt));
  return Status::Ok();
}

StatusOr<NameList> LiteInstance::ListNamesAt(NodeId node) {
  if (node == node_id()) {
    return lmrs_.ListNames();
  }
  WireWriter empty;
  std::vector<uint8_t> out;
  LT_RETURN_IF_ERROR(InternalRpc(node, kFnListNames, empty.bytes(), &out));
  WireReader r(out.data(), out.size());
  uint32_t count = 0;
  if (!r.Get(&count)) {
    return Status::Internal("malformed name-list reply");
  }
  NameList names;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t epoch = 0;
    if (!r.GetString(&name) || !r.Get(&epoch)) {
      return Status::Internal("malformed name-list entry");
    }
    names.emplace_back(std::move(name), epoch);
  }
  return names;
}

StatusOr<NodeId> LiteInstance::LookupMasterNode(const std::string& name) {
  WireWriter w;
  w.PutString(name);
  std::vector<uint8_t> out;
  LT_RETURN_IF_ERROR(InternalRpc(manager_node_, kFnLookupName, w.bytes(), &out));
  WireReader r(out.data(), out.size());
  NodeId master = kInvalidNode;
  if (!r.Get(&master)) {
    return Status::Internal("malformed name-lookup reply");
  }
  return master;
}

StatusOr<Lh> LiteInstance::Map(const std::string& name, uint32_t want_perm) {
  SpinFor(kMapCheckNs);
  auto master = LookupMasterNode(name);
  if (!master.ok()) {
    return master.status();
  }
  NodeId home = *master;
  Status st = Status::Ok();
  for (int attempt = 0; attempt <= kMaxStaleRedirects; ++attempt) {
    WireWriter w;
    w.PutString(name);
    w.Put<uint32_t>(want_perm);
    w.Put<NodeId>(node_id());
    std::vector<uint8_t> out;
    st = InternalRpc(home, kFnMapLmr, w.bytes(), &out);
    if (st.code() == lt::StatusCode::kStaleHome) {
      // The LMR migrated away: chase where it lives now and retry there.
      auto redir = ResolveHome(name, home);
      if (!redir.ok()) {
        return redir.status();
      }
      if (redir->new_home == home) {
        return Status::Unavailable("LMR home still settling after migration");
      }
      home = redir->new_home;
      continue;
    }
    LT_RETURN_IF_ERROR(st);
    WireReader r(out.data(), out.size());
    uint32_t perm = 0;
    uint64_t size = 0;
    uint64_t epoch = 0;
    std::vector<LmrChunk> chunks;
    if (!r.Get(&perm) || !r.Get(&size) || !r.Get(&epoch) || !r.GetChunks(&chunks)) {
      return Status::Internal("malformed map reply");
    }
    LhEntry entry;
    entry.name = name;
    entry.master_node = home;
    entry.size = size;
    entry.perm = perm;
    entry.chunks = std::move(chunks);
    entry.epoch = epoch;
    return InsertLh(std::move(entry));
  }
  return st;
}

StatusOr<uint64_t> LiteInstance::LmrSize(Lh lh) const {
  auto entry = GetLh(lh);
  if (!entry.ok()) {
    return entry.status();
  }
  return (*entry)->size;
}

StatusOr<std::vector<LmrChunk>> LiteInstance::LmrChunks(Lh lh) const {
  auto entry = GetLh(lh);
  if (!entry.ok()) {
    return entry.status();
  }
  return (*entry)->chunks;
}

Status LiteInstance::Unmap(Lh lh) {
  auto entry = GetLh(lh);
  if (!entry.ok()) {
    return entry.status();
  }
  lmrs_.Erase(lh);
  WireWriter w;
  w.PutString((*entry)->name);
  w.Put<NodeId>(node_id());
  return RpcSendNoReply((*entry)->master_node, kFnUnmapLmr, w.bytes().data(),
                        static_cast<uint32_t>(w.bytes().size()));
}

// ------------------------------------------------------ LT_read / LT_write

Status LiteInstance::ResolveLhs(std::initializer_list<LhAccess> uses) {
  const uint64_t submit_t0 = lt::NowNs();
  SpinFor(kMapCheckNs);
  for (const LhAccess& use : uses) {
    auto entry = GetLh(use.lh);
    if (!entry.ok()) {
      return entry.status();
    }
    *use.entry = std::move(*entry);
  }
  for (const LhAccess& use : uses) {
    LT_RETURN_IF_ERROR(CheckAccess(**use.entry, use.offset, use.len, use.perm));
  }
  AttrAdd(LatStage::kLatSubmit, lt::NowNs() - submit_t0);
  return Status::Ok();
}

Status LiteInstance::Read(Lh lh, uint64_t offset, void* buf, uint64_t len, Priority pri) {
  return BlockingMemop(lh, offset, buf, len, pri, /*is_read=*/true);
}

Status LiteInstance::Write(Lh lh, uint64_t offset, const void* buf, uint64_t len, Priority pri) {
  return BlockingMemop(lh, offset, const_cast<void*>(buf), len, pri, /*is_read=*/false);
}

Status LiteInstance::BlockingMemop(Lh lh, uint64_t offset, void* buf, uint64_t len, Priority pri,
                                   bool is_read) {
  if (len == 0) {
    return Status::Ok();
  }
  // Outermost claim only: when LiteClient already holds the record this is
  // inert and the stamps below flow into the client-level op.
  ScopedOpAttr attr(&node_->telemetry().latency(), is_read ? "read" : "write", len,
                    static_cast<int>(pri));
  LhRef entry;
  LT_RETURN_IF_ERROR(ResolveLhs({{lh, offset, len, is_read ? kPermRead : kPermWrite, &entry}}));
  return SubmitLh(lh, &entry, offset, buf, len, is_read, pri);
}

Status LiteInstance::SubmitLh(Lh lh, LhRef* entry, uint64_t offset, void* buf, uint64_t len,
                              bool is_read, Priority pri) {
  // One SubmitPieces call per attempt; after a stale-home redirect the op is
  // re-sliced against the refreshed mapping and re-issued in full.
  return RedirectStale({{lh, entry}}, [&] {
    return engine_.SubmitPieces(SliceDescs((*entry)->chunks, offset, len, buf), is_read, pri);
  });
}

// ------------------------------------------- LT_memset / memcpy / memmove

Status LiteInstance::Memset(Lh lh, uint64_t offset, uint8_t value, uint64_t len, Priority pri) {
  if (len == 0) {
    return Status::Ok();
  }
  ScopedOpAttr attr(&node_->telemetry().latency(), "memset", len, static_cast<int>(pri));
  LhRef entry;
  LT_RETURN_IF_ERROR(ResolveLhs({{lh, offset, len, kPermWrite, &entry}}));

  // Send one command per involved node; each node memsets its own pieces
  // locally (cheaper than shipping the pattern over the wire, Sec. 7.1).
  // Re-issuing the whole memset after a redirect is idempotent: the pattern
  // write repeats on nodes that already applied it.
  return RedirectStale({{lh, &entry}}, [&]() -> Status {
    std::map<NodeId, std::vector<ChunkPiece>> by_node;
    for (const ChunkPiece& p : SliceChunks(entry->chunks, offset, len)) {
      by_node[p.node].push_back(p);
    }
    for (const auto& [target, group] : by_node) {
      WireWriter w;
      w.Put<uint8_t>(0);  // op 0 = memset
      w.Put<uint8_t>(static_cast<uint8_t>(pri));
      w.Put<uint8_t>(value);
      w.Put<uint32_t>(static_cast<uint32_t>(group.size()));
      for (const ChunkPiece& p : group) {
        w.Put<PhysAddr>(p.addr);
        w.Put<uint64_t>(p.len);
      }
      LT_RETURN_IF_ERROR(InternalRpc(target, kFnMemOp, w.bytes(), nullptr, {}, pri));
    }
    return Status::Ok();
  });
}

namespace {

// Pairs up source and destination piece lists (both ordered by user offset
// and covering the same total length) into copy segments.
struct CopySegment {
  NodeId src_node;
  PhysAddr src_addr;
  NodeId dst_node;
  PhysAddr dst_addr;
  uint64_t len;
};

std::vector<CopySegment> PairPieces(const LiteInstance::ChunkPieces& src,
                                    const LiteInstance::ChunkPieces& dst) {
  std::vector<CopySegment> out;
  size_t si = 0;
  size_t di = 0;
  uint64_t soff = 0;
  uint64_t doff = 0;
  while (si < src.size() && di < dst.size()) {
    uint64_t take = std::min(src[si].len - soff, dst[di].len - doff);
    out.push_back(CopySegment{src[si].node, src[si].addr + soff, dst[di].node,
                              dst[di].addr + doff, take});
    soff += take;
    doff += take;
    if (soff == src[si].len) {
      ++si;
      soff = 0;
    }
    if (doff == dst[di].len) {
      ++di;
      doff = 0;
    }
  }
  return out;
}

}  // namespace

Status LiteInstance::Memcpy(Lh dst, uint64_t dst_off, Lh src, uint64_t src_off, uint64_t len,
                            Priority pri) {
  if (len == 0) {
    return Status::Ok();
  }
  ScopedOpAttr attr(&node_->telemetry().latency(), "memcpy", len, static_cast<int>(pri));
  LhRef src_entry;
  LhRef dst_entry;
  LT_RETURN_IF_ERROR(ResolveLhs(
      {{src, src_off, len, kPermRead, &src_entry}, {dst, dst_off, len, kPermWrite, &dst_entry}}));

  // One LT_RPC to each node storing source data; that node either memcpys
  // locally or LT_writes to the destination node (paper Sec. 7.1). Either
  // side may have migrated, so a redirect refreshes both mappings and
  // re-pairs the pieces.
  return RedirectStale({{src, &src_entry}, {dst, &dst_entry}}, [&]() -> Status {
    std::map<NodeId, std::vector<CopySegment>> by_src;
    for (const CopySegment& seg : PairPieces(SliceChunks(src_entry->chunks, src_off, len),
                                             SliceChunks(dst_entry->chunks, dst_off, len))) {
      by_src[seg.src_node].push_back(seg);
    }
    for (const auto& [target, group] : by_src) {
      WireWriter w;
      w.Put<uint8_t>(1);  // op 1 = memcpy
      w.Put<uint8_t>(static_cast<uint8_t>(pri));
      w.Put<uint32_t>(static_cast<uint32_t>(group.size()));
      for (const CopySegment& seg : group) {
        w.Put<PhysAddr>(seg.src_addr);
        w.Put<NodeId>(seg.dst_node);
        w.Put<PhysAddr>(seg.dst_addr);
        w.Put<uint64_t>(seg.len);
      }
      LT_RETURN_IF_ERROR(InternalRpc(target, kFnMemOp, w.bytes(), nullptr, {}, pri));
    }
    return Status::Ok();
  });
}

Status LiteInstance::Memmove(Lh dst, uint64_t dst_off, Lh src, uint64_t src_off, uint64_t len,
                             Priority pri) {
  // Same engine as LT_memcpy; node-local segments use memmove semantics.
  return Memcpy(dst, dst_off, src, src_off, len, pri);
}

// ------------------------------------------------- master-role management

Status LiteInstance::SetPermission(const std::string& name, NodeId grantee, uint32_t perm) {
  auto master = LookupMasterNode(name);
  if (!master.ok()) {
    return master.status();
  }
  WireWriter w;
  w.PutString(name);
  w.Put<NodeId>(grantee);
  w.Put<uint32_t>(perm);
  w.Put<NodeId>(node_id());
  return InternalRpc(*master, kFnSetPermission, w.bytes(), nullptr);
}

Status LiteInstance::GrantMaster(const std::string& name, NodeId new_master) {
  auto master = LookupMasterNode(name);
  if (!master.ok()) {
    return master.status();
  }
  WireWriter w;
  w.PutString(name);
  w.Put<NodeId>(new_master);
  w.Put<NodeId>(node_id());
  return InternalRpc(*master, kFnMasterGrant, w.bytes(), nullptr);
}

// --------------------------------------------------------------- atomics

StatusOr<uint64_t> LiteInstance::FetchAdd(Lh lh, uint64_t offset, uint64_t delta) {
  return LhAtomic(lh, offset, /*is_cas=*/false, delta, 0);
}

StatusOr<uint64_t> LiteInstance::TestSet(Lh lh, uint64_t offset, uint64_t expected,
                                         uint64_t desired) {
  return LhAtomic(lh, offset, /*is_cas=*/true, expected, desired);
}

StatusOr<uint64_t> LiteInstance::LhAtomic(Lh lh, uint64_t offset, bool is_cas,
                                          uint64_t compare_add, uint64_t swap) {
  ScopedOpAttr attr(&node_->telemetry().latency(), "atomic", 8,
                    static_cast<int>(Priority::kHigh));
  LhRef entry;
  LT_RETURN_IF_ERROR(ResolveLhs({{lh, offset, 8, kPermWrite, &entry}}));
  uint64_t old_value = 0;
  LT_RETURN_IF_ERROR(RedirectStale({{lh, &entry}}, [&]() -> Status {
    auto pieces = SliceChunks(entry->chunks, offset, 8);
    if (pieces.size() != 1) {
      return Status::InvalidArgument("atomic target straddles LMR chunks");
    }
    auto r = engine_.RemoteAtomic(pieces[0].node, pieces[0].addr, is_cas, compare_add, swap);
    if (!r.ok()) {
      return r.status();
    }
    old_value = *r;
    return Status::Ok();
  }));
  return old_value;
}

// ------------------------------------------------------- distributed locks

StatusOr<LockId> LiteInstance::CreateLock(const std::string& name) {
  auto lh = Malloc(8, LockName(name));
  if (!lh.ok()) {
    return lh.status();
  }
  uint64_t zero = 0;
  LT_RETURN_IF_ERROR(Write(*lh, 0, &zero, sizeof(zero)));
  auto entry = GetLh(*lh);
  if (!entry.ok()) {
    return entry.status();
  }
  return LockId{(*entry)->chunks[0].node, (*entry)->chunks[0].addr};
}

StatusOr<LockId> LiteInstance::OpenLock(const std::string& name) {
  auto lh = Map(LockName(name));
  if (!lh.ok()) {
    return lh.status();
  }
  auto entry = GetLh(*lh);
  if (!entry.ok()) {
    return entry.status();
  }
  return LockId{(*entry)->chunks[0].node, (*entry)->chunks[0].addr};
}

Status LiteInstance::Lock(const LockId& lock) {
  if (!lock.valid()) {
    return Status::InvalidArgument("invalid lock id");
  }
  // Fast path: one LT_fetch-add acquires an uncontended lock (paper Sec. 7.2).
  auto old_value = engine_.RemoteAtomic(lock.owner, lock.addr, /*is_cas=*/false, 1, 0);
  if (!old_value.ok()) {
    return old_value.status();
  }
  if (*old_value == 0) {
    return Status::Ok();
  }
  // Contended: join the FIFO wait queue at the lock's owner; the reply to
  // this RPC *is* the grant.
  WireWriter w;
  w.Put<PhysAddr>(lock.addr);
  return InternalRpc(lock.owner, kFnLockWait, w.bytes(), nullptr,
                     {.timeout_ns = 60'000'000'000ull});
}

Status LiteInstance::Unlock(const LockId& lock) {
  if (!lock.valid()) {
    return Status::InvalidArgument("invalid lock id");
  }
  auto old_value =
      engine_.RemoteAtomic(lock.owner, lock.addr, /*is_cas=*/false, static_cast<uint64_t>(-1), 0);
  if (!old_value.ok()) {
    return old_value.status();
  }
  if (*old_value == 0) {
    return Status::FailedPrecondition("unlock of a free lock");
  }
  if (*old_value > 1) {
    // Waiters exist: tell the owner to grant the next one (fire-and-forget;
    // only one waiter is woken, minimizing network traffic, Sec. 7.2).
    WireWriter w;
    w.Put<PhysAddr>(lock.addr);
    return RpcSendNoReply(lock.owner, kFnLockGrant, w.bytes().data(),
                          static_cast<uint32_t>(w.bytes().size()));
  }
  return Status::Ok();
}

Status LiteInstance::Barrier(const std::string& name, uint32_t expected) {
  WireWriter w;
  w.PutString(name);
  w.Put<uint32_t>(expected);
  return InternalRpc(manager_node_, kFnBarrier, w.bytes(), nullptr,
                     {.timeout_ns = 120'000'000'000ull});
}

}  // namespace lite
