// Internal control functions served by each LITE instance's worker threads:
// the name service (on the manager node), remote chunk allocation, LMR
// map/unmap/free/permissions, remote memory commands, and the lock /
// barrier services. Every handler returns its outcome, which the worker
// sends back as [u32 status code | payload] (see InternalWorkerLoop).
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timing.h"
#include "src/lite/instance.h"
#include "src/lite/wire.h"

namespace lite {
void LiteInstance::RegisterInternalHandlers() {
  // ------------------------------------------------ name service (manager)
  internal_handlers_[kFnRegisterName] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId master = kInvalidNode;
    if (!r.GetString(&name) || !r.Get(&master)) {
      return lt::StatusCode::kInvalidArgument;
    }
    if (!self->lmrs_.RegisterName(name, master)) {
      return lt::StatusCode::kAlreadyExists;
    }
    return lt::StatusCode::kOk;
  };

  internal_handlers_[kFnLookupName] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    if (!r.GetString(&name)) {
      return lt::StatusCode::kInvalidArgument;
    }
    auto master = self->lmrs_.LookupName(name);
    if (!master.ok()) {
      return lt::StatusCode::kNotFound;
    }
    WireWriter payload;
    payload.Put<NodeId>(*master);
    return payload.bytes();
  };

  internal_handlers_[kFnUnregisterName] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    if (r.GetString(&name)) {
      self->lmrs_.UnregisterName(name);
    }
    return lt::StatusCode::kOk;
  };

  // ------------------------------------------------- remote chunk service
  internal_handlers_[kFnAllocChunks] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    uint64_t size = 0;
    if (!r.Get(&size)) {
      return lt::StatusCode::kInvalidArgument;
    }
    auto chunks = self->AllocLocalChunks(size);
    if (!chunks.ok()) {
      return chunks.status().code();
    }
    WireWriter payload;
    payload.PutChunks(*chunks);
    return payload.bytes();
  };

  internal_handlers_[kFnFreeChunks] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::vector<LmrChunk> chunks;
    if (!r.GetChunks(&chunks)) {
      return lt::StatusCode::kInvalidArgument;
    }
    self->FreeLocalChunks(chunks);
    return lt::StatusCode::kOk;
  };

  // ----------------------------------------------------- LMR map / unmap
  internal_handlers_[kFnMapLmr] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    uint32_t want = 0;
    NodeId requester = kInvalidNode;
    if (!r.GetString(&name) || !r.Get(&want) || !r.Get(&requester)) {
      return lt::StatusCode::kInvalidArgument;
    }
    WireWriter payload;
    lt::StatusCode code = self->lmrs_.WithMeta(name, [&](LmrMeta& meta) {
      uint32_t granted = meta.default_perm;
      auto perm_it = meta.node_perm.find(requester);
      if (perm_it != meta.node_perm.end()) {
        granted = perm_it->second;
      }
      if ((granted & want) != want) {
        return lt::StatusCode::kPermissionDenied;
      }
      meta.mapped_nodes.insert(requester);
      payload.Put<uint32_t>(want);
      payload.Put<uint64_t>(meta.size);
      payload.Put<uint64_t>(meta.epoch);
      payload.PutChunks(meta.chunks);
      return lt::StatusCode::kOk;
    });
    if (code == lt::StatusCode::kNotFound && self->migration().LookupTombstone(name).ok()) {
      // The LMR migrated away; tell the client to re-resolve the home.
      code = lt::StatusCode::kStaleHome;
    }
    if (code != lt::StatusCode::kOk) {
      return code;
    }
    return payload.bytes();
  };

  internal_handlers_[kFnUnmapLmr] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId requester = kInvalidNode;
    if (r.GetString(&name) && r.Get(&requester)) {
      (void)self->lmrs_.WithMeta(name, [&](LmrMeta& meta) {
        meta.mapped_nodes.erase(requester);
        return lt::StatusCode::kOk;
      });
    }
    return lt::StatusCode::kOk;  // No-reply in practice.
  };

  // ----------------------------------------------- LMR free / invalidate
  internal_handlers_[kFnMasterFree] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId requester = kInvalidNode;
    if (!r.GetString(&name) || !r.Get(&requester)) {
      return lt::StatusCode::kInvalidArgument;
    }
    auto taken = self->lmrs_.TakeMetaIfMaster(name, requester);
    if (!taken.ok()) {
      return taken.status().code();
    }
    LmrMeta meta = std::move(*taken);
    // Invalidate every node that mapped the LMR (paper Sec. 4.1: "when the
    // master ... frees the LMR, LITE at these nodes will be notified").
    WireWriter inval;
    inval.PutString(name);
    for (NodeId mapped : meta.mapped_nodes) {
      if (mapped == self->node_id()) {
        self->lmrs_.EraseByName(name);
      } else {
        (void)self->RpcSendNoReply(mapped, kFnLmrInvalidate, inval.bytes().data(),
                                   static_cast<uint32_t>(inval.bytes().size()));
      }
    }
    self->FreeChunks(meta.chunks);
    // Release the name.
    WireWriter unreg;
    unreg.PutString(name);
    (void)self->InternalRpc(self->manager_node_, kFnUnregisterName, unreg.bytes(), nullptr);
    return lt::StatusCode::kOk;
  };

  internal_handlers_[kFnLmrInvalidate] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    if (!r.GetString(&name)) {
      return lt::StatusCode::kInvalidArgument;
    }
    self->lmrs_.EraseByName(name);
    return lt::StatusCode::kOk;
  };

  // ------------------------------------------------ master-role services
  internal_handlers_[kFnSetPermission] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId grantee = kInvalidNode;
    uint32_t perm = 0;
    NodeId requester = kInvalidNode;
    if (!r.GetString(&name) || !r.Get(&grantee) || !r.Get(&perm) || !r.Get(&requester)) {
      return lt::StatusCode::kInvalidArgument;
    }
    return self->lmrs_.WithMeta(name, [&](LmrMeta& meta) {
      if (meta.masters.count(requester) == 0) {
        return lt::StatusCode::kPermissionDenied;
      }
      meta.node_perm[grantee] = perm;
      return lt::StatusCode::kOk;
    });
  };

  internal_handlers_[kFnMasterGrant] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    NodeId new_master = kInvalidNode;
    NodeId requester = kInvalidNode;
    if (!r.GetString(&name) || !r.Get(&new_master) || !r.Get(&requester)) {
      return lt::StatusCode::kInvalidArgument;
    }
    return self->lmrs_.WithMeta(name, [&](LmrMeta& meta) {
      if (meta.masters.count(requester) == 0) {
        return lt::StatusCode::kPermissionDenied;
      }
      meta.masters.insert(new_master);
      meta.node_perm[new_master] = kPermRead | kPermWrite | kPermMaster;
      return lt::StatusCode::kOk;
    });
  };

  // ------------------------------------------------- remote memory ops
  internal_handlers_[kFnMemOp] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    uint8_t op = 0;
    uint8_t pri_raw = static_cast<uint8_t>(Priority::kHigh);
    if (!r.Get(&op) || !r.Get(&pri_raw)) {
      return lt::StatusCode::kInvalidArgument;
    }
    const Priority pri =
        pri_raw == static_cast<uint8_t>(Priority::kLow) ? Priority::kLow : Priority::kHigh;
    if (op == 0) {  // memset on local ranges
      uint8_t value = 0;
      uint32_t count = 0;
      if (!r.Get(&value) || !r.Get(&count)) {
        return lt::StatusCode::kInvalidArgument;
      }
      for (uint32_t i = 0; i < count; ++i) {
        PhysAddr addr = 0;
        uint64_t len = 0;
        if (!r.Get(&addr) || !r.Get(&len)) {
          return lt::StatusCode::kInvalidArgument;
        }
        AccessGate gate;
        Status gated =
            self->migration().Open(addr, len, /*is_write=*/true, inc.token.client_node, &gate);
        if (!gated.ok()) {
          return gated.code();
        }
        lt::SpinFor(lt::LocalCopyNs(len));
        std::memset(self->node()->mem().Data(addr, len), value, len);
        self->migration().CloseAccess(&gate, /*success=*/true);
      }
      return lt::StatusCode::kOk;
    }
    if (op == 1) {  // memcpy: local source -> local or remote destination
      uint32_t count = 0;
      if (!r.Get(&count)) {
        return lt::StatusCode::kInvalidArgument;
      }
      for (uint32_t i = 0; i < count; ++i) {
        PhysAddr src_addr = 0;
        NodeId dst_node = kInvalidNode;
        PhysAddr dst_addr = 0;
        uint64_t len = 0;
        if (!r.Get(&src_addr) || !r.Get(&dst_node) || !r.Get(&dst_addr) || !r.Get(&len)) {
          return lt::StatusCode::kInvalidArgument;
        }
        AccessGate src_gate;
        Status gated = self->migration().Open(src_addr, len, /*is_write=*/false,
                                              inc.token.client_node, &src_gate);
        if (!gated.ok()) {
          return gated.code();
        }
        if (dst_node == self->node_id()) {
          AccessGate dst_gate;
          gated = self->migration().Open(dst_addr, len, /*is_write=*/true, inc.token.client_node,
                                         &dst_gate);
          if (!gated.ok()) {
            self->migration().CloseAccess(&src_gate, /*success=*/false);
            return gated.code();
          }
          lt::SpinFor(lt::LocalCopyNs(len));
          std::memmove(self->node()->mem().Data(dst_addr, len),
                       self->node()->mem().Data(src_addr, len), len);
          self->migration().CloseAccess(&dst_gate, /*success=*/true);
        } else {
          // The remote destination is gated by the op engine at post time.
          const OpEngine::OpDesc piece{dst_node, dst_addr,
                                       self->node()->mem().Data(src_addr, len), len};
          Status st = self->engine_.SubmitPieces({&piece, 1}, /*is_read=*/false, pri);
          if (!st.ok()) {
            self->migration().CloseAccess(&src_gate, /*success=*/false);
            return st.code();
          }
        }
        self->migration().CloseAccess(&src_gate, /*success=*/true);
      }
      return lt::StatusCode::kOk;
    }
    return lt::StatusCode::kInvalidArgument;
  };

  // --------------------------------------------------- lock FIFO service
  internal_handlers_[kFnLockWait] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    PhysAddr addr = 0;
    if (!r.Get(&addr)) {
      return lt::StatusCode::kInvalidArgument;
    }
    bool grant_now = false;
    {
      std::lock_guard<std::mutex> lock(self->locks_mu_);
      LockQueue& q = self->lock_queues_[addr];
      if (q.grants_pending > 0) {
        --q.grants_pending;
        grant_now = true;
      } else {
        q.waiters.push_back(inc.token);
      }
    }
    // A queued waiter's reply is its grant, sent by a later kFnLockGrant.
    return grant_now ? Reply(lt::StatusCode::kOk) : Reply::Deferred();
  };

  internal_handlers_[kFnLockGrant] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    PhysAddr addr = 0;
    if (!r.Get(&addr)) {
      return lt::StatusCode::kInvalidArgument;
    }
    ReplyToken waiter;
    bool have_waiter = false;
    {
      std::lock_guard<std::mutex> lock(self->locks_mu_);
      LockQueue& q = self->lock_queues_[addr];
      if (!q.waiters.empty()) {
        waiter = q.waiters.front();
        q.waiters.pop_front();
        have_waiter = true;
      } else {
        ++q.grants_pending;
      }
    }
    if (have_waiter) {
      // Grant no earlier than either the waiter's request or this release.
      lt::SyncClockTo(waiter.arrival_vtime_ns);
      self->ReplyControl(waiter, lt::StatusCode::kOk);  // The reply IS the grant.
    }
    return lt::StatusCode::kOk;
  };

  // -------------------------------------------------------- barrier
  internal_handlers_[kFnBarrier] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    std::string name;
    uint32_t expected = 0;
    if (!r.GetString(&name) || !r.Get(&expected) || expected == 0) {
      return lt::StatusCode::kInvalidArgument;
    }
    std::vector<ReplyToken> to_release;
    {
      std::lock_guard<std::mutex> lock(self->barriers_mu_);
      BarrierState& b = self->barriers_[name];
      b.expected = expected;
      b.arrived.push_back(inc.token);
      if (b.arrived.size() >= b.expected) {
        to_release = std::move(b.arrived);
        self->barriers_.erase(name);
      }
    }
    // The barrier releases at the latest arrival's virtual time, regardless
    // of the real-time order the arrivals were processed in.
    uint64_t release_vtime = 0;
    for (const ReplyToken& token : to_release) {
      release_vtime = std::max(release_vtime, token.arrival_vtime_ns);
    }
    lt::SyncClockTo(release_vtime);
    for (const ReplyToken& token : to_release) {
      self->ReplyControl(token, lt::StatusCode::kOk);
    }
    return Reply::Deferred();  // Parked until the last arrival releases all.
  };

  // ------------- name listing: manager recovery (Sec. 3.3) and node drain
  internal_handlers_[kFnListNames] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireWriter payload;
    auto names = self->lmrs_.ListNames();
    payload.Put<uint32_t>(static_cast<uint32_t>(names.size()));
    for (const auto& [name, epoch] : names) {
      payload.PutString(name);
      payload.Put<uint64_t>(epoch);
    }
    return payload.bytes();
  };

  // ----------------------------------------- liveness (keepalive / lease)
  internal_handlers_[kFnKeepalive] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    NodeId sender = kInvalidNode;
    if (!r.Get(&sender)) {
      return lt::StatusCode::kInvalidArgument;
    }
    const auto& p = self->params();
    const uint64_t lease_ns = p.lite_lease_timeout_ns > 0
                                  ? p.lite_lease_timeout_ns
                                  : 5 * p.lite_keepalive_interval_ns;
    std::vector<std::pair<NodeId, uint64_t>> dead;  // Node, ns since its last keepalive.
    {
      std::lock_guard<std::mutex> lock(self->lease_mu_);
      // Read the clock under the lock: a renewal the other control worker
      // stored after a clock read taken outside it would make now - last_seen
      // wrap and condemn a live node.
      const uint64_t now_real = lt::RealNowNs();
      self->lease_last_seen_[sender] = now_real;
      for (const auto& [node, last_seen] : self->lease_last_seen_) {
        if (lease_ns > 0 && now_real - last_seen > lease_ns) {
          dead.emplace_back(node, now_real - last_seen);
        }
      }
    }
    // A renewed lease revives the sender; expired leases condemn their
    // holders. The dead list is piggybacked on the reply so every renewal
    // disseminates the manager's view (paper Sec. 3.3's failure handling).
    self->SetPeerDead(sender, false);
    for (const auto& [node, overdue_ns] : dead) {
      if (self->journal_ != nullptr && !self->PeerDead(node)) {
        self->journal_->Record(lt::telemetry::JournalEvent::kLeaseExpire, node, overdue_ns);
      }
      self->SetPeerDead(node, true);
    }
    WireWriter payload;
    payload.Put<uint32_t>(static_cast<uint32_t>(dead.size()));
    for (const auto& entry : dead) {
      payload.Put<NodeId>(entry.first);
    }
    return payload.bytes();
  };

  internal_handlers_[kFnRingSetup] = [](LiteInstance* self, const RpcIncoming& inc) -> Reply {
    WireReader r(inc.data.data(), inc.data.size());
    RpcFuncId ring_id = 0;
    PhysAddr mirror = 0;
    if (!r.Get(&ring_id) || !r.Get(&mirror)) {
      return lt::StatusCode::kInvalidArgument;
    }
    ServerRing* ring = self->SetupServerRing(inc.token.client_node, ring_id, mirror);
    if (ring == nullptr) {
      return lt::StatusCode::kResourceExhausted;
    }
    // The ring keeps the mirror of the first setup it handled; a client
    // thread that raced another to the first bind adopts that one. (The
    // ring's size travels in the chunk.)
    WireWriter payload;
    payload.Put<LmrChunk>(ring->ring);
    payload.Put<PhysAddr>(ring->client_head_mirror);
    return payload.bytes();
  };

  // Live-migration control plane (migration.cc).
  RegisterMigrationHandlers();
}

}  // namespace lite
