// LiteInstance core: construction, cluster wiring, service threads, and the
// local-memory helpers. One-sided posting lives in op_engine.cc; QP-pool
// management in qp_manager.cc; LMR/lh/name bookkeeping in lmr_table.cc.
#include "src/lite/instance.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/annotations.h"
#include "src/common/logging.h"
#include "src/common/timing.h"
#include "src/lite/ring.h"
#include "src/lite/wire.h"

namespace lite {

using lt::SpinFor;

namespace {

constexpr uint64_t kMirrorSlabBytes = 64 << 10;  // 8K head mirrors.

// A reply slot and a ring offset each travel in the IMM payload (types.h):
// past these bounds a reply or a request silently lands on another slot or
// offset, so no instance is built with them, in any build type.
void CheckImmLayout(const lt::SimParams& p) {
  const char* field = p.lite_reply_slots > kMaxReplySlots     ? "lite_reply_slots"
                      : p.lite_rpc_ring_bytes > kMaxRingBytes ? "lite_rpc_ring_bytes"
                                                              : nullptr;
  if (field != nullptr) {
    std::fprintf(stderr,
                 "LiteInstance: %s exceeds what the RPC IMM layout addresses "
                 "(%u reply slots, %llu ring bytes)\n",
                 field, kMaxReplySlots, static_cast<unsigned long long>(kMaxRingBytes));
    std::abort();
  }
}

// The constructor's set-up steps abort the same way, in every build type,
// naming what could not be set up: an instance without its global MR or
// slabs would only fail later, on its first call.
[[noreturn]] void SetupFailed(const std::string& what, const Status& st) {
  std::fprintf(stderr, "LiteInstance: %s: %s\n", what.c_str(), st.ToString().c_str());
  std::abort();
}

}  // namespace

LiteInstance::LiteInstance(lt::Node* node, NodeId manager_node)
    : node_(node),
      manager_node_(manager_node),
      qos_(node->params()),
      transport_(Transport::Create(node, &qos_)),
      lmrs_(node->id()),
      engine_(this) {
  CheckImmLayout(params());
  // The single physical-address MR covering all of this node's memory: one
  // MPT entry on the RNIC, no MTT/PTE pressure at all (paper Sec. 4.1).
  auto mr = rnic().RegisterMrPhysical(0, node_->mem().size_bytes(), lt::kMrAll);
  if (!mr.ok()) {
    SetupFailed("cannot register the global physical MR", mr.status());
  }
  global_lkey_ = mr->lkey;
  global_rkey_ = mr->lkey;

  // The one shared receive CQ all pool QPs deliver into (paper Sec. 5.1).
  recv_cq_ = rnic().CreateCq();

  // Reply-slot slab.
  const auto& p = params();
  const uint64_t slab_bytes = p.lite_reply_slots * p.lite_reply_slot_bytes;
  auto slab = node_->mem().AllocContiguous(slab_bytes);
  if (!slab.ok()) {
    SetupFailed("the reply-slot slab (lite_reply_slots x lite_reply_slot_bytes = " +
                    std::to_string(slab_bytes) + " bytes) does not fit in the " +
                    std::to_string(node_->mem().size_bytes()) + "-byte node pool",
                slab.status());
  }
  reply_slab_ = *slab;
  reply_slots_.reserve(p.lite_reply_slots);
  for (size_t i = 0; i < p.lite_reply_slots; ++i) {
    auto slot = std::make_unique<ReplySlot>();
    slot->buf_phys = reply_slab_ + i * p.lite_reply_slot_bytes;
    slot->buf_max = static_cast<uint32_t>(p.lite_reply_slot_bytes);
    reply_slots_.push_back(std::move(slot));
    free_slots_.push_back(static_cast<uint32_t>(i));
  }

  // Head-mirror slab.
  auto mirrors = node_->mem().AllocContiguous(kMirrorSlabBytes);
  if (!mirrors.ok()) {
    SetupFailed("the " + std::to_string(kMirrorSlabBytes) +
                    "-byte head-mirror slab does not fit in the node pool",
                mirrors.status());
  }
  mirror_slab_ = *mirrors;
  mirror_cap_ = kMirrorSlabBytes / 8;

  if (p.lite_ring_enable) {
    cpu_rings_ = std::make_unique<SubmissionRings>(this);
  }

  RegisterInternalHandlers();
  RegisterTelemetry();
}

void LiteInstance::RegisterTelemetry() {
  lt::telemetry::Registry& reg = node_->telemetry().registry();
  rpc_requests_ = reg.GetCounter("lite.rpc.requests");
  rpc_replies_ = reg.GetCounter("lite.rpc.replies");
  poll_wakeups_ = reg.GetCounter("lite.poll.wakeups");
  poll_idle_wakeups_ = reg.GetCounter("lite.poll.idle_wakeups");
  poll_batch_hist_ = reg.GetHistogram("lite.rpc.poll_batch");
  // Fault & recovery instruments (docs/TELEMETRY.md).
  rpc_retries_ = reg.GetCounter("lite.rpc.retries");
  rpc_dup_requests_ = reg.GetCounter("lite.rpc.dup_requests");
  rpc_replayed_replies_ = reg.GetCounter("lite.rpc.replayed_replies");
  rpc_stale_replies_ = reg.GetCounter("lite.rpc.stale_replies");
  rpc_zombie_reclaimed_ = reg.GetCounter("lite.rpc.zombie_reclaimed");
  rpc_dead_fast_fail_ = reg.GetCounter("lite.rpc.dead_fast_fail");
  qp_reconnects_ = reg.GetCounter("lite.qp.reconnects");
  liveness_marked_dead_ = reg.GetCounter("lite.liveness.marked_dead");
  liveness_revived_ = reg.GetCounter("lite.liveness.revived");
  liveness_keepalives_ = reg.GetCounter("lite.liveness.keepalives");
  // Probes read this instance's existing counters at snapshot time only.
  reg.RegisterProbe("lite.rpc.ring_bytes", [this] { return rpc_ring_bytes_in_use(); });
  reg.RegisterProbe("lite.poll.cpu_ns", [this] { return poll_cpu_.TotalCpuNs(); });
  reg.RegisterProbe("lite.lh_count", [this] { return static_cast<uint64_t>(lh_count()); });
  reg.RegisterProbe("lite.qp_pool", [this] { return static_cast<uint64_t>(qp_pool_size()); });
  reg.RegisterProbe("lite.qos.admits", [this] { return qos_.admit_count(); });
  reg.RegisterProbe("lite.qos.throttled", [this] { return qos_.throttle_count(); });
  reg.RegisterProbe("lite.qos.throttle_delay_ns",
                    [this] { return qos_.low_pri_delay_total_ns(); });
  // Trace-ring loss visibility (sampled records overwritten in the ring,
  // events past the per-record bound) — surfaced through StatSnapshot like
  // any metric.
  lt::telemetry::LatencyAttr* lat = &node_->telemetry().latency();
  reg.RegisterProbe("lite.trace.spans_dropped", [lat] { return lat->traces_dropped(); });
  reg.RegisterProbe("lite.trace.events_dropped", [lat] { return lat->events_dropped(); });
  // Flight recorder: cache the journal for recovery-path breadcrumbs, and
  // hand it (plus the shared counters) to the composed components.
  journal_ = &node_->telemetry().journal();
  qos_.SetJournal(journal_);
  transport_->RegisterTelemetry(reg, qp_reconnects_, journal_);
  engine_.RegisterTelemetry(reg, journal_);
  migration_.RegisterTelemetry(&reg, journal_);
  if (cpu_rings_ != nullptr) {
    cpu_rings_->RegisterTelemetry(reg);
  }
}

LiteInstance::~LiteInstance() { Stop(); }

void LiteInstance::ConnectPeer(LiteInstance* peer) {
  NodeId id = peer->node_id();
  if (peers_.size() <= id) {
    peers_.resize(id + 1, nullptr);
    peer_global_rkey_.resize(id + 1, 0);
  }
  peers_[id] = peer;
  peer_global_rkey_[id] = peer->global_rkey();
}

void LiteInstance::CreateQueuePairs() {
  // Liveness flags: sized once here (before any traffic) so the fail-fast
  // path can read them without bounds locking.
  peer_dead_n_ = peers_.size();
  peer_dead_ = std::make_unique<std::atomic<uint8_t>[]>(peer_dead_n_);
  for (size_t i = 0; i < peer_dead_n_; ++i) {
    peer_dead_[i].store(0, std::memory_order_relaxed);
  }
  std::vector<bool> connect(peers_.size(), false);
  for (NodeId dst = 0; dst < peers_.size(); ++dst) {
    connect[dst] = peers_[dst] != nullptr && dst != node_id();
  }
  transport_->Setup(connect, recv_cq_);
  // DC initiators resolve a destination's target QPN through the peer table
  // at attach time (lazy — nothing is wired until first traffic).
  transport_->SetDctResolver([this](NodeId n) {
    LiteInstance* peer = Peer(n);
    return peer != nullptr ? peer->DctQpn() : 0u;
  });
}

Status LiteInstance::BootstrapControlChannel(LiteInstance* server) {
  // Idempotent: two first callers (GetChannel on a control-ring miss) may
  // race. Check before paying for a mirror word, adopt the mirror the server
  // ring recorded, and keep the winner on an emplace race.
  {
    std::lock_guard<std::mutex> lock(channels_mu_);
    if (channels_.count({server->node_id(), kControlRingId}) > 0) {
      return Status::Ok();
    }
  }
  auto mirror = AllocMirror();
  if (!mirror.ok()) {
    return mirror.status();
  }
  ServerRing* ring = server->SetupServerRing(node_id(), kControlRingId, *mirror);
  if (ring == nullptr) {
    return Status::ResourceExhausted("server cannot allocate a control ring");
  }

  auto channel = std::make_unique<RpcChannel>();
  channel->server = server->node_id();
  channel->func = kControlRingId;
  channel->ring = ring->ring;
  channel->ring_size = ring->ring_size;
  channel->head_mirror = ring->client_head_mirror;
  std::lock_guard<std::mutex> lock(channels_mu_);
  channels_.emplace(std::make_pair(server->node_id(), kControlRingId), std::move(channel));
  return Status::Ok();
}

void LiteInstance::Start() {
  stopping_.store(false);
  threads_.emplace_back([this] { PollLoop(); });
  for (int i = 0; i < kControlWorkers; ++i) {
    threads_.emplace_back([this] { InternalWorkerLoop(); });
  }
  if (params().lite_keepalive_interval_ns > 0 && node_id() != manager_node_) {
    threads_.emplace_back([this] { KeepaliveLoop(); });
  }
}

void LiteInstance::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  {
    // Pair with the keepalive thread's predicate check before waking it.
    std::lock_guard<std::mutex> lock(keepalive_mu_);
  }
  keepalive_cv_.notify_all();
  if (recv_cq_ != nullptr) {
    recv_cq_->Shutdown();
  }
  internal_queue_.Close();
  {
    std::lock_guard<std::mutex> lock(funcs_mu_);
    for (auto& [func, queue] : func_queues_) {
      queue->Close();
    }
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  threads_.clear();
}

LiteInstance* LiteInstance::Peer(NodeId node) const {
  if (node >= peers_.size()) {
    return nullptr;
  }
  return peers_[node];
}

// ---------------------------------------------------------- local fast path

void LiteInstance::LocalCopyIn(PhysAddr dst, const void* src, uint64_t len) {
  SpinFor(lt::LocalCopyNs(len));
  lt::SimDmaCopy(node_->mem().Data(dst, len), src, len);
}

void LiteInstance::LocalCopyOut(void* dst, PhysAddr src, uint64_t len) {
  SpinFor(lt::LocalCopyNs(len));
  lt::SimDmaCopy(dst, node_->mem().Data(src, len), len);
}

// ------------------------------------------------------------- chunk math

LiteInstance::ChunkPieces LiteInstance::SliceChunks(const std::vector<LmrChunk>& chunks,
                                                    uint64_t offset, uint64_t len) {
  ChunkPieces pieces;
  uint64_t chunk_start = 0;
  uint64_t user_off = 0;
  for (const LmrChunk& c : chunks) {
    uint64_t chunk_end = chunk_start + c.size;
    uint64_t lo = std::max(offset, chunk_start);
    uint64_t hi = std::min(offset + len, chunk_end);
    if (lo < hi) {
      pieces.push_back(ChunkPiece{c.node, c.addr + (lo - chunk_start), user_off, hi - lo});
      user_off += hi - lo;
    }
    chunk_start = chunk_end;
    if (chunk_start >= offset + len) {
      break;
    }
  }
  return pieces;
}

OpEngine::OpDescs LiteInstance::SliceDescs(const std::vector<LmrChunk>& chunks, uint64_t offset,
                                           uint64_t len, void* buf) {
  OpEngine::OpDescs descs;
  for (const ChunkPiece& p : SliceChunks(chunks, offset, len)) {
    descs.push_back(
        OpEngine::OpDesc{p.node, p.addr, static_cast<uint8_t*>(buf) + p.user_off, p.len});
  }
  return descs;
}

StatusOr<std::vector<LmrChunk>> LiteInstance::AllocLocalChunks(uint64_t size) {
  std::vector<LmrChunk> chunks;
  uint64_t remaining = size;
  while (remaining > 0) {
    uint64_t want = std::min<uint64_t>(remaining, params().lite_max_chunk_bytes);
    auto addr = node_->mem().AllocContiguous(want);
    // Under fragmentation, fall back to smaller physically-consecutive
    // pieces (the flexibility the LMR indirection buys, paper Sec. 4.1).
    while (!addr.ok() && want > node_->mem().page_size()) {
      want /= 2;
      addr = node_->mem().AllocContiguous(want);
    }
    if (!addr.ok()) {
      FreeLocalChunks(chunks);
      return Status::ResourceExhausted("node out of physical memory for LMR");
    }
    chunks.push_back(LmrChunk{node_id(), *addr, want});
    remaining -= std::min(want, remaining);
  }
  return chunks;
}

void LiteInstance::FreeLocalChunks(const std::vector<LmrChunk>& chunks) {
  for (const LmrChunk& c : chunks) {
    if (c.node == node_id()) {
      (void)node_->mem().Free(c.addr);
    }
  }
}

StatusOr<std::vector<LmrChunk>> LiteInstance::AllocChunksOn(NodeId node, uint64_t size) {
  if (node == node_id()) {
    return AllocLocalChunks(size);
  }
  WireWriter w;
  w.Put<uint64_t>(size);
  std::vector<uint8_t> out;
  LT_RETURN_IF_ERROR(InternalRpc(node, kFnAllocChunks, w.bytes(), &out));
  WireReader r(out.data(), out.size());
  std::vector<LmrChunk> chunks;
  if (!r.GetChunks(&chunks)) {
    return Status::Internal("malformed alloc-chunks reply");
  }
  return chunks;
}

void LiteInstance::FreeChunks(const std::vector<LmrChunk>& chunks) {
  std::map<NodeId, std::vector<LmrChunk>> by_node;
  for (const LmrChunk& c : chunks) {
    by_node[c.node].push_back(c);
  }
  for (const auto& [node, group] : by_node) {
    if (node == node_id()) {
      FreeLocalChunks(group);
    } else {
      WireWriter w;
      w.PutChunks(group);
      (void)InternalRpc(node, kFnFreeChunks, w.bytes(), nullptr);
    }
  }
}

// ------------------------------------------------------------- accounting

uint64_t LiteInstance::rpc_ring_bytes_in_use() const {
  uint64_t total = 0;
  // rings_mu_ is not const-friendly here; snapshot under lock.
  auto* self = const_cast<LiteInstance*>(this);
  std::lock_guard<std::mutex> lock(self->rings_mu_);
  for (const auto& [key, ring] : self->rings_) {
    total += ring->ring_size;
  }
  return total;
}

}  // namespace lite
