#include "src/apps/dsm.h"

#include <cstring>
#include <thread>

#include "src/apps/graph_detail.h"
#include "src/apps/phase.h"
#include "src/common/logging.h"
#include "src/common/timing.h"
#include "src/lite/wire.h"

namespace liteapp {
namespace {

using lt::NowNs;
using lt::SyncClockTo;

// Protocol ops carried in the DSM RPC payload.
enum DsmOp : uint8_t {
  kOpRegisterCacher = 0,
  kOpAcquire = 1,
  kOpRelease = 2,
  kOpInvalidate = 3,
};

struct DsmMsg {
  uint8_t op = 0;
  lt::NodeId node = lt::kInvalidNode;
  uint64_t page = 0;
};

// Invalidations use a separate function id (and service thread) so a Release
// handler blocking on invalidation replies can never deadlock against
// another node's Release doing the same.
constexpr lite::RpcFuncId kInvalFuncDelta = 400;

}  // namespace

LiteDsm::LiteDsm(lite::LiteCluster* cluster, lt::NodeId self, std::vector<lt::NodeId> nodes,
                 uint64_t total_pages, uint32_t instance_id)
    : cluster_(cluster),
      self_(self),
      nodes_(std::move(nodes)),
      total_pages_(total_pages),
      instance_id_(instance_id) {
  client_ = cluster_->CreateClient(self_, /*kernel_level=*/true);
}

LiteDsm::~LiteDsm() { Stop(); }

std::string LiteDsm::BackingName(lt::NodeId node) const {
  return "dsm" + std::to_string(instance_id_) + "_home_" + std::to_string(node);
}

Status LiteDsm::Start() {
  const lite::RpcFuncId func = kDsmFunc + instance_id_;
  const lite::RpcFuncId inval_func = func + kInvalFuncDelta;
  LT_RETURN_IF_ERROR(client_->RegisterRpc(func));
  LT_RETURN_IF_ERROR(client_->RegisterRpc(inval_func));

  // nodes_[0] allocates every home's backing LMR; everyone else maps them.
  uint64_t pages_per_home = (total_pages_ + nodes_.size() - 1) / nodes_.size();
  if (self_ == nodes_[0]) {
    for (lt::NodeId home : nodes_) {
      lite::MallocOptions mo;
      mo.nodes = {home};
      auto lh = client_->Malloc(pages_per_home * kPageSize, BackingName(home), mo);
      if (!lh.ok()) {
        return lh.status();
      }
      backing_[home] = *lh;
    }
  } else {
    for (lt::NodeId home : nodes_) {
      lt::StatusOr<lite::Lh> lh = lt::Status::Unavailable("not tried");
      for (int attempt = 0; attempt < 50; ++attempt) {
        lh = client_->Map(BackingName(home));
        if (lh.ok()) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!lh.ok()) {
        return lh.status();
      }
      backing_[home] = *lh;
    }
  }

  stopping_.store(false);
  service_ = std::thread([this] { ServiceLoop(); });
  return Status::Ok();
}

void LiteDsm::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  if (service_.joinable()) {
    service_.join();
  }
}

Status LiteDsm::FetchPage(uint64_t page, CachedPage* out) {
  cache_misses_.fetch_add(1);
  out->data.resize(kPageSize);
  lt::NodeId home = HomeOf(page);
  LT_RETURN_IF_ERROR(client_->Read(backing_[home], HomeOffset(page), out->data.data(), kPageSize));
  if (home != self_) {
    // Register as a cacher with the home node. The paper keeps reads purely
    // one-sided; we acknowledge the registration so a subsequent release is
    // guaranteed to see this cacher (see DESIGN.md substitution notes).
    lite::WireWriter w;
    DsmMsg msg{kOpRegisterCacher, self_, page};
    w.Put(msg);
    uint8_t ack = 0;
    uint32_t ack_len = 0;
    LT_RETURN_IF_ERROR(client_->Rpc(home, kDsmFunc + instance_id_, w.bytes().data(),
                                    static_cast<uint32_t>(w.bytes().size()), &ack, 1, &ack_len));
  }
  return Status::Ok();
}

Status LiteDsm::Read(uint64_t gaddr, void* buf, uint32_t len) {
  uint8_t* out = static_cast<uint8_t*>(buf);
  uint32_t done = 0;
  while (done < len) {
    uint64_t page = (gaddr + done) / kPageSize;
    uint32_t in_page_off = static_cast<uint32_t>((gaddr + done) % kPageSize);
    uint32_t take = std::min(len - done, kPageSize - in_page_off);
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      auto it = cache_.find(page);
      if (it != cache_.end()) {
        cache_hits_.fetch_add(1);
        std::memcpy(out + done, it->second.data.data() + in_page_off, take);
        done += take;
        continue;
      }
    }
    CachedPage fetched;
    LT_RETURN_IF_ERROR(FetchPage(page, &fetched));
    std::memcpy(out + done, fetched.data.data() + in_page_off, take);
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      cache_.emplace(page, std::move(fetched));
    }
    done += take;
  }
  return Status::Ok();
}

Status LiteDsm::Write(uint64_t gaddr, const void* buf, uint32_t len) {
  const uint8_t* in = static_cast<const uint8_t*>(buf);
  uint32_t done = 0;
  while (done < len) {
    uint64_t page = (gaddr + done) / kPageSize;
    uint32_t in_page_off = static_cast<uint32_t>((gaddr + done) % kPageSize);
    uint32_t take = std::min(len - done, kPageSize - in_page_off);
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(page);
    if (it == cache_.end() || !it->second.writable) {
      return Status::FailedPrecondition("DSM write without Acquire");
    }
    std::memcpy(it->second.data.data() + in_page_off, in + done, take);
    it->second.dirty = true;
    done += take;
  }
  return Status::Ok();
}

Status LiteDsm::Acquire(uint64_t gaddr, uint32_t len) {
  uint64_t first = gaddr / kPageSize;
  uint64_t last = (gaddr + len - 1) / kPageSize;
  for (uint64_t page = first; page <= last; ++page) {
    lite::WireWriter w;
    DsmMsg msg{kOpAcquire, self_, page};
    w.Put(msg);
    uint8_t reply = 0;
    uint32_t reply_len = 0;
    LT_RETURN_IF_ERROR(client_->Rpc(HomeOf(page), kDsmFunc + instance_id_, w.bytes().data(),
                                    static_cast<uint32_t>(w.bytes().size()), &reply,
                                    sizeof(reply), &reply_len));
    // A still-cached copy is current (any other writer's release would have
    // invalidated it); otherwise fetch fresh.
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      auto it = cache_.find(page);
      if (it != cache_.end()) {
        it->second.writable = true;
        continue;
      }
    }
    CachedPage fresh;
    LT_RETURN_IF_ERROR(FetchPage(page, &fresh));
    fresh.writable = true;
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_[page] = std::move(fresh);
  }
  return Status::Ok();
}

Status LiteDsm::Release(uint64_t gaddr, uint32_t len) {
  uint64_t first = gaddr / kPageSize;
  uint64_t last = (gaddr + len - 1) / kPageSize;
  for (uint64_t page = first; page <= last; ++page) {
    // Push dirty data home (one-sided write), then run the release protocol.
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      auto it = cache_.find(page);
      if (it == cache_.end() || !it->second.writable) {
        return Status::FailedPrecondition("DSM release without Acquire");
      }
      if (it->second.dirty) {
        LT_RETURN_IF_ERROR(client_->Write(backing_[HomeOf(page)], HomeOffset(page),
                                          it->second.data.data(), kPageSize));
      }
      it->second.writable = false;
      it->second.dirty = false;
    }
    lite::WireWriter w;
    DsmMsg msg{kOpRelease, self_, page};
    w.Put(msg);
    uint8_t reply = 0;
    uint32_t reply_len = 0;
    LT_RETURN_IF_ERROR(client_->Rpc(HomeOf(page), kDsmFunc + instance_id_, w.bytes().data(),
                                    static_cast<uint32_t>(w.bytes().size()), &reply,
                                    sizeof(reply), &reply_len));
  }
  return Status::Ok();
}

void LiteDsm::ServiceLoop() {
  const lite::RpcFuncId func = kDsmFunc + instance_id_;
  const lite::RpcFuncId inval_func = func + kInvalFuncDelta;

  // Separate thread for invalidations (never blocks -> no deadlock).
  std::thread inval_thread([this, inval_func] {
    while (!stopping_.load()) {
      auto inc = client_->RecvRpc(inval_func, 100'000'000);
      if (!inc.ok()) {
        continue;
      }
      DsmMsg msg;
      lite::WireReader r(inc->data.data(), inc->data.size());
      if (r.Get(&msg) && msg.op == kOpInvalidate) {
        std::lock_guard<std::mutex> lock(cache_mu_);
        cache_.erase(msg.page);
      }
      uint8_t ok = 1;
      (void)client_->ReplyRpc(inc->token, &ok, 1);
    }
  });

  while (!stopping_.load()) {
    auto inc = client_->RecvRpc(func, 100'000'000);
    if (!inc.ok()) {
      continue;
    }
    DsmMsg msg;
    lite::WireReader r(inc->data.data(), inc->data.size());
    if (!r.Get(&msg)) {
      continue;
    }
    switch (msg.op) {
      case kOpRegisterCacher: {
        {
          std::lock_guard<std::mutex> lock(home_mu_);
          home_pages_[msg.page].cachers.insert(msg.node);
        }
        uint8_t ok = 1;
        (void)client_->ReplyRpc(inc->token, &ok, 1);
        break;
      }
      case kOpAcquire: {
        bool grant = false;
        {
          std::lock_guard<std::mutex> lock(home_mu_);
          HomePage& hp = home_pages_[msg.page];
          if (hp.writer == lt::kInvalidNode || hp.writer == msg.node) {
            hp.writer = msg.node;
            grant = true;
          } else {
            // MRSW: wait for the current writer to release.
            hp.wait_queue.emplace_back(inc->token, msg.node);
          }
        }
        if (grant) {
          uint8_t ok = 1;
          (void)client_->ReplyRpc(inc->token, &ok, 1);
        }
        break;
      }
      case kOpRelease: {
        std::vector<lt::NodeId> to_invalidate;
        lite::ReplyToken next_writer_token;
        bool have_next = false;
        {
          std::lock_guard<std::mutex> lock(home_mu_);
          HomePage& hp = home_pages_[msg.page];
          for (lt::NodeId cacher : hp.cachers) {
            if (cacher != msg.node && cacher != self_) {
              to_invalidate.push_back(cacher);
            }
          }
          hp.cachers.clear();
          hp.cachers.insert(msg.node);  // The writer keeps a (clean) copy.
          if (!hp.wait_queue.empty()) {
            next_writer_token = hp.wait_queue.front().first;
            hp.writer = hp.wait_queue.front().second;  // FIFO writer hand-off.
            hp.wait_queue.erase(hp.wait_queue.begin());
            have_next = true;
          } else {
            hp.writer = lt::kInvalidNode;
          }
        }
        // Home invalidates all cached copies (multicast RPC, Sec. 8.4).
        if (!to_invalidate.empty()) {
          lite::WireWriter w;
          DsmMsg inval{kOpInvalidate, self_, msg.page};
          w.Put(inval);
          std::vector<std::vector<uint8_t>> replies;
          (void)client_->MulticastRpc(to_invalidate, inval_func, w.bytes().data(),
                                      static_cast<uint32_t>(w.bytes().size()), &replies);
        }
        // Invalidate our own local cache too (home copy is authoritative).
        {
          std::lock_guard<std::mutex> lock(cache_mu_);
          cache_.erase(msg.page);
        }
        uint8_t ok = 1;
        (void)client_->ReplyRpc(inc->token, &ok, 1);
        if (have_next) {
          // Writer hand-off at max(release time, waiter's request time).
          lt::SyncClockTo(next_writer_token.arrival_vtime_ns);
          (void)client_->ReplyRpc(next_writer_token, &ok, 1);
        }
        break;
      }
      default:
        LT_LOG_WARNING << "DSM: unknown op " << static_cast<int>(msg.op);
    }
  }
  inval_thread.join();
}

// ------------------------------------------------------- LITE-Graph-DSM

PageRankResult LiteGraphDsmPageRank(lite::LiteCluster* cluster, const SyntheticGraph& graph,
                                    uint32_t num_nodes, const PageRankOptions& options) {
  static std::atomic<uint32_t> dsm_job{100};
  const uint32_t job = dsm_job.fetch_add(1);
  PageRankResult result;
  auto parts = MakePartitioning(graph.num_vertices, num_nodes);
  GraphIndex idx = BuildIndex(graph, parts);

  const uint64_t rank_bytes = static_cast<uint64_t>(graph.num_vertices) * sizeof(double);
  const uint64_t pages =
      (rank_bytes + LiteDsm::kPageSize - 1) / LiteDsm::kPageSize + num_nodes;

  // Bring up one DSM instance per node.
  std::vector<lt::NodeId> nodes;
  for (uint32_t p = 0; p < num_nodes; ++p) {
    nodes.push_back(p);
  }
  std::vector<std::unique_ptr<LiteDsm>> dsms;
  for (uint32_t p = 0; p < num_nodes; ++p) {
    dsms.push_back(std::make_unique<LiteDsm>(cluster, p, nodes, pages, job));
  }
  for (uint32_t p = 0; p < num_nodes; ++p) {
    auto st = dsms[p]->Start();
    if (!st.ok()) {
      result.total_ns = 0;
      return result;
    }
  }

  // Initialize ranks through the DSM (node 0).
  {
    std::vector<double> init(graph.num_vertices, 1.0 / graph.num_vertices);
    (void)dsms[0]->Acquire(0, static_cast<uint32_t>(rank_bytes));
    (void)dsms[0]->Write(0, init.data(), static_cast<uint32_t>(rank_bytes));
    (void)dsms[0]->Release(0, static_cast<uint32_t>(rank_bytes));
  }

  const uint64_t t0 = NowNs();
  result.ranks.resize(graph.num_vertices);
  const uint64_t end = RunPhase(num_nodes, t0, [&](size_t node) {
    const auto p = static_cast<uint32_t>(node);
    auto client = cluster->CreateClient(p);
    std::vector<double> snapshot(graph.num_vertices);
    std::vector<double> mine(parts.End(p) - parts.Begin(p));
    const uint64_t my_off = static_cast<uint64_t>(parts.Begin(p)) * sizeof(double);
    const uint32_t my_bytes = static_cast<uint32_t>(mine.size() * sizeof(double));
    for (uint32_t it = 0; it < options.iterations; ++it) {
      // Gather: plain DSM reads (page faults + one-sided fetches).
      (void)dsms[p]->Read(0, snapshot.data(), static_cast<uint32_t>(rank_bytes));
      SweepPartition(idx, parts, p, snapshot, &mine, options);
      // Per-step barriers keep gather and scatter phases disjoint, as in
      // LITE-Graph (paper Secs. 8.3-8.4).
      (void)client->Barrier("grdsm" + std::to_string(job) + "_g" + std::to_string(it),
                            num_nodes);
      // Scatter: acquire/write/release of this partition's range.
      (void)dsms[p]->Acquire(my_off, my_bytes);
      (void)dsms[p]->Write(my_off, mine.data(), my_bytes);
      (void)dsms[p]->Release(my_off, my_bytes);
      (void)client->Barrier("grdsm" + std::to_string(job) + "_s" + std::to_string(it),
                            num_nodes);
    }
    std::copy(mine.begin(), mine.end(), result.ranks.begin() + parts.Begin(p));
  });
  result.total_ns = end - t0;
  result.iterations = options.iterations;
  for (auto& dsm : dsms) {
    dsm->Stop();
  }
  return result;
}

}  // namespace liteapp
