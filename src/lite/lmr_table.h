// LmrTable — LMR bookkeeping split out of LiteInstance: the metadata
// registry for LMRs mastered on this node (paper Sec. 4.1), the local lh
// handle table with its permission checks, and the cluster name service
// (populated only on the manager node).
#ifndef SRC_LITE_LMR_TABLE_H_
#define SRC_LITE_LMR_TABLE_H_

#include <atomic>
#include <functional>
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

namespace lite {

using lt::Status;
using lt::StatusOr;

// Metadata of one LMR, living at its home (creator, or migration target) node.
struct LmrMeta {
  std::string name;
  uint64_t size = 0;
  std::vector<LmrChunk> chunks;
  uint32_t default_perm = kPermRead | kPermWrite;
  std::map<NodeId, uint32_t> node_perm;
  std::set<NodeId> mapped_nodes;
  std::set<NodeId> masters;
  // Ownership epoch (DESIGN.md "Epoch-fenced ownership"): starts at 1, bumped
  // on every home change. When two nodes both claim a name (a crash split the
  // migration commit), the higher epoch wins name-service arbitration.
  uint64_t epoch = 1;
};

// One local handle (lh) into an LMR, as held by applications on this node.
struct LhEntry {
  std::string name;
  NodeId master_node = kInvalidNode;
  uint64_t size = 0;
  uint32_t perm = 0;
  std::vector<LmrChunk> chunks;
  uint64_t epoch = 1;  // Home epoch this mapping was resolved against.
};

// A published lh mapping. The table never changes one in place: a re-home
// publishes a new entry, so a reader keeps its snapshot (chunk list
// included) for a whole op without copying it.
using LhRef = std::shared_ptr<const LhEntry>;

// (name, epoch) pairs of the LMRs one node hosts.
using NameList = std::vector<std::pair<std::string, uint64_t>>;

class LmrTable {
 public:
  explicit LmrTable(NodeId self) : next_lh_((static_cast<uint64_t>(self) << 32) + 1) {}

  LmrTable(const LmrTable&) = delete;
  LmrTable& operator=(const LmrTable&) = delete;

  // ---- lh handle table ----
  Lh Insert(LhEntry entry);
  StatusOr<LhRef> Get(Lh lh) const;
  void Erase(Lh lh);
  // Invalidates every lh pointing at `name` (LT_free / master invalidation).
  void EraseByName(const std::string& name);
  // Re-homes every lh pointing at `name` (migration rehome fan-out): new
  // master node, new chunk placement, new epoch, each published as a new
  // entry. Entries already at a newer epoch are left alone (a late rehome
  // must not roll a mapping back).
  void UpdateHomeByName(const std::string& name, NodeId new_home,
                        const std::vector<LmrChunk>& chunks, uint64_t epoch);
  size_t lh_count() const;
  // Bounds + permission check for one access through a handle.
  static Status CheckAccess(const LhEntry& e, uint64_t offset, uint64_t len, uint32_t need);

  // ---- LMR metadata registry (LMRs mastered here) ----
  void InsertMeta(LmrMeta meta);
  // Runs `fn` on the named meta under the registry lock; kNotFound if the
  // name is unknown, otherwise whatever `fn` returns (handlers use this for
  // map/unmap/permission updates without leaking the lock).
  lt::StatusCode WithMeta(const std::string& name,
                          const std::function<lt::StatusCode(LmrMeta&)>& fn);
  // Removes and returns the meta (LT_free at the master).
  StatusOr<LmrMeta> TakeMetaIfMaster(const std::string& name, NodeId requester);
  // Unconditionally removes and returns the meta (migration commit at the
  // source: home ownership transfers as one atomic take).
  StatusOr<LmrMeta> TakeMeta(const std::string& name);
  // Names mastered here with their current epochs (manager rebuild payload;
  // the manager keeps the highest epoch when two nodes list the same name).
  NameList ListNames() const;

  // ---- Name service (manager node only) ----
  // Returns false if the name is already registered.
  bool RegisterName(const std::string& name, NodeId master);
  StatusOr<NodeId> LookupName(const std::string& name) const;
  void UnregisterName(const std::string& name);
  // Migration commit: re-points `name` at `new_home` iff `epoch` is newer
  // than the recorded one (late or replayed updates are ignored).
  void UpdateName(const std::string& name, NodeId new_home, uint64_t epoch);
  void ReplaceNames(std::unordered_map<std::string, std::pair<NodeId, uint64_t>> names);
  void ClearNames();

 private:
  // Local handle table.
  mutable std::mutex lh_mu_;
  std::unordered_map<Lh, LhRef> lh_table_;
  std::atomic<uint64_t> next_lh_;

  // LMR registry for LMRs whose metadata lives here (creator node).
  mutable std::mutex meta_mu_;
  std::unordered_map<std::string, LmrMeta> metas_;

  // Name service (populated only on the manager node). Each record carries
  // the home node and the epoch it was registered/updated at.
  mutable std::mutex names_mu_;
  std::unordered_map<std::string, std::pair<NodeId, uint64_t>> names_;
};

}  // namespace lite

#endif  // SRC_LITE_LMR_TABLE_H_
