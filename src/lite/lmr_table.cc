#include "src/lite/lmr_table.h"

#include <utility>

namespace lite {

// ------------------------------------------------------------ lh plumbing

Lh LmrTable::Insert(LhEntry entry) {
  Lh lh = next_lh_.fetch_add(1);
  LhRef ref = std::make_shared<const LhEntry>(std::move(entry));
  std::lock_guard<std::mutex> lock(lh_mu_);
  lh_table_[lh] = std::move(ref);
  return lh;
}

StatusOr<LhRef> LmrTable::Get(Lh lh) const {
  std::lock_guard<std::mutex> lock(lh_mu_);
  auto it = lh_table_.find(lh);
  if (it == lh_table_.end()) {
    return Status::NotFound("unknown or invalidated lh");
  }
  return it->second;
}

void LmrTable::Erase(Lh lh) {
  std::lock_guard<std::mutex> lock(lh_mu_);
  lh_table_.erase(lh);
}

void LmrTable::EraseByName(const std::string& name) {
  std::lock_guard<std::mutex> lock(lh_mu_);
  for (auto it = lh_table_.begin(); it != lh_table_.end();) {
    if (it->second->name == name) {
      it = lh_table_.erase(it);
    } else {
      ++it;
    }
  }
}

void LmrTable::UpdateHomeByName(const std::string& name, NodeId new_home,
                                const std::vector<LmrChunk>& chunks, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(lh_mu_);
  for (auto& [lh, entry] : lh_table_) {
    if (entry->name == name && entry->epoch < epoch) {
      LhEntry moved = *entry;
      moved.master_node = new_home;
      moved.chunks = chunks;
      moved.epoch = epoch;
      entry = std::make_shared<const LhEntry>(std::move(moved));
    }
  }
}

size_t LmrTable::lh_count() const {
  std::lock_guard<std::mutex> lock(lh_mu_);
  return lh_table_.size();
}

Status LmrTable::CheckAccess(const LhEntry& e, uint64_t offset, uint64_t len, uint32_t need) {
  if ((e.perm & need) != need) {
    return Status::PermissionDenied("lh lacks required permission");
  }
  if (offset + len > e.size || offset + len < offset) {
    return Status::OutOfRange("access outside LMR bounds");
  }
  return Status::Ok();
}

// ----------------------------------------------------------- LMR registry

void LmrTable::InsertMeta(LmrMeta meta) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  metas_[meta.name] = std::move(meta);
}

lt::StatusCode LmrTable::WithMeta(const std::string& name,
                                  const std::function<lt::StatusCode(LmrMeta&)>& fn) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = metas_.find(name);
  if (it == metas_.end()) {
    return lt::StatusCode::kNotFound;
  }
  return fn(it->second);
}

StatusOr<LmrMeta> LmrTable::TakeMetaIfMaster(const std::string& name, NodeId requester) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = metas_.find(name);
  if (it == metas_.end()) {
    return Status::NotFound("unknown LMR name");
  }
  if (it->second.masters.count(requester) == 0) {
    return Status::PermissionDenied("caller is not a master of this LMR");
  }
  LmrMeta meta = std::move(it->second);
  metas_.erase(it);
  return meta;
}

StatusOr<LmrMeta> LmrTable::TakeMeta(const std::string& name) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = metas_.find(name);
  if (it == metas_.end()) {
    return Status::NotFound("unknown LMR name");
  }
  LmrMeta meta = std::move(it->second);
  metas_.erase(it);
  return meta;
}

NameList LmrTable::ListNames() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  NameList names;
  names.reserve(metas_.size());
  for (const auto& [name, meta] : metas_) {
    names.emplace_back(name, meta.epoch);
  }
  return names;
}

// ------------------------------------------------------------ name service

bool LmrTable::RegisterName(const std::string& name, NodeId master) {
  std::lock_guard<std::mutex> lock(names_mu_);
  return names_.emplace(name, std::make_pair(master, uint64_t{1})).second;
}

StatusOr<NodeId> LmrTable::LookupName(const std::string& name) const {
  std::lock_guard<std::mutex> lock(names_mu_);
  auto it = names_.find(name);
  if (it == names_.end()) {
    return Status::NotFound("name not registered");
  }
  return it->second.first;
}

void LmrTable::UnregisterName(const std::string& name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  names_.erase(name);
}

void LmrTable::UpdateName(const std::string& name, NodeId new_home, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(names_mu_);
  auto it = names_.find(name);
  if (it == names_.end() || it->second.second < epoch) {
    names_[name] = {new_home, epoch};
  }
}

void LmrTable::ReplaceNames(std::unordered_map<std::string, std::pair<NodeId, uint64_t>> names) {
  std::lock_guard<std::mutex> lock(names_mu_);
  names_ = std::move(names);
}

void LmrTable::ClearNames() {
  std::lock_guard<std::mutex> lock(names_mu_);
  names_.clear();
}

}  // namespace lite
