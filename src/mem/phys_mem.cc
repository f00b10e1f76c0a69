#include "src/mem/phys_mem.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <new>

namespace lt {

PhysMem::PhysMem(uint64_t size_bytes, size_t page_size)
    : size_(size_bytes - (size_bytes % page_size)), page_size_(page_size) {
  assert(size_ > 0);
  const size_t host_page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t pool_len = (size_ + host_page - 1) / host_page * host_page;
  map_len_ = pool_len + host_page;
  void* map = mmap(nullptr, map_len_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<uint8_t*>(map);
  if (mprotect(data_ + pool_len, host_page, PROT_NONE) != 0) {
    munmap(map, map_len_);
    throw std::bad_alloc();
  }
  free_runs_[0] = size_ / page_size_;
}

PhysMem::~PhysMem() { munmap(data_, map_len_); }

StatusOr<PhysAddr> PhysMem::AllocContiguous(uint64_t bytes) {
  if (bytes == 0) {
    return Status::InvalidArgument("zero-byte allocation");
  }
  uint64_t pages = (bytes + page_size_ - 1) / page_size_;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
    if (it->second >= pages) {
      uint64_t start_page = it->first;
      uint64_t run = it->second;
      free_runs_.erase(it);
      if (run > pages) {
        free_runs_[start_page + pages] = run - pages;
      }
      allocations_[start_page] = pages;
      return static_cast<PhysAddr>(start_page * page_size_);
    }
  }
  return Status::ResourceExhausted("no contiguous physical range of requested size");
}

Status PhysMem::Free(PhysAddr addr) {
  if (addr % page_size_ != 0) {
    return Status::InvalidArgument("free of non-page-aligned physical address");
  }
  uint64_t start_page = addr / page_size_;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = allocations_.find(start_page);
  if (it == allocations_.end()) {
    return Status::NotFound("physical range not allocated");
  }
  uint64_t pages = it->second;
  allocations_.erase(it);

  // Insert and coalesce with neighbors.
  auto inserted = free_runs_.emplace(start_page, pages).first;
  if (inserted != free_runs_.begin()) {
    auto prev = std::prev(inserted);
    if (prev->first + prev->second == inserted->first) {
      prev->second += inserted->second;
      free_runs_.erase(inserted);
      inserted = prev;
    }
  }
  auto next = std::next(inserted);
  if (next != free_runs_.end() && inserted->first + inserted->second == next->first) {
    inserted->second += next->second;
    free_runs_.erase(next);
  }
  return Status::Ok();
}

uint8_t* PhysMem::Data(PhysAddr addr, uint64_t len) {
  assert(addr + len <= size_ && "physical access out of range");
  return data_ + addr;
}

const uint8_t* PhysMem::Data(PhysAddr addr, uint64_t len) const {
  assert(addr + len <= size_ && "physical access out of range");
  return data_ + addr;
}

uint64_t PhysMem::allocated_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [start, pages] : allocations_) {
    total += pages * page_size_;
  }
  return total;
}

uint64_t PhysMem::free_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [start, pages] : free_runs_) {
    total += pages * page_size_;
  }
  return total;
}

}  // namespace lt
