// Per-node physical memory: one flat byte pool with a page-granular
// first-fit allocator that can hand out physically-consecutive ranges.
//
// The pool is one anonymous private mapping, so it reads zero until written
// and the host pays only for the pages a run touches. A PROT_NONE guard page
// follows it: a write past the pool's end faults in every build type.
//
// LITE allocates LMR chunks here directly (physical addressing); native-Verbs
// processes allocate virtual memory whose pages also come from this pool via
// PageTable.
#ifndef SRC_MEM_PHYS_MEM_H_
#define SRC_MEM_PHYS_MEM_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/mem/addr.h"

namespace lt {

class PhysMem {
 public:
  PhysMem(uint64_t size_bytes, size_t page_size);

  ~PhysMem();

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  // Allocates a physically-consecutive range of at least `bytes` (rounded up
  // to whole pages). Returns the physical address of the first byte.
  StatusOr<PhysAddr> AllocContiguous(uint64_t bytes);

  // Frees a range previously returned by AllocContiguous.
  Status Free(PhysAddr addr);

  // Raw host pointer for a physical address (bounds-checked).
  uint8_t* Data(PhysAddr addr, uint64_t len);
  const uint8_t* Data(PhysAddr addr, uint64_t len) const;

  uint64_t size_bytes() const { return size_; }
  size_t page_size() const { return page_size_; }
  uint64_t allocated_bytes() const;
  uint64_t free_bytes() const;

 private:
  const uint64_t size_;
  const size_t page_size_;
  // Length of the whole mapping: the pool rounded up to host pages, plus
  // the guard page.
  size_t map_len_;
  uint8_t* data_;

  mutable std::mutex mu_;
  // Free list: start page -> page count. Allocation map: start page -> count.
  std::map<uint64_t, uint64_t> free_runs_;
  std::map<uint64_t, uint64_t> allocations_;
};

}  // namespace lt

#endif  // SRC_MEM_PHYS_MEM_H_
