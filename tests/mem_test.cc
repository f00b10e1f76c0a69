#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <set>

#include "src/common/rng.h"
#include "src/mem/page_table.h"
#include "src/mem/phys_mem.h"

namespace lt {
namespace {

constexpr size_t kPage = 4096;

TEST(PhysMemTest, AllocatesPageAligned) {
  PhysMem mem(1 << 20, kPage);
  auto a = mem.AllocContiguous(100);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a % kPage, 0u);
}

TEST(PhysMemTest, DistinctAllocationsDoNotOverlap) {
  PhysMem mem(1 << 20, kPage);
  auto a = mem.AllocContiguous(3 * kPage);
  auto b = mem.AllocContiguous(2 * kPage);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*a + 3 * kPage <= *b || *b + 2 * kPage <= *a);
}

TEST(PhysMemTest, DataRoundTrip) {
  PhysMem mem(1 << 20, kPage);
  auto a = mem.AllocContiguous(kPage);
  std::memcpy(mem.Data(*a, 5), "hello", 5);
  EXPECT_EQ(std::memcmp(mem.Data(*a, 5), "hello", 5), 0);
}

TEST(PhysMemTest, FreeAndReuse) {
  PhysMem mem(16 * kPage, kPage);
  auto a = mem.AllocContiguous(8 * kPage);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mem.Free(*a).ok());
  auto b = mem.AllocContiguous(16 * kPage);  // Only fits if coalesced back.
  EXPECT_TRUE(b.ok());
}

TEST(PhysMemTest, ExhaustionReported) {
  PhysMem mem(4 * kPage, kPage);
  auto a = mem.AllocContiguous(4 * kPage);
  ASSERT_TRUE(a.ok());
  auto b = mem.AllocContiguous(kPage);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
}

TEST(PhysMemTest, FragmentationBlocksLargeContiguous) {
  PhysMem mem(8 * kPage, kPage);
  std::vector<PhysAddr> single_pages;
  for (int i = 0; i < 8; ++i) {
    single_pages.push_back(*mem.AllocContiguous(kPage));
  }
  // Free every other page: 4 pages free but max run is 1.
  for (int i = 0; i < 8; i += 2) {
    ASSERT_TRUE(mem.Free(single_pages[i]).ok());
  }
  EXPECT_EQ(mem.free_bytes(), 4 * kPage);
  EXPECT_FALSE(mem.AllocContiguous(2 * kPage).ok());
  EXPECT_TRUE(mem.AllocContiguous(kPage).ok());
}

TEST(PhysMemTest, DoubleFreeFails) {
  PhysMem mem(8 * kPage, kPage);
  auto a = mem.AllocContiguous(kPage);
  EXPECT_TRUE(mem.Free(*a).ok());
  EXPECT_FALSE(mem.Free(*a).ok());
}

TEST(PhysMemTest, FreeUnknownAddressFails) {
  PhysMem mem(8 * kPage, kPage);
  EXPECT_FALSE(mem.Free(3 * kPage).ok());
  EXPECT_FALSE(mem.Free(123).ok());  // Unaligned.
}

TEST(PhysMemTest, ZeroByteAllocationRejected) {
  PhysMem mem(8 * kPage, kPage);
  EXPECT_FALSE(mem.AllocContiguous(0).ok());
}

TEST(PhysMemTest, AccountingConsistent) {
  PhysMem mem(16 * kPage, kPage);
  EXPECT_EQ(mem.free_bytes(), 16 * kPage);
  auto a = mem.AllocContiguous(5 * kPage);
  EXPECT_EQ(mem.allocated_bytes(), 5 * kPage);
  EXPECT_EQ(mem.free_bytes(), 11 * kPage);
  ASSERT_TRUE(mem.Free(*a).ok());
  EXPECT_EQ(mem.allocated_bytes(), 0u);
}

// Property-style randomized alloc/free: invariants hold across 500 ops.
TEST(PhysMemTest, RandomAllocFreeInvariants) {
  PhysMem mem(64 * kPage, kPage);
  Rng rng(2024);
  std::vector<std::pair<PhysAddr, uint64_t>> live;
  for (int i = 0; i < 500; ++i) {
    if (live.empty() || rng.NextBounded(2) == 0) {
      uint64_t pages = 1 + rng.NextBounded(6);
      auto a = mem.AllocContiguous(pages * kPage);
      if (a.ok()) {
        // New range must not overlap any live range.
        for (const auto& [addr, len] : live) {
          EXPECT_TRUE(*a + pages * kPage <= addr || addr + len <= *a);
        }
        live.emplace_back(*a, pages * kPage);
      }
    } else {
      size_t idx = rng.NextBounded(live.size());
      EXPECT_TRUE(mem.Free(live[idx].first).ok());
      live.erase(live.begin() + static_cast<long>(idx));
    }
    EXPECT_EQ(mem.allocated_bytes() + mem.free_bytes(), 64 * kPage);
  }
}

// The pool is paid for on first touch: constructing a node's memory writes
// none of it, yet every byte still reads zero until written.
TEST(PhysMemTest, PoolIsNotResidentUntilTouched) {
  constexpr uint64_t kPool = 128ull << 20;
  PhysMem mem(kPool, kPage);
  uint8_t* base = mem.Data(0, kPool);
  // mincore wants a host-page-aligned start; the pool's own start need not be.
  const uintptr_t host_page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t first = reinterpret_cast<uintptr_t>(base) & ~(host_page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(base) + kPool;
  std::vector<unsigned char> resident((end - first + host_page - 1) / host_page);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(first), end - first, resident.data()), 0);
  size_t touched = 0;
  for (unsigned char r : resident) {
    touched += r & 1;
  }
  EXPECT_EQ(touched, 0u) << "of " << resident.size() << " pages";

  EXPECT_EQ(base[0], 0);
  EXPECT_EQ(base[kPool - 1], 0);
  base[kPool / 2] = 0x5a;
  EXPECT_EQ(*mem.Data(kPool / 2, 1), 0x5a);
}

// A guard page follows the pool, so an overrun faults even where Data()'s
// bounds assert is compiled out.
TEST(PhysMemDeathTest, WritePastPoolEndFaults) {
  constexpr uint64_t kPool = 16 * kPage;
  PhysMem mem(kPool, kPage);
  volatile uint8_t* past_end = mem.Data(0, kPool) + kPool;
  EXPECT_DEATH(*past_end = 1, "");
}

// ------------------------------------------------------------ PageTable

TEST(PageTableTest, AllocAndTranslate) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto va = pt.AllocVirt(3 * kPage);
  ASSERT_TRUE(va.ok());
  auto pa = pt.Translate(*va + 100);
  ASSERT_TRUE(pa.ok());
  EXPECT_EQ(*pa % kPage, 100u);
}

TEST(PageTableTest, UnmappedTranslateFails) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  EXPECT_FALSE(pt.Translate(0xdead0000).ok());
}

TEST(PageTableTest, PagesArePhysicallyScattered) {
  // The native-RDMA property the MTT cache models: virtually-contiguous
  // pages need not be physically contiguous once the allocator has churned.
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto hole_maker = pt.AllocVirt(kPage);
  auto va = pt.AllocVirt(kPage);
  ASSERT_TRUE(pt.FreeVirt(*hole_maker).ok());
  auto big = pt.AllocVirt(4 * kPage);
  ASSERT_TRUE(big.ok());
  auto ranges = pt.TranslateRange(0, *big, 4 * kPage);
  ASSERT_TRUE(ranges.ok());
  EXPECT_GE(ranges->size(), 2u);  // At least one physical discontinuity.
  (void)va;
}

TEST(PageTableTest, TranslateRangeCoversAllBytes) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto va = pt.AllocVirt(5 * kPage);
  auto ranges = pt.TranslateRange(0, *va + 123, 3 * kPage);
  ASSERT_TRUE(ranges.ok());
  uint64_t total = 0;
  for (const auto& r : *ranges) {
    total += r.size;
  }
  EXPECT_EQ(total, 3 * kPage);
}

TEST(PageTableTest, TranslateRangePastEndFails) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto va = pt.AllocVirt(2 * kPage);
  EXPECT_FALSE(pt.TranslateRange(0, *va, 3 * kPage).ok());
}

TEST(PageTableTest, FreeVirtReleasesPhysical) {
  PhysMem mem(8 * kPage, kPage);
  PageTable pt(&mem);
  auto va = pt.AllocVirt(6 * kPage);
  ASSERT_TRUE(va.ok());
  uint64_t before = mem.allocated_bytes();
  ASSERT_TRUE(pt.FreeVirt(*va).ok());
  EXPECT_LT(mem.allocated_bytes(), before);
  EXPECT_FALSE(pt.Translate(*va).ok());
}

TEST(PageTableTest, GuardPageBetweenAllocations) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  auto a = pt.AllocVirt(kPage);
  auto b = pt.AllocVirt(kPage);
  EXPECT_GE(*b - *a, 2 * kPage);  // A hole separates allocations.
}

TEST(PageTableTest, PagesSpannedMath) {
  PhysMem mem(1 << 20, kPage);
  PageTable pt(&mem);
  EXPECT_EQ(pt.PagesSpanned(0, 1), 1u);
  EXPECT_EQ(pt.PagesSpanned(0, kPage), 1u);
  EXPECT_EQ(pt.PagesSpanned(kPage - 1, 2), 2u);
  EXPECT_EQ(pt.PagesSpanned(0, kPage + 1), 2u);
  EXPECT_EQ(pt.PagesSpanned(100, 0), 0u);
}

TEST(PageTableTest, AllocationFailureRollsBack) {
  PhysMem mem(4 * kPage, kPage);
  PageTable pt(&mem);
  auto ok = pt.AllocVirt(2 * kPage);
  ASSERT_TRUE(ok.ok());
  auto too_big = pt.AllocVirt(3 * kPage);
  EXPECT_FALSE(too_big.ok());
  // The failed allocation must not leak partial pages.
  EXPECT_EQ(mem.allocated_bytes(), 2 * kPage);
}

// Parameterized: write/read through translation at many sizes.
class PageTableIoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageTableIoTest, RoundTripThroughTranslation) {
  PhysMem mem(4 << 20, kPage);
  PageTable pt(&mem);
  uint64_t size = GetParam();
  auto va = pt.AllocVirt(size);
  ASSERT_TRUE(va.ok());
  std::vector<uint8_t> pattern(size);
  for (size_t i = 0; i < size; ++i) {
    pattern[i] = static_cast<uint8_t>(i * 13 + 7);
  }
  auto ranges = pt.TranslateRange(0, *va, size);
  ASSERT_TRUE(ranges.ok());
  uint64_t off = 0;
  for (const auto& r : *ranges) {
    std::memcpy(mem.Data(r.addr, r.size), pattern.data() + off, r.size);
    off += r.size;
  }
  off = 0;
  for (const auto& r : *ranges) {
    EXPECT_EQ(std::memcmp(mem.Data(r.addr, r.size), pattern.data() + off, r.size), 0);
    off += r.size;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PageTableIoTest,
                         ::testing::Values(1, 64, kPage - 1, kPage, kPage + 1, 3 * kPage,
                                           64 * 1024));

}  // namespace
}  // namespace lt
