// A warm blocking one-sided op allocates nothing on the calling thread.
//
// This binary replaces the global operator new with one that counts the
// calling thread's allocations while a probe is open. After one warm-up of
// each op, Read, Write (64 B and 4 KB), an op that straddles a chunk
// boundary, and FetchAdd through LiteClient (rings off) must each make zero:
// the lh lookup shares the published mapping, the chunk pieces, WQEs and
// resolved ranges of a one- or two-piece op stay in place, an OK Status
// carries no string, and the op's latency histograms are found without
// building their name.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/lite/lite_cluster.h"

namespace {

thread_local bool g_counting = false;
thread_local uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  if (g_counting) {
    ++g_allocs;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  if (g_counting) {
    ++g_allocs;
  }
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace lite {
namespace {

// The calling thread's heap allocations while `op` runs.
template <typename Op>
uint64_t AllocsDuring(Op&& op) {
  g_allocs = 0;
  g_counting = true;
  op();
  g_counting = false;
  return g_allocs;
}

TEST(WarmOpAllocationTest, BlockingOneSidedOpsAllocateNothing) {
  lt::SimParams p;
  ASSERT_FALSE(p.lite_ring_enable);
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0);
  // Two chunks on node 1, so an access across their boundary is two pieces.
  const uint64_t chunk = p.lite_max_chunk_bytes;
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(2 * chunk, "alloc_free", on1);
  ASSERT_TRUE(lh.ok()) << lh.status();
  ASSERT_EQ(client->instance()->LmrChunks(*lh)->size(), 2u);

  std::vector<uint8_t> src(4096, 0x5a);
  std::vector<uint8_t> dst(4096);
  struct Case {
    const char* what;
    bool is_read;
    uint64_t offset;
    uint64_t len;
  };
  const Case cases[] = {
      {"64 B write", false, 0, 64},
      {"64 B read", true, 0, 64},
      {"4 KB write", false, 8192, 4096},
      {"4 KB read", true, 8192, 4096},
      {"chunk-straddling write", false, chunk - 32, 64},
      {"chunk-straddling read", true, chunk - 32, 64},
  };
  auto run = [&](const Case& c) {
    return c.is_read ? client->Read(*lh, c.offset, dst.data(), c.len)
                     : client->Write(*lh, c.offset, src.data(), c.len);
  };
  auto fetch_add = [&] { return client->FetchAdd(*lh, 16384, 1).status(); };

  // Warm-up: one of each op (first-use key registration, QP and cache
  // state, the send CQ's capacity).
  for (const Case& c : cases) {
    ASSERT_TRUE(run(c).ok()) << c.what;
  }
  ASSERT_TRUE(fetch_add().ok());

  for (const Case& c : cases) {
    Status st;
    EXPECT_EQ(AllocsDuring([&] { st = run(c); }), 0u) << c.what;
    EXPECT_TRUE(st.ok()) << c.what << ": " << st;
  }
  Status st;
  EXPECT_EQ(AllocsDuring([&] { st = fetch_add(); }), 0u) << "fetch-add";
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(dst, src);
}

}  // namespace
}  // namespace lite
