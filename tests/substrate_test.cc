// Tests for the remaining substrate pieces: OS cost model, node/cluster
// composition, and the service-timeline rewind machinery.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/service_timeline.h"
#include "src/common/timing.h"
#include "src/node/node.h"

namespace lt {
namespace {

TEST(OsKernelTest, SyscallChargesAndCounts) {
  OsKernel os;
  uint64_t t0 = NowNs();
  os.Syscall();
  EXPECT_EQ(NowNs() - t0, kSyscallOverheadNs + 2 * kUserKernelCrossNs);
  EXPECT_EQ(os.syscall_count(), 1u);
}

TEST(OsKernelTest, CrossingChargesHalfTransition) {
  OsKernel os;
  uint64_t t0 = NowNs();
  os.CrossUserKernel();
  EXPECT_EQ(NowNs() - t0, kUserKernelCrossNs);
  EXPECT_EQ(os.crossing_count(), 1u);
}

TEST(OsKernelTest, PinningScalesWithPages) {
  OsKernel os;
  uint64_t t0 = NowNs();
  os.PinPages(100);
  EXPECT_EQ(NowNs() - t0, 100 * kPinPageNs);
  t0 = NowNs();
  os.UnpinPages(100);
  EXPECT_EQ(NowNs() - t0, 100 * kUnpinPageNs);
}

TEST(NodeTest, ClusterComposesAllSubsystems) {
  SimParams p;
  Cluster cluster(3, p);
  EXPECT_EQ(cluster.size(), 3u);
  for (NodeId i = 0; i < 3; ++i) {
    Node* node = cluster.node(i);
    EXPECT_EQ(node->id(), i);
    EXPECT_EQ(node->mem().size_bytes(), p.node_phys_mem_bytes);
    EXPECT_EQ(node->port()->node(), i);
  }
  EXPECT_EQ(cluster.fabric().node_count(), 3u);
  EXPECT_EQ(cluster.directory().Lookup(2), &cluster.node(2)->rnic());
  EXPECT_EQ(cluster.directory().Lookup(99), nullptr);
}

TEST(NodeTest, ProcessesAreIsolatedAddressSpaces) {
  SimParams p;
  Cluster cluster(1, p);
  Process* a = cluster.node(0)->CreateProcess();
  Process* b = cluster.node(0)->CreateProcess();
  auto va_a = *a->page_table().AllocVirt(4096);
  // The same virtual address is not implicitly mapped in process b.
  EXPECT_FALSE(b->page_table().Translate(va_a).ok());
  EXPECT_TRUE(a->page_table().Translate(va_a).ok());
}

TEST(ServiceTimelineTest, BeginServiceRewindsToEventTime) {
  ServiceTimeline timeline;
  SpinFor(1'000'000);  // Thread clock at 1 ms.
  timeline.BeginService(/*event_vtime=*/200'000, /*est_cost=*/500,
                        /*spin_budget=*/1000, /*wakeup=*/100);
  // Served on the event's own timeline, not the poisoned 1 ms clock.
  EXPECT_LT(NowNs(), 300'000u);
}

TEST(ServiceTimelineTest, SerialCapacityStillEnforced) {
  ServiceTimeline timeline;
  // 100 events at the same virtual instant, each needing 5 us of service:
  // the last must start roughly 500 us in.
  uint64_t last_start = 0;
  for (int i = 0; i < 100; ++i) {
    timeline.BeginService(1000, 5000, 0, 0);
    last_start = NowNs();
  }
  EXPECT_GE(last_start, 400'000u);
}

TEST(ServiceTimelineTest, IdleGapChargesWakeupBeyondSpinBudget) {
  ServiceTimeline timeline;
  timeline.BeginService(0, 10, 1000, 700);
  uint64_t cpu0 = ThreadCpuNs();
  uint64_t now0 = NowNs();
  // Next event far in the future: thread sleeps, pays a wakeup.
  timeline.BeginService(now0 + 50'000, 10, 1000, 700);
  EXPECT_EQ(ThreadCpuNs() - cpu0, 1000u + 700u);  // Spin budget + wakeup.
}

TEST(ServiceTimelineTest, ShortGapSpinsWithoutWakeup) {
  ServiceTimeline timeline;
  timeline.BeginService(0, 10, 1000, 700);
  uint64_t cpu0 = ThreadCpuNs();
  uint64_t now0 = NowNs();
  timeline.BeginService(now0 + 400, 10, 1000, 700);
  uint64_t spun = ThreadCpuNs() - cpu0;
  EXPECT_GE(spun, 390u);  // Spun roughly the gap...
  EXPECT_LE(spun, 420u);  // ...with no wakeup charge on top.
}

TEST(ServiceClockTest, SetServiceClockCanRewind) {
  SpinFor(1000);
  uint64_t high = NowNs();
  SetServiceClock(high - 500);
  EXPECT_EQ(NowNs(), high - 500);
  SetServiceClock(high + 500);
  EXPECT_EQ(NowNs(), high + 500);
}

TEST(ServiceClockTest, ChargeCpuLeavesClockAlone) {
  uint64_t now0 = NowNs();
  uint64_t cpu0 = ThreadCpuNs();
  ChargeCpu(750);
  EXPECT_EQ(NowNs(), now0);
  EXPECT_EQ(ThreadCpuNs(), cpu0 + 750);
}

}  // namespace
}  // namespace lt
