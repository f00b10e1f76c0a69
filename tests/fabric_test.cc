#include <gtest/gtest.h>

#include "src/common/timing.h"
#include "src/fabric/fabric.h"

namespace lt {
namespace {

// Serialization time of `bytes` on one port at the line rate.
uint64_t SerNs(uint64_t bytes) {
  return static_cast<uint64_t>(static_cast<double>(bytes) / kNicLineRateBytesPerNs);
}

TEST(FabricTest, AttachAssignsPortsInOrder) {
  Fabric fabric;
  FabricPort* p0 = fabric.Attach(0);
  FabricPort* p1 = fabric.Attach(1);
  EXPECT_EQ(p0->node(), 0u);
  EXPECT_EQ(p1->node(), 1u);
  EXPECT_EQ(fabric.node_count(), 2u);
  EXPECT_EQ(fabric.port(1), p1);
}

TEST(FabricTest, TransferIncludesWireLatencyAndSerialization) {
  Fabric fabric;
  fabric.Attach(0);
  fabric.Attach(1);
  uint64_t now = NowNs();
  uint64_t finish = fabric.TransferFinishNs(0, 1, 4000, now);
  // 4000 bytes of serialization on each of the two ports, plus the wire.
  EXPECT_GE(finish - now, SerNs(4000) + kWireLatencyNs);
  EXPECT_LE(finish - now, 2 * SerNs(4000) + kWireLatencyNs);
}

TEST(FabricTest, LoopbackIsFree) {
  Fabric fabric;
  fabric.Attach(0);
  uint64_t now = NowNs();
  EXPECT_EQ(fabric.TransferFinishNs(0, 0, 1 << 20, now), now);
}

TEST(FabricTest, BackToBackTransfersQueueOnThePort) {
  Fabric fabric;
  fabric.Attach(0);
  fabric.Attach(1);
  uint64_t now = NowNs();
  uint64_t first = fabric.TransferFinishNs(0, 1, 40000, now);
  uint64_t second = fabric.TransferFinishNs(0, 1, 40000, now);
  EXPECT_GT(second, first);  // Same ports: serialized.
}

TEST(FabricTest, DisjointPairsDoNotContend) {
  Fabric fabric;
  for (NodeId i = 0; i < 4; ++i) {
    fabric.Attach(i);
  }
  uint64_t now = NowNs();
  uint64_t a = fabric.TransferFinishNs(0, 1, 40000, now);
  uint64_t b = fabric.TransferFinishNs(2, 3, 40000, now);
  // Different port pairs see the same (uncontended) finish time.
  EXPECT_EQ(a, b);
}

TEST(FabricTest, EarliestBoundsStart) {
  Fabric fabric;
  fabric.Attach(0);
  fabric.Attach(1);
  uint64_t finish = fabric.TransferFinishNs(0, 1, 100, 1'000'000);
  EXPECT_GE(finish, 1'000'000u);
}

TEST(FabricTest, DropInjection) {
  Fabric fabric;
  fabric.Attach(0);
  fabric.Attach(1);
  LinkFaultRule drop_all;
  drop_all.drop_p = 1.0;
  fabric.faults().SetDefaultRule(drop_all);
  EXPECT_EQ(fabric.TransferFinishNs(0, 1, 100, NowNs()), Fabric::kDropped);
  fabric.faults().SetDefaultRule({});
  EXPECT_NE(fabric.TransferFinishNs(0, 1, 100, NowNs()), Fabric::kDropped);
}

TEST(FabricTest, ExtraDelayInjection) {
  Fabric fabric;
  fabric.Attach(0);
  fabric.Attach(1);
  uint64_t now = NowNs();
  uint64_t base = fabric.TransferFinishNs(0, 1, 100, now);
  LinkFaultRule slow;
  slow.extra_delay_ns = 50'000;
  fabric.faults().SetDefaultRule(slow);
  uint64_t slowed = fabric.TransferFinishNs(0, 1, 100, now);
  EXPECT_GE(slowed, base + 50'000 - 100);
}

TEST(FabricTest, BandwidthSharingHalvesThroughput) {
  // Two flows into one destination port share its line rate.
  Fabric fabric;
  for (NodeId i = 0; i < 3; ++i) {
    fabric.Attach(i);
  }
  uint64_t now = NowNs();
  const uint64_t bytes = 1 << 20;
  uint64_t solo = fabric.TransferFinishNs(0, 2, bytes, now) - now;
  // Second flow into port 2 from node 1 queues behind the first.
  uint64_t contended = fabric.TransferFinishNs(1, 2, bytes, now) - now;
  EXPECT_GT(contended, solo + solo / 4);
}

TEST(FabricPortTest, ReserveBackfillsIdleCapacity) {
  Fabric fabric;
  FabricPort* port = fabric.Attach(0);
  uint64_t f1 = port->Reserve(1000, 400);
  EXPECT_EQ(f1, 1000 + SerNs(400));
  // An earlier-virtual-time reservation may backfill idle capacity instead
  // of queueing behind later traffic (windowed capacity accounting).
  uint64_t f2 = port->Reserve(0, 400);
  EXPECT_GE(f2, SerNs(400));
  EXPECT_LE(f2, f1 + SerNs(400));
  EXPECT_EQ(port->bytes_transferred(), 800u);
}

TEST(FabricPortTest, SaturationQueuesIntoLaterWindows) {
  Fabric fabric;
  FabricPort* port = fabric.Attach(0);
  // Demand far above one window's capacity at the same virtual time: finish
  // times must spread out at the port's service rate.
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    last = port->Reserve(0, 4000);
  }
  EXPECT_GE(last, 100 * SerNs(4000) * 95 / 100);  // ~100 reservations of service.
}

}  // namespace
}  // namespace lt
