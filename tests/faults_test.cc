// FaultEngine unit tests: determinism, per-link isolation, partitions,
// crash/restart (immediate and virtual-time windows), count-based drops,
// duplicate delivery, and the unarmed fast-path contract.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/timing.h"
#include "src/fabric/fabric.h"
#include "src/faults/faults.h"

namespace lt {
namespace {

// Replays `n` transfers on src->dst and records each decision.
std::vector<uint64_t> Replay(FaultEngine& eng, NodeId src, NodeId dst, int n) {
  std::vector<uint64_t> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(eng.OnTransfer(src, dst, 1000 + static_cast<uint64_t>(i)));
  }
  return out;
}

TEST(FaultsTest, UnarmedByDefault) {
  FaultEngine eng;
  eng.EnsureNodes(4);
  EXPECT_FALSE(eng.armed());
  // A zero-valued default rule does not arm the engine.
  eng.SetDefaultRule(LinkFaultRule{});
  EXPECT_FALSE(eng.armed());
  // An inactive per-link override still arms it: it exempts that link from
  // an active default rule, so OnTransfer must consult it.
  eng.SetLinkRule(0, 1, LinkFaultRule{});
  EXPECT_TRUE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), 0u);  // but injects nothing
  eng.ClearLinkRule(0, 1);
  EXPECT_FALSE(eng.armed());
}

TEST(FaultsTest, OverrideExemptsLinkFromDefaultRule) {
  FaultEngine eng;
  eng.EnsureNodes(3);
  LinkFaultRule cut;
  cut.drop_p = 1.0;
  eng.SetDefaultRule(cut);
  eng.SetLinkRule(0, 1, LinkFaultRule{});  // carve-out
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), 0u);
  EXPECT_EQ(eng.OnTransfer(0, 2, 0), FaultEngine::kDropTransfer);
}

TEST(FaultsTest, SameSeedSameSchedule) {
  LinkFaultRule rule;
  rule.drop_p = 0.3;
  rule.dup_p = 0.2;
  rule.jitter_ns = 500;

  FaultEngine a(42), b(42);
  a.EnsureNodes(2);
  b.EnsureNodes(2);
  a.SetDefaultRule(rule);
  b.SetDefaultRule(rule);
  EXPECT_EQ(Replay(a, 0, 1, 200), Replay(b, 0, 1, 200));

  // Reseed restarts the stream: replaying after Reseed(42) matches a fresh
  // engine with the same seed.
  a.Reseed(42);
  FaultEngine c(42);
  c.EnsureNodes(2);
  c.SetDefaultRule(rule);
  EXPECT_EQ(Replay(a, 0, 1, 200), Replay(c, 0, 1, 200));
}

TEST(FaultsTest, DifferentSeedsDiverge) {
  LinkFaultRule rule;
  rule.drop_p = 0.5;
  FaultEngine a(1), b(2);
  a.EnsureNodes(2);
  b.EnsureNodes(2);
  a.SetDefaultRule(rule);
  b.SetDefaultRule(rule);
  EXPECT_NE(Replay(a, 0, 1, 256), Replay(b, 0, 1, 256));
}

TEST(FaultsTest, LinkRuleIsIsolatedToItsLink) {
  FaultEngine eng(7);
  eng.EnsureNodes(4);
  LinkFaultRule cut;
  cut.drop_p = 1.0;
  eng.SetLinkRule(0, 1, cut);
  EXPECT_TRUE(eng.armed());

  // 0->1 drops everything; the reverse direction and unrelated links are
  // untouched.
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), FaultEngine::kDropTransfer);
  EXPECT_EQ(eng.OnTransfer(1, 0, 0), 0u);
  EXPECT_EQ(eng.OnTransfer(2, 3, 0), 0u);
  EXPECT_EQ(eng.drops_from(0), 1u);
  EXPECT_EQ(eng.drops_from(2), 0u);

  eng.ClearLinkRule(0, 1);
  EXPECT_FALSE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), 0u);
}

TEST(FaultsTest, DelayAndJitterStayInRange) {
  FaultEngine eng(11);
  eng.EnsureNodes(2);
  LinkFaultRule rule;
  rule.extra_delay_ns = 1000;
  rule.jitter_ns = 400;
  eng.SetDefaultRule(rule);
  bool saw_jitter = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t d = eng.OnTransfer(0, 1, 0);
    EXPECT_GE(d, 1000u);
    EXPECT_LT(d, 1400u);
    saw_jitter = saw_jitter || d != 1000u;
  }
  EXPECT_TRUE(saw_jitter);
  EXPECT_EQ(eng.delays_injected(), 100u);
}

TEST(FaultsTest, DuplicateFlagViaOutParam) {
  FaultEngine eng(3);
  eng.EnsureNodes(2);
  LinkFaultRule rule;
  rule.dup_p = 1.0;
  eng.SetDefaultRule(rule);
  TransferFaults tf;
  EXPECT_EQ(eng.OnTransfer(0, 1, 0, &tf), 0u);
  EXPECT_TRUE(tf.duplicate);
  EXPECT_EQ(eng.duplicates(), 1u);
}

TEST(FaultsTest, DropNextTransfersIsExact) {
  FaultEngine eng;
  eng.EnsureNodes(3);
  eng.DropNextTransfers(0, 1, 2);
  EXPECT_TRUE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), FaultEngine::kDropTransfer);
  EXPECT_EQ(eng.OnTransfer(0, 2, 0), 0u);  // other link untouched
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), FaultEngine::kDropTransfer);
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), 0u);  // budget exhausted
  EXPECT_EQ(eng.drops(), 2u);
}

TEST(FaultsTest, PartitionCutsBothDirectionsAndHeals) {
  FaultEngine eng;
  eng.EnsureNodes(4);
  eng.Partition({0, 1}, {2, 3});
  EXPECT_TRUE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 2, 0), FaultEngine::kDropTransfer);
  EXPECT_EQ(eng.OnTransfer(3, 1, 0), FaultEngine::kDropTransfer);
  // Intra-group traffic flows.
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), 0u);
  EXPECT_EQ(eng.OnTransfer(2, 3, 0), 0u);
  EXPECT_EQ(eng.partition_drops(), 2u);

  eng.HealPartitions();
  EXPECT_FALSE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 2, 0), 0u);
}

TEST(FaultsTest, CrashIsolatesNodeUntilRestart) {
  FaultEngine eng;
  eng.EnsureNodes(3);
  eng.CrashNode(1);
  EXPECT_TRUE(eng.NodeCrashed(1));
  EXPECT_TRUE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), FaultEngine::kDropTransfer);  // to it
  EXPECT_EQ(eng.OnTransfer(1, 0, 0), FaultEngine::kDropTransfer);  // from it
  EXPECT_EQ(eng.OnTransfer(0, 2, 0), 0u);                          // bystanders
  EXPECT_EQ(eng.crash_drops(), 2u);

  eng.RestartNode(1);
  EXPECT_FALSE(eng.NodeCrashed(1));
  EXPECT_FALSE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 1, 0), 0u);
}

TEST(FaultsTest, ScheduledCrashWindowTriggersByVirtualTime) {
  FaultEngine eng;
  eng.EnsureNodes(2);
  eng.ScheduleCrash(1, 5000, 8000);
  EXPECT_TRUE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 1, 4999), 0u);                           // before
  EXPECT_EQ(eng.OnTransfer(0, 1, 5000), FaultEngine::kDropTransfer);   // inside
  EXPECT_EQ(eng.OnTransfer(1, 0, 7999), FaultEngine::kDropTransfer);   // inside
  EXPECT_EQ(eng.OnTransfer(0, 1, 8000), 0u);                           // after
  eng.ClearSchedules();
  EXPECT_FALSE(eng.armed());
  EXPECT_EQ(eng.OnTransfer(0, 1, 6000), 0u);
}

TEST(FaultsTest, FabricSurfacesDuplicateDecision) {
  Fabric fabric;
  fabric.Attach(0);
  fabric.Attach(1);
  LinkFaultRule rule;
  rule.dup_p = 1.0;
  fabric.faults().SetLinkRule(0, 1, rule);
  TransferFaults tf;
  uint64_t finish = fabric.TransferFinishNs(0, 1, 64, NowNs(), &tf);
  EXPECT_NE(finish, Fabric::kDropped);
  EXPECT_TRUE(tf.duplicate);
}

}  // namespace
}  // namespace lt
