#include <gtest/gtest.h>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"
#include "src/lite/qos.h"

namespace lite {
namespace {

TEST(QosManagerTest, DefaultPolicyIsNone) {
  lt::SimParams p;
  QosManager qos(p);
  EXPECT_EQ(qos.policy(), QosPolicy::kNone);
}

TEST(QosManagerTest, HwSepPartitionsQpPool) {
  lt::SimParams p;
  QosManager qos(p);
  qos.SetPolicy(QosPolicy::kHwSep);
  auto [low_lo, low_hi] = qos.QpRange(Priority::kLow, 4);
  auto [high_lo, high_hi] = qos.QpRange(Priority::kHigh, 4);
  EXPECT_EQ(low_lo, 0);
  EXPECT_EQ(low_hi, 1);
  EXPECT_EQ(high_lo, 1);
  EXPECT_EQ(high_hi, 4);
}

TEST(QosManagerTest, HwSepDegradesGracefullyWithOneQp) {
  lt::SimParams p;
  QosManager qos(p);
  qos.SetPolicy(QosPolicy::kHwSep);
  auto [lo, hi] = qos.QpRange(Priority::kLow, 1);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 1);
}

TEST(QosManagerTest, NoPolicySharesWholePool) {
  lt::SimParams p;
  QosManager qos(p);
  auto [lo, hi] = qos.QpRange(Priority::kLow, 4);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 4);
}

TEST(QosManagerTest, SwPriDelaysLowUnderHighLoad) {
  lt::SimParams p;
  QosManager qos(p);
  qos.SetPolicy(QosPolicy::kSwPri);
  // Heavy high-priority traffic in the current window.
  for (int i = 0; i < 100; ++i) {
    qos.Admit(Priority::kHigh, 1 << 20);
  }
  uint64_t t0 = lt::NowNs();
  for (int i = 0; i < 10; ++i) {
    qos.Admit(Priority::kLow, 1 << 20);
  }
  EXPECT_GT(qos.low_pri_delay_total_ns(), 0u);
  EXPECT_GT(lt::NowNs(), t0);
}

TEST(QosManagerTest, SwPriUnthrottledWhenHighIdle) {
  lt::SimParams p;
  QosManager qos(p);
  qos.SetPolicy(QosPolicy::kSwPri);
  // No high-priority traffic at all: policy (2) — don't rate limit.
  uint64_t delayed_before = qos.low_pri_delay_total_ns();
  for (int i = 0; i < 10; ++i) {
    qos.Admit(Priority::kLow, 1 << 20);
  }
  EXPECT_EQ(qos.low_pri_delay_total_ns(), delayed_before);
}

TEST(QosManagerTest, RttFloorTracksMinimum) {
  lt::SimParams p;
  QosManager qos(p);
  qos.SetPolicy(QosPolicy::kSwPri);
  qos.RecordHighPriRtt(2000);
  qos.RecordHighPriRtt(1500);
  qos.RecordHighPriRtt(3000);
  // Sustained RTT inflation (policy 3) triggers limiting even at low load.
  for (int i = 0; i < 50; ++i) {
    qos.RecordHighPriRtt(9000);
  }
  uint64_t before = qos.low_pri_delay_total_ns();
  qos.Admit(Priority::kLow, 1 << 20);
  qos.Admit(Priority::kLow, 1 << 20);
  EXPECT_GT(qos.low_pri_delay_total_ns(), before);
}

TEST(QosEndToEndTest, HighPriorityWinsUnderSwPri) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 32ull << 20;
  LiteCluster cluster(2, p);
  cluster.instance(0)->qos().SetPolicy(QosPolicy::kSwPri);

  auto setup = cluster.CreateClient(0, true);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = setup->Malloc(1 << 20, "qos_target", on1);
  ASSERT_TRUE(lh.ok());
  std::vector<uint8_t> buf(512 << 10);

  // Generate heavy high-priority load (above the "high load" threshold of
  // ~10% of line rate within the monitoring window), then check that
  // low-priority traffic accrues rate-limiting delay.
  auto high = cluster.CreateClient(0, true);
  high->set_priority(Priority::kHigh);
  auto low = cluster.CreateClient(0, true);
  low->set_priority(Priority::kLow);

  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(high->Write(*lh, 0, buf.data(), buf.size()).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(low->Write(*lh, 0, buf.data(), buf.size()).ok());
  }
  EXPECT_GT(cluster.instance(0)->qos().low_pri_delay_total_ns(), 0u);
}

TEST(QosEndToEndTest, HwSepRestrictsLowPriorityQp) {
  lt::SimParams p;
  p.lite_qp_sharing_factor = 3;
  LiteCluster cluster(2, p);
  cluster.instance(0)->qos().SetPolicy(QosPolicy::kHwSep);
  auto client = cluster.CreateClient(0, true);
  client->set_priority(Priority::kLow);
  MallocOptions on1;
  on1.nodes = {1};
  auto lh = client->Malloc(4096, "hwsep_target", on1);
  char buf[64] = {0};
  // Functional check: ops still succeed while confined to the low-pri QP.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Write(*lh, 0, buf, sizeof(buf)).ok());
  }
}

}  // namespace
}  // namespace lite
