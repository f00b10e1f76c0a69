#include <gtest/gtest.h>

#include <cstring>

#include "src/common/timing.h"
#include "src/node/node.h"

namespace lt {
namespace {

class VerbsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimParams p;
    cluster_ = std::make_unique<Cluster>(2, p);
    p0_ = cluster_->node(0)->CreateProcess();
    p1_ = cluster_->node(1)->CreateProcess();
  }
  std::unique_ptr<Cluster> cluster_;
  Process* p0_;
  Process* p1_;
};

TEST_F(VerbsTest, RegisterAndDeregister) {
  auto va = p0_->page_table().AllocVirt(8192);
  auto mr = p0_->verbs().RegisterMr(*va, 8192, kMrAll);
  ASSERT_TRUE(mr.ok());
  EXPECT_NE(mr->lkey, 0u);
  EXPECT_EQ(mr->lkey, mr->rkey);
  EXPECT_TRUE(p0_->verbs().DeregisterMr(*mr).ok());
}

TEST_F(VerbsTest, RegisterUnmappedFails) {
  auto mr = p0_->verbs().RegisterMr(0xf00d000, 4096, kMrAll);
  EXPECT_FALSE(mr.ok());
}

TEST_F(VerbsTest, EndToEndWriteBetweenProcesses) {
  auto local = p0_->page_table().AllocVirt(4096);
  auto remote = p1_->page_table().AllocVirt(4096);
  auto lmr = *p0_->verbs().RegisterMr(*local, 4096, kMrAll);
  auto rmr = *p1_->verbs().RegisterMr(*remote, 4096, kMrAll);

  Qp* q0 = p0_->verbs().CreateQp(QpType::kRc, p0_->verbs().CreateCq(), p0_->verbs().CreateCq());
  Qp* q1 = p1_->verbs().CreateQp(QpType::kRc, p1_->verbs().CreateCq(), p1_->verbs().CreateCq());
  q0->Connect(1, q1->qpn());
  q1->Connect(0, q0->qpn());

  // Fill the local buffer through the page table.
  const char msg[] = "verbs end to end";
  auto pa = p0_->page_table().Translate(*local);
  std::memcpy(cluster_->node(0)->mem().Data(*pa, sizeof(msg)), msg, sizeof(msg));

  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.lkey = lmr.lkey;
  wr.local_addr = *local;
  wr.length = sizeof(msg);
  wr.rkey = rmr.rkey;
  wr.remote_addr = *remote;
  ASSERT_TRUE(p0_->verbs().ExecSync(q0, wr).ok());

  auto rpa = p1_->page_table().Translate(*remote);
  EXPECT_EQ(std::memcmp(cluster_->node(1)->mem().Data(*rpa, sizeof(msg)), msg, sizeof(msg)), 0);
}

TEST_F(VerbsTest, ExecSyncReportsRemoteErrors) {
  auto local = p0_->page_table().AllocVirt(4096);
  auto lmr = *p0_->verbs().RegisterMr(*local, 4096, kMrAll);
  Qp* q0 = p0_->verbs().CreateQp(QpType::kRc, p0_->verbs().CreateCq(), p0_->verbs().CreateCq());
  Qp* q1 = cluster_->node(1)->rnic().CreateQp(QpType::kRc, nullptr, nullptr);
  q0->Connect(1, q1->qpn());
  q1->Connect(0, q0->qpn());
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.lkey = lmr.lkey;
  wr.local_addr = *local;
  wr.length = 64;
  wr.rkey = 0xbeef;
  wr.remote_addr = 0;
  EXPECT_FALSE(p0_->verbs().ExecSync(q0, wr).ok());
}

class VerbsCostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimParams p;  // Full costs.
    p.node_phys_mem_bytes = 32 << 20;
    cluster_ = std::make_unique<Cluster>(1, p);
    proc_ = cluster_->node(0)->CreateProcess();
  }
  std::unique_ptr<Cluster> cluster_;
  Process* proc_;
};

TEST_F(VerbsCostTest, RegistrationCostScalesWithPages) {
  auto small_va = proc_->page_table().AllocVirt(4096);
  uint64_t t0 = NowNs();
  auto small = proc_->verbs().RegisterMr(*small_va, 4096, kMrAll);
  uint64_t small_cost = NowNs() - t0;
  ASSERT_TRUE(small.ok());

  auto big_va = proc_->page_table().AllocVirt(1 << 20);
  t0 = NowNs();
  auto big = proc_->verbs().RegisterMr(*big_va, 1 << 20, kMrAll);
  uint64_t big_cost = NowNs() - t0;
  ASSERT_TRUE(big.ok());

  // 256 pages vs 1 page: pinning dominates (paper Fig. 8).
  EXPECT_GT(big_cost, small_cost * 20);
}

TEST_F(VerbsCostTest, DeregistrationCostScalesWithPages) {
  auto va = proc_->page_table().AllocVirt(1 << 20);
  auto mr = *proc_->verbs().RegisterMr(*va, 1 << 20, kMrAll);
  uint64_t t0 = NowNs();
  ASSERT_TRUE(proc_->verbs().DeregisterMr(mr).ok());
  uint64_t cost = NowNs() - t0;
  EXPECT_GT(cost, 256 * 200u);  // >= 256 pages * unpin cost share.
}

TEST_F(VerbsCostTest, RegistrationCountsAsSyscall) {
  uint64_t syscalls = cluster_->node(0)->os().syscall_count();
  auto va = proc_->page_table().AllocVirt(4096);
  (void)proc_->verbs().RegisterMr(*va, 4096, kMrAll);
  EXPECT_GT(cluster_->node(0)->os().syscall_count(), syscalls);
}

}  // namespace
}  // namespace lt
