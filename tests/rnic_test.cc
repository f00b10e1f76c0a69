#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/timing.h"
#include "src/node/node.h"

namespace lt {
namespace {

// Test fixture: two nodes with physical MRs covering low memory, plus a
// connected RC QP pair.
class RnicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimParams p;
    cluster_ = std::make_unique<Cluster>(2, p);
    r0_ = &cluster_->node(0)->rnic();
    r1_ = &cluster_->node(1)->rnic();
    mr0_ = *r0_->RegisterMrPhysical(0, 1 << 20, kMrAll);
    mr1_ = *r1_->RegisterMrPhysical(0, 1 << 20, kMrAll);
    scq0_ = r0_->CreateCq();
    rcq0_ = r0_->CreateCq();
    scq1_ = r1_->CreateCq();
    rcq1_ = r1_->CreateCq();
    qp0_ = r0_->CreateQp(QpType::kRc, scq0_, rcq0_);
    qp1_ = r1_->CreateQp(QpType::kRc, scq1_, rcq1_);
    qp0_->Connect(1, qp1_->qpn());
    qp1_->Connect(0, qp0_->qpn());
  }

  Status ExecSync(Qp* qp, WorkRequest wr) {
    static std::atomic<uint64_t> next_id{1000};
    wr.wr_id = next_id.fetch_add(1);
    wr.signaled = true;
    Status st = qp->rnic()->PostSend(qp, wr);
    if (!st.ok()) {
      return st;
    }
    while (true) {
      auto c = qp->send_cq()->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
      if (!c.has_value()) {
        return Status::Timeout("no completion");
      }
      if (c->wr_id == wr.wr_id) {
        return c->status;
      }
    }
  }

  uint8_t* Mem0(PhysAddr a, uint64_t n) { return cluster_->node(0)->mem().Data(a, n); }
  uint8_t* Mem1(PhysAddr a, uint64_t n) { return cluster_->node(1)->mem().Data(a, n); }

  std::unique_ptr<Cluster> cluster_;
  Rnic* r0_;
  Rnic* r1_;
  MrEntry mr0_, mr1_;
  Cq *scq0_, *rcq0_, *scq1_, *rcq1_;
  Qp *qp0_, *qp1_;
};

TEST_F(RnicTest, WriteMovesData) {
  char buf[32] = "one-sided write";
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 8192;
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  EXPECT_EQ(std::memcmp(Mem1(8192, sizeof(buf)), buf, sizeof(buf)), 0);
}

TEST_F(RnicTest, ReadFetchesData) {
  std::memcpy(Mem1(4096, 10), "remotedata", 10);
  char out[10] = {0};
  WorkRequest wr;
  wr.opcode = WrOpcode::kRead;
  wr.host_local = out;
  wr.length = 10;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 4096;
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  EXPECT_EQ(std::memcmp(out, "remotedata", 10), 0);
}

TEST_F(RnicTest, WriteOutOfBoundsFails) {
  char buf[64];
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.rkey = mr1_.lkey;
  wr.remote_addr = (1 << 20) - 10;  // Crosses the MR end.
  EXPECT_EQ(ExecSync(qp0_, wr).code(), StatusCode::kOutOfRange);
}

TEST_F(RnicTest, UnknownRkeyFails) {
  char buf[8];
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.rkey = 0xdeadu;
  wr.remote_addr = 0;
  EXPECT_EQ(ExecSync(qp0_, wr).code(), StatusCode::kNotFound);
}

TEST_F(RnicTest, PermissionEnforced) {
  auto read_only = *r1_->RegisterMrPhysical(0, 4096, kMrRead);
  char buf[8] = "x";
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = 8;
  wr.rkey = read_only.lkey;
  wr.remote_addr = 0;
  EXPECT_EQ(ExecSync(qp0_, wr).code(), StatusCode::kPermissionDenied);
}

TEST_F(RnicTest, WriteImmDeliversImmediate) {
  char buf[16] = "imm payload";
  WorkRequest wr;
  wr.opcode = WrOpcode::kWriteImm;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 0;
  wr.imm = 0xabcd1234;
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  auto c = rcq1_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->opcode, WcOpcode::kRecvImm);
  EXPECT_TRUE(c->has_imm);
  EXPECT_EQ(c->imm, 0xabcd1234u);
  EXPECT_EQ(c->byte_len, sizeof(buf));
  EXPECT_EQ(c->src_node, 0u);
}

TEST_F(RnicTest, ZeroLengthWriteImmWorks) {
  WorkRequest wr;
  wr.opcode = WrOpcode::kWriteImm;
  wr.length = 0;
  wr.imm = 7;
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  auto c = rcq1_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->imm, 7u);
}

// One source node's receive completions leave in push order even when a
// later one is ready first, while entries of no source (send completions) and
// the other sources' oldest entries still go earliest-ready first.
TEST(CqTest, OneSourcesEntriesLeaveInPushOrder) {
  // {source node, ready time}, in push order.
  const std::vector<std::pair<NodeId, uint64_t>> pushed = {
      {1, 500}, {2, 300}, {1, 100}, {2, 400}, {kInvalidNode, 200}, {kInvalidNode, 150}};
  Cq cq;
  for (const auto& [src, ready] : pushed) {
    Completion c;
    c.src_node = src;
    c.ready_at_ns = ready;
    cq.Push(c);
  }
  std::vector<uint64_t> order;
  for (size_t i = 0; i < pushed.size(); ++i) {
    auto c = cq.WaitPoll(1'000'000'000, WaitMode::kSleep);
    order.push_back(c.has_value() ? c->ready_at_ns : 0);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{150, 200, 300, 400, 500, 100}));
}

// Take hands a poster its own completion wherever it sits in the queue and
// whatever its ready time; waiting that time out is the caller's business.
TEST(CqTest, TakeRemovesOneEntryByWrIdAndLeavesTheClock) {
  Cq cq;
  const uint64_t now = NowNs();
  for (uint64_t wr_id : {7, 8, 9}) {
    Completion c;
    c.wr_id = wr_id;
    c.ready_at_ns = now + 1000 * wr_id;
    cq.Push(c);
  }
  auto last = cq.Take(9);  // Out of push order: 7 and 8 were pushed first.
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->wr_id, 9u);
  EXPECT_EQ(last->ready_at_ns, now + 9000);
  EXPECT_EQ(NowNs(), now);
  EXPECT_FALSE(cq.Take(9).has_value());
  EXPECT_FALSE(cq.Take(42).has_value());
  EXPECT_EQ(cq.Depth(), 2u);
  auto first = cq.Take(7);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->wr_id, 7u);
  EXPECT_EQ(NowNs(), now);
  EXPECT_EQ(cq.Depth(), 1u);
}

// A write-imm the fabric duplicates raises two receive CQEs with the original
// pushed first, so the CQ, which hands out one source's entries in push
// order, still gives the copy second.
TEST_F(RnicTest, DuplicatedWriteImmQueuesAfterOriginal) {
  LinkFaultRule dup;
  dup.dup_p = 1.0;
  cluster_->fabric().faults().SetLinkRule(0, 1, dup);
  WorkRequest wr;
  wr.opcode = WrOpcode::kWriteImm;
  wr.length = 0;
  wr.imm = 9;
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  cluster_->fabric().faults().ClearLinkRule(0, 1);
  auto original = rcq1_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  auto copy = rcq1_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  ASSERT_TRUE(original.has_value());
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->imm, 9u);
  EXPECT_EQ(copy->ready_at_ns, original->ready_at_ns + kWireLatencyNs);
}

TEST_F(RnicTest, SendRecvTwoSided) {
  // Receiver posts a buffer first.
  Rqe rqe;
  rqe.wr_id = 55;
  rqe.lkey = mr1_.lkey;
  rqe.addr = 16384;
  rqe.length = 64;
  ASSERT_TRUE(qp1_->PostRecv(rqe).ok());

  char buf[20] = "two-sided message";
  WorkRequest wr;
  wr.opcode = WrOpcode::kSend;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());

  auto c = rcq1_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->opcode, WcOpcode::kRecv);
  EXPECT_EQ(c->wr_id, 55u);
  EXPECT_EQ(c->byte_len, sizeof(buf));
  EXPECT_EQ(std::memcmp(Mem1(16384, sizeof(buf)), buf, sizeof(buf)), 0);
}

TEST_F(RnicTest, SendIntoTooSmallBufferFails) {
  Rqe rqe;
  rqe.wr_id = 1;
  rqe.lkey = mr1_.lkey;
  rqe.addr = 0;
  rqe.length = 4;
  ASSERT_TRUE(qp1_->PostRecv(rqe).ok());
  char buf[64] = {0};
  WorkRequest wr;
  wr.opcode = WrOpcode::kSend;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  EXPECT_EQ(ExecSync(qp0_, wr).code(), StatusCode::kInvalidArgument);
}

TEST_F(RnicTest, UdSendByDestination) {
  Cq* ud_rcq = r1_->CreateCq();
  Qp* ud1 = r1_->CreateQp(QpType::kUd, r1_->CreateCq(), ud_rcq);
  Qp* ud0 = r0_->CreateQp(QpType::kUd, r0_->CreateCq(), r0_->CreateCq());
  Rqe rqe;
  rqe.wr_id = 9;
  rqe.lkey = mr1_.lkey;
  rqe.addr = 32768;
  rqe.length = 128;
  ASSERT_TRUE(ud1->PostRecv(rqe).ok());

  char buf[8] = "UD!";
  WorkRequest wr;
  wr.opcode = WrOpcode::kSend;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.ud_dst_node = 1;
  wr.ud_dst_qpn = ud1->qpn();
  ASSERT_TRUE(ExecSync(ud0, wr).ok());
  auto c = ud_rcq->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(std::memcmp(Mem1(32768, 3), "UD!", 3), 0);
}

TEST_F(RnicTest, UdRejectsOneSided) {
  Qp* ud0 = r0_->CreateQp(QpType::kUd, r0_->CreateCq(), r0_->CreateCq());
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.length = 0;
  EXPECT_FALSE(r0_->PostSend(ud0, wr).ok());
}

TEST_F(RnicTest, DisconnectedRcFails) {
  Qp* lonely = r0_->CreateQp(QpType::kRc, r0_->CreateCq(), r0_->CreateCq());
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.length = 0;
  EXPECT_EQ(r0_->PostSend(lonely, wr).code(), StatusCode::kFailedPrecondition);
}

TEST_F(RnicTest, FetchAddReturnsOldValue) {
  uint64_t initial = 41;
  std::memcpy(Mem1(0, 8), &initial, 8);
  uint64_t old_value = 0;
  WorkRequest wr;
  wr.opcode = WrOpcode::kFetchAdd;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 0;
  wr.compare_add = 1;
  wr.atomic_result = &old_value;
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  EXPECT_EQ(old_value, 41u);
  uint64_t now_value = 0;
  std::memcpy(&now_value, Mem1(0, 8), 8);
  EXPECT_EQ(now_value, 42u);
}

TEST_F(RnicTest, CmpSwapSwapsOnlyOnMatch) {
  uint64_t initial = 7;
  std::memcpy(Mem1(64, 8), &initial, 8);
  uint64_t old_value = 0;
  WorkRequest wr;
  wr.opcode = WrOpcode::kCmpSwap;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 64;
  wr.compare_add = 7;
  wr.swap = 100;
  wr.atomic_result = &old_value;
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  EXPECT_EQ(old_value, 7u);
  uint64_t now_value = 0;
  std::memcpy(&now_value, Mem1(64, 8), 8);
  EXPECT_EQ(now_value, 100u);

  // Mismatch: no swap, returns current.
  wr.compare_add = 7;
  wr.swap = 200;
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  EXPECT_EQ(old_value, 100u);
  std::memcpy(&now_value, Mem1(64, 8), 8);
  EXPECT_EQ(now_value, 100u);
}

TEST_F(RnicTest, MisalignedAtomicFails) {
  WorkRequest wr;
  wr.opcode = WrOpcode::kFetchAdd;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 3;
  wr.compare_add = 1;
  EXPECT_EQ(ExecSync(qp0_, wr).code(), StatusCode::kInvalidArgument);
}

TEST_F(RnicTest, UnsignaledSuppressesCompletion) {
  char buf[8] = "x";
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = 8;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 0;
  wr.signaled = false;
  ASSERT_TRUE(r0_->PostSend(qp0_, wr).ok());
  EXPECT_FALSE(scq0_->WaitPoll(5'000'000, WaitMode::kSleep).has_value());
}

TEST_F(RnicTest, ErrorCompletionDeliveredEvenIfUnsignaled) {
  char buf[8];
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = 8;
  wr.rkey = 0xbad;
  wr.remote_addr = 0;
  wr.signaled = false;
  ASSERT_TRUE(r0_->PostSend(qp0_, wr).ok());
  auto c = scq0_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  ASSERT_TRUE(c.has_value());
  EXPECT_FALSE(c->status.ok());
}

TEST_F(RnicTest, MrDeregistrationInvalidatesKey) {
  auto mr = *r1_->RegisterMrPhysical(0, 4096, kMrAll);
  ASSERT_TRUE(r1_->DeregisterMr(mr.lkey).ok());
  char buf[8];
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = 8;
  wr.rkey = mr.lkey;
  wr.remote_addr = 0;
  EXPECT_EQ(ExecSync(qp0_, wr).code(), StatusCode::kNotFound);
}

TEST_F(RnicTest, VirtualMrTranslatesThroughPageTable) {
  Process* proc = cluster_->node(1)->CreateProcess();
  auto va = proc->page_table().AllocVirt(8192);
  auto mr = r1_->RegisterMrVirtual(&proc->page_table(), *va, 8192, kMrAll);
  ASSERT_TRUE(mr.ok());
  char buf[32] = "through the page table";
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.rkey = mr->lkey;
  wr.remote_addr = *va + 4090;  // Crosses a page boundary.
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  auto pa1 = proc->page_table().Translate(*va + 4090);
  EXPECT_EQ(std::memcmp(Mem1(*pa1, 6), buf, 6), 0);
  auto pa2 = proc->page_table().Translate(*va + 4096);
  EXPECT_EQ(std::memcmp(Mem1(*pa2, sizeof(buf) - 6), buf + 6, sizeof(buf) - 6), 0);
}

TEST_F(RnicTest, VirtualMrUnmappedRangeRejected) {
  Process* proc = cluster_->node(1)->CreateProcess();
  auto mr = r1_->RegisterMrVirtual(&proc->page_table(), 0xdead000, 4096, kMrAll);
  EXPECT_FALSE(mr.ok());
}

TEST_F(RnicTest, MrCountTracksRegistrations) {
  size_t before = r0_->MrCount();
  auto mr = *r0_->RegisterMrPhysical(0, 4096, kMrAll);
  EXPECT_EQ(r0_->MrCount(), before + 1);
  ASSERT_TRUE(r0_->DeregisterMr(mr.lkey).ok());
  EXPECT_EQ(r0_->MrCount(), before);
}

// ---- On-NIC SRAM cache behavior: the paper's scalability mechanism ----

class RnicCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(2, SimParams{});
    r0_ = &cluster_->node(0)->rnic();
    r1_ = &cluster_->node(1)->rnic();
  }
  std::unique_ptr<Cluster> cluster_;
  Rnic* r0_;
  Rnic* r1_;
};

TEST_F(RnicCacheTest, MptThrashingWithManyMrs) {
  // Register more MRs than the MPT cache holds and touch them round-robin:
  // every access misses.
  constexpr size_t kMrs = 2 * kMptCacheEntries;
  std::vector<MrEntry> mrs;
  for (size_t i = 0; i < kMrs; ++i) {
    mrs.push_back(*r1_->RegisterMrPhysical(static_cast<PhysAddr>(i) * 4096, 4096, kMrAll));
  }
  Cq* scq = r0_->CreateCq();
  Qp* qp0 = r0_->CreateQp(QpType::kRc, scq, r0_->CreateCq());
  Qp* qp1 = r1_->CreateQp(QpType::kRc, r1_->CreateCq(), r1_->CreateCq());
  qp0->Connect(1, qp1->qpn());
  qp1->Connect(0, qp0->qpn());

  uint64_t misses_before = r1_->mpt_cache().misses();
  char buf[8] = "z";
  for (int round = 0; round < 4; ++round) {
    for (auto& mr : mrs) {
      WorkRequest wr;
      wr.opcode = WrOpcode::kWrite;
      wr.host_local = buf;
      wr.length = 8;
      wr.rkey = mr.lkey;
      wr.remote_addr = mr.base;
      wr.signaled = false;
      ASSERT_TRUE(r0_->PostSend(qp0, wr).ok());
    }
  }
  // Twice the cache's MRs round-robin through its LRU: all accesses miss.
  EXPECT_GE(r1_->mpt_cache().misses() - misses_before, 4 * kMrs);
}

TEST_F(RnicCacheTest, MptHitsWithFewMrs) {
  auto mr = *r1_->RegisterMrPhysical(0, 4096, kMrAll);
  Cq* scq = r0_->CreateCq();
  Qp* qp0 = r0_->CreateQp(QpType::kRc, scq, r0_->CreateCq());
  Qp* qp1 = r1_->CreateQp(QpType::kRc, r1_->CreateCq(), r1_->CreateCq());
  qp0->Connect(1, qp1->qpn());
  qp1->Connect(0, qp0->qpn());
  char buf[8] = "z";
  for (int i = 0; i < 16; ++i) {
    WorkRequest wr;
    wr.opcode = WrOpcode::kWrite;
    wr.host_local = buf;
    wr.length = 8;
    wr.rkey = mr.lkey;
    wr.remote_addr = 0;
    wr.signaled = false;
    ASSERT_TRUE(r0_->PostSend(qp0, wr).ok());
  }
  EXPECT_GE(r1_->mpt_cache().hits(), 15u);
}

TEST_F(RnicCacheTest, PhysicalMrBypassesMtt) {
  // LITE's global MR: no page-table entries, so zero MTT traffic.
  auto mr = *r1_->RegisterMrPhysical(0, 1 << 20, kMrAll);
  Cq* scq = r0_->CreateCq();
  Qp* qp0 = r0_->CreateQp(QpType::kRc, scq, r0_->CreateCq());
  Qp* qp1 = r1_->CreateQp(QpType::kRc, r1_->CreateCq(), r1_->CreateCq());
  qp0->Connect(1, qp1->qpn());
  qp1->Connect(0, qp0->qpn());
  uint64_t mtt_before = r1_->mtt_cache().misses() + r1_->mtt_cache().hits();
  char buf[64];
  for (int i = 0; i < 32; ++i) {
    WorkRequest wr;
    wr.opcode = WrOpcode::kWrite;
    wr.host_local = buf;
    wr.length = 64;
    wr.rkey = mr.lkey;
    wr.remote_addr = static_cast<uint64_t>(i) * 16384;
    wr.signaled = false;
    ASSERT_TRUE(r0_->PostSend(qp0, wr).ok());
  }
  EXPECT_EQ(r1_->mtt_cache().misses() + r1_->mtt_cache().hits(), mtt_before);
}

TEST_F(RnicCacheTest, VirtualMrThrashesMttWhenWorkingSetExceedsCache) {
  constexpr uint64_t kPages = 2 * kMttCachePages;  // Twice what the MTT caches.
  Process* proc = cluster_->node(1)->CreateProcess();
  auto va = proc->page_table().AllocVirt(kPages * 4096);
  auto mr = r1_->RegisterMrVirtual(&proc->page_table(), *va, kPages * 4096, kMrAll);
  ASSERT_TRUE(mr.ok());
  Cq* scq = r0_->CreateCq();
  Qp* qp0 = r0_->CreateQp(QpType::kRc, scq, r0_->CreateCq());
  Qp* qp1 = r1_->CreateQp(QpType::kRc, r1_->CreateCq(), r1_->CreateCq());
  qp0->Connect(1, qp1->qpn());
  qp1->Connect(0, qp0->qpn());
  uint64_t misses_before = r1_->mtt_cache().misses();
  char buf[8];
  for (int round = 0; round < 2; ++round) {
    for (uint64_t page = 0; page < kPages; ++page) {
      WorkRequest wr;
      wr.opcode = WrOpcode::kWrite;
      wr.host_local = buf;
      wr.length = 8;
      wr.rkey = mr->lkey;
      wr.remote_addr = *va + page * 4096;
      wr.signaled = false;
      ASSERT_TRUE(r0_->PostSend(qp0, wr).ok());
    }
  }
  EXPECT_GE(r1_->mtt_cache().misses() - misses_before, 2 * kPages);
}

// ---- Latency/timing semantics ----

class RnicTimingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimParams p;  // Full-cost defaults.
    p.node_phys_mem_bytes = 8 << 20;
    cluster_ = std::make_unique<Cluster>(2, p);
    r0_ = &cluster_->node(0)->rnic();
    r1_ = &cluster_->node(1)->rnic();
    mr1_ = *r1_->RegisterMrPhysical(0, 1 << 20, kMrAll);
    scq_ = r0_->CreateCq();
    qp0_ = r0_->CreateQp(QpType::kRc, scq_, r0_->CreateCq());
    Qp* qp1 = r1_->CreateQp(QpType::kRc, r1_->CreateCq(), r1_->CreateCq());
    qp0_->Connect(1, qp1->qpn());
    qp1->Connect(0, qp0_->qpn());
  }
  std::unique_ptr<Cluster> cluster_;
  Rnic* r0_;
  Rnic* r1_;
  MrEntry mr1_;
  Cq* scq_;
  Qp* qp0_;
};

TEST_F(RnicTimingTest, SmallWriteLatencyInCalibratedBand) {
  char buf[64];
  uint64_t t0 = NowNs();
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = 64;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 0;
  wr.signaled = true;
  wr.wr_id = 1;
  ASSERT_TRUE(r0_->PostSend(qp0_, wr).ok());
  auto c = scq_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  ASSERT_TRUE(c.has_value());
  uint64_t latency = NowNs() - t0;
  // Paper Fig. 6: native 64 B RDMA write ~1-2 us.
  EXPECT_GE(latency, 800u);
  EXPECT_LE(latency, 3000u);
}

TEST_F(RnicTimingTest, LargerWritesTakeProportionallyLonger) {
  auto measure = [&](uint32_t len) {
    std::vector<char> buf(len);
    uint64_t t0 = NowNs();
    WorkRequest wr;
    wr.opcode = WrOpcode::kWrite;
    wr.host_local = buf.data();
    wr.length = len;
    wr.rkey = mr1_.lkey;
    wr.remote_addr = 0;
    wr.signaled = true;
    wr.wr_id = len;
    EXPECT_TRUE(r0_->PostSend(qp0_, wr).ok());
    auto c = scq_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
    EXPECT_TRUE(c.has_value());
    return NowNs() - t0;
  };
  uint64_t small = measure(64);
  uint64_t large = measure(64 * 1024);
  // 64 KB at ~4.6 B/ns adds >= ~13 us over the small write.
  EXPECT_GT(large, small + 10000);
}

TEST_F(RnicTimingTest, ReadCostsMoreThanWriteForPayloadOnResponse) {
  // A read's payload is carried on the response path; latency should still
  // be in the same band as a write of equal size.
  char buf[4096];
  WorkRequest wr;
  wr.opcode = WrOpcode::kRead;
  wr.host_local = buf;
  wr.length = 4096;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 0;
  wr.signaled = true;
  wr.wr_id = 2;
  uint64_t t0 = NowNs();
  ASSERT_TRUE(r0_->PostSend(qp0_, wr).ok());
  auto c = scq_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
  ASSERT_TRUE(c.has_value());
  uint64_t latency = NowNs() - t0;
  EXPECT_GE(latency, 1500u);
  EXPECT_LE(latency, 6000u);
}

// One case of the WQE timeline table: an opcode at one size, inline or not,
// and its warm completion time after the post on the full-cost defaults.
struct WqeCase {
  const char* name;
  WrOpcode opcode;
  uint64_t length;
  bool inline_data;
  QpType type;
  uint64_t warm_ns;
};

// Warm completion = post 200 + local engine 150 (inline writes <= 256 B: 60)
// + the request serialized on both ports (bytes / 4.6, floored; one-sided
// header 30 B, SEND header 15 B, atomic request 46 B) + wire 300 + remote
// engine 150 (atomics +300) + ACK turn-around 250 (none for atomics) + return
// wire 300 (a read also serializes its payload + 15 B on both ports) + CQE
// 120. UD has no ACK and completes after its local engine: 200 + 150 + 120.
const WqeCase kWqeCases[] = {
    {"Write0", WrOpcode::kWrite, 0, false, QpType::kRc, 1482},
    {"Write0Inline", WrOpcode::kWrite, 0, true, QpType::kRc, 1392},
    {"Write64", WrOpcode::kWrite, 64, false, QpType::kRc, 1510},
    {"Write64Inline", WrOpcode::kWrite, 64, true, QpType::kRc, 1420},
    {"Write4K", WrOpcode::kWrite, 4096, false, QpType::kRc, 3262},
    {"Write4KInline", WrOpcode::kWrite, 4096, true, QpType::kRc, 3262},
    {"WriteImm0", WrOpcode::kWriteImm, 0, false, QpType::kRc, 1482},
    {"WriteImm0Inline", WrOpcode::kWriteImm, 0, true, QpType::kRc, 1392},
    {"WriteImm64", WrOpcode::kWriteImm, 64, false, QpType::kRc, 1510},
    {"WriteImm64Inline", WrOpcode::kWriteImm, 64, true, QpType::kRc, 1420},
    {"WriteImm4K", WrOpcode::kWriteImm, 4096, false, QpType::kRc, 3262},
    {"WriteImm4KInline", WrOpcode::kWriteImm, 4096, true, QpType::kRc, 3262},
    {"Read0", WrOpcode::kRead, 0, false, QpType::kRc, 1488},
    {"Read0Inline", WrOpcode::kRead, 0, true, QpType::kRc, 1488},
    {"Read64", WrOpcode::kRead, 64, false, QpType::kRc, 1516},
    {"Read64Inline", WrOpcode::kRead, 64, true, QpType::kRc, 1516},
    {"Read4K", WrOpcode::kRead, 4096, false, QpType::kRc, 3268},
    {"Read4KInline", WrOpcode::kRead, 4096, true, QpType::kRc, 3268},
    {"RcSend64", WrOpcode::kSend, 64, false, QpType::kRc, 1504},
    {"UdSend64", WrOpcode::kSend, 64, false, QpType::kUd, 470},
    {"FetchAdd", WrOpcode::kFetchAdd, 8, false, QpType::kRc, 1540},
    {"CmpSwap", WrOpcode::kCmpSwap, 8, false, QpType::kRc, 1540},
};

void PrintTo(const WqeCase& k, std::ostream* os) { *os << k.name; }

// Parameter: the case and whether the responder NIC models its QPC.
using WqeTimelineParam = std::tuple<WqeCase, bool>;

class RnicWqeTimelineTest : public ::testing::TestWithParam<WqeTimelineParam> {};

// Every opcode runs one pipeline: its warm completion lands exactly where the
// calibrated cost arithmetic puts it, and cold or warm, the doorbell plus the
// transport breakdown account for every nanosecond between post and
// completion (an unacked UD send books no wire or responder time).
TEST_P(RnicWqeTimelineTest, CompletionTimeAndBreakdownConserve) {
  const WqeCase& k = std::get<0>(GetParam());
  SimParams p;  // Full-cost defaults.
  p.node_phys_mem_bytes = 8 << 20;
  p.rnic_model_responder_qpc = std::get<1>(GetParam());
  Cluster cluster(2, p);
  Rnic* r0 = &cluster.node(0)->rnic();
  Rnic* r1 = &cluster.node(1)->rnic();
  MrEntry mr1 = *r1->RegisterMrPhysical(0, 1 << 20, kMrAll);
  Cq* scq = r0->CreateCq();
  Qp* qp0 = r0->CreateQp(k.type, scq, r0->CreateCq());
  Qp* qp1 = r1->CreateQp(k.type, r1->CreateCq(), r1->CreateCq());
  if (k.type == QpType::kRc) {
    qp0->Connect(1, qp1->qpn());
    qp1->Connect(0, qp0->qpn());
  }
  std::vector<uint8_t> payload(k.length, 0x5a);
  uint64_t old_value = 0;
  for (bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    if (k.opcode == WrOpcode::kSend) {
      Rqe rqe;
      rqe.lkey = mr1.lkey;
      rqe.addr = 65536;
      rqe.length = 4096;
      ASSERT_TRUE(qp1->PostRecv(rqe).ok());
    }
    WorkRequest wr;
    wr.opcode = k.opcode;
    wr.wr_id = 1;
    wr.length = k.length;
    wr.host_local = payload.data();  // Atomics ignore it.
    wr.inline_data = k.inline_data;
    wr.rkey = mr1.lkey;
    wr.compare_add = 1;
    wr.atomic_result = &old_value;
    wr.ud_dst_node = 1;
    wr.ud_dst_qpn = qp1->qpn();
    const uint64_t t0 = NowNs();
    ASSERT_TRUE(r0->PostSend(qp0, wr).ok());
    auto c = scq->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
    ASSERT_TRUE(c.has_value());
    ASSERT_TRUE(c->status.ok());
    EXPECT_EQ(kRnicPostNs + c->lat.Total(), c->ready_at_ns - t0);
    if (warm) {
      EXPECT_EQ(c->ready_at_ns - t0, k.warm_ns);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Opcodes, RnicWqeTimelineTest,
    ::testing::Combine(::testing::ValuesIn(kWqeCases), ::testing::Bool()),
    [](const ::testing::TestParamInfo<WqeTimelineParam>& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_ResponderQpc" : "");
    });

// ---- Inline sends & doorbell batching (async fast-path plumbing) ----------

TEST_F(RnicTimingTest, InlineSendSkipsLocalDmaStage) {
  auto measure = [&](bool inline_data, uint32_t len, uint64_t wr_id) {
    std::vector<char> payload(len);
    WorkRequest wr;
    wr.opcode = WrOpcode::kWrite;
    wr.host_local = payload.data();
    wr.length = len;
    wr.rkey = mr1_.lkey;
    wr.remote_addr = 0;
    wr.inline_data = inline_data;
    wr.signaled = true;
    wr.wr_id = wr_id;
    uint64_t t0 = NowNs();
    EXPECT_TRUE(r0_->PostSend(qp0_, wr).ok());
    auto c = scq_->WaitPoll(1'000'000'000, WaitMode::kBusyPoll);
    EXPECT_TRUE(c.has_value());
    return NowNs() - t0;
  };
  measure(false, 64, 1);  // Warm the MPT/MTT caches.
  uint64_t plain = measure(false, 64, 2);
  uint64_t inlined = measure(true, 64, 3);
  // The WQE-embedded payload skips the local DMA-read stage: exactly the
  // kRnicProcessNs -> kRnicInlineProcessNs delta in this deterministic sim.
  EXPECT_EQ(plain - inlined, kRnicProcessNs - kRnicInlineProcessNs);
  EXPECT_EQ(r0_->inline_sends(), 1u);

  // Payloads above inline_max fall back to the DMA path even when requested.
  uint64_t big_plain = measure(false, 4096, 4);
  uint64_t big_inline_req = measure(true, 4096, 5);
  EXPECT_EQ(big_plain, big_inline_req);
  EXPECT_EQ(r0_->inline_sends(), 1u);
}

TEST_F(RnicTimingTest, DoorbellBatchingCoalescesPostCost) {
  char buf[8] = "x";
  auto post_n = [&](int n, bool hint) {
    uint64_t t0 = NowNs();
    for (int i = 0; i < n; ++i) {
      WorkRequest wr;
      wr.opcode = WrOpcode::kWrite;
      wr.host_local = buf;
      wr.length = 8;
      wr.rkey = mr1_.lkey;
      wr.remote_addr = 0;
      wr.doorbell_hint = hint;
      wr.signaled = false;
      EXPECT_TRUE(r0_->PostSend(qp0_, wr).ok());
    }
    return NowNs() - t0;
  };
  uint64_t unbatched = post_n(8, false);
  SpinFor(2 * kRnicDoorbellWindowNs);  // Break any open batch.
  uint64_t doorbells_before = r0_->doorbells_rung();
  uint64_t batched_before = r0_->wqes_batched();
  uint64_t batched = post_n(8, true);
  // 8 un-hinted posts ring 8 doorbells; 8 hinted back-to-back posts to the
  // same QP ring one and append 7 WQEs at the cheap per-WQE cost.
  EXPECT_EQ(unbatched, 8 * kRnicPostNs);
  EXPECT_EQ(batched, kRnicPostNs + 7 * kRnicPostWqeNs);
  EXPECT_EQ(r0_->doorbells_rung() - doorbells_before, 1u);
  EXPECT_EQ(r0_->wqes_batched() - batched_before, 7u);
}

TEST_F(RnicTimingTest, DoorbellBatchBreaksPastPostWindow) {
  char buf[8] = "y";
  auto post_one = [&] {
    WorkRequest wr;
    wr.opcode = WrOpcode::kWrite;
    wr.host_local = buf;
    wr.length = 8;
    wr.rkey = mr1_.lkey;
    wr.remote_addr = 0;
    wr.doorbell_hint = true;
    wr.signaled = false;
    ASSERT_TRUE(r0_->PostSend(qp0_, wr).ok());
  };
  SpinFor(kRnicDoorbellWindowNs + 1);  // Invalidate stale batch state.
  uint64_t doorbells_before = r0_->doorbells_rung();
  post_one();
  SpinFor(kRnicDoorbellWindowNs + 1);  // Idle past the post window.
  post_one();
  EXPECT_EQ(r0_->doorbells_rung() - doorbells_before, 2u);
}

// The per-thread doorbell tracker outlives the cluster it was filled in, and
// a later cluster's RNIC can sit at a destroyed one's address. Its first post
// must neither ride the dead RNIC's open batch nor close it into its own
// doorbell-batch histogram.
TEST(RnicDoorbellTest, LaterClusterInheritsNoOpenBatch) {
  struct TwoNodes {
    std::unique_ptr<Cluster> cluster;
    Rnic* r0;
    Qp* qp0;
    MrEntry mr1;
  };
  auto build = [] {
    SimParams p;
    p.node_phys_mem_bytes = 8 << 20;
    TwoNodes t{std::make_unique<Cluster>(2, p), nullptr, nullptr, {}};
    t.r0 = &t.cluster->node(0)->rnic();
    Rnic* r1 = &t.cluster->node(1)->rnic();
    t.mr1 = *r1->RegisterMrPhysical(0, 1 << 20, kMrAll);
    t.qp0 = t.r0->CreateQp(QpType::kRc, t.r0->CreateCq(), t.r0->CreateCq());
    Qp* qp1 = r1->CreateQp(QpType::kRc, r1->CreateCq(), r1->CreateCq());
    t.qp0->Connect(1, qp1->qpn());
    qp1->Connect(0, t.qp0->qpn());
    return t;
  };
  char buf[8] = "d";
  auto post_hinted = [&buf](TwoNodes& t) {
    WorkRequest wr;
    wr.opcode = WrOpcode::kWrite;
    wr.host_local = buf;
    wr.length = 8;
    wr.rkey = t.mr1.lkey;
    wr.remote_addr = 0;
    wr.doorbell_hint = true;
    wr.signaled = false;
    uint64_t t0 = NowNs();
    EXPECT_TRUE(t.r0->PostSend(t.qp0, wr).ok());
    return NowNs() - t0;
  };
  // Within the post window the stale batch could be ridden; past it, closed.
  for (uint64_t idle_ns : {uint64_t{0}, 2 * kRnicDoorbellWindowNs}) {
    SCOPED_TRACE("idle " + std::to_string(idle_ns) + " ns before the first post");
    {
      TwoNodes a = build();
      for (int i = 0; i < 3; ++i) {
        post_hinted(a);  // Leaves a batch of 3 open on this thread.
      }
    }
    TwoNodes b = build();
    SpinFor(idle_ns);
    EXPECT_EQ(post_hinted(b), kRnicPostNs);
    EXPECT_EQ(b.r0->doorbells_rung(), 1u);
    EXPECT_EQ(b.r0->wqes_batched(), 0u);
    EXPECT_EQ(b.cluster->node(0)
                  ->telemetry()
                  .registry()
                  .GetHistogram("lite.rnic.doorbell_batch")
                  ->count(),
              0u);
  }
}

TEST_F(RnicTest, SignaledAndUnsignaledWqesCounted) {
  char buf[8] = "c";
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = 8;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 0;
  uint64_t sig_before = r0_->wqes_signaled();
  uint64_t unsig_before = r0_->wqes_unsignaled();
  wr.signaled = true;
  wr.wr_id = 71;
  ASSERT_TRUE(r0_->PostSend(qp0_, wr).ok());
  wr.signaled = false;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(r0_->PostSend(qp0_, wr).ok());
  }
  EXPECT_EQ(r0_->wqes_signaled() - sig_before, 1u);
  EXPECT_EQ(r0_->wqes_unsignaled() - unsig_before, 3u);
}

// ---- QP error-state semantics under fault injection -----------------------

// The transfer a drop hits: a write's request (node 0 -> 1) or a read's
// response (node 1 -> 0).
enum class DroppedLeg { kWriteRequest, kReadResponse };

const char* DroppedLegName(DroppedLeg leg) {
  return leg == DroppedLeg::kWriteRequest ? "WriteRequest" : "ReadResponse";
}

void PrintTo(DroppedLeg leg, std::ostream* os) { *os << DroppedLegName(leg); }

class RnicDropTest : public RnicTest, public ::testing::WithParamInterface<DroppedLeg> {};

TEST_P(RnicDropTest, DroppedTransferMovesQpToError) {
  const bool read = GetParam() == DroppedLeg::kReadResponse;
  cluster_->fabric().faults().DropNextTransfers(read ? 1 : 0, read ? 0 : 1, 1);
  const char remote_bytes[16] = "remote bytes";
  std::memcpy(Mem1(4096, sizeof(remote_bytes)), remote_bytes, sizeof(remote_bytes));
  char buf[16] = "drop me";
  WorkRequest wr;
  wr.opcode = read ? WrOpcode::kRead : WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 4096;
  Status st = ExecSync(qp0_, wr);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);  // error completion
  EXPECT_TRUE(qp0_->in_error());
  EXPECT_EQ(cluster_->fabric().faults().drops(), 1u);
  // Data moves only once every leg is booked: neither buffer changed.
  EXPECT_STREQ(buf, "drop me");
  EXPECT_EQ(std::memcmp(Mem1(4096, sizeof(remote_bytes)), remote_bytes, sizeof(remote_bytes)), 0);
}

INSTANTIATE_TEST_SUITE_P(Legs, RnicDropTest,
                         ::testing::Values(DroppedLeg::kWriteRequest, DroppedLeg::kReadResponse),
                         [](const ::testing::TestParamInfo<DroppedLeg>& info) {
                           return std::string(DroppedLegName(info.param));
                         });

TEST_F(RnicTest, ErroredQpRejectsPostsUntilReset) {
  qp0_->SetError();
  char buf[8] = "blocked";
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 0;
  // Fail-fast at PostSend: no completion is generated.
  EXPECT_EQ(ExecSync(qp0_, wr).code(), StatusCode::kFailedPrecondition);

  qp0_->ResetToRts();
  EXPECT_FALSE(qp0_->in_error());
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  EXPECT_EQ(std::memcmp(Mem1(0, sizeof(buf)), buf, sizeof(buf)), 0);
}

TEST_F(RnicTest, DropThenResetThenRetrySucceeds) {
  // The full recovery sequence an upper layer performs: post, drop -> error
  // completion, reset, repost; the retried op lands.
  cluster_->fabric().faults().DropNextTransfers(0, 1, 1);
  char buf[24] = "retry lands once";
  WorkRequest wr;
  wr.opcode = WrOpcode::kWrite;
  wr.host_local = buf;
  wr.length = sizeof(buf);
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 8192;
  EXPECT_FALSE(ExecSync(qp0_, wr).ok());
  ASSERT_TRUE(qp0_->in_error());
  qp0_->ResetToRts();
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  EXPECT_EQ(std::memcmp(Mem1(8192, sizeof(buf)), buf, sizeof(buf)), 0);
}

TEST_F(RnicTest, DroppedAtomicDoesNotApply) {
  // Atomics drop *before* the memory op applies, so a retry is exactly-once.
  std::memset(Mem1(256, 8), 0, 8);
  cluster_->fabric().faults().DropNextTransfers(0, 1, 1);
  uint64_t out = ~0ull;
  WorkRequest wr;
  wr.opcode = WrOpcode::kFetchAdd;
  wr.rkey = mr1_.lkey;
  wr.remote_addr = 256;
  wr.compare_add = 5;
  wr.atomic_result = &out;
  EXPECT_FALSE(ExecSync(qp0_, wr).ok());
  uint64_t target = 0;
  std::memcpy(&target, Mem1(256, 8), 8);
  EXPECT_EQ(target, 0u);  // not applied
  qp0_->ResetToRts();
  ASSERT_TRUE(ExecSync(qp0_, wr).ok());
  std::memcpy(&target, Mem1(256, 8), 8);
  EXPECT_EQ(target, 5u);  // applied exactly once
}

}  // namespace
}  // namespace lt
