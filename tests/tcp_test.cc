#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/common/timing.h"
#include "src/node/node.h"

namespace lt {
namespace {

class TcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_ = SimParams();
    params_.node_phys_mem_bytes = 8 << 20;
    cluster_ = std::make_unique<Cluster>(2, params_);
    auto pair = TcpStack::ConnectPair(&cluster_->node(0)->tcp(), &cluster_->node(1)->tcp());
    a_ = std::move(pair.first);
    b_ = std::move(pair.second);
  }
  SimParams params_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<TcpConn> a_;
  std::unique_ptr<TcpConn> b_;
};

TEST_F(TcpTest, SendRecvRoundTrip) {
  const char msg[] = "over tcp";
  ASSERT_TRUE(a_->Send(msg, sizeof(msg)).ok());
  char out[sizeof(msg)] = {0};
  ASSERT_TRUE(b_->RecvExact(out, sizeof(msg)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(TcpTest, PartialReadsAcrossOneSegment) {
  const char msg[] = "abcdefgh";
  ASSERT_TRUE(a_->Send(msg, 8).ok());
  char part1[3], part2[5];
  ASSERT_TRUE(b_->RecvExact(part1, 3).ok());
  ASSERT_TRUE(b_->RecvExact(part2, 5).ok());
  EXPECT_EQ(std::memcmp(part1, "abc", 3), 0);
  EXPECT_EQ(std::memcmp(part2, "defgh", 5), 0);
}

TEST_F(TcpTest, MultipleSegmentsReassemble) {
  std::vector<uint8_t> big(200 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i & 0xff);
  }
  std::thread sender([&] { ASSERT_TRUE(a_->StreamSend(big.data(), big.size()).ok()); });
  std::vector<uint8_t> out(big.size());
  ASSERT_TRUE(b_->RecvExact(out.data(), out.size()).ok());
  sender.join();
  EXPECT_EQ(out, big);
}

TEST_F(TcpTest, RecvTimesOutWithoutData) {
  char out[4];
  auto st = b_->RecvExact(out, 4, 5'000'000);
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
}

TEST_F(TcpTest, LatencyIncludesBothStackTraversals) {
  const char msg[] = "x";
  uint64_t send_done;
  std::thread sender([&] {
    ASSERT_TRUE(a_->Send(msg, 1).ok());
    send_done = NowNs();
  });
  sender.join();
  uint64_t t0 = NowNs();
  char out[1];
  ASSERT_TRUE(b_->RecvExact(out, 1).ok());
  // Receiver pays its stack traversal (virtual time advanced by >= recv cost).
  EXPECT_GE(NowNs() - t0, kTcpRecvStackNs);
}

TEST_F(TcpTest, MessageModeLatencyFarAboveRdma) {
  // One-way TCP message ~>= 18 us with default params (paper Fig. 6 TCP line).
  std::thread sender([&] {
    char c = 1;
    ASSERT_TRUE(a_->Send(&c, 1).ok());
  });
  char out[1];
  ASSERT_TRUE(b_->RecvExact(out, 1).ok());
  sender.join();
  EXPECT_GE(NowNs(), kTcpSendStackNs + kTcpRecvStackNs);
}

TEST_F(TcpTest, DropInjectionSurfacesError) {
  LinkFaultRule drop_all;
  drop_all.drop_p = 1.0;
  cluster_->fabric().faults().SetDefaultRule(drop_all);
  char c = 1;
  EXPECT_EQ(a_->Send(&c, 1).code(), StatusCode::kUnavailable);
  cluster_->fabric().faults().SetDefaultRule({});
}

TEST_F(TcpTest, RateCapBoundsThroughput) {
  // 10 MB at kTcpRateBytesPerNs must take at least bytes/rate of virtual time end to end.
  const size_t bytes = 10 << 20;
  std::vector<uint8_t> data(bytes, 7);
  std::thread sender([&] { ASSERT_TRUE(a_->StreamSend(data.data(), bytes).ok()); });
  std::vector<uint8_t> out(bytes);
  ASSERT_TRUE(b_->RecvExact(out.data(), bytes).ok());
  sender.join();
  uint64_t min_ns = static_cast<uint64_t>(static_cast<double>(bytes) / kTcpRateBytesPerNs);
  EXPECT_GE(NowNs(), min_ns);
}

}  // namespace
}  // namespace lt
