#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/common/cpu_meter.h"
#include "src/common/histogram.h"
#include "src/common/inline_vector.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/sync_util.h"
#include "src/common/timing.h"

namespace lt {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_NE(s.ToString().find("NOT_FOUND"), std::string::npos);
}

TEST(StatusTest, EveryFactoryProducesMatchingCode) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Status::ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Timeout("x").code(), StatusCode::kTimeout);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CopiedOrMovedErrorKeepsCodeAndMessage) {
  const Status err = Status::Unavailable("peer is gone");
  Status copy = err;
  EXPECT_EQ(copy.code(), StatusCode::kUnavailable);
  EXPECT_EQ(copy.message(), "peer is gone");
  Status moved = std::move(copy);
  EXPECT_EQ(moved.code(), StatusCode::kUnavailable);
  EXPECT_EQ(moved.message(), "peer is gone");
  Status assigned = Status::Ok();
  assigned = err;
  EXPECT_EQ(assigned.code(), StatusCode::kUnavailable);
  EXPECT_EQ(assigned.message(), "peer is gone");
  Status move_assigned = Status::Timeout("replaced");
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.ToString(), "UNAVAILABLE: peer is gone");
  // The source of every copy is untouched.
  EXPECT_EQ(err.code(), StatusCode::kUnavailable);
  EXPECT_EQ(err.message(), "peer is gone");
  // Through StatusOr, as the data path carries it.
  StatusOr<int> held = err;
  StatusOr<int> held_copy = held;
  EXPECT_EQ(held_copy.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(held_copy.status().message(), "peer is gone");
}

TEST(StatusTest, OkAndMessagelessErrorsHaveEmptyMessages) {
  EXPECT_TRUE(Status::Ok().message().empty());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  const Status bare(StatusCode::kInternal, "");
  EXPECT_FALSE(bare.ok());
  EXPECT_TRUE(bare.message().empty());
  EXPECT_EQ(bare.ToString(), "INTERNAL: ");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::Timeout("late");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 5);
}

// ---------------------------------------------------------- InlineVector

TEST(InlineVectorTest, SpillsPastInlineCapacityAndMovesBothWays) {
  // Strings own heap memory, so ASan sees any element moved, destroyed or
  // freed twice or never.
  const std::string long_text(40, 'x');
  InlineVector<std::string, 2> v;
  v.push_back("a");
  v.emplace_back(long_text);
  ASSERT_EQ(v.size(), 2u);
  InlineVector<std::string, 2> moved_inline = std::move(v);
  EXPECT_TRUE(v.empty());
  ASSERT_EQ(moved_inline.size(), 2u);
  EXPECT_EQ(moved_inline[1], long_text);

  for (int i = 0; i < 5; ++i) {
    moved_inline.push_back(std::to_string(i) + long_text);  // Spills to the heap.
  }
  ASSERT_EQ(moved_inline.size(), 7u);
  InlineVector<std::string, 2> moved_heap;
  moved_heap.push_back("replaced");
  moved_heap = std::move(moved_inline);
  EXPECT_TRUE(moved_inline.empty());
  std::vector<std::string> seen(moved_heap.begin(), moved_heap.end());
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen[0], "a");
  EXPECT_EQ(seen[1], long_text);
  EXPECT_EQ(seen[6], "4" + long_text);
  moved_inline.push_back("reused");  // A moved-from vector is empty and usable.
  EXPECT_EQ(moved_inline[0], "reused");
}

// --------------------------------------------------------------- Timing

TEST(TimingTest, SpinForAdvancesClockAndCpu) {
  uint64_t t0 = NowNs();
  uint64_t c0 = ThreadCpuNs();
  SpinFor(1000);
  EXPECT_EQ(NowNs() - t0, 1000u);
  EXPECT_EQ(ThreadCpuNs() - c0, 1000u);
}

TEST(TimingTest, IdleForAdvancesClockOnly) {
  uint64_t t0 = NowNs();
  uint64_t c0 = ThreadCpuNs();
  IdleFor(500);
  EXPECT_EQ(NowNs() - t0, 500u);
  EXPECT_EQ(ThreadCpuNs() - c0, 0u);
}

TEST(TimingTest, SyncToBusyNeverRewinds) {
  SpinFor(100);
  uint64_t now = NowNs();
  SyncToBusy(now > 50 ? now - 50 : 0);
  EXPECT_EQ(NowNs(), now);
}

TEST(TimingTest, SyncToBusyChargesFullGapAsCpu) {
  uint64_t now = NowNs();
  uint64_t c0 = ThreadCpuNs();
  SyncToBusy(now + 2000);
  EXPECT_EQ(NowNs(), now + 2000);
  EXPECT_EQ(ThreadCpuNs() - c0, 2000u);
}

TEST(TimingTest, SyncClockToChargesNoCpu) {
  uint64_t now = NowNs();
  uint64_t c0 = ThreadCpuNs();
  SyncClockTo(now + 2000);
  EXPECT_EQ(NowNs(), now + 2000);
  EXPECT_EQ(ThreadCpuNs() - c0, 0u);
}

TEST(TimingTest, SyncToAdaptiveCapsCpuAtBudget) {
  uint64_t now = NowNs();
  uint64_t c0 = ThreadCpuNs();
  SyncToAdaptive(now + 10000, 300);
  EXPECT_EQ(NowNs(), now + 10000);
  EXPECT_EQ(ThreadCpuNs() - c0, 300u);
}

TEST(TimingTest, ClocksAreThreadLocal) {
  SpinFor(5000);
  uint64_t other_clock = 0;
  std::thread t([&] { other_clock = NowNs(); });
  t.join();
  EXPECT_EQ(other_clock, 0u);  // Fresh thread starts at 0.
  EXPECT_GE(NowNs(), 5000u);
}

TEST(TimingTest, ComputeScopeChargesRealCpuIntoVirtualTime) {
  uint64_t t0 = NowNs();
  {
    ComputeScope scope;
    // Do some real work.
    volatile uint64_t sink = 0;
    for (int i = 0; i < 200000; ++i) {
      sink = sink + static_cast<uint64_t>(i) * 31;
    }
  }
  EXPECT_GT(NowNs(), t0);  // Real compute advanced virtual time.
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(ZipfTest, SkewsTowardLowIndices) {
  ZipfSampler zipf(1000, 1.0, 3);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next() < 10) {
      ++low;
    }
  }
  // Top-10 of 1000 under Zipf(1.0) carries ~39% of mass.
  EXPECT_GT(low, n / 5);
}

TEST(ZipfTest, StaysInRange) {
  ZipfSampler zipf(50, 0.8, 5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(zipf.Next(), 50u);
  }
}

// ------------------------------------------------------------ Histogram

TEST(HistogramTest, PercentilesOfKnownData) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  const HistogramStats s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(99), 99.01, 0.1);
  EXPECT_NEAR(s.mean, 50.5, 0.001);
}

TEST(HistogramTest, EmptyIsZero) {
  const HistogramStats s = Histogram().Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.Percentile(50), 0.0);
}

// ------------------------------------------------------------ SyncUtil

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BlockingQueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Push(42);
  });
  EXPECT_EQ(*q.Pop(), 42);
  producer.join();
}

TEST(BlockingQueueTest, CloseUnblocksPop) {
  BlockingQueue<int> q;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.Close();
  });
  EXPECT_FALSE(q.Pop().has_value());
  closer.join();
}

TEST(BlockingQueueTest, PopForTimesOut) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.PopFor(std::chrono::milliseconds(5)).has_value());
}

TEST(BlockingQueueTest, TryPopNonBlocking) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(1);
  EXPECT_TRUE(q.TryPop().has_value());
}

TEST(CountDownLatchTest, ReleasesAtZero) {
  CountDownLatch latch(3);
  std::atomic<int> done{0};
  std::thread waiter([&] {
    latch.Wait();
    done.store(1);
  });
  latch.CountDown();
  latch.CountDown();
  EXPECT_EQ(done.load(), 0);
  latch.CountDown();
  waiter.join();
  EXPECT_EQ(done.load(), 1);
}

TEST(SpinLockTest, MutualExclusion) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        std::lock_guard<SpinLock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, 4000);
}

// ------------------------------------------------------------ CpuMeter

TEST(CpuMeterTest, AggregatesSamples) {
  CpuMeter meter;
  meter.Add(100);
  meter.Add(250);
  EXPECT_EQ(meter.TotalCpuNs(), 350u);
  meter.Reset();
  EXPECT_EQ(meter.TotalCpuNs(), 0u);
}

TEST(CpuMeterTest, ScopedSampleMeasuresVirtualCpu) {
  CpuMeter meter;
  {
    ScopedCpuSample sample(&meter);
    SpinFor(777);
  }
  EXPECT_EQ(meter.TotalCpuNs(), 777u);
}

}  // namespace
}  // namespace lt
