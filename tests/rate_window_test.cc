#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "src/common/rate_window.h"
#include "src/common/rng.h"

namespace lt {
namespace {

constexpr uint64_t kWindowNs = 8192;  // RateWindow's window, GC bound and GC keep.
constexpr size_t kGcThreshold = 1 << 16;
constexpr uint64_t kGcKeepWindows = 1 << 15;

// The hash-map RateWindow the sorted slot array replaced, kept as the
// reference its results must match exactly.
class MapRateWindow {
 public:
  uint64_t Reserve(uint64_t earliest_ns, uint64_t cost_ns) {
    if (cost_ns == 0) {
      return earliest_ns;
    }
    uint64_t w = earliest_ns / kWindowNs;
    uint64_t remaining = cost_ns;
    uint64_t last_consume_point = earliest_ns;
    while (remaining > 0) {
      uint64_t& used = used_[w];
      if (used < kWindowNs) {
        uint64_t take = std::min(kWindowNs - used, remaining);
        used += take;
        remaining -= take;
        last_consume_point = w * kWindowNs + used;
      }
      if (remaining > 0) {
        ++w;
      }
    }
    max_window_ = std::max(max_window_, w);
    if (used_.size() > kGcThreshold) {
      uint64_t horizon = max_window_ > kGcKeepWindows ? max_window_ - kGcKeepWindows : 0;
      std::erase_if(used_, [horizon](const auto& kv) { return kv.first < horizon; });
      ++gcs_;
    }
    return std::max(earliest_ns + cost_ns, last_consume_point);
  }
  int gcs() const { return gcs_; }

 private:
  std::unordered_map<uint64_t, uint64_t> used_;
  uint64_t max_window_ = 0;
  int gcs_ = 0;
};

TEST(RateWindowTest, LightLoadIsExact) {
  RateWindow window;
  EXPECT_EQ(window.Reserve(1000, 500), 1500u);
  EXPECT_EQ(window.Reserve(100000, 250), 100250u);
}

TEST(RateWindowTest, ZeroCostIsFree) {
  RateWindow window;
  EXPECT_EQ(window.Reserve(777, 0), 777u);
}

TEST(RateWindowTest, SaturationSpillsForward) {
  RateWindow window;
  // Consume far more than one 8192ns window's capacity at t=0.
  uint64_t last = 0;
  uint64_t total = 0;
  for (int i = 0; i < 50; ++i) {
    last = window.Reserve(0, 1000);
    total += 1000;
  }
  // 50us of service from t=0 must finish no earlier than ~total service time.
  EXPECT_GE(last, total * 9 / 10);
}

TEST(RateWindowTest, BackfillAllowsEarlierVirtualTimes) {
  RateWindow window;
  // A reservation far in the future must not block earlier capacity.
  uint64_t late = window.Reserve(10'000'000, 100);
  EXPECT_EQ(late, 10'000'100u);
  uint64_t early = window.Reserve(1000, 100);
  EXPECT_LT(early, 20'000u);  // Backfilled near its own time.
}

TEST(RateWindowTest, CapacityConservedAcrossInterleavedClaims) {
  RateWindow window;
  // Total demand at one instant: finishes must spread at >= service rate.
  std::vector<uint64_t> finishes;
  for (int i = 0; i < 32; ++i) {
    finishes.push_back(window.Reserve(0, 2000));
  }
  uint64_t max_finish = *std::max_element(finishes.begin(), finishes.end());
  EXPECT_GE(max_finish, 32u * 2000u * 9 / 10);
}

TEST(RateWindowTest, ThreadSafeUnderConcurrency) {
  RateWindow window;
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::vector<uint64_t> max_finish(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        max_finish[t] = std::max(max_finish[t], window.Reserve(0, 100));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t last = *std::max_element(max_finish.begin(), max_finish.end());
  // 8000 claims of 100ns from t=0: total 800us of service must be conserved.
  EXPECT_GE(last, 800'000u * 9 / 10);
}

TEST(RateWindowTest, GcKeepsReserving) {
  RateWindow window;
  // Touch enough distinct windows to trigger GC several times; far-future
  // reservations must still be exact.
  for (uint64_t t = 0; t < 100'000; ++t) {
    window.Reserve(t * 8192, 10);
  }
  EXPECT_EQ(window.Reserve(100'000ull * 8192, 10), 100'000ull * 8192 + 10);
}

TEST(RateWindowTest, MatchesTheMapReferenceOnSeededReservations) {
  // A frontier that advances half a window per reservation on average, at
  // about 80% load, with bursts at one instant, spills across many windows,
  // and backfills both near the frontier and past the GC horizon (where the
  // windows were dropped and read as free again).
  RateWindow window;
  MapRateWindow model;
  Rng rng(42);
  uint64_t frontier = 0;
  constexpr int kReservations = 1 << 20;
  for (int i = 0; i < kReservations; ++i) {
    frontier += rng.NextBounded(kWindowNs);
    const uint64_t kind = rng.NextBounded(1000);
    uint64_t earliest = frontier;
    uint64_t cost = 1 + rng.NextBounded(2048);
    if (kind < 500) {  // At or just past the frontier.
      earliest += rng.NextBounded(kWindowNs / 2);
    } else if (kind < 750) {  // Near backfill, up to 64 windows back.
      earliest -= std::min(frontier, rng.NextBounded(64 * kWindowNs));
      cost = 1 + rng.NextBounded(4096);
    } else if (kind < 900) {  // Bursts at one instant.
      cost = 1 + rng.NextBounded(kWindowNs);
    } else if (kind < 950) {  // Spills across up to seven windows.
      cost = kWindowNs + rng.NextBounded(6 * kWindowNs);
    } else if (kind < 998) {
      cost = kind < 990 ? 1 + rng.NextBounded(64) : 0;
    } else {  // Far backfill, often past the GC horizon.
      earliest -= std::min(frontier, rng.NextBounded(48'000 * kWindowNs));
      cost = 1 + rng.NextBounded(2 * kWindowNs);
    }
    ASSERT_EQ(window.Reserve(earliest, cost), model.Reserve(earliest, cost))
        << "reservation " << i << " at " << earliest << " for " << cost << " ns";
  }
  EXPECT_GE(model.gcs(), 10);  // The stream crossed the GC threshold repeatedly.
}

TEST(RateWindowTest, GcDropsWindowsBehindTheHorizonOnlyPastTheThreshold) {
  RateWindow window;
  auto at = [](uint64_t w) { return w * kWindowNs; };
  // Fill windows 32767 and 32768, then book 10 ns in 65534 other windows in
  // increasing order, leaving window 65536 unbooked: 65536 windows held.
  ASSERT_EQ(window.Reserve(at(32767), kWindowNs), at(32768));
  ASSERT_EQ(window.Reserve(at(32768), kWindowNs), at(32769));
  for (uint64_t w = 0; w < 65536; ++w) {
    if (w != 32767 && w != 32768) {
      ASSERT_EQ(window.Reserve(at(w), 10), at(w) + 10);
    }
  }
  // Exactly 65536 windows: nothing was dropped, so window 0 still holds its
  // 10 ns, and booking the rest of it ends at the window's end.
  EXPECT_EQ(window.Reserve(at(0), kWindowNs - 10), at(1));
  // The 65537th window starts the GC, relative to window 65536: every window
  // below 65536 - 32768 = 32768 goes, window 32768 and up stay.
  ASSERT_EQ(window.Reserve(at(65536), 10), at(65536) + 10);
  // Window 32767 was full and was dropped: its capacity reads free again.
  EXPECT_EQ(window.Reserve(at(32767), 1), at(32767) + 1);
  // Window 32768 is full and kept: a booking there spills into window
  // 32769, behind the 10 ns already in it.
  EXPECT_EQ(window.Reserve(at(32768), 1), at(32769) + 11);
}

}  // namespace
}  // namespace lt
