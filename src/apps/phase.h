// The apps' one fork/join over simulated threads: MapReduce's phases and
// every graph engine's partition threads run through RunPhase.
#ifndef SRC_APPS_PHASE_H_
#define SRC_APPS_PHASE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/timing.h"

namespace liteapp {

// Runs `fn(i)` for every i < n, each on its own thread whose virtual clock
// starts at `start_vtime`; returns the latest end vtime (at least
// `start_vtime`).
inline uint64_t RunPhase(size_t n, uint64_t start_vtime, const std::function<void(size_t)>& fn) {
  std::vector<uint64_t> ends(n, 0);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      lt::SyncClockTo(start_vtime);
      fn(i);
      ends[i] = lt::NowNs();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t end = start_vtime;
  for (uint64_t e : ends) {
    end = std::max(end, e);
  }
  return end;
}

}  // namespace liteapp

#endif  // SRC_APPS_PHASE_H_
