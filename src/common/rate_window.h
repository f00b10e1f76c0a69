// Windowed capacity reservation for virtual-time resources (fabric ports,
// NIC processing engines, TCP rate caps).
//
// A naive monotonic busy_until pointer cannot BACKFILL: once one thread
// reserves at a late virtual time, an (in real time) later-arriving thread
// with an *earlier* virtual timestamp would queue behind it even though the
// resource was idle at its time. Under bursty host scheduling that
// artificially serializes concurrent virtual work. RateWindow instead
// accounts capacity in fixed windows of virtual time: each window holds
// kWindowNs of service capacity, reservations consume capacity starting at
// their own virtual time, and unrelated earlier windows remain available.
//
//   * Light load: Reserve(earliest, cost) returns earliest + cost (exact).
//   * Saturation: the reservation spills into subsequent windows, modeling
//     queueing with ~kWindowNs granularity.
//
// Storage: one vector of 8-byte slots, one per booked window, sorted by
// window index. A window gets a slot the first time a reservation consumes
// from it; a booking at or past the newest window finds its slot at the
// back, without a search. Once more than kGcThreshold slots are stored, every
// window more than kGcKeepWindows behind the newest booked one is dropped
// (one prefix erase), so a resource holds at most kGcThreshold + 1 = 65537
// slots (512 KB; its capacity may round up to 1 MB). The array starts at
// kInitialSlots and doubles from there, so a timeline reallocates at most
// seven times in its life.
#ifndef SRC_COMMON_RATE_WINDOW_H_
#define SRC_COMMON_RATE_WINDOW_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <vector>

namespace lt {

class RateWindow {
 public:
  // Reserves `cost_ns` of service capacity starting no earlier than
  // `earliest_ns` (virtual time); returns the absolute finish time. Windows
  // account consumed capacity only (position within a window is approximated
  // at window granularity).
  uint64_t Reserve(uint64_t earliest_ns, uint64_t cost_ns) {
    if (cost_ns == 0) {
      return earliest_ns;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (used_.empty()) {
      used_.reserve(kInitialSlots);
    }
    uint64_t w = earliest_ns / kWindowNs;
    uint64_t remaining = cost_ns;
    uint64_t last_consume_point = earliest_ns;
    auto it = FrontierOrSlotAt(w);
    while (remaining > 0) {
      assert(w < kMaxWindows);
      if (it == used_.end() || it->window != w) {
        it = used_.insert(it, Slot{w, 0});
      }
      uint64_t used = it->used;
      if (used < kWindowNs) {
        uint64_t take = std::min(kWindowNs - used, remaining);
        used += take;
        it->used = used;
        remaining -= take;
        last_consume_point = w * kWindowNs + used;
      }
      if (remaining > 0) {
        ++w;
        ++it;
      }
    }
    max_window_ = std::max(max_window_, w);
    if (used_.size() > kGcThreshold) {
      Gc();
    }
    return std::max(earliest_ns + cost_ns, last_consume_point);
  }

 private:
  static constexpr uint64_t kWindowNs = 8192;
  static constexpr size_t kGcThreshold = 1 << 16;
  static constexpr uint64_t kGcKeepWindows = 1 << 15;
  // Reserved at the first booking (8 KB): the array reallocates only past
  // 8 ms of booked windows, so a short run's bookings never touch the heap.
  static constexpr size_t kInitialSlots = 1 << 10;
  static constexpr int kUsedBits = 14;  // Holds 0..kWindowNs.
  static constexpr int kWindowBits = 64 - kUsedBits;
  static constexpr uint64_t kMaxWindows = uint64_t{1} << kWindowBits;
  static_assert(kWindowNs < (uint64_t{1} << kUsedBits));

  // One booked window: its index and the capacity consumed in it.
  struct Slot {
    uint64_t window : kWindowBits;
    uint64_t used : kUsedBits;
  };
  static_assert(sizeof(Slot) == 8);

  // The first slot whose window is at or after `window`.
  std::vector<Slot>::iterator SlotAt(uint64_t window) {
    return std::lower_bound(used_.begin(), used_.end(), window,
                            [](const Slot& s, uint64_t w) { return s.window < w; });
  }

  // SlotAt, in O(1) for a booking at or past the newest window (the common
  // case: one thread's clock only moves forward), else by binary search.
  std::vector<Slot>::iterator FrontierOrSlotAt(uint64_t window) {
    if (used_.empty() || used_.back().window < window) {
      return used_.end();
    }
    return used_.back().window == window ? used_.end() - 1 : SlotAt(window);
  }

  void Gc() {
    // Drop windows far behind the frontier; reservations that far in the
    // past no longer occur (clocks only move forward on each thread).
    uint64_t horizon = max_window_ > kGcKeepWindows ? max_window_ - kGcKeepWindows : 0;
    used_.erase(used_.begin(), SlotAt(horizon));
  }

  std::mutex mu_;
  std::vector<Slot> used_;  // Sorted by window; see the file comment.
  uint64_t max_window_ = 0;
};

}  // namespace lt

#endif  // SRC_COMMON_RATE_WINDOW_H_
