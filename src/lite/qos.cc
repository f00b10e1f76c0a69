#include "src/lite/qos.h"

#include <algorithm>

#include "src/common/timing.h"
#include "src/fabric/fabric.h"
#include "src/telemetry/journal.h"

namespace lite {

void QosManager::Admit(Priority pri, uint64_t bytes) {
  admits_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t delay_ns = AdmitInner(pri, bytes);
  if (delay_ns > 0) {
    throttles_.fetch_add(1, std::memory_order_relaxed);
    if (journal_ != nullptr) {
      journal_->Record(lt::telemetry::JournalEvent::kQosThrottle,
                       static_cast<uint64_t>(pri), delay_ns);
    }
  }
}

uint64_t QosManager::AdmitInner(Priority pri, uint64_t bytes) {
  const uint64_t now = lt::NowNs();
  if (pri == Priority::kHigh) {
    AccountHighBytes(bytes, now);
    return 0;
  }
  if (policy() == QosPolicy::kHwSep) {
    // Hardware separation: the NIC schedules QPs round-robin, so traffic
    // confined to 1 of K QPs gets ~1/K of the processing rate whenever the
    // other QPs have work. Reserved capacity idles when high-priority jobs
    // are absent — the inflexibility the paper demonstrates (Sec. 6.2).
    double share = lt::kNicLineRateBytesPerNs / std::max(1, params_.lite_qp_sharing_factor);
    const uint64_t ser_ns = static_cast<uint64_t>(static_cast<double>(bytes) / share);
    uint64_t finish = low_rate_.Reserve(now, ser_ns);
    if (finish > now + ser_ns) {
      const uint64_t delay = finish - (now + ser_ns);
      lt::IdleFor(delay);
      low_delay_total_ns_.fetch_add(delay, std::memory_order_relaxed);
      return delay;
    }
    return 0;
  }
  if (policy() != QosPolicy::kSwPri) {
    return 0;
  }

  // Paper's three sender-side policies: rate-limit low-priority traffic when
  // high-priority load is high (1) or its RTT inflates (3); run unthrottled
  // when high-priority traffic is light (2). Both triggers require
  // high-priority activity within the recent monitoring windows — a stale
  // RTT sample must not keep throttling after the high-priority job leaves.
  uint64_t window_start = window_start_ns_.load(std::memory_order_relaxed);
  if (now >= window_start + 2 * kWindowNs) {
    return 0;
  }
  bool limit = HighPriActive(now);
  uint64_t floor = rtt_floor_ns_.load(std::memory_order_relaxed);
  uint64_t ewma = rtt_ewma_ns_.load(std::memory_order_relaxed);
  if (floor > 0 && ewma > static_cast<uint64_t>(static_cast<double>(floor) * kRttInflation)) {
    limit = true;
  }
  // Latch the limiter for a window once triggered so it does not flap
  // between a bursty high-priority job's phases.
  if (limit) {
    limited_until_ns_.store(now + kWindowNs, std::memory_order_relaxed);
  } else if (now < limited_until_ns_.load(std::memory_order_relaxed)) {
    limit = true;
  }
  if (!limit) {
    return 0;
  }

  // Windowed rate reservation in virtual time at the restricted rate.
  const uint64_t ser_ns =
      static_cast<uint64_t>(static_cast<double>(bytes) / kLowPriRestrictedRate);
  uint64_t finish = low_rate_.Reserve(now, ser_ns);
  if (finish > now + ser_ns) {
    const uint64_t delay = finish - (now + ser_ns);
    lt::IdleFor(delay);
    low_delay_total_ns_.fetch_add(delay, std::memory_order_relaxed);
    return delay;
  }
  return 0;
}

void QosManager::RecordHighPriRtt(uint64_t rtt_ns) {
  // EWMA with alpha = 1/8.
  uint64_t prev = rtt_ewma_ns_.load(std::memory_order_relaxed);
  uint64_t next = prev == 0 ? rtt_ns : (prev * 7 + rtt_ns) / 8;
  rtt_ewma_ns_.store(next, std::memory_order_relaxed);

  uint64_t floor = rtt_floor_ns_.load(std::memory_order_relaxed);
  if (floor == 0 || rtt_ns < floor) {
    rtt_floor_ns_.store(rtt_ns, std::memory_order_relaxed);
  }
}

std::pair<int, int> QosManager::QpRange(Priority pri, int k) const {
  if (policy() != QosPolicy::kHwSep || k < 2) {
    return {0, k};
  }
  // Reserve QP 0 for low priority; the rest for high priority.
  if (pri == Priority::kLow) {
    return {0, 1};
  }
  return {1, k};
}

void QosManager::AccountHighBytes(uint64_t bytes, uint64_t now) {
  uint64_t start = window_start_ns_.load(std::memory_order_relaxed);
  if (now >= start + kWindowNs) {
    if (window_start_ns_.compare_exchange_strong(start, now, std::memory_order_relaxed)) {
      last_window_hi_bytes_.store(window_hi_bytes_.exchange(0, std::memory_order_relaxed),
                                  std::memory_order_relaxed);
    }
  }
  window_hi_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

bool QosManager::HighPriActive(uint64_t now) const {
  uint64_t start = window_start_ns_.load(std::memory_order_relaxed);
  uint64_t current = window_hi_bytes_.load(std::memory_order_relaxed);
  uint64_t previous = last_window_hi_bytes_.load(std::memory_order_relaxed);
  if (now >= start + 2 * kWindowNs) {
    // No high-priority traffic for two windows: treat as idle.
    return false;
  }
  // "High load": a sustained ~0.5%+ of line rate within the window
  // (high-priority request/response traffic is bursty; a deep threshold
  // would miss it between bursts).
  const uint64_t threshold =
      static_cast<uint64_t>(lt::kNicLineRateBytesPerNs * kWindowNs * 0.005);
  return current + previous > threshold;
}

}  // namespace lite
