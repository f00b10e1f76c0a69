// Cluster-wide metrics registry (paper Sec. 3, 7: the kernel's global
// visibility into shared RDMA resources — QPs, MR caches, rings — is what
// enables LITE's sharing and QoS policies; this layer makes that visibility
// a first-class, queryable artifact).
//
// Design rules:
//   * Hot-path instruments are relaxed atomic RMWs with no mutex, ever:
//     Counter::Inc and Gauge::Add are one each, FixedHistogram::Record two
//     (bucket, sum) plus a compare-exchange only on a new min or max.
//   * Registration/lookup by name takes a mutex but happens once per metric
//     (components cache the returned pointer); pointers stay valid for the
//     registry's lifetime (node-stable storage).
//   * Probes are zero-hot-path-cost metrics: a callback reading an existing
//     counter (LRU hit counts, port byte counts, CPU meters) evaluated only
//     at snapshot time.
//   * Snapshot() returns a self-consistent copy; JSON export is built on it.
#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lt {
namespace telemetry {

// Monotonic counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous signed level (occupancy, bytes in flight).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Snapshot of a FixedHistogram: immutable copy safe to read/percentile.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  // True extrema of all recorded samples (both 0 when count == 0). Percentile
  // estimates are clamped into [min, max] so a lone 4000-wide sample reports
  // 4000, not its 4095 bucket upper bound.
  uint64_t min = 0;
  uint64_t max = 0;
  // bucket[i] counts samples v with bit_width(v) == i, i.e. v in
  // [2^(i-1), 2^i) for i >= 1 and v == 0 for i == 0; the last bucket (63)
  // also takes v >= 2^63.
  std::vector<uint64_t> buckets;

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Upper-bound estimate of the p-th percentile (p in [0, 100]), clamped to
  // the true observed [min, max].
  uint64_t Percentile(double p) const;
};

// Fixed-bucket (power-of-two) latency/size histogram. Record() is two
// relaxed atomic adds (the bucket and the sum) plus a min/max check that
// writes only on a new extremum; the count is the sum of the buckets, so no
// separate counter is bumped. Bucket boundaries never move, so concurrent
// Record and Snapshot are both safe and cheap.
class FixedHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t v) {
    const int b = std::min(static_cast<int>(std::bit_width(v)), kBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  // Sums the buckets (read paths only; Record keeps no count of its own).
  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ull};
  std::atomic<uint64_t> max_{0};
};

// One node's metric snapshot: scalar metrics (counters, gauges, probes) plus
// histogram snapshots, keyed by registered name.
struct MetricsSnapshot {
  std::map<std::string, int64_t> values;
  std::map<std::string, HistogramSnapshot> histograms;

  // Convenience: value of `name`, or `fallback` if absent.
  int64_t ValueOr(const std::string& name, int64_t fallback = 0) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  std::string ToJson() const;
};

// Per-node metric registry. Get* registers on first use and returns a stable
// pointer; callers keep the pointer and never look the name up again.
class Registry {
 public:
  using Probe = std::function<uint64_t()>;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  FixedHistogram* GetHistogram(const std::string& name);

  // Registers a read-on-snapshot metric backed by an existing source (LRU
  // cache counters, port byte counts, CPU meters). Replaces any previous
  // probe under the same name.
  void RegisterProbe(const std::string& name, Probe probe);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  // std::deque gives node-stable element addresses under growth.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<FixedHistogram> histograms_;
  std::map<std::string, Counter*> counter_index_;
  std::map<std::string, Gauge*> gauge_index_;
  std::map<std::string, FixedHistogram*> histogram_index_;
  std::map<std::string, Probe> probes_;
};

// Minimal JSON string escaping for metric names / trace labels.
std::string JsonEscape(const std::string& s);

}  // namespace telemetry
}  // namespace lt

#endif  // SRC_TELEMETRY_METRICS_H_
