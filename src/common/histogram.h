// Latency histogram + running statistics used by the benchmark harnesses.
#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lt {

// Consistent point-in-time copy of a Histogram: samples already sorted, with
// the common statistics precomputed. Safe to read while the source histogram
// keeps taking Add()s.
struct HistogramStats {
  std::vector<double> sorted_samples;
  size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;

  // p in [0, 100]; linear interpolation between sorted samples.
  double Percentile(double p) const {
    if (sorted_samples.empty()) {
      return 0.0;
    }
    double rank = p / 100.0 * static_cast<double>(sorted_samples.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted_samples.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac;
  }
};

// Reservoir-free exact histogram: records every sample. Fine for the sample
// counts our benches use (<= a few million).
class Histogram {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(v);
  }

  // The one read path: a sorted copy and its stats, taken under one lock
  // acquisition, so it stays consistent while other threads keep Add()ing.
  HistogramStats Snapshot() const {
    HistogramStats s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      s.sorted_samples = samples_;
    }
    std::sort(s.sorted_samples.begin(), s.sorted_samples.end());
    s.count = s.sorted_samples.size();
    if (s.count > 0) {
      double sum = 0.0;
      for (double v : s.sorted_samples) {
        sum += v;
      }
      s.mean = sum / static_cast<double>(s.count);
      s.min = s.sorted_samples.front();
      s.max = s.sorted_samples.back();
    }
    return s;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
};

}  // namespace lt

#endif  // SRC_COMMON_HISTOGRAM_H_
