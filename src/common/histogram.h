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
  double Median() const { return Percentile(50); }
};

// Reservoir-free exact histogram: records every sample. Fine for the sample
// counts our benches use (<= a few million).
class Histogram {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(v);
    sorted_ = false;
  }

  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.size();
  }

  double Mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (double v : samples_) {
      sum += v;
    }
    return sum / static_cast<double>(samples_.size());
  }

  // Sorted copy + stats under one lock acquisition. Prefer this when other
  // threads may still be Add()ing: interleaving count()/Percentile() calls
  // takes and drops the lock between reads, so the pair can disagree (and
  // Percentile() re-sorts live storage each time a concurrent Add lands).
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

  // p in [0, 100].
  double Percentile(double p) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.empty()) {
      return 0.0;
    }
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  double Min() const { return Percentile(0); }
  double Median() const { return Percentile(50); }
  double Max() const { return Percentile(100); }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::mutex mu_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace lt

#endif  // SRC_COMMON_HISTOGRAM_H_
