#include "src/telemetry/metrics.h"

#include <sstream>

namespace lt {
namespace telemetry {

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) {
    return 0;
  }
  if (p < 0.0) {
    p = 0.0;
  }
  if (p > 100.0) {
    p = 100.0;
  }
  const uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count - 1)) + 1;
  uint64_t est = buckets.empty() ? 0 : ((1ull << (buckets.size() - 1)) - 1);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // Upper bound of bucket b: 2^b - 1 covers all values of bit-width b.
      est = b == 0 ? 0 : ((1ull << b) - 1);
      break;
    }
  }
  // Clamp the bucket-bound estimate to the true observed extrema so sparse
  // histograms report real values (one 4000-wide sample -> 4000, not 4095).
  if (est > max) {
    est = max;
  }
  if (est < min) {
    est = min;
  }
  return est;
}

uint64_t FixedHistogram::count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) {
    n += b.load(std::memory_order_relaxed);
  }
  return n;
}

HistogramSnapshot FixedHistogram::Snapshot() const {
  HistogramSnapshot s;
  s.buckets.resize(kBuckets);
  // The count is the sum of the buckets, so the snapshot is internally
  // consistent (count == sum of buckets) even against a racing Record().
  for (int b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    s.count += s.buckets[b];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  // Trim trailing empty buckets to keep snapshots/JSON compact.
  while (!s.buckets.empty() && s.buckets.back() == 0) {
    s.buckets.pop_back();
  }
  return s;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) {
    return it->second;
  }
  counters_.emplace_back();
  counter_index_[name] = &counters_.back();
  return &counters_.back();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) {
    return it->second;
  }
  gauges_.emplace_back();
  gauge_index_[name] = &gauges_.back();
  return &gauges_.back();
}

FixedHistogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) {
    return it->second;
  }
  histograms_.emplace_back();
  histogram_index_[name] = &histograms_.back();
  return &histograms_.back();
}

void Registry::RegisterProbe(const std::string& name, Probe probe) {
  std::lock_guard<std::mutex> lock(mu_);
  probes_[name] = std::move(probe);
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snap;
  std::map<std::string, Probe> probes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counter_index_) {
      snap.values[name] = static_cast<int64_t>(c->value());
    }
    for (const auto& [name, g] : gauge_index_) {
      snap.values[name] = g->value();
    }
    for (const auto& [name, h] : histogram_index_) {
      snap.histograms[name] = h->Snapshot();
    }
    probes = probes_;
  }
  // Probes run outside the registry lock: they read foreign components that
  // may themselves take locks (LRU caches, ring maps).
  for (const auto& [name, probe] : probes) {
    snap.values[name] = static_cast<int64_t>(probe());
  }
  return snap;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : values) {
    os << (first ? "" : ",") << '"' << JsonEscape(name) << "\":" << v;
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "" : ",") << '"' << JsonEscape(name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"min\":" << h.min << ",\"max\":" << h.max
       << ",\"p50\":" << h.Percentile(50) << ",\"p99\":" << h.Percentile(99)
       << ",\"p999\":" << h.Percentile(99.9) << ",\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      os << (b == 0 ? "" : ",") << h.buckets[b];
    }
    os << "]}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace telemetry
}  // namespace lt
