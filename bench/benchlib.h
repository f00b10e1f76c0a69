// Shared output helpers for the figure-reproduction benches: every binary
// prints the series of one paper figure in a uniform, greppable table format.
#ifndef BENCH_BENCHLIB_H_
#define BENCH_BENCHLIB_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/telemetry/metrics.h"

namespace benchlib {

struct Series {
  std::string name;
  std::vector<double> values;  // One per x position.
};

// Prints:
//   == <title> ==
//   <xlabel>  <series...>
//   <x0>      <v> <v> ...
inline void PrintFigure(const std::string& title, const std::string& xlabel,
                        const std::string& ylabel, const std::vector<std::string>& xs,
                        const std::vector<Series>& series) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("# y-axis: %s\n", ylabel.c_str());
  std::printf("%-16s", xlabel.c_str());
  for (const Series& s : series) {
    std::printf(" %16s", s.name.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < xs.size(); ++i) {
    std::printf("%-16s", xs[i].c_str());
    for (const Series& s : series) {
      if (i < s.values.size()) {
        std::printf(" %16.3f", s.values[i]);
      } else {
        std::printf(" %16s", "-");
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

inline std::string HumanBytes(uint64_t bytes) {
  if (bytes >= (1ull << 20)) {
    return std::to_string(bytes >> 20) + "MB";
  }
  if (bytes >= 1024) {
    return std::to_string(bytes >> 10) + "KB";
  }
  return std::to_string(bytes) + "B";
}

// Prints one "# <label>: ..." stats comment from a histogram snapshot.
inline void PrintLatencyStats(const std::string& label, const lt::Histogram& hist) {
  lt::HistogramStats s = hist.Snapshot();
  std::printf("# %s: n=%zu mean=%.3f p50=%.3f p99=%.3f min=%.3f max=%.3f\n", label.c_str(),
              s.count, s.mean, s.Percentile(50), s.Percentile(99), s.min, s.max);
}

// --------------------------------------------------------------- telemetry
//
// Every fig bench can emit a machine-readable telemetry sidecar:
//
//   fig04_mr_count --telemetry out.json
//
// Schema:
//   {"bench": "<name>",
//    "points": [{"series": "...", "x": "...",
//                "metrics": {...}, "histograms": {...}}, ...],
//    "host": {"wall_ns", "user_ns", "sys_ns", "maxrss_kb", "threads", "csw"},
//    "cluster": {...}}          <- optional full Cluster::DumpTelemetryJson()
//
// Each point embeds one lt::telemetry::MetricsSnapshot taken right after the
// corresponding figure point was measured. "host" is what the process has
// cost the host when the sidecar is written: wall time since process start,
// user and system CPU time, peak RSS (getrusage), live threads
// (/proc/self/status) and voluntary plus involuntary context switches.
// scripts/check_bench.py gates maxrss_kb and wall_ns against the anchor's.

// Set during static initialisation, before main: the process's start.
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

// Live threads of this process ("Threads:" in /proc/self/status), 0 if unknown.
inline long HostThreads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  long threads = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %ld", &threads) == 1) {
      break;
    }
  }
  std::fclose(f);
  return threads;
}

// The sidecar's "host" object.
inline std::string HostJson() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<long long>(tv.tv_sec) * 1000000000LL +
           static_cast<long long>(tv.tv_usec) * 1000LL;
  };
  long long wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - kProcessStart)
                          .count();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"wall_ns\":%lld,\"user_ns\":%lld,\"sys_ns\":%lld,\"maxrss_kb\":%ld,"
                "\"threads\":%ld,\"csw\":%ld}",
                wall_ns, ns(ru.ru_utime), ns(ru.ru_stime), ru.ru_maxrss, HostThreads(),
                ru.ru_nvcsw + ru.ru_nivcsw);
  return buf;
}

class TelemetrySink {
 public:
  // Parses "--telemetry <path>" / "--telemetry=<path>" from argv. A sink with
  // no path is disabled: Add* and WriteFile become no-ops. A bench that must
  // always emit its sidecar (e.g. bench_micro's BENCH_async_depth.json, a
  // regression anchor for later PRs) passes `default_path`, used when the
  // flag is absent.
  static TelemetrySink FromArgs(int argc, char** argv, const std::string& bench,
                                const std::string& default_path = "") {
    TelemetrySink sink;
    sink.bench_ = bench;
    sink.path_ = default_path;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
        sink.path_ = argv[i + 1];
      } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
        sink.path_ = argv[i] + 12;
      }
    }
    return sink;
  }

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  void AddSnapshot(const std::string& series, const std::string& x,
                   const lt::telemetry::MetricsSnapshot& snap) {
    if (!enabled()) {
      return;
    }
    // snap.ToJson() is {"metrics":{...},"histograms":{...}}; splice the
    // series/x labels into the same object.
    std::string body = snap.ToJson();
    points_.push_back("{\"series\":\"" + lt::telemetry::JsonEscape(series) + "\",\"x\":\"" +
                      lt::telemetry::JsonEscape(x) + "\"," + body.substr(1));
  }

  // Attaches a full cluster dump (Cluster::DumpTelemetryJson()) to the sidecar.
  void SetClusterDump(const std::string& cluster_json) {
    if (enabled()) {
      cluster_json_ = cluster_json;
    }
  }

  // Writes the sidecar; returns false on I/O failure (and when disabled).
  bool WriteFile() const {
    if (!enabled()) {
      return false;
    }
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "telemetry: cannot open %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"points\":[", lt::telemetry::JsonEscape(bench_).c_str());
    for (size_t i = 0; i < points_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",", points_[i].c_str());
    }
    std::fprintf(f, "],\"host\":%s", HostJson().c_str());
    if (!cluster_json_.empty()) {
      std::fprintf(f, ",\"cluster\":%s", cluster_json_.c_str());
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("# telemetry sidecar: %s (%zu points)\n", path_.c_str(), points_.size());
    return true;
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<std::string> points_;
  std::string cluster_json_;
};

// --trace-out: Chrome trace-event export.
//
//   fig10_rpc_latency --trace-out trace.json
//
// When the flag is present the bench turns tracing on (sample every op) and,
// after the run, writes all sampled-op records + flight-recorder events as a
// chrome://tracing / Perfetto file via Cluster::ExportChromeTrace. With the
// flag absent the bench's measured output is unchanged.
class TraceSink {
 public:
  // Parses "--trace-out <path>" / "--trace-out=<path>" from argv.
  static TraceSink FromArgs(int argc, char** argv) {
    TraceSink sink;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
        sink.path_ = argv[i + 1];
      } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
        sink.path_ = argv[i] + 12;
      }
    }
    return sink;
  }

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  // Exports via `cluster` (any type with ExportChromeTrace(path)). No-op
  // when disabled; prints the sidecar line on success.
  template <typename Cluster>
  bool Export(Cluster& cluster) const {
    if (!enabled()) {
      return false;
    }
    if (!cluster.ExportChromeTrace(path_)) {
      std::fprintf(stderr, "trace: cannot write %s\n", path_.c_str());
      return false;
    }
    std::printf("# chrome trace: %s\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
};

}  // namespace benchlib

#endif  // BENCH_BENCHLIB_H_
