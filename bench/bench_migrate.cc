// Live-migration characterization (ISSUE: epoch-fenced ownership): moves a
// 4 MB LMR between nodes while writers keep issuing open traffic against it,
// and measures
//   * blocked-op downtime — the epoch-fence span, the only window where ops
//     stop completing (they park at the fence instead of failing, so the
//     whole outage is bounded by it) — against a budget of 10x the
//     single-piece write RTT;
//   * the latency/throughput dip around the migration (before / during /
//     after phases), including the worst op latency caused by writes
//     queueing behind the bulk mirror copy on the shared link;
//   * coordinator-side copy work (mirror bytes, converge rounds, dirty
//     re-copy bytes).
// BENCH_migrate.json is the machine-readable regression anchor.
#include <sys/mman.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/benchlib.h"
#include "src/common/histogram.h"
#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace {

constexpr uint64_t kLmrBytes = 4ull << 20;  // >= 4 MB per the acceptance bar.
constexpr uint64_t kWriteBytes = 4096;
constexpr int kWriters = 4;
constexpr int kRttReps = 300;
// Per-op think time: keeps the writers' offered load well under the link
// bandwidth so virtual queueing doesn't build up open-loop.
constexpr uint64_t kThinkNs = 20'000;

// One writer op: virtual latency plus the real-time interval it spanned (the
// real interval is what classifies it against the migration window — virtual
// clocks are per-thread, so the coordinator's fence timestamps don't order
// against writer timestamps directly).
struct OpSample {
  double virt_us = 0;
  uint64_t real0 = 0;
  uint64_t real1 = 0;
  uint64_t done_vns = 0;
};

// Aggregated per-phase view of the writer op stream.
struct PhaseView {
  lt::Histogram op_us;
  uint64_t first_ns = ~0ull;  // Virtual completion times (min/max over ops).
  uint64_t last_ns = 0;
  uint64_t ops = 0;

  void Add(const OpSample& s) {
    op_us.Add(s.virt_us);
    if (s.done_vns < first_ns) {
      first_ns = s.done_vns;
    }
    if (s.done_vns > last_ns) {
      last_ns = s.done_vns;
    }
    ++ops;
  }
  double WritesPerMs() const {
    if (ops < 2 || last_ns <= first_ns) {
      return 0.0;
    }
    return static_cast<double>(ops - 1) / (static_cast<double>(last_ns - first_ns) / 1e6);
  }
};

double MeanWriteUs(lite::LiteClient* c, lite::Lh lh, uint32_t size, int reps) {
  std::vector<uint8_t> buf(size, 0x5a);
  uint64_t t0 = lt::NowNs();
  for (int i = 0; i < reps; ++i) {
    (void)c->Write(lh, 0, buf.data(), size);
  }
  return static_cast<double>(lt::NowNs() - t0) / reps / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchlib::TelemetrySink sink =
      benchlib::TelemetrySink::FromArgs(argc, argv, "bench_migrate", "BENCH_migrate.json");
  benchlib::TraceSink trace = benchlib::TraceSink::FromArgs(argc, argv);

  // Same fabric constants as fig06 so the RTT baseline is the figure's
  // single-piece write latency; enough phys mem for the LMR plus its
  // migrated copy and the quarantined source chunks.
  lt::SimParams p;
  p.node_phys_mem_bytes = 64ull << 20;
  lite::LiteCluster cluster(3, p);
  // The writers race the migration in real time, so a page the host faults
  // in during the mirror copy stretches the copy, lets more writes dirty the
  // LMR and lengthens the fence toward its budget. Node pools are paid for on
  // first touch: fault in both homes' pools before any traffic (their
  // contents stay as they are).
  for (lt::NodeId n : {1u, 2u}) {
    lt::PhysMem& mem = cluster.node(n)->mem();
    if (madvise(mem.Data(0, mem.size_bytes()), mem.size_bytes(), MADV_POPULATE_WRITE) != 0) {
      std::perror("bench_migrate: madvise(MADV_POPULATE_WRITE)");
    }
  }
  if (trace.enabled()) {
    cluster.EnableTracing(1);
  }

  auto coord = cluster.CreateClient(1, /*kernel_level=*/true);
  auto probe = cluster.CreateClient(2, /*kernel_level=*/true);

  lite::MallocOptions on1;
  on1.nodes = {1};
  auto lh = coord->Malloc(kLmrBytes, "mig_bench", on1);
  if (!lh.ok()) {
    std::fprintf(stderr, "malloc failed\n");
    return 1;
  }

  // Baseline: single-piece write RTT from the traffic node; the downtime
  // budget is 10x this (ISSUE acceptance).
  const double rtt_us = MeanWriteUs(probe.get(), *probe->Map("mig_bench"), 8, kRttReps);
  const double budget_us = 10.0 * rtt_us;

  // Open write traffic: kWriters threads on node 2 (each with its own
  // client), full speed, 4 KB writes walking disjoint stripes of the LMR.
  // Several ops are always in flight in real time, so some overlap every
  // migration stage (mirror / converge / fence) and writes land in the
  // dirty-interval log for converge to chase.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  const uint64_t kInf = ~0ull;
  std::atomic<uint64_t> mig_r0{kInf};  // Real-time migration window.
  std::atomic<uint64_t> mig_r1{kInf};
  std::vector<std::vector<OpSample>> samples(kWriters);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto client = cluster.CreateClient(2, /*kernel_level=*/true);
      auto wlh = client->Map("mig_bench");
      if (!wlh.ok()) {
        return;
      }
      std::vector<uint8_t> buf(kWriteBytes, static_cast<uint8_t>(0xa0 + w));
      const uint64_t stripe = kLmrBytes / kWriters;
      uint64_t off = static_cast<uint64_t>(w) * stripe;
      samples[w].reserve(1 << 16);
      while (!stop.load(std::memory_order_acquire)) {
        OpSample s;
        const uint64_t t0 = lt::NowNs();
        s.real0 = lt::RealNowNs();
        if (!client->Write(*wlh, off, buf.data(), kWriteBytes).ok()) {
          break;
        }
        s.real1 = lt::RealNowNs();
        s.done_vns = lt::NowNs();
        s.virt_us = static_cast<double>(s.done_vns - t0) / 1000.0;
        samples[w].push_back(s);
        total_ops.fetch_add(1, std::memory_order_relaxed);
        lt::SpinFor(kThinkNs);
        off += kWriteBytes;
        if (off >= static_cast<uint64_t>(w + 1) * stripe) {
          off = static_cast<uint64_t>(w) * stripe;
        }
      }
    });
  }

  // Warm-up window, then migrate 1 -> 2 under the open traffic.
  while (total_ops.load(std::memory_order_relaxed) < 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  lite::LiteInstance::MigrateStats stats;
  mig_r0.store(lt::RealNowNs(), std::memory_order_release);
  lt::Status st = coord->Migrate("mig_bench", 2, &stats);
  mig_r1.store(lt::RealNowNs(), std::memory_order_release);
  const uint64_t cooldown_floor = total_ops.load(std::memory_order_relaxed) + 500;
  if (!st.ok()) {
    std::fprintf(stderr, "migrate failed: %s\n", std::string(st.message()).c_str());
    stop.store(true, std::memory_order_release);
    for (auto& t : writers) {
      t.join();
    }
    return 1;
  }

  // Cool-down window on the new home, then stop.
  while (total_ops.load(std::memory_order_relaxed) < cooldown_floor) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) {
    t.join();
  }

  // Classify every op by its real-time overlap with the Migrate call.
  const uint64_t r0 = mig_r0.load(std::memory_order_acquire);
  const uint64_t r1 = mig_r1.load(std::memory_order_acquire);
  PhaseView views[3];
  for (const auto& per_writer : samples) {
    for (const OpSample& s : per_writer) {
      if (s.real1 <= r0) {
        views[0].Add(s);
      } else if (s.real0 >= r1) {
        views[2].Add(s);
      } else {
        views[1].Add(s);
      }
    }
  }

  // Blocked-op downtime: the epoch fence is the only window where ops stop
  // completing — an op reaching the fence parks and resumes at commit, so no
  // op blocks longer than the fence span (parked_ops below shows ops really
  // did park). The worst migration-overlapping op latency is reported
  // separately: it is writes queueing behind the bulk copy on the shared
  // link (bandwidth interference, present the whole mirror phase), not an
  // availability gap.
  const lt::HistogramStats before = views[0].op_us.Snapshot();
  const lt::HistogramStats during = views[1].op_us.Snapshot();
  const lt::HistogramStats after = views[2].op_us.Snapshot();
  const double fence_us =
      static_cast<double>(stats.commit_ns - stats.fence_start_ns) / 1000.0;
  const double worst_op_us = during.count > 0 ? during.max : 0.0;
  const double downtime_us = fence_us;
  const bool pass = downtime_us < budget_us;

  benchlib::PrintFigure(
      "Live migration of a 4MB LMR under open 4KB write traffic (1 -> 2)", "phase",
      "latency (us) / writes per ms",
      {"before", "during", "after"},
      {{"ops", {static_cast<double>(views[0].ops), static_cast<double>(views[1].ops),
                static_cast<double>(views[2].ops)}},
       {"write_mean_us", {before.mean, during.mean, after.mean}},
       {"write_p99_us",
        {before.Percentile(99), during.count > 0 ? during.Percentile(99) : 0.0,
         after.Percentile(99)}},
       {"write_max_us", {before.max, worst_op_us, after.max}},
       {"writes_per_ms",
        {views[0].WritesPerMs(), views[1].WritesPerMs(), views[2].WritesPerMs()}}});

  std::printf("\n== Migration cost (coordinator view) ==\n");
  std::printf("bytes_copied   %12llu\n", static_cast<unsigned long long>(stats.bytes_copied));
  std::printf("dirty_bytes    %12llu\n", static_cast<unsigned long long>(stats.dirty_bytes));
  std::printf("rounds         %12llu\n", static_cast<unsigned long long>(stats.rounds));
  std::printf("parked_ops     %12lld\n",
              static_cast<long long>(cluster.instance(1)->Stat("lite.migrate.parked_ops")));
  std::printf("\n== Downtime budget ==\n");
  std::printf("rtt_us         %12.3f\n", rtt_us);
  std::printf("budget_us      %12.3f   (10x RTT)\n", budget_us);
  std::printf("downtime_us    %12.3f   (epoch fence span: max blocked-op wait)\n", downtime_us);
  std::printf("worst_op_us    %12.3f   (queueing behind the mirror copy)\n", worst_op_us);
  std::printf("verdict        %12s\n", pass ? "PASS" : "FAIL");

  // The x label carries the measured numbers so the JSON anchor records
  // them (same idiom as BENCH_multichunk.json).
  char label[160];
  std::snprintf(label, sizeof(label), "downtime_us=%.3f;budget_us=%.3f;fence_us=%.3f;pass=%d",
                downtime_us, budget_us, fence_us, pass ? 1 : 0);
  sink.AddSnapshot("migrate-4MB-open-writes", label, cluster.instance(1)->StatSnapshot());
  sink.SetClusterDump(cluster.DumpTelemetryJson());
  sink.WriteFile();
  trace.Export(cluster);
  return pass ? 0 : 1;
}
