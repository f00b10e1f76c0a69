// LITE microbenchmark sweeps, all on the virtual clock. Each sweep prints a
// figure table and writes a telemetry sidecar that scripts/check_bench.py
// holds as a perf-regression anchor: the async-memop window depth (1 -> 64,
// BENCH_async_depth.json), multi-chunk read overlap (BENCH_multichunk.json)
// and ops per ring doorbell (BENCH_ring_batch.json).
#include <algorithm>
#include <deque>

#include "bench/benchlib.h"
#include "src/common/rng.h"
#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace {

lt::SimParams MicroParams() {
  lt::SimParams p;
  p.node_phys_mem_bytes = 64ull << 20;
  return p;
}

// Async-depth sweep: 64 B LT_write_async throughput vs window depth, each
// point on a fresh 2-node cluster. Emits one figure table plus a telemetry
// snapshot per depth (doorbell/signaling/inline counters) into the JSON
// sidecar so later PRs can regress against the whole pipelining curve.
void RunAsyncDepthSweep(benchlib::TelemetrySink* sink) {
  constexpr int kSweepOps = 4000;
  constexpr uint64_t kRegionBytes = 1 << 20;
  constexpr uint32_t kOpBytes = 64;
  const std::vector<int> depths = {1, 2, 4, 8, 16, 32, 64};
  benchlib::Series tput{"LT_write_async-64B", {}};
  benchlib::Series ring_tput{"LT_write_async-64B-ring", {}};
  std::vector<std::string> xs;
  // Two series per depth: the classic kernel-level issuer (no boundary at
  // all) and a user-level issuer on the per-CPU submission rings (ring.h),
  // whose only crossings are cold-start doorbells and sleep reaps.
  for (int depth : depths) {
    xs.push_back(std::to_string(depth));
    for (bool rings : {false, true}) {
      lt::SimParams p = MicroParams();
      p.lite_ring_enable = rings;
      lite::LiteCluster cluster(2, p);
      auto client = cluster.CreateClient(0, /*kernel_level=*/!rings);
      lite::MallocOptions on1;
      on1.nodes = {1};
      auto lh = *client->Malloc(kRegionBytes, "async_depth", on1);
      std::vector<uint8_t> buf(kOpBytes, 0x41);
      lt::Rng rng(17);
      std::deque<lite::MemopHandle> window;
      uint64_t t0 = lt::NowNs();
      for (int i = 0; i < kSweepOps; ++i) {
        auto h = client->WriteAsync(lh, rng.NextBounded(kRegionBytes - kOpBytes), buf.data(),
                                    kOpBytes);
        if (!h.ok()) {
          continue;
        }
        window.push_back(*h);
        if (window.size() >= static_cast<size_t>(depth)) {
          (void)client->Wait(window.front());
          window.pop_front();
        }
      }
      while (!window.empty()) {
        (void)client->Wait(window.front());
        window.pop_front();
      }
      uint64_t elapsed = lt::NowNs() - t0;
      (rings ? ring_tput : tput)
          .values.push_back(static_cast<double>(kSweepOps) * 1000.0 /
                            static_cast<double>(elapsed));
      sink->AddSnapshot(rings ? "LT_write_async-64B-ring" : "LT_write_async-64B",
                        std::to_string(depth), client->StatSnapshot());
    }
  }
  benchlib::PrintFigure("Async depth sweep: 64B LT_write_async throughput vs window", "window",
                        "requests/us", xs, {tput, ring_tput});
  sink->WriteFile();
}

// Ops-per-crossing sweep (the ring tentpole's headline curve): with the
// per-CPU submission rings enabled, one doorbell crossing amortizes over K
// ops. Each point runs groups of exactly K ops from a user-level client and
// parks past the hot window between groups, so ops/crossing == K by
// construction; the measured per-op cost and ops/crossing land in the
// x-label (nsop= / opc= / requs=) where check_bench.py holds them in band.
// Blocking groups batch via the hot-window doorbell; async groups set the
// flush threshold to K so the K-th submit drains the whole batch.
void RunRingBatchSweep(benchlib::TelemetrySink* sink) {
  constexpr int kGroups = 50;
  const std::vector<int> kBatches = {1, 2, 4, 8, 16, 32, 64};
  const std::vector<uint32_t> kSizes = {64, 4096};
  for (bool async_mode : {false, true}) {
    for (uint32_t size : kSizes) {
      const std::string series = std::string(async_mode ? "LT_write_async" : "LT_write") +
                                 "-ring-" + benchlib::HumanBytes(size);
      benchlib::Series nsop{"ns/op", {}};
      benchlib::Series opc{"ops/crossing", {}};
      std::vector<std::string> xs;
      for (int batch : kBatches) {
        lt::SimParams p = MicroParams();
        p.lite_ring_enable = true;
        if (async_mode) {
          p.lite_ring_doorbell_batch = static_cast<uint32_t>(batch);
        }
        lite::LiteCluster cluster(2, p);
        auto client = cluster.CreateClient(0, /*kernel_level=*/false);
        lite::MallocOptions on1;
        on1.nodes = {1};
        auto lh = *client->Malloc(1 << 20, "ring_sweep", on1);
        std::vector<uint8_t> buf(size, 0x2e);
        uint64_t busy_ns = 0;
        for (int g = 0; g < kGroups; ++g) {
          const uint64_t t0 = lt::NowNs();
          if (async_mode) {
            for (int i = 0; i < batch; ++i) {
              (void)client->WriteAsync(lh, static_cast<uint64_t>(size) * i, buf.data(), size);
            }
            (void)client->WaitAll();
          } else {
            for (int i = 0; i < batch; ++i) {
              (void)client->Write(lh, static_cast<uint64_t>(size) * i, buf.data(), size);
            }
          }
          busy_ns += lt::NowNs() - t0;
          // Park past the hot window and flush deadline: the next group pays
          // a fresh doorbell, so the crossings amortize over exactly K ops.
          lt::IdleFor(lite::kAdaptiveSpinNs + p.lite_ring_flush_ns + 1'000);
        }
        auto* inst = cluster.instance(0);
        const double ops = static_cast<double>(kGroups) * batch;
        const double per_op_ns = static_cast<double>(busy_ns) / ops;
        const double measured_opc =
            static_cast<double>(inst->Stat("lite.ring.ops")) /
            static_cast<double>(std::max<int64_t>(1, inst->Stat("lite.ring.doorbells")));
        char x[128];
        std::snprintf(x, sizeof(x), "batch=%d;nsop=%.1f;opc=%.2f;requs=%.3f", batch, per_op_ns,
                      measured_opc, 1000.0 / per_op_ns);
        xs.push_back(x);
        nsop.values.push_back(per_op_ns);
        opc.values.push_back(measured_opc);
        sink->AddSnapshot(series, x, inst->StatSnapshot());
      }
      benchlib::PrintFigure("Ring batch sweep: " + series, "batch", "ns/op | ops/crossing", xs,
                            {nsop, opc});
    }
  }
  sink->WriteFile();
}

// Multi-chunk sweep: a 16 MB LMR striped 1 MB-per-chunk round-robin across
// four remote nodes; one 4 MB sync read is four pieces on four distinct
// source nodes. The op engine issues all pieces before waiting on any
// (SubmitPieces), so their serialization overlaps; the baseline fetches the
// same bytes as four dependent single-piece reads. The speedup ratio lands
// in BENCH_multichunk.json as a perf-regression anchor (floor: 1.5x).
void RunMultiChunkSweep(benchlib::TelemetrySink* sink) {
  constexpr int kReps = 50;
  constexpr uint64_t kChunkBytes = 1ull << 20;
  constexpr uint64_t kOpBytes = 4ull << 20;  // 4 pieces, one per source node
  constexpr uint64_t kRegionBytes = 16ull << 20;
  lt::SimParams p = MicroParams();
  p.lite_max_chunk_bytes = kChunkBytes;
  lite::LiteCluster cluster(5, p);
  auto client = cluster.CreateClient(0, /*kernel_level=*/true);
  lite::MallocOptions spread;
  spread.nodes = {1, 2, 3, 4};
  auto lh = *client->Malloc(kRegionBytes, "multichunk", spread);
  std::vector<uint8_t> buf(kOpBytes);

  // Baseline: the same 4 MB as four dependent chunk-aligned reads; each is
  // a single remote piece, so nothing overlaps.
  uint64_t t0 = lt::NowNs();
  for (int r = 0; r < kReps; ++r) {
    for (uint64_t off = 0; off < kOpBytes; off += kChunkBytes) {
      (void)client->Read(lh, off, buf.data() + off, kChunkBytes);
    }
  }
  const uint64_t serial_ns = lt::NowNs() - t0;

  t0 = lt::NowNs();
  for (int r = 0; r < kReps; ++r) {
    (void)client->Read(lh, 0, buf.data(), kOpBytes);
  }
  const uint64_t overlap_ns = lt::NowNs() - t0;

  const double bytes = static_cast<double>(kReps) * static_cast<double>(kOpBytes);
  const double serial_gbps = bytes / static_cast<double>(serial_ns);
  const double overlap_gbps = bytes / static_cast<double>(overlap_ns);
  const double speedup = static_cast<double>(serial_ns) / static_cast<double>(overlap_ns);
  benchlib::PrintFigure("Multi-chunk 4MB sync read: engine overlap vs serial pieces", "path",
                        "GB/s",
                        {"serial-4x1MB", "overlapped-4MB", "speedup"},
                        {{"LT_read", {serial_gbps, overlap_gbps, speedup}}});
  // The x label carries the measured ratio so the JSON anchor records it.
  sink->AddSnapshot("multichunk-read-4MB", "speedup=" + std::to_string(speedup),
                    client->StatSnapshot());
  sink->WriteFile();
}

}  // namespace

int main(int argc, char** argv) {
  benchlib::TelemetrySink sink = benchlib::TelemetrySink::FromArgs(
      argc, argv, "bench_micro_async_depth", "BENCH_async_depth.json");
  RunAsyncDepthSweep(&sink);
  benchlib::TelemetrySink mc_sink = benchlib::TelemetrySink::FromArgs(
      1, argv, "bench_micro_multichunk", "BENCH_multichunk.json");
  RunMultiChunkSweep(&mc_sink);
  benchlib::TelemetrySink ring_sink = benchlib::TelemetrySink::FromArgs(
      1, argv, "bench_micro_ring_batch", "BENCH_ring_batch.json");
  RunRingBatchSweep(&ring_sink);
  return 0;
}
