// Paper Fig. 12: RPC receive-side memory utilization under the Facebook
// key-value distributions — send/recv RPC with 1-4 size-classed receive
// queues versus LITE's write-imm rings (which need no pre-posted per-message
// buffers; only the aligned ring entry is consumed).
#include "bench/benchlib.h"
#include "src/apps/workloads.h"
#include "src/baselines/sendrecv_rpc.h"
#include "src/common/rng.h"

namespace {

constexpr int kMessages = 50000;
constexpr uint32_t kMaxMsg = 512 << 10;

// Size classes for N receive queues: geometric split up to the max size.
std::vector<uint32_t> Classes(int rqs) {
  switch (rqs) {
    case 1:
      return {kMaxMsg};
    case 2:
      return {4 << 10, kMaxMsg};
    case 3:
      return {512, 16 << 10, kMaxMsg};
    default:
      return {128, 4 << 10, 64 << 10, kMaxMsg};
  }
}

// Buffer consumption of send-based RPC: each message burns the smallest
// pre-posted buffer that fits (Shipman et al. optimization, per the paper).
double SendRecvUtilization(int rqs, bool values, uint64_t seed) {
  auto classes = Classes(rqs);
  liteapp::FacebookKvSampler sampler(seed);
  uint64_t payload = 0;
  uint64_t consumed = 0;
  for (int i = 0; i < kMessages; ++i) {
    uint32_t size = values ? sampler.NextValueSize() : sampler.NextKeySize();
    size_t cls = 0;
    while (cls < classes.size() && classes[cls] < size) {
      ++cls;
    }
    payload += size;
    consumed += classes[std::min(cls, classes.size() - 1)];
  }
  return 100.0 * static_cast<double>(payload) / static_cast<double>(consumed);
}

// LITE ring consumption: header + payload, 64-byte aligned (Sec. 5.1).
double LiteUtilization(bool values, uint64_t seed) {
  constexpr uint64_t kHeaderBytes = 40;
  liteapp::FacebookKvSampler sampler(seed);
  uint64_t payload = 0;
  uint64_t consumed = 0;
  for (int i = 0; i < kMessages; ++i) {
    uint32_t size = values ? sampler.NextValueSize() : sampler.NextKeySize();
    payload += size;
    consumed += (kHeaderBytes + size + 63) & ~63ull;
  }
  return 100.0 * static_cast<double>(payload) / static_cast<double>(consumed);
}

// Cross-check the analytic send/recv model against the real SendRecvRpcServer
// accounting on a small sample.
void ValidateAgainstRealServer() {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  lt::Cluster cluster(2, p);
  auto classes = Classes(2);
  liteapp::SendRecvRpcServer server(
      &cluster, 0, classes, 8,
      [](const uint8_t*, uint32_t, uint8_t* out, uint32_t) -> uint32_t {
        out[0] = 1;
        return 1;
      });
  auto client = *server.AttachClient(1);
  server.Start();
  liteapp::FacebookKvSampler sampler(42);
  uint64_t expected_payload = 0;
  uint64_t expected_consumed = 0;
  std::vector<uint8_t> buf(8 << 10, 0xaa);
  char out[8];
  uint32_t out_len;
  for (int i = 0; i < 200; ++i) {
    uint32_t size = std::min<uint32_t>(sampler.NextValueSize(), 8 << 10);
    (void)client->Call(buf.data(), size, out, sizeof(out), &out_len);
    expected_payload += size;
    size_t cls = 0;
    while (cls < classes.size() && classes[cls] < size) {
      ++cls;
    }
    expected_consumed += classes[cls];
  }
  server.Stop();
  std::printf("# validation: real server consumed=%llu payload=%llu (model: %llu / %llu)\n",
              static_cast<unsigned long long>(server.consumed_buffer_bytes()),
              static_cast<unsigned long long>(server.payload_bytes()),
              static_cast<unsigned long long>(expected_consumed),
              static_cast<unsigned long long>(expected_payload));
}

}  // namespace

int main() {
  ValidateAgainstRealServer();
  benchlib::Series key{"key_util_pct", {}};
  benchlib::Series value{"value_util_pct", {}};
  std::vector<std::string> xs = {"1RQ", "2RQ", "3RQ", "4RQ", "LITE"};
  for (int rqs = 1; rqs <= 4; ++rqs) {
    key.values.push_back(SendRecvUtilization(rqs, /*values=*/false, 42));
    value.values.push_back(SendRecvUtilization(rqs, /*values=*/true, 42));
  }
  key.values.push_back(LiteUtilization(false, 42));
  value.values.push_back(LiteUtilization(true, 42));
  benchlib::PrintFigure(
      "Fig 12: RPC memory utilization under Facebook KV distribution", "scheme",
      "utilization (%)", xs, {key, value});
  return 0;
}
