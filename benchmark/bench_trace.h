// Benchmark-side spans around every public LITE call lite_bench makes.
//
// Spans are recorded only in a traced run (lite_bench --trace-dir). Each bench
// thread appends to its own buffer, so recording takes no lock; buffers stay
// in memory and are written once at exit as a Chrome trace-event file. A
// data-op span is kept for every 16th request by index (set-up calls always);
// every call is counted. Spans use both clocks: `ts`/`dur` are host time, the
// virtual start/end ride in `args`. A long run's file is thinned to whole
// requests (kMaxWrittenSpans).
#ifndef BENCHMARK_BENCH_TRACE_H_
#define BENCHMARK_BENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace litebench {

// Every call the benchmark spans. The data calls come first: they are the
// ones reported as api.<call>.* per-layer metrics.
enum class Call : uint8_t {
  kWrite,
  kRead,
  kFetchAdd,
  kWriteAsync,
  kReadAsync,
  kWaitAll,
  kRpc,
  kRecvRpc,
  kReplyRpc,
  kNumData,
  kSetup = kNumData,  // One whole set-up iteration (parent of the calls below).
  kClusterCtor,
  kMalloc,
  kMap,
  kRegisterRpc,
  kHandlerStart,
  kWindow,  // One async window: parent of its ReadAsync/WriteAsync/WaitAll.
  kCount,
};

const char* CallName(Call call);

// Host monotonic clock, ns.
uint64_t HostNs();

// A request is sampled for spans when its index is a multiple of this.
constexpr uint64_t kSampleEvery = 16;
// Spans written to the Chrome trace, about; all kept spans feed the metrics.
constexpr uint64_t kMaxWrittenSpans = 200000;

struct Span {
  Call call;
  uint32_t node;
  uint32_t tid;
  uint64_t host_start;
  uint64_t host_end;
  uint64_t vt_start;
  uint64_t vt_end;
  uint64_t id;      // Request id for request spans, else a fresh id.
  uint64_t req;     // Request this span serves (0 for set-up calls).
  uint64_t parent;  // Span id of the causing span (0 = root).
};

class Tracer {
 public:
  struct Buffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
    std::array<uint64_t, static_cast<size_t>(Call::kCount)> calls{};
  };

  // Attaches a buffer to the calling thread; `tid` labels its trace lane.
  void AttachThisThread(uint32_t tid);
  // Span ids for spans that are not requests (never collide with MakeReq).
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Sum of every thread's count of `call`, and every kept span of it.
  uint64_t Calls(Call call) const;
  std::vector<Span> Spans(Call call) const;

  // Chrome trace-event JSON; RPC handler spans get a flow arrow from the
  // caller's Rpc span. False on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::deque<Buffer> buffers_;
  std::atomic<uint64_t> next_id_{1ull << 62};
};

// The run's tracer (null in an untraced run) and this thread's buffer.
extern Tracer* g_tracer;
extern thread_local Tracer::Buffer* t_trace;

// Request ids: bench thread in the top bits, request index below. The RPC
// payload carries the id, so a handler can tell whether the caller sampled
// the request and join its span to the caller's.
inline uint64_t MakeReq(uint32_t tid, uint64_t index) {
  return (static_cast<uint64_t>(tid + 1) << 40) | index;
}
inline uint64_t ReqIndex(uint64_t req) { return req & ((1ull << 40) - 1); }
inline bool ReqSampled(uint64_t req) { return ReqIndex(req) % kSampleEvery == 0; }

// Times one call. Untraced runs pay one thread-local load and a branch.
class ScopedCall {
 public:
  ScopedCall(Call call, uint32_t node, bool sampled, uint64_t id = 0, uint64_t req = 0,
             uint64_t parent = 0);
  ~ScopedCall();

  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

  // For a call whose request is known only on return (RecvRpc): the span is
  // kept only if that request is sampled, as a child of the caller's span.
  // req 0 (the call returned no request) drops it.
  void Join(uint64_t req);

  // Span id, for children to name as parent (0 when not recorded).
  uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_{};
};

}  // namespace litebench

#endif  // BENCHMARK_BENCH_TRACE_H_
