#include "benchmark/bench_trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "src/common/timing.h"

namespace litebench {

Tracer* g_tracer = nullptr;
thread_local Tracer::Buffer* t_trace = nullptr;

const char* CallName(Call call) {
  static const char* const kNames[] = {
      "Write", "Read",  "FetchAdd",    "WriteAsync",  "ReadAsync",    "WaitAll",
      "Rpc",   "RecvRpc", "ReplyRpc",  "setup",       "LiteCluster",  "Malloc",
      "Map",   "RegisterRpc", "HandlerStart", "window",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(Call::kCount));
  return kNames[static_cast<size_t>(call)];
}

uint64_t HostNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Tracer::AttachThisThread(uint32_t tid) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.emplace_back();
  buffers_.back().tid = tid;
  t_trace = &buffers_.back();
}

uint64_t Tracer::Calls(Call call) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const Buffer& b : buffers_) {
    n += b.calls[static_cast<size_t>(call)];
  }
  return n;
}

std::vector<Span> Tracer::Spans(Call call) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) {
      if (s.call == call) {
        out.push_back(s);
      }
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  size_t total = 0;
  for (const Buffer& b : buffers_) {
    total += b.spans.size();
  }
  // Thin a long run to about kMaxWrittenSpans by keeping every k-th sampled
  // request whole, so parents, children and RPC flows stay together.
  const uint64_t k = std::max<uint64_t>(1, (total + kMaxWrittenSpans - 1) / kMaxWrittenSpans);
  auto written = [k](const Span& s) {
    return s.req == 0 || ReqIndex(s.req) / kSampleEvery % k == 0;
  };
  std::vector<const Span*> spans;
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) {
      if (written(s)) {
        spans.push_back(&s);
      }
    }
  }
  // Spans are appended when they end; the file lists them by start time.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span* a, const Span* b) { return a->host_start < b->host_start; });
  const uint64_t t0 = spans.empty() ? 0 : spans.front()->host_start;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span* s : spans) {
    const double ts = static_cast<double>(s->host_start - t0) / 1000.0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"lite\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"vt_start_ns\":%" PRIu64
                 ",\"vt_end_ns\":%" PRIu64 ",\"span\":%" PRIu64 ",\"req\":%" PRIu64
                 ",\"parent\":%" PRIu64 "}}",
                 first ? "" : ",\n", CallName(s->call), s->node, s->tid, ts,
                 static_cast<double>(s->host_end - s->host_start) / 1000.0, s->vt_start,
                 s->vt_end, s->id, s->req, s->parent);
    first = false;
    // Flow arrow from the caller's Rpc span to the handler's ReplyRpc span.
    if (s->call == Call::kRpc || s->call == Call::kReplyRpc) {
      const bool start = s->call == Call::kRpc;
      std::fprintf(f,
                   ",\n{\"name\":\"rpc\",\"cat\":\"rpc\",\"ph\":\"%s\",%s\"id\":%" PRIu64
                   ",\"pid\":%u,\"tid\":%u,\"ts\":%.3f}",
                   start ? "s" : "f", start ? "" : "\"bp\":\"e\",", s->req, s->node, s->tid, ts);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedCall::ScopedCall(Call call, uint32_t node, bool sampled, uint64_t id, uint64_t req,
                       uint64_t parent) {
  if (t_trace == nullptr) {
    return;
  }
  ++t_trace->calls[static_cast<size_t>(call)];
  if (!sampled) {
    return;
  }
  active_ = true;
  span_ = Span{call, node, t_trace->tid, HostNs(), 0, lt::NowNs(), 0,
               id != 0 ? id : g_tracer->NextId(), req, parent};
}

void ScopedCall::Join(uint64_t req) {
  active_ = active_ && req != 0 && ReqSampled(req);
  span_.req = req;
  span_.parent = req;
}

ScopedCall::~ScopedCall() {
  if (!active_) {
    return;
  }
  span_.host_end = HostNs();
  span_.vt_end = lt::NowNs();
  t_trace->spans.push_back(span_);
}

}  // namespace litebench
