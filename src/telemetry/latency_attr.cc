#include "src/telemetry/latency_attr.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "src/common/timing.h"
#include "src/telemetry/journal.h"

namespace lt {
namespace telemetry {
namespace {

// The thread's current (outermost) op record. Plain thread-local pointer:
// claiming, stamping, and releasing are single non-atomic writes.
thread_local OpAttrRecord* g_cur = nullptr;

std::atomic<uint64_t> g_next_op_id{1};

const char* const kStageNames[kLatStageCount] = {
    "cross",       "submit",     "qos_wait",   "engine_q",   "post",
    "rnic_local",  "port_q",     "wire",       "rnic_remote", "remote_svc",
    "compl_poll",  "retire",     "detour",     "other",
};

constexpr char kLatPrefix[] = "lite.lat.";

const char* const kSizeClassNames[] = {"0B", "64B", "512B", "4K", "32K", "256K", "1M", "big"};

int SizeClassIndex(uint64_t bytes) {
  if (bytes == 0) return 0;
  if (bytes <= 64) return 1;
  if (bytes <= 512) return 2;
  if (bytes <= 4096) return 3;
  if (bytes <= 32768) return 4;
  if (bytes <= 262144) return 5;
  if (bytes <= 1048576) return 6;
  return 7;
}

// First probe of `op` in an index row (Fibonacci hash of its address).
size_t IndexHome(const char* op, size_t ways) {
  return static_cast<size_t>((reinterpret_cast<uintptr_t>(op) * 0x9E3779B97F4A7C15ull) >> 32) %
         ways;
}

uint64_t ScaleToward(uint64_t v, uint64_t num, uint64_t den) {
  // v * num / den without overflow (stage sums can exceed 2^32 ns).
  return den == 0 ? 0
                  : static_cast<uint64_t>(static_cast<unsigned __int128>(v) * num / den);
}

// Books `ns` into `stage` of the current record and, for a sampled op,
// appends the event [t_ns, t_ns + ns). Caller checked g_cur.
void Book(LatStage stage, uint64_t t_ns, uint64_t ns) {
  g_cur->stage_ns[stage] += ns;
  if (g_cur->trace != nullptr && ns > 0) {
    g_cur->trace->Add(stage, t_ns, ns);
  }
}

// Event start of a `delta_ns` interval that ends now on this thread's
// clock; only sampled ops read the clock.
uint64_t EventStart(uint64_t delta_ns) {
  if (g_cur->trace == nullptr) {
    return 0;
  }
  const uint64_t now = NowNs();
  return now > delta_ns ? now - delta_ns : 0;
}

}  // namespace

const char* LatStageName(int stage) {
  return (stage >= 0 && stage < kLatStageCount) ? kStageNames[stage] : "?";
}

void OpTrace::Add(LatStage stage, uint64_t t_ns, uint64_t ns) {
  if (n_events >= kMaxEvents) {
    ++events_dropped;
    return;
  }
  events[n_events++] = OpEvent{stage, t_ns, ns};
}

std::string OpTrace::ToJson() const {
  std::ostringstream os;
  os << "{\"op_id\":" << op_id << ",\"op\":\"" << JsonEscape(op) << "\",\"trace_id\":" << trace_id
     << ",\"parent_trace_id\":" << parent_trace_id << ",\"node\":" << node
     << ",\"start_ns\":" << start_ns << ",\"end_ns\":" << end_ns;
  if (events_dropped != 0) {
    os << ",\"events_dropped\":" << events_dropped;
  }
  os << ",\"events\":[";
  for (int i = 0; i < n_events; ++i) {
    os << (i == 0 ? "" : ",") << "{\"stage\":\"" << kStageNames[events[i].stage]
       << "\",\"t_ns\":" << events[i].t_ns << ",\"ns\":" << events[i].ns << "}";
  }
  os << "]}";
  return os.str();
}

const char* LatencyAttr::SizeClass(uint64_t bytes) {
  return kSizeClassNames[SizeClassIndex(bytes)];
}

ScopedOpAttr::ScopedOpAttr(LatencyAttr* sink, const char* op, uint64_t bytes, int pri) {
  if (sink == nullptr || g_cur != nullptr) {
    return;  // Nested call (internal RPC inside a memop): stay inert.
  }
  rec_.active = true;
  rec_.op = op;
  rec_.bytes = bytes;
  rec_.pri = pri;
  rec_.op_id = g_next_op_id.fetch_add(1, std::memory_order_relaxed);
  rec_.start_ns = NowNs();
  sink->Claim(&rec_);
  sink_ = sink;
  owner_ = true;
  g_cur = &rec_;
}

ScopedOpAttr::~ScopedOpAttr() {
  if (!owner_) {
    return;
  }
  g_cur = nullptr;
  if (rec_.detached) {
    return;  // An async op took the record; it commits at retirement.
  }
  const uint64_t now = NowNs();
  sink_->Commit(rec_, now > rec_.start_ns ? now - rec_.start_ns : 0);
}

AttrAdoptScope::AttrAdoptScope(OpAttrRecord* rec) : saved_(g_cur) {
  g_cur = (rec != nullptr && rec->active) ? rec : nullptr;
}
AttrAdoptScope::~AttrAdoptScope() { g_cur = saved_; }

void AttrAdd(LatStage stage, uint64_t delta_ns) {
  if (g_cur != nullptr && delta_ns > 0) {
    Book(stage, EventStart(delta_ns), delta_ns);
  }
}

void AttrAddSplit(uint64_t delta_ns, const WqeLatBreakdown& b) {
  if (g_cur == nullptr || delta_ns == 0) {
    return;
  }
  uint64_t t = EventStart(delta_ns);
  const uint64_t total = b.Total();
  if (total == 0) {
    // No transport info (local op, loopback imm): the wait was all
    // completion plumbing.
    Book(kLatComplPoll, t, delta_ns);
    return;
  }
  uint64_t booked = 0;
  const std::pair<LatStage, uint64_t> parts[] = {
      {kLatRnicLocal, b.rnic_local_ns},
      {kLatPortQueue, b.port_queue_ns},
      {kLatWire, b.wire_ns},
      {kLatRnicRemote, b.rnic_remote_ns},
  };
  for (const auto& [stage, part] : parts) {
    const uint64_t share = ScaleToward(part, delta_ns, total);
    Book(stage, t, share);
    t += share;
    booked += share;
  }
  // compl share plus all integer-rounding leftovers.
  Book(kLatComplPoll, t, delta_ns - booked);
}

void AttrAddRpcWait(uint64_t delta_ns, const WqeLatBreakdown& b) {
  if (g_cur == nullptr || delta_ns == 0) {
    return;
  }
  const uint64_t total = b.Total();
  if (total >= delta_ns) {
    // Reply raced the request's own transport estimate: the whole wait was
    // transport, split it proportionally.
    AttrAddSplit(delta_ns, b);
    return;
  }
  // Past the request's one-way transport: server dispatch + handler +
  // reply post + reply flight, i.e. remote service as the caller saw it.
  const std::pair<LatStage, uint64_t> parts[] = {
      {kLatRnicLocal, b.rnic_local_ns}, {kLatPortQueue, b.port_queue_ns},
      {kLatWire, b.wire_ns},            {kLatRnicRemote, b.rnic_remote_ns},
      {kLatRemoteSvc, delta_ns - total}, {kLatComplPoll, b.compl_ns},
  };
  uint64_t t = EventStart(delta_ns);
  for (const auto& [stage, part] : parts) {
    Book(stage, t, part);
    t += part;
  }
}

bool AttrDetach(OpAttrRecord* out) {
  if (g_cur == nullptr) {
    out->active = false;
    return false;
  }
  *out = std::move(*g_cur);
  out->detached = false;
  g_cur->detached = true;
  return true;
}

uint64_t CurrentTraceId() {
  return g_cur != nullptr && g_cur->trace != nullptr ? g_cur->trace->trace_id : 0;
}

void LatencyAttr::Claim(OpAttrRecord* rec) {
  if (journal_ != nullptr) {
    journal_->Record(JournalEvent::kOpStart, PackName8(rec->op), rec->op_id);
  }
  const uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0 || ops_seen_.fetch_add(1, std::memory_order_relaxed) % every != 0) {
    return;
  }
  rec->trace = std::make_unique<OpTrace>();
  rec->trace->trace_id = AllocTraceId();
}

void LatencyAttr::CommitTrace(OpTrace trace) {
  trace.node = node_;
  if (trace.events_dropped != 0) {
    events_dropped_.fetch_add(trace.events_dropped, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(std::move(trace));
  } else {
    ring_[ring_next_ % ring_capacity_] = std::move(trace);
    traces_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ++ring_next_;
  committed_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<OpTrace> LatencyAttr::Traces() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_.size() < ring_capacity_) {
    return ring_;
  }
  // Full ring: ring_next_ points at the oldest slot.
  std::vector<OpTrace> out;
  out.reserve(ring_capacity_);
  for (size_t i = 0; i < ring_capacity_; ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_capacity_]);
  }
  return out;
}

LatencyAttr::KeySlot* LatencyAttr::Slot(const OpAttrRecord& rec) {
  const int size_class = SizeClassIndex(rec.bytes);
  IndexRow& row = index_[size_class][rec.pri == 0 ? 0 : 1];
  const size_t home = IndexHome(rec.op, kIndexWays);
  for (size_t i = 0; i < kIndexWays; ++i) {
    const IndexEntry& e = row[(home + i) % kIndexWays];
    const char* op = e.op.load(std::memory_order_acquire);
    if (op == rec.op) {
      return e.slot.load(std::memory_order_relaxed);
    }
    if (op == nullptr) {
      break;
    }
  }
  return KeySlotSlow(rec, size_class, row);
}

LatencyAttr::KeySlot* LatencyAttr::KeySlotSlow(const OpAttrRecord& rec, int size_class,
                                               IndexRow& row) {
  std::string key = kLatPrefix;
  key += rec.op;
  key += '.';
  key += kSizeClassNames[size_class];
  key += rec.pri == 0 ? ".hi" : ".lo";

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = slots_.try_emplace(key);
  KeySlot* slot = &it->second;
  if (inserted) {
    slot->e2e = registry_->GetHistogram(key + ".e2e");
    for (int s = 0; s < kLatStageCount; ++s) {
      slot->stages[s] = registry_->GetHistogram(key + '.' + kStageNames[s]);
    }
  }
  // Publish the op's address; a racing first commit may have done it while
  // this one waited for the lock.
  const size_t home = IndexHome(rec.op, kIndexWays);
  for (size_t i = 0; i < kIndexWays; ++i) {
    IndexEntry& e = row[(home + i) % kIndexWays];
    const char* op = e.op.load(std::memory_order_relaxed);
    if (op == rec.op) {
      break;
    }
    if (op == nullptr) {
      e.slot.store(slot, std::memory_order_relaxed);
      e.op.store(rec.op, std::memory_order_release);
      break;
    }
  }
  return slot;
}

void LatencyAttr::Commit(OpAttrRecord& rec, uint64_t e2e_ns) {
  if (!rec.active) {
    return;
  }
  if (journal_ != nullptr && rec.op_id != 0) {
    journal_->Record(JournalEvent::kOpEnd, PackName8(rec.op), rec.op_id);
  }
  if (rec.trace != nullptr) {
    OpTrace trace = std::move(*rec.trace);
    rec.trace.reset();
    trace.op = rec.op;
    trace.op_id = rec.op_id;
    trace.start_ns = rec.start_ns;
    trace.end_ns = rec.start_ns + e2e_ns;
    // Events booked on another thread's clock (async retirement) may fall
    // outside the op's own interval: clamp them into it.
    for (int i = 0; i < trace.n_events; ++i) {
      OpEvent& e = trace.events[i];
      e.t_ns = std::clamp(e.t_ns, trace.start_ns, trace.end_ns);
      e.ns = std::min(e.ns, trace.end_ns - e.t_ns);
    }
    CommitTrace(std::move(trace));
  }
  if (registry_ == nullptr) {
    return;
  }
  uint64_t stages[kLatStageCount];
  uint64_t sum = 0;
  for (int s = 0; s < kLatStageCount; ++s) {
    stages[s] = rec.stage_ns[s];
    sum += stages[s];
  }
  if (sum > e2e_ns) {
    // Async retirement measured some deltas on another thread's clock; scale
    // the vector down so conservation holds exactly.
    uint64_t scaled = 0;
    for (int s = 0; s < kLatStageCount; ++s) {
      stages[s] = ScaleToward(stages[s], e2e_ns, sum);
      scaled += stages[s];
    }
    sum = scaled;
  }
  stages[kLatOther] += e2e_ns - sum;

  KeySlot* slot = Slot(rec);
  slot->e2e->Record(e2e_ns);
  for (int s = 0; s < kLatStageCount; ++s) {
    // Zero stages are skipped (cheaper, and stage percentiles then describe
    // ops that actually passed through the stage); sums still conserve.
    if (stages[s] > 0) {
      slot->stages[s]->Record(stages[s]);
    }
  }
}

std::string LatencyAttr::DumpLatencyBreakdown(const MetricsSnapshot& snap) {
  // Group lite.lat.* histograms by key = everything before the final stage
  // suffix.
  struct Group {
    const HistogramSnapshot* e2e = nullptr;
    std::array<const HistogramSnapshot*, kLatStageCount> stages = {};
  };
  std::map<std::string, Group> groups;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind(kLatPrefix, 0) != 0) {
      continue;
    }
    const size_t dot = name.rfind('.');
    const std::string key = name.substr(0, dot);
    const std::string stage = name.substr(dot + 1);
    Group& g = groups[key];
    if (stage == "e2e") {
      g.e2e = &h;
      continue;
    }
    for (int s = 0; s < kLatStageCount; ++s) {
      if (stage == kStageNames[s]) {
        g.stages[s] = &h;
        break;
      }
    }
  }

  std::ostringstream os;
  os << "Latency attribution waterfall (per-stage mean = stage ns summed over "
        "all ops / op count)\n";
  char line[160];
  for (const auto& [key, g] : groups) {
    if (g.e2e == nullptr || g.e2e->count == 0) {
      continue;
    }
    const double n = static_cast<double>(g.e2e->count);
    std::snprintf(line, sizeof(line),
                  "%s  n=%" PRIu64 "  e2e mean=%.0fns  p50=%" PRIu64 "  p99=%" PRIu64
                  "  p99.9=%" PRIu64 "\n",
                  key.c_str(), g.e2e->count, g.e2e->Mean(), g.e2e->Percentile(50),
                  g.e2e->Percentile(99), g.e2e->Percentile(99.9));
    os << line;
    uint64_t stage_sum = 0;
    for (int s = 0; s < kLatStageCount; ++s) {
      const HistogramSnapshot* h = g.stages[s];
      if (h == nullptr || h->count == 0) {
        continue;
      }
      stage_sum += h->sum;
      std::snprintf(line, sizeof(line), "  %-12s %10.0fns  %5.1f%%  (n=%" PRIu64 ")\n",
                    kStageNames[s], static_cast<double>(h->sum) / n,
                    100.0 * static_cast<double>(h->sum) / static_cast<double>(g.e2e->sum),
                    h->count);
      os << line;
    }
    std::snprintf(line, sizeof(line), "  %-12s %10.0fns  %5.1f%%\n", "= stages",
                  static_cast<double>(stage_sum) / n,
                  g.e2e->sum == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(stage_sum) / static_cast<double>(g.e2e->sum));
    os << line;
  }
  return os.str();
}

std::vector<std::string> HealthWatchdog::Check(const MetricsSnapshot& snap) {
  std::vector<std::string> out;
  char buf[256];
  auto fail = [&](const char* fmt, uint64_t a, uint64_t b) {
    std::snprintf(buf, sizeof(buf), fmt, a, b);
    out.emplace_back(buf);
  };

  // 1. Engine op conservation: every op the engine accepted is either
  //    retired ok, retired failed, or still in flight.
  if (snap.values.count("lite.engine.ops") != 0) {
    const uint64_t issued = snap.ValueOr("lite.engine.ops");
    const uint64_t accounted = snap.ValueOr("lite.engine.ops_ok") +
                               snap.ValueOr("lite.engine.ops_failed") +
                               snap.ValueOr("lite.engine.in_flight");
    if (issued != accounted) {
      fail("engine op conservation: ops=%" PRIu64 " != ok+failed+in_flight=%" PRIu64, issued,
           accounted);
    }
  }

  // 2./3. RNIC post conservation: every posted WQE rang a doorbell or rode a
  //    batch, and is either signaled or unsignaled.
  if (snap.values.count("rnic.ops_posted") != 0) {
    const uint64_t posted = snap.ValueOr("rnic.ops_posted");
    const uint64_t db = snap.ValueOr("lite.rnic.doorbells") + snap.ValueOr("lite.rnic.wqes_batched");
    if (posted != db) {
      fail("doorbell conservation: ops_posted=%" PRIu64 " != doorbells+batched=%" PRIu64, posted,
           db);
    }
    const uint64_t sig =
        snap.ValueOr("lite.rnic.wqe_signaled") + snap.ValueOr("lite.rnic.wqe_unsignaled");
    if (posted != sig) {
      fail("signaling conservation: ops_posted=%" PRIu64 " != signaled+unsignaled=%" PRIu64,
           posted, sig);
    }
  }

  // 4. Ring crossing-batch conservation (per-CPU submission rings): every
  //    op that rode the rings is booked either into a closed epoch (the
  //    ops-per-crossing histogram) or a still-open one; every ring doorbell
  //    is a batched crossing; and every closed epoch closed exactly one
  //    batched crossing (ops == crossings x batch sum, amortized).
  if (snap.values.count("lite.ring.ops") != 0) {
    uint64_t epochs_closed = 0;
    uint64_t epoch_ops_closed = 0;
    auto hist = snap.histograms.find("lite.ring.ops_per_crossing");
    if (hist != snap.histograms.end()) {
      epochs_closed = hist->second.count;
      epoch_ops_closed = hist->second.sum;
    }
    const uint64_t ring_ops = snap.ValueOr("lite.ring.ops");
    const uint64_t open_ops = snap.ValueOr("lite.ring.open_epoch_ops");
    const uint64_t pending = snap.ValueOr("lite.ring.deferred_pending");
    if (ring_ops != epoch_ops_closed + open_ops) {
      fail("ring op conservation: lite.ring.ops=%" PRIu64
           " != closed-epoch ops + open-epoch ops=%" PRIu64,
           ring_ops, epoch_ops_closed + open_ops);
    }
    const uint64_t doorbells = snap.ValueOr("lite.ring.doorbells");
    const uint64_t batched = snap.ValueOr("os.crossings_batched");
    if (doorbells != batched) {
      fail("ring doorbell conservation: lite.ring.doorbells=%" PRIu64
           " != os.crossings_batched=%" PRIu64,
           doorbells, batched);
    }
    const uint64_t open_epochs = snap.ValueOr("lite.ring.open_epochs");
    if (epochs_closed + open_epochs != batched) {
      fail("ring epoch conservation: closed+open epochs=%" PRIu64
           " != os.crossings_batched=%" PRIu64,
           epochs_closed + open_epochs, batched);
    }
    if (static_cast<uint64_t>(snap.ValueOr("os.ops_batched")) != epoch_ops_closed) {
      fail("ring batch accounting: os.ops_batched=%" PRIu64 " != closed-epoch ops=%" PRIu64,
           snap.ValueOr("os.ops_batched"), epoch_ops_closed);
    }
    if (batched > static_cast<uint64_t>(snap.ValueOr("os.crossings"))) {
      fail("ring crossing accounting: os.crossings_batched=%" PRIu64 " > os.crossings=%" PRIu64,
           batched, snap.ValueOr("os.crossings"));
    }
    if (pending != 0) {
      fail("ring quiescence: %" PRIu64 " deferred submissions never drained (%" PRIu64
           " ring ops booked)",
           pending, ring_ops);
    }
  }

  // 5. Stage-sum conservation per lite.lat.* key: Commit() guarantees
  //    sum(stages) == e2e exactly, including retry/redirect/park detours.
  struct Sums {
    uint64_t e2e = 0;
    bool has_e2e = false;
    uint64_t stages = 0;
    uint64_t other = 0;
  };
  std::map<std::string, Sums> sums;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("lite.lat.", 0) != 0) {
      continue;
    }
    const size_t dot = name.rfind('.');
    Sums& s = sums[name.substr(0, dot)];
    const std::string stage = name.substr(dot + 1);
    if (stage == "e2e") {
      s.e2e = h.sum;
      s.has_e2e = true;
    } else {
      s.stages += h.sum;
      if (stage == "other") {
        s.other = h.sum;
      }
    }
  }
  for (const auto& [key, s] : sums) {
    if (!s.has_e2e) {
      out.emplace_back("latency attribution: " + key + " has stages but no e2e histogram");
      continue;
    }
    if (s.stages != s.e2e) {
      std::snprintf(buf, sizeof(buf),
                    "stage-sum conservation: %s stages=%" PRIu64 " != e2e=%" PRIu64, key.c_str(),
                    s.stages, s.e2e);
      out.emplace_back(buf);
    }
    // 6. Attribution quality: blocking one-sided ops are fully bracketed, so
    //    the unattributed remainder must stay a small fraction.
    const bool blocking_memop =
        key.rfind("lite.lat.write.", 0) == 0 || key.rfind("lite.lat.read.", 0) == 0;
    if (blocking_memop && s.e2e > 0 && s.other * 4 > s.e2e) {
      std::snprintf(buf, sizeof(buf), "attribution quality: %s other=%" PRIu64
                    " exceeds 25%% of e2e=%" PRIu64, key.c_str(), s.other, s.e2e);
      out.emplace_back(buf);
    }
  }
  return out;
}

// ---- Failure-dump registry ----

namespace {
std::mutex g_dump_mu;
std::map<const void*, std::function<std::string()>>& DumpMap() {
  static auto* m = new std::map<const void*, std::function<std::string()>>();
  return *m;
}
}  // namespace

void RegisterFailureDump(const void* key, std::function<std::string()> dump) {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  DumpMap()[key] = std::move(dump);
}

void UnregisterFailureDump(const void* key) {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  DumpMap().erase(key);
}

std::string CollectFailureDumps() {
  std::vector<std::function<std::string()>> dumps;
  {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    for (const auto& [key, fn] : DumpMap()) {
      dumps.push_back(fn);
    }
  }
  std::string out;
  for (const auto& fn : dumps) {
    out += fn();
    out += '\n';
  }
  return out;
}

}  // namespace telemetry
}  // namespace lt
