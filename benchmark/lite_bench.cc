// lite_bench — the repo benchmark program (README.md has the full story).
//
// Runs one named closed-loop workload against the public LiteCluster /
// LiteClient API, checks every output, and prints each metric by name and
// unit; the last stdout line is one JSON object. Virtual-clock metrics are
// what the paper's readers care about, host-clock metrics are what running
// the simulator costs.
//
//   lite_bench --workload NAME [--seed N] [--seconds S] [--scale D]
//              [--trace-dir DIR]
//
// A run sets the workload up, runs one untimed warm-up round, then measured
// rounds until S host seconds have passed (at least kMinRounds). Each load
// thread replays its seeded op table once per round; rounds start together
// at a common virtual time. Virtual metrics are medians over the measured
// rounds, host metrics are totals over them. After the checks the run sets
// up again until it has kMinSetups set-ups and kSetupBudgetS host seconds of
// them; setup_s is their median. These set-ups come last so they cannot
// inflate peak RSS, and each starts cold (see main). --trace-dir records
// benchmark-side spans and reports the per-layer metrics instead of the
// end-to-end ones, which always come from untraced runs.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/bench_trace.h"
#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace {

using litebench::Call;
using litebench::HostNs;
using litebench::ScopedCall;

// ------------------------------------------------------------------ inputs

// SplitMix64, owned here so a given seed yields the same inputs at every
// commit of the program under test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

uint64_t Mix(uint64_t a, uint64_t b) { return Rng(a * 0x100000001b3ull ^ b).Next(); }

enum OpKind : uint8_t {
  kRead64,
  kRead4K,
  kWrite64,
  kWrite4K,
  kFetchAdd,
  kRpc8,
  kRpc512,
  kRpc4K,
  kNumKinds,
};
// Data bytes per op; for RPCs, the reply length (requests are kRpcInBytes).
constexpr uint32_t kKindBytes[kNumKinds] = {64, 4096, 64, 4096, 8, 8, 512, 4096};
bool IsRead(OpKind k) { return k == kRead64 || k == kRead4K; }
bool IsWrite(OpKind k) { return k == kWrite64 || k == kWrite4K; }

constexpr uint64_t kBlock = 4096;
constexpr uint32_t kRpcInBytes = 64;
constexpr uint32_t kRpcOutMax = 4096;
constexpr lite::RpcFuncId kBenchFunc = 7;
constexpr lt::NodeId kRpcNode = 0;
constexpr uint64_t kCounterOff = 0;  // Block 0 holds the fetch-add counter.
constexpr int kMinRounds = 3;
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
const char* const kLmrName = "bench_lmr";

// One op in 8 bytes: kind | source-node slot << 4 | LMR offset << 12.
uint64_t PackOp(OpKind kind, uint64_t src, uint64_t off) { return kind | src << 4 | off << 12; }
OpKind OpKindOf(uint64_t op) { return static_cast<OpKind>(op & 0xf); }
uint32_t OpSrc(uint64_t op) { return static_cast<uint32_t>((op >> 4) & 0xff); }
uint64_t OpOff(uint64_t op) { return op >> 12; }

struct Spec {
  const char* name;
  size_t nodes;
  lt::NodeId lmr_node;
  uint64_t lmr_bytes;  // 0: no LMR.
  int rpc_handlers;    // Handler threads on kRpcNode (0: no RPC server).
  std::vector<std::vector<lt::NodeId>> sources;  // Per load thread: nodes it sends from.
  std::array<uint32_t, kNumKinds> mix;           // Percent of ops of each kind.
  uint32_t window;          // 0: blocking ops; else async ops per WaitAll.
  uint32_t round_requests;  // Requests per load thread per round.
  size_t node_mem_bytes;
  double setup_est_s;  // Expected host seconds of one set-up, and of one
  double round_est_s;  // round: they size the hang deadline.
};

std::vector<Spec> Workloads() {
  std::vector<std::vector<lt::NodeId>> incast(3);
  for (lt::NodeId n = 1; n < 64; ++n) {
    incast[(n - 1) / 21].push_back(n);
  }
  //      reads        writes      FA   RPC 8/512/4K
  return {
      {"sync_mix", 2, 1, 16 << 20, 0, {{0}}, {45, 15, 25, 10, 5, 0, 0, 0}, 0, 200000, 24 << 20,
       0.05, 0.5},
      {"rpc_fanin", 3, 0, 0, 2, {{1}, {2}}, {0, 0, 0, 0, 0, 70, 25, 5}, 0, 10000, 4 << 20, 0.05,
       0.5},
      {"async_stream", 3, 2, 16 << 20, 0, {{0}, {1}}, {0, 10, 10, 80, 0, 0, 0, 0}, 32, 2500,
       24 << 20, 0.05, 0.5},
      {"incast_64n", 64, 0, 1 << 20, 1, incast, {25, 0, 60, 0, 5, 10, 0, 0}, 0, 40000, 6 << 20,
       0.6, 0.5},
  };
}

// Thread `t`'s op table for one round. Blocks 1.. of the LMR are dealt
// round-robin to the load threads; a thread only touches its own, so a
// shadow copy predicts every read. Within an async window no two ops share
// a block.
std::vector<uint64_t> GenerateTable(const Spec& spec, uint32_t t, uint64_t seed,
                                    uint32_t requests) {
  Rng rng(Mix(seed, t));
  std::vector<uint64_t> owned;
  const uint64_t threads = spec.sources.size();
  for (uint64_t b = 1 + t; b < spec.lmr_bytes / kBlock; b += threads) {
    owned.push_back(b);
  }
  const uint32_t per_request = std::max(1u, spec.window);
  std::vector<uint64_t> table;
  table.reserve(static_cast<size_t>(requests) * per_request);
  std::vector<uint64_t> in_window;
  for (uint32_t r = 0; r < requests; ++r) {
    in_window.clear();
    for (uint32_t k = 0; k < per_request; ++k) {
      uint64_t pick = rng.Below(100);
      int kind = 0;
      while (pick >= spec.mix[kind]) {
        pick -= spec.mix[kind++];
      }
      const uint64_t src = rng.Below(spec.sources[t].size());
      uint64_t off = kCounterOff;
      const OpKind op = static_cast<OpKind>(kind);
      if (IsRead(op) || IsWrite(op)) {
        uint64_t block = 0;
        do {
          block = owned[rng.Below(owned.size())];
        } while (std::find(in_window.begin(), in_window.end(), block) != in_window.end());
        if (spec.window != 0) {
          in_window.push_back(block);
        }
        off = block * kBlock + (kKindBytes[op] < kBlock ? 64 * rng.Below(kBlock / 64) : 0);
      }
      table.push_back(PackOp(op, src, off));
    }
  }
  return table;
}

// Seeded content: writes, RPC requests and replies are all filled from a
// 64-bit key, so the receiver can recompute what it should see.
void FillPattern(uint8_t* p, uint32_t len, uint64_t key) {
  for (uint32_t i = 0; i + 8 <= len; i += 8) {
    const uint64_t w = key + i * 0x9e3779b97f4a7c15ull;
    std::memcpy(p + i, &w, 8);
  }
}

// ------------------------------------------------------------- environment

struct SetupTimes {
  double total_s = 0;
  double cluster_ctor_s = 0;
  double ctrl_s = 0;
};

// One RPC handler thread at kRpcNode; serves until the environment stops.
struct Handler {
  std::unique_ptr<lite::LiteClient> client;
  std::thread thread;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> wait_host_ns{0};  // Host time blocked in RecvRpc.
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> mismatches{0};
};

// RPC request: request id (joins handler spans to the caller's), wanted
// reply length, then seeded filler the handler checks.
void BuildRequest(uint8_t* in, uint64_t seed, uint64_t req, uint32_t want) {
  FillPattern(in, kRpcInBytes, Mix(seed, req));
  std::memcpy(in, &req, 8);
  std::memcpy(in + 8, &want, 4);
}

uint64_t ReplyKey(uint64_t seed, uint64_t req) { return Mix(seed ^ 0x5250435265706c79ull, req); }

// A set-up workload: cluster, LMR, mapped handles, running RPC handlers.
class Env {
 public:
  Env(const Spec& spec, uint64_t seed, SetupTimes* times) : seed_(seed) {
    ScopedCall setup(Call::kSetup, 0, true);
    const uint64_t sid = setup.id();
    const uint64_t t0 = HostNs();
    lt::SimParams params;
    params.node_phys_mem_bytes = spec.node_mem_bytes;
    params.lite_rpc_ring_bytes = 32 << 10;
    params.lite_reply_slots = 32;
    params.lite_reply_slot_bytes = 8 << 10;
    {
      ScopedCall call(Call::kClusterCtor, 0, true, 0, 0, sid);
      cluster_ = std::make_unique<lite::LiteCluster>(spec.nodes, params);
    }
    const uint64_t t1 = HostNs();
    if (spec.lmr_bytes != 0) {
      owner_ = cluster_->CreateClient(spec.lmr_node);
      ScopedCall call(Call::kMalloc, spec.lmr_node, true, 0, 0, sid);
      Check(owner_->Malloc(spec.lmr_bytes, kLmrName).status(), "Malloc");
    }
    if (spec.rpc_handlers > 0) {
      handlers_.resize(spec.rpc_handlers);
      for (auto& h : handlers_) {
        h = std::make_unique<Handler>();
        h->client = cluster_->CreateClient(kRpcNode);
      }
      {
        ScopedCall call(Call::kRegisterRpc, kRpcNode, true, 0, 0, sid);
        Check(handlers_[0]->client->RegisterRpc(kBenchFunc), "RegisterRpc");
      }
      ScopedCall call(Call::kHandlerStart, kRpcNode, true, 0, 0, sid);
      uint32_t tid = 1 + static_cast<uint32_t>(spec.sources.size());
      for (auto& h : handlers_) {
        h->thread = std::thread([this, hp = h.get(), tid] { Serve(hp, tid); });
        ++tid;
      }
    }
    clients_.resize(spec.sources.size());
    lhs_.resize(spec.sources.size());
    for (size_t t = 0; t < spec.sources.size(); ++t) {
      for (lt::NodeId node : spec.sources[t]) {
        clients_[t].push_back(cluster_->CreateClient(node));
        lite::Lh lh = lite::kInvalidLh;
        if (spec.lmr_bytes != 0) {
          ScopedCall call(Call::kMap, node, true, 0, 0, sid);
          auto mapped = clients_[t].back()->Map(kLmrName);
          Check(mapped.status(), "Map");
          lh = mapped.ok() ? *mapped : lite::kInvalidLh;
        }
        lhs_[t].push_back(lh);
      }
    }
    const uint64_t t2 = HostNs();
    times->total_s = static_cast<double>(t2 - t0) * 1e-9;
    times->cluster_ctor_s = static_cast<double>(t1 - t0) * 1e-9;
    times->ctrl_s = static_cast<double>(t2 - t1) * 1e-9;
  }

  ~Env() {
    stop_.store(true);
    for (auto& h : handlers_) {
      h->thread.join();
    }
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  lite::LiteCluster& cluster() { return *cluster_; }
  lite::LiteClient* client(size_t thread, size_t slot) { return clients_[thread][slot].get(); }
  lite::Lh lh(size_t thread, size_t slot) const { return lhs_[thread][slot]; }
  const std::vector<std::unique_ptr<Handler>>& handlers() const { return handlers_; }
  bool setup_ok() const { return setup_ok_; }

 private:
  void Check(const lt::Status& st, const char* what) {
    if (!st.ok()) {
      std::fprintf(stderr, "lite_bench: set-up %s failed: %s\n", what, st.ToString().c_str());
      setup_ok_ = false;
    }
  }

  void Serve(Handler* h, uint32_t tid) {
    if (litebench::g_tracer != nullptr) {
      litebench::g_tracer->AttachThisThread(tid);
    }
    const uint32_t node = h->client->node_id();
    std::vector<uint8_t> reply(kRpcOutMax);
    while (!stop_.load()) {
      const uint64_t h0 = HostNs();
      lt::StatusOr<lite::RpcIncoming> in = lt::Status::Timeout("");
      uint64_t req = 0;
      {
        ScopedCall call(Call::kRecvRpc, node, true);
        in = h->client->RecvRpc(kBenchFunc, 20'000'000);
        if (in.ok() && in->data.size() >= 8) {
          std::memcpy(&req, in->data.data(), 8);
        }
        call.Join(req);
      }
      h->wait_host_ns.fetch_add(HostNs() - h0, std::memory_order_relaxed);
      if (!in.ok()) {
        const lt::StatusCode code = in.status().code();
        if (code != lt::StatusCode::kTimeout && code != lt::StatusCode::kUnavailable) {
          h->failed.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      h->served.fetch_add(1, std::memory_order_relaxed);
      uint32_t want = 0;
      if (in->data.size() == kRpcInBytes) {
        std::memcpy(&want, in->data.data() + 8, 4);
      }
      uint8_t expect[kRpcInBytes];
      BuildRequest(expect, seed_, req, want);
      if (in->data.size() != kRpcInBytes ||
          std::memcmp(in->data.data(), expect, kRpcInBytes) != 0 ||
          (want != kKindBytes[kRpc8] && want != kKindBytes[kRpc512] &&
           want != kKindBytes[kRpc4K])) {
        h->mismatches.fetch_add(1, std::memory_order_relaxed);
        want = 0;
      }
      FillPattern(reply.data(), want, ReplyKey(seed_, req));
      ScopedCall call(Call::kReplyRpc, node, litebench::ReqSampled(req), 0, req, req);
      if (!h->client->ReplyRpc(in->token, reply.data(), want).ok()) {
        h->failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  const uint64_t seed_;
  bool setup_ok_ = true;
  std::atomic<bool> stop_{false};
  std::unique_ptr<lite::LiteCluster> cluster_;
  std::unique_ptr<lite::LiteClient> owner_;
  std::vector<std::vector<std::unique_ptr<lite::LiteClient>>> clients_;
  std::vector<std::vector<lite::Lh>> lhs_;
  // Last: handler threads use everything above and are joined first.
  std::vector<std::unique_ptr<Handler>> handlers_;
};

// ------------------------------------------------------------------ rounds

// Lock-step rounds: the main thread opens a phase for every load thread at
// a common virtual start time and waits until all have finished it.
class RoundGate {
 public:
  static constexpr int64_t kVerify = -2;
  static constexpr int64_t kStop = -1;

  explicit RoundGate(int workers) : workers_(workers) {}

  void Run(int64_t phase, uint64_t vstart) {
    std::unique_lock<std::mutex> lock(mu_);
    phase_ = phase;
    vstart_ = vstart;
    pending_ = workers_;
    ++generation_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return pending_ == 0; });
  }

  // Worker side: blocks until the phase after `*seen` opens.
  int64_t Next(uint64_t* seen, uint64_t* vstart) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return generation_ != *seen; });
    *seen = generation_;
    *vstart = vstart_;
    return phase_;
  }

  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) {
      cv_.notify_all();
    }
  }

 private:
  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t phase_ = 0;
  uint64_t vstart_ = 0;
  int pending_ = 0;
  uint64_t generation_ = 0;
};

struct Worker {
  uint32_t tid = 0;  // Trace lane and request-id tag (1-based; 0 is main).
  std::vector<uint64_t> table;
  std::vector<uint8_t> buf;     // Read / reply landing area.
  std::vector<uint8_t> expect;  // Expected RPC reply.
  std::vector<std::pair<lite::MemopHandle, uint32_t>> handles;  // Window: handle, op.
  std::vector<std::pair<lite::MemopHandle, lt::Status>> results;
  std::vector<uint64_t> fa_values;  // Every value a fetch-add returned.
  // This round's results, read by the main thread between rounds.
  std::vector<uint32_t> lat;  // Virtual ns per request.
  uint64_t round_ops = 0;
  uint64_t vt_end = 0;
  // Totals over the run.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t counter = 0;  // Final fetch-add counter, read by the first worker.
};

// Per-round virtual-clock measurements.
struct Round {
  double vt_ops_per_us;
  double vt_mean_ns;
  double vt_p50_ns;
  double vt_p99_ns;
  double vt_p999_ns;
};

struct Usage {
  uint64_t user_ns = 0;
  uint64_t sys_ns = 0;
  uint64_t csw = 0;
  uint64_t maxrss_kb = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return {ns(ru.ru_utime), ns(ru.ru_stime),
          static_cast<uint64_t>(ru.ru_nvcsw) + static_cast<uint64_t>(ru.ru_nivcsw),
          static_cast<uint64_t>(ru.ru_maxrss)};
}

int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile; reorders `v`.
double Percentile(std::vector<uint32_t>& v, double p) {
  size_t k = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

// Cluster-wide telemetry totals: per-node snapshots summed by name.
struct Totals {
  std::map<std::string, int64_t> values;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists;  // count, sum

  double Value(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : static_cast<double>(it->second);
  }
};

Totals ClusterTotals(lite::LiteCluster& cluster) {
  Totals t;
  for (size_t i = 0; i < cluster.size(); ++i) {
    const auto snap = cluster.instance(static_cast<lt::NodeId>(i))->StatSnapshot();
    for (const auto& [name, v] : snap.values) {
      t.values[name] += v;
    }
    for (const auto& [name, h] : snap.histograms) {
      auto& acc = t.hists[name];
      acc.first += h.count;
      acc.second += h.sum;
    }
  }
  return t;
}

Totals Delta(const Totals& end, const Totals& begin) {
  Totals d = end;
  for (auto& [name, v] : d.values) {
    v -= static_cast<int64_t>(begin.Value(name));
  }
  for (auto& [name, h] : d.hists) {
    auto it = begin.hists.find(name);
    if (it != begin.hists.end()) {
      h.first -= it->second.first;
      h.second -= it->second.second;
    }
  }
  return d;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Aborts a run that outlives its host-time budget: dumps the flight recorder
// of the live cluster to stderr and exits non-zero instead of hanging.
class Deadline {
 public:
  Deadline(double seconds, std::mutex* env_mu, const std::unique_ptr<Env>* env)
      : thread_([this, seconds, env_mu, env] {
          std::unique_lock<std::mutex> lock(mu_);
          if (cv_.wait_for(lock, std::chrono::duration<double>(seconds), [&] { return done_; })) {
            return;
          }
          std::fprintf(stderr, "lite_bench: host-time deadline of %.0f s expired; run failed\n",
                       seconds);
          std::lock_guard<std::mutex> env_lock(*env_mu);
          if (*env != nullptr) {
            std::fprintf(stderr, "%s\n", (*env)->cluster().DumpJournal().c_str());
          }
          std::fflush(stderr);
          std::_Exit(3);
        }) {}

  ~Deadline() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// ------------------------------------------------------------------- bench

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  uint32_t scale = 1;
  std::string trace_dir;  // Non-empty: traced run.
};

class Bench {
 public:
  Bench(const Spec& spec, const Options& opt) : spec_(spec), opt_(opt) {}

  int Run();

 private:
  // Builds a timed set-up as env_, tearing the previous one down first.
  void SetUp();
  void TearDown();
  void WorkerMain(Worker* w);
  void RunRequest(Worker& w, const uint64_t* ops, uint64_t index);
  void RunBlocking(Worker& w, uint64_t op, uint64_t req);
  void RunWindow(Worker& w, const uint64_t* ops, uint64_t req);
  void Verify(Worker& w);
  Round MeasureRound(int64_t round);
  bool CheckFetchAdds();
  std::vector<Metric> EndToEnd(uint64_t attempted, uint64_t failed) const;
  std::vector<Metric> PerLayer(const Totals& d) const;
  // Simulated ops per host wall second over all measured rounds: a total,
  // not a median, so a run that straddles a change in host load reports
  // the mix it saw.
  double HostKopsPerS() const {
    return Ratio(static_cast<double>(measured_ops_) * 1e6,
                 static_cast<double>(measured_wall_ns_));
  }
  void WriteArtifacts();

  const Spec& spec_;
  const Options opt_;
  std::vector<uint8_t> shadow_;  // Expected LMR contents.
  std::mutex env_mu_;  // Guards env_ changes against the deadline dump.
  std::unique_ptr<Env> env_;
  std::vector<SetupTimes> setups_;
  std::vector<Worker> workers_;
  std::unique_ptr<RoundGate> gate_;
  uint64_t vstart_ = 0;
  uint32_t table_requests_ = 0;
  std::vector<Round> rounds_;
  uint64_t measured_ops_ = 0;
  uint64_t measured_wall_ns_ = 0;
  Usage usage_;  // Measured-phase totals.
  uint64_t served_ = 0;
  uint64_t server_wait_ns_ = 0;
  int host_threads_ = 0;
  double qp_per_node_ = 0;
  uint64_t peak_rss_kb_ = 0;
};

void Bench::SetUp() {
  TearDown();
  SetupTimes times;
  auto env = std::make_unique<Env>(spec_, opt_.seed, &times);
  setups_.push_back(times);
  std::lock_guard<std::mutex> lock(env_mu_);
  env_ = std::move(env);
}

void Bench::TearDown() {
  std::unique_ptr<Env> env;
  {
    std::lock_guard<std::mutex> lock(env_mu_);
    env = std::move(env_);
  }
  env.reset();  // Untimed; outside the lock, so a hang here cannot block the deadline.
}

void Bench::RunBlocking(Worker& w, uint64_t op, uint64_t req) {
  const OpKind kind = OpKindOf(op);
  const uint32_t slot = OpSrc(op);
  const uint64_t off = OpOff(op);
  const uint32_t len = kKindBytes[kind];
  lite::LiteClient* c = env_->client(w.tid - 1, slot);
  const lite::Lh lh = env_->lh(w.tid - 1, slot);
  const uint32_t node = c->node_id();
  const bool sampled = litebench::ReqSampled(req);
  const uint64_t t0 = lt::NowNs();
  lt::Status st;
  bool match = true;
  if (IsRead(kind)) {
    {
      ScopedCall call(Call::kRead, node, sampled, req, req);
      st = c->Read(lh, off, w.buf.data(), len);
    }
    match = !st.ok() || std::memcmp(w.buf.data(), shadow_.data() + off, len) == 0;
  } else if (IsWrite(kind)) {
    FillPattern(shadow_.data() + off, len, Mix(opt_.seed, req));
    ScopedCall call(Call::kWrite, node, sampled, req, req);
    st = c->Write(lh, off, shadow_.data() + off, len);
  } else if (kind == kFetchAdd) {
    ScopedCall call(Call::kFetchAdd, node, sampled, req, req);
    auto v = c->FetchAdd(lh, kCounterOff, 1);
    st = v.status();
    if (v.ok()) {
      w.fa_values.push_back(*v);
    }
  } else {
    uint8_t in[kRpcInBytes];
    BuildRequest(in, opt_.seed, req, len);
    uint32_t out_len = 0;
    {
      ScopedCall call(Call::kRpc, node, sampled, req, req);
      st = c->Rpc(kRpcNode, kBenchFunc, in, kRpcInBytes, w.buf.data(), kRpcOutMax, &out_len);
    }
    if (st.ok()) {
      FillPattern(w.expect.data(), len, ReplyKey(opt_.seed, req));
      match = out_len == len && std::memcmp(w.buf.data(), w.expect.data(), len) == 0;
    }
  }
  w.lat.push_back(static_cast<uint32_t>(lt::NowNs() - t0));
  ++w.round_ops;
  ++w.attempted;
  w.failed += st.ok() ? 0 : 1;
  w.mismatches += match ? 0 : 1;
}

void Bench::RunWindow(Worker& w, const uint64_t* ops, uint64_t req) {
  lite::LiteClient* c = env_->client(w.tid - 1, 0);
  const lite::Lh lh = env_->lh(w.tid - 1, 0);
  const uint32_t node = c->node_id();
  const bool sampled = litebench::ReqSampled(req);
  ScopedCall window(Call::kWindow, node, sampled, req, req);
  const uint64_t t0 = lt::NowNs();
  w.handles.clear();
  for (uint32_t k = 0; k < spec_.window; ++k) {
    const OpKind kind = OpKindOf(ops[k]);
    const uint64_t off = OpOff(ops[k]);
    const uint32_t len = kKindBytes[kind];
    lt::StatusOr<lite::MemopHandle> h = lite::kInvalidMemopHandle;
    if (IsWrite(kind)) {
      FillPattern(shadow_.data() + off, len, Mix(opt_.seed, req * 64 + k));
      ScopedCall call(Call::kWriteAsync, node, sampled, 0, req, req);
      h = c->WriteAsync(lh, off, shadow_.data() + off, len);
    } else {
      ScopedCall call(Call::kReadAsync, node, sampled, 0, req, req);
      h = c->ReadAsync(lh, off, w.buf.data() + k * kBlock, len);
    }
    if (h.ok()) {
      w.handles.emplace_back(*h, k);
    } else {
      ++w.failed;
    }
  }
  w.results.clear();
  {
    ScopedCall call(Call::kWaitAll, node, sampled, 0, req, req);
    (void)c->WaitAll(&w.results);
  }
  w.lat.push_back(static_cast<uint32_t>(lt::NowNs() - t0));
  for (const auto& [handle, k] : w.handles) {
    bool ok = false;
    for (const auto& [rh, st] : w.results) {
      if (rh == handle) {
        ok = st.ok();
        break;
      }
    }
    const OpKind kind = OpKindOf(ops[k]);
    if (!ok) {
      ++w.failed;
    } else if (IsRead(kind) &&
               std::memcmp(w.buf.data() + k * kBlock, shadow_.data() + OpOff(ops[k]),
                           kKindBytes[kind]) != 0) {
      ++w.mismatches;
    }
  }
  w.round_ops += spec_.window;
  w.attempted += spec_.window;
}

void Bench::RunRequest(Worker& w, const uint64_t* ops, uint64_t index) {
  const uint64_t req = litebench::MakeReq(w.tid, index);
  if (spec_.window == 0) {
    RunBlocking(w, ops[0], req);
  } else {
    RunWindow(w, ops, req);
  }
}

// Final sweep: every owned block read back whole and compared with the
// shadow, so a lost write shows even if no later read hit it. The first
// worker also reads the fetch-add counter.
void Bench::Verify(Worker& w) {
  if (spec_.lmr_bytes == 0) {
    return;
  }
  lite::LiteClient* c = env_->client(w.tid - 1, 0);
  const lite::Lh lh = env_->lh(w.tid - 1, 0);
  const uint64_t threads = spec_.sources.size();
  for (uint64_t b = w.tid; b < spec_.lmr_bytes / kBlock; b += threads) {
    const lt::Status st = c->Read(lh, b * kBlock, w.buf.data(), kBlock);
    if (!st.ok() || std::memcmp(w.buf.data(), shadow_.data() + b * kBlock, kBlock) != 0) {
      ++w.mismatches;
    }
  }
  if (w.tid == 1 && !c->Read(lh, kCounterOff, &w.counter, sizeof(w.counter)).ok()) {
    ++w.mismatches;
  }
}

void Bench::WorkerMain(Worker* w) {
  if (litebench::g_tracer != nullptr) {
    litebench::g_tracer->AttachThisThread(w->tid);
  }
  const uint32_t per_request = std::max(1u, spec_.window);
  uint64_t seen = 0;
  for (;;) {
    uint64_t vstart = 0;
    const int64_t phase = gate_->Next(&seen, &vstart);
    if (phase == RoundGate::kStop) {
      gate_->Done();
      return;
    }
    lt::SyncClockTo(vstart);
    if (phase == RoundGate::kVerify) {
      Verify(*w);
    } else {
      w->lat.clear();
      w->round_ops = 0;
      const uint64_t base = static_cast<uint64_t>(phase) * table_requests_;
      for (uint32_t i = 0; i < table_requests_; ++i) {
        RunRequest(*w, w->table.data() + static_cast<size_t>(i) * per_request, base + i);
      }
    }
    w->vt_end = lt::NowNs();
    gate_->Done();
  }
}

Round Bench::MeasureRound(int64_t round) {
  const Usage u0 = ProcessUsage();
  const uint64_t h0 = HostNs();
  gate_->Run(round, vstart_);
  const uint64_t wall = HostNs() - h0;
  const Usage u1 = ProcessUsage();
  uint64_t ops = 0;
  uint64_t vt_end = vstart_;
  std::vector<uint32_t> lat;
  for (Worker& w : workers_) {
    ops += w.round_ops;
    vt_end = std::max(vt_end, w.vt_end);
    lat.insert(lat.end(), w.lat.begin(), w.lat.end());
  }
  usage_.user_ns += u1.user_ns - u0.user_ns;
  usage_.sys_ns += u1.sys_ns - u0.sys_ns;
  usage_.csw += u1.csw - u0.csw;
  measured_ops_ += ops;
  measured_wall_ns_ += wall;
  Round r{};
  r.vt_ops_per_us =
      Ratio(static_cast<double>(ops) * 1000.0, static_cast<double>(vt_end - vstart_));
  double sum = 0;
  for (uint32_t v : lat) {
    sum += v;
  }
  r.vt_mean_ns = Ratio(sum, static_cast<double>(lat.size()));
  if (!lat.empty()) {
    r.vt_p50_ns = Percentile(lat, 50);
    r.vt_p99_ns = Percentile(lat, 99);
    r.vt_p999_ns = Percentile(lat, 99.9);
  }
  vstart_ = vt_end;
  return r;
}

bool Bench::CheckFetchAdds() {
  std::vector<uint64_t> all;
  for (const Worker& w : workers_) {
    all.insert(all.end(), w.fa_values.begin(), w.fa_values.end());
  }
  if (all.empty()) {
    return true;
  }
  // Exactly once: n adds of 1 from 0 return each of 0..n-1 once and leave n.
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i] != i) {
      std::fprintf(stderr, "lite_bench: fetch-add returned %" PRIu64 " at rank %zu\n", all[i], i);
      return false;
    }
  }
  if (workers_[0].counter != all.size()) {
    std::fprintf(stderr, "lite_bench: fetch-add counter %" PRIu64 " after %zu adds\n",
                 workers_[0].counter, all.size());
    return false;
  }
  return true;
}

std::vector<Metric> Bench::EndToEnd(uint64_t attempted, uint64_t failed) const {
  auto med = [&](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds_) {
      v.push_back(r.*field);
    }
    return Median(v);
  };
  std::vector<double> setup;
  for (const SetupTimes& s : setups_) {
    setup.push_back(s.total_s);
  }
  return {
      {"vt_mean_ns", med(&Round::vt_mean_ns), "ns"},
      {"vt_p50_ns", med(&Round::vt_p50_ns), "ns"},
      {"vt_p99_ns", med(&Round::vt_p99_ns), "ns"},
      {"vt_p999_ns", med(&Round::vt_p999_ns), "ns"},
      {"vt_ops_per_us", med(&Round::vt_ops_per_us), "ops/us"},
      {"host_kops_per_s", HostKopsPerS(), "kops/s"},
      {"host_cpu_us_per_op",
       Ratio(static_cast<double>(usage_.user_ns + usage_.sys_ns) / 1000.0,
             static_cast<double>(measured_ops_)),
       "us"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb_) / 1024.0, "MB"},
      {"failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "frac"},
  };
}

std::vector<Metric> Bench::PerLayer(const Totals& d) const {
  std::vector<Metric> out;
  // Virtual-time stages of lite.lat.*, summed over every op key: per-op
  // means, so the stages add up to the mean op latency.
  std::map<std::string, double> stage;
  double ops = 0;
  for (const auto& [name, h] : d.hists) {
    if (name.rfind("lite.lat.", 0) != 0) {
      continue;
    }
    const std::string s = name.substr(name.rfind('.') + 1);
    if (s == "e2e") {
      ops += static_cast<double>(h.first);
    } else {
      stage[s] += static_cast<double>(h.second);
    }
  }
  const std::pair<const char*, const char*> kStages[] = {
      {"oss.cross_ns", "cross"},           {"lmr_table.submit_ns", "submit"},
      {"rnic.post_ns", "post"},            {"rnic.local_ns", "rnic_local"},
      {"rnic.remote_ns", "rnic_remote"},   {"rnic.compl_ns", "compl_poll"},
      {"fabric.port_q_ns", "port_q"},      {"fabric.wire_ns", "wire"},
      {"op_engine.engine_q_ns", "engine_q"}, {"op_engine.retire_ns", "retire"},
      {"rpc.remote_svc_ns", "remote_svc"},
  };
  for (const auto& [metric, key] : kStages) {
    out.push_back({metric, Ratio(stage[key], ops), "ns"});
  }
  auto hist = [&](const std::string& name) {
    auto it = d.hists.find(name);
    return it == d.hists.end() ? std::pair<uint64_t, uint64_t>{0, 0} : it->second;
  };
  const auto poll_batch = hist("lite.rpc.poll_batch");
  const double qpc_hits = d.Value("rnic.qpc.hits");
  std::vector<double> ctor;
  std::vector<double> ctrl;
  for (const SetupTimes& s : setups_) {
    ctor.push_back(s.cluster_ctor_s);
    ctrl.push_back(s.ctrl_s);
  }
  const double cpu = static_cast<double>(usage_.user_ns + usage_.sys_ns);
  const double mops = static_cast<double>(measured_ops_);
  const std::vector<Metric> rest = {
      {"rnic.batched_frac", Ratio(d.Value("lite.rnic.wqes_batched"), d.Value("rnic.ops_posted")),
       "frac"},
      {"async.inferred_frac",
       Ratio(d.Value("lite.async.inferred_completions"), d.Value("lite.async.ops")), "frac"},
      {"rpc.poll_useful",
       d.Value("lite.poll.wakeups") > 0
           ? 1.0 - Ratio(d.Value("lite.poll.idle_wakeups"), d.Value("lite.poll.wakeups"))
           : 0.0,
       "frac"},
      {"rpc.poll_batch_mean",
       Ratio(static_cast<double>(poll_batch.second), static_cast<double>(poll_batch.first)),
       "count"},
      {"rpc.server_wait_host_ns",
       Ratio(static_cast<double>(server_wait_ns_), static_cast<double>(served_)), "ns"},
      {"transport.qpc_hit", Ratio(qpc_hits, qpc_hits + d.Value("rnic.qpc.misses")), "frac"},
      {"transport.qp_count", qp_per_node_, "count"},
      {"node.cluster_ctor_s", Median(ctor), "s"},
      {"node.ctrl_s", Median(ctrl), "s"},
      {"host.threads", static_cast<double>(host_threads_), "count"},
      {"op_engine.retries", d.Value("lite.engine.retries"), "count"},
      {"host.csw_per_op", Ratio(static_cast<double>(usage_.csw), mops), "count"},
      {"host.sys_frac", Ratio(static_cast<double>(usage_.sys_ns), cpu), "frac"},
      {"trace.host_kops_per_s", HostKopsPerS(), "kops/s"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  for (size_t i = 0; i < static_cast<size_t>(Call::kNumData); ++i) {
    const Call call = static_cast<Call>(i);
    std::vector<double> host_ns;
    for (const litebench::Span& s : litebench::g_tracer->Spans(call)) {
      host_ns.push_back(static_cast<double>(s.host_end - s.host_start));
    }
    const std::string prefix = std::string("api.") + litebench::CallName(call);
    out.push_back({prefix + ".host_ns_p50", Median(host_ns), "ns"});
    out.push_back({prefix + ".calls", static_cast<double>(litebench::g_tracer->Calls(call)),
                   "count"});
  }
  return out;
}

void Bench::WriteArtifacts() {
  const std::string base = opt_.trace_dir + "/" + spec_.name;
  if (!litebench::g_tracer->WriteChromeTrace(base + ".trace.json")) {
    std::fprintf(stderr, "lite_bench: cannot write %s.trace.json\n", base.c_str());
  }
  std::ofstream(base + ".waterfall.txt") << env_->cluster().DumpLatencyBreakdown();
  std::ofstream counters(base + ".counters.json");
  counters << "{\"nodes\":[";
  for (size_t i = 0; i < env_->cluster().size(); ++i) {
    counters << (i == 0 ? "" : ",")
             << env_->cluster().instance(static_cast<lt::NodeId>(i))->StatSnapshot().ToJson();
  }
  counters << "]}\n";
}

int Bench::Run() {
  const double expected_s = opt_.seconds + kSetupBudgetS + (kMinSetups + 1) * spec_.setup_est_s +
                            (kMinRounds + 2) * spec_.round_est_s / opt_.scale + 5;
  Deadline deadline(3 * expected_s, &env_mu_, &env_);
  SetUp();
  if (!env_->setup_ok()) {
    return 2;
  }
  table_requests_ = std::max(1u, spec_.round_requests / opt_.scale);
  shadow_.assign(spec_.lmr_bytes, 0);
  workers_.resize(spec_.sources.size());
  for (size_t t = 0; t < workers_.size(); ++t) {
    Worker& w = workers_[t];
    w.tid = static_cast<uint32_t>(t + 1);
    w.table = GenerateTable(spec_, static_cast<uint32_t>(t), opt_.seed, table_requests_);
    w.buf.assign(std::max(1u, spec_.window) * kBlock, 0);
    w.expect.assign(kRpcOutMax, 0);
    w.lat.reserve(table_requests_);
  }
  gate_ = std::make_unique<RoundGate>(static_cast<int>(workers_.size()));
  std::vector<std::thread> threads;
  for (Worker& w : workers_) {
    threads.emplace_back([this, &w] { WorkerMain(&w); });
  }
  vstart_ = lt::NowNs();
  (void)MeasureRound(0);  // Warm-up: lazy rings and caches fill untimed.
  measured_ops_ = 0;
  measured_wall_ns_ = 0;
  usage_ = Usage{};
  auto served = [&](uint64_t* wait_ns) {
    uint64_t n = 0;
    *wait_ns = 0;
    for (const auto& h : env_->handlers()) {
      n += h->served.load();
      *wait_ns += h->wait_host_ns.load();
    }
    return n;
  };
  uint64_t wait0 = 0;
  const uint64_t served0 = served(&wait0);
  const Totals before = ClusterTotals(env_->cluster());
  for (int64_t r = 1;; ++r) {
    rounds_.push_back(MeasureRound(r));
    if (r == kMinRounds) {
      // Peak RSS over a fixed amount of work: the simulator's memory grows
      // with simulated time, so a later high-water mark would move with
      // host speed.
      peak_rss_kb_ = ProcessUsage().maxrss_kb;
    }
    if (r >= kMinRounds &&
        static_cast<double>(measured_wall_ns_) * 1e-9 >= opt_.seconds) {
      break;
    }
  }
  host_threads_ = ProcessThreads();
  const Totals delta = Delta(ClusterTotals(env_->cluster()), before);
  served_ = served(&server_wait_ns_) - served0;
  server_wait_ns_ -= wait0;
  gate_->Run(RoundGate::kVerify, vstart_);
  gate_->Run(RoundGate::kStop, vstart_);
  for (std::thread& t : threads) {
    t.join();
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  for (const Worker& w : workers_) {
    attempted += w.attempted;
    failed += w.failed;
    mismatches += w.mismatches;
  }
  for (const auto& h : env_->handlers()) {
    failed += h->failed.load();
    mismatches += h->mismatches.load();
  }
  const bool fa_ok = CheckFetchAdds();
  const std::vector<std::string> health = env_->cluster().RunHealthCheck();
  for (const std::string& v : health) {
    std::fprintf(stderr, "lite_bench: health: %s\n", v.c_str());
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "lite_bench: %" PRIu64 " outputs did not match\n", mismatches);
  }
  const bool correct = mismatches == 0 && fa_ok && health.empty();

  const bool traced = litebench::g_tracer != nullptr;
  qp_per_node_ = Ratio(ClusterTotals(env_->cluster()).Value("rnic.qp_count"),
                       static_cast<double>(spec_.nodes));
  if (traced) {
    WriteArtifacts();
  }
  // The remaining set-ups for setup_s, after peak RSS was taken.
  double spent_s = setups_[0].total_s;
  while (setups_.size() < kMinSetups ||
         (spent_s < kSetupBudgetS && setups_.size() < kMaxSetups)) {
    SetUp();
    if (!env_->setup_ok()) {
      return 2;
    }
    spent_s += setups_.back().total_s;
  }
  TearDown();
  const std::vector<Metric> metrics = traced ? PerLayer(delta) : EndToEnd(attempted, failed);

  std::printf("workload %s  seed %" PRIu64 "  rounds %zu  ops/round %" PRIu64 "\n", spec_.name,
              opt_.seed, rounds_.size(), rounds_.empty() ? 0 : measured_ops_ / rounds_.size());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"rounds\":%zu,\"mismatches\":%" PRIu64
              ",\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"metrics\":{",
              spec_.name, opt_.seed, rounds_.size(), mismatches, correct ? "true" : "false",
              attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.12g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

int UsageError(const char* msg) {
  std::fprintf(stderr,
               "lite_bench: %s\nusage: lite_bench --workload NAME [--seed N] [--seconds S] "
               "[--scale D] [--trace-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold returns every large block (node memory, rings)
  // to the OS when a set-up is torn down, so every set-up starts cold.
  // Without it glibc raises the threshold after the first free and later
  // set-ups reuse resident heap, skipping the page faults the first paid.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return UsageError(("missing value for " + arg).c_str());
    }
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--scale") {
      opt.scale = static_cast<uint32_t>(std::max(1, std::atoi(v)));
    } else if (arg == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      return UsageError(("unknown argument " + arg).c_str());
    }
  }
  const std::vector<Spec> specs = Workloads();
  auto it = std::find_if(specs.begin(), specs.end(),
                         [&](const Spec& s) { return opt.workload == s.name; });
  if (it == specs.end()) {
    return UsageError(("unknown workload '" + opt.workload + "'").c_str());
  }
  litebench::Tracer tracer;
  if (!opt.trace_dir.empty()) {
    litebench::g_tracer = &tracer;
    tracer.AttachThisThread(0);
  }
  return Bench(*it, opt).Run();
}
