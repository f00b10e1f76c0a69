#include "src/apps/mapreduce.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <cstring>
#include <thread>

#include "src/apps/phase.h"
#include "src/common/timing.h"
#include "src/tcpip/tcp_stack.h"

namespace liteapp {
namespace {

using lt::ComputeScope;
using lt::NowNs;
using lt::SyncClockTo;

// Unique namespace per job so several jobs can share one cluster.
std::atomic<uint32_t> g_job_counter{0};

std::string JobName(uint32_t job, const std::string& what) {
  return "mr" + std::to_string(job) + "_" + what;
}

lt::Status SendFramed(lt::TcpConn* conn, const void* data, uint32_t len) {
  LT_RETURN_IF_ERROR(conn->Send(&len, sizeof(len)));
  if (len > 0) {
    return conn->StreamSend(data, len);
  }
  return lt::Status::Ok();
}

lt::StatusOr<std::vector<uint8_t>> RecvFramed(lt::TcpConn* conn) {
  uint32_t len = 0;
  LT_RETURN_IF_ERROR(conn->RecvExact(&len, sizeof(len)));
  std::vector<uint8_t> out(len);
  if (len > 0) {
    LT_RETURN_IF_ERROR(conn->RecvExact(out.data(), len));
  }
  return out;
}

}  // namespace

// ------------------------------------------------------- WordCount core

WordCounts CountWords(const char* text, size_t len) {
  WordCounts counts;
  size_t i = 0;
  while (i < len) {
    while (i < len && text[i] == ' ') {
      ++i;
    }
    size_t start = i;
    while (i < len && text[i] != ' ') {
      ++i;
    }
    if (i > start) {
      counts[std::string(text + start, i - start)]++;
    }
  }
  return counts;
}

void MergeCounts(WordCounts* into, const WordCounts& from) {
  for (const auto& [word, count] : from) {
    (*into)[word] += count;
  }
}

std::vector<uint8_t> SerializeCounts(const WordCounts& counts) {
  std::vector<uint8_t> out;
  uint32_t n = static_cast<uint32_t>(counts.size());
  out.resize(sizeof(n));
  std::memcpy(out.data(), &n, sizeof(n));
  for (const auto& [word, count] : counts) {
    uint32_t wl = static_cast<uint32_t>(word.size());
    size_t off = out.size();
    out.resize(off + sizeof(wl) + wl + sizeof(count));
    std::memcpy(out.data() + off, &wl, sizeof(wl));
    std::memcpy(out.data() + off + sizeof(wl), word.data(), wl);
    std::memcpy(out.data() + off + sizeof(wl) + wl, &count, sizeof(count));
  }
  return out;
}

WordCounts DeserializeCounts(const uint8_t* data, size_t len) {
  WordCounts counts;
  if (len < sizeof(uint32_t)) {
    return counts;
  }
  uint32_t n = 0;
  std::memcpy(&n, data, sizeof(n));
  size_t off = sizeof(n);
  for (uint32_t i = 0; i < n && off + sizeof(uint32_t) <= len; ++i) {
    uint32_t wl = 0;
    std::memcpy(&wl, data + off, sizeof(wl));
    off += sizeof(wl);
    if (off + wl + sizeof(uint64_t) > len) {
      break;
    }
    std::string word(reinterpret_cast<const char*>(data + off), wl);
    off += wl;
    uint64_t count = 0;
    std::memcpy(&count, data + off, sizeof(count));
    off += sizeof(count);
    counts[word] = count;
  }
  return counts;
}

uint32_t PartitionOf(const std::string& word, uint32_t num_partitions) {
  uint64_t h = 1469598103934665603ull;
  for (char c : word) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return static_cast<uint32_t>(h % num_partitions);
}

std::vector<std::pair<size_t, size_t>> SplitCorpus(const char* text, size_t len, size_t pieces) {
  std::vector<std::pair<size_t, size_t>> splits;
  size_t target = len / pieces;
  size_t start = 0;
  for (size_t i = 0; i < pieces && start < len; ++i) {
    size_t end = (i == pieces - 1) ? len : std::min(len, start + target);
    while (end < len && text[end] != ' ') {
      ++end;  // Never cut a word.
    }
    splits.emplace_back(start, end - start);
    start = end;
  }
  return splits;
}

// ------------------------------------------------------------- Phoenix

MrResult PhoenixWordCount(const std::string& corpus, int threads) {
  MrResult result;
  const size_t t_count = static_cast<size_t>(threads);
  const uint64_t t0 = NowNs();
  auto splits = SplitCorpus(corpus.data(), corpus.size(), t_count);

  // Map: Phoenix emits intermediate pairs into a GLOBAL tree-structured
  // index shared by all mapper threads (partition-striped). This is the
  // structural difference from LITE-MR's per-node indexes that the paper
  // identifies as Phoenix's multicore bottleneck (Sec. 8.2).
  std::vector<std::map<std::string, uint64_t>> global_index(t_count);
  std::vector<std::unique_ptr<std::mutex>> index_mu;
  for (size_t i = 0; i < t_count; ++i) {
    index_mu.push_back(std::make_unique<std::mutex>());
  }
  uint64_t map_end = RunPhase(splits.size(), t0, [&](size_t t) {
    ComputeScope compute;
    WordCounts local = CountWords(corpus.data() + splits[t].first, splits[t].second);
    for (auto& [word, count] : local) {
      uint32_t p = PartitionOf(word, static_cast<uint32_t>(t_count));
      std::lock_guard<std::mutex> lock(*index_mu[p]);
      global_index[p][word] += count;  // Ordered-tree insert/update.
    }
  });
  result.map_ns = map_end - t0;

  // Reduce: thread r walks its partition of the global index.
  std::vector<WordCounts> reduced(t_count);
  uint64_t reduce_end = RunPhase(t_count, map_end, [&](size_t r) {
    ComputeScope compute;
    for (const auto& [word, count] : global_index[r]) {
      reduced[r][word] += count;
    }
  });
  result.reduce_ns = reduce_end - map_end;

  // Merge: 2-way tree merge of the reduced partitions.
  uint64_t merge_start = reduce_end;
  for (size_t step = 1; step < t_count; step *= 2) {
    merge_start = RunPhase(t_count / (2 * step) + 1, merge_start, [&](size_t i) {
      size_t left = i * 2 * step;
      size_t right = left + step;
      if (right < t_count) {
        ComputeScope compute;
        MergeCounts(&reduced[left], reduced[right]);
        reduced[right].clear();
      }
    });
  }
  result.merge_ns = merge_start - reduce_end;
  result.counts = std::move(reduced[0]);
  result.total_ns = merge_start - t0;
  SyncClockTo(merge_start);  // Keep the caller's clock ahead of this run.
  return result;
}

// ------------------------------------------------------------- LITE-MR

MrResult LiteMrWordCount(lite::LiteCluster* cluster, const std::string& corpus,
                         uint32_t num_workers, int threads_per_worker) {
  MrResult result;
  const uint32_t job = g_job_counter.fetch_add(1);
  const uint32_t tasks = num_workers * static_cast<uint32_t>(threads_per_worker);
  const uint32_t kBarrierCount = tasks;  // Worker threads only.

  auto master = cluster->CreateClient(0);
  auto splits = SplitCorpus(corpus.data(), corpus.size(), tasks);

  // Master publishes the input as one LMR.
  const uint64_t t0 = NowNs();
  auto input = master->Malloc(corpus.size(), JobName(job, "input"));
  (void)master->Write(*input, 0, corpus.data(), corpus.size());

  std::vector<uint64_t> phase_marks(3, 0);
  std::mutex marks_mu;
  auto mark = [&](size_t phase) {
    std::lock_guard<std::mutex> lock(marks_mu);
    phase_marks[phase] = std::max(phase_marks[phase], NowNs());
  };

  uint64_t end = RunPhase(tasks, NowNs(), [&](size_t task) {
    uint32_t worker_node = 1 + static_cast<uint32_t>(task) % num_workers;
    auto client = cluster->CreateClient(worker_node);

    // ---- Map ----
    auto in_lh = client->Map(JobName(job, "input"));
    std::vector<char> text(splits[task].second);
    (void)client->Read(*in_lh, splits[task].first, text.data(), text.size());
    std::vector<WordCounts> partitions(tasks);
    {
      ComputeScope compute;
      WordCounts local = CountWords(text.data(), text.size());
      for (auto& [word, count] : local) {
        partitions[PartitionOf(word, tasks)][word] += count;
      }
    }
    // Publish one LMR per finalized partition buffer (paper Sec. 8.2).
    for (uint32_t r = 0; r < tasks; ++r) {
      std::vector<uint8_t> blob;
      {
        ComputeScope compute;
        blob = SerializeCounts(partitions[r]);
      }
      std::string name = JobName(job, "m" + std::to_string(task) + "_" + std::to_string(r));
      auto lh = client->Malloc(std::max<size_t>(blob.size(), 1) + 8, name);
      uint64_t blob_len = blob.size();
      (void)client->Write(*lh, 0, &blob_len, 8);
      if (!blob.empty()) {
        (void)client->Write(*lh, 8, blob.data(), blob.size());
      }
    }
    (void)client->Barrier(JobName(job, "map"), kBarrierCount);
    mark(0);

    // ---- Reduce: this thread owns partition `task`; LT_read every map
    // output directly from the mapper nodes (paper Sec. 8.2). ----
    WordCounts merged;
    for (uint32_t m = 0; m < tasks; ++m) {
      std::string name = JobName(job, "m" + std::to_string(m) + "_" + std::to_string(task));
      auto lh = client->Map(name);
      if (!lh.ok()) {
        continue;
      }
      uint64_t blob_len = 0;
      (void)client->Read(*lh, 0, &blob_len, 8);
      std::vector<uint8_t> blob(blob_len);
      if (blob_len > 0) {
        (void)client->Read(*lh, 8, blob.data(), blob_len);
      }
      ComputeScope compute;
      MergeCounts(&merged, DeserializeCounts(blob.data(), blob.size()));
    }
    {
      std::vector<uint8_t> blob;
      {
        ComputeScope compute;
        blob = SerializeCounts(merged);
      }
      std::string name = JobName(job, "red" + std::to_string(task) + "_0");
      auto lh = client->Malloc(std::max<size_t>(blob.size(), 1) + 8, name);
      uint64_t blob_len = blob.size();
      (void)client->Write(*lh, 0, &blob_len, 8);
      if (!blob.empty()) {
        (void)client->Write(*lh, 8, blob.data(), blob.size());
      }
    }
    (void)client->Barrier(JobName(job, "reduce"), kBarrierCount);
    mark(1);

    // ---- Merge: 2-way distributed tree merge (paper Sec. 8.2). ----
    uint32_t round = 0;
    for (uint32_t step = 1; step < tasks; step *= 2, ++round) {
      if (task % (2 * step) == 0 && task + step < tasks) {
        // Read the partner's current result and merge into ours.
        std::string mine = JobName(job, "red" + std::to_string(task) + "_" +
                                            std::to_string(round));
        std::string partner = JobName(job, "red" + std::to_string(task + step) + "_" +
                                               std::to_string(round));
        WordCounts acc;
        for (const std::string& name : {mine, partner}) {
          auto lh = client->Map(name);
          if (!lh.ok()) {
            continue;
          }
          uint64_t blob_len = 0;
          (void)client->Read(*lh, 0, &blob_len, 8);
          std::vector<uint8_t> blob(blob_len);
          if (blob_len > 0) {
            (void)client->Read(*lh, 8, blob.data(), blob_len);
          }
          ComputeScope compute;
          MergeCounts(&acc, DeserializeCounts(blob.data(), blob.size()));
        }
        std::vector<uint8_t> blob;
        {
          ComputeScope compute;
          blob = SerializeCounts(acc);
        }
        std::string next = JobName(job, "red" + std::to_string(task) + "_" +
                                            std::to_string(round + 1));
        auto lh = client->Malloc(std::max<size_t>(blob.size(), 1) + 8, next);
        uint64_t blob_len = blob.size();
        (void)client->Write(*lh, 0, &blob_len, 8);
        if (!blob.empty()) {
          (void)client->Write(*lh, 8, blob.data(), blob.size());
        }
      }
      (void)client->Barrier(JobName(job, "merge" + std::to_string(round)), kBarrierCount);
    }
    mark(2);
  });

  // Master reads the final result.
  uint32_t rounds = 0;
  for (uint32_t step = 1; step < tasks; step *= 2) {
    ++rounds;
  }
  SyncClockTo(end);
  auto final_lh = master->Map(JobName(job, "red0_" + std::to_string(rounds)));
  if (final_lh.ok()) {
    uint64_t blob_len = 0;
    (void)master->Read(*final_lh, 0, &blob_len, 8);
    std::vector<uint8_t> blob(blob_len);
    if (blob_len > 0) {
      (void)master->Read(*final_lh, 8, blob.data(), blob_len);
    }
    result.counts = DeserializeCounts(blob.data(), blob.size());
  }
  result.map_ns = phase_marks[0] - t0;
  result.reduce_ns = phase_marks[1] - phase_marks[0];
  result.merge_ns = NowNs() - phase_marks[1];
  result.total_ns = NowNs() - t0;
  return result;
}

// ---------------------------------------------------------- Hadoop-like

MrResult HadoopWordCount(lt::Cluster* cluster, const std::string& corpus, uint32_t num_workers,
                         int threads_per_worker, const HadoopCosts& costs) {
  MrResult result;
  const uint32_t tasks = num_workers * static_cast<uint32_t>(threads_per_worker);
  auto splits = SplitCorpus(corpus.data(), corpus.size(), tasks);
  auto disk = [&costs](uint64_t bytes) {
    lt::SpinFor(static_cast<uint64_t>(static_cast<double>(bytes) / costs.disk_bytes_per_ns));
  };

  // Connection mesh: master->task (input + final), task->task (shuffle).
  std::vector<std::unique_ptr<lt::TcpConn>> master_to_task(tasks);
  std::vector<std::unique_ptr<lt::TcpConn>> task_from_master(tasks);
  std::vector<std::vector<std::unique_ptr<lt::TcpConn>>> shuffle_out(tasks);
  std::vector<std::vector<std::unique_ptr<lt::TcpConn>>> shuffle_in(tasks);
  for (uint32_t t = 0; t < tasks; ++t) {
    shuffle_out[t].resize(tasks);
    shuffle_in[t].resize(tasks);
  }
  auto node_of = [&](uint32_t task) { return 1 + task % num_workers; };
  for (uint32_t t = 0; t < tasks; ++t) {
    auto pair = lt::TcpStack::ConnectPair(&cluster->node(0)->tcp(),
                                          &cluster->node(node_of(t))->tcp());
    master_to_task[t] = std::move(pair.first);
    task_from_master[t] = std::move(pair.second);
    for (uint32_t r = 0; r < tasks; ++r) {
      auto sp = lt::TcpStack::ConnectPair(&cluster->node(node_of(t))->tcp(),
                                          &cluster->node(node_of(r))->tcp());
      shuffle_out[t][r] = std::move(sp.first);
      shuffle_in[r][t] = std::move(sp.second);
    }
  }

  const uint64_t t0 = NowNs();
  lt::SpinFor(costs.job_setup_ns);
  const uint64_t setup_done = NowNs();

  std::atomic<uint64_t> map_end{0};
  std::atomic<uint64_t> reduce_end{0};

  // Feeder: master streams each task's input split.
  std::thread feeder([&] {
    SyncClockTo(setup_done);
    for (uint32_t t = 0; t < tasks; ++t) {
      (void)SendFramed(master_to_task[t].get(), corpus.data() + splits[t].first,
                       static_cast<uint32_t>(splits[t].second));
    }
  });

  uint64_t end = RunPhase(tasks, setup_done, [&](size_t task) {
    // ---- Map task ----
    lt::SpinFor(costs.task_schedule_ns);
    auto text = RecvFramed(task_from_master[task].get());
    std::vector<WordCounts> partitions(tasks);
    {
      ComputeScope compute;
      WordCounts local = CountWords(reinterpret_cast<const char*>(text->data()), text->size());
      for (auto& [word, count] : local) {
        partitions[PartitionOf(word, tasks)][word] += count;
      }
    }
    // Materialize intermediate output to local disk, then shuffle.
    std::vector<std::vector<uint8_t>> blobs(tasks);
    uint64_t spill = 0;
    for (uint32_t r = 0; r < tasks; ++r) {
      ComputeScope compute;
      blobs[r] = SerializeCounts(partitions[r]);
      spill += blobs[r].size();
    }
    disk(spill);
    for (uint32_t r = 0; r < tasks; ++r) {
      disk(blobs[r].size());  // Shuffle re-reads the spill from disk.
      (void)SendFramed(shuffle_out[task][r].get(), blobs[r].data(),
                       static_cast<uint32_t>(blobs[r].size()));
    }
    uint64_t prev = map_end.load();
    while (prev < NowNs() && !map_end.compare_exchange_weak(prev, NowNs())) {
    }

    // ---- Reduce task ----
    lt::SpinFor(costs.task_schedule_ns);
    WordCounts merged;
    for (uint32_t m = 0; m < tasks; ++m) {
      auto blob = RecvFramed(shuffle_in[task][m].get());
      if (!blob.ok()) {
        continue;
      }
      ComputeScope compute;
      MergeCounts(&merged, DeserializeCounts(blob->data(), blob->size()));
    }
    std::vector<uint8_t> out;
    {
      ComputeScope compute;
      out = SerializeCounts(merged);
    }
    disk(out.size());  // Reduce output to HDFS.
    prev = reduce_end.load();
    while (prev < NowNs() && !reduce_end.compare_exchange_weak(prev, NowNs())) {
    }

    // ---- Final collection: reducer ships its output to the master. ----
    (void)SendFramed(shuffle_out[task][task].get(), out.data(),
                     static_cast<uint32_t>(out.size()));
  });
  feeder.join();

  SyncClockTo(end);
  for (uint32_t t = 0; t < tasks; ++t) {
    auto blob = RecvFramed(shuffle_in[t][t].get());
    if (blob.ok()) {
      ComputeScope compute;
      MergeCounts(&result.counts, DeserializeCounts(blob->data(), blob->size()));
    }
  }
  result.map_ns = map_end.load() - t0;
  result.reduce_ns = reduce_end.load() - map_end.load();
  result.merge_ns = NowNs() - reduce_end.load();
  result.total_ns = NowNs() - t0;
  return result;
}

}  // namespace liteapp
