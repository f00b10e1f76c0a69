// telemetry_smoke: end-to-end check of the --telemetry sidecar path. Runs a
// miniature bench workload against a LiteCluster, writes the JSON sidecar
// through benchlib::TelemetrySink exactly as the fig benches do, reads it
// back, and validates the schema: balanced structure, expected keys, the
// host-cost block, and counters that actually moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/benchlib.h"
#include "src/lite/lite_cluster.h"
#include "src/node/node.h"

namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool JsonBalanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) {
        return false;
      }
    }
  }
  return depth == 0 && !in_string;
}

// Extracts the integer that follows `"key":` (first occurrence).
int64_t JsonIntValue(const std::string& json, const std::string& key) {
  size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) {
    return -1;
  }
  pos += key.size() + 3;
  return std::stoll(json.substr(pos));
}

TEST(TelemetrySmokeTest, SidecarSchemaAndLiveCounters) {
  const std::string path = ::testing::TempDir() + "/telemetry_smoke.json";
  std::remove(path.c_str());

  {
    // Simulate `bench --telemetry <path>`.
    std::string arg0 = "telemetry_smoke";
    std::string arg1 = "--telemetry=" + path;
    char* argv[] = {arg0.data(), arg1.data()};
    benchlib::TelemetrySink sink =
        benchlib::TelemetrySink::FromArgs(2, argv, "telemetry_smoke");
    ASSERT_TRUE(sink.enabled());
    ASSERT_EQ(sink.path(), path);

    lt::SimParams p;  // Calibrated costs: sampled records book real stages.
    p.node_phys_mem_bytes = 32ull << 20;
    lite::LiteCluster cluster(2, p);
    cluster.EnableTracing(/*sample_every=*/1);
    auto client = cluster.CreateClient(0);
    lite::MallocOptions on1;
    on1.nodes = {1};
    auto lh = client->Malloc(32 << 10, "smoke_target", on1);
    ASSERT_TRUE(lh.ok());
    char buf[512] = {7};
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(client->Write(*lh, 0, buf, sizeof(buf)).ok());
      ASSERT_TRUE(client->Read(*lh, 0, buf, sizeof(buf)).ok());
    }
    sink.AddSnapshot("LITE_write", "512B", client->StatSnapshot());
    sink.SetClusterDump(cluster.DumpTelemetryJson());
    ASSERT_TRUE(sink.WriteFile());
  }

  std::string json = ReadFileOrDie(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonBalanced(json)) << json.substr(0, 200);

  // Top-level sidecar schema.
  EXPECT_NE(json.find("\"bench\":\"telemetry_smoke\""), std::string::npos);
  EXPECT_NE(json.find("\"points\":["), std::string::npos);
  EXPECT_NE(json.find("\"series\":\"LITE_write\""), std::string::npos);
  EXPECT_NE(json.find("\"x\":\"512B\""), std::string::npos);
  // Per-point snapshot schema.
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  // Cluster dump with per-node sampled-op records and their stage events.
  EXPECT_NE(json.find("\"cluster\":{"), std::string::npos);
  EXPECT_NE(json.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"write\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"cross\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"compl_poll\""), std::string::npos);

  // The host block: what the process has cost the host so far. A run this
  // short can be charged no user (or no system) time, and need not switch.
  EXPECT_NE(json.find("\"host\":{\"wall_ns\":"), std::string::npos);
  for (const char* key : {"wall_ns", "maxrss_kb", "threads"}) {
    EXPECT_GT(JsonIntValue(json, key), 0) << key << " missing or zero in the host block";
  }
  for (const char* key : {"user_ns", "sys_ns", "csw"}) {
    EXPECT_GE(JsonIntValue(json, key), 0) << key << " missing from the host block";
  }

  // The workload really ran: key counters are present and positive.
  for (const char* key :
       {"rnic.ops_posted", "os.crossings", "lite.qos.admits", "fabric.port.bytes"}) {
    EXPECT_GT(JsonIntValue(json, key), 0) << key << " missing or zero in sidecar";
  }
  // 64 ops posted from node 0 (32 writes + 32 reads).
  EXPECT_GE(JsonIntValue(json, "rnic.ops_posted"), 64);

  std::remove(path.c_str());
}

}  // namespace
